"""One SHA-256 digest per command of a checkout's CLI, for byte-identity diffs.

    python3 tests/output_digest.py [CHECKOUT]

Runs ``dunkl_darboux.cli.run(argv)`` in-process, from CHECKOUT's ``src``
(default: the checkout this script sits in), over

- the three benchmark populations, read from CHECKOUT's
  ``bench/workloads.py``,
- figures 1-7 and the ``darboux`` kinds at their defaults,
- the refusal examples of the README's "Parameter ranges",
- ``darboux`` edge grids, where the order of the chain's refusals shows,
- one command for each output path no command above reaches: ``spectrum``,
  ``--format json`` of each table and report, and ``--config`` files,
  valid and malformed (written to one fixed path under the system's
  temporary directory, so each message is the same string on every
  checkout),
- an ``--out`` path that cannot be opened, and a ``figure 4`` grid whose
  density cannot be normalized,
- a non-finite E, dV-hat/dE or Wronskian, and a confluent refusal met by the
  validation of the chain joined by Phi's rows,
- commands whose float overflow numpy reported as a RuntimeWarning (a
  Phi-hat determinant, the seed's product, U_E(y) at a subnormal E, x^2
  at a grid end near the float limit), and the PDM route at a subnormal E,

and prints one ``<sha256>  <argv>`` line per command.  The digest covers
the exit code (or the type and message of an exception that escapes
``run``), stdout and stderr, so two checkouts whose lines agree gave
byte-identical results.  Running it on two checkouts and comparing the
outputs line by line lists the commands whose output changed.  pytest
does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

DEFAULTS = ([["figure", str(n)] for n in range(1, 8)]
            + [["darboux"],
               ["darboux", "--kind", "standard", "--order", "1"],
               ["darboux", "--kind", "confluent"]])

# The README's refusals, one command each, in the order it lists them.
REFUSALS = [
    ["verify", "--scenario", "gaussian-mass", "--nu", "1e154", "--delta", "1"],
    ["density", "--scenario", "gaussian-mass", "--nu", "171", "--delta", "1"],
    ["density", "--scenario", "gaussian-mass", "--nu", "200", "--delta", "1"],
    ["density", "--scenario", "gaussian-mass", "--nu", "250", "--delta", "1"],
    ["density", "--scenario", "harmonic-energy", "--nu", "400", "--delta", "-1"],
    ["density", "--scenario", "harmonic-energy", "--nu", "512", "--delta", "-1"],
    ["darboux", "--nu", "400"],
    ["verify", "--scenario", "harmonic-energy", "--nu", "1000", "--delta", "1"],
    ["figure", "5", "--nu", "1000"],
    ["density", "--scenario", "harmonic-energy", "--nu", "1e150", "--delta", "-1"],
    ["darboux", "--energy", "-1"],
    ["darboux", "--energy", "1e10"],
    ["darboux", "--energy", "1e204"],
    ["darboux", "--energy", "1e206"],
    ["darboux", "--kind", "confluent", "--nu", "52", "--delta", "-1"],
    ["figure", "7", "--nu", "54", "--delta", "1"],
    ["spectrum", "--nu", "2.5", "--delta", "-1", "--rule", "ene1", "--n-max", "-1"],
    ["darboux", "--grid-count", "1"],
    ["darboux", "--nu", "1e150"],
    ["verify", "--scenario", "harmonic-energy", "--nu", "0.5", "--delta", "1",
     "--grid-hi", "25"],
    ["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1",
     "--grid-hi", "19.5"],
    ["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1",
     "--grid-lo", "27", "--grid-hi", "28"],
    ["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1",
     "--grid-hi", "22"],
    ["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1",
     "--rule", "ene1", "--grid-lo", "0"],
]

# darboux grids at the edges of its range: x = e^y underflowing to 0 or
# x^-2 overflowing, a Wronskian floor inside the grid (the confluent
# -400..-300 grid, where W and the floor's scale are both 0), and grids
# whose points of ln(x) differ from y.
EDGES = [
    ["darboux", "--kind", "standard", "--grid-lo", "-800", "--grid-hi", "1",
     "--grid-count", "5"],
    ["darboux", "--kind", "confluent", "--grid-lo", "-800", "--grid-hi", "1",
     "--grid-count", "5"],
    ["darboux", "--energy", "0.3", "--grid-lo", "-2", "--grid-hi", "3",
     "--grid-count", "200"],
    ["darboux", "--kind", "confluent", "--energy", "50", "--grid-lo", "-2",
     "--grid-hi", "2", "--grid-count", "100"],
    ["darboux", "--kind", "standard", "--order", "1", "--grid-lo", "-3",
     "--grid-hi", "3", "--grid-count", "301"],
    ["darboux", "--kind", "confluent", "--grid-lo", "-400", "--grid-hi", "-300",
     "--grid-count", "3"],
    ["darboux", "--kind", "standard", "--grid-lo", "-750", "--grid-hi", "1",
     "--grid-count", "5"],
]

# Output paths the lists above do not reach: spectrum, JSON tables and
# reports, and the config loader.
FORMATS = [
    ["spectrum", "--nu", "2.5", "--delta", "-1", "--rule", "ene1", "--n-max", "4"],
    ["spectrum", "--nu", "2.5", "--delta", "-1", "--rule", "ene1", "--n-max", "4",
     "--format", "json"],
    ["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1",
     "--format", "json"],
    ["verify", "--scenario", "harmonic-energy-pdm", "--nu", "2.5", "--delta", "-1",
     "--format", "json"],
    ["density", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1",
     "--grid-count", "20", "--format", "json"],
    ["darboux", "--grid-count", "20", "--format", "json"],
    ["figure", "3", "--grid-count", "20", "--format", "json"],
]

# A grid whose span hi - lo overflows, though both ends are finite.
SPANS = [
    ["darboux", "--grid-lo=-1.7e308", "--grid-hi=1.7e308", "--grid-count", "3"],
    ["figure", "3", "--grid-lo=-1.7e308", "--grid-hi=1.7e308", "--grid-count", "3"],
]

# Config files by name: text, then the commands that read it.  A valid
# file (with a flag over it, and keys the command does not read), then
# one file per malformed-file message.
CONFIG_DIR = Path(tempfile.gettempdir()) / "dunkl-darboux-digest"
CONFIGS = {
    "readme.json": ('{"scenario": "harmonic-energy", "params": {"nu": 2.5, "delta": -1, '
                    '"rule": "ene1", "n": 0}, "grid": {"lo": 0.1, "hi": 4.0, "count": 400}, '
                    '"output": {"format": "csv"}}',
                    [["verify"], ["density", "--scenario", "gaussian-mass", "--rule", "ene0",
                                  "--grid-count", "9"],
                     ["spectrum", "--n-max", "2"], ["figure", "5", "--grid-count", "9"]]),
    "chain.json": ('{"params": {"nu": 3.5, "delta": 1, "n": 1}, "grid": {"lo": -1, '
                   '"hi": 1, "count": 50}, "chain": {"kind": "confluent", "order": 2, '
                   '"eps": [0.2]}, "output": {"format": "json"}}',
                   [["darboux", "--grid-count", "7"]]),
    "missing.json": (None, [["spectrum"]]),
    "syntax.json": ('{"params": ', [["spectrum"]]),
    "list.json": ("[1, 2]", [["spectrum"]]),
    "section.json": ('{"grid": 3}', [["figure", "1"]]),
    "string.json": ('{"scenario": 1}', [["verify"]]),
    "number.json": ('{"params": {"nu": "abc"}}', [["spectrum"]]),
    "integer.json": ('{"grid": {"count": 2.5}}', [["darboux"]]),
    "list-of-numbers.json": ('{"chain": {"eps": [0.2, true]}}', [["darboux"]]),
    "format.json": ('{"output": {"format": "xml"}}', [["density"]]),
    "grid-hi-range.json": ('{"grid": {"hi": 1' + "0" * 400 + '}}', [["figure", "1"]]),
    "nu-range.json": ('{"params": {"nu": 1' + "0" * 400 + '}}', [["darboux"]]),
    "long-integer.json": ('{"grid": {"count": 1' + "0" * 5000 + '}}', [["figure", "1"]]),
    "not-utf8.json": ("\udcff{}", [["figure", "1"]]),
}

# An --out path whose directory does not exist, and a figure 4 grid on
# which a density integrates to 0.
REFUSED_OUTPUTS = [
    ["figure", "1", "--grid-count", "5", "--out", str(CONFIG_DIR / "missing" / "x.csv")],
    ["figure", "4", "--nu", "-0.5", "--delta", "1", "--grid-count", "2"],
]

# A non-finite E on a grid where U_E(y) made inf * 0, a figure 4 grid
# where dV-hat/dE is not finite, a confluent E whose first refusal is
# one of Phi's rows, a figure 3 grid whose Wronskian overflows, and a
# non-finite E on the PDM route.
NON_FINITE = [
    ["darboux", "--energy", "inf", "--grid-lo", "-400", "--grid-hi", "-300",
     "--grid-count", "3"],
    ["figure", "4", "--nu", "1.5", "--delta", "-1", "--grid-lo", "1e-300",
     "--grid-hi", "1e-299", "--grid-count", "3"],
    ["darboux", "--kind", "confluent", "--energy", "1e10"],
    ["figure", "3", "--nu", "1000", "--delta", "-1", "--grid-lo", "10", "--grid-hi", "50",
     "--grid-count", "5"],
    ["verify", "--scenario", "harmonic-energy-pdm", "--nu", "2.5", "--delta", "-1",
     "--energy", "inf"],
]


# Overflows that escaped as a RuntimeWarning: the nu = 250 confluent
# Phi-hat determinant (printed as nan), the nu = 400 seed's
# e^{-z/2 + (r/2) y} L, U_E(y)'s e^{4y}/E at E = 1e-310, and x^2 at a grid
# end near the float limit in figure 1's states, in the initial potential
# of figures 3 and 7, in the gaussian-mass state (density) and mass
# (verify); figure 4's density product at nu = 250; and the PDM route at
# E = 1e-310, which reported its overflow as a failed check.
OVERFLOWS = [
    ["darboux", "--kind", "confluent", "--nu", "250", "--delta", "-1", "--energy", "4",
     "--grid-hi", "3", "--grid-count", "25"],
    ["verify", "--scenario", "harmonic-energy", "--nu", "400", "--delta", "1", "--n", "601",
     "--grid-count", "7"],
    ["darboux", "--nu", "170", "--delta", "-1", "--energy", "1e-310", "--grid-lo=-2",
     "--grid-hi=25", "--grid-count", "2"],
    ["verify", "--scenario", "harmonic-energy-pdm", "--nu", "2.5", "--delta", "1",
     "--energy", "1e-310"],
    ["figure", "1", "--grid-lo=-1.7e+308", "--grid-hi=1", "--grid-count", "2"],
    ["figure", "3", "--grid-hi=1.7e+308", "--grid-count", "2"],
    ["figure", "7", "--grid-lo=-1.7e+308", "--grid-hi=1", "--grid-count", "2"],
    ["density", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1", "--grid-lo=1",
     "--grid-hi=1.7e+308", "--grid-count", "2"],
    ["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1", "--grid-lo=1",
     "--grid-hi=1.7e+308", "--grid-count", "2"],
    ["figure", "4", "--nu", "250", "--delta", "1", "--grid-hi=4", "--grid-count", "3"],
]


def config_commands() -> list:
    """Write the files of ``CONFIGS`` (removing a missing one's) and list their commands."""
    CONFIG_DIR.mkdir(exist_ok=True)
    commands = []
    for name, (text, argvs) in CONFIGS.items():
        path = CONFIG_DIR / name
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text, encoding="utf-8", errors="surrogateescape")
        commands += [argv + ["--config", str(path)] for argv in argvs]
    return commands


def digest(cli, argv) -> str:
    """SHA-256 of the exit code (or escaped exception), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = cli.run(argv)
    except Exception as exc:    # recorded: an escaped exception is an outcome
        outcome = f"{type(exc).__name__}: {exc}"
    text = json.dumps([outcome, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from dunkl_darboux import cli
    import workloads
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"dunkl_darboux imported from {cli.__file__}, "
                         f"not {root / 'src'}")
    commands = [argv for name in ("figures", "chains", "verify-sweep")
                for argv in workloads.population(name)]
    for command in commands + DEFAULTS + REFUSALS + EDGES + FORMATS + SPANS \
            + config_commands() + REFUSED_OUTPUTS + NON_FINITE + OVERFLOWS:
        print(f"{digest(cli, command)}  {shlex.join(command)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
