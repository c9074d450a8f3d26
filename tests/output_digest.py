"""One SHA-256 digest per command of a checkout's CLI, for byte-identity diffs.

    python3 tests/output_digest.py [CHECKOUT]

Runs ``dunkl_darboux.cli.run(argv)`` in-process, from CHECKOUT's ``src``
(default: the checkout this script sits in), over

- the three benchmark populations, read from CHECKOUT's
  ``bench/workloads.py``,
- figures 1-7 and the ``darboux`` kinds at their defaults,
- the refusal examples of the README's "Parameter ranges",

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
]


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
    for command in commands + DEFAULTS + REFUSALS:
        print(f"{digest(cli, command)}  {shlex.join(command)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
