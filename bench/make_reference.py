"""Record the reference outcome of every op of every workload.

Usage, from the repository root:

    python3 bench/make_reference.py

Runs each workload's population once, in-process, and writes
``bench/reference/<workload>.json.xz`` (exit code, stdout, stderr and the
class of the error that ended the op) plus
``bench/reference/known_failing.json``, which groups the ops that fail.
The benchmark compares every op it runs against these files, so they
are regenerated only when an output change is intended.
"""

from __future__ import annotations

import collections
import json
import lzma
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dunkl_darboux import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def main() -> int:
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    tracer.install()
    failing = {}
    for workload in workloads.POPULATIONS:
        entries = {}
        groups = collections.Counter()
        for argv in workloads.population(workload):
            tracer.reset()
            _, rc, raised, out, err = run_op(cli, argv)
            if raised is not None:
                raise SystemExit(f"{argv}: {raised} escaped cli.run")
            error_class = tracer.op_error if rc != 0 else None
            entries[workloads.op_key(argv)] = {"rc": rc, "out": out, "err": err,
                                               "error_class": error_class}
            if rc != 0:
                scenario = argv[argv.index("--scenario") + 1] if "--scenario" in argv else ""
                rule = argv[argv.index("--rule") + 1]
                groups[(argv[0], scenario, rule, error_class, err.strip())] += 1
        payload = json.dumps({"ops": entries}, sort_keys=True, indent=0)
        (out_dir / f"{workload}.json.xz").write_bytes(
            lzma.compress(payload.encode("utf-8"), preset=9))
        failing[workload] = {
            "ops_per_pass": len(entries),
            "failing_per_pass": sum(groups.values()),
            "groups": [{"command": c, "scenario": s, "rule": r, "error_class": e,
                        "message": m, "ops": n}
                       for (c, s, r, e, m), n in sorted(groups.items())],
        }
        print(f"{workload}: {len(entries)} ops, {sum(groups.values())} failing")
    tracer.uninstall()
    (out_dir / "known_failing.json").write_text(
        json.dumps(failing, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
