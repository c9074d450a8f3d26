"""Workload process of the benchmark: one process, one thread, one caller.

Started by ``run.py`` with a JSON job on stdin.  It imports the package
from the checkout's ``src``, runs the workload's passes as a closed loop
(the next op starts when the previous one has returned) and writes one
JSON line per op, then a final summary line, to stdout.  After each op,
outside its timing, it times the calibration loop once.  Output checks
happen in the parent, outside this process and its timings.

With ``"trace": true`` untraced and traced passes alternate.  Span totals
are sent for each traced pass, and the spans of the first traced pass
are written to the job's ``spans_path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# An untraced run repeats every op at least this many times; the
# benchmark reports the median of each op's repetitions.
MIN_PASSES = 3


def run_op(cli, argv):
    """One op: ``cli.run(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    rc, raised = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        raised = type(exc).__name__
    return time.perf_counter() - start, rc, raised, out.getvalue(), err.getvalue()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from dunkl_darboux import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"dunkl_darboux imported from {cli.__file__}, not {ROOT / 'src'}")

    import tracing
    import workloads
    from calibration import calibrate

    job = json.load(sys.stdin)
    channel = sys.stdout
    ops = workloads.population(job["workload"])
    tracer = tracing.Tracer() if job["trace"] else None

    # Untimed warm-up: one op of each subcommand, so lazy imports and
    # first-call set-up inside the package are not timed.
    seen = set()
    for argv in ops:
        if argv[0] not in seen:
            seen.add(argv[0])
            run_op(cli, argv)

    def emit(record):
        channel.write(json.dumps(record) + "\n")

    def run_pass(number, order, traced):
        if traced:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        for i in order:
            if traced:
                tracer.op_error = None
            elapsed, rc, raised, out, err = run_op(cli, ops[i])
            emit({"pass": number, "traced": traced, "i": i, "t": elapsed,
                  "cal": calibrate(), "rc": rc,
                  "raised": raised, "error_class": tracer.op_error if traced else None,
                  "out": out, "err": err})
        took = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        return took

    schedule = workloads.passes(len(ops), job["seed"])
    pass_times, traced_times, summaries = [], [], []
    number = 0
    while True:
        pass_times.append(run_pass(number, next(schedule), False))
        number += 1
        if tracer is not None:
            traced_times.append(run_pass(number, next(schedule), True))
            number += 1
            summaries.append(tracer.summary())
            if len(summaries) == 1:
                tracer.save_spans(job["spans_path"])
            tracer.reset()
        spent = sum(pass_times) + sum(traced_times)
        next_cost = pass_times[-1] + (traced_times[-1] if traced_times else 0.0)
        enough = tracer is not None or len(pass_times) >= MIN_PASSES
        if enough and spent + next_cost > job["seconds"]:
            break

    emit({"done": True, "passes": len(pass_times),
          "summaries": summaries,
          "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
