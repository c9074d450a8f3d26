"""Benchmark of the ``dunkl-darboux`` CLI: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Workloads are ``figures``, ``chains`` and ``verify-sweep`` (see
``workloads.py``).  With ``--trace 0`` the run reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer
metrics from a separate run in which traced and untraced passes
alternate.  Every op's output is checked against ``reference/``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import lzma
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import calibrate, speed_factor
from check import Reference, count_numbers
from workloads import op_key, population

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh processes timed for setup_s; half run before the workload process
# and half after it, so the median spans the run's slow and fast spells.
SETUP_PROBES = 10
CAL_SAMPLES = 9       # calibration loops timed before and after each fresh process
CAL_WINDOW = 20       # an op is scaled by the loops of the 20 ops either side too
IMPORT_PROBES = 3     # fresh processes per import.* metric
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

# Fresh process: time from spawn until ``import dunkl_darboux.cli`` is done.
SETUP_PROBE = ("import sys, time\nsys.path.insert(0, sys.argv[1])\n"
               "import dunkl_darboux.cli\nprint(time.monotonic())\n")
# Fresh process: in-process time of one import statement.
IMPORT_PROBE = ("import importlib, sys, time\nsys.path.insert(0, sys.argv[1])\n"
                "start = time.perf_counter()\nimportlib.import_module(sys.argv[2])\n"
                "print(time.perf_counter() - start)\n")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"   # one process, one thread
    return env


def probe(code: str, *args: str) -> float:
    proc = subprocess.run([sys.executable, "-c", code, str(SRC), *args],
                          capture_output=True, text=True, env=child_env(),
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def calibrated(measure):
    """(raw value, speed factor) of ``measure()``, bracketed by calibration loops."""
    before = [calibrate() for _ in range(CAL_SAMPLES)]
    value = measure()
    return value, speed_factor(before + [calibrate() for _ in range(CAL_SAMPLES)])


def setup_once() -> float:
    start = time.monotonic()
    return probe(SETUP_PROBE) - start


def load_references(workload: str) -> dict:
    raw = lzma.decompress((HERE / "reference" / f"{workload}.json.xz").read_bytes())
    return {key: Reference(entry) for key, entry in json.loads(raw)["ops"].items()}


def run_worker(job: dict, on_op) -> tuple:
    """Run the workload process; call ``on_op`` per op record.

    Returns the final record.
    """
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=child_env())
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    done = None
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        for line in proc.stdout:
            record = json.loads(line)
            if record.get("done"):
                done = record
            else:
                on_op(record)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or done is None:
        raise RuntimeError(f"workload process failed with exit code {proc.returncode}")
    return done


def quantile(values, q: float) -> float:
    """Quantile by linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Tally:
    """Outcomes of the ops of one run, folded as their records arrive."""

    def __init__(self, references: dict, ops: list):
        self.references = references
        self.keys = [op_key(argv) for argv in ops]
        self.outcomes = {"ok": 0, "expected_failure": 0, "mismatch": 0}
        self.untraced = []            # (op index, seconds, calibration seconds)
        self.exact = 0
        self.mismatched = []
        self.first_traced = None      # pass number of the first traced pass
        self.passes = {}              # (pass number, traced) -> (op seconds, loop times)
        self.traced_bytes = self.traced_numbers = 0
        self.traced_errors = {}

    def __call__(self, rec: dict) -> None:
        key = self.keys[rec["i"]]
        ref = self.references[key]
        args = (rec["rc"], rec["raised"], rec["out"], rec["err"])
        outcome = ref.judge(*args)
        self.outcomes[outcome] += 1
        self.exact += ref.exact(*args)
        entry = self.passes.setdefault((rec["pass"], rec["traced"]), [0.0, []])
        entry[0] += rec["t"]
        entry[1].append(rec["cal"])
        if outcome == "mismatch" and len(self.mismatched) < 5:
            self.mismatched.append(f"{key}: exit {rec['rc']}, raised {rec['raised']}, "
                                   f"stderr {rec['err'][:120]!r}")
        if not rec["traced"]:
            self.untraced.append((rec["i"], rec["t"], rec["cal"]))
            return
        if self.first_traced is None:
            self.first_traced = rec["pass"]
        if rec["pass"] == self.first_traced:
            self.traced_bytes += len(rec["out"].encode("utf-8"))
            self.traced_numbers += count_numbers(rec["out"])
            if rec["rc"] != 0:
                name = rec["raised"] or rec["error_class"] or "other"
                self.traced_errors[name] = self.traced_errors.get(name, 0) + 1

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    def pass_factors(self, traced: bool) -> list:
        """Speed factors of the traced or untraced passes, in run order."""
        return [speed_factor(cal) for (_, t), (_, cal) in sorted(self.passes.items())
                if t == traced]

    def scaled_op_seconds(self, traced: bool) -> float:
        """Op time of the traced or untraced passes at the reference speed."""
        return sum(op_s * speed_factor(cal)
                   for (_, t), (op_s, cal) in self.passes.items() if t == traced)


def timings(tally: Tally, setup: list, scaled: bool) -> dict:
    """Timing metrics, at the reference speed or (``scaled=False``) raw.

    Each op execution is scaled by the speed factor of the calibration
    loops timed after it and its neighbours, and each op's time is the
    median of its scaled repetitions in the run.
    """
    cal = [c for _, _, c in tally.untraced]
    reps = {}
    for j, (i, t, _) in enumerate(tally.untraced):
        window = cal[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1]
        reps.setdefault(i, []).append(t * (speed_factor(window) if scaled else 1.0))
    op_ms = [statistics.median(v) * 1e3 for v in reps.values()]
    n = len(tally.untraced)
    return {
        "setup_s": (statistics.median(raw * (f if scaled else 1.0) for raw, f in setup),
                    len(setup)),
        "ops_per_s": (len(op_ms) * 1e3 / sum(op_ms), n),
        "op_p50_ms": (statistics.median(op_ms), n),
        "op_p90_ms": (quantile(op_ms, 0.9), n),
    }


def end_to_end(tally: Tally, done: dict, setup: list) -> dict:
    return {**timings(tally, setup, scaled=True),
            "ok_frac": (tally.outcomes["ok"] / tally.attempted, tally.attempted),
            "peak_rss_mb": (done["peak_rss_kb"] / 1024.0, 1)}


def per_layer(tally: Tally, done: dict, imports: dict, n_ops: int) -> dict:
    """Per-layer metrics.  Counts come from the first traced pass, which
    always follows exactly one untraced pass; times are means over all
    traced passes, each scaled to the reference speed by its pass's
    calibration loops.  Per-call figures are 0 where a workload makes no
    call.
    """
    runs = done["summaries"]
    first = runs[0]
    k = len(runs)
    traced_f = tally.pass_factors(traced=True)
    out = {}

    def calls(name):
        return first["calls"].get(name, 0)

    def per_call(name, unit_scale, table="calls", incl="incl_s"):
        n = sum(s[table].get(name, 0) for s in runs)
        total = sum(s[incl].get(name, 0.0) * f for s, f in zip(runs, traced_f))
        return total / n * unit_scale if n else 0.0

    def self_s(layer):
        return sum(s["layer_self_s"][layer] * f for s, f in zip(runs, traced_f)) / k

    for name in ("kummer_m", "assoc_laguerre", "bessel_i"):
        out[f"specfun.{name}.calls"] = calls(f"specfun.{name}")
    for branch in ("polynomial", "series", "reflected"):
        out[f"specfun.kummer_m.{branch}_calls"] = first["tag_calls"].get(
            f"specfun.kummer_m.{branch}", 0)
    out["specfun.self_s"] = self_s("specfun")
    out["specfun.kummer_m.us_per_call"] = per_call("specfun.kummer_m", 1e6)
    out["specfun.kummer_m.series_us_per_call"] = per_call(
        "specfun.kummer_m.series", 1e6, "tag_calls", "tag_incl_s")
    out["specfun.max_rel_est_error"] = first["max_rel_est_error"]
    out["specfun.calls_per_output_value"] = (first["layer_entries"]["specfun"]
                                             / max(tally.traced_numbers, 1))

    for name in ("derivative", "parameter_derivative", "integrate_real_line"):
        out[f"numerics.{name}.calls"] = calls(f"numerics.{name}")
    out["numerics.quad_evals"] = first["quad_evals"]
    out["numerics.quad_max_est_error"] = first["quad_max_est_error"]
    out["numerics.self_s"] = self_s("numerics")

    for name in ("dunkl_residual", "probability_density", "modified_norm"):
        out[f"model.{name}.calls"] = calls(f"model.{name}")
    out["model.modified_norm.ms_per_call"] = per_call("model.modified_norm", 1e3)
    out["model.self_s"] = self_s("model")

    for name in ("induced_potential", "energy_relation_residual"):
        out[f"pointmap.{name}.calls"] = calls(f"pointmap.{name}")
    out["pointmap.self_s"] = self_s("pointmap")

    for name in ("transformed_potential", "transformed_solution", "wronskian",
                 "chain_residuals"):
        out[f"darboux.{name}.calls"] = calls(f"darboux.{name}")
    out["darboux.transformed_potential.standard_us_per_call"] = per_call(
        "darboux.transformed_potential.standard", 1e6, "tag_calls", "tag_incl_s")
    out["darboux.transformed_solution.us_per_call"] = per_call(
        "darboux.transformed_solution", 1e6)
    for kind in ("standard", "confluent"):
        out[f"darboux.transformed_solution.{kind}_us_per_call"] = per_call(
            f"darboux.transformed_solution.{kind}", 1e6, "tag_calls", "tag_incl_s")
    out["darboux.build_confluent_chain.ms_per_call"] = per_call(
        "darboux.build_confluent_chain", 1e3)
    out["darboux.self_s"] = self_s("darboux")
    out["darboux.singularity_errors"] = first["singularity_errors"]

    for name in ("standard_chain_u12", "confluent_chain", "pipeline_vhat",
                 "pipeline_hatpsi"):
        out[f"scenarios.{name}.calls"] = calls(f"scenarios.{name}")
    out["scenarios.confluent_chain.ms_per_call"] = per_call("scenarios.confluent_chain", 1e3)
    builds = sum(calls(f"scenarios.{name}") for name in
                 ("standard_chain_u12", "standard_chain_order1", "confluent_chain"))
    out["scenarios.chain_builds_per_op"] = builds / n_ops
    out["scenarios.self_s"] = self_s("scenarios")

    out["cli.self_s"] = self_s("cli")
    out["cli.bytes_out"] = tally.traced_bytes
    out["cli.exact_output_frac"] = tally.exact / tally.attempted
    known = ("DomainError", "UsageError")
    for name in known:
        out[f"cli.errors.{name}"] = tally.traced_errors.get(name, 0)
    out["cli.errors.other"] = sum(n for name, n in tally.traced_errors.items()
                                  if name not in known)

    out.update(imports)
    out["trace.overhead_frac"] = (tally.scaled_op_seconds(traced=True)
                                  / tally.scaled_op_seconds(traced=False) - 1.0)
    return {name: (value, k) for name, value in out.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dunkl_darboux" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    ops = population(args.workload)
    tally = Tally(load_references(args.workload), ops)

    setup, imports = [], {}
    if args.trace:
        for name, module in (("import.package_s", "dunkl_darboux.cli"),
                             ("import.scipy_integrate_s", "scipy.integrate")):
            samples = [calibrated(lambda: probe(IMPORT_PROBE, module))
                       for _ in range(IMPORT_PROBES)]
            imports[name] = statistics.median(raw * f for raw, f in samples)
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = str(spans_dir / f"spans-{args.workload}.npz")
    else:
        setup = [calibrated(setup_once) for _ in range(SETUP_PROBES // 2)]
        spans_path = None

    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "spans_path": spans_path}
    done = run_worker(job, tally)
    if not args.trace:
        setup += [calibrated(setup_once) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    if args.trace:
        values = per_layer(tally, done, imports, len(ops))
    else:
        values = end_to_end(tally, done, setup)

    metrics = {}
    for m in declared:
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} seed={args.seed} {m['name']} = {value:.6g} {m['unit']}"
              f" (n={samples})")
    if not args.trace:
        raw = timings(tally, setup, scaled=False)
        print(f"timed ops: {len(ops)} distinct x {done['passes']} passes; "
              f"unscaled wall time: " + ", ".join(
                  f"{name} = {value:.6g}" for name, (value, _) in raw.items()))
    for line in tally.mismatched:
        print(f"mismatch: {line}")
    print(f"ops attempted={tally.attempted} ok={tally.outcomes['ok']} "
          f"expected_failure={tally.outcomes['expected_failure']} "
          f"mismatch={tally.outcomes['mismatch']} exact={tally.exact}")
    print(json.dumps({"correct": tally.outcomes["mismatch"] == 0,
                      "attempted": tally.attempted,
                      "failed": tally.outcomes["mismatch"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
