"""Every benchmark op still prints what its reference recorded.

Runs the ops of the three benchmark workloads (``bench/workloads.py``)
in-process through ``cli.run`` and judges each with the benchmark's own
reference check (``bench/check.py``): an op must agree with
``bench/reference`` to the check's tolerance, or fail where the
reference failed.  A kernel change that moves a printed digit fails
here, in the test suite, and not only in a benchmark run.  The bench
modules are loaded from their files without writing bytecode, so
nothing is written under ``bench/``.
"""

import contextlib
import importlib.util
import io
import json
import lzma
import sys
from pathlib import Path

import pytest

from dunkl_darboux import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


check = _load("check")
workloads = _load("workloads")


def _run_op(argv):
    """(exit code, escaped exception name, stdout, stderr) of one op."""
    out, err = io.StringIO(), io.StringIO()
    rc = raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:   # an escaped exception is judged, as in the benchmark
        raised = type(exc).__name__
    return rc, raised, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", sorted(workloads.POPULATIONS))
def test_benchmark_ops_match_their_references(workload):
    raw = lzma.decompress((BENCH / "reference" / f"{workload}.json.xz").read_bytes())
    references = json.loads(raw)["ops"]
    ops = workloads.population(workload)
    assert len(ops) == len(references)
    outcomes = {}
    for argv in ops:
        key = workloads.op_key(argv)
        verdict = check.Reference(references[key]).judge(*_run_op(argv))
        outcomes.setdefault(verdict, []).append(key)
    assert not outcomes.get("mismatch"), outcomes["mismatch"][:5]
    assert set(outcomes) <= {"ok", "expected_failure"}
