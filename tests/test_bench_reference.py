"""Every benchmark op still prints what its reference recorded.

Runs the ops of the three benchmark workloads (``bench/workloads.py``)
in-process through ``cli.run`` and judges each with the benchmark's own
reference check (``bench/check.py``): an op must agree with
``bench/reference`` to the check's tolerance, or fail where the
reference failed.  A kernel change that moves a printed digit fails
here, in the test suite, and not only in a benchmark run.  The
``darboux`` ops, and edge grids of their chain configurations, must
also print what the three-grid route of the public routines prints,
and ``transformed_pair`` must return there what ``transformed_potential``
and ``transformed_solution`` return.
The bench modules are loaded from their files without writing
bytecode, so nothing is written under ``bench/``.
"""

import contextlib
import importlib.util
import io
import json
import lzma
import sys
from pathlib import Path

import pytest

import numpy as np

from dunkl_darboux import cli
from dunkl_darboux.darboux import transformed_potential, transformed_solution
from dunkl_darboux.errors import DunklDarbouxError
from dunkl_darboux.scenarios import pipeline_vhat

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


def _three_grids(E, chain, phi, ys, xs):
    """cli._chain_columns as three public calls: U-hat and Phi-hat on y, V-hat at x."""
    return (transformed_potential(chain, ys), transformed_solution(chain, phi, ys),
            pipeline_vhat(E, chain, xs))


# Grids whose ends refuse (x = e^y underflowing to 0, x^-2 overflowing, a
# Wronskian floor, the Kummer |z| range, a refused confluent build) or
# move many points of ln(x) off y, per chain configuration of ``chains``.
_EDGE_GRIDS = [["--grid-lo", "-800", "--grid-hi", "1", "--grid-count", "5"],
               ["--grid-lo", "-400", "--grid-hi", "-300", "--grid-count", "3"],
               ["--grid-lo", "-3", "--grid-hi", "3", "--grid-count", "301"],
               ["--energy", "0.3", "--grid-lo", "-2", "--grid-hi", "3",
                "--grid-count", "200"],
               ["--energy", "50", "--grid-lo", "-2", "--grid-hi", "2",
                "--grid-count", "100"]]


def test_darboux_one_grid_equals_three_grids(monkeypatch):
    # cmd_darboux reads the chain on one grid, y joined with the points of
    # ln(e^y) that differ from y; every printed byte and every refusal
    # must be those of the three-grid route
    edges = [["darboux", "--kind", kind, "--order", str(order), *grid]
             for kind, order in workloads.CHAIN_CONFIGS for grid in _EDGE_GRIDS]
    ops = workloads.population("chains") + edges
    one_grid = [_run_op(argv) for argv in ops]
    monkeypatch.setattr(cli, "_chain_columns", _three_grids)
    for argv, got in zip(ops, one_grid):
        assert got == _run_op(argv), workloads.op_key(argv)
    assert sum(rc == cli.EXIT_OK for rc, *_ in one_grid) > len(one_grid) // 2


def _outcome(call):
    """The arrays call() returns, as bits, or the type and message of its package error."""
    try:
        return [np.asarray(part, dtype=float).view(np.uint64).tolist() for part in call()]
    except DunklDarbouxError as exc:
        return type(exc), str(exc)


def test_transformed_pair_equals_the_two_routines(monkeypatch):
    # On every grid cmd_darboux reads (the chains population and the edge
    # grids of its chain configurations), transformed_pair returns what
    # transformed_potential and transformed_solution return, bit for bit,
    # and refuses with the error of the first of them that refuses
    real = cli.transformed_pair
    compared = []

    def spy(chain, phi, y):
        pair = _outcome(lambda: real(chain, phi, y))
        potential = _outcome(lambda: [transformed_potential(chain, y)])
        solution = _outcome(lambda: [transformed_solution(chain, phi, y)])
        if isinstance(potential, list) and isinstance(solution, list):
            compared.append(pair == potential + solution)
        else:
            compared.append(pair == (potential if isinstance(potential, tuple)
                                     else solution))
        return real(chain, phi, y)

    monkeypatch.setattr(cli, "transformed_pair", spy)
    edges = [["darboux", "--kind", kind, "--order", str(order), *grid]
             for kind, order in workloads.CHAIN_CONFIGS for grid in _EDGE_GRIDS]
    for argv in workloads.population("chains") + edges:
        _run_op(argv)
    assert len(compared) > len(workloads.population("chains"))
    assert all(compared)
