"""Every benchmark op still prints what its reference recorded.

Runs the ops of the three benchmark workloads (``bench/workloads.py``)
in-process through ``cli.run`` and judges each with the benchmark's own
reference check (``bench/check.py``): an op must agree with
``bench/reference`` to the check's tolerance, or fail where the
reference failed.  A kernel change that moves a printed digit fails
here, in the test suite, and not only in a benchmark run.  The
``darboux`` ops, and edge grids of their chain configurations, must
also print what the three-grid route of the public routines prints,
refusals included, each refusal as one error line, and
``transformed_pair`` must return there what ``transformed_potential``
and ``transformed_solution`` return.  The chain and seed Phi that
``darboux`` and figures 4-6 read as one group must equal, bit for bit,
the public builders' chain and Phi read apart.
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
from dunkl_darboux.darboux import (transformed_pair, transformed_potential,
                                   transformed_solution)
from dunkl_darboux.errors import DunklDarbouxError
from dunkl_darboux.model import DunklParams
from dunkl_darboux.scenarios import (bound_state_energy, confluent_chain,
                                     mapped_initial_solution, pipeline_hatpsi,
                                     pipeline_vhat, seeded_chain, standard_chain_order1,
                                     standard_chain_u12)

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
               ["--grid-lo", "-750", "--grid-hi", "1", "--grid-count", "5"],
               ["--grid-lo", "-400", "--grid-hi", "-300", "--grid-count", "3"],
               ["--grid-lo", "-3", "--grid-hi", "3", "--grid-count", "301"],
               ["--energy", "0.3", "--grid-lo", "-2", "--grid-hi", "3",
                "--grid-count", "200"],
               ["--energy", "50", "--grid-lo", "-2", "--grid-hi", "2",
                "--grid-count", "100"]]


def test_darboux_one_grid_equals_three_grids(monkeypatch):
    # cmd_darboux reads the chain on one grid, y joined with the points of
    # ln(e^y) that differ from y; every printed byte and every refusal
    # must be those of the three-grid route.  No op lets an exception (a
    # numpy RuntimeWarning among them) escape cli.run, and each refusal
    # exits 1 with one error line and no table.
    edges = [["darboux", "--kind", kind, "--order", str(order), *grid]
             for kind, order in workloads.CHAIN_CONFIGS for grid in _EDGE_GRIDS]
    ops = workloads.population("chains") + edges
    one_grid = [_run_op(argv) for argv in ops]
    monkeypatch.setattr(cli, "_chain_columns", _three_grids)
    for argv, got in zip(ops, one_grid):
        rc, raised, out, err = got
        assert raised is None, workloads.op_key(argv)
        if rc != cli.EXIT_OK:
            assert rc == cli.EXIT_USAGE and out == "", workloads.op_key(argv)
            assert err.startswith("error: ") and err.count("\n") == 1, err
        assert got == _run_op(argv), workloads.op_key(argv)
    assert sum(rc == cli.EXIT_OK for rc, *_ in one_grid) > len(one_grid) // 2


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


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


# (kind, order, nu, delta, n) of every chains op, with figures 4-6 at
# their defaults (standard order 2; (5/2, -1) and (7/2, +1), n = 0-2).
# (3/2, +1) is the case where Phi is u2.
_SEEDED_CASES = sorted(
    {(kind, order, nu, delta, n) for kind, order in workloads.CHAIN_CONFIGS
     for nu in workloads.CHAIN_NUS for delta in workloads.DELTAS
     for n in workloads.CHAIN_NS}
    | {("standard", 2, nu, delta, n) for nu, delta in ((2.5, -1), (3.5, 1))
       for n in (0, 1, 2)})
_OLD_BUILDERS = {("standard", 1): lambda E: standard_chain_order1(E, False),
                 ("standard", 2): lambda E: standard_chain_u12(E, False),
                 ("confluent", 2): confluent_chain}


def _seeded_bits(params, E, chain, phi, phi_given):
    """Bits of every closure of (chain, Phi), on a grid and at floats, and of
    their transformed pair and Psi-hat."""
    ys = np.linspace(-2.0, 1.0, 31)
    xs = np.linspace(0.2, 3.0, 31)
    bits = []
    for fn in [fn for pair in (*chain.funcs, (phi.f, phi.f1)) for fn in pair]:
        bits += [_bits(fn(ys)), _bits([fn(float(y)) for y in ys[::6]])]
    bits.append(_bits(transformed_pair(chain, phi, ys)))
    bits.append(_bits(pipeline_hatpsi(params, E, chain, xs,
                                      phi if phi_given else None)))
    return bits


@pytest.mark.parametrize("kind, order, nu, delta, n", _SEEDED_CASES)
def test_seeded_chain_equals_chain_and_phi_built_apart(kind, order, nu, delta, n):
    # The (chain, Phi) of one group equals the public builder's chain and
    # mapped_initial_solution's Phi, each on a group of its own: every
    # closure bit for bit, floats included, on the darboux and figure
    # grids, and so do cmd_darboux's pair and Psi-hat of figures 4-6.
    params = DunklParams(nu=nu, delta=delta, mu=1)
    E = bound_state_energy(n, params, "ene1")
    chain, phi = seeded_chain(params, E, kind, order)
    old_chain, old_phi = _OLD_BUILDERS[kind, order](E), mapped_initial_solution(params, E)
    assert (chain.kind, chain.eps, chain.energy, phi.eps) == (
        old_chain.kind, old_chain.eps, old_chain.energy, old_phi.eps)
    assert (_seeded_bits(params, E, chain, phi, True)
            == _seeded_bits(params, E, old_chain, old_phi, False))
