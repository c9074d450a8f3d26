"""Op populations and seeded schedules of the benchmark workloads.

An op is one call of ``dunkl_darboux.cli.run(argv)``.  Each workload is a
fixed population of at least 100 distinct argv lists, so that the 90th
percentile over them has ten ops beyond it.  A run is a sequence of
passes; every pass runs the whole population once, in an order drawn
from the seed.  Every pass therefore does the same work, so throughput,
latency quantiles, the failing share and the traced call counts do not
depend on which seed drew the order, and a run that stops between passes
never carries a partial, seed-dependent mix.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List

# Grid counts below the CLI default (300 for figures 3-7) keep a pass near
# 5.5 s, so a run repeats every op several times.  Figure 4 still costs
# 0.06-0.25 s, so its dV-hat/dE stencil sets the latency tail.  Fifteen
# counts keep op costs dense around the quantiles, so p50 and p90 do not
# jump between two distant ops when timings shift a little.
FIGURE_GRID_COUNTS = tuple(range(50, 191, 10))
FIGURE_NUMBERS = range(1, 8)

CHAIN_CONFIGS = (("standard", 1), ("standard", 2), ("confluent", 2))
CHAIN_NUS = (1.5, 2.5, 3.5)
CHAIN_NS = (0, 2)
# Fewer output points than the default 200 raise the share of chain
# construction (validation, the confluent eps stencil) in each op, and
# keep a pass near 3 s, so a run repeats each op about ten times.
CHAIN_GRID_COUNTS = (30, 60, 90)

SWEEP_SCENARIOS = ("gaussian-mass", "harmonic-energy", "harmonic-energy-pdm")
SWEEP_NUS = (0.5, 1.5, 2.5)
SWEEP_NS = (0, 1)
RULES = ("ene0", "ene1")
DELTAS = (-1, 1)


def _figures() -> List[List[str]]:
    return [["figure", str(n), "--grid-count", str(count)]
            for n in FIGURE_NUMBERS for count in FIGURE_GRID_COUNTS]


def _chains() -> List[List[str]]:
    return [["darboux", "--kind", kind, "--order", str(order), "--nu", str(nu),
             "--delta", str(delta), "--n", str(n), "--rule", "ene1",
             "--grid-count", str(count)]
            for (kind, order), nu, delta, n, count
            in itertools.product(CHAIN_CONFIGS, CHAIN_NUS, DELTAS, CHAIN_NS,
                                 CHAIN_GRID_COUNTS)]


def _verify_sweep() -> List[List[str]]:
    return [[command, "--scenario", scenario, "--nu", str(nu),
             "--delta", str(delta), "--n", str(n), "--rule", rule]
            for command, scenario, nu, delta, n, rule
            in itertools.product(("verify", "density"), SWEEP_SCENARIOS,
                                 SWEEP_NUS, DELTAS, SWEEP_NS, RULES)]


POPULATIONS = {
    "figures": _figures,
    "chains": _chains,
    "verify-sweep": _verify_sweep,
}


def population(workload: str) -> List[List[str]]:
    """The argv lists one pass of ``workload`` runs, in canonical order."""
    return POPULATIONS[workload]()


def op_key(argv: List[str]) -> str:
    """Key of an op in the reference files."""
    return " ".join(argv)


def passes(size: int, seed: int) -> Iterator[List[int]]:
    """Endless seeded sequence of passes, each a permutation of range(size)."""
    rng = random.Random(seed)
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield order
