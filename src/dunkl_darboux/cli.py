"""Command-line front end: verification, spectra, densities, chains, figures.

Subcommands
-----------
verify    residual suite for a scenario, with a pass/fail report
spectrum  bound-state energy table for a quantization rule
density   modified probability density on a grid, plus its norm
darboux   run a transformation chain and emit U-hat, V-hat, Phi-hat, Psi-hat
figure    emit the data series behind the documented figures 1-7

All numeric output is deterministic for a given configuration: floats
are formatted with 12 significant digits, CSV uses LF line endings, and
JSON keys are sorted.  A JSON configuration file (--config), validated
when read, holds the same settings as the flags; explicit flags override
it.  The environment variable DUNKL_DARBOUX_TOL overrides the default
verification tolerance.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional, Sequence, get_args, get_type_hints

import numpy as np

from .darboux import (DarbouxChain, KIND_STANDARD, OdeSolution, chain_residuals,
                      transformed_pair, transformed_potential, transformed_solution)
from .errors import DomainError, DunklDarbouxError
from .libm import exp, log, memo_scope, power
from .model import (DunklParams, dunkl_residual, modified_norm,
                    probability_density, sampled_parity_defect)
from .pointmap import energy_relation_residual, induced_potential
from .scenarios import (CONFLUENT_EPS1, ScenarioGaussianMass, ScenarioHarmonicEnergy,
                        ScenarioHarmonicEnergyPdm, bound_state_energy,
                        confluent_chain, get_scenario, mapped_initial_solution,
                        pdm_equivalence_nu, pipeline_hatpsi, pipeline_vhat,
                        printed_bound_state, standard_chain_order1,
                        standard_chain_u12, standard_vhat_dE, SCENARIO_NAMES)

DEFAULT_TOL = 1e-6
TOL_ENV_VAR = "DUNKL_DARBOUX_TOL"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Settings a command runs from; the field names are also the flags' dests."""

    scenario: Optional[str] = None
    nu: Optional[float] = None
    delta: Optional[int] = None
    energy: Optional[float] = None
    n: Optional[int] = None
    rule: Optional[str] = None
    grid_lo: Optional[float] = None
    grid_hi: Optional[float] = None
    grid_count: Optional[int] = None
    chain_kind: Optional[str] = None
    chain_order: Optional[int] = None
    chain_eps: Optional[List[float]] = None
    output_format: Optional[str] = None
    output_path: Optional[str] = None


class UsageError(Exception):
    """Configuration or argument problem; maps to exit code 1."""


# Section of the JSON config file -> {key: RunConfig field}; "" is the top
# level.  Each value must fit its field's type (null leaves it unset).
_FILE_KEYS = {
    "": {"scenario": "scenario"},
    "params": {"nu": "nu", "delta": "delta", "E": "energy", "n": "n", "rule": "rule"},
    "grid": {"lo": "grid_lo", "hi": "grid_hi", "count": "grid_count"},
    "chain": {"kind": "chain_kind", "order": "chain_order", "eps": "chain_eps"},
    "output": {"format": "output_format", "path": "output_path"},
}
_KINDS = {str: "a string", float: "a number", int: "an integer",
          List[float]: "a list of numbers"}


def _fits(value, kind) -> bool:
    if kind == List[float]:
        return isinstance(value, list) and all(_fits(v, float) for v in value)
    return (isinstance(value, (int, float) if kind is float else kind)
            and not isinstance(value, bool))


def _load_config_file(path: str) -> RunConfig:
    """RunConfig from a JSON file laid out as ``_FILE_KEYS``, else UsageError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must contain a JSON object")
    hints = get_type_hints(RunConfig)
    cfg = RunConfig()
    for section, keys in _FILE_KEYS.items():
        table = raw.get(section, {}) if section else raw
        if not isinstance(table, dict):
            raise UsageError(f"config: {section} must be an object")
        for key, name in keys.items():
            value = table.get(key)
            kind = get_args(hints[name])[0]
            if value is not None and not _fits(value, kind):
                where = f"{section}.{key}" if section else key
                raise UsageError(f"config: {where} must be {_KINDS[kind]}, "
                                 f"got {value!r}")
            setattr(cfg, name, value)
    if cfg.output_format not in (None, "csv", "json"):
        raise UsageError(f"config: output.format must be 'csv' or 'json', "
                         f"got {cfg.output_format!r}")
    return cfg


def _merge(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Overlay explicitly given command-line values on the config file."""
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(config, f.name, val)
    return config


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise UsageError(f"missing required setting '{name}' "
                             f"(flag or config file)")


def _grid(config: RunConfig, lo: float, hi: float, count: int) -> np.ndarray:
    lo = config.grid_lo if config.grid_lo is not None else lo
    hi = config.grid_hi if config.grid_hi is not None else hi
    count = config.grid_count if config.grid_count is not None else count
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("grid: lo and hi must be finite")
    if not (lo < hi):
        raise UsageError("grid: lo must be less than hi")
    if count < 2:
        raise UsageError("grid: count must be at least 2")
    try:
        return np.linspace(lo, hi, count)
    except (ValueError, MemoryError) as exc:
        raise UsageError(f"grid: count is too large: {exc}") from None


def _tolerance() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise UsageError(f"{TOL_ENV_VAR} must be a number, got {raw!r}") from exc
    if not (tol > 0 and math.isfinite(tol)):
        raise UsageError(f"{TOL_ENV_VAR} must be a positive finite number, got {raw!r}")
    return tol


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

# Every printed float: 12 significant digits.
_FLOAT = "%.12g"


def _fmt(value: float) -> str:
    return _FLOAT % value


def _rows(*columns: np.ndarray) -> list:
    """Table rows (lists of Python floats) from equal-length columns."""
    return np.column_stack(columns).tolist()


def _write_csv(path: Optional[str], header: Sequence[str],
               rows: Sequence[Sequence[float]]) -> None:
    out = sys.stdout if path is None else open(path, "w", encoding="utf-8",
                                               newline="")
    # One %-format over the whole table.
    line = ",".join([_FLOAT] * len(header)) + "\n"
    try:
        out.write(",".join(header) + "\n")
        out.write((line * len(rows)) % tuple(itertools.chain.from_iterable(rows)))
    finally:
        if path is not None:
            out.close()


def _write_json(path: Optional[str], payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_table(config: RunConfig, header: Sequence[str],
                rows: Sequence[Sequence[float]]) -> None:
    if config.output_format == "json":
        payload = {"columns": list(header),
                   "rows": [[_fmt(v) for v in row] for row in rows]}
        _write_json(config.output_path, payload)
    else:
        _write_csv(config.output_path, header, rows)


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass
class VerificationReport:
    checks: List[CheckRecord] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, max_residual: float, tolerance: float) -> None:
        self.checks.append(CheckRecord(name, max_residual, tolerance))

    def as_dict(self) -> dict:
        return {
            "overall_pass": self.overall_pass,
            "checks": [
                {"name": c.name, "max_residual": _fmt(c.max_residual),
                 "tolerance": _fmt(c.tolerance), "pass": c.passed}
                for c in self.checks
            ],
        }

    def print_text(self) -> None:
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status}  {c.name}: max residual {_fmt(c.max_residual)} "
                  f"(tolerance {_fmt(c.tolerance)})")
        print("overall:", "PASS" if self.overall_pass else "FAIL")


def _worst(residuals: np.ndarray) -> float:
    """Largest entry; NaN if any entry is NaN, so the check fails."""
    return float(np.max(residuals))


def _resolve(config: RunConfig, lookup):
    """(scenario, params, E) of a verify or density run.

    ``lookup`` maps the scenario name to a scenario.  E is --energy, else
    the n-th bound state's energy under --rule or the scenario's rule.
    """
    params = DunklParams(nu=config.nu, delta=config.delta, mu=1)
    scenario = lookup(config.scenario)
    n = config.n if config.n is not None else 0
    E = config.energy if config.energy is not None \
        else bound_state_energy(n, params, config.rule or scenario.default_rule)
    return scenario, params, E


def _verify_solution(config: RunConfig, scenario, params: DunklParams, E: float,
                     tol: float) -> VerificationReport:
    """Checks of a scenario's closed-form psi.

    The relative Dunkl residual and the parity defect on the grid, one
    check of the scenario's own (the mapped standard-form equation for the
    harmonic scenario, else a positive finite norm), then the
    norm-preservation relation on that scenario's relation grid.  The
    norm is computed before any grid work, so a psi that its quadrature
    refuses stops the command after the two far nodes; the report keeps
    the order above.
    """
    system = scenario.system(params)
    psi = scenario.solution(params, E)
    grid = _grid(config, 0.1, 4.0, 400)
    harmonic = isinstance(scenario, ScenarioHarmonicEnergy)
    norm = None if harmonic else modified_norm(system, psi, E)
    report = VerificationReport()
    report.add("dunkl_residual",
               _worst(np.abs(dunkl_residual(system, psi, E, grid, relative=True))), tol)
    report.add("parity_defect", sampled_parity_defect(psi, grid), tol)
    if harmonic:
        phi = mapped_initial_solution(params, E)
        relation_grid = np.linspace(-2.0, 1.0, 100)
        chain = DarbouxChain(kind=KIND_STANDARD, funcs=((phi.f, phi.f1),), eps=(phi.eps,),
                             background=scenario.form(), energy=E)
        report.add("mapped_equation_residual",
                   _worst(chain_residuals(chain, relation_grid, h=None)), max(tol, 1e-6))
    else:
        norm_ok = 0.0 if (norm.value > 0 and math.isfinite(norm.value)) else 1.0
        report.add("norm_positive_finite", norm_ok, 0.5)
        relation_grid = np.linspace(0.25, 4.0, 25)
    worst = _worst(np.abs(energy_relation_residual(
        scenario.coord(), scenario.mass(), scenario.potential(), params, E,
        relation_grid)))
    report.add("norm_preservation_relation", worst, tol)
    return report


def _verify_pdm(params: DunklParams, E: float, tol: float) -> VerificationReport:
    """Equivalence of the PDM route with the constant-mass route.

    ``params`` carries the constant-mass parameters (nu-bar, delta-bar);
    the PDM deformation parameter is the redefined one with the same
    reflection sign.
    """
    nu_bar, delta_bar = params.nu, params.delta
    if not E > 0:
        raise DomainError(f"harmonic-energy-pdm: E = {E:g} is out of range: both "
                          f"potentials divide by E, which must be positive")
    # The redefined nu is fixed by matching the mapped constant term:
    # 3 delta nu - nu^2 (PDM) against delta_bar nu_bar - nu_bar^2.
    const_bar = delta_bar * nu_bar - nu_bar**2
    if math.ulp(const_bar) >= 1.0:
        raise DomainError(f"harmonic-energy-pdm: nu = {nu_bar:g} is out of range: the "
                          f"nu^2 terms of both induced potentials (about "
                          f"{abs(const_bar):.3g}) cancel every O(1) digit, so the "
                          f"route comparison would compare nothing; |nu| must be "
                          f"below about 6.7e7")
    delta = delta_bar
    nu = pdm_equivalence_nu(nu_bar, delta_bar, delta)
    harm = ScenarioHarmonicEnergy()
    pdm = ScenarioHarmonicEnergyPdm()
    coord = pdm.coord()
    ys = np.linspace(-2.0, 1.0, 100)
    report = VerificationReport()
    u_harm = induced_potential(coord, harm.mass(), harm.potential(), params, E, ys)
    u_pdm = induced_potential(coord, pdm.mass(), pdm.potential(),
                              DunklParams(nu=nu, delta=delta, mu=1), E, ys)
    with np.errstate(all="ignore"):     # inf - inf is NaN: the check fails
        worst = _worst(np.abs(u_harm - u_pdm) / np.maximum(1.0, np.abs(u_harm)))
    report.add("induced_potential_match", worst, tol)
    defect = abs((3.0 * delta * nu - nu**2) - const_bar) / max(1.0, abs(const_bar))
    report.add("constant_term_identity", defect, max(tol, 1e-10))
    return report


def cmd_verify(config: RunConfig) -> int:
    _require(config, "scenario", "nu", "delta")
    tol = _tolerance()
    scenario, params, E = _resolve(config, get_scenario)
    if scenario.solution is None:
        report = _verify_pdm(params, E, tol)
    else:
        report = _verify_solution(config, scenario, params, E, tol)
    if config.output_format == "json":
        _write_json(config.output_path, report.as_dict())
    else:
        report.print_text()
    return EXIT_OK if report.overall_pass else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# Spectrum, density, darboux
# ---------------------------------------------------------------------------

def cmd_spectrum(config: RunConfig, n_max: int) -> int:
    _require(config, "nu", "delta", "rule")
    if n_max < 0:
        raise UsageError("spectrum: --n-max must be nonnegative")
    params = DunklParams(nu=config.nu, delta=config.delta, mu=1)
    rows = [[float(n), bound_state_energy(n, params, config.rule)]
            for n in range(n_max + 1)]
    _emit_table(config, ["n", "E"], rows)
    return EXIT_OK


def _density_scenario(name: str):
    """The named scenario if it has a closed-form psi, else UsageError."""
    scenario = get_scenario(name) if name in SCENARIO_NAMES else None
    if scenario is None or scenario.solution is None:
        raise UsageError(f"density: unsupported scenario {name!r}")
    return scenario


def cmd_density(config: RunConfig) -> int:
    """The density of psi on the grid; its norm on stderr (or in the JSON).

    The norm comes first: a psi that its quadrature refuses stops the
    command after the two far nodes, and a norm of 0 is refused before
    the grid is evaluated.
    """
    _require(config, "scenario", "nu", "delta")
    scenario, params, E = _resolve(config, _density_scenario)
    psi = scenario.solution(params, E)
    system = scenario.system(params)
    grid = _grid(config, 0.1, 4.0, 400)
    norm = modified_norm(system, psi, E)
    if norm.value == 0.0:
        raise DomainError("density: psi underflows to 0 on the whole line, "
                          "so its norm is 0")
    rows = _rows(grid, probability_density(system, psi, E, grid))
    if config.output_format == "json":
        payload = {"columns": ["x", "density"],
                   "rows": [[_fmt(v) for v in row] for row in rows],
                   "norm": _fmt(norm.value),
                   "norm_est_error": _fmt(norm.est_abs_error)}
        _write_json(config.output_path, payload)
    else:
        _write_csv(config.output_path, ["x", "density"], rows)
        print(f"norm = {_fmt(norm.value)} "
              f"(estimated error {_fmt(norm.est_abs_error)})", file=sys.stderr)
    return EXIT_OK


def _build_chain(config: RunConfig, E: float) -> DarbouxChain:
    kind = config.chain_kind or "standard"
    order = config.chain_order if config.chain_order is not None else 2
    if kind == "standard":
        if order == 2:
            return standard_chain_u12(E, validate=False)
        if order == 1:
            return standard_chain_order1(E, validate=False)
        raise UsageError("standard chains are constructible at orders 1 and 2")
    if kind == "confluent":
        if order != 2:
            raise UsageError("confluent chains are constructible at order 2")
        eps1 = config.chain_eps[0] if config.chain_eps else CONFLUENT_EPS1
        return confluent_chain(E, eps1=eps1)
    raise UsageError(f"unknown chain kind {kind!r}")


def _chain_columns(E: float, chain: DarbouxChain, phi: OdeSolution, ys: np.ndarray,
                   xs: np.ndarray):
    """(U-hat, Phi-hat, V-hat) of ``cmd_darboux``, from one ``transformed_pair`` call.

    The call reads the chain once, on the joined grid (see there); a
    refusal runs the three public calls instead.
    """
    try:
        ln_x = log(xs)
        moved = ln_x != ys
        grid = np.concatenate([ys, ln_x[moved]])
        u_grid, phi_grid = transformed_pair(chain, phi, grid)
        u_ln = u_grid[:ys.size].copy()
        u_ln[moved] = u_grid[ys.size:]
        v_hat = E - power(xs, -2.0) * (0.25 - u_ln)
        return u_grid[:ys.size], phi_grid[:ys.size], v_hat
    except DunklDarbouxError:
        return (transformed_potential(chain, ys), transformed_solution(chain, phi, ys),
                pipeline_vhat(E, chain, xs))


def cmd_darboux(config: RunConfig) -> int:
    """The chain's U-hat and Phi-hat on the y grid, V-hat and Psi-hat at x = e^y.

    The chain is read on one grid: y followed by the points of ln(x)
    that differ from y (one rounding of e^y moves about a third of
    them).  ``transformed_pair`` gives U-hat and Phi-hat on it from one
    read of the chain, and V-hat = E - x^-2 (1/4 - U-hat(ln x)) takes
    U-hat from the same result.  The routines are elementwise, so the
    columns equal ``transformed_potential(chain, y)``,
    ``transformed_solution(chain, phi, y)`` and ``pipeline_vhat(E,
    chain, x)`` bit for bit.  The one grid can meet refusals in another
    order than those three calls, so on a refusal the three calls run
    and their outcome stands.
    """
    nu = config.nu if config.nu is not None else 2.5
    delta = config.delta if config.delta is not None else -1
    params = DunklParams(nu=nu, delta=delta, mu=1)
    n = config.n if config.n is not None else 0
    E = config.energy if config.energy is not None \
        else bound_state_energy(n, params, config.rule or "ene1")
    ys = _grid(config, -2.0, 1.0, 200)
    chain = _build_chain(config, E)
    phi = mapped_initial_solution(params, E)
    xs = exp(ys)
    u_hat, phi_hat, v_hat = _chain_columns(E, chain, phi, ys, xs)
    psi_hat = power(xs, 0.5 - params.nu) * phi_hat
    rows = _rows(ys, xs, u_hat, v_hat, phi_hat, psi_hat)
    _emit_table(config, ["y", "x", "u_hat", "v_hat", "phi_hat", "psi_hat"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------
#
# Figure data series, numbered to match the documented figures:
#   1  the three even polynomial-Gaussian bound states (n = 0, 1, 2)
#   2  normalized modified densities of the three odd bound states
#   3  initial energy-scaled harmonic potential and the standard-chain
#      transformed potentials at the first three bound energies
#      (delta = -1, nu = 5/2)
#   4  normalized transformed densities, standard chain, delta = -1,
#      nu = 5/2
#   5  transformed bound states, standard chain, delta = -1, nu = 5/2
#   6  transformed bound states, standard chain, delta = +1, nu = 7/2
#   7  initial potential and confluent-chain transformed potentials
#      (delta = -1, nu = 5/2)

def _figure_states(delta: int) -> list:
    return [printed_bound_state(n, delta) for n in (0, 1, 2)]


def _figure_1(config: RunConfig):
    grid = _grid(config, -3.0, 3.0, 400)
    columns = [s.f(grid) for s in _figure_states(1)]
    return ["x", "psi0", "psi1", "psi2"], _rows(grid, *columns)


def _figure_2(config: RunConfig):
    grid = _grid(config, -3.0, 3.0, 400)
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    system = ScenarioGaussianMass().system(params)
    live = grid != 0.0      # the density is 0 at x = 0, outside the domain
    columns = [grid]
    for n, psi in enumerate(_figure_states(-1)):
        E = bound_state_energy(n, params, "ene0")
        density = np.zeros_like(grid)
        density[live] = (probability_density(system, psi, E, grid[live])
                         / modified_norm(system, psi, E).value)
        columns.append(density)
    return ["x", "p0", "p1", "p2"], _rows(*columns)


def _transform_settings(config: RunConfig, default_nu: float,
                        default_delta: int):
    nu = config.nu if config.nu is not None else default_nu
    delta = config.delta if config.delta is not None else default_delta
    params = DunklParams(nu=nu, delta=delta, mu=1)
    energies = [bound_state_energy(n, params, "ene1") for n in (0, 1, 2)]
    return params, energies


def _potential_rows(config: RunConfig, chain_at: Callable[[float], DarbouxChain]):
    """Figures 3 and 7: initial potential and V-hat at the three energies."""
    _, energies = _transform_settings(config, 2.5, -1)
    xs = _grid(config, 0.2, 3.0, 300)
    # The initial potential is energy-scaled; the ground energy fixes
    # the displayed curve.
    columns = [xs, xs * xs / energies[0]]
    columns += [pipeline_vhat(E, chain_at(E), xs) for E in energies]
    return ["x", "v_initial", "v_hat_0", "v_hat_1", "v_hat_2"], _rows(*columns)


def _figure_hat(config: RunConfig, nu: float, delta: int, density: bool):
    """Figures 4-6: standard-chain Psi-hat or its density (nu, delta: defaults)."""
    params, energies = _transform_settings(config, nu, delta)
    xs = _grid(config, 0.2, 3.0, 300)
    states = [pipeline_hatpsi(params, E, standard_chain_u12(E, validate=False), xs)
              for E in energies]
    if not density:
        return ["x", "psi_hat_0", "psi_hat_1", "psi_hat_2"], _rows(xs, *states)
    # Densities are normalized on the emitted grid (trapezoid rule over
    # the symmetric extension), which is the display contract.
    columns = []
    for E, psi in zip(energies, states):
        raw = (power(psi, 2) * power(xs, 2.0 * params.nu)
               * (1.0 - standard_vhat_dE(E, xs)))
        weight = 2.0 * np.trapezoid(raw, xs)
        columns.append(raw / weight)
    return ["x", "p_hat_0", "p_hat_1", "p_hat_2"], _rows(xs, *columns)


# Figure number -> builder of (header, rows) from the run configuration.
_FIGURES = {
    1: _figure_1,
    2: _figure_2,
    3: lambda config: _potential_rows(
        config, lambda E: standard_chain_u12(E, validate=False)),
    4: lambda config: _figure_hat(config, 2.5, -1, density=True),
    5: lambda config: _figure_hat(config, 2.5, -1, density=False),
    6: lambda config: _figure_hat(config, 3.5, 1, density=False),
    7: lambda config: _potential_rows(config, confluent_chain),
}

FIGURE_NUMBERS = tuple(_FIGURES)


def cmd_figure(config: RunConfig, number: int) -> int:
    if number not in _FIGURES:
        raise UsageError(f"figure number must be one of {FIGURE_NUMBERS}")
    header, rows = _FIGURES[number](config)
    if not np.isfinite(rows).all():
        raise DunklDarbouxError(f"figure {number}: non-finite value in emitted series")
    _emit_table(config, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--nu", type=float)
    parser.add_argument("--delta", type=int, choices=(-1, 1))
    parser.add_argument("--energy", type=float, help="explicit energy E")
    parser.add_argument("--n", type=int, help="quantum number")
    parser.add_argument("--rule", choices=("ene0", "ene1"))
    parser.add_argument("--grid-lo", type=float, dest="grid_lo")
    parser.add_argument("--grid-hi", type=float, dest="grid_hi")
    parser.add_argument("--grid-count", type=int, dest="grid_count")
    parser.add_argument("--format", choices=("csv", "json"), dest="output_format")
    parser.add_argument("--out", dest="output_path", metavar="OUT",
                        help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dunkl-darboux",
                     description="Solvable reflection-deformed Schrodinger "
                                 "systems: verification and data export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the residual suite for a scenario")
    p.add_argument("--scenario", choices=SCENARIO_NAMES)
    _add_common(p)

    p = sub.add_parser("spectrum", help="bound-state energy table")
    p.add_argument("--n-max", type=int, default=4, dest="n_max")
    _add_common(p)

    p = sub.add_parser("density", help="modified probability density + norm")
    p.add_argument("--scenario", choices=SCENARIO_NAMES)
    _add_common(p)

    p = sub.add_parser("darboux", help="run a transformation chain")
    p.add_argument("--kind", choices=("standard", "confluent"), dest="chain_kind")
    p.add_argument("--order", type=int, dest="chain_order", metavar="ORDER")
    _add_common(p)

    p = sub.add_parser("figure", help="emit data series for a figure")
    p.add_argument("number", type=int)
    _add_common(p)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def run(argv: Optional[Sequence[str]] = None) -> int:
    # The parser keeps no state between calls, so it is built once per
    # process (about 1.8 ms: each add_argument sizes the terminal).
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        config = _load_config_file(args.config) if getattr(args, "config", None) \
            else RunConfig()
        config = _merge(config, args)
        # The command's repeated elementwise exp/log/power evaluations
        # share one result; the memo is dropped when the command ends.
        with memo_scope():
            if args.command == "verify":
                return cmd_verify(config)
            if args.command == "spectrum":
                return cmd_spectrum(config, args.n_max)
            if args.command == "density":
                return cmd_density(config)
            if args.command == "darboux":
                return cmd_darboux(config)
            if args.command == "figure":
                return cmd_figure(config, args.number)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, DunklDarbouxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
