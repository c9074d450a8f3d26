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
JSON keys are sorted.  Each setting is declared once, in ``_SETTINGS``;
a command takes --config and the flags of the settings it reads.  A JSON
configuration file, validated when read, holds the same settings;
explicit flags override it.  The environment variable DUNKL_DARBOUX_TOL
overrides the default verification tolerance.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from .darboux import (DarbouxChain, KIND_CONFLUENT, KIND_STANDARD, OdeSolution,
                      transformed_pair)
from .errors import DomainError, DunklDarbouxError
from .libm import Grid, exp, log, power
from .model import DunklParams, modified_norm, probability_density, state_checks
from .pointmap import energy_relation_residual, induced_potential
from .scenarios import (CONFLUENT_EPS1, ScenarioGaussianMass,
                        ScenarioHarmonicEnergy, ScenarioHarmonicEnergyPdm, bound_state_energy,
                        get_scenario, mapped_equation_residual,
                        pdm_equivalence_nu, pipeline_hatpsi, pipeline_vhat,
                        printed_bound_state, seeded_chain, SCENARIO_NAMES)

DEFAULT_TOL = 1e-6
TOL_ENV_VAR = "DUNKL_DARBOUX_TOL"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------

class UsageError(Exception):
    """Configuration or argument problem; maps to exit code 1."""


_FORMATS = ("csv", "json")

# Every setting, once: its name (the flag's dest), its config-file key
# ("section.key", or a top-level key), its flag (None: config file only)
# and the flag's add_argument options.  A config value must be of the
# flag's type (a string where it has none), a list of them with nargs.
_SETTINGS = (
    ("scenario", "scenario", "--scenario", {"choices": SCENARIO_NAMES}),
    ("nu", "params.nu", "--nu", {"type": float}),
    ("delta", "params.delta", "--delta", {"type": int, "choices": (-1, 1)}),
    ("energy", "params.E", "--energy", {"type": float, "help": "explicit energy E"}),
    ("n", "params.n", "--n", {"type": int, "help": "quantum number"}),
    ("rule", "params.rule", "--rule", {"choices": ("ene0", "ene1")}),
    ("grid_lo", "grid.lo", "--grid-lo", {"type": float}),
    ("grid_hi", "grid.hi", "--grid-hi", {"type": float}),
    ("grid_count", "grid.count", "--grid-count", {"type": int}),
    ("chain_kind", "chain.kind", "--kind", {"choices": ("standard", "confluent")}),
    ("chain_order", "chain.order", "--order", {"type": int, "metavar": "ORDER"}),
    ("chain_eps", "chain.eps", None, {"type": float, "nargs": "+"}),
    ("output_format", "output.format", "--format", {"choices": _FORMATS}),
    ("output_path", "output.path", "--out",
     {"metavar": "OUT", "help": "output path (default: stdout)"}),
)
_FLAGS = {name: (flag, options) for name, _, flag, options in _SETTINGS}
# The loader's view of each row: (section, key, name, type, list?).
_FILE_ROWS = tuple((*key.rpartition(".")[::2], name, options.get("type", str),
                    "nargs" in options) for name, key, _, options in _SETTINGS)
_KINDS = {str: "a string", float: "a number", int: "an integer"}


def _fits(value, kind, many: bool = False) -> bool:
    if many:
        return isinstance(value, list) and all(_fits(v, kind) for v in value)
    return (isinstance(value, (int, float) if kind is float else kind)
            and not isinstance(value, bool))


def _beyond_float(value) -> bool:
    """True for an int that no float holds: JSON integers have no size limit."""
    try:
        float(value)
    except OverflowError:
        return True
    return False


def _load_config_file(path: str) -> dict:
    """{setting: value} of a JSON config file keyed as ``_SETTINGS``, else UsageError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:    # ValueError: bad UTF-8, JSON or integer
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must contain a JSON object")
    values = {}
    for section, key, name, kind, many in _FILE_ROWS:
        table = raw.get(section, {}) if section else raw
        if not isinstance(table, dict):
            raise UsageError(f"config: {section} must be an object")
        value = values[name] = table.get(key)
        if value is None:
            continue
        where = f"{section}.{key}" if section else key
        if not _fits(value, kind, many):
            what = f"a list of {_KINDS[kind].split()[1]}s" if many else _KINDS[kind]
            raise UsageError(f"config: {where} must be {what}, got {value!r}")
        if kind is float and any(map(_beyond_float, value if many else [value])):
            raise UsageError(f"config: {where} must be a number in the float range, "
                             f"below about 1.8e308 in magnitude")
    if values["output_format"] not in (None, *_FORMATS):
        raise UsageError(f"config: output.format must be 'csv' or 'json', "
                         f"got {values['output_format']!r}")
    return values


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """``args`` with every setting set: its flag's value, else the config file's, else None."""
    given = _load_config_file(args.config) if args.config else {}
    for name in _FLAGS:
        if getattr(args, name, None) is None:
            setattr(args, name, given.get(name))
    return args


def _require(config: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise UsageError(f"missing required setting '{name}' "
                             f"(flag or config file)")


def _params(config: argparse.Namespace, nu: Optional[float] = None,
            delta: Optional[int] = None) -> DunklParams:
    """DunklParams of --nu and --delta, else of the defaults ``nu`` and ``delta``."""
    return DunklParams(nu=config.nu if config.nu is not None else nu,
                       delta=config.delta if config.delta is not None else delta, mu=1)


def _energy(config: argparse.Namespace, params: DunklParams, rule: str) -> float:
    """--energy, else the energy of bound state --n (default 0) by --rule, else ``rule``."""
    if config.energy is not None:
        return config.energy
    n = config.n if config.n is not None else 0
    return bound_state_energy(n, params, config.rule or rule)


def _grid(config: argparse.Namespace, lo: float, hi: float, count: int) -> np.ndarray:
    lo = config.grid_lo if config.grid_lo is not None else lo
    hi = config.grid_hi if config.grid_hi is not None else hi
    count = config.grid_count if config.grid_count is not None else count
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("grid: lo and hi must be finite")
    if not (lo < hi):
        raise UsageError("grid: lo must be less than hi")
    if count < 2:
        raise UsageError("grid: count must be at least 2")
    if not math.isfinite(hi - lo):
        raise UsageError(f"grid: the span hi - lo = {hi:g} - ({lo:g}) overflows "
                         f"the float range")
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


def _finite(what: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> np.ndarray:
    """The columns side by side, or a DomainError naming the first that is not finite.

    The error gives that column's first such point on the first column, the grid.
    """
    table = np.column_stack(columns)
    finite = np.isfinite(table)
    if not finite.all():
        col = int((~finite).any(axis=0).argmax())
        raise DomainError(f"{what}: {header[col]} is not finite at "
                          f"{header[0]}={float(table[(~finite[:, col]).argmax(), 0])}")
    return table


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Optional[str], header: Sequence[str],
               rows: Sequence[Sequence[float]]) -> None:
    # One %-format over the whole table.
    line = ",".join([_FLOAT] * len(header)) + "\n"
    _write(path, ",".join(header) + "\n"
           + (line * len(rows)) % tuple(itertools.chain.from_iterable(rows)))


def _write_json(path: Optional[str], payload) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_table(config: argparse.Namespace, header: Sequence[str],
                rows: Sequence[Sequence[float]], **extra: float) -> None:
    """The table as CSV, or as JSON with the ``extra`` values beside it."""
    if config.output_format == "json":
        payload = {"columns": list(header),
                   "rows": [[_fmt(v) for v in row] for row in rows]}
        payload.update((key, _fmt(v)) for key, v in extra.items())
        _write_json(config.output_path, payload)
    else:
        _write_csv(config.output_path, header, rows)


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

# A report is a list of checks, each a row (name, max residual, tolerance);
# a check passes when its residual is at most its tolerance, so NaN fails.

def _emit_report(config: argparse.Namespace, checks: list) -> int:
    """The checks as text or JSON; EXIT_OK if every check passes, else EXIT_VERIFICATION."""
    passed = [worst <= tol for _, worst, tol in checks]
    overall = all(passed)
    if config.output_format == "json":
        _write_json(config.output_path, {"overall_pass": overall, "checks": [
            {"name": name, "max_residual": _fmt(worst), "tolerance": _fmt(tol), "pass": ok}
            for (name, worst, tol), ok in zip(checks, passed)]})
    else:
        lines = [f"{'PASS' if ok else 'FAIL'}  {name}: max residual {_fmt(worst)} "
                 f"(tolerance {_fmt(tol)})" for (name, worst, tol), ok in zip(checks, passed)]
        lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
        _write(config.output_path, "\n".join(lines) + "\n")
    return EXIT_OK if overall else EXIT_VERIFICATION


def _worst(residuals: np.ndarray) -> float:
    """Largest entry; NaN if any entry is NaN, so the check fails."""
    return float(np.max(residuals))


def _resolve(config: argparse.Namespace, lookup):
    """(scenario, params, E) of a verify or density run; ``lookup`` maps the
    scenario name to a scenario, whose rule is E's default."""
    params = _params(config)
    scenario = lookup(config.scenario)
    return scenario, params, _energy(config, params, scenario.default_rule)


def _verify_solution(config: argparse.Namespace, scenario, params: DunklParams, E: float,
                     tol: float) -> list:
    """Checks of a scenario's closed-form psi.

    The relative Dunkl residual and the parity defect on the grid, one
    check of the scenario's own (the mapped standard-form equation for the
    harmonic scenario, else a positive finite norm), then the
    norm-preservation relation on that scenario's relation grid.  The
    norm is computed before any grid work, so a psi that its quadrature
    refuses stops the command after the two far nodes; the checks keep
    the order above.
    """
    system = scenario.system(params)
    psi = scenario.solution(params, E)
    grid = _grid(config, 0.1, 4.0, 400)
    harmonic = isinstance(scenario, ScenarioHarmonicEnergy)
    norm = None if harmonic else modified_norm(system, psi, E)
    residual, defect = state_checks(system, psi, E, grid)
    checks = [("dunkl_residual", _worst(np.abs(residual)), tol), ("parity_defect", defect, tol)]
    if harmonic:
        relation_grid = np.linspace(-2.0, 1.0, 100)
        checks.append(("mapped_equation_residual",
                       mapped_equation_residual(params, E, relation_grid), max(tol, 1e-6)))
    else:
        norm_ok = 0.0 if (norm.value > 0 and math.isfinite(norm.value)) else 1.0
        checks.append(("norm_positive_finite", norm_ok, 0.5))
        relation_grid = np.linspace(0.25, 4.0, 25)
    worst = _worst(np.abs(energy_relation_residual(
        scenario.coord(), scenario.mass(), scenario.potential(), params, E,
        relation_grid)))
    return checks + [("norm_preservation_relation", worst, tol)]


def _verify_pdm(params: DunklParams, E: float, tol: float) -> list:
    """Equivalence of the PDM route with the constant-mass route.

    ``params`` carries the constant-mass parameters (nu-bar, delta-bar);
    the PDM deformation parameter is the redefined one with the same
    reflection sign.
    """
    nu_bar, delta_bar = params.nu, params.delta
    if not math.isfinite(E):
        raise DomainError(f"E = {E:g} is not finite")
    if E <= 0:
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
    ys = Grid(np.linspace(-2.0, 1.0, 100))      # both routes share e^y and its powers
    u_harm = induced_potential(coord, harm.mass(), harm.potential(), params, E, ys)
    u_pdm = induced_potential(coord, pdm.mass(), pdm.potential(),
                              DunklParams(nu=nu, delta=delta, mu=1), E, ys)
    if not (np.isfinite(u_harm).all() and np.isfinite(u_pdm).all()):
        raise DomainError(f"harmonic-energy-pdm: E = {E:g} is out of range: the induced "
                          f"potentials, with terms E e^(2y) and e^(4y)/E, overflow on the "
                          f"comparison grid y in [-2, 1]")
    worst = _worst(np.abs(u_harm - u_pdm) / np.maximum(1.0, np.abs(u_harm)))
    defect = abs((3.0 * delta * nu - nu**2) - const_bar) / max(1.0, abs(const_bar))
    return [("induced_potential_match", worst, tol),
            ("constant_term_identity", defect, max(tol, 1e-10))]


def cmd_verify(config: argparse.Namespace) -> int:
    _require(config, "scenario", "nu", "delta")
    tol = _tolerance()
    scenario, params, E = _resolve(config, get_scenario)
    if scenario.solution is None:
        return _emit_report(config, _verify_pdm(params, E, tol))
    return _emit_report(config, _verify_solution(config, scenario, params, E, tol))


# ---------------------------------------------------------------------------
# Spectrum, density, darboux
# ---------------------------------------------------------------------------

def cmd_spectrum(config: argparse.Namespace, n_max: int) -> int:
    _require(config, "nu", "delta", "rule")
    if n_max < 0:
        raise UsageError("spectrum: --n-max must be nonnegative")
    params = _params(config)
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


def cmd_density(config: argparse.Namespace) -> int:
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
    _emit_table(config, ["x", "density"], rows, norm=norm.value,
                norm_est_error=norm.est_abs_error)
    if config.output_format != "json":
        print(f"norm = {_fmt(norm.value)} "
              f"(estimated error {_fmt(norm.est_abs_error)})", file=sys.stderr)
    return EXIT_OK


def _build_chain(config: argparse.Namespace, params: DunklParams, E: float,
                 grid: Grid) -> Tuple[DarbouxChain, OdeSolution]:
    """The command's chain and its seed Phi, their rows read on grid (``seeded_chain``)."""
    return seeded_chain(params, E, config.chain_kind or KIND_STANDARD,
                        config.chain_order if config.chain_order is not None else 2,
                        config.chain_eps[0] if config.chain_eps else CONFLUENT_EPS1, [grid])


def _joined_grid(ys: np.ndarray, xs: np.ndarray):
    """(grid, moved): the Grid of y followed by the points of ln(x) that differ from y,
    and where; kept with xs = e^y when it is a Grid."""
    def join():
        ln_x = log(xs)
        moved = ln_x != ys
        return Grid(np.concatenate([ys, ln_x[moved]])), moved

    return xs.kept(("joined",), join) if isinstance(xs, Grid) else join()


def _chain_columns(E: float, chain: DarbouxChain, phi: OdeSolution, ys: np.ndarray,
                   xs: np.ndarray):
    """(U-hat, Phi-hat, V-hat) of ``cmd_darboux``, from one ``transformed_pair`` call.

    The call reads the chain on ``_joined_grid(ys, xs)``, whose kernel
    rows the command's build read.
    """
    grid, moved = _joined_grid(ys, xs)
    u_grid, phi_grid = transformed_pair(chain, phi, grid)
    u_ln = u_grid[:ys.size].copy()
    u_ln[moved] = u_grid[ys.size:]
    v_hat = E - power(xs, -2.0) * (0.25 - u_ln)
    return u_grid[:ys.size], phi_grid[:ys.size], v_hat


def cmd_darboux(config: argparse.Namespace) -> int:
    """The chain's U-hat and Phi-hat on the y grid, V-hat and Psi-hat at x = e^y.

    A y whose x = e^y underflows to 0 is refused, before the chain is
    built.  Otherwise the chain is read on one grid, y followed by the
    points of ln(x) that differ from y (one rounding of e^y moves about a
    third of them), by one ``transformed_pair`` call, and V-hat = E - x^-2
    (1/4 - U-hat(ln x)) takes U-hat from the same result.  The build reads
    the chain's kernel rows on that grid, with a confluent chain's
    validation grids, in the command's one kernel call.  The routines are
    elementwise, so the columns equal ``transformed_potential(chain, y)``,
    ``transformed_solution(chain, phi, y)`` and ``pipeline_vhat(E,
    chain, x)`` bit for bit; a refusal is the first this read meets.  y and
    x are ``libm.Grid``s, so x^-2 and x^(1/2 - nu) are one power at nu = 5/2.
    """
    params = _params(config, 2.5, -1)
    E = _energy(config, params, "ene1")
    ys = Grid(_grid(config, -2.0, 1.0, 200))
    xs = exp(ys)
    if not xs.all():
        raise DomainError(f"darboux: x = e^y underflows to 0 at y={float(ys[xs == 0.0][0])}")
    chain, phi = _build_chain(config, params, E, _joined_grid(ys, xs)[0])
    u_hat, phi_hat, v_hat = _chain_columns(E, chain, phi, ys, xs)
    psi_hat = power(xs, 0.5 - params.nu) * phi_hat
    header = ["y", "x", "u_hat", "v_hat", "phi_hat", "psi_hat"]
    _emit_table(config, header,
                _finite("darboux", header, [ys, xs, u_hat, v_hat, phi_hat, psi_hat]).tolist())
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


def _figure_1(config: argparse.Namespace):
    grid = Grid(_grid(config, -3.0, 3.0, 400))      # the states share e^{-x^2}
    header = ["x", "psi0", "psi1", "psi2"]
    columns = [grid] + [s.f(grid) for s in _figure_states(1)]
    return header, _finite("figure 1: the grid is out of range", header, columns).tolist()


def _figure_2(config: argparse.Namespace):
    grid = _grid(config, -3.0, 3.0, 400)
    params = DunklParams(nu=0.5, delta=-1, mu=1)
    system = ScenarioGaussianMass().system(params)
    live = grid != 0.0      # the density is 0 at x = 0, outside the domain
    at = Grid(grid[live])   # the three states share its factors
    columns = [grid]
    for n, psi in enumerate(_figure_states(-1)):
        E = bound_state_energy(n, params, "ene0")
        density = np.zeros_like(grid)
        density[live] = (probability_density(system, psi, E, at)
                         / modified_norm(system, psi, E).value)
        columns.append(density)
    return ["x", "p0", "p1", "p2"], _rows(*columns)


def _potential_rows(config: argparse.Namespace, kind: str):
    """Figures 3 and 7: initial potential and V-hat at the three energies.

    Each energy's chain (order 2, of ``kind``) is built and read on ln(x)
    in one kernel call, and x and ln(x) are ``libm.Grid``s, so V-hat's
    factors free of E are evaluated once; a grid with x <= 0 is read by
    ``pipeline_vhat``, which refuses it after the build.
    """
    params = _params(config, 2.5, -1)
    energies = [bound_state_energy(n, params, "ene1") for n in (0, 1, 2)]
    xs = Grid(_grid(config, 0.2, 3.0, 300))
    grids = [log(xs)] if xs[0] > 0 else []      # the grid ascends
    # The initial potential is energy-scaled; the ground energy fixes
    # the displayed curve.
    with np.errstate(over="ignore"):
        v_initial = xs * xs / energies[0]
    _finite(f"figure {config.number}: the grid is out of range", ["x", "v_initial"],
            [xs, v_initial])
    columns = [xs, v_initial]
    columns += [pipeline_vhat(E, seeded_chain(None, E, kind, grids=grids)[0], xs)
                for E in energies]
    return ["x", "v_initial", "v_hat_0", "v_hat_1", "v_hat_2"], _rows(*columns)


def _figure_hat(config: argparse.Namespace, nu: float, delta: int, density: bool):
    """Figures 4-6: standard-chain Psi-hat or its density (nu, delta: defaults).

    x and ln(x) are ``libm.Grid``s: the three energies share their factors
    free of E, and figure 4's dV-hat/dE reads the rows each chain read there.
    """
    params = _params(config, nu, delta)
    energies = [bound_state_energy(n, params, "ene1") for n in (0, 1, 2)]
    xs = Grid(_grid(config, 0.2, 3.0, 300))
    states, slopes = [], []
    for E in energies:      # the chain, Phi and figure 4's dV-hat/dE read one kernel call
        chain, phi, *vhat_dE = seeded_chain(params, E, slopes=density)
        states.append(pipeline_hatpsi(params, E, chain, xs, phi))
        slopes += vhat_dE
    if not density:
        return ["x", "psi_hat_0", "psi_hat_1", "psi_hat_2"], _rows(xs, *states)
    # Densities are normalized on the emitted grid (trapezoid rule over
    # the symmetric extension), which is the display contract.
    columns = []
    for n, (psi, vhat_dE) in enumerate(zip(states, slopes)):
        square = power(psi, 2)
        with np.errstate(over="ignore", invalid="ignore"):      # refused below
            raw = square * power(xs, 2.0 * params.nu)
        dv_de = vhat_dE(xs)
        bad = ~np.isfinite(dv_de)       # where W underflows, and psi-hat is 0
        if bad.any():
            raise DomainError(f"figure 4: dV-hat/dE of p_hat_{n} is not finite at "
                              f"x={float(xs[bad][0])}")
        with np.errstate(over="ignore", invalid="ignore"):
            raw = raw * (1.0 - dv_de)
            total = 2.0 * np.trapezoid(raw, xs)
        bad = ~np.isfinite(raw)
        if bad.any() or not math.isfinite(total):
            at = f"at x={float(xs[bad][0])}" if bad.any() else "in its normalization"
            raise DomainError(f"figure 4: p_hat_{n} overflows {at}")
        if total == 0.0:
            raise DomainError(f"figure 4: the density of psi_hat_{n} integrates to 0 "
                              f"on the grid, so it cannot be normalized")
        columns.append(raw / total)
    return ["x", "p_hat_0", "p_hat_1", "p_hat_2"], _rows(xs, *columns)


# Figure number -> builder of (header, rows) from the run configuration.
_FIGURES = {
    1: _figure_1,
    2: _figure_2,
    3: lambda config: _potential_rows(config, KIND_STANDARD),
    4: lambda config: _figure_hat(config, 2.5, -1, density=True),
    5: lambda config: _figure_hat(config, 2.5, -1, density=False),
    6: lambda config: _figure_hat(config, 3.5, 1, density=False),
    7: lambda config: _potential_rows(config, KIND_CONFLUENT),
}

FIGURE_NUMBERS = tuple(_FIGURES)


def cmd_figure(config: argparse.Namespace, number: int) -> int:
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


_PARAMS = ("nu", "delta", "energy", "n", "rule")
_GRID = ("grid_lo", "grid_hi", "grid_count")
_OUTPUT = ("output_format", "output_path")

# Command -> (help, its own arguments, the settings it reads, its run; the
# command function is looked up when it runs).
_COMMANDS = {
    "verify": ("run the residual suite for a scenario", (),
               ("scenario", *_PARAMS, *_GRID, *_OUTPUT), lambda c: cmd_verify(c)),
    "spectrum": ("bound-state energy table",
                 (("--n-max", {"type": int, "default": 4, "dest": "n_max"}),),
                 ("nu", "delta", "rule", *_OUTPUT), lambda c: cmd_spectrum(c, c.n_max)),
    "density": ("modified probability density + norm", (),
                ("scenario", *_PARAMS, *_GRID, *_OUTPUT), lambda c: cmd_density(c)),
    "darboux": ("run a transformation chain", (),
                (*_PARAMS, *_GRID, "chain_kind", "chain_order", *_OUTPUT),
                lambda c: cmd_darboux(c)),
    "figure": ("emit data series for a figure", (("number", {"type": int}),),
               ("nu", "delta", *_GRID, *_OUTPUT), lambda c: cmd_figure(c, c.number)),
}


def build_parser() -> argparse.ArgumentParser:
    """Each command takes its own arguments, --config and the flags of its settings.

    Flags are taken only as spelled: a prefix would silently take another
    flag of the command (spectrum's --n for --n-max).
    """
    parser = _Parser(prog="dunkl-darboux", allow_abbrev=False,
                     description="Solvable reflection-deformed Schrodinger "
                                 "systems: verification and data export.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, own, names, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag, options in own:
            p.add_argument(flag, **options)
        p.add_argument("--config", help="JSON configuration file")
        for name in names:
            flag, options = _FLAGS[name]
            p.add_argument(flag, dest=name, **options)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def run(argv: Optional[Sequence[str]] = None) -> int:
    # The parser keeps no state between calls, so it is built once per
    # process (about 1.8 ms: each add_argument sizes the terminal).
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        config = _settings(_PARSER.parse_args(argv))
        return _COMMANDS[config.command][3](config)
    except (UsageError, DunklDarbouxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
