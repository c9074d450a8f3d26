"""Command-line interface: exit codes, formats, determinism, config."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dunkl_darboux
from dunkl_darboux import cli, scenarios, specfun
from dunkl_darboux.cli import (EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION,
                               RunConfig, UsageError, _fmt, _grid, _merge,
                               _tolerance, run)


def test_spectrum_exact_values(capsys):
    code = run(["spectrum", "--nu", "2.5", "--delta", "-1",
                "--rule", "ene1", "--n-max", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "n,E"
    assert lines[1] == "0,4"
    assert lines[2].startswith("1,5.24148")
    assert lines[3].startswith("2,6.34960")


def test_spectrum_rational_rule(capsys):
    code = run(["spectrum", "--nu", "0.5", "--delta", "-1",
                "--rule", "ene0", "--n-max", "1"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1] == "0,0.75"
    assert lines[2] == "1,1.75"


def test_verify_gaussian_passes(capsys):
    code = run(["verify", "--scenario", "gaussian-mass",
                "--nu", "0.5", "--delta", "-1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "overall: PASS" in out
    assert out.count("PASS") >= 4


def test_verify_harmonic_passes():
    assert run(["verify", "--scenario", "harmonic-energy",
                "--nu", "2.5", "--delta", "-1"]) == EXIT_OK


def test_verify_pdm_passes():
    assert run(["verify", "--scenario", "harmonic-energy-pdm",
                "--nu", "2.5", "--delta", "-1"]) == EXIT_OK


def test_verify_fails_under_impossible_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("DUNKL_DARBOUX_TOL", "1e-20")
    code = run(["verify", "--scenario", "gaussian-mass",
                "--nu", "0.5", "--delta", "-1"])
    assert code == EXIT_VERIFICATION
    assert "overall: FAIL" in capsys.readouterr().out


def _nan_at(fn, node):
    """fn, but NaN at the grid point ``node`` (fn takes an ndarray)."""
    return lambda x: np.where(x == node, np.nan, fn(x))


def test_verify_fails_on_nan_psi_at_interior_node(monkeypatch, capsys):
    # A NaN residual at one node must print nan and FAIL; a running
    # max(worst, r) from 0.0 would drop it and report PASS.
    node = np.linspace(0.1, 4.0, 400)[200]
    real = scenarios.harmonic_initial_solution_function

    def broken(params, E):
        psi = real(params, E)
        return replace(psi, f=_nan_at(psi.f, node))

    monkeypatch.setattr(scenarios, "harmonic_initial_solution_function", broken)
    code = run(["verify", "--scenario", "harmonic-energy",
                "--nu", "2.5", "--delta", "-1"])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFICATION
    assert "FAIL  dunkl_residual: max residual nan" in out
    assert "FAIL  parity_defect: max residual nan" in out
    assert "PASS  mapped_equation_residual" in out


def test_verify_fails_on_nan_mapped_solution(monkeypatch, capsys):
    node = np.linspace(-2.0, 1.0, 100)[40]
    real = cli.mapped_initial_solution

    def broken(params, E):
        phi = real(params, E)
        return replace(phi, f=_nan_at(phi.f, node))

    monkeypatch.setattr(cli, "mapped_initial_solution", broken)
    code = run(["verify", "--scenario", "harmonic-energy",
                "--nu", "2.5", "--delta", "-1", "--format", "json"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == EXIT_VERIFICATION
    assert checks["mapped_equation_residual"]["max_residual"] == "nan"
    assert checks["mapped_equation_residual"]["pass"] is False
    assert checks["dunkl_residual"]["pass"] is True


def test_reused_parser_matches_fresh_parser(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"params": {"nu": 0.5, "delta": -1, "rule": "ene0"}}))
    sequence = [
        ["spectrum", "--nu", "2.5", "--delta", "-1", "--rule", "ene1", "--n-max", "2"],
        ["spectrum", "--nu", "2.5", "--delta", "-1", "--rule", "ene1"],  # --n-max 4
        ["spectrum", "--bogus", "1"],
        ["verify", "--scenario", "gaussian-mass", "--delta", "-1"],
        ["spectrum", "--config", str(cfg)],
        ["spectrum", "--nu", "1.5", "--delta", "1", "--rule", "ene0"],
    ]

    def outcome(argv):
        code = run(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [outcome(argv) for argv in sequence]
    assert cli._PARSER is not None
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [EXIT_OK, EXIT_OK, EXIT_USAGE,
                                               EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert len(reused[1][1].strip().split("\n")) == 6   # header + n = 0..4


def test_tolerance_env_validation(monkeypatch):
    monkeypatch.setenv("DUNKL_DARBOUX_TOL", "not-a-number")
    with pytest.raises(UsageError):
        _tolerance()
    monkeypatch.setenv("DUNKL_DARBOUX_TOL", "-1")
    with pytest.raises(UsageError):
        _tolerance()
    # nan would fail every check and inf would pass every one
    for raw in ("nan", "inf", "-inf"):
        monkeypatch.setenv("DUNKL_DARBOUX_TOL", raw)
        with pytest.raises(UsageError, match="must be a positive finite number"):
            _tolerance()
        assert run(["verify", "--scenario", "gaussian-mass", "--nu", "0.5",
                    "--delta", "-1"]) == EXIT_USAGE
    monkeypatch.delenv("DUNKL_DARBOUX_TOL")
    assert _tolerance() == 1e-6


def test_usage_error_exit_code(capsys):
    # verify without required --nu
    code = run(["verify", "--scenario", "gaussian-mass", "--delta", "-1"])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exit_code(capsys):
    assert run(["spectrum", "--bogus", "1"]) == EXIT_USAGE


def test_unconverged_series_is_an_error(capsys):
    # the grid reaches x = 25, where the Laguerre series in z = 496 has
    # not converged after its 600-term budget; it used to print PASS
    code = run(["verify", "--scenario", "harmonic-energy", "--nu", "0.5",
                "--delta", "1", "--grid-hi", "25"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: kummer_m: series not converged within 600 terms\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--nu", "1e300", "--delta", "1", "--rule", "ene0"],
    ["verify", "--scenario", "harmonic-energy-pdm", "--nu", "1e200", "--delta", "-1"],
])
def test_overflowing_nu_is_a_domain_error(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    nu = float(argv[argv.index("--nu") + 1])
    assert captured.err.startswith(f"error: nu = {nu:g} is out of range")
    assert "Traceback" not in captured.err


# Commands whose closed forms overflow from about nu = 400 (the first
# nu at which each failed), each at that nu and beyond.
_OVERFLOW_COMMANDS = [
    (["verify", "--scenario", "gaussian-mass", "--delta", "1"], 400),
    (["density", "--scenario", "gaussian-mass", "--delta", "1"], 400),
    (["density", "--scenario", "harmonic-energy", "--delta", "-1"], 400),
    (["darboux"], 400),
    (["verify", "--scenario", "harmonic-energy", "--delta", "1"], 1000),
    (["figure", "5"], 1000),
]


@pytest.mark.parametrize("argv, nu", [
    (argv, nu) for argv, first in _OVERFLOW_COMMANDS for nu in (400, 1000, 1e6, 1e150)
    if nu >= first
    # here psi underflows on the whole line: see test_density_refuses_a_zero_norm
    and not (argv[0] == "density" and argv[2] == "harmonic-energy" and nu == 1e150)
])
def test_overflow_is_a_domain_error(argv, nu, capsys):
    code = run(argv + ["--nu", f"{nu:g}"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


_HUGE_N = "1" + "0" * 400      # too large for a float
_HARMONIC = ["--scenario", "harmonic-energy", "--nu", "2.5", "--delta", "-1"]


@pytest.mark.parametrize("argv, start", [
    (["darboux", "--energy", "1e300"], "error: E = 1e+300 is out of range"),
    (["darboux", "--kind", "confluent", "--energy", "1e250"], "error: E = 1e+250 is out of range"),
    (["verify", *_HARMONIC, "--energy", "1e300"], "error: E = 1e+300 is out of range"),
    (["density", *_HARMONIC, "--energy", "1e300"], "error: E = 1e+300 is out of range"),
    # E^1.5 fits, but lgamma of the Laguerre degree overflows
    (["darboux", "--energy", "3e205"], "error: assoc_laguerre: degree 4.10792e+307 is out"),
    (["darboux", "--kind", "confluent", "--energy", "0"],
     "error: confluent_chain: E must be positive"),
    (["darboux", "--n", _HUGE_N], "error: bound_state_energy: n is out of range"),
    (["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "1", "--n", _HUGE_N],
     "error: bound_state_energy: n is out of range"),
    (["density", *_HARMONIC, "--n", _HUGE_N], "error: bound_state_energy: n is out of range"),
    # numpy refuses the size before allocating anything
    (["darboux", "--grid-count", "100000000000000000000"], "error: grid: count is too large"),
])
def test_out_of_range_flags_are_refused(argv, start, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(start)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind", ["standard", "confluent"])
def test_huge_polynomial_degree_is_refused_at_once(kind, capsys):
    # nu = 1e150 makes the chain's Laguerre degree an integer near 5e149
    start = time.monotonic()
    code = run(["darboux", "--kind", kind, "--nu", "1e150"])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error: kummer_m: polynomial degree ")
    assert "exceeds the limit of 600" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("delta, nu", [(-1, 1e150), (-1, 6e153), (1, 6e153)])
def test_density_refuses_a_zero_norm(delta, nu, capsys):
    # psi underflows on the whole line, so the density and its norm are 0
    code = run(["density", "--scenario", "harmonic-energy", "--delta", str(delta),
                "--nu", f"{nu:g}"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == ("error: density: psi underflows to 0 on the whole line, "
                            "so its norm is 0\n")


def _special_function_sizes(monkeypatch) -> list:
    """The number of points of every grid special-function call in scenarios."""
    sizes = []
    for name in ("assoc_laguerre_grid", "kummer_m_grid"):
        def counted(*args, _real=getattr(scenarios, name), **kwargs):
            sizes.append(np.size(args[-1]))
            return _real(*args, **kwargs)
        monkeypatch.setattr(scenarios, name, counted)
    return sizes


@pytest.mark.parametrize("argv", [
    ["density", "--scenario", "harmonic-energy", "--nu", "2.5", "--delta", "-1",
     "--rule", "ene0"],
    ["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1",
     "--rule", "ene1"],
])
def test_refused_norm_stops_before_the_grid(argv, monkeypatch, capsys):
    # psi is beyond the Kummer |z| range at the norm's two far nodes,
    # +-297.9, which are evaluated first: the grid is never evaluated
    sizes = _special_function_sizes(monkeypatch)
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kummer_m: |z| exceeds supported range 700.0\n"
    assert sizes and max(sizes) <= 2


# verify reports of the ene0 gaussian-mass states with a zero Kummer coefficient
_ZERO_COEFFICIENT_REPORTS = {
    ("-1", "0"): ("2.38365450367e-16", "3.07562864066e-11"),
    ("-1", "1"): ("2.91508488341e-16", "5.43609601777e-11"),
    ("1", "0"): ("2.77555756156e-16", "9.36686284092e-11"),
    ("1", "1"): ("2.42138067445e-16", "8.81961170762e-11"),
}


@pytest.mark.parametrize("delta, n", list(_ZERO_COEFFICIENT_REPORTS))
def test_zero_kummer_coefficient_reads_no_series(delta, n, monkeypatch, capsys):
    # a = -n: the derivative factors with coefficient a or a (a + 1) are
    # exactly 0 and are never read, and M(-n; b; z) is a polynomial
    series = []

    def counted(*args, _real=specfun._kummer_series_grid, **kwargs):
        series.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(specfun, "_kummer_series_grid", counted)
    assert run(["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", delta,
                "--n", n, "--rule", "ene0"]) == EXIT_OK
    residual, relation = _ZERO_COEFFICIENT_REPORTS[(delta, n)]
    assert capsys.readouterr().out == (
        f"PASS  dunkl_residual: max residual {residual} (tolerance 1e-06)\n"
        "PASS  parity_defect: max residual 0 (tolerance 1e-06)\n"
        "PASS  norm_positive_finite: max residual 0 (tolerance 0.5)\n"
        f"PASS  norm_preservation_relation: max residual {relation} (tolerance 1e-06)\n"
        "overall: PASS\n")
    assert series == []


# Commands whose float overflow numpy used to report as a RuntimeWarning
# on stderr: each keeps its exit code and output with warnings as errors.
@pytest.mark.parametrize("argv, code, stream, start", [
    (["darboux", "--nu", "1e6"], EXIT_USAGE, "err",
     "error: exp(5025.1241321172565): result overflows"),
    (["verify", "--scenario", "harmonic-energy-pdm", "--nu", "2.5", "--delta", "1",
      "--energy", "1e-310"],
     EXIT_VERIFICATION, "out", "FAIL  induced_potential_match: max residual nan"),
    (["verify", "--scenario", "gaussian-mass", "--nu", "6e153", "--delta", "-1"],
     EXIT_USAGE, "err", "error: power(1.024848391894543, 1.1999999999999999e+154)"),
])
def test_overflow_raises_no_numpy_warning(argv, code, stream, start, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code
    assert getattr(capsys.readouterr(), stream).startswith(start)


def _run_showing_warnings(argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh process with numpy warnings shown, as a user sees them."""
    src = str(Path(dunkl_darboux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, warnings\n"
            "warnings.simplefilter('default')\n"
            "from dunkl_darboux.cli import run\n"
            "sys.exit(run(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv", [
    ["density", "--scenario", "harmonic-energy", "--nu", "120", "--delta", "1",
     "--rule", "ene0", "--grid-count", "9"],
    ["verify", "--scenario", "gaussian-mass", "--nu", "1e3", "--delta", "-1",
     "--rule", "ene0", "--grid-hi", "25", "--grid-count", "9"],
])
def test_model_overflow_prints_only_the_error(argv):
    # The density's |x|^w product overflows and the residual's terms add
    # to inf - inf before each command's error: with numpy warnings
    # shown, stderr holds the one error line
    proc = _run_showing_warnings(argv)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_energy_relation_division_by_zero_prints_no_warning():
    # E * E underflows to 0 in dV/dE = -x^2/E^2 of the norm-preservation
    # relation: the check still fails with inf, and stderr stays empty
    proc = _run_showing_warnings(["verify", "--scenario", "harmonic-energy", "--nu",
                                  "2.5", "--delta", "-1", "--energy", "1e-300"])
    assert proc.returncode == EXIT_VERIFICATION
    assert "RuntimeWarning" not in proc.stderr and proc.stderr == ""
    assert "FAIL  norm_preservation_relation: max residual inf" in proc.stdout


@pytest.mark.parametrize("nu, delta, norm", [
    ("120", "1", "1.2200589948e+198"),          # |x|^240 overflows at x = 19.29
    ("170", "1", "1.11241848291e+306"),
])
def test_gaussian_mass_norm_past_the_weight_overflow(nu, delta, norm, capsys):
    # the norms match mpmath (tests/test_norm_oracle.py)
    assert run(["density", "--scenario", "gaussian-mass", "--nu", nu, "--delta", delta,
                "--rule", "ene0", "--grid-count", "5"]) == EXIT_OK
    assert capsys.readouterr().err.startswith(f"norm = {norm} (estimated error ")


def test_gaussian_mass_norm_that_overflows_is_refused(capsys):
    assert run(["density", "--scenario", "gaussian-mass", "--nu", "171", "--delta", "1",
                "--rule", "ene0", "--grid-count", "5"]) == EXIT_USAGE
    assert capsys.readouterr().err == ("error: quadrature: the integral overflows "
                                       "the float range\n")


@pytest.mark.parametrize("argv", [
    ["--nu", "1e150", "--delta", "-1", "--rule", "ene0"],    # E cancels to exactly 0
    ["--nu", "2.5", "--delta", "1", "--energy", "0"],
    ["--nu", "2.5", "--delta", "1", "--energy", "-3"],
])
def test_pdm_refuses_nonpositive_energy(argv, capsys):
    code = run(["verify", "--scenario", "harmonic-energy-pdm", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    energy = "-3" if "-3" in argv else "0"
    assert captured.err == (f"error: harmonic-energy-pdm: E = {energy} is out of range: "
                            f"both potentials divide by E, which must be positive\n")


@pytest.mark.parametrize("nu, refused", [
    (2.0 ** 26 - 1, False), (-(2.0 ** 26 - 1), False),
    (2.0 ** 26 + 1, True), (-(2.0 ** 26 + 1), True), (1e150, True), (6e153, True),
])
def test_pdm_refuses_nu_whose_squares_cancel_every_digit(nu, refused, capsys):
    # Past |nu| = 2^26 the nu^2 terms of both induced potentials are at
    # least 2^52, so their ulp is 1 and every O(1) term is lost: the
    # comparison used to PASS with a residual of 0 at nu = 1e150
    code = run(["verify", "--scenario", "harmonic-energy-pdm", "--nu", repr(nu),
                "--delta", "1"])
    captured = capsys.readouterr()
    if refused:
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith(f"error: harmonic-energy-pdm: nu = {nu:g} is out of "
                                       f"range: the nu^2 terms of both induced potentials")
        assert captured.err.endswith("cancel every O(1) digit, so the route comparison "
                                     "would compare nothing; |nu| must be below about 6.7e7\n")
        assert captured.err.count("\n") == 1
    else:
        assert code in (EXIT_OK, EXIT_VERIFICATION) and captured.err == ""
        assert "induced_potential_match" in captured.out


def test_nan_residual_prints_no_warning(capsys):
    # The squared Gaussian mass underflows near x = 19.3: the residual is
    # NaN and the check fails, without numpy warnings on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["verify", "--scenario", "gaussian-mass", "--nu", "0.5",
                    "--delta", "1", "--grid-hi", "19.5"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFICATION
    assert "FAIL  dunkl_residual: max residual nan" in captured.out
    assert "Warning" not in captured.err
    assert not caught


def test_bad_figure_number(capsys):
    code = run(["figure", "9", "--nu", "2.5", "--delta", "-1"])
    assert code == EXIT_USAGE


def test_density_csv_norm_on_stderr(capsys):
    code = run(["density", "--scenario", "gaussian-mass",
                "--nu", "0.5", "--delta", "-1", "--n", "0",
                "--grid-count", "20"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("x,density\n")
    assert "norm = 2" in captured.err


def test_density_json_payload(capsys):
    code = run(["density", "--scenario", "gaussian-mass",
                "--nu", "0.5", "--delta", "-1", "--n", "0",
                "--grid-count", "10", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == ["x", "density"]
    assert len(payload["rows"]) == 10
    assert float(payload["norm"]) == pytest.approx(2.0, abs=1e-8)


def test_darboux_series_finite(capsys):
    code = run(["darboux", "--kind", "standard", "--order", "2",
                "--nu", "2.5", "--delta", "-1", "--n", "0",
                "--grid-count", "15"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "y,x,u_hat,v_hat,phi_hat,psi_hat"
    assert len(lines) == 16
    for line in lines[1:]:
        for cell in line.split(","):
            assert cell and "nan" not in cell and "inf" not in cell


def test_darboux_confluent_runs():
    assert run(["darboux", "--kind", "confluent", "--order", "2",
                "--nu", "2.5", "--delta", "-1", "--grid-count", "8"]) == EXIT_OK


def test_darboux_rejects_bad_order(capsys):
    assert run(["darboux", "--kind", "standard", "--order", "3"]) == EXIT_USAGE
    assert run(["darboux", "--kind", "confluent", "--order", "1"]) == EXIT_USAGE


def test_figures_deterministic(tmp_path):
    # byte-identical reruns are the reproducibility contract
    for number in ("1", "2", "3", "4", "5", "6", "7"):
        a = tmp_path / f"fig{number}a.csv"
        b = tmp_path / f"fig{number}b.csv"
        args = ["figure", number, "--grid-count", "25"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()


def test_figure_headers(tmp_path, capsys):
    cases = {
        "3": "x,v_initial,v_hat_0,v_hat_1,v_hat_2",
        "5": "x,psi_hat_0,psi_hat_1,psi_hat_2",
        "6": "x,psi_hat_0,psi_hat_1,psi_hat_2",
        "7": "x,v_initial,v_hat_0,v_hat_1,v_hat_2",
    }
    for number, header in cases.items():
        assert run(["figure", number, "--grid-count", "12"]) == EXIT_OK
        assert capsys.readouterr().out.split("\n")[0] == header


def test_figure_density_normalized(capsys):
    assert run(["figure", "4", "--grid-count", "40"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,p_hat_0,p_hat_1,p_hat_2"
    # trapezoid norm over the symmetric extension is 1 by construction
    import numpy as np
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    for j in (1, 2, 3):
        assert 2.0 * np.trapezoid(data[:, j], data[:, 0]) == pytest.approx(1.0)


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "params": {"nu": 0.5, "delta": -1, "rule": "ene0"},
        "grid": {"count": 5},
    }))
    code = run(["spectrum", "--config", str(cfg), "--n-max", "0"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip().split("\n")[1] == "0,0.75"
    # explicit flags override the config values; note the ene0 ground
    # energy is nu-independent at delta = -1, so both must change
    code = run(["spectrum", "--config", str(cfg), "--n-max", "0",
                "--nu", "1.5", "--delta", "1"])
    assert code == EXIT_OK
    line = capsys.readouterr().out.strip().split("\n")[1]
    assert line == "0,1.75"


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert run(["spectrum", "--config", str(missing)]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run(["spectrum", "--config", str(bad)]) == EXIT_USAGE


_GAUSSIAN = ["--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1"]


@pytest.mark.parametrize("command, raw, message", [
    (["spectrum"], {"params": [1, 2]}, "config: params must be an object"),
    (["spectrum"], {"params": {"nu": "abc", "delta": -1, "rule": "ene0"}},
     "config: params.nu must be a number, got 'abc'"),
    (["verify"] + _GAUSSIAN, {"grid": {"count": 2.5}},
     "config: grid.count must be an integer, got 2.5"),
    (["darboux", "--kind", "confluent"], {"chain": {"eps": -3.0}},
     "config: chain.eps must be a list of numbers, got -3.0"),
    (["verify"] + _GAUSSIAN, {"output": {"format": "xml"}},
     "config: output.format must be 'csv' or 'json', got 'xml'"),
    (["density"] + _GAUSSIAN, {"output": {"format": "xml"}},
     "config: output.format must be 'csv' or 'json', got 'xml'"),
], ids=["params-list", "nu-string", "count-float", "eps-number", "verify-xml",
        "density-xml"])
def test_malformed_config_is_a_usage_error(tmp_path, capsys, command, raw, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert run(command + ["--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_scenario_dispatch_messages(tmp_path, capsys):
    cfg = tmp_path / "nope.json"
    cfg.write_text(json.dumps({"scenario": "nope", "params": {"nu": 0.5, "delta": -1}}))
    assert run(["verify", "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: unknown scenario 'nope'; known: "
        "['gaussian-mass', 'harmonic-energy', 'harmonic-energy-pdm']\n")
    assert run(["density", "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: density: unsupported scenario 'nope'\n"
    assert run(["density", "--scenario", "harmonic-energy-pdm",
                "--nu", "2.5", "--delta", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: density: unsupported scenario 'harmonic-energy-pdm'\n")


def test_grid_validation(tmp_path, capsys):
    with pytest.raises(UsageError):
        _grid(RunConfig(grid_lo=2.0, grid_hi=1.0), 0.0, 1.0, 10)
    with pytest.raises(UsageError):
        _grid(RunConfig(grid_count=1), 0.0, 1.0, 10)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(UsageError, match="grid: lo and hi must be finite"):
            _grid(RunConfig(grid_hi=bad), 0.0, 1.0, 10)
        with pytest.raises(UsageError, match="grid: lo and hi must be finite"):
            _grid(RunConfig(grid_lo=bad), 0.0, 1.0, 10)
    # from the flag, and from a config file (JSON 1e400 parses to inf)
    cfg = tmp_path / "grid.json"
    cfg.write_text('{"grid": {"hi": 1e400}}')
    for command in (["density", "--scenario", "gaussian-mass", "--nu", "0.5",
                     "--delta", "1"], ["darboux"], ["figure", "1"]):
        for extra in (["--grid-hi", "inf"], ["--config", str(cfg)]):
            assert run(command + extra) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: grid: lo and hi must be finite\n"


@pytest.mark.parametrize("extra, message", [
    (["--grid-hi", "inf"], "grid: lo and hi must be finite"),
    (["--grid-count", "1"], "grid: count must be at least 2"),
])
def test_darboux_checks_grid_before_building_chain(monkeypatch, capsys, extra, message):
    # a bad grid is reported without building (or validating) the chain
    def unreachable(*args, **kwargs):
        raise AssertionError("chain built before the grid was checked")

    monkeypatch.setattr(cli, "confluent_chain", unreachable)
    assert run(["darboux", "--kind", "confluent"] + extra) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("kind, order", [("standard", 1), ("standard", 2),
                                         ("confluent", 2)])
def test_darboux_reads_each_member_once(monkeypatch, capsys, kind, order):
    # cmd_darboux takes U-hat and Phi-hat from one read of the chain: each
    # member closure (u_j and u_j') is called once, on the one grid of
    # the command, after the chain is built
    reads = []
    real_build = cli._build_chain

    def counted(fn, key):
        def read(y):
            reads.append((key, np.shape(y)))
            return fn(y)
        return read

    def build(config, E):
        chain = real_build(config, E)
        funcs = tuple((counted(f, (j, "u")), counted(d, (j, "u'")))
                      for j, (f, d) in enumerate(chain.funcs))
        return replace(chain, funcs=funcs)

    monkeypatch.setattr(cli, "_build_chain", build)
    assert run(["darboux", "--kind", kind, "--order", str(order),
                "--grid-count", "60"]) == EXIT_OK
    capsys.readouterr()
    keys = [key for key, _ in reads]
    assert sorted(keys) == sorted((j, part) for j in range(order) for part in ("u", "u'"))
    assert len({shape for _, shape in reads}) == 1


@pytest.mark.parametrize("eps", [1.0, 0.25, 0.24999])
def test_confluent_eps_above_quarter_is_a_domain_error(tmp_path, capsys, eps):
    # sqrt(1 - 4 eps) is real up to eps = 1/4, and the eps stencil of u2
    # samples the family two steps of 1e-5 above the chain's eps
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({"chain": {"kind": "confluent", "eps": [eps]}}))
    assert run(["darboux", "--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: confluent chain: eps = {eps:g} is out of range: it must be finite "
        f"and at most 0.24998, as u2 samples the family two stencil steps above it "
        f"and sqrt(1 - 4 eps) is real up to 1/4\n")


def test_merge_precedence():
    import argparse
    cfg = RunConfig(nu=1.0, delta=-1)
    ns = argparse.Namespace(nu=2.0)
    merged = _merge(cfg, ns)
    assert merged.nu == 2.0
    assert merged.delta == -1


def test_float_formatting():
    assert _fmt(0.75) == "0.75"
    assert _fmt(4.0) == "4"
    assert _fmt(12.0 ** (2.0 / 3.0)) == "5.24148278842"


# The next three tests pin the table output to the per-value format
# spelling f"{v:.12g}"; they hold for either way of writing the table.

@settings(max_examples=2000, deadline=None)
@given(st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                      1.7976931348623157e308, math.inf, -math.inf]))
def test_float_formatting_is_the_format_spec(v):
    assert _fmt(v) == f"{v:.12g}"


def test_csv_table(capsys):
    rows = [[0.1, -0.0, 5e-324], [1e300, math.nan, -math.inf], [4.0, 1.0 / 3.0, -2.5e-7]]
    cli._write_csv(None, ["a", "b", "c"], rows)
    expected = "".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
    assert capsys.readouterr().out == "a,b,c\n" + expected
    cli._write_csv(None, ["a", "b"], [])
    assert capsys.readouterr().out == "a,b\n"


def test_figure_refuses_non_finite_series(monkeypatch, capsys):
    monkeypatch.setitem(cli._FIGURES, 1,
                        lambda config: (["x", "y"], [[0.0, 1.0], [1.0, math.nan]]))
    assert run(["figure", "1"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: figure 1: non-finite value in "
                                       "emitted series\n")


def test_json_table_sorted_keys(capsys):
    code = run(["spectrum", "--nu", "0.5", "--delta", "-1", "--rule", "ene0",
                "--n-max", "1", "--format", "json"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["columns"] == ["n", "E"]
    assert payload["rows"][0] == ["0", "0.75"]
    assert out.index('"columns"') < out.index('"rows"')


def test_verify_json_report(capsys):
    code = run(["verify", "--scenario", "harmonic-energy-pdm",
                "--nu", "2.5", "--delta", "-1", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall_pass"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "induced_potential_match" in names
    assert "constant_term_identity" in names


def test_cli_import_leaves_scipy_integrate_unloaded():
    # The package needs no scipy: importing the CLI loads none of it, and
    # the norm commands run with every scipy import made to fail.
    src = str(Path(dunkl_darboux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, dunkl_darboux.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "False"
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from dunkl_darboux.cli import run\n"
            "codes = [run(['density', '--scenario', 'gaussian-mass', '--nu', '0.5',\n"
            "              '--delta', '-1']), run(['figure', '2'])]\n"
            "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0] ['scipy']"
    assert proc.stderr.startswith("norm = 2 (estimated error ")
