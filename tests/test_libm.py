"""libm's elementwise helpers and Grid, and the commands that read each input once.

A ``libm.Grid`` keeps what is evaluated on it, so the readers of one
set of points share their factors.  ``test_commands_evaluate_each_input_once``
counts the evaluations of ``libm._per_element``: no command may evaluate
one (function, argument, input) twice, and its evaluations may not
outgrow the command's ceiling.
"""

import math

import numpy as np
import pytest

from dunkl_darboux import cli, libm
from dunkl_darboux.errors import DomainError
from dunkl_darboux.libm import Grid, exp, exp_scaled, exp_square, log, power


def test_grid_equals_the_scalar_routine_per_element():
    x = np.linspace(0.1, 3.0, 41)
    for got, want in ((exp(x), [math.exp(v) for v in x]),
                      (log(x), [math.log(v) for v in x]),
                      (power(x, 2.5), [v ** 2.5 for v in x])):
        assert got.tobytes() == np.array(want).tobytes()
    assert type(exp(1.0)) is float and exp(x) is not exp(x)


def test_failed_evaluation_stores_nothing():
    # each evaluation fails afresh, naming the first failing element
    x = np.array([10.0, 1e200, 1e300, 3.0])
    for _ in range(2):
        with pytest.raises(DomainError, match=r"^power\(1e\+200, 2\.0\): result overflows$"):
            power(x, 2.0)


@pytest.mark.parametrize("fn, x, args, start", [
    (exp, 1000.0, (), "exp(1000.0): result overflows"),
    (log, 0.0, (), "log(0.0): "),
    (log, -1.0, (), "log(-1.0): "),
    (power, 0.0, (-1.0,), "power(0.0, -1.0): "),
    (power, 1e200, (2.0,), "power(1e+200, 2.0): result overflows"),
])
def test_float_and_one_point_array_fail_with_one_text(fn, x, args, start):
    # the scalar routine's failure, as the float path and the array path name it
    texts = []
    for arg in (x, np.array([x]), Grid([x])):
        with pytest.raises(DomainError) as failure:
            fn(arg, *args)
        texts.append(str(failure.value))
    assert texts[0].startswith(start) and texts.count(texts[0]) == 3


def test_grid_keeps_each_factor_and_nothing_else():
    x = np.linspace(-3.0, 3.0, 41)
    grid = Grid(x)
    assert Grid(grid) is grid and np.shares_memory(grid, x)
    first = power(grid, 2.0)
    assert power(grid, 2) is first and isinstance(first, Grid)
    assert first.tobytes() == power(x, 2.0).tobytes()
    assert exp(grid) is exp_scaled(grid, 1.0) and exp_scaled(grid, 2) is exp_scaled(grid, 2.0)
    assert exp_scaled(grid, 2).tobytes() == exp(2 * x).tobytes()
    assert exp_square(grid, -1.0).tobytes() == exp(-x * x).tobytes()
    assert exp_square(grid, -1.0) is exp_square(grid, -1.0)
    assert type(exp_square(1.5, -1.0)) is float
    # arithmetic gives plain arrays; a slice keeps nothing yet
    assert type(grid * grid) is np.ndarray and type(np.max(grid)) is np.float64
    assert power(grid[1:], 2.0) is not power(grid[1:], 2.0)
    # an evaluation that raises keeps nothing
    big = Grid(np.array([1.0, 1e200]))
    for _ in range(2):
        with pytest.raises(DomainError, match="result overflows"):
            power(big, 2.0)
    assert big._kept == {}


def test_reflected_grid_reads_each_absolute_value_once():
    grid = Grid(np.array([0.5, -1.0, 2.0, 1.0]))
    a, at = grid.absolute()
    assert a.tolist() == [0.5, 1.0, 2.0, 1.0] and at is None
    ext = grid.reflected()
    assert ext.tolist() == [0.5, -1.0, 2.0, 1.0, -0.5, -2.0, -1.0]
    a2, at2 = ext.absolute()
    assert a2 is a and a[at2].tolist() == np.abs(ext).tolist()
    positive = Grid(np.array([0.5, 2.0]))
    assert positive.absolute()[0] is positive
    assert positive.reflected().absolute()[0] is positive


# Command -> libm elements it evaluates (its distinct inputs' sizes).
ELEMENT_CEILINGS = {
    ("figure", "7", "--grid-count", "50"): 2975,
    ("darboux", "--kind", "confluent"): 3535,
    ("verify", "--scenario", "harmonic-energy", "--nu", "2.5", "--delta", "-1"): 3700,
    ("verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1"): 6349,
    ("figure", "4", "--grid-count", "50"): 850,
    ("darboux",): 1950,
}


@pytest.mark.parametrize("argv", list(ELEMENT_CEILINGS))
def test_commands_evaluate_each_input_once(monkeypatch, capsys, argv):
    evaluated = []
    original = libm._per_element

    def counting(name, fn, x, *args):
        evaluated.append(((name, args, x.dtype.str, x.shape, x.tobytes()), x.size))
        return original(name, fn, x, *args)

    monkeypatch.setattr(libm, "_per_element", counting)
    assert cli.run(list(argv)) == cli.EXIT_OK
    capsys.readouterr()
    keys = [key for key, _ in evaluated]
    assert len(set(keys)) == len(keys)
    assert sum(size for _, size in evaluated) <= ELEMENT_CEILINGS[argv]
