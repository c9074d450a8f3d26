"""libm's per-command memo: scope, key, read-only hits, failures, effect.

Without the memo every test here fails: most of them because
``libm.memo_scope`` and ``libm._MEMO`` do not exist, and
``test_output_does_not_depend_on_the_scope`` cannot fail otherwise,
since the output without a scope is what the memo must reproduce.
``test_commands_evaluate_each_input_once`` fails on its own terms: it
counts the evaluations of ``libm._per_element``, and without the memo
its three commands evaluate 2.8-3.7 times the elements of their
distinct inputs.
"""

import contextlib
import math

import numpy as np
import pytest

from dunkl_darboux import cli, libm
from dunkl_darboux.errors import DomainError
from dunkl_darboux.libm import exp, power


@pytest.mark.parametrize("argv, command, code", [
    (["spectrum", "--nu", "2.5", "--delta", "-1", "--rule", "ene1"],
     "cmd_spectrum", cli.EXIT_OK),
    (["darboux", "--energy", "1e206"], "cmd_darboux", cli.EXIT_USAGE),  # DomainError
    (["darboux", "--grid-count", "1"], "cmd_darboux", cli.EXIT_USAGE),  # UsageError
])
def test_run_closes_its_scope(monkeypatch, capsys, argv, command, code):
    seen = []       # (memo, its size) as each run of the command starts
    original = getattr(cli, command)

    def spy(*args):
        memo = libm._MEMO.get()
        seen.append((memo, None if memo is None else len(memo)))
        exp(np.linspace(0.0, 1.0, 5))
        return original(*args)

    monkeypatch.setattr(cli, command, spy)
    assert libm._MEMO.get() is None
    for _ in range(2):
        assert cli.run(argv) == code
        assert libm._MEMO.get() is None
    capsys.readouterr()
    # Each run opened a memo of its own, and it started empty.
    (first, first_size), (second, second_size) = seen
    assert first is not None and second is not None and first is not second
    assert first_size == second_size == 0


def test_run_closes_its_scope_when_an_exception_escapes(monkeypatch):
    def broken(config, n_max):
        exp(np.linspace(0.0, 1.0, 5))
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_spectrum", broken)
    with pytest.raises(RuntimeError, match="boom"):
        cli.run(["spectrum", "--nu", "2.5", "--delta", "-1", "--rule", "ene1"])
    assert libm._MEMO.get() is None


def test_hit_is_the_stored_read_only_result():
    x = np.linspace(-3.0, 3.0, 41)
    fresh = exp(x)
    with libm.memo_scope():
        first = exp(x)
        again = exp(x.copy())           # same bytes, another array
        assert again is first
        assert not first.flags.writeable
        assert first.tobytes() == fresh.tobytes()
        assert power(x, 2.0) is power(x, 2.0)
        assert power(x, 3.0) is not power(x, 2.0)
        assert exp(np.array([-0.0])) is not exp(np.array([0.0]))
        y = x.copy()
        before = exp(y)
        y[0] = 7.0                      # changed in place: evaluated afresh
        assert exp(y) is not before and exp(y)[0] == math.exp(7.0)
        stored = len(libm._MEMO.get())
        assert isinstance(exp(1.0), float)
        assert len(libm._MEMO.get()) == stored      # floats bypass the memo
    # Outside a scope every call is a new, writeable array.
    a, b = exp(x), exp(x)
    assert a is not b and a.flags.writeable and b.flags.writeable


def test_failed_evaluation_stores_nothing():
    x = np.array([10.0, 1e200, 3.0])
    with libm.memo_scope():
        with pytest.raises(DomainError) as first:
            power(x, 2.0)
        assert libm._MEMO.get() == {}
        with pytest.raises(DomainError) as second:
            power(x, 2.0)
        assert libm._MEMO.get() == {}
    assert str(first.value) == str(second.value) == \
        "power(1e+200, 2.0): result overflows"


SCOPE_INVARIANT = [
    ["figure", "2", "--grid-count", "50"],
    ["figure", "4", "--grid-count", "50"],
    ["figure", "7", "--grid-count", "50"],
    ["darboux"],
    ["darboux", "--kind", "standard", "--order", "1"],
    ["darboux", "--kind", "confluent"],
    ["verify", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1"],
    ["verify", "--scenario", "harmonic-energy", "--nu", "2.5", "--delta", "-1"],
    ["verify", "--scenario", "harmonic-energy-pdm", "--nu", "2.5", "--delta", "-1"],
    ["density", "--scenario", "gaussian-mass", "--nu", "0.5", "--delta", "-1"],
]


def test_output_does_not_depend_on_the_scope(monkeypatch, capsys):
    def outputs():
        results = []
        for argv in SCOPE_INVARIANT:
            code = cli.run(argv)
            results.append((code, *capsys.readouterr()))
        return results

    with_memo = outputs()
    monkeypatch.setattr(cli, "memo_scope", contextlib.nullcontext)
    assert outputs() == with_memo


# Command -> libm elements it evaluates (its distinct inputs' sizes).
ELEMENT_CEILINGS = {
    ("figure", "7", "--grid-count", "50"): 2975,
    ("darboux", "--kind", "confluent"): 4375,
    ("verify", "--scenario", "harmonic-energy", "--nu", "2.5", "--delta", "-1"): 3700,
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
