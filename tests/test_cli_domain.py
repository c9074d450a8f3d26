"""Every command over the README's parameter ranges: a result or one error line.

Commands are drawn with settings inside and at the edges of the ranges
that the README's "Parameter ranges" lists: nu mostly in the examples'
0 to 3.5 and now and then far out, explicit energies including 0,
subnormal, huge and non-finite ones, and grids that are too small,
reversed or reach past x = 0.  numpy's RuntimeWarning is raised as an
error.  Whatever the command, no exception leaves ``cli.run``; exit 1
prints nothing on stdout and one ``error:`` line on stderr; exit 0
prints a result whose every number is finite; exit 2 is a ``verify``
report with a failed check.
"""

import contextlib
import io
import math
import re
import warnings

from hypothesis import given, settings, strategies as st

from dunkl_darboux import cli


def _rarely(common, rare):
    """common, or in one example of ten a draw from rare."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else common)


def _flag(name, values):
    """[name, value], or [] (the setting left at its default) in one example of two."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _set(name, values):
    """[name, value]."""
    return values.map(lambda v: [name, str(v)])


_NU = _rarely(st.floats(0.0, 3.5),
              st.sampled_from([-3.0, 36.0, 120.0, 171.0, 400.0, 1000.0, 1e150, 1e154]))
_DELTA = st.sampled_from([-1, 1])
_N = _rarely(st.integers(0, 3), st.sampled_from([600, 601, 10**400]))
_RULE = st.sampled_from(["ene0", "ene1"])
_ENERGY = _rarely(st.floats(0.1, 50.0),
                  st.sampled_from(["-1", "0", "1e-310", "1e10", "1e206", "inf", "nan"]))
_SCENARIO = st.sampled_from(["gaussian-mass", "harmonic-energy", "harmonic-energy-pdm"])
_FORMAT = _flag("--format", st.sampled_from(["csv", "json"]))


def _grid(lo, hi):
    """Flags of a grid near the default [lo, hi]: each end and the count may be set."""
    width = hi - lo
    return st.tuples(
        _flag("--grid-lo", _rarely(st.floats(lo - 1.0, lo + 1.0),
                                   st.sampled_from([-800.0, 0.0, 30.0]))),
        _flag("--grid-hi", _rarely(st.floats(lo + 0.5 * width, hi + 0.5 * width),
                                   st.sampled_from([-1.0, 25.0, 1e300]))),
        _flag("--grid-count", _rarely(st.integers(2, 40), st.sampled_from([0, 1]))),
    )


def _command(name, *parts):
    """The argv [name, *flags] of the drawn parts, each a list of flags or a tuple of them."""
    def join(drawn):
        argv = [name]
        for part in drawn:
            argv += sum(part, []) if isinstance(part, tuple) else part
        return argv

    return st.tuples(*parts).map(join)


_COMMANDS = st.one_of(
    _command("verify", _set("--scenario", _SCENARIO), _set("--nu", _NU),
             _set("--delta", _DELTA), _flag("--n", _N), _flag("--rule", _RULE),
             _flag("--energy", _ENERGY), _grid(0.1, 4.0), _FORMAT),
    _command("spectrum", _set("--nu", _NU), _set("--delta", _DELTA), _set("--rule", _RULE),
             _flag("--n-max", st.integers(-1, 6)), _FORMAT),
    _command("density", _set("--scenario", _SCENARIO), _set("--nu", _NU),
             _set("--delta", _DELTA), _flag("--n", _N), _flag("--rule", _RULE),
             _grid(0.1, 4.0), _FORMAT),
    _command("darboux", _flag("--nu", _NU), _flag("--delta", _DELTA), _flag("--n", _N),
             _flag("--energy", _ENERGY),
             _flag("--kind", st.sampled_from(["standard", "confluent"])),
             _flag("--order", st.sampled_from([1, 2, 3])), _grid(-2.0, 1.0), _FORMAT),
    _command("figure", st.integers(1, 7).map(lambda k: [str(k)]), _flag("--nu", _NU),
             _flag("--delta", _DELTA), _grid(0.2, 3.0), _FORMAT),
)

# A token of the output that reads as a number: words, headers and JSON
# keys do not; "nan" and "inf" do, and are not finite.
_TOKEN = re.compile(r'[^\s,:()\[\]{}"]+')


def _numbers(text):
    for token in _TOKEN.findall(text):
        try:
            yield float(token)
        except ValueError:
            continue


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_COMMANDS)
def test_each_command_gives_a_result_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.run(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VERIFICATION)
    if code == cli.EXIT_USAGE:
        assert stdout == ""
        assert stderr.count("\n") == 1 and stderr.startswith("error: ")
    elif code == cli.EXIT_OK:
        assert stdout != ""
        assert all(math.isfinite(v) for v in _numbers(stdout))
    else:
        assert argv[0] == "verify"
        assert "FAIL" in stdout or '"pass": false' in stdout
