"""Fixtures shared by every test module."""

import pytest

from dunkl_darboux import libm


@pytest.fixture(autouse=True)
def no_memo_scope_left_open():
    """Fail any test after which a libm memo scope is still open.

    Every entry point that opens a scope must close it, on return and on
    raise alike; one left open would keep its memo, and every array it
    holds, for the rest of the process.
    """
    yield
    leaked = libm._MEMO.get() is not None
    libm._MEMO.set(None)        # so the leak is reported once, not by every later test
    assert not leaked, "a libm memo scope was left open"
