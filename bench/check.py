"""Output check of one op against its reference.

Numeric fields must agree with the reference to ``REL_TOL`` times the
largest magnitude in their column; everything else must agree byte for
byte.  CSV output is split into columns.  Free text (the ``verify``
report, the norm line on stderr, error messages) is one column: its
numbers are scaled by the largest number in the reference text.
"""

from __future__ import annotations

import math
import re

REL_TOL = 1e-8
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")


def _table(text: str):
    """(header, columns) of CSV output, or None if ``text`` is not a table."""
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "" or "," not in lines[0]:
        return None
    width = lines[0].count(",") + 1
    columns = [[] for _ in range(width)]
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != width:
            return None
        try:
            for column, field in zip(columns, fields):
                column.append(float(field))
        except ValueError:
            return None
    return lines[0], columns


def _close(ref: float, got: float, scale: float) -> bool:
    if not (math.isfinite(ref) and math.isfinite(got)):
        return ref == got or (math.isnan(ref) and math.isnan(got))
    return abs(ref - got) <= REL_TOL * scale


def _scale(values) -> float:
    return max((abs(v) for v in values if math.isfinite(v)), default=0.0)


class Expected:
    """Parsed reference text of one stream (stdout or stderr) of an op."""

    def __init__(self, text: str):
        self.text = text
        self.table = _table(text)
        if self.table is not None:
            self.scales = [_scale(col) for col in self.table[1]]
        else:
            parts = NUMBER.split(text)
            self.words = parts[0::2]
            self.numbers = [float(p) for p in parts[1::2]]
            self.scale = _scale(self.numbers)

    def matches(self, text: str) -> bool:
        if text == self.text:
            return True
        if self.table is not None:
            got = _table(text)
            if got is None or got[0] != self.table[0]:
                return False
            return all(len(g) == len(r) and all(_close(a, b, s) for a, b in zip(r, g))
                       for r, g, s in zip(self.table[1], got[1], self.scales))
        parts = NUMBER.split(text)
        numbers = [float(p) for p in parts[1::2]]
        return (parts[0::2] == self.words and len(numbers) == len(self.numbers)
                and all(_close(a, b, self.scale) for a, b in zip(self.numbers, numbers)))


def count_numbers(text: str) -> int:
    """Number of numeric values in an op's output."""
    table = _table(text)
    if table is not None:
        return sum(len(col) for col in table[1])
    return len(NUMBER.findall(text))


def plausible(text: str) -> bool:
    """Non-empty output whose numbers are all finite.

    Used for ops that failed when the references were made: once fixed
    they have no reference values to agree with.
    """
    table = _table(text)
    numbers = ([v for col in table[1] for v in col] if table is not None
               else [float(p) for p in NUMBER.findall(text)])
    return bool(text.strip()) and all(math.isfinite(v) for v in numbers)


class Reference:
    """Expected outcome of one op, as recorded by ``make_reference.py``."""

    def __init__(self, entry: dict):
        self.rc = entry["rc"]
        self.out = Expected(entry["out"])
        self.err = Expected(entry["err"])

    def judge(self, rc, raised, out: str, err: str) -> str:
        """'ok', 'expected_failure' or 'mismatch'.

        An op that failed when the references were made may fail again
        with any exit code, or succeed with plausible output.  An
        exception escaping ``cli.run`` is always a mismatch.
        """
        if raised is not None:
            return "mismatch"
        if self.rc == 0:
            ok = rc == 0 and self.out.matches(out) and self.err.matches(err)
            return "ok" if ok else "mismatch"
        if rc != 0:
            return "expected_failure"
        return "ok" if plausible(out) else "mismatch"

    def exact(self, rc, raised, out: str, err: str) -> bool:
        return (raised is None and rc == self.rc and out == self.out.text
                and err == self.err.text)
