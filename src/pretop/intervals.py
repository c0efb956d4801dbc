"""Finite unions of integer intervals with infinite ends.

Sets over a single integer axis (a copy of the naturals with a chosen
least element, or the full integers) are kept in a unique normal form:
intervals sorted, pairwise disjoint and non-adjacent.  Equality of normal
forms is semantic equality, which the Boolean laws in the test suite lean
on heavily.
"""

from __future__ import annotations

from .errors import AxisMismatch, MalformedInterval
from .record import record

INF = float("inf")
NEG_INF = float("-inf")


@record
class AxisDomain:
    """An integer axis: ``naturals`` with least element ``low``, or the
    unbounded ``integers`` (``low`` is None)."""

    kind: str  # "nat" | "int"
    low: int | None = None

    def __post_init__(self):
        if self.kind not in ("nat", "int"):
            raise MalformedInterval(f"unknown axis kind {self.kind!r}")
        if self.kind == "nat" and self.low is None:
            object.__setattr__(self, "low", 0)
        if self.kind == "int" and self.low is not None:
            raise MalformedInterval("integer axis takes no lower bound")

    @property
    def low_value(self):
        """Least element as a number (−inf on the integer axis)."""
        return NEG_INF if self.kind == "int" else self.low

    def __contains__(self, n) -> bool:
        return n >= self.low_value

    def describe(self) -> str:
        if self.kind == "int":
            return "int"
        return f"nat({self.low})"


INTEGERS = AxisDomain("int")
NATURALS0 = AxisDomain("nat", 0)
NATURALS1 = AxisDomain("nat", 1)


def _check_axes(a: "IntervalSet", b: "IntervalSet"):
    if a.axis != b.axis:
        raise AxisMismatch(f"{a.axis.describe()} vs {b.axis.describe()}")


@record
class IntervalSet:
    """Normalized finite union of integer intervals over one axis.

    ``parts`` is a tuple of (lo, hi) pairs where lo may be −inf (integer
    axis only) and hi may be +inf; all finite endpoints are ints.
    Construct through :meth:`from_pairs` or the named constructors; the
    raw constructor trusts its input.
    """

    axis: AxisDomain
    parts: tuple = ()

    # -- construction --------------------------------------------------

    @classmethod
    def from_pairs(cls, axis: AxisDomain, pairs) -> "IntervalSet":
        """Build from raw (lo, hi) pairs, normalizing.

        None stands for an infinite endpoint on either side.  Raises
        MalformedInterval for lo > hi or an infinity on the wrong side.
        """
        cleaned = []
        for lo, hi in pairs:
            if lo is None:
                lo = NEG_INF
            if hi is None:
                hi = INF
            if lo == INF or hi == NEG_INF:
                raise MalformedInterval(f"({lo}, {hi}): infinite endpoint on the wrong side")
            if lo > hi:
                raise MalformedInterval(f"({lo}, {hi}): lower endpoint above upper")
            lo = max(lo, axis.low_value)
            if lo > hi:
                continue  # interval entirely below the axis
            cleaned.append((_as_int(lo), _as_int(hi)))
        return cls(axis, _normalize(cleaned))

    @classmethod
    def empty(cls, axis: AxisDomain) -> "IntervalSet":
        return cls(axis, ())

    @classmethod
    def full(cls, axis: AxisDomain) -> "IntervalSet":
        return cls(axis, ((axis.low_value, INF),))

    @classmethod
    def single(cls, axis: AxisDomain, n: int) -> "IntervalSet":
        return cls.from_pairs(axis, [(n, n)])

    @classmethod
    def at_least(cls, axis: AxisDomain, n: int) -> "IntervalSet":
        return cls.from_pairs(axis, [(n, None)])

    @classmethod
    def bounded(cls, axis: AxisDomain, lo: int, hi: int) -> "IntervalSet":
        return cls.from_pairs(axis, [(lo, hi)])

    # -- queries --------------------------------------------------------

    def __contains__(self, n) -> bool:
        return any(lo <= n <= hi for lo, hi in self.parts)

    def is_empty(self) -> bool:
        return not self.parts

    def is_full(self) -> bool:
        return self == IntervalSet.full(self.axis)

    def is_finite(self) -> bool:
        return all(lo != NEG_INF and hi != INF for lo, hi in self.parts)

    def cardinality(self):
        """Number of elements, or None when infinite."""
        if not self.is_finite():
            return None
        return sum(hi - lo + 1 for lo, hi in self.parts)

    def has_plus_end(self) -> bool:
        return bool(self.parts) and self.parts[-1][1] == INF

    def has_minus_end(self) -> bool:
        return bool(self.parts) and self.parts[0][0] == NEG_INF

    def is_cofinite(self) -> bool:
        return (~self).is_finite()

    def classify(self) -> "IntervalClassification":
        return IntervalClassification(
            is_empty=self.is_empty(),
            is_finite=self.is_finite(),
            cardinality=self.cardinality(),
            is_cofinite=self.is_cofinite(),
            has_plus_end=self.has_plus_end(),
            has_minus_end=self.has_minus_end(),
        )

    def least(self) -> int:
        """Representative element of a nonempty set: the least one, else
        the upper end of the first part, else 0 on the full integer axis."""
        lo, hi = self.parts[0]
        if lo != NEG_INF:
            return int(lo)
        if hi != INF:
            return int(hi)
        return 0

    def max_finite_endpoint(self) -> int:
        """Largest |finite endpoint|, 0 when none; used to size scan windows."""
        best = 0
        for lo, hi in self.parts:
            for e in (lo, hi):
                if e != INF and e != NEG_INF:
                    best = max(best, abs(e))
        return best

    # -- algebra ---------------------------------------------------------

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        _check_axes(self, other)
        return IntervalSet(self.axis, _normalize(list(self.parts) + list(other.parts)))

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        _check_axes(self, other)
        out = []
        for alo, ahi in self.parts:
            for blo, bhi in other.parts:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi:
                    out.append((lo, hi))
        return IntervalSet(self.axis, _normalize(out))

    def __invert__(self) -> "IntervalSet":
        lo_edge = self.axis.low_value
        out = []
        cursor = lo_edge
        for lo, hi in self.parts:
            if cursor < lo:
                out.append((cursor, lo - 1))
            if hi == INF:
                cursor = INF
                break
            cursor = hi + 1
        if cursor != INF:
            out.append((cursor, INF))
        return IntervalSet(self.axis, _normalize(out))

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self & ~other

    def meets(self, other: "IntervalSet") -> bool:
        _check_axes(self, other)
        return any(
            max(alo, blo) <= min(ahi, bhi)
            for alo, ahi in self.parts
            for blo, bhi in other.parts
        )

    def subset_of(self, other: "IntervalSet") -> bool:
        return (self - other).is_empty()

    def shift(self, delta: int) -> "IntervalSet":
        """Translate by delta, clipping at the axis floor."""
        out = []
        for lo, hi in self.parts:
            lo2 = lo if lo == NEG_INF else lo + delta
            hi2 = hi if hi == INF else hi + delta
            lo2 = max(lo2, self.axis.low_value)
            if lo2 <= hi2:
                out.append((_as_int(lo2), _as_int(hi2)))
        return IntervalSet(self.axis, _normalize(out))

    # -- display ----------------------------------------------------------

    def describe(self) -> str:
        if not self.parts:
            return "empty"
        if self.is_full():
            return "all"
        return ",".join(_describe_part(lo, hi) for lo, hi in self.parts)


@record
class IntervalClassification:
    is_empty: bool
    is_finite: bool
    cardinality: int | None
    is_cofinite: bool
    has_plus_end: bool
    has_minus_end: bool


def _as_int(v):
    return v if v in (INF, NEG_INF) else int(v)


def _normalize(parts):
    parts = sorted(parts)
    out = []
    for lo, hi in parts:
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def _describe_part(lo, hi) -> str:
    if lo == hi:
        return str(lo)
    left = "" if lo == NEG_INF else str(lo)
    right = "" if hi == INF else str(hi)
    return f"{left}..{right}"
