"""Interval endpoints with one integer parameter.

The symbolic layer describes vicinity templates whose endpoints are
affine in a single variable with slope +1 or -1 (``k+1``, ``-k-1``, a
plain constant).  A symbolic definable set lists boxes per strand, each
box one ``(lo, hi)`` endpoint pair per axis of its strand, written from
flat endpoints by :func:`sym_box` (``sym_box((n, n, k + 1, INF))`` on a
grid).  It evaluates to an ordinary :class:`~pretop.defsets.DefSet`
once every variable is bound, and the evaluation can optionally be
clipped against a fixed concrete mask, which is how subspaces stay
inside the fragment.
"""

from __future__ import annotations

from itertools import product

from ..defsets import DefSet, GroundSchema, display_order
from ..intervals import INF, NEG_INF, IntervalSet
from ..record import record


@record
class SymExpr:
    """Affine integer expression ``sign * var + offset`` (or a constant)."""

    var: str | None
    sign: int
    offset: int

    @classmethod
    def const(cls, value: int) -> "SymExpr":
        return cls(None, 1, int(value))

    @classmethod
    def plus(cls, var: str, offset: int = 0) -> "SymExpr":
        return cls(var, 1, offset)

    @classmethod
    def minus(cls, var: str, offset: int = 0) -> "SymExpr":
        return cls(var, -1, offset)

    def evaluate(self, env: dict) -> int:
        if self.var is None:
            return self.offset
        return self.sign * env[self.var] + self.offset

    def substitute(self, env: dict) -> "SymExpr":
        """Bind the variable to an integer, or rename it when ``env`` maps
        it to another expression."""
        if self.var is None or self.var not in env:
            return self
        value = env[self.var]
        if isinstance(value, SymExpr):
            return (value if self.sign > 0 else -value) + self.offset
        return SymExpr.const(self.sign * value + self.offset)

    def shift(self, delta: int) -> "SymExpr":
        return SymExpr(self.var, self.sign, self.offset + delta)

    def __neg__(self) -> "SymExpr":
        return SymExpr(self.var, -self.sign, -self.offset)

    def __add__(self, delta: int) -> "SymExpr":
        return self.shift(delta)

    def __sub__(self, delta: int) -> "SymExpr":
        return self.shift(-delta)

    @property
    def vars(self) -> frozenset:
        return frozenset() if self.var is None else frozenset((self.var,))

    @property
    def bound(self) -> int:
        return abs(self.offset)

    def describe(self) -> str:
        if self.var is None:
            return str(self.offset)
        head = self.var if self.sign > 0 else f"-{self.var}"
        if self.offset == 0:
            return head
        return f"{head}{self.offset:+d}"


def var(name: str) -> SymExpr:
    """Shorthand for the expression ``name + 0``."""
    return SymExpr.plus(name)


def as_endpoint(e):
    """An endpoint as an expression, or as an infinity unchanged."""
    if isinstance(e, SymExpr):
        return e
    if e == INF or e == NEG_INF:
        return e
    return SymExpr.const(e)


def _endpoint_value(e, env: dict):
    return e if isinstance(e, float) else e.evaluate(env)


def endpoint_vars(e) -> frozenset:
    return frozenset() if isinstance(e, float) else e.vars


def _substitute_endpoint(e, env: dict):
    return e if isinstance(e, float) else e.substitute(env)


def _endpoint_bound(e) -> int:
    return 0 if isinstance(e, float) else e.bound


def _describe_endpoint(e) -> str:
    if e == INF:
        return "inf"
    if e == NEG_INF:
        return "-inf"
    return e.describe()


def sym_box(ends: tuple) -> tuple:
    """One box from its flat endpoints: a (lower, upper) pair per axis."""
    ends = tuple(map(as_endpoint, ends))
    return tuple(zip(ends[::2], ends[1::2]))


def split_boxes(boxes) -> tuple:
    """Concrete boxes as symbolic ones: one box per choice of part on
    every axis, rows slowest."""
    return tuple(
        tuple((as_endpoint(lo), as_endpoint(hi)) for lo, hi in parts)
        for box in boxes
        for parts in product(*(s.parts for s in box))
    )


def defset_bound(d: DefSet) -> int:
    """Largest absolute finite endpoint appearing in a concrete set."""
    return max((s.max_finite_endpoint() for _, boxes in d.parts for box in boxes for s in box), default=0)


@record
class SymDefSet:
    """Definable set with symbolic interval endpoints.

    ``parts`` lists ``(strand, boxes)`` in schema order, each box one
    ``(lo, hi)`` endpoint pair per axis of its strand, each endpoint a
    :class:`SymExpr` or an infinity; unlike
    :class:`~pretop.defsets.DefSet` the boxes are not canonical.  A pair
    whose evaluated lower endpoint exceeds the upper one empties its box
    at that binding, so a single template can shrink to nothing for
    large parameter values without a case split.  A non-None ``mask``
    intersects every evaluation with a fixed concrete set; templates of
    a subspace carry the subspace as their mask and need no rewriting.
    """

    schema: GroundSchema
    parts: tuple = ()
    mask: DefSet | None = None

    @classmethod
    def of(cls, schema: GroundSchema, strands: dict, mask: DefSet | None = None) -> "SymDefSet":
        """The boxes given per strand name, in schema order."""
        parts = []
        for name, boxes in schema.in_order(strands):
            boxes = tuple(boxes)
            schema.check_boxes(name, boxes)
            if boxes:
                parts.append((name, boxes))
        return cls(schema, tuple(parts), mask)

    @classmethod
    def from_defset(cls, d: DefSet) -> "SymDefSet":
        return cls(d.schema, tuple((n, split_boxes(boxes)) for n, boxes in d.parts))

    def _endpoints(self):
        for _, boxes in self.parts:
            for box in boxes:
                for lo, hi in box:
                    yield lo
                    yield hi

    def map_boxes(self, fn) -> "SymDefSet":
        """The set with every box replaced by ``fn(box)``."""
        parts = tuple((n, tuple(fn(box) for box in boxes)) for n, boxes in self.parts)
        return SymDefSet(self.schema, parts, self.mask)

    def evaluate(self, env: dict) -> DefSet:
        """The evaluated boxes, each pair clipped to its axis, empty boxes
        dropped."""
        strands = {}
        for name, boxes in self.parts:
            axes = self.schema.axes(name)
            kept = strands[name] = []
            for box in boxes:
                sets = []
                for (lo, hi), ax in zip(box, axes):
                    lo, hi = max(_endpoint_value(lo, env), ax.low_value), _endpoint_value(hi, env)
                    if lo > hi:
                        break
                    sets.append(IntervalSet.from_pairs(ax, ((lo, hi),)))
                else:
                    kept.append(tuple(sets))
        out = DefSet.of(self.schema, strands)
        return out if self.mask is None else out & self.mask

    def substitute(self, env: dict) -> "SymDefSet":
        return self.map_boxes(
            lambda box: tuple((_substitute_endpoint(lo, env), _substitute_endpoint(hi, env)) for lo, hi in box)
        )

    def with_mask(self, mask: DefSet | None) -> "SymDefSet":
        return SymDefSet(self.schema, self.parts, mask)

    @property
    def vars(self) -> frozenset:
        return frozenset().union(*map(endpoint_vars, self._endpoints()))

    @property
    def bound(self) -> int:
        b = max(map(_endpoint_bound, self._endpoints()), default=0)
        return b if self.mask is None else max(b, defset_bound(self.mask))

    def describe(self) -> str:
        bits = []
        for name, boxes in display_order(self.parts):
            if not boxes[0]:
                bits.append(f"atom {name}")
                continue
            shown = [
                " x ".join(f"[{_describe_endpoint(lo)}, {_describe_endpoint(hi)}]" for lo, hi in box) for box in boxes
            ]
            if len(boxes[0]) == 1:  # the pieces of a ray read as one union
                shown = [" | ".join(shown)]
            bits += [f"{name}: {b}" for b in shown]
        body = "; ".join(bits) or "empty"
        if self.mask is not None:
            body += " (masked)"
        return body
