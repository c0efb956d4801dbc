"""Interval endpoints with one integer parameter.

The symbolic layer describes vicinity templates whose endpoints are
affine in a single variable with slope +1 or -1 (``k+1``, ``-k-1``, a
plain constant).  A symbolic definable set evaluates to an ordinary
:class:`~pretop.defsets.DefSet` once every variable is bound, and the
evaluation can optionally be clipped against a fixed concrete mask,
which is how subspaces stay inside the fragment.
"""

from __future__ import annotations

from ..defsets import DefSet, GroundSchema, display_order
from ..intervals import INF, NEG_INF, AxisDomain, IntervalSet
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


def _endpoint_vars(e) -> frozenset:
    return frozenset() if isinstance(e, float) else e.vars


def _endpoint_bound(e) -> int:
    return 0 if isinstance(e, float) else e.bound


def _describe_endpoint(e) -> str:
    if e == INF:
        return "inf"
    if e == NEG_INF:
        return "-inf"
    return e.describe()


@record
class SymInterval:
    """One interval whose endpoints are expressions or infinities."""

    lo: object
    hi: object

    def __post_init__(self):
        object.__setattr__(self, "lo", as_endpoint(self.lo))
        object.__setattr__(self, "hi", as_endpoint(self.hi))

    def evaluate(self, env: dict) -> tuple:
        return (_endpoint_value(self.lo, env), _endpoint_value(self.hi, env))

    def substitute(self, env: dict) -> "SymInterval":
        def sub(e):
            return e if isinstance(e, float) else e.substitute(env)

        return SymInterval(sub(self.lo), sub(self.hi))

    @property
    def vars(self) -> frozenset:
        return _endpoint_vars(self.lo) | _endpoint_vars(self.hi)

    @property
    def bound(self) -> int:
        return max(_endpoint_bound(self.lo), _endpoint_bound(self.hi))

    def describe(self) -> str:
        return f"[{_describe_endpoint(self.lo)}, {_describe_endpoint(self.hi)}]"


@record
class SymIntervalSet:
    """Finite union of symbolic intervals over one axis.

    Pieces whose evaluated lower endpoint exceeds the upper one simply
    vanish at that binding, so a single template can shrink to nothing
    for large parameter values without a case split.
    """

    axis: AxisDomain
    parts: tuple = ()

    def __post_init__(self):
        coerced = tuple(p if isinstance(p, SymInterval) else SymInterval(*p) for p in self.parts)
        object.__setattr__(self, "parts", coerced)

    @classmethod
    def from_concrete(cls, s: IntervalSet) -> "SymIntervalSet":
        return cls(s.axis, tuple(SymInterval(lo, hi) for lo, hi in s.parts))

    def evaluate(self, env: dict) -> IntervalSet:
        """The evaluated pieces clipped to the axis, empties dropped."""
        low = self.axis.low_value
        pairs = [(max(lo, low), hi) for lo, hi in (p.evaluate(env) for p in self.parts)]
        return IntervalSet.from_pairs(self.axis, [(lo, hi) for lo, hi in pairs if lo <= hi])

    def substitute(self, env: dict) -> "SymIntervalSet":
        return SymIntervalSet(self.axis, tuple(p.substitute(env) for p in self.parts))

    @property
    def vars(self) -> frozenset:
        out = frozenset()
        for p in self.parts:
            out |= p.vars
        return out

    @property
    def bound(self) -> int:
        return max((p.bound for p in self.parts), default=0)

    def describe(self) -> str:
        return " | ".join(p.describe() for p in self.parts) or "{}"


def sym_box(axes: tuple, ends: tuple) -> tuple:
    """One box of a strand with the given axes, from its flat endpoints
    (lower, upper, per axis)."""
    return tuple(
        SymIntervalSet(ax, (SymInterval(lo, hi),)) for ax, lo, hi in zip(axes, ends[::2], ends[1::2])
    )


def defset_bound(d: DefSet) -> int:
    """Largest absolute finite endpoint appearing in a concrete set."""
    return max((s.max_finite_endpoint() for _, boxes in d.parts for box in boxes for s in box), default=0)


@record
class SymDefSet:
    """Definable set with symbolic interval endpoints.

    ``parts`` lists ``(strand, boxes)`` in schema order, each box one
    :class:`SymIntervalSet` per axis of its strand, as in
    :class:`~pretop.defsets.DefSet` but not canonical.  A non-None
    ``mask`` intersects every evaluation with a fixed concrete set;
    templates of a subspace carry the subspace as their mask and need no
    rewriting.
    """

    schema: GroundSchema
    parts: tuple = ()
    mask: DefSet | None = None

    @classmethod
    def of(cls, schema: GroundSchema, strands: dict, mask: DefSet | None = None) -> "SymDefSet":
        """The boxes given per strand name, in schema order."""
        return cls(schema, tuple((n, tuple(boxes)) for n, boxes in schema.in_order(strands) if boxes), mask)

    @classmethod
    def from_defset(cls, d: DefSet) -> "SymDefSet":
        parts = tuple(
            (n, tuple(tuple(map(SymIntervalSet.from_concrete, box)) for box in boxes)) for n, boxes in d.parts
        )
        return cls(d.schema, parts)

    def _sets(self):
        for _, boxes in self.parts:
            for box in boxes:
                yield from box

    def map_boxes(self, fn) -> "SymDefSet":
        """The set with every box replaced by ``fn(box)``."""
        parts = tuple((n, tuple(fn(box) for box in boxes)) for n, boxes in self.parts)
        return SymDefSet(self.schema, parts, self.mask)

    def evaluate(self, env: dict) -> DefSet:
        out = DefSet.of(
            self.schema,
            {n: [tuple(s.evaluate(env) for s in box) for box in boxes] for n, boxes in self.parts},
        )
        return out if self.mask is None else out & self.mask

    def substitute(self, env: dict) -> "SymDefSet":
        return self.map_boxes(lambda box: tuple(s.substitute(env) for s in box))

    def with_mask(self, mask: DefSet | None) -> "SymDefSet":
        return SymDefSet(self.schema, self.parts, mask)

    @property
    def vars(self) -> frozenset:
        return frozenset().union(*(s.vars for s in self._sets()))

    @property
    def bound(self) -> int:
        b = max((s.bound for s in self._sets()), default=0)
        return b if self.mask is None else max(b, defset_bound(self.mask))

    def describe(self) -> str:
        bits = []
        for name, boxes in display_order(self.parts):
            if not boxes[0]:
                bits.append(f"atom {name}")
                continue
            shown = [" x ".join(s.describe() for s in box) for box in boxes if all(s.parts for s in box)]
            if len(boxes[0]) == 1 and shown:  # the pieces of a ray read as one union
                shown = [" | ".join(shown)]
            bits += [f"{name}: {b}" for b in shown]
        body = "; ".join(bits) or "empty"
        if self.mask is not None:
            body += " (masked)"
        return body

