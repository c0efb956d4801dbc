"""Interval endpoints with one integer parameter.

The symbolic layer describes vicinity templates whose endpoints are
affine in a single variable with slope +1 or -1 (``k+1``, ``-k-1``, a
plain constant).  A symbolic definable set evaluates to an ordinary
:class:`~pretop.defsets.DefSet` once every variable is bound, and the
evaluation can optionally be clipped against a fixed concrete mask,
which is how subspaces stay inside the fragment.
"""

from __future__ import annotations

from ..defsets import DefSet, GroundSchema
from ..errors import UnknownPoint
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

    def shift_var(self, name: str, delta: int) -> "SymExpr":
        """Substitute ``name + delta`` for the variable ``name``."""
        if self.var != name:
            return self
        return SymExpr(self.var, self.sign, self.offset + self.sign * delta)

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

    def shift_var(self, name: str, delta: int) -> "SymInterval":
        def sub(e):
            return e if isinstance(e, float) else e.shift_var(name, delta)

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
    def empty(cls, axis: AxisDomain) -> "SymIntervalSet":
        return cls(axis, ())

    @classmethod
    def full(cls, axis: AxisDomain) -> "SymIntervalSet":
        return cls(axis, ((SymInterval(axis.low_value if axis.kind == "nat" else NEG_INF, INF)),))

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

    def shift_var(self, name: str, delta: int) -> "SymIntervalSet":
        return SymIntervalSet(self.axis, tuple(p.shift_var(name, delta) for p in self.parts))

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


def defset_bound(d: DefSet) -> int:
    """Largest absolute finite endpoint appearing in a concrete set."""
    b = 0
    for _, s in d.rays:
        b = max(b, s.max_finite_endpoint())
    for _, groups in d.grids:
        for rows, cols in groups:
            b = max(b, rows.max_finite_endpoint(), cols.max_finite_endpoint())
    return b


@record
class SymDefSet:
    """Definable set with symbolic interval endpoints.

    ``rays`` maps each ray strand to a :class:`SymIntervalSet` and
    ``grids`` maps each grid strand to a tuple of (row set, column set)
    rectangles.  A non-None ``mask`` intersects every evaluation with a
    fixed concrete set; templates of a subspace carry the subspace as
    their mask and need no rewriting.
    """

    schema: GroundSchema
    atoms: frozenset = frozenset()
    rays: tuple = ()
    grids: tuple = ()
    mask: DefSet | None = None

    @classmethod
    def assemble(cls, schema: GroundSchema, atoms=(), ray_parts=None, grid_rects=None, mask=None) -> "SymDefSet":
        """Build from per-strand pieces, coercing plain endpoint pairs.

        ``ray_parts`` maps ray name to an iterable of (lo, hi) pieces;
        ``grid_rects`` maps grid name to an iterable of rectangles given
        as (row lo, row hi, col lo, col hi).
        """
        ray_parts = dict(ray_parts or {})
        grid_rects = dict(grid_rects or {})
        for a in atoms:
            if not schema.has_atom(a):
                raise UnknownPoint(f"no atom named {a!r}")
        for n in ray_parts:
            schema.ray_axis(n)
        for n in grid_rects:
            schema.grid_axes(n)
        rays = []
        for name, ax in schema.rays:
            pieces = ray_parts.get(name, ())
            if isinstance(pieces, SymIntervalSet):
                rays.append((name, pieces))
            else:
                rays.append((name, SymIntervalSet(ax, tuple(SymInterval(lo, hi) for lo, hi in pieces))))
        grids = []
        for name, rows_ax, cols_ax in schema.grids:
            rects = []
            for rect in grid_rects.get(name, ()):
                if len(rect) == 4:
                    rl, rh, cl, ch = rect
                    rect = (
                        SymIntervalSet(rows_ax, (SymInterval(rl, rh),)),
                        SymIntervalSet(cols_ax, (SymInterval(cl, ch),)),
                    )
                rects.append(tuple(rect))
            grids.append((name, tuple(rects)))
        return cls(schema, frozenset(atoms), tuple(rays), tuple(grids), mask)

    @classmethod
    def from_defset(cls, d: DefSet, mask: DefSet | None = None) -> "SymDefSet":
        rays = tuple((n, SymIntervalSet.from_concrete(s)) for n, s in d.rays)
        grids = tuple(
            (
                n,
                tuple(
                    (SymIntervalSet.from_concrete(rows), SymIntervalSet.from_concrete(cols))
                    for rows, cols in groups
                ),
            )
            for n, groups in d.grids
        )
        return cls(d.schema, d.atoms, rays, grids, mask)

    def evaluate(self, env: dict) -> DefSet:
        ray_parts = {n: s.evaluate(env) for n, s in self.rays}
        grid_rects = {
            n: [(rows.evaluate(env), cols.evaluate(env)) for rows, cols in rects]
            for n, rects in self.grids
        }
        out = DefSet.build(self.schema, self.atoms, ray_parts, grid_rects)
        if self.mask is not None:
            out = out & self.mask
        return out

    def substitute(self, env: dict) -> "SymDefSet":
        rays = tuple((n, s.substitute(env)) for n, s in self.rays)
        grids = tuple(
            (n, tuple((rows.substitute(env), cols.substitute(env)) for rows, cols in rects))
            for n, rects in self.grids
        )
        return SymDefSet(self.schema, self.atoms, rays, grids, self.mask)

    def shift_var(self, name: str, delta: int) -> "SymDefSet":
        """Substitute ``name + delta`` for ``name`` in every endpoint."""
        if delta == 0:
            return self
        rays = tuple((n, s.shift_var(name, delta)) for n, s in self.rays)
        grids = tuple(
            (n, tuple((rows.shift_var(name, delta), cols.shift_var(name, delta)) for rows, cols in rects))
            for n, rects in self.grids
        )
        return SymDefSet(self.schema, self.atoms, rays, grids, self.mask)

    def with_mask(self, mask: DefSet | None) -> "SymDefSet":
        return SymDefSet(self.schema, self.atoms, self.rays, self.grids, mask)

    @property
    def vars(self) -> frozenset:
        out = frozenset()
        for _, s in self.rays:
            out |= s.vars
        for _, rects in self.grids:
            for rows, cols in rects:
                out |= rows.vars | cols.vars
        return out

    @property
    def bound(self) -> int:
        b = 0
        for _, s in self.rays:
            b = max(b, s.bound)
        for _, rects in self.grids:
            for rows, cols in rects:
                b = max(b, rows.bound, cols.bound)
        if self.mask is not None:
            b = max(b, defset_bound(self.mask))
        return b

    def describe(self) -> str:
        bits = [f"atom {a}" for a in sorted(self.atoms)]
        for n, s in self.rays:
            if s.parts:
                bits.append(f"{n}: {s.describe()}")
        for n, rects in self.grids:
            for rows, cols in rects:
                if rows.parts and cols.parts:
                    bits.append(f"{n}: {rows.describe()} x {cols.describe()}")
        body = "; ".join(bits) or "empty"
        if self.mask is not None:
            body += " (masked)"
        return body


def sym_ray(schema: GroundSchema, name: str, *pieces, atoms=()) -> SymDefSet:
    """One-ray symbolic set from (lo, hi) endpoint pairs."""
    return SymDefSet.assemble(schema, atoms=atoms, ray_parts={name: pieces})


def sym_grid(schema: GroundSchema, name: str, *rects, atoms=()) -> SymDefSet:
    """One-grid symbolic set from (row lo, row hi, col lo, col hi) rectangles."""
    return SymDefSet.assemble(schema, atoms=atoms, grid_rects={name: rects})
