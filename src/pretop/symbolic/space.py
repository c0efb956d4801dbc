"""Infinite pretopologies presented by parametric vicinity rules.

A space is a ground schema, an optional carrier restricting it to a
definable subset, and one rule per region of points.  The rule's
template gives the vicinity ``T_x(k)`` as a symbolic set in the point's
coordinates and the shrink parameter ``k``; the filter of vicinities at
``x`` is generated by the decreasing family ``T_x(0) ⊇ T_x(1) ⊇ ...``.
Build through :func:`build_symbolic`, which decides coverage and the
pointwise axioms exactly; nothing is sampled.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

from ..defsets import KINDS, DefSet, GroundSchema, Point
from ..errors import (
    PatternGap,
    PatternOverlap,
    SizeLimit,
    UnknownBuiltin,
    UnknownPoint,
    WindowTooSmall,
)
from ..finite import FinitePretop
from ..intervals import INF, NEG_INF, INTEGERS, NATURALS0, NATURALS1, IntervalSet
from ..record import record
from .exprs import SymDefSet, defset_bound, sym_box, var


@record
class PointPattern:
    """Region of points one rule is responsible for.

    ``sels`` holds one selector per axis of the strand, rows then
    columns: an ``IntervalSet``, or None for the whole axis.  An atom's
    pattern has none, a ray's one and a grid's two.  The template may
    mention the point's coordinates as ``n`` (ray position or grid row)
    and ``m`` (grid column).
    """

    strand: str
    sels: tuple

    @classmethod
    def atom(cls, name: str) -> "PointPattern":
        return cls(name, ())

    @classmethod
    def ray(cls, name: str, rows: IntervalSet | None = None) -> "PointPattern":
        return cls(name, (rows,))

    @classmethod
    def grid(cls, name: str, rows: IntervalSet | None = None, cols: IntervalSet | None = None) -> "PointPattern":
        return cls(name, (rows, cols))

    @property
    def kind(self) -> str:
        return KINDS[len(self.sels)]

    @property
    def vars(self) -> tuple:
        return ("n", "m")[: len(self.sels)]

    def selectors(self, schema: GroundSchema) -> tuple:
        """Concrete selectors, one per axis, with defaults filled in."""
        axes = schema.axes(self.strand, self.kind)
        return tuple(IntervalSet.full(ax) if s is None else s for ax, s in zip(axes, self.sels))

    def to_defset(self, schema: GroundSchema) -> DefSet:
        return DefSet.of(schema, {self.strand: [self.selectors(schema)]})

    def matches(self, schema: GroundSchema, p: Point) -> bool:
        """``p in self.to_defset(schema)``; an absent selector holds every valid point."""
        if p.strand != self.strand:
            return False
        p.validate(schema)
        return all(s is None or c in s for c, s in zip(p.coords, self.sels))

    def env_for(self, p: Point) -> dict:
        return dict(zip(self.vars, p.coords))

    def point(self, env: dict) -> Point:
        """The point of the pattern's strand at the coordinates ``env``."""
        return Point(self.strand, tuple(env[v] for v in self.vars))

    @property
    def bound(self) -> int:
        return max((s.max_finite_endpoint() for s in self.sels if s is not None), default=0)

    def describe(self) -> str:
        if not self.sels:
            return f"{self.kind} {self.strand}"
        sel = [f"{label} {s.describe()}" for label, s in zip(("rows", "cols"), self.sels) if s is not None]
        return f"{self.kind} {self.strand} ({'; '.join(sel) or 'all'})"


@record
class VicinityRule:
    """One pattern together with its vicinity template."""

    pattern: PointPattern
    template: SymDefSet

    @property
    def bound(self) -> int:
        return max(self.pattern.bound, self.template.bound)

    def describe(self) -> str:
        return f"{self.pattern.describe()} -> {self.template.describe()}"


@record
class SymbolicPretop:
    """Rule-presented pretopology, trusted as already validated.

    ``topological`` asserts that the vicinity filters admit open bases,
    which downstream theta computations require.  ``carrier`` of None
    means the full ground set.
    """

    schema: GroundSchema
    rules: tuple
    topological: bool = False
    carrier: DefSet | None = None
    label: str = ""

    @property
    def carrier_set(self) -> DefSet:
        return DefSet.full(self.schema) if self.carrier is None else self.carrier

    @property
    def bound(self) -> int:
        b = max((r.bound for r in self.rules), default=0)
        if self.carrier is not None:
            b = max(b, defset_bound(self.carrier))
        return b

    def rule_for(self, p: Point) -> VicinityRule:
        p.validate(self.schema)
        if self.carrier is not None and p not in self.carrier:
            raise UnknownPoint(f"{p.describe()} lies outside the carrier")
        for r in self.rules:
            if r.pattern.matches(self.schema, p):
                return r
        raise UnknownPoint(f"no rule covers {p.describe()}")

    def template_at(self, p: Point) -> SymDefSet:
        """Vicinity template of one point, with only ``k`` left free."""
        r = self.rule_for(p)
        return r.template.substitute(r.pattern.env_for(p))

    def vicinity(self, p: Point, k: int) -> DefSet:
        """``template_at(p).evaluate({"k": k})``, evaluating the rule's
        template once with the coordinates and ``k`` bound together."""
        r = self.rule_for(p)
        env = r.pattern.env_for(p)
        env["k"] = k
        return r.template.evaluate(env)

    def describe(self) -> str:
        strands = [
            f"{n}:{'x'.join(ax.describe() for ax in axes)}" if axes else n for n, axes in self.schema.strands
        ]
        head = self.label or "symbolic space"
        lines = [f"{head} [{', '.join(strands)}]"]
        for r in self.rules:
            lines.append("  " + r.describe())
        if self.carrier is not None:
            lines.append(f"  carrier: {self.carrier.describe()}")
        return "\n".join(lines)


def build_symbolic(
    schema: GroundSchema,
    rules,
    topological: bool = False,
    carrier: DefSet | None = None,
    label: str = "",
) -> SymbolicPretop:
    """Validate rules against a schema and assemble the space.

    Coverage and disjointness of the patterns are decided exactly on the
    definable algebra, and self-membership and shrinking of the
    templates exactly on comparison systems
    (:func:`~pretop.symbolic.analysis.check_rule`).
    """
    # analysis imports this module's classes, so its checker loads here
    from .analysis import check_rule

    rules = tuple(rules)
    carrier_set = DefSet.full(schema) if carrier is None else carrier
    on_carrier = dict(carrier_set.parts)
    # per strand, the union of its rules' regions so far: a rule's region
    # lies on its pattern's strand, so it can only overlap those
    covered: dict = {}
    for i, r in enumerate(rules):
        name = r.pattern.strand
        d = r.pattern.to_defset(schema) & DefSet.of(schema, {name: on_carrier.get(name, ())})
        union = covered.get(name, DefSet.empty(schema))
        overlap = union & d
        if not overlap.is_empty():
            raise PatternOverlap(
                f"rule {i} claims already-covered points: {overlap.describe()}"
            )
        covered[name] = union | d
    gap = carrier_set - DefSet.of(schema, {name: union.boxes(name) for name, union in covered.items()})
    if not gap.is_empty():
        raise PatternGap(f"no rule covers {gap.describe()}")

    out_rules = []
    for r in rules:
        check_rule(schema, r, carrier)
        template = r.template if carrier is None else r.template.with_mask(carrier)
        out_rules.append(VicinityRule(r.pattern, template))
    return SymbolicPretop(schema, tuple(out_rules), topological, carrier, label)


# -- built-in spaces ---------------------------------------------------------

_K = var("k")
_N = var("n")
_M = var("m")


def _urysohn() -> SymbolicPretop:
    grid = (NATURALS1, INTEGERS)
    schema = GroundSchema((("pinf", ()), ("minf", ()), ("G", grid)))
    nonzero = IntervalSet.from_pairs(INTEGERS, [(NEG_INF, -1), (1, INF)])
    zero = IntervalSet.single(INTEGERS, 0)
    rules = (
        VicinityRule(
            PointPattern.grid("G", cols=nonzero),
            SymDefSet.of(schema, {"G": [sym_box((_N, _N, _M, _M))]}),
        ),
        VicinityRule(
            PointPattern.grid("G", cols=zero),
            SymDefSet.of(
                schema,
                {
                    "G": [
                        sym_box((_N, _N, 0, 0)),
                        sym_box((_N, _N, _K + 1, INF)),
                        sym_box((_N, _N, NEG_INF, -_K - 1)),
                    ]
                },
            ),
        ),
        VicinityRule(
            PointPattern.atom("pinf"),
            SymDefSet.of(schema, {"pinf": [()], "G": [sym_box((_K + 1, INF, 1, INF))]}),
        ),
        VicinityRule(
            PointPattern.atom("minf"),
            SymDefSet.of(schema, {"minf": [()], "G": [sym_box((_K + 1, INF, NEG_INF, -1))]}),
        ),
    )
    return build_symbolic(schema, rules, topological=True, label="urysohn")


def _half_grid() -> SymbolicPretop:
    grid = (NATURALS1, NATURALS0)
    schema = GroundSchema((("pinf", ()), ("G", grid)))
    positive = IntervalSet.at_least(NATURALS0, 1)
    zero = IntervalSet.single(NATURALS0, 0)
    rules = (
        VicinityRule(
            PointPattern.grid("G", cols=positive),
            SymDefSet.of(schema, {"G": [sym_box((_N, _N, _M, _M))]}),
        ),
        VicinityRule(
            PointPattern.grid("G", cols=zero),
            SymDefSet.of(schema, {"G": [sym_box((_N, _N, 0, 0)), sym_box((_N, _N, _K + 1, INF))]}),
        ),
        VicinityRule(
            PointPattern.atom("pinf"),
            SymDefSet.of(schema, {"pinf": [()], "G": [sym_box((_K + 1, INF, 1, INF))]}),
        ),
    )
    return build_symbolic(schema, rules, topological=True, label="half_grid")


def _discrete_ray(count: int) -> SymbolicPretop:
    if count < 1:
        raise UnknownBuiltin(f"discrete_ray needs at least one strand, got {count}")
    schema = GroundSchema(tuple((f"R{i}", (NATURALS0,)) for i in range(1, count + 1)))
    rules = tuple(
        VicinityRule(PointPattern.ray(name), SymDefSet.of(schema, {name: [sym_box((_N, _N))]}))
        for name, _ in schema.strands
    )
    return build_symbolic(schema, rules, topological=True, label=f"discrete_ray({count})")


# Strands of the largest builtin ``discrete_ray(N)``.  Its build grows
# about linearly in the strands: 512 take about 0.025 s.
_MAX_RAY_STRANDS = 512


@lru_cache(maxsize=None)
def builtin(name: str) -> SymbolicPretop:
    """Named example space; see the module docstring for the catalogue."""
    if name == "urysohn":
        return _urysohn()
    if name == "half_grid":
        return _half_grid()
    m = re.fullmatch(r"discrete_ray\((\d+)\)", name)
    if m:
        # int() refuses more than 4,300 digits, so the digits are compared first
        digits = m.group(1).lstrip("0") or "0"
        if len(digits) > len(str(_MAX_RAY_STRANDS)) or int(digits) > _MAX_RAY_STRANDS:
            got = digits if len(digits) <= 12 else f"a {len(digits)}-digit count"
            raise SizeLimit(f"discrete_ray supports at most {_MAX_RAY_STRANDS} strands, got {got}")
        return _discrete_ray(int(digits))
    raise UnknownBuiltin(f"no builtin named {name!r}")


# -- truncation --------------------------------------------------------------

def box_points(x: SymbolicPretop, window: int) -> list:
    """Points of the finite box of radius ``window``, in a stable order."""
    pts = [
        Point(name, coords)
        for name, axes in x.schema.strands
        for coords in product(*(range(-window if ax.kind == "int" else ax.low, window + 1) for ax in axes))
    ]
    if x.carrier is not None:
        pts = [p for p in pts if p in x.carrier]
    return pts


def truncate(x: SymbolicPretop, window: int) -> tuple:
    """Finite snapshot: box of radius ``window`` with kernels ``T_p(window)``,
    and the mask of the points whose kernel the box clipped.

    Faithful in the sense that a point whose template at parameter
    ``window`` lies inside the box keeps its exact least vicinity; for
    the others, the clipped points, the kernel is the template clipped to
    the box.  The window must clear every rule constant with one step to
    spare.
    """
    b = x.bound
    if window < b + 2:
        raise WindowTooSmall(f"window {window} below rule constants, need at least {b + 2}")
    pts = box_points(x, window)
    index = {(p.strand, p.coords): i for i, p in enumerate(pts)}
    kernels = [_box_mask(x.vicinity(p, window), index, window) for p in pts]
    space = FinitePretop(tuple(p.describe() for p in pts), tuple(m for m, _ in kernels))
    return space, sum(1 << i for i, (_, out) in enumerate(kernels) if out)


def _box_mask(v: DefSet, index: dict, window: int) -> tuple:
    """The bits of the box points in ``v``, and whether ``v`` holds a point
    outside them.  Each box of ``v``, clipped to the radius ``window``, is
    looked up point by point in ``index``, which holds the box points
    inside the carrier: ``v`` reaches outside where an interval passes
    the radius or a point is missing from ``index``.  Canonical boxes are
    disjoint, so no bit is added twice."""
    mask, outside = 0, False
    for name, boxes in v.parts:
        for box in boxes:
            sides = []
            for s in box:
                outside = outside or any(lo < -window or hi > window for lo, hi in s.parts)
                sides.append([i for lo, hi in s.parts for i in range(max(lo, -window), min(hi, window) + 1)])
            for coords in product(*sides):
                bit = index.get((name, coords))
                if bit is None:
                    outside = True
                else:
                    mask |= 1 << bit
    return mask, outside
