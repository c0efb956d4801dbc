"""Infinite pretopologies presented by parametric vicinity rules.

A space is a ground schema, an optional carrier restricting it to a
definable subset, and one rule per region of points.  The rule's
template gives the vicinity ``T_x(k)`` as a symbolic set in the point's
coordinates and the shrink parameter ``k``; the filter of vicinities at
``x`` is generated by the decreasing family ``T_x(0) ⊇ T_x(1) ⊇ ...``.
Build through :func:`build_symbolic`, which checks coverage exactly and
the pointwise axioms on a window large enough to be conclusive for
unit-slope templates.
"""

from __future__ import annotations

import re
from functools import lru_cache

from ..defsets import DefSet, GroundSchema, Point
from ..errors import (
    NonMonotoneRule,
    PatternGap,
    PatternOverlap,
    SelfMembershipViolation,
    UnknownBuiltin,
    UnknownPoint,
    WindowTooSmall,
)
from ..finite import FinitePretop
from ..intervals import INF, NEG_INF, INTEGERS, NATURALS0, NATURALS1, AxisDomain, IntervalSet
from ..record import record
from .exprs import SymDefSet, defset_bound, var


@record
class PointPattern:
    """Region of points one rule is responsible for.

    For a ray strand the region is cut out by ``rows``; for a grid
    strand by ``rows`` x ``cols``.  The template may mention the point's
    coordinates as ``n`` (ray position or grid row) and ``m`` (grid
    column).
    """

    strand: str
    kind: str  # "atom" | "ray" | "grid"
    rows: IntervalSet | None = None
    cols: IntervalSet | None = None

    @classmethod
    def atom(cls, name: str) -> "PointPattern":
        return cls(name, "atom")

    @classmethod
    def ray(cls, name: str, rows: IntervalSet | None = None) -> "PointPattern":
        return cls(name, "ray", rows)

    @classmethod
    def grid(cls, name: str, rows: IntervalSet | None = None, cols: IntervalSet | None = None) -> "PointPattern":
        return cls(name, "grid", rows, cols)

    @property
    def vars(self) -> tuple:
        if self.kind == "atom":
            return ()
        if self.kind == "ray":
            return ("n",)
        return ("n", "m")

    def selectors(self, schema: GroundSchema) -> tuple:
        """Concrete (rows, cols) selectors with defaults filled in."""
        if self.kind == "atom":
            return ()
        if self.kind == "ray":
            ax = schema.ray_axis(self.strand)
            return (self.rows if self.rows is not None else IntervalSet.full(ax),)
        rows_ax, cols_ax = schema.grid_axes(self.strand)
        return (
            self.rows if self.rows is not None else IntervalSet.full(rows_ax),
            self.cols if self.cols is not None else IntervalSet.full(cols_ax),
        )

    def to_defset(self, schema: GroundSchema) -> DefSet:
        if self.kind == "atom":
            return DefSet.build(schema, atoms=[self.strand])
        if self.kind == "ray":
            (rows,) = self.selectors(schema)
            return DefSet.build(schema, ray_parts={self.strand: rows})
        rows, cols = self.selectors(schema)
        return DefSet.build(schema, grid_rects={self.strand: [(rows, cols)]})

    def matches(self, schema: GroundSchema, p: Point) -> bool:
        if p.strand != self.strand:
            return False
        return p in self.to_defset(schema)

    def env_for(self, p: Point) -> dict:
        return dict(zip(self.vars, p.coords))

    @property
    def bound(self) -> int:
        b = 0
        for s in (self.rows, self.cols):
            if s is not None:
                b = max(b, s.max_finite_endpoint())
        return b

    def describe(self) -> str:
        if self.kind == "atom":
            return f"atom {self.strand}"
        sel = []
        if self.rows is not None:
            sel.append(f"rows {self.rows.describe()}")
        if self.cols is not None:
            sel.append(f"cols {self.cols.describe()}")
        where = "; ".join(sel) or "all"
        return f"{self.kind} {self.strand} ({where})"


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
        return self.template_at(p).evaluate({"k": k})

    def describe(self) -> str:
        strands = list(self.schema.atoms)
        strands += [f"{n}:{ax.describe()}" for n, ax in self.schema.rays]
        strands += [f"{n}:{r.describe()}x{c.describe()}" for n, r, c in self.schema.grids]
        head = self.label or "symbolic space"
        lines = [f"{head} [{', '.join(strands)}]"]
        for r in self.rules:
            lines.append("  " + r.describe())
        if self.carrier is not None:
            lines.append(f"  carrier: {self.carrier.describe()}")
        return "\n".join(lines)


def validation_window(bound: int) -> int:
    """Sampling radius for the checks that still sample points: rule
    validation in :func:`build_symbolic`, the decreasing check of a
    filter family, and map validation and continuity in
    :mod:`~pretop.symbolic.maps`, whose scaled strands fall outside
    unit-slope constraints.

    Violations of the pointwise axioms are satisfiability questions for
    difference constraints over the coordinates and the parameter, and
    integer difference systems that are satisfiable at all are
    satisfiable within a few times their largest constant.
    """
    return 6 * bound + 12


def _axis_samples(axis: AxisDomain, selector: IntervalSet, w: int) -> list:
    lo = -w if axis.kind == "int" else axis.low
    return [x for x in range(lo, w + 1) if x in selector]


def rule_points(schema: GroundSchema, rule: VicinityRule, carrier: DefSet | None, w: int):
    """Sample points covered by the rule, paired with variable bindings."""
    pat = rule.pattern
    if pat.kind == "atom":
        pts = [(Point.atom(pat.strand), {})]
    elif pat.kind == "ray":
        (rows,) = pat.selectors(schema)
        ax = schema.ray_axis(pat.strand)
        pts = [(Point.ray(pat.strand, n), {"n": n}) for n in _axis_samples(ax, rows, w)]
    else:
        rows, cols = pat.selectors(schema)
        rows_ax, cols_ax = schema.grid_axes(pat.strand)
        pts = [
            (Point.grid(pat.strand, n, m), {"n": n, "m": m})
            for n in _axis_samples(rows_ax, rows, w)
            for m in _axis_samples(cols_ax, cols, w)
        ]
    if carrier is not None:
        pts = [(p, env) for p, env in pts if p in carrier]
    return pts


def _check_rule(schema: GroundSchema, rule: VicinityRule, carrier: DefSet | None, w: int):
    template = rule.template if carrier is None else rule.template.with_mask(carrier)
    k_dependent = "k" in template.vars
    ks = range(w + 1) if k_dependent else (0,)
    for p, env in rule_points(schema, rule, carrier, w):
        t = template.substitute(env)
        prev = None
        for k in ks:
            cur = t.evaluate({"k": k})
            if p not in cur:
                raise SelfMembershipViolation(
                    f"{p.describe()} missing from its own vicinity at k={k}"
                )
            if prev is not None and not cur.subset_of(prev):
                raise NonMonotoneRule(
                    f"vicinity of {p.describe()} grows from k={k - 1} to k={k}"
                )
            prev = cur


def build_symbolic(
    schema: GroundSchema,
    rules,
    topological: bool = False,
    carrier: DefSet | None = None,
    label: str = "",
) -> SymbolicPretop:
    """Validate rules against a schema and assemble the space.

    Coverage and disjointness of the patterns are decided exactly on the
    definable algebra; self-membership and shrinking of the templates
    are decided by sampling a window wide enough for unit-slope
    endpoints.
    """
    rules = tuple(rules)
    carrier_set = DefSet.full(schema) if carrier is None else carrier
    masked = [r.pattern.to_defset(schema) & carrier_set for r in rules]
    union = DefSet.empty(schema)
    for i, d in enumerate(masked):
        overlap = union & d
        if not overlap.is_empty():
            raise PatternOverlap(
                f"rule {i} claims already-covered points: {overlap.describe()}"
            )
        union = union | d
    gap = carrier_set - union
    if not gap.is_empty():
        raise PatternGap(f"no rule covers {gap.describe()}")

    b = max((r.bound for r in rules), default=0)
    if carrier is not None:
        b = max(b, defset_bound(carrier))
    w = validation_window(b)
    out_rules = []
    for r in rules:
        _check_rule(schema, r, carrier, w)
        template = r.template if carrier is None else r.template.with_mask(carrier)
        out_rules.append(VicinityRule(r.pattern, template))
    return SymbolicPretop(schema, tuple(out_rules), topological, carrier, label)


# -- built-in spaces ---------------------------------------------------------

_K = var("k")
_N = var("n")
_M = var("m")


def _urysohn() -> SymbolicPretop:
    schema = GroundSchema(atoms=("pinf", "minf"), grids=(("G", NATURALS1, INTEGERS),))
    nonzero = IntervalSet.from_pairs(INTEGERS, [(NEG_INF, -1), (1, INF)])
    zero = IntervalSet.single(INTEGERS, 0)
    rules = (
        VicinityRule(
            PointPattern.grid("G", cols=nonzero),
            SymDefSet.assemble(schema, grid_rects={"G": [(_N, _N, _M, _M)]}),
        ),
        VicinityRule(
            PointPattern.grid("G", cols=zero),
            SymDefSet.assemble(
                schema,
                grid_rects={
                    "G": [
                        (_N, _N, 0, 0),
                        (_N, _N, _K + 1, INF),
                        (_N, _N, NEG_INF, -_K - 1),
                    ]
                },
            ),
        ),
        VicinityRule(
            PointPattern.atom("pinf"),
            SymDefSet.assemble(schema, atoms=["pinf"], grid_rects={"G": [(_K + 1, INF, 1, INF)]}),
        ),
        VicinityRule(
            PointPattern.atom("minf"),
            SymDefSet.assemble(schema, atoms=["minf"], grid_rects={"G": [(_K + 1, INF, NEG_INF, -1)]}),
        ),
    )
    return build_symbolic(schema, rules, topological=True, label="urysohn")


def _half_grid() -> SymbolicPretop:
    schema = GroundSchema(atoms=("pinf",), grids=(("G", NATURALS1, NATURALS0),))
    positive = IntervalSet.at_least(NATURALS0, 1)
    zero = IntervalSet.single(NATURALS0, 0)
    rules = (
        VicinityRule(
            PointPattern.grid("G", cols=positive),
            SymDefSet.assemble(schema, grid_rects={"G": [(_N, _N, _M, _M)]}),
        ),
        VicinityRule(
            PointPattern.grid("G", cols=zero),
            SymDefSet.assemble(schema, grid_rects={"G": [(_N, _N, 0, 0), (_N, _N, _K + 1, INF)]}),
        ),
        VicinityRule(
            PointPattern.atom("pinf"),
            SymDefSet.assemble(schema, atoms=["pinf"], grid_rects={"G": [(_K + 1, INF, 1, INF)]}),
        ),
    )
    return build_symbolic(schema, rules, topological=True, label="half_grid")


def _discrete_ray(count: int) -> SymbolicPretop:
    if count < 1:
        raise UnknownBuiltin(f"discrete_ray needs at least one strand, got {count}")
    schema = GroundSchema(rays=tuple((f"R{i}", NATURALS0) for i in range(1, count + 1)))
    rules = tuple(
        VicinityRule(
            PointPattern.ray(name),
            SymDefSet.assemble(schema, ray_parts={name: [(_N, _N)]}),
        )
        for name, _ in schema.rays
    )
    return build_symbolic(schema, rules, topological=True, label=f"discrete_ray({count})")


@lru_cache(maxsize=None)
def builtin(name: str) -> SymbolicPretop:
    """Named example space; see the module docstring for the catalogue."""
    if name == "urysohn":
        return _urysohn()
    if name == "half_grid":
        return _half_grid()
    m = re.fullmatch(r"discrete_ray\((\d+)\)", name)
    if m:
        return _discrete_ray(int(m.group(1)))
    raise UnknownBuiltin(f"no builtin named {name!r}")


# -- truncation --------------------------------------------------------------

def box_points(x: SymbolicPretop, window: int) -> list:
    """Points of the finite box of radius ``window``, in a stable order."""
    pts = []
    for a in x.schema.atoms:
        pts.append(Point.atom(a))
    for name, ax in x.schema.rays:
        for i in range(-window if ax.kind == "int" else ax.low, window + 1):
            pts.append(Point.ray(name, i))
    for name, rows_ax, cols_ax in x.schema.grids:
        r_lo = -window if rows_ax.kind == "int" else rows_ax.low
        c_lo = -window if cols_ax.kind == "int" else cols_ax.low
        for r in range(r_lo, window + 1):
            for c in range(c_lo, window + 1):
                pts.append(Point.grid(name, r, c))
    if x.carrier is not None:
        pts = [p for p in pts if p in x.carrier]
    return pts


def _point_name(p: Point) -> str:
    if not p.coords:
        return p.strand
    return f"{p.strand}({','.join(str(c) for c in p.coords)})"


def truncate(x: SymbolicPretop, window: int) -> FinitePretop:
    """Finite snapshot: box of radius ``window`` with kernels ``T_p(window)``.

    Faithful in the sense that a point whose template at parameter
    ``window`` lies inside the box keeps its exact least vicinity; for
    the others the kernel is the template clipped to the box.  The
    window must clear every rule constant with one step to spare.
    """
    b = x.bound
    if window < b + 2:
        raise WindowTooSmall(f"window {window} below rule constants, need at least {b + 2}")
    pts = box_points(x, window)
    index = {(p.strand, p.coords): i for i, p in enumerate(pts)}
    kernels = tuple(_box_mask(x.vicinity(p, window), index, window) for p in pts)
    return FinitePretop(tuple(_point_name(p) for p in pts), kernels)


def _box_mask(v: DefSet, index: dict, window: int) -> int:
    """Bits of the box points in ``v``: each part of ``v``, clipped to the
    radius ``window``, is looked up point by point in ``index``, which holds
    the box points inside the carrier.  Canonical parts are disjoint, so
    no bit is added twice."""

    def clipped(s: IntervalSet) -> list:
        return [i for lo, hi in s.parts for i in range(max(lo, -window), min(hi, window) + 1)]

    keys = [(a, ()) for a in v.atoms]
    keys += [(name, (i,)) for name, s in v.rays for i in clipped(s)]
    keys += [
        (name, (r, c))
        for name, groups in v.grids
        for rows, cols in groups
        for r in clipped(rows)
        for c in clipped(cols)
    ]
    return sum(1 << index[key] for key in keys if key in index)
