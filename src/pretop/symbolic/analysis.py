"""Exact analysis of rule spaces: adherence, ends, compactness, separation.

Pointwise questions (is this point in the adherence, does this filter
mesh that trace, do these two points keep meeting) reduce to Boolean
combinations of interval overlap facts whose endpoints are affine with
slope +1 or -1 in the coordinates and parameters.  A parameter that only
shrinks the family is resolved by its eventual truth, which is the
answer to the universal question because the family is decreasing.
Every remaining comparison has the form ``±x ± y <= c`` (UTVPI): one
variable gives a bound, and a conjunction of bounds is a box; two
variables, as when Hausdorff separation names both points of a pair,
give a system decided exactly by tight integer closure (Lahiri &
Musuvathi, FroCoS 2005; Bagnara, Hill & Zaffanella, 2008-09).  A
witness fixes its variables in a stated order, each to the feasible
value nearest 0.  Whole-family questions (replace every template by its
adherence, classify the limits of a parametric end) are answered by
sampling exact windows with consensus guards and refitting the results
into the endpoint language, splitting the coordinate range when no
single formula covers it.  When a result cannot be expressed exactly
the functions raise :class:`~pretop.errors.FragmentEscape` rather than
approximate.
"""

from __future__ import annotations

from functools import lru_cache

from ..defsets import DefSet, GroundSchema, Point
from ..errors import (
    EmptyKernel,
    EmptySubspace,
    FragmentEscape,
    InvalidTopology,
    NonMonotoneRule,
    SchemaMismatch,
    UnknownPoint,
)
from ..finite import Verdict
from ..intervals import INF, NEG_INF, NATURALS0, AxisDomain, IntervalSet
from ..record import record
from .exprs import (
    SymDefSet,
    SymExpr,
    SymInterval,
    SymIntervalSet,
    as_endpoint,
    pieces_meet,
    var,
)
from .solve import GUARD_OFFSETS, fit_defsets, solve_axis
from .space import PointPattern, SymbolicPretop, VicinityRule, validation_window

_B = var("b")
_P = var("p")


def _check_schema(x: SymbolicPretop, d: DefSet):
    if d.schema != x.schema:
        raise SchemaMismatch("set uses a different ground schema than the space")


def _point_of(pat: PointPattern, env: dict) -> Point:
    if pat.kind == "atom":
        return Point.atom(pat.strand)
    if pat.kind == "ray":
        return Point.ray(pat.strand, env["n"])
    return Point.grid(pat.strand, env["n"], env["m"])


# -- eventual truth of endpoint comparisons ------------------------------------

_LIMITS_K = frozenset(("k",))
_LIMITS_KB = frozenset(("k", "b"))


def _le(e1, e2, limits: frozenset):
    """Truth of ``e1 <= e2``, eventual in the limit variables.

    Endpoints are infinities, constants, or unit-slope expressions.  A
    variable named in ``limits`` is resolved by its behaviour at large
    values; two such variables racing upward together have no eventual
    order and leave the fragment.  The result is True, False, a
    (var, lo, hi) constraint on one free variable, or, for a comparison
    tying two distinct free variables, the UTVPI constraint
    (a, x, b, y, c) stating ``a*x + b*y <= c`` with unit signs a, b.
    """
    if isinstance(e1, float):
        return True if e1 == NEG_INF else (isinstance(e2, float) and e2 == INF)
    if isinstance(e2, float):
        return e2 == INF
    l1, l2 = e1.var in limits, e2.var in limits
    if l1 and l2:
        if e1.var == e2.var and e1.sign == e2.sign:
            return e1.offset <= e2.offset
        if e1.sign != e2.sign:
            return e1.sign < 0
        raise FragmentEscape(f"limit parameters {e1.var} and {e2.var} race")
    if l1:
        return e1.sign < 0
    if l2:
        return e2.sign > 0
    if e1.var is None and e2.var is None:
        return e1.offset <= e2.offset
    if e1.var is None:
        if e2.sign > 0:
            return (e2.var, e1.offset - e2.offset, INF)
        return (e2.var, NEG_INF, e2.offset - e1.offset)
    if e2.var is None:
        if e1.sign > 0:
            return (e1.var, NEG_INF, e2.offset - e1.offset)
        return (e1.var, e1.offset - e2.offset, INF)
    if e1.var != e2.var:
        return (e1.sign, e1.var, -e2.sign, e2.var, e2.offset - e1.offset)
    if e1.sign == e2.sign:
        return e1.offset <= e2.offset
    if e1.sign > 0:
        return (e1.var, NEG_INF, (e2.offset - e1.offset) // 2)
    return (e1.var, -((e2.offset - e1.offset) // 2), INF)


def _conjoin(conds, limits: frozenset):
    """Free-variable values satisfying every comparison, or None.

    Unary bounds intersect into a box ``{var: (lo, hi)}``, which is its
    own closure and is returned as is.  When comparisons tie two
    variables, the system goes through tight integer closure, which
    decides it exactly, and comes back as (tight box, ties).
    """
    box, ties = {}, []
    for e1, e2 in conds:
        got = _le(e1, e2, limits)
        if got is True:
            continue
        if got is False:
            return None
        if len(got) == 5:
            ties.append(got)
            continue
        name, lo, hi = got
        plo, phi = box.get(name, (NEG_INF, INF))
        lo, hi = max(lo, plo), min(hi, phi)
        if lo > hi:
            return None
        box[name] = (lo, hi)
    if not ties:
        return box
    box = _tight_box(box, ties)
    return None if box is None else (box, tuple(ties))


def _tight_box(box: dict, ties) -> dict | None:
    """Bounds of every variable after tight integer closure of a UTVPI
    system (Bagnara, Hill & Zaffanella), or None when it has no integer
    solution.

    Node 2i stands for +x_i and node 2i+1 for -x_i; ``m[u][v]`` bounds
    value(v) - value(u).  Shortest paths, then rounding each bound
    ``2x <= c`` down to an even ``c``, decide the system, and every
    integer inside the resulting bounds of a variable extends to a
    solution.
    """
    names = sorted(set(box).union(*((t[1], t[3]) for t in ties)))
    at = {v: 2 * i for i, v in enumerate(names)}
    size = 2 * len(names)
    m = [[0 if u == v else INF for v in range(size)] for u in range(size)]
    for name, (lo, hi) in box.items():
        u = at[name]
        m[u + 1][u], m[u][u + 1] = 2 * hi, -2 * lo
    for a, x, b, y, c in ties:
        p, q = at[x] + (a < 0), at[y] + (b > 0)
        m[q][p] = min(m[q][p], c)
        m[p ^ 1][q ^ 1] = min(m[p ^ 1][q ^ 1], c)
    for w in range(size):
        for mu in m:
            if mu[w] != INF:
                for v in range(size):
                    mu[v] = min(mu[v], mu[w] + m[w][v])
    if any(m[u][u] < 0 for u in range(size)):
        return None
    half = [INF if m[u][u ^ 1] == INF else m[u][u ^ 1] // 2 for u in range(size)]
    if any(half[u] + half[u ^ 1] < 0 for u in range(size)):
        return None
    return {v: (-half[at[v]], half[at[v] + 1]) for v in names}


def _solution(system, names) -> dict:
    """Integer point of a satisfiable system, fixing each of ``names`` in
    turn to its feasible value nearest 0."""
    box, ties = (system, ()) if isinstance(system, dict) else system
    env = {}
    for name in names:
        lo, hi = box.get(name, (NEG_INF, INF))
        env[name] = min(max(0, lo), hi)
        box = _tight_box({**box, name: (env[name], env[name])}, ties)
    return env


def _overlap_conds(intervals, low):
    """Comparisons stating the intervals share a point on their axis.

    A common point exists when every lower endpoint sits at or below
    every upper endpoint; the axis floor (None on a two-sided axis)
    joins as one more lower endpoint so that clipping needs no cases.
    """
    los = [lo for lo, _ in intervals]
    his = [hi for _, hi in intervals]
    if low is not None:
        los.append(SymExpr.const(low))
    return [(lo, hi) for lo in los for hi in his]


def _ray_factors(mask, name: str) -> tuple:
    """Per-part concrete factors a mask contributes on a ray strand."""
    if mask is None:
        return ([],)
    return tuple(
        [(as_endpoint(lo), as_endpoint(hi))] for lo, hi in mask.ray_part(name).parts
    )


def _grid_factors(mask, name: str) -> tuple:
    """Per-rectangle (row factor, column factor) pairs of a grid mask."""
    if mask is None:
        return (([], []),)
    out = []
    for rows, cols in mask.grid_part(name):
        for rlo, rhi in rows.parts:
            for clo, chi in cols.parts:
                out.append(
                    (
                        [(as_endpoint(rlo), as_endpoint(rhi))],
                        [(as_endpoint(clo), as_endpoint(chi))],
                    )
                )
    return tuple(out)


def _meet_conds(left: SymDefSet, right: SymDefSet):
    """Comparison lists, one per pair of pieces of the two sets, each
    stating that the sets share a point in those pieces."""
    schema = left.schema
    la = left.atoms if left.mask is None else left.atoms & left.mask.atoms
    ra = right.atoms if right.mask is None else right.atoms & right.mask.atoms
    if la & ra:
        yield []
    rrays = dict(right.rays)
    for name, s1 in left.rays:
        s2 = rrays.get(name)
        if s2 is None or not s2.parts or not s1.parts:
            continue
        axis = schema.ray_axis(name)
        low = axis.low if axis.kind == "nat" else None
        for p1 in s1.parts:
            for p2 in s2.parts:
                for m1 in _ray_factors(left.mask, name):
                    for m2 in _ray_factors(right.mask, name):
                        items = [(p1.lo, p1.hi), (p2.lo, p2.hi)] + m1 + m2
                        yield _overlap_conds(items, low)
    rgrids = dict(right.grids)
    for name, rects1 in left.grids:
        rects2 = rgrids.get(name, ())
        if not rects1 or not rects2:
            continue
        rows_ax, cols_ax = schema.grid_axes(name)
        rlow = rows_ax.low if rows_ax.kind == "nat" else None
        clow = cols_ax.low if cols_ax.kind == "nat" else None
        for rows1, cols1 in rects1:
            for rows2, cols2 in rects2:
                for mr1, mc1 in _grid_factors(left.mask, name):
                    for mr2, mc2 in _grid_factors(right.mask, name):
                        for rp1 in rows1.parts:
                            for rp2 in rows2.parts:
                                ritems = [(rp1.lo, rp1.hi), (rp2.lo, rp2.hi)] + mr1 + mr2
                                rconds = _overlap_conds(ritems, rlow)
                                for cp1 in cols1.parts:
                                    for cp2 in cols2.parts:
                                        citems = [(cp1.lo, cp1.hi), (cp2.lo, cp2.hi)] + mc1 + mc2
                                        yield rconds + _overlap_conds(citems, clow)


def _meets_boxes(left: SymDefSet, right: SymDefSet, limits: frozenset, extra=([],)) -> list:
    """Satisfiable free-variable systems on which the two sets share a
    point, in :func:`_meet_conds` order.

    Each piece pair's comparisons are conjoined with each list in
    ``extra`` in turn.  The answer is eventual in the limit variables,
    which is the value of the universal question for families
    decreasing in them.  An empty box holds unconditionally; no systems
    means never.
    """
    out = []
    for conds in _meet_conds(left, right):
        for more in extra:
            system = _conjoin(conds + more, limits)
            if system is not None:
                out.append(system)
    return out


def _box_interval(box, name: str, axis: AxisDomain) -> IntervalSet:
    if isinstance(box, tuple):
        _, ties = box
        raise FragmentEscape(f"comparison ties {ties[0][1]} to {ties[0][3]}")
    lo, hi = box.get(name, (NEG_INF, INF))
    return IntervalSet.from_pairs(axis, [(lo, hi)])


def _boxes_interval(boxes, name: str, axis: AxisDomain) -> IntervalSet:
    out = IntervalSet.empty(axis)
    for box in boxes:
        out = out | _box_interval(box, name, axis)
    return out


def _boxes_region(x: SymbolicPretop, pat: PointPattern, boxes) -> DefSet:
    """Region of the pattern's points selected by coordinate boxes."""
    schema = x.schema
    if not boxes:
        return DefSet.empty(schema)
    if pat.kind == "atom":
        region = DefSet.build(schema, atoms=[pat.strand])
    elif pat.kind == "ray":
        axis = schema.ray_axis(pat.strand)
        region = DefSet.build(
            schema, ray_parts={pat.strand: _boxes_interval(boxes, "n", axis)}
        )
    else:
        rows_ax, cols_ax = schema.grid_axes(pat.strand)
        groups = [
            (_box_interval(b, "n", rows_ax), _box_interval(b, "m", cols_ax)) for b in boxes
        ]
        region = DefSet.build(schema, grid_rects={pat.strand: groups})
    return region & pat.to_defset(schema)


# -- adherence and inherence --------------------------------------------------

def sym_adh(x: SymbolicPretop, s: DefSet) -> DefSet:
    """Points whose every vicinity meets ``s``."""
    _check_schema(x, s)
    if s.is_empty():
        return s
    right = SymDefSet.from_defset(s)
    out = DefSet.empty(x.schema)
    for rule in x.rules:
        boxes = _meets_boxes(rule.template, right, _LIMITS_K)
        out = out | _boxes_region(x, rule.pattern, boxes)
    return out if x.carrier is None else out & x.carrier


def sym_inh(x: SymbolicPretop, s: DefSet) -> DefSet:
    """Points with some vicinity inside ``s``."""
    _check_schema(x, s)
    right = SymDefSet.from_defset(DefSet.full(x.schema) - s)
    out = DefSet.empty(x.schema)
    for rule in x.rules:
        boxes = _meets_boxes(rule.template, right, _LIMITS_K)
        out = out | (rule.pattern.to_defset(x.schema) - _boxes_region(x, rule.pattern, boxes))
    return out if x.carrier is None else out & x.carrier


def _membership_region(x: SymbolicPretop, left: SymDefSet) -> DefSet:
    """Carrier points lying in the set at every parameter value.

    Probes each strand with a variable singleton; sound because the
    probed set only uses the parameter variables, never ``n`` or ``m``.
    """
    schema = x.schema
    atoms = left.atoms if left.mask is None else left.atoms & left.mask.atoms
    ray_parts = {}
    for name, ax in schema.rays:
        probe = SymDefSet.assemble(schema, ray_parts={name: [(var("n"), var("n"))]})
        ray_parts[name] = _boxes_interval(_meets_boxes(left, probe, _LIMITS_K), "n", ax)
    grid_rects = {}
    for name, rows_ax, cols_ax in schema.grids:
        probe = SymDefSet.assemble(
            schema, grid_rects={name: [(var("n"), var("n"), var("m"), var("m"))]}
        )
        grid_rects[name] = [
            (_box_interval(b, "n", rows_ax), _box_interval(b, "m", cols_ax))
            for b in _meets_boxes(left, probe, _LIMITS_K)
        ]
    out = DefSet.build(schema, atoms, ray_parts, grid_rects)
    return out if x.carrier is None else out & x.carrier


def vicinity_core(x: SymbolicPretop, p: Point) -> DefSet:
    """Points lying in every vicinity of ``p``."""
    return _membership_region(x, x.template_at(p))


# -- refitting families of concrete answers into templates --------------------

@record
class _FitAxis:
    name: str
    axis: AxisDomain
    selector: IntervalSet


def _sweep_values(v: _FitAxis, span: int) -> tuple:
    """Core sampling positions along one variable, plus outside guards."""
    if v.axis.kind == "nat":
        lo, hi = v.axis.low, v.axis.low + 2 * span
    else:
        lo, hi = -span, span
    core = [t for t in range(lo, hi + 1) if t in v.selector]
    guards = []
    if core:
        top = core[-1]
        guards += [top + g for g in GUARD_OFFSETS if top + g in v.selector]
        if v.axis.kind == "int":
            bottom = core[0]
            guards += [bottom - g for g in GUARD_OFFSETS if bottom - g in v.selector]
    return core, guards


def _merge_endpoint(base_value, fitted):
    if isinstance(base_value, float):
        return base_value
    dep = [e for e in fitted if not isinstance(e, float) and e.var is not None]
    if not dep:
        return SymExpr.const(base_value)
    if len(dep) > 1:
        return None
    return dep[0]


def _merge_sets(axis: AxisDomain, base: IntervalSet, fitted) -> SymIntervalSet | None:
    n = len(base.parts)
    if any(len(f.parts) != n for f in fitted):
        return None
    pieces = []
    for i, (blo, bhi) in enumerate(base.parts):
        lo = _merge_endpoint(blo, [f.parts[i].lo for f in fitted])
        hi = _merge_endpoint(bhi, [f.parts[i].hi for f in fitted])
        if lo is None or hi is None:
            return None
        pieces.append(SymInterval(lo, hi))
    return SymIntervalSet(axis, tuple(pieces))


def _merge_fits(schema: GroundSchema, base: DefSet, fits) -> SymDefSet | None:
    """Combine per-variable fits into one template.

    Each endpoint may depend on at most one variable; the per-variable
    fits tell which one, and any disagreement or cross dependence means
    the family is outside the endpoint language.
    """
    for f in fits:
        if f.atoms != base.atoms:
            return None
    rays = []
    for idx, (name, s) in enumerate(base.rays):
        fitted = _merge_sets(schema.ray_axis(name), s, [f.rays[idx][1] for f in fits])
        if fitted is None:
            return None
        rays.append((name, fitted))
    grids = []
    for idx, (name, groups) in enumerate(base.grids):
        rows_ax, cols_ax = schema.grid_axes(name)
        if any(len(f.grids[idx][1]) != len(groups) for f in fits):
            return None
        rects = []
        for g, (rows, cols) in enumerate(groups):
            frows = _merge_sets(rows_ax, rows, [f.grids[idx][1][g][0] for f in fits])
            fcols = _merge_sets(cols_ax, cols, [f.grids[idx][1][g][1] for f in fits])
            if frows is None or fcols is None:
                return None
            rects.append((frows, fcols))
        grids.append((name, tuple(rects)))
    return SymDefSet(schema, base.atoms, tuple(rays), tuple(grids), None)


def _joint_probes(fit_vars, vals, guards):
    if len(fit_vars) < 2:
        return []

    def stagger(v, i):
        pool = vals[v.name][1:] + guards[v.name]
        return pool[min(i, len(pool) - 1)] if pool else vals[v.name][0]

    return [
        {v.name: vals[v.name][-1] for v in fit_vars},
        {v.name: (guards[v.name][-1] if guards[v.name] else vals[v.name][-1]) for v in fit_vars},
        {v.name: stagger(v, 2 * i + 1) for i, v in enumerate(fit_vars)},
    ]


def _fit_uniform(schema: GroundSchema, fit_vars, compute, span: int) -> SymDefSet | None:
    vals, guards = {}, {}
    for v in fit_vars:
        c, g = _sweep_values(v, span)
        if not c:
            return None
        vals[v.name], guards[v.name] = c, g
    base_env = {name: c[0] for name, c in vals.items()}
    base = compute(base_env)
    fits = []
    for v in fit_vars:
        fam = [(t, compute({**base_env, v.name: t})) for t in vals[v.name]]
        if len(fam) == 1:
            fitted = SymDefSet.from_defset(fam[0][1])
        else:
            fitted = fit_defsets(v.name, fam)
        if fitted is None:
            return None
        for g in guards[v.name]:
            if fitted.evaluate({v.name: g}) != compute({**base_env, v.name: g}):
                return None
        fits.append(fitted)
    merged = _merge_fits(schema, base, fits)
    if merged is None:
        return None
    for env in _joint_probes(fit_vars, vals, guards):
        if merged.evaluate(env) != compute(env):
            return None
    return merged


def _fit_over_pattern(x: SymbolicPretop, rule: VicinityRule, compute, with_k: bool) -> tuple:
    """Fit a family of concrete answers over a rule's region.

    Returns (pattern, template) pairs that cover the region.  A failed
    uniform fit first retries with the parameter rebased past its early
    values (legal: a cofinal decreasing subfamily generates the same
    filter), then splits the first coordinate whose range admits more
    than one value; a split coordinate range that still fails is
    outside the fragment.
    """
    schema = x.schema
    span = 2 * x.bound + 6
    pat = rule.pattern
    axes = []
    if pat.kind == "ray":
        axes.append(("n", schema.ray_axis(pat.strand)))
    elif pat.kind == "grid":
        rows_ax, cols_ax = schema.grid_axes(pat.strand)
        axes.append(("n", rows_ax))
        axes.append(("m", cols_ax))
    selectors = dict(zip((n for n, _ in axes), pat.selectors(schema)))
    cache = {}

    def cached(env):
        key = tuple(sorted(env.items()))
        if key not in cache:
            cache[key] = compute(env)
        return cache[key]

    def attempt(sel_map):
        fit_vars = [_FitAxis(name, ax, sel_map[name]) for name, ax in axes]
        if with_k:
            fit_vars.append(_FitAxis("k", NATURALS0, IntervalSet.full(NATURALS0)))
        t = _fit_uniform(schema, fit_vars, cached, span)
        if t is None and with_k:
            rebased = fit_vars[:-1] + [
                _FitAxis("k", NATURALS0, IntervalSet.at_least(NATURALS0, span + 1))
            ]
            t = _fit_uniform(schema, rebased, cached, span)
            if t is not None:
                t = t.shift_var("k", span + 1)
        return t

    def subpattern(sel_map):
        if pat.kind == "atom":
            return pat
        if pat.kind == "ray":
            return PointPattern.ray(pat.strand, sel_map["n"])
        return PointPattern.grid(pat.strand, sel_map["n"], sel_map["m"])

    def go(sel_map, depth):
        t = attempt(sel_map)
        if t is not None:
            return [(subpattern(sel_map), t)]
        for name, ax in axes:
            sel = sel_map[name]
            if sel.cardinality() == 1:
                continue
            if depth.get(name, 0) >= 2:
                break
            core, _ = _sweep_values(_FitAxis(name, ax, sel), span)
            covered = IntervalSet.from_pairs(ax, [(t0, t0) for t0 in core])
            out = []
            for t0 in core:
                out += go({**sel_map, name: IntervalSet.single(ax, t0)}, depth)
            rest = sel - covered
            for lo, hi in rest.parts:
                part = IntervalSet.from_pairs(ax, [(lo, hi)])
                out += go({**sel_map, name: part}, {**depth, name: depth.get(name, 0) + 1})
            return out
        raise FragmentEscape(
            f"adherence family of rule [{rule.pattern.describe()}] leaves the endpoint language"
        )

    return tuple(go(selectors, {}))


# -- regularization and theta closure -----------------------------------------

@lru_cache(maxsize=None)
def sym_regularize(x: SymbolicPretop) -> SymbolicPretop:
    """Space with every vicinity template replaced by its adherence.

    The output is assembled directly: adherence is monotone, so the new
    templates shrink, and each point stays inside the adherence of its
    own vicinity, so the pointwise axioms cannot break.
    """
    carrier = x.carrier
    new_rules = []
    for rule in x.rules:
        if carrier is not None and (rule.pattern.to_defset(x.schema) & carrier).is_empty():
            continue
        with_k = "k" in rule.template.vars

        def compute(env, rule=rule):
            return sym_adh(x, rule.template.evaluate({**env, "k": env.get("k", 0)}))

        for sub_pat, template in _fit_over_pattern(x, rule, compute, with_k):
            new_rules.append(VicinityRule(sub_pat, template.with_mask(carrier)))
    label = f"r({x.label})" if x.label else "regularized"
    return SymbolicPretop(x.schema, tuple(new_rules), False, carrier, label)


def cl_theta(x: SymbolicPretop, s: DefSet, iterations: int = 1) -> DefSet:
    """Iterated closure through the adherence of the regularized space."""
    if not x.topological:
        raise InvalidTopology("theta closure needs the vicinity form of a topology")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    r = sym_regularize(x)
    out = s
    for _ in range(iterations):
        out, prev = sym_adh(r, out), out
        if out == prev:
            break  # every further step would repeat the fixed point
    return out


# -- ends of the carrier -------------------------------------------------------

@record
class EndClass:
    """One direction to infinity on a strand.

    ``row`` and ``col`` are "plus", "minus" or "fixed"; a fixed side is
    parametric until :meth:`pin` gives it a concrete position.
    """

    strand: str
    kind: str  # "ray" | "grid"
    row: str
    col: str | None = None
    fixed: int | None = None

    @property
    def parametric(self) -> bool:
        return "fixed" in (self.row, self.col) and self.fixed is None

    def pin(self, value: int) -> "EndClass":
        return EndClass(self.strand, self.kind, self.row, self.col, value)

    def describe(self) -> str:
        arrow = {"plus": "+", "minus": "-"}
        if self.kind == "ray":
            return f"{self.strand}({arrow[self.row]})"

        def side(status):
            if status == "fixed":
                return "p" if self.fixed is None else str(self.fixed)
            return arrow[status]

        return f"{self.strand}({side(self.row)},{side(self.col)})"


def _sides(ax: AxisDomain) -> tuple:
    return ("plus",) if ax.kind == "nat" else ("plus", "minus")


def _fixed_axis(schema: GroundSchema, e: EndClass) -> AxisDomain:
    rows_ax, cols_ax = schema.grid_axes(e.strand)
    return rows_ax if e.row == "fixed" else cols_ax


def trace_sym(schema: GroundSchema, e: EndClass, mask, param=_B) -> SymDefSet:
    """Base rectangle of the end's trace filter, symbolic in ``b``."""

    def side(status):
        if status == "plus":
            return (param + 1, INF)
        if status == "minus":
            return (NEG_INF, -param - 1)
        return (e.fixed, e.fixed) if e.fixed is not None else (_P, _P)

    if e.kind == "ray":
        return SymDefSet.assemble(schema, ray_parts={e.strand: [side(e.row)]}, mask=mask)
    rl, rh = side(e.row)
    cl, ch = side(e.col)
    return SymDefSet.assemble(schema, grid_rects={e.strand: [(rl, rh, cl, ch)]}, mask=mask)


def _exists_region(x: SymbolicPretop, e: EndClass):
    """Where the end's trace stays inside the carrier: a bool for a
    pinned or coordinate-free class, else the region of parameters."""
    trace = trace_sym(x.schema, e, x.carrier)
    boxes = _meets_boxes(trace, SymDefSet.from_defset(DefSet.full(x.schema)), _LIMITS_KB)
    if not e.parametric:
        return bool(boxes)
    return _boxes_interval(boxes, "p", _fixed_axis(x.schema, e))


@lru_cache(maxsize=None)
def ends(x: SymbolicPretop) -> tuple:
    """End classes of the carrier, in schema order.

    Each grid contributes its column ends at a parametric row, its row
    ends at a parametric column, then the corner ends; minus ends only
    exist on two-sided axes.  Classes whose trace leaves the carrier
    are dropped.
    """
    out = []
    for name, ax in x.schema.rays:
        for side in _sides(ax):
            out.append(EndClass(name, "ray", side))
    for name, rows_ax, cols_ax in x.schema.grids:
        for side in _sides(cols_ax):
            out.append(EndClass(name, "grid", "fixed", side))
        for side in _sides(rows_ax):
            out.append(EndClass(name, "grid", side, "fixed"))
        for rside in _sides(rows_ax):
            for cside in _sides(cols_ax):
                out.append(EndClass(name, "grid", rside, cside))
    alive = []
    for e in out:
        ok = _exists_region(x, e)
        if ok is True or (isinstance(ok, IntervalSet) and not ok.is_empty()):
            alive.append(e)
    return tuple(alive)


# -- convergence of end filters -----------------------------------------------

@record
class ParametricAnswer:
    """Family of definable answers indexed by one integer parameter.

    ``regions`` pairs disjoint parameter ranges with answers symbolic
    in ``p``; ``var`` of None means the single answer is uniform.
    """

    var: str | None
    axis: AxisDomain | None
    regions: tuple

    def at(self, value: int | None = None) -> DefSet:
        if self.var is None:
            ((_, sym),) = self.regions
            return sym.evaluate({})
        for sel, sym in self.regions:
            if value in sel:
                return sym.evaluate({self.var: value})
        raise UnknownPoint(f"parameter {value} outside every region")

    def describe(self) -> str:
        if self.var is None:
            return self.regions[0][1].describe()
        bits = [f"{sel.describe()} -> {sym.describe()}" for sel, sym in self.regions]
        return "; ".join(bits)


def _end_limits_at(x: SymbolicPretop, e: EndClass, p) -> DefSet:
    """Points whose every vicinity meets every trace rectangle."""
    trace = trace_sym(x.schema, e, x.carrier)
    if p is not None:
        trace = trace.substitute({"p": p})
    out = DefSet.empty(x.schema)
    for rule in x.rules:
        boxes = _meets_boxes(rule.template, trace, _LIMITS_KB)
        out = out | _boxes_region(x, rule.pattern, boxes)
    return out if x.carrier is None else out & x.carrier


def _greedy_runs(samples: list) -> list:
    """Maximal consecutive runs each covered by one fitted formula."""
    runs = []
    cur = [samples[0]]
    cur_fit = SymDefSet.from_defset(samples[0][1])
    for p, d in samples[1:]:
        trial = fit_defsets("p", cur + [(p, d)])
        if trial is not None:
            cur.append((p, d))
            cur_fit = trial
        else:
            runs.append((cur, cur_fit))
            cur = [(p, d)]
            cur_fit = SymDefSet.from_defset(d)
    runs.append((cur, cur_fit))
    return runs


@lru_cache(maxsize=None)
def end_converges(x: SymbolicPretop, e: EndClass) -> ParametricAnswer:
    """Limit points admitted by the end's trace filter.

    For a parametric class the answer is refitted over the fixed
    coordinate, splitting its range where the limit structure changes;
    tails are certified by guard agreement.
    """
    if not e.parametric:
        limits = _end_limits_at(x, e, None)
        return ParametricAnswer(None, None, ((None, SymDefSet.from_defset(limits)),))
    axis = _fixed_axis(x.schema, e)
    w = 2 * x.bound + 6
    lo = axis.low if axis.kind == "nat" else -w
    samples = [(p, _end_limits_at(x, e, p)) for p in range(lo, w + 1)]
    runs = _greedy_runs(samples)

    def agree(fit, p):
        return fit.evaluate({"p": p}) == _end_limits_at(x, e, p)

    regions = []
    for i, (run, fit) in enumerate(runs):
        plo, phi = run[0][0], run[-1][0]
        if i == len(runs) - 1:
            if not all(agree(fit, phi + g) for g in GUARD_OFFSETS):
                raise FragmentEscape(f"end behaviour not settled above {phi}")
            phi = INF
        if i == 0 and axis.kind == "int":
            if not all(agree(fit, plo - g) for g in GUARD_OFFSETS):
                raise FragmentEscape(f"end behaviour not settled below {plo}")
            plo = NEG_INF
        regions.append((IntervalSet.from_pairs(axis, [(plo, phi)]), fit))
    return ParametricAnswer("p", axis, tuple(regions))


def _sym_is_empty(t: SymDefSet) -> bool:
    return (
        not t.atoms
        and all(not s.parts for _, s in t.rays)
        and all(not rects for _, rects in t.grids)
    )


def noncompact_ends(x: SymbolicPretop):
    """End classes whose trace filter admits no limit point, in ``ends``
    order: ``(e, None)`` for a class without parameter, and ``(e, bad)``
    for each convergence region of a parametric class that diverges on
    the nonempty parameter set ``bad``."""
    for e in ends(x):
        conv = end_converges(x, e)
        if conv.var is None:
            if _sym_is_empty(conv.regions[0][1]):
                yield e, None
            continue
        exists = _exists_region(x, e)
        for sel, sym in conv.regions:
            if _sym_is_empty(sym):
                bad = sel & exists
                if not bad.is_empty():
                    yield e, bad


def sym_is_compact(x: SymbolicPretop) -> Verdict:
    """Whether every end filter of the carrier converges.

    The witness for failure is the first end class, at its least
    parameter value, whose trace filter admits no limit point.
    """
    for e, bad in noncompact_ends(x):
        return Verdict(False, e if bad is None else e.pin(bad.least()))
    return Verdict(True, None)


# -- filters given by definable families ---------------------------------------

@record
class DefFilterBase:
    """Decreasing definable family ``F(0) ⊇ F(1) ⊇ ...`` generating a filter."""

    family: SymDefSet

    def __post_init__(self):
        extra = self.family.vars - {"k"}
        if extra:
            raise ValueError(f"filter family may only use k, found {sorted(extra)}")
        w = validation_window(self.family.bound)
        prev = None
        for k in range(w + 1):
            cur = self.family.evaluate({"k": k})
            if cur.is_empty():
                raise EmptyKernel(f"filter family is empty at k={k}")
            if prev is not None and not cur.subset_of(prev):
                raise NonMonotoneRule(f"filter family grows from k={k - 1} to k={k}")
            prev = cur

    @classmethod
    def principal(cls, d: DefSet) -> "DefFilterBase":
        return cls(SymDefSet.from_defset(d))

    @property
    def schema(self) -> GroundSchema:
        return self.family.schema

    @property
    def bound(self) -> int:
        return self.family.bound

    def at(self, k: int) -> DefSet:
        return self.family.evaluate({"k": k})

    def describe(self) -> str:
        return self.family.describe()


def _filter_core(x: SymbolicPretop, f: DefFilterBase) -> DefSet:
    """Carrier points lying in every member of the family."""
    return _membership_region(x, f.family)


# -- unions swept over definable regions ---------------------------------------

def _sweep_endpoint(e, name: str, vlo, vhi, want_max: bool):
    if isinstance(e, float) or e.var != name:
        return e
    v = (vhi if e.sign > 0 else vlo) if want_max else (vlo if e.sign > 0 else vhi)
    if v == INF:
        return INF if e.sign > 0 else NEG_INF
    if v == NEG_INF:
        return NEG_INF if e.sign > 0 else INF
    return SymExpr.const(e.sign * int(v) + e.offset)


def _sweep_interval(p: SymInterval, ranges: dict) -> SymInterval:
    lo, hi = p.lo, p.hi
    for name, (a, b) in ranges.items():
        lo = _sweep_endpoint(lo, name, a, b, want_max=False)
        hi = _sweep_endpoint(hi, name, a, b, want_max=True)
    return SymInterval(lo, hi)


def _sweep_symdefset(t: SymDefSet, ranges: dict) -> SymDefSet:
    """Union of a template over a box of coordinate values.

    Exact because unit-slope endpoints make consecutive member sets
    overlap or touch, so each piece sweeps to one piece spanned by its
    extremes; a rectangle whose row and column endpoints share a swept
    variable would trace a diagonal, which the fragment cannot hold.
    """
    rays = tuple(
        (n, SymIntervalSet(s.axis, tuple(_sweep_interval(p, ranges) for p in s.parts)))
        for n, s in t.rays
    )
    grids = []
    for n, rects in t.grids:
        swept = []
        for rows, cols in rects:
            shared = rows.vars & cols.vars & set(ranges)
            if shared:
                raise FragmentEscape(
                    f"row and column endpoints share {sorted(shared)}; the swept union is not a box"
                )
            swept.append(
                (
                    SymIntervalSet(rows.axis, tuple(_sweep_interval(p, ranges) for p in rows.parts)),
                    SymIntervalSet(cols.axis, tuple(_sweep_interval(p, ranges) for p in cols.parts)),
                )
            )
        grids.append((n, tuple(swept)))
    return SymDefSet(t.schema, t.atoms, rays, tuple(grids), t.mask)


def _region_boxes(x: SymbolicPretop, pat: PointPattern, s: DefSet):
    """Coordinate boxes of the pattern's region intersected with ``s``."""
    if pat.kind == "atom":
        if pat.strand in s.atoms:
            yield {}
        return
    if pat.kind == "ray":
        (sel,) = pat.selectors(x.schema)
        for lo, hi in (s.ray_part(pat.strand) & sel).parts:
            yield {"n": (lo, hi)}
        return
    rows_sel, cols_sel = pat.selectors(x.schema)
    for rows, cols in s.grid_part(pat.strand):
        rr = rows & rows_sel
        cc = cols & cols_sel
        for rpart in rr.parts:
            for cpart in cc.parts:
                yield {"n": rpart, "m": cpart}


def _vicinity_union(x: SymbolicPretop, s: DefSet) -> SymDefSet:
    """Union of the vicinity templates over the points of ``s``."""
    _check_schema(x, s)
    s = s & x.carrier_set
    atoms = set()
    ray_acc = {name: [] for name, _ in x.schema.rays}
    grid_acc = {name: [] for name, *_ in x.schema.grids}
    for rule in x.rules:
        for ranges in _region_boxes(x, rule.pattern, s):
            swept = _sweep_symdefset(rule.template, ranges)
            atoms |= swept.atoms
            for name, sis in swept.rays:
                ray_acc[name].extend(sis.parts)
            for name, rects in swept.grids:
                grid_acc[name].extend(rects)
    rays = tuple(
        (name, SymIntervalSet(ax, tuple(ray_acc[name]))) for name, ax in x.schema.rays
    )
    grids = tuple((name, tuple(grid_acc[name])) for name, *_ in x.schema.grids)
    return SymDefSet(x.schema, frozenset(atoms), rays, grids, x.carrier)


@lru_cache(maxsize=None)
def _core_templates(x: SymbolicPretop, rule: VicinityRule) -> tuple:
    return _fit_over_pattern(
        x, rule, lambda env: vicinity_core(x, _point_of(rule.pattern, env)), with_k=False
    )


def _core_union(x: SymbolicPretop, a: DefSet) -> DefSet:
    """Union of the vicinity cores over the points of ``a``."""
    a = a & x.carrier_set
    total = DefSet.empty(x.schema)
    for rule in x.rules:
        if x.carrier is not None and (rule.pattern.to_defset(x.schema) & x.carrier).is_empty():
            continue
        for sub_pat, ct in _core_templates(x, rule):
            for ranges in _region_boxes(x, sub_pat, a):
                total = total | _sweep_symdefset(ct, ranges).evaluate({})
    return total


# -- compactness at a set -------------------------------------------------------

def _end_filter(x: SymbolicPretop, e: EndClass) -> DefFilterBase:
    if e.parametric:
        raise ValueError("pin the fixed coordinate of the end class first")
    return DefFilterBase(trace_sym(x.schema, e, x.carrier, param=var("k")))


def _mesh_boxes(x: SymbolicPretop, e: EndClass, f: DefFilterBase) -> list:
    """Boxes over the end's parameter where its trace meshes the family."""
    trace = trace_sym(x.schema, e, x.carrier)
    return _meets_boxes(f.family, trace, _LIMITS_KB)


def sym_compact_at(x: SymbolicPretop, f, a: DefSet) -> Verdict:
    """Whether every filter meshing ``f`` clusters inside ``a``.

    It is enough to check the finest refinements: the point ultrafilters
    over the family core, and the end ultrafilters whose traces mesh the
    family.  The former cluster exactly at points whose vicinity core
    they sit in, the latter exactly at the limit points of their end.
    """
    _check_schema(x, a)
    if isinstance(f, EndClass):
        f = _end_filter(x, f)
    if f.schema != x.schema:
        raise SchemaMismatch("filter family uses a different ground schema than the space")
    a = a & x.carrier_set
    stray = _filter_core(x, f) - _core_union(x, a)
    if not stray.is_empty():
        return Verdict(False, next(stray.iter_sample_points()))
    a_sym = SymDefSet.from_defset(a)
    for e in ends(x):
        boxes = _mesh_boxes(x, e, f)
        if e.parametric:
            axis = _fixed_axis(x.schema, e)
            mesh = _boxes_interval(boxes, "p", axis)
            if mesh.is_empty():
                continue
            conv = end_converges(x, e)
            for sel, sym in conv.regions:
                hood = sel & mesh
                if hood.is_empty():
                    continue
                good = _boxes_interval(
                    _meets_boxes(sym, a_sym, frozenset()), "p", axis
                )
                bad = hood - good
                if not bad.is_empty():
                    return Verdict(False, e.pin(bad.least()))
        else:
            if not boxes:
                continue
            if not (end_converges(x, e).at() & a).is_empty():
                continue
            return Verdict(False, e)
    return Verdict(True, None)


# -- subspaces ------------------------------------------------------------------

def sym_restrict(x: SymbolicPretop, a: DefSet) -> SymbolicPretop:
    """Subspace on a definable carrier.

    Masked templates stay valid as they are: clipping every vicinity by
    the same set keeps the families decreasing and keeps each point
    inside its own vicinity, so no revalidation is needed.
    """
    _check_schema(x, a)
    carrier = x.carrier_set & a
    if carrier.is_empty():
        raise EmptySubspace("restriction to an empty carrier")
    rules = []
    for r in x.rules:
        if (r.pattern.to_defset(x.schema) & carrier).is_empty():
            continue
        rules.append(VicinityRule(r.pattern, r.template.with_mask(carrier)))
    label = f"{x.label} restricted" if x.label else "restricted"
    return SymbolicPretop(x.schema, tuple(rules), x.topological, carrier, label)


# -- Hausdorff separation ---------------------------------------------------------

def _pair_side(x: SymbolicPretop, rule: VicinityRule, tag: str) -> tuple:
    """The rule's template with its coordinates renamed ``n<tag>`` and
    ``m<tag>``, and one comparison list per carrier box of its pattern."""
    names = {v: var(v + tag) for v in rule.pattern.vars}
    boxes = []
    for box in _region_boxes(x, rule.pattern, x.carrier_set):
        conds = []
        for v, (lo, hi) in box.items():
            conds += [(as_endpoint(lo), names[v]), (names[v], as_endpoint(hi))]
        boxes.append(conds)
    return rule.template.substitute(names), boxes


def _apart(pat: PointPattern) -> list:
    """Comparison lists, one of which holds exactly when two points of
    the pattern differ: n1 < n2, n1 > n2, m1 < m2, m1 > m2."""
    out = []
    for v in pat.vars:
        a, b = var(v + "1"), var(v + "2")
        out += [[(a, b - 1)], [(b, a - 1)]]
    return out


def sym_hausdorff(x: SymbolicPretop) -> Verdict:
    """Whether distinct points always get eventually disjoint vicinities.

    For each pair of rules, in order with the first at or before the
    second, the two templates are renamed to one variable per
    coordinate (``n1``, ``m1`` for the first point, ``n2``, ``m2`` for
    the second) and asked whether they meet for every ``k``, with both
    points confined to the carrier boxes of their patterns and, within
    one rule, kept apart.  Every comparison has the form
    ``±x ± y <= c``, so tight integer closure decides each system
    exactly.  The witness comes from the first satisfiable system in
    :func:`_meets_boxes` order, with n1, m1, n2, m2 fixed in turn to
    the feasible value nearest 0.
    """
    for i, r1 in enumerate(x.rules):
        t1, boxes1 = _pair_side(x, r1, "1")
        for r2 in x.rules[i:]:
            same = r1 is r2
            if same and r1.pattern.kind == "atom":
                continue
            t2, boxes2 = _pair_side(x, r2, "2")
            apart = _apart(r1.pattern) if same else [[]]
            extra = [b1 + b2 + d for b1 in boxes1 for b2 in boxes2 for d in apart]
            systems = _meets_boxes(t1, t2, _LIMITS_K, extra)
            if systems:
                env = _solution(systems[0], ("n1", "m1", "n2", "m2"))
                p1 = _point_of(r1.pattern, {"n": env["n1"], "m": env["m1"]})
                p2 = _point_of(r2.pattern, {"n": env["n2"], "m": env["m2"]})
                return Verdict(False, (p1, p2))
    return Verdict(True, None)


# -- eventual separation of two sets -------------------------------------------

def sym_separated(x: SymbolicPretop, a: DefSet, b: DefSet) -> int | None:
    """Least parameter at which the vicinity unions of two sets are
    disjoint, or None when no parameter separates them."""
    ua = _vicinity_union(x, a)
    ub = _vicinity_union(x, b)

    def apart(k):
        return not pieces_meet(ua.eval_pieces({"k": k}), ub.eval_pieces({"k": k}))

    region = solve_axis(NATURALS0, apart, ua.bound + ub.bound + 1)
    if region.is_empty():
        return None
    return region.least()
