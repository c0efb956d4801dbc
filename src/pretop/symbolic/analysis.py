"""Exact analysis of rule spaces: adherence, ends, compactness, separation.

Every decision here is read off the comparison systems of
:mod:`~pretop.symbolic.utvpi`: adherence and inherence are the region
where a rule's template meets a set, regularization and vicinity cores
project such regions symbolic in an outer point, end limits project
them in an end's fixed coordinate, and Hausdorff separation conjoins
the templates of two points renamed apart.

Validation runs on the same systems, with ``k`` a free variable rather
than a limit.  A point outside its own vicinity is a system that fails
one comparison of each template piece; a vicinity growing from ``k`` to
``k + 1`` adds a point of the template at ``k + 1`` that fails one
comparison of each piece at ``k``; a filter family's emptiness is read
off the ``k``-region where it meets the ground set.  When a result
cannot be expressed exactly the functions raise
:class:`~pretop.errors.FragmentEscape` rather than approximate.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from ..defsets import KINDS, DefSet, GroundSchema
from ..errors import (
    EmptyKernel,
    EmptySubspace,
    FragmentEscape,
    InvalidTopology,
    NonMonotoneRule,
    SchemaMismatch,
    SelfMembershipViolation,
    UnknownPoint,
)
from ..finite import Verdict
from ..intervals import INF, NEG_INF, NATURALS0, AxisDomain, IntervalSet
from ..record import record
from .exprs import SymDefSet, SymExpr, endpoint_vars, sym_box, var
from .space import PointPattern, SymbolicPretop, VicinityRule
from .utvpi import (
    LIMITS_K,
    LIMITS_KB,
    carrier_conds,
    cells,
    conjoin,
    meet_conds,
    meets_boxes,
    outside,
    pieces,
    region_boxes,
    section,
    solution,
    template_pieces,
)

_B = var("b")
_P = var("p")
# the coordinates of a point q of a vicinity
_IJ = ("i", "j")


def _check_schema(x: SymbolicPretop, d: DefSet):
    if d.schema != x.schema:
        raise SchemaMismatch("set uses a different ground schema than the space")


@lru_cache(maxsize=None)
def _discrete_rules(schema: GroundSchema, names: tuple = ("n", "m")) -> tuple:
    """One rule per strand whose template is the point itself, its
    coordinates named ``names``: the adherence of a family in the
    discrete space is the set of points lying in the family at every
    large parameter."""
    rules = []
    for name, axes in schema.strands:
        point = tuple((var(v), var(v)) for v in names[: len(axes)])
        template = SymDefSet.of(schema, {name: [point]})
        rules.append(VicinityRule(PointPattern(name, (None,) * len(axes)), template))
    return tuple(rules)


def _sections(x: SymbolicPretop, rules, right: SymDefSet, limits: frozenset) -> list:
    """The systems on which a rule's template meets ``right``, each
    conjoined with one carrier box of the rule's pattern and sorted by
    :func:`section`."""
    out = []
    for rule in rules:
        boxes = carrier_conds(x.schema, rule.pattern, x.carrier)
        for conds in meet_conds(rule.template, right):
            for box in boxes:
                sec = section(rule.pattern, [*conds, *box], limits)
                if sec is not None:
                    out.append(sec)
    return out


def _region(x: SymbolicPretop, rules, right: SymDefSet, limits: frozenset) -> DefSet:
    """Carrier points whose template, by the rule covering them, meets
    ``right`` eventually in the limit variables: the pieces of the one
    cell of a question without outer variables."""
    return _collect(x.schema, pieces({}, _sections(x, rules, right, limits), limits)).evaluate({})


def _param_region(systems, axis: AxisDomain, name: str = "p") -> IntervalSet:
    """Values of the parameter ``name`` (the end parameter ``p`` unless
    given) at which one of the systems holds."""
    return IntervalSet.from_pairs(axis, [s.get(name, (NEG_INF, INF)) for s in systems])


# -- adherence and inherence --------------------------------------------------

def sym_adh(x: SymbolicPretop, s: DefSet) -> DefSet:
    """Points whose every vicinity meets ``s``."""
    _check_schema(x, s)
    if s.is_empty():
        return s
    return _region(x, x.rules, SymDefSet.from_defset(s), LIMITS_K)


def sym_inh(x: SymbolicPretop, s: DefSet) -> DefSet:
    """Points with some vicinity inside ``s``."""
    _check_schema(x, s)
    right = SymDefSet.from_defset(DefSet.full(x.schema) - s)
    return x.carrier_set - _region(x, x.rules, right, LIMITS_K)


def _membership_region(x: SymbolicPretop, left: SymDefSet) -> DefSet:
    """Carrier points lying in the set at every large parameter."""
    return _region(x, _discrete_rules(x.schema), left, LIMITS_K)


# -- families of regions, symbolic in a point -------------------------------------

_OUTER = {"n": var("N"), "m": var("M")}
_OUTER_K = {**_OUTER, "k": var("K")}


def _collect(schema: GroundSchema, found) -> SymDefSet:
    """The set of (pattern, endpoints) pieces, each listed once."""
    strands: dict = {}
    for pat, ends in found:
        strands.setdefault(pat.strand, {})[ends] = None
    boxes = {n: [sym_box(e) for e in ends] for n, ends in strands.items()}
    return SymDefSet.of(schema, boxes)


def _family(x: SymbolicPretop, pat: PointPattern, right: SymDefSet, rules, limits: frozenset) -> tuple:
    """(pattern, template) pairs covering the carrier points of ``pat``.

    ``right`` is symbolic in the outer point's coordinates ``N``, ``M``
    and, for a regularization, in its parameter ``K``.  At each outer
    point the template holds the carrier points whose template, by their
    rule among ``rules``, meets ``right`` eventually in the limit
    variables.  Each system of those meets, conjoined with a carrier box
    of the inner pattern, is sorted by :func:`section`; the outer
    selectors are cut into cells on which every section is settled
    (:func:`cells`).  One template for all cells gives one rule with the
    pattern's selectors made explicit.
    """
    schema = x.schema
    sections = _sections(x, rules, right, limits)
    cell = dict(zip(("N", "M"), pat.selectors(schema)))
    if "K" in right.vars:
        cell["K"] = IntervalSet.full(NATURALS0)
    out, shapes = [], set()
    for c, found in cells(x, pat, cell, sections, limits):
        floor = c["K"].least() if "K" in c else 0
        shapes.add((floor, frozenset((p.strand, ends) for p, ends in found)))
        outer = {"N": var("n"), "M": var("m"), "K": var("k") + floor}
        template = _collect(schema, found).substitute(outer)
        out.append((PointPattern(pat.strand, tuple(c[v.upper()] for v in pat.vars)), template))
    if len(shapes) == 1:
        return ((PointPattern(pat.strand, pat.selectors(schema)), out[0][1]),)
    return tuple(out)


# -- regularization and theta closure -----------------------------------------

@lru_cache(maxsize=None)
def sym_regularize(x: SymbolicPretop) -> SymbolicPretop:
    """Space with every vicinity template replaced by its adherence.

    The output is assembled directly: adherence is monotone, so the new
    templates shrink, and each point stays inside the adherence of its
    own vicinity, so the pointwise axioms cannot break.
    """
    new_rules = []
    for rule in x.rules:
        right = rule.template.substitute(_OUTER_K)
        for pat, template in _family(x, rule.pattern, right, x.rules, LIMITS_K):
            new_rules.append(VicinityRule(pat, template.with_mask(x.carrier)))
    label = f"r({x.label})" if x.label else "regularized"
    return SymbolicPretop(x.schema, tuple(new_rules), False, x.carrier, label)


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

    ``sides`` holds one side per axis of the strand, rows then columns:
    "plus", "minus" or "fixed".  A fixed side is parametric until
    :meth:`pin` gives it the concrete position ``fixed``.
    """

    strand: str
    sides: tuple
    fixed: int | None = None

    @property
    def kind(self) -> str:
        return KINDS[len(self.sides)]

    @property
    def parametric(self) -> bool:
        return "fixed" in self.sides and self.fixed is None

    def pin(self, value: int) -> "EndClass":
        return EndClass(self.strand, self.sides, value)

    def describe(self) -> str:
        fixed = "p" if self.fixed is None else str(self.fixed)
        shown = {"plus": "+", "minus": "-", "fixed": fixed}
        return f"{self.strand}({','.join(shown[side] for side in self.sides)})"


def _sides(ax: AxisDomain) -> tuple:
    return ("plus",) if ax.kind == "nat" else ("plus", "minus")


def _fixed_axis(schema: GroundSchema, e: EndClass) -> AxisDomain:
    return schema.axes(e.strand)[e.sides.index("fixed")]


def trace_sym(schema: GroundSchema, e: EndClass, mask, param=_B) -> SymDefSet:
    """Base rectangle of the end's trace filter, symbolic in ``b``."""
    schema.axes(e.strand, e.kind)  # an end of another shape names no strand
    fixed = _P if e.fixed is None else e.fixed
    bounds = {"plus": (param + 1, INF), "minus": (NEG_INF, -param - 1), "fixed": (fixed, fixed)}
    ends = tuple(end for side in e.sides for end in bounds[side])
    return SymDefSet.of(schema, {e.strand: [sym_box(ends)]}, mask)


def _exists_region(x: SymbolicPretop, e: EndClass):
    """Where the end's trace stays inside the carrier: a bool for a
    pinned or coordinate-free class, else the region of parameters."""
    trace = trace_sym(x.schema, e, x.carrier)
    boxes = meets_boxes(trace, SymDefSet.from_defset(DefSet.full(x.schema)), LIMITS_KB)
    if not e.parametric:
        return bool(boxes)
    return _param_region(boxes, _fixed_axis(x.schema, e))


@lru_cache(maxsize=None)
def ends(x: SymbolicPretop) -> tuple:
    """End classes of the carrier, strand by strand in schema order.

    A strand's classes take one side per axis, each fixed, plus or, on a
    two-sided axis, minus, in that order with the rows varying slowest;
    the classes with a fixed side come first, and none has every side
    fixed, so an atom has no end.  On a grid that gives the column
    ends at a parametric row, the row ends at a parametric column, then
    the corner ends.  Classes whose trace leaves the carrier are dropped.
    """
    out = []
    for name, axes in x.schema.strands:
        found = [sides for sides in product(*(("fixed", *_sides(ax)) for ax in axes)) if set(sides) - {"fixed"}]
        out += [EndClass(name, sides) for sides in sorted(found, key=lambda s: "fixed" not in s)]
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


@lru_cache(maxsize=None)
def end_converges(x: SymbolicPretop, e: EndClass) -> ParametricAnswer:
    """Limit points admitted by the end's trace filter: the carrier
    points whose every vicinity meets every trace rectangle.

    The fixed coordinate of a parametric class is the outer variable
    ``P`` of one projection, cut into the cells on which the answer's
    pieces are settled (:func:`cells`); neighbouring cells may give the
    same answer.  A pinned or coordinate-free class is the one cell
    without outer variables.
    """
    trace = trace_sym(x.schema, e, x.carrier).substitute({"p": var("P")})
    cell = {"P": IntervalSet.full(_fixed_axis(x.schema, e))} if e.parametric else {}
    regions = tuple(
        (c.get("P"), _collect(x.schema, found).substitute({"P": _P}))
        for c, found in cells(x, None, cell, _sections(x, x.rules, trace, LIMITS_KB), LIMITS_KB)
    )
    if e.parametric:
        return ParametricAnswer("p", cell["P"].axis, regions)
    return ParametricAnswer(None, None, regions)


def noncompact_ends(x: SymbolicPretop):
    """End classes whose trace filter admits no limit point, in ``ends``
    order: ``(e, None)`` for a class without parameter, and ``(e, bad)``
    for each convergence region of a parametric class that diverges on
    the nonempty parameter set ``bad``."""
    for e in ends(x):
        conv = end_converges(x, e)
        if conv.var is None:
            if not any(template_pieces(conv.regions[0][1])):
                yield e, None
            continue
        exists = _exists_region(x, e)
        for sel, sym in conv.regions:
            if not any(template_pieces(sym)):
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


# -- the pointwise axioms of rules and filter families ---------------------------

_K0 = (SymExpr.const(0), var("k"))


def _growth(t: SymDefSet, bases) -> list:
    """Satisfiable systems, each with a base list, on which a point ``q``
    of coordinates ``i``, ``j`` lies in ``t`` at ``k + 1`` but outside it
    at ``k``.  Its place in ``t``'s mask is stated on the ``k + 1`` side,
    so at ``k`` it only escapes the pieces."""
    later = t.substitute({"k": var("k") + 1})
    out = []
    for q in _discrete_rules(t.schema, _IJ):
        coords = tuple(var(v) for v in _IJ[: len(q.pattern.vars)])
        systems = [[*c, *b] for c in meet_conds(later, q.template) for b in bases]
        out += outside(t, q.pattern.strand, coords, systems)
    return out


def _witness(pat: PointPattern, system: list) -> tuple:
    env = solution(conjoin(system, frozenset()), ("n", "m", "k"))
    return pat.point(env), env["k"]


def check_rule(schema: GroundSchema, rule: VicinityRule, carrier: DefSet | None):
    """Raise unless, at every point ``p`` of the rule's pattern in the
    carrier and every ``k >= 0``, ``p`` lies in ``T_p(k)`` and
    ``T_p(k+1) ⊆ T_p(k)``.

    A violation is a system of comparisons in ``p``'s coordinates ``n``,
    ``m``, in ``k`` and, for growth, in the coordinates ``i``, ``j`` of a
    point of ``T_p(k+1)`` outside ``T_p(k)``, each confined to a carrier
    box; tight closure decides it, and the first satisfiable one gives
    the witness, each of ``n``, ``m``, ``k`` fixed in turn nearest 0.  A
    rule breaking both axioms raises :class:`SelfMembershipViolation`.
    """
    pat = rule.pattern
    t = rule.template if carrier is None else rule.template.with_mask(carrier)
    bases = [[*box, _K0] for box in carrier_conds(schema, pat, carrier)]
    missing = outside(t, pat.strand, tuple(var(v) for v in pat.vars), bases)
    if carrier is None and t.mask is not None:
        missing += [[*box, _K0] for box in carrier_conds(schema, pat, ~t.mask)]
    if missing:
        p, k = _witness(pat, missing[0])
        raise SelfMembershipViolation(f"{p.describe()} missing from its own vicinity at k={k}")
    grows = _growth(t, bases) if "k" in t.vars else []
    if grows:
        p, k = _witness(pat, grows[0])
        raise NonMonotoneRule(f"vicinity of {p.describe()} grows from k={k} to k={k + 1}")


# -- filters given by definable families ---------------------------------------

@record
class DefFilterBase:
    """Decreasing definable family ``F(0) ⊇ F(1) ⊇ ...`` generating a filter.

    Emptiness and growth are decided on the comparison systems; when
    both happen, the error names the lesser ``k``, emptiness first, as a
    walk up ``k`` meets them.
    """

    family: SymDefSet

    def __post_init__(self):
        extra = self.family.vars - {"k"}
        if extra:
            raise ValueError(f"filter family may only use k, found {sorted(extra)}")
        full = SymDefSet.from_defset(DefSet.full(self.schema))
        empty = ~_param_region(meets_boxes(self.family, full, frozenset()), NATURALS0, "k")
        grows = _growth(self.family, [[_K0]]) if "k" in self.family.vars else []
        g = min((solution(conjoin(s, frozenset()), ("k",))["k"] for s in grows), default=INF)
        if not empty.is_empty() and empty.least() <= g + 1:
            raise EmptyKernel(f"filter family is empty at k={empty.least()}")
        if grows:
            raise NonMonotoneRule(f"filter family grows from k={g} to k={g + 1}")

    @classmethod
    def principal(cls, d: DefSet) -> "DefFilterBase":
        return cls(SymDefSet.from_defset(d))

    @property
    def schema(self) -> GroundSchema:
        return self.family.schema

    def at(self, k: int) -> DefSet:
        return self.family.evaluate({"k": k})

    def describe(self) -> str:
        return self.family.describe()


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


def _sweep_pair(lo, hi, ranges: dict) -> tuple:
    for name, (a, b) in ranges.items():
        lo = _sweep_endpoint(lo, name, a, b, want_max=False)
        hi = _sweep_endpoint(hi, name, a, b, want_max=True)
    return lo, hi


def _sweep_symdefset(t: SymDefSet, ranges: dict) -> SymDefSet:
    """Union of a template over a box of coordinate values.

    Exact because unit-slope endpoints make consecutive member sets
    overlap or touch, so each piece sweeps to one piece spanned by its
    extremes; a rectangle whose row and column endpoints share a swept
    variable would trace a diagonal, which the fragment cannot hold.
    """

    def sweep(box: tuple) -> tuple:
        axis_vars = (endpoint_vars(lo) | endpoint_vars(hi) for lo, hi in box)
        shared = frozenset(ranges).intersection(*axis_vars) if len(box) > 1 else ()
        if shared:
            raise FragmentEscape(
                f"row and column endpoints share {sorted(shared)}; the swept union is not a box"
            )
        return tuple(_sweep_pair(lo, hi, ranges) for lo, hi in box)

    return t.map_boxes(sweep)


@lru_cache(maxsize=None)
def _core_templates(x: SymbolicPretop, rule: VicinityRule) -> tuple:
    """Vicinity cores of the rule's points: the points lying in every vicinity."""
    return _family(x, rule.pattern, rule.template.substitute(_OUTER), _discrete_rules(x.schema), LIMITS_K)


def _core_union(x: SymbolicPretop, a: DefSet) -> DefSet:
    """Union of the vicinity cores over the points of ``a``."""
    a = a & x.carrier_set
    total = DefSet.empty(x.schema)
    for rule in x.rules:
        for sub_pat, ct in _core_templates(x, rule):
            for ranges in region_boxes(x.schema, sub_pat, a):
                total = total | _sweep_symdefset(ct, ranges).evaluate({})
    return total


# -- compactness at a set -------------------------------------------------------

def _end_filter(x: SymbolicPretop, e: EndClass) -> DefFilterBase:
    if e.parametric:
        raise ValueError("pin the fixed coordinate of the end class first")
    return DefFilterBase(trace_sym(x.schema, e, x.carrier, param=var("k")))


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
    # carrier points in every member of the family
    stray = _membership_region(x, f.family) - _core_union(x, a)
    if not stray.is_empty():
        return Verdict(False, next(stray.iter_sample_points()))
    a_sym = SymDefSet.from_defset(a)
    for e in ends(x):
        # boxes over the end's parameter where its trace meshes the family
        boxes = meets_boxes(f.family, trace_sym(x.schema, e, x.carrier), LIMITS_KB)
        if e.parametric:
            axis = _fixed_axis(x.schema, e)
            mesh = _param_region(boxes, axis)
            if mesh.is_empty():
                continue
            conv = end_converges(x, e)
            for sel, sym in conv.regions:
                hood = sel & mesh
                if hood.is_empty():
                    continue
                good = _param_region(meets_boxes(sym, a_sym, frozenset()), axis)
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
    return rule.template.substitute(names), carrier_conds(x.schema, rule.pattern, x.carrier, tag)


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
    :func:`meets_boxes` order, with n1, m1, n2, m2 fixed in turn to
    the feasible value nearest 0.
    """
    for i, r1 in enumerate(x.rules):
        t1, boxes1 = _pair_side(x, r1, "1")
        for r2 in x.rules[i:]:
            same = r1 is r2
            if same and not r1.pattern.vars:
                continue
            t2, boxes2 = _pair_side(x, r2, "2")
            apart = _apart(r1.pattern) if same else [[]]
            extra = [[*b1, *b2, *d] for b1 in boxes1 for b2 in boxes2 for d in apart]
            systems = meets_boxes(t1, t2, LIMITS_K, extra)
            if systems:
                env = solution(systems[0], ("n1", "m1", "n2", "m2"))
                p1 = r1.pattern.point({"n": env["n1"], "m": env["m1"]})
                p2 = r2.pattern.point({"n": env["n2"], "m": env["m2"]})
                return Verdict(False, (p1, p2))
    return Verdict(True, None)
