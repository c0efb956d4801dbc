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
value nearest 0.

A region of points is read off the same systems: conjoined with a
carrier box of a rule's pattern, each satisfiable system contributes its
box, exactly when every comparison tying two coordinates holds
throughout that carrier box.  Whole-family questions (the adherence of
every template, the core of every vicinity, the limits of a parametric
end) keep the point and its parameter, or the end's fixed coordinate,
as outer variables ``N``, ``M``, ``K``, ``P``.  Each comparison then
bounds an inner coordinate by an endpoint in at most one outer
variable, or compares outer variables alone, so at each outer point a
system's inner solutions form the box between its greatest lower and
least upper endpoints.  The outer range is cut into cells on which every
such comparison holds or fails throughout, decided by the same closure,
and each side keeps its dominating endpoint there: variable elimination
on octagons (Miné, HOSC 2006; Bagnara, Hill & Zaffanella 2009).

Validation runs on the same systems, with ``k`` a free variable rather
than a limit.  A point outside its own vicinity is a system that fails
one comparison of each template piece; a vicinity growing from ``k`` to
``k + 1`` adds a point of the template at ``k + 1`` that fails one
comparison of each piece at ``k``; a filter family's emptiness is read
off the ``k``-region where it meets the ground set.  When a result
cannot be expressed exactly the functions raise
:class:`~pretop.errors.FragmentEscape` rather than approximate.

A strand-wise map (a shift or a collapse per strand) is discontinuous
at ``p`` when, for some ``J``, every vicinity ``T_p(k)`` holds a point
``q`` sent outside the target vicinity ``U(J)`` of ``p``'s image.
Under a shift, ``q``'s image failing one comparison of a piece of ``U``
is one more half-interval on one coordinate of ``q``; under a collapse
the image is a constant point.  ``q`` moves as ``k`` grows, so it is
eliminated by interval overlap rather than kept free, and each system
left in ``p``'s coordinates and ``J`` is decided with ``k`` as the
limit.
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
    SelfMembershipViolation,
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
    var,
)
from .space import PointPattern, SymbolicPretop, VicinityRule

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
        low = schema.ray_axis(name).low
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
        rlow, clow = (ax.low for ax in schema.grid_axes(name))
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


def _region_boxes(schema: GroundSchema, pat: PointPattern, s: DefSet):
    """Coordinate boxes of the pattern's region intersected with ``s``."""
    if pat.kind == "atom":
        if pat.strand in s.atoms:
            yield {}
        return
    if pat.kind == "ray":
        (sel,) = pat.selectors(schema)
        for lo, hi in (s.ray_part(pat.strand) & sel).parts:
            yield {"n": (lo, hi)}
        return
    rows_sel, cols_sel = pat.selectors(schema)
    for rows, cols in s.grid_part(pat.strand):
        rr = rows & rows_sel
        cc = cols & cols_sel
        for rpart in rr.parts:
            for cpart in cc.parts:
                yield {"n": rpart, "m": cpart}


@lru_cache(maxsize=None)
def _carrier_conds(schema: GroundSchema, pat: PointPattern, carrier, tag: str = "") -> tuple:
    """Comparison lists, one per box of the pattern's carrier points,
    confining its coordinates renamed ``n<tag>`` and ``m<tag>``."""
    boxes = _region_boxes(schema, pat, DefSet.full(schema) if carrier is None else carrier)
    return tuple(tuple(_bound_conds(box, tag)) for box in boxes)


def _bound_conds(box: dict, tag: str = "") -> list:
    """Comparisons confining each variable of the box, renamed
    ``<var><tag>``, to its finite bounds."""
    conds = []
    for v, (lo, hi) in box.items():
        if lo != NEG_INF:
            conds.append((SymExpr.const(lo), var(v + tag)))
        if hi != INF:
            conds.append((var(v + tag), SymExpr.const(hi)))
    return conds


@lru_cache(maxsize=None)
def _discrete_rules(schema: GroundSchema) -> tuple:
    """One rule per strand whose template is the point itself: the
    adherence of a family in the discrete space is the set of points
    lying in the family at every large parameter."""
    n, m = var("n"), var("m")
    rules = [VicinityRule(PointPattern.atom(a), SymDefSet.assemble(schema, atoms=[a])) for a in schema.atoms]
    rules += [
        VicinityRule(PointPattern.ray(name), SymDefSet.assemble(schema, ray_parts={name: [(n, n)]}))
        for name, _ in schema.rays
    ]
    rules += [
        VicinityRule(PointPattern.grid(name), SymDefSet.assemble(schema, grid_rects={name: [(n, n, m, m)]}))
        for name, *_ in schema.grids
    ]
    return tuple(rules)


def _sections(x: SymbolicPretop, rules, right: SymDefSet, limits: frozenset) -> list:
    """The systems on which a rule's template meets ``right``, each
    conjoined with one carrier box of the rule's pattern and sorted by
    :func:`_section`."""
    out = []
    for rule in rules:
        boxes = _carrier_conds(x.schema, rule.pattern, x.carrier)
        for conds in _meet_conds(rule.template, right):
            for box in boxes:
                sec = _section(rule.pattern, [*conds, *box], limits)
                if sec is not None:
                    out.append(sec)
    return out


def _region(x: SymbolicPretop, rules, right: SymDefSet, limits: frozenset) -> DefSet:
    """Carrier points whose template, by the rule covering them, meets
    ``right`` eventually in the limit variables: the pieces of
    :func:`_pieces` on the one cell of a question without outer
    variables."""
    schema = x.schema
    pieces = _pieces({}, _sections(x, rules, right, limits), limits)
    atoms, rays, grids = _collect(
        (pat, tuple(e if isinstance(e, float) else e.offset for e in ends)) for pat, ends in pieces
    )
    ray_parts = {name: IntervalSet.from_pairs(schema.ray_axis(name), parts) for name, parts in rays.items()}
    grid_rects = {}
    for name, rects in grids.items():
        rows_ax, cols_ax = schema.grid_axes(name)
        grid_rects[name] = [
            (IntervalSet.from_pairs(rows_ax, [(rl, rh)]), IntervalSet.from_pairs(cols_ax, [(cl, ch)]))
            for rl, rh, cl, ch in rects
        ]
    return DefSet.build(schema, atoms, ray_parts, grid_rects)


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
    return _region(x, x.rules, SymDefSet.from_defset(s), _LIMITS_K)


def sym_inh(x: SymbolicPretop, s: DefSet) -> DefSet:
    """Points with some vicinity inside ``s``."""
    _check_schema(x, s)
    right = SymDefSet.from_defset(DefSet.full(x.schema) - s)
    return x.carrier_set - _region(x, x.rules, right, _LIMITS_K)


def _membership_region(x: SymbolicPretop, left: SymDefSet) -> DefSet:
    """Carrier points lying in the set at every large parameter."""
    return _region(x, _discrete_rules(x.schema), left, _LIMITS_K)


# -- families of regions, symbolic in a point -------------------------------------

_OUTER = {"n": var("N"), "m": var("M")}
_OUTER_K = {**_OUTER, "k": var("K")}


class _Open(Exception):
    """A comparison that a cell leaves open on one outer variable; it
    holds where the variable lies in ``inside``."""

    def __init__(self, name: str, inside: IntervalSet):
        super().__init__(name)
        self.name, self.inside = name, inside


def _section(pat: PointPattern, conds: list, limits: frozenset, closed: bool = False):
    """One system sorted by what each comparison bounds, or None when one
    never holds.

    Returns (pattern, guards, bounds): the guards compare outer variables
    (``N``, ``M``, ``K``) alone, and ``bounds`` lists, per coordinate of
    the pattern, the lower and upper endpoint candidates that the other
    comparisons give it, each constant or in one outer variable.  A
    comparison tying two coordinates must follow from the others, as a
    carrier box with rows below its columns makes ``n <= m`` follow.
    When it does not, the system is tried once more with the tightly
    closed bounds of the coordinates added (``closed``), as ``m = 5``
    bounds ``n`` by 5 under ``n <= m``; the bounds are implied, so the
    points stay the same.
    """
    inner = pat.vars
    guards, ties, lows, highs = [], [], {v: [] for v in inner}, {v: [] for v in inner}
    for e1, e2 in conds:
        got = _le(e1, e2, limits)
        if got is True:
            continue
        if got is False:
            return None
        if len(got) == 3:
            v, lo, hi = got
            if v not in inner:
                guards.append((e1, e2))
                continue
            if lo != NEG_INF:
                lows[v].append(SymExpr.const(lo))
            if hi != INF:
                highs[v].append(SymExpr.const(hi))
            continue
        a, x, b, y, c = got
        if x in inner and y in inner:
            ties.append((e1, e2))
        elif x in inner:  # a*x <= c - b*y
            (highs if a > 0 else lows)[x].append(SymExpr(y, -a * b, a * c))
        elif y in inner:
            (highs if b > 0 else lows)[y].append(SymExpr(x, -a * b, b * c))
        else:
            guards.append((e1, e2))
    rest = [cond for cond in conds if cond not in ties]
    for e1, e2 in ties:
        if _conjoin(rest + [(e2 + 1, e1)], limits) is not None:
            if closed:
                raise FragmentEscape(f"comparison ties {e1.var} to {e2.var}")
            system = _conjoin(conds, limits)
            if system is None:
                return None
            box = system[0]
            return _section(pat, [*_bound_conds({v: box[v] for v in inner if v in box}), *conds], limits, True)
    bounds = tuple((v, tuple(dict.fromkeys(lows[v])), tuple(dict.fromkeys(highs[v]))) for v in inner)
    return pat, tuple(guards), bounds


def _holds(cell: dict, e1, e2, limits: frozenset):
    """True or False when ``e1 <= e2`` holds or fails at every point of
    the cell, None when the cell leaves it open."""
    got = _le(e1, e2, limits)
    if got is True or got is False:
        return got
    if len(got) == 3:
        v, lo, hi = got
        sel = cell[v]
        inside = sel & IntervalSet.from_pairs(sel.axis, [(lo, hi)])
        return True if inside == sel else False if inside.is_empty() else None
    a, x, b, y, c = got

    def feasible(tie):
        return any(
            _tight_box({x: px, y: py}, [tie]) is not None for px in cell[x].parts for py in cell[y].parts
        )

    if not feasible((-a, x, -b, y, -c - 1)):
        return True
    return False if not feasible(got) else None


def _open(cell: dict, e1, e2, limits: frozenset):
    """Raise the cut that settles an open ``e1 <= e2``; a comparison of
    two outer variables cannot be cut into cells and leaves the fragment."""
    got = _le(e1, e2, limits)
    if len(got) == 5:
        raise FragmentEscape(f"comparison ties {got[1]} to {got[3]}")
    v, lo, hi = got
    raise _Open(v, cell[v] & IntervalSet.from_pairs(cell[v].axis, [(lo, hi)]))


def _extreme(cell: dict, cands: tuple, limits: frozenset, top: bool):
    """The candidate at or above every other throughout the cell (at or
    below when not ``top``); infinite when there is none."""
    if not cands:
        return NEG_INF if top else INF
    best = cands[0]
    for c in cands[1:]:
        lo, hi = (best, c) if top else (c, best)
        if _holds(cell, lo, hi, limits) is True:
            best = c
        elif _holds(cell, hi, lo, limits) is not True:
            _open(cell, lo, hi, limits)
    return best


def _pieces(cell: dict, sections: list, limits: frozenset) -> list:
    """(pattern, lower and upper endpoint of each coordinate) of every
    section that is nonempty on the cell.

    A section is dropped when one of its guards, or one of its "lower
    candidate <= upper candidate" pairs, fails throughout the cell; it
    keeps the dominating candidate on each side.  A comparison the cell
    leaves open raises :class:`_Open`.
    """
    out = []
    for pat, guards, bounds in sections:
        pairs = list(guards) + [(lo, hi) for _, lows, highs in bounds for lo in lows for hi in highs]
        verdicts = [_holds(cell, e1, e2, limits) for e1, e2 in pairs]
        if False in verdicts:
            continue
        if None in verdicts:
            _open(cell, *pairs[verdicts.index(None)], limits)
        ends = []
        for _, lows, highs in bounds:
            ends += [_extreme(cell, lows, limits, True), _extreme(cell, highs, limits, False)]
        out.append((pat, tuple(ends)))
    return out


def _cells(x: SymbolicPretop, pat: PointPattern | None, cell: dict, sections: list, limits: frozenset) -> list:
    """(cell, pieces) pairs in ascending coordinate order, covering the
    carrier points of the cell.

    An open comparison on ``N``, ``M`` or ``P`` cuts the cell at its
    threshold.  One on ``K`` raises the cell's floor of ``K`` to the side
    that every large ``K`` reaches: a decreasing family and its tail
    generate the same filter.  Without a pattern (``pat`` None) the
    outer variables are no point's coordinates, and every cell is kept.
    """
    if pat is not None:
        sub = PointPattern(pat.strand, pat.kind, cell.get("N"), cell.get("M"))
        if not sub.to_defset(x.schema).meets(x.carrier_set):
            return []
    try:
        return [(cell, _pieces(cell, sections, limits))]
    except _Open as cut:
        rest = cell[cut.name] - cut.inside
        if cut.name == "K":
            tail = cut.inside if cut.inside.has_plus_end() else rest
            return _cells(x, pat, {**cell, "K": tail}, sections, limits)
        halves = sorted((cut.inside, rest), key=lambda s: s.parts)
        return [c for half in halves for c in _cells(x, pat, {**cell, cut.name: half}, sections, limits)]


def _collect(pieces) -> tuple:
    """Atoms, ray pieces and grid rectangles of (pattern, endpoints)
    pieces, each listed once."""
    atoms, rays, grids = [], {}, {}
    for pat, ends in pieces:
        if pat.kind == "atom":
            atoms.append(pat.strand)
        else:
            (rays if pat.kind == "ray" else grids).setdefault(pat.strand, {})[ends] = None
    return atoms, rays, grids


def _family(x: SymbolicPretop, pat: PointPattern, right: SymDefSet, rules, limits: frozenset) -> tuple:
    """(pattern, template) pairs covering the carrier points of ``pat``.

    ``right`` is symbolic in the outer point's coordinates ``N``, ``M``
    and, for a regularization, in its parameter ``K``.  At each outer
    point the template holds the carrier points whose template, by their
    rule among ``rules``, meets ``right`` eventually in the limit
    variables.  Each system of those meets, conjoined with a carrier box
    of the inner pattern, is sorted by :func:`_section`; the outer
    selectors are cut into cells on which every section is settled
    (:func:`_cells`).  One template for all cells gives one rule with
    the pattern's selectors made explicit.
    """
    schema = x.schema
    sections = _sections(x, rules, right, limits)
    cell = dict(zip(("N", "M"), pat.selectors(schema)))
    if "K" in right.vars:
        cell["K"] = IntervalSet.full(NATURALS0)
    out, shapes = [], set()
    for c, pieces in _cells(x, pat, cell, sections, limits):
        floor = c["K"].least() if "K" in c else 0
        shapes.add((floor, frozenset((p.strand, ends) for p, ends in pieces)))
        outer = {"N": var("n"), "M": var("m"), "K": var("k") + floor}
        template = SymDefSet.assemble(schema, *_collect(pieces)).substitute(outer)
        out.append((PointPattern(pat.strand, pat.kind, c.get("N"), c.get("M")), template))
    if len(shapes) == 1:
        return ((PointPattern(pat.strand, pat.kind, *pat.selectors(schema)), out[0][1]),)
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
        for pat, template in _family(x, rule.pattern, right, x.rules, _LIMITS_K):
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
    return _param_region(boxes, _fixed_axis(x.schema, e))


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


@lru_cache(maxsize=None)
def end_converges(x: SymbolicPretop, e: EndClass) -> ParametricAnswer:
    """Limit points admitted by the end's trace filter: the carrier
    points whose every vicinity meets every trace rectangle.

    The fixed coordinate of a parametric class is the outer variable
    ``P`` of one projection, cut into the cells on which the answer's
    pieces are settled (:func:`_cells`); neighbouring cells may give the
    same answer.  A pinned or coordinate-free class is the one cell
    without outer variables.
    """
    trace = trace_sym(x.schema, e, x.carrier).substitute({"p": var("P")})
    cell = {"P": IntervalSet.full(_fixed_axis(x.schema, e))} if e.parametric else {}
    regions = tuple(
        (c.get("P"), SymDefSet.assemble(x.schema, *_collect(pieces)).substitute({"P": _P}))
        for c, pieces in _cells(x, None, cell, _sections(x, x.rules, trace, _LIMITS_KB), _LIMITS_KB)
    )
    if e.parametric:
        return ParametricAnswer("p", cell["P"].axis, regions)
    return ParametricAnswer(None, None, regions)


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


# -- the pointwise axioms of rules and filter families ---------------------------

_K0 = (SymExpr.const(0), var("k"))


def _strand_pieces(t: SymDefSet, strand: str, arity: int) -> list:
    """The pieces of ``t`` on one strand, ``t``'s mask aside: one
    (lo, hi) pair per coordinate; an atom of ``t`` is the empty piece."""
    if not arity:
        return [()] if strand in t.atoms else []
    if arity == 1:
        return [((p.lo, p.hi),) for p in dict(t.rays)[strand].parts]
    rects = dict(t.grids)[strand]
    return [((r.lo, r.hi), (c.lo, c.hi)) for rows, cols in rects for r in rows.parts for c in cols.parts]


def _outside(t: SymDefSet, strand: str, coords: tuple, bases) -> list:
    """Satisfiable systems on which the point of ``strand`` at ``coords``
    lies outside every piece of ``t`` there, ``t``'s mask aside: a base
    list and, for each piece, one comparison the point fails.  An atom
    of ``t`` is a piece with no comparison to fail."""
    systems = [b for b in bases if _conjoin(b, frozenset()) is not None]
    for piece in _strand_pieces(t, strand, len(coords)):
        fails = [cond for (lo, hi), x in zip(piece, coords) for cond in ((x + 1, lo), (hi + 1, x))]
        systems = [[*s, f] for s in systems for f in fails if _conjoin([*s, f], frozenset()) is not None]
    return systems


@lru_cache(maxsize=None)
def _symbolic_points(schema: GroundSchema) -> tuple:
    """(strand, coordinates, the set of that one point) for a point
    ``q = (i, j)`` of each strand."""
    i, j = var("i"), var("j")
    out = [(a, (), SymDefSet.assemble(schema, atoms=[a])) for a in schema.atoms]
    out += [(n, (i,), SymDefSet.assemble(schema, ray_parts={n: [(i, i)]})) for n, _ in schema.rays]
    out += [(n, (i, j), SymDefSet.assemble(schema, grid_rects={n: [(i, i, j, j)]})) for n, *_ in schema.grids]
    return tuple(out)


def _growth(t: SymDefSet, bases) -> list:
    """Satisfiable systems, each with a base list, on which a point ``q``
    lies in ``t`` at ``k + 1`` but outside it at ``k``.  Its place in
    ``t``'s mask is stated on the ``k + 1`` side, so at ``k`` it only
    escapes the pieces."""
    later = t.shift_var("k", 1)
    out = []
    for strand, coords, q in _symbolic_points(t.schema):
        out += _outside(t, strand, coords, [[*conds, *b] for conds in _meet_conds(later, q) for b in bases])
    return out


def _witness(pat: PointPattern, system: list) -> tuple:
    env = _solution(_conjoin(system, frozenset()), ("n", "m", "k"))
    return _point_of(pat, env), env["k"]


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
    bases = [[*box, _K0] for box in _carrier_conds(schema, pat, carrier)]
    outside = _outside(t, pat.strand, tuple(var(v) for v in pat.vars), bases)
    if carrier is None and t.mask is not None:
        outside += [[*box, _K0] for box in _carrier_conds(schema, pat, ~t.mask)]
    if outside:
        p, k = _witness(pat, outside[0])
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
        empty = ~_param_region(_meets_boxes(self.family, full, frozenset()), NATURALS0, "k")
        grows = _growth(self.family, [[_K0]]) if "k" in self.family.vars else []
        g = min((_solution(_conjoin(s, frozenset()), ("k",))["k"] for s in grows), default=INF)
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


@lru_cache(maxsize=None)
def _core_templates(x: SymbolicPretop, rule: VicinityRule) -> tuple:
    """Vicinity cores of the rule's points: the points lying in every vicinity."""
    return _family(x, rule.pattern, rule.template.substitute(_OUTER), _discrete_rules(x.schema), _LIMITS_K)


def _core_union(x: SymbolicPretop, a: DefSet) -> DefSet:
    """Union of the vicinity cores over the points of ``a``."""
    a = a & x.carrier_set
    total = DefSet.empty(x.schema)
    for rule in x.rules:
        for sub_pat, ct in _core_templates(x, rule):
            for ranges in _region_boxes(x.schema, sub_pat, a):
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
        boxes = _meets_boxes(f.family, trace_sym(x.schema, e, x.carrier), _LIMITS_KB)
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
                good = _param_region(_meets_boxes(sym, a_sym, frozenset()), axis)
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
    return rule.template.substitute(names), _carrier_conds(x.schema, rule.pattern, x.carrier, tag)


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
            extra = [[*b1, *b2, *d] for b1 in boxes1 for b2 in boxes2 for d in apart]
            systems = _meets_boxes(t1, t2, _LIMITS_K, extra)
            if systems:
                env = _solution(systems[0], ("n1", "m1", "n2", "m2"))
                p1 = _point_of(r1.pattern, {"n": env["n1"], "m": env["m1"]})
                p2 = _point_of(r2.pattern, {"n": env["n2"], "m": env["m2"]})
                return Verdict(False, (p1, p2))
    return Verdict(True, None)


# -- continuity of strand-wise maps -----------------------------------------------

_J = var("J")


def _template_pieces(t: SymDefSet):
    """(strand, coordinates) of each piece of ``t``, its mask factors
    included: per coordinate, the intervals a point of the piece lies in
    and the axis floor (None on a two-sided axis).  An atom is a piece
    without coordinates."""
    schema = t.schema
    atoms = t.atoms if t.mask is None else t.atoms & t.mask.atoms
    for a in schema.atoms:
        if a in atoms:
            yield a, ()
    for name, s in t.rays:
        low = schema.ray_axis(name).low
        for p in s.parts:
            for m in _ray_factors(t.mask, name):
                yield name, (([(p.lo, p.hi), *m], low),)
    for name, rects in t.grids:
        rlow, clow = (ax.low for ax in schema.grid_axes(name))
        for rows, cols in rects:
            for mr, mc in _grid_factors(t.mask, name):
                for rp in rows.parts:
                    for cp in cols.parts:
                        yield name, (([(rp.lo, rp.hi), *mr], rlow), ([(cp.lo, cp.hi), *mc], clow))


def _exists(coords) -> list:
    """Comparisons stating that some point lies in every interval of its
    coordinates."""
    return [cond for items, low in coords for cond in _overlap_conds(items, low)]


def _escapes(f, u: SymDefSet, strand: str, coords: tuple, bases) -> list:
    """Systems, each with a base list, on which a point ``q`` of the piece
    (``strand``, ``coords``) has its image under ``f`` outside every piece
    of ``u``.

    Under a collapse the image is a constant point, and each piece of
    ``u`` gets one comparison it fails.  Under a shift, failing one
    comparison of a piece confines one coordinate of ``q`` to one more
    half-interval.  ``q`` itself is eliminated: it exists when the
    intervals of each coordinate overlap.  Systems that can never hold
    are pruned after each piece.
    """
    sm = f.strand_map(strand)
    if sm.collapses:
        at = tuple(SymExpr.const(c) for c in sm.point.coords)
        return _outside(u, sm.point.strand, at, [[*b, *_exists(coords)] for b in bases])
    states = [(b, coords) for b in bases]
    for piece in _strand_pieces(u, sm.target, len(coords)):
        grown = []
        for b, cs in states:
            for i, ((lo, hi), off) in enumerate(zip(piece, sm.offsets)):
                items, low = cs[i]
                fails = [] if isinstance(lo, float) else [(NEG_INF, lo - off - 1)]
                fails += [] if isinstance(hi, float) else [(hi - off + 1, INF)]
                for fail in fails:
                    new = (*cs[:i], ([*items, fail], low), *cs[i + 1 :])
                    if _conjoin([*b, *_exists(new)], _LIMITS_K) is not None:
                        grown.append((b, new))
        states = grown
    return [[*b, *_exists(cs)] for b, cs in states]


def _failures(f, rule: VicinityRule):
    """Comparison lists, one of which holds at a point ``p`` of the rule
    and a ``J >= 0`` exactly when every ``T_p(k)`` holds a point that
    ``f`` sends outside ``U_f(p)(J)``.

    For each target rule on the strand of ``f(p)``, its template is
    written in ``p``'s coordinates ``n``, ``m`` and in ``J``, with
    ``f(p)`` confined to a carrier box of its pattern, and each piece of
    ``T_p(k)`` gives the systems of :func:`_escapes`.  ``f`` sends the
    source carrier into the target carrier, which is every template's
    mask, so the mask of ``U`` can be left aside.
    """
    x, y = f.source, f.target
    pat = rule.pattern
    sm = f.strand_map(pat.strand)
    if sm.collapses:
        strand, at = sm.point.strand, [SymExpr.const(c) for c in sm.point.coords]
    else:
        strand, at = sm.target, [var(v) + off for v, off in zip(pat.vars, sm.offsets)]
    image = dict(zip(("n", "m"), at))
    for target_rule in y.rules:
        if target_rule.pattern.strand != strand:
            continue
        u = target_rule.template.substitute({**image, "k": _J})
        bases = [
            [*box, *((e1.substitute(image), e2.substitute(image)) for e1, e2 in tbox), (SymExpr.const(0), _J)]
            for box in _carrier_conds(x.schema, pat, x.carrier)
            for tbox in _carrier_conds(y.schema, target_rule.pattern, y.carrier)
        ]
        for q_strand, coords in _template_pieces(rule.template):
            yield from _escapes(f, u, q_strand, coords, bases)


def sym_discontinuity(f) -> tuple | None:
    """A point ``p`` and a parameter ``j`` at which the strand-wise map
    ``f`` (a :class:`~pretop.symbolic.maps.SymbolicMap`) is not
    continuous, or None when it is continuous.

    ``f`` fails at ``p`` when, for some ``J >= 0``, every vicinity
    ``T_p(k)`` holds a point ``q`` with ``f(q)`` outside ``U_f(p)(J)``.
    The family is decreasing in ``k``, so "every ``k``" is its eventual
    truth, and each system of :func:`_failures` is decided with ``k`` as
    the limit.  The witness point comes from the first satisfiable
    system, its coordinates fixed in turn to the feasible value nearest
    0; ``j`` is the least ``J`` that fails there.
    """
    for rule in f.source.rules:
        systems = list(_failures(f, rule))
        first = next((s for s in (_conjoin(c, _LIMITS_K) for c in systems) if s is not None), None)
        if first is None:
            continue
        env = _solution(first, ("n", "m"))
        at_p = _bound_conds({v: (env[v], env[v]) for v in rule.pattern.vars})
        fails = (_conjoin([*c, *at_p], _LIMITS_K) for c in systems)
        return _point_of(rule.pattern, env), min(_solution(s, ("J",))["J"] for s in fails if s is not None)
    return None
