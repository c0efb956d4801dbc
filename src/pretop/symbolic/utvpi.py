"""The comparison-system core of the symbolic engine.

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

The API, in three parts:

- comparison systems: :func:`conjoin` decides a list of comparisons,
  :func:`solution` fixes a witness, and :func:`bound_conds` and
  :func:`overlap_conds` write boxes and shared points as comparisons;
- pieces: :func:`template_pieces` is the one walk over the pieces of a
  symbolic set, a piece being one box (an endpoint pair per axis) with
  one part of the set's mask, and :func:`meet_conds`, :func:`meets_boxes`,
  :func:`carrier_conds`, :func:`region_boxes` and :func:`outside` state
  meets, carrier boxes and escapes with it;
- the projection: :func:`section` sorts one system by what each
  comparison bounds, and :func:`cells` cuts the outer range into cells,
  each with the :func:`pieces` of every section nonempty on it.

A comparison that cannot be decided inside the fragment raises
:class:`~pretop.errors.FragmentEscape` rather than approximate.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from ..defsets import DefSet, GroundSchema
from ..errors import FragmentEscape
from ..intervals import INF, NEG_INF, IntervalSet
from .exprs import SymDefSet, SymExpr, split_boxes, var
from .space import PointPattern, SymbolicPretop

# the limit variables: the shrink parameter, and an end's trace parameter
LIMITS_K = frozenset(("k",))
LIMITS_KB = frozenset(("k", "b"))


# -- comparison systems ---------------------------------------------------------

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


def conjoin(conds, limits: frozenset):
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


def solution(system, names) -> dict:
    """Integer point of a satisfiable system, fixing each of ``names`` in
    turn to its feasible value nearest 0."""
    box, ties = (system, ()) if isinstance(system, dict) else system
    env = {}
    for name in names:
        lo, hi = box.get(name, (NEG_INF, INF))
        env[name] = min(max(0, lo), hi)
        box = _tight_box({**box, name: (env[name], env[name])}, ties)
    return env


def bound_conds(box: dict, tag: str = "") -> list:
    """Comparisons confining each variable of the box, renamed
    ``<var><tag>``, to its finite bounds."""
    conds = []
    for v, (lo, hi) in box.items():
        if lo != NEG_INF:
            conds.append((SymExpr.const(lo), var(v + tag)))
        if hi != INF:
            conds.append((var(v + tag), SymExpr.const(hi)))
    return conds


def overlap_conds(coords) -> list:
    """Comparisons stating that some point lies in every interval of each
    coordinate, given as (intervals, axis floor) pairs.

    A common point exists when every lower endpoint sits at or below
    every upper endpoint; the axis floor (None on a two-sided axis)
    joins as one more lower endpoint so that clipping needs no cases.
    """
    conds = []
    for intervals, low in coords:
        los = [lo for lo, _ in intervals] + ([] if low is None else [SymExpr.const(low)])
        conds += [(lo, hi) for lo in los for _, hi in intervals]
    return conds


# -- pieces of symbolic sets -----------------------------------------------------

def template_pieces(t: SymDefSet, masked: bool = True):
    """(strand, coordinates) of each piece of ``t``: a box of ``t``
    together with, when ``masked``, one part of ``t``'s mask.  Per
    coordinate a piece lists the intervals a point of it lies in, the
    box's endpoint pair first, then the mask part's, and the axis floor
    (None on a two-sided axis).  An atom is a piece without coordinates.
    Pieces come box by box, then mask part by mask part."""
    schema, mask = t.schema, t.mask if masked else None
    for name, boxes in t.parts:
        lows = [ax.low for ax in schema.axes(name)]
        cuts = [((),) * len(lows)] if mask is None else [[(p,) for p in b] for b in split_boxes(mask.boxes(name))]
        for box in boxes:
            for cut in cuts:
                yield name, tuple(([pair, *m], low) for pair, m, low in zip(box, cut, lows))


def meet_conds(left: SymDefSet, right: SymDefSet):
    """Comparison lists, one per pair of pieces of the two sets on one
    strand, each stating that the sets share a point in those pieces.
    Each coordinate lists the two pieces' own intervals before their
    masks': the order of the candidates decides which of several equal
    endpoints :func:`pieces` keeps."""
    theirs = {}
    for strand, coords in template_pieces(right):
        theirs.setdefault(strand, []).append(coords)
    for strand, mine in template_pieces(left):
        for other in theirs.get(strand, ()):
            yield overlap_conds(([a[0], b[0], *a[1:], *b[1:]], low) for (a, low), (b, _) in zip(mine, other))


def meets_boxes(left: SymDefSet, right: SymDefSet, limits: frozenset, extra=([],)) -> list:
    """Satisfiable free-variable systems on which the two sets share a
    point, in :func:`meet_conds` order.

    Each piece pair's comparisons are conjoined with each list in
    ``extra`` in turn.  The answer is eventual in the limit variables,
    which is the value of the universal question for families
    decreasing in them.  An empty box holds unconditionally; no systems
    means never.
    """
    out = []
    for conds in meet_conds(left, right):
        for more in extra:
            system = conjoin(conds + more, limits)
            if system is not None:
                out.append(system)
    return out


def region_boxes(schema: GroundSchema, pat: PointPattern, s: DefSet):
    """Coordinate boxes of the pattern's region intersected with ``s``."""
    return _region(pat.vars, pat.selectors(schema), s.boxes(pat.strand))


def _region(names: tuple, sels: tuple, boxes):
    for box in boxes:
        for ps in product(*((b & sel).parts for b, sel in zip(box, sels))):
            yield dict(zip(names, ps))


def carrier_conds(schema: GroundSchema, pat: PointPattern, carrier, tag: str = "") -> tuple:
    """Comparison lists, one per box of the pattern's carrier points,
    confining its coordinates renamed ``n<tag>`` and ``m<tag>``.  They are
    cached on the pattern's selectors and the carrier's boxes on its
    strand, not on the schema and the carrier, whose hashes walk every
    strand."""
    sels = pat.selectors(schema)
    if carrier is None:
        boxes = (tuple(IntervalSet.full(s.axis) for s in sels),)
    else:
        boxes = carrier.boxes(pat.strand)
    return _carrier_conds(pat.vars, sels, boxes, tag)


@lru_cache(maxsize=None)
def _carrier_conds(names: tuple, sels: tuple, boxes: tuple, tag: str) -> tuple:
    return tuple(tuple(bound_conds(box, tag)) for box in _region(names, sels, boxes))


def outside(t: SymDefSet, strand: str, coords: tuple, bases) -> list:
    """Satisfiable systems on which the point of ``strand`` at ``coords``
    lies outside every piece of ``t`` there, ``t``'s mask aside: a base
    list and, for each piece, one comparison the point fails.  An atom
    of ``t`` is a piece with no comparison to fail."""
    systems = [b for b in bases if conjoin(b, frozenset()) is not None]
    for name, piece in template_pieces(t, masked=False):
        if name != strand:
            continue
        fails = [cond for ([(lo, hi)], _), x in zip(piece, coords) for cond in ((x + 1, lo), (hi + 1, x))]
        systems = [[*s, f] for s in systems for f in fails if conjoin([*s, f], frozenset()) is not None]
    return systems


# -- the projection onto outer variables ------------------------------------------

class _Open(Exception):
    """A comparison that a cell leaves open on one outer variable; it
    holds where the variable lies in ``inside``."""

    def __init__(self, name: str, inside: IntervalSet):
        super().__init__(name)
        self.name, self.inside = name, inside


def section(pat: PointPattern, conds: list, limits: frozenset, closed: bool = False):
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
        if conjoin(rest + [(e2 + 1, e1)], limits) is not None:
            if closed:
                raise FragmentEscape(f"comparison ties {e1.var} to {e2.var}")
            system = conjoin(conds, limits)
            if system is None:
                return None
            box = system[0]
            return section(pat, [*bound_conds({v: box[v] for v in inner if v in box}), *conds], limits, True)
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
    below when not ``top``), the last of several equal ones; infinite
    when there is none."""
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


def pieces(cell: dict, sections: list, limits: frozenset) -> list:
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


def cells(x: SymbolicPretop, pat: PointPattern | None, cell: dict, sections: list, limits: frozenset) -> list:
    """(cell, pieces) pairs in ascending coordinate order, covering the
    carrier points of the cell.

    An open comparison on ``N``, ``M`` or ``P`` cuts the cell at its
    threshold.  One on ``K`` raises the cell's floor of ``K`` to the side
    that every large ``K`` reaches: a decreasing family and its tail
    generate the same filter.  Without a pattern (``pat`` None) the
    outer variables are no point's coordinates, and every cell is kept.
    """
    if pat is not None:
        sub = PointPattern(pat.strand, tuple(cell[v.upper()] for v in pat.vars))
        if not sub.to_defset(x.schema).meets(x.carrier_set):
            return []
    try:
        return [(cell, pieces(cell, sections, limits))]
    except _Open as cut:
        rest = cell[cut.name] - cut.inside
        if cut.name == "K":
            tail = cut.inside if cut.inside.has_plus_end() else rest
            return cells(x, pat, {**cell, "K": tail}, sections, limits)
        halves = sorted((cut.inside, rest), key=lambda s: s.parts)
        return [c for half in halves for c in cells(x, pat, {**cell, cut.name: half}, sections, limits)]
