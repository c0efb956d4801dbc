"""Maps between rule-presented spaces.

A map is given strand by strand: a shift of the coordinates of a ray or
grid strand onto a strand of the same shape, or the collapse of a whole
strand to one target point.  The image of a definable set is definable
again, with every endpoint moved by its offset.  Validation is one
inclusion, the image of the source carrier inside the target carrier.

Continuity is decided exactly on the comparison systems of
:mod:`~pretop.symbolic.utvpi`; nothing is sampled.  A strand-wise map
is discontinuous at ``p`` when, for some ``J``, every vicinity
``T_p(k)`` holds a point ``q`` sent outside the target vicinity
``U(J)`` of ``p``'s image.  Under a shift, ``q``'s image failing one
comparison of a piece of ``U`` is one more half-interval on one
coordinate of ``q``; under a collapse the image is a constant point.
``q`` moves as ``k`` grows, so it is eliminated by interval overlap
rather than kept free, and each system left in ``p``'s coordinates and
``J`` is decided with ``k`` as the limit.
"""

from __future__ import annotations

from ..defsets import DefSet, Point
from ..errors import SchemaMismatch, UnclassifiableImageTrace, UnknownPoint
from ..finite import Verdict
from ..intervals import INF, NEG_INF, IntervalSet
from ..record import record
from .analysis import EndClass
from .exprs import SymDefSet, SymExpr, var
from .space import SymbolicPretop, VicinityRule
from .utvpi import LIMITS_K, bound_conds, carrier_conds, conjoin, outside, overlap_conds, solution, template_pieces

_J = var("J")


@record
class StrandMap:
    """Action of a map on one source strand.

    Either a shift onto a target strand of the same shape, with one
    integer offset per coordinate, or ``to_point`` collapsing the strand.
    """

    target: str | None = None
    offsets: tuple = ()
    point: Point | None = None

    @classmethod
    def shift(cls, target: str, *offsets: int) -> "StrandMap":
        return cls(target, tuple(offsets))

    @classmethod
    def to_point(cls, p: Point) -> "StrandMap":
        return cls(point=p)

    @property
    def collapses(self) -> bool:
        return self.point is not None

    def describe(self) -> str:
        if self.collapses:
            return f"-> {self.point.describe()}"
        inner = ", ".join("i" if o == 0 else f"i{o:+d}" for o in self.offsets)
        return f"-> {self.target}({inner})"


@record
class SymbolicMap:
    """Total map between two rule-presented spaces, given per strand.

    Build through :func:`build_sym_map`, which checks shape agreement
    and that the image of the source carrier lies in the target carrier.
    """

    source: SymbolicPretop
    target: SymbolicPretop
    strands: tuple  # ((source strand name, StrandMap), ...)
    label: str = ""

    def strand_map(self, name: str) -> StrandMap:
        for n, sm in self.strands:
            if n == name:
                return sm
        raise UnknownPoint(f"map does not cover strand {name!r}")

    def apply(self, p: Point) -> Point:
        """Image of one point, validated against the target space."""
        p.validate(self.source.schema)
        sm = self.strand_map(p.strand)
        if sm.collapses:
            q = sm.point
        else:
            q = Point(sm.target, tuple(c + o for c, o in zip(p.coords, sm.offsets)))
        q.validate(self.target.schema)
        if self.target.carrier is not None and q not in self.target.carrier:
            raise UnknownPoint(f"image {q.describe()} lies outside the target carrier")
        return q

    def describe(self) -> str:
        head = self.label or "map"
        lines = [f"{head}: {self.source.label or 'source'} -> {self.target.label or 'target'}"]
        for n, sm in self.strands:
            lines.append(f"  {n} {sm.describe()}")
        return "\n".join(lines)


def build_sym_map(
    source: SymbolicPretop,
    target: SymbolicPretop,
    assignments: dict,
    label: str = "",
) -> SymbolicMap:
    """Assemble and validate a strand-wise map.

    ``assignments`` maps each source strand name to a StrandMap, a
    target Point (collapse), or a bare target strand name (identity
    action).  Every strand must be covered; atoms must collapse.  Each
    collapse point must be a point of the target schema, and the image
    of the source carrier must lie in the target carrier; otherwise
    :class:`~pretop.errors.UnknownPoint` names an offending image point.
    """
    table = []
    target_axes = dict(target.schema.strands)
    for name, own in source.schema.strands:
        if name not in assignments:
            raise UnknownPoint(f"no assignment for strand {name!r}")
        sm = assignments[name]
        arity = len(own)
        if isinstance(sm, Point):
            sm = StrandMap.to_point(sm)
        elif isinstance(sm, str):
            sm = StrandMap.to_point(Point.atom(sm)) if not arity else StrandMap.shift(sm, *(0,) * arity)
        if sm.collapses:
            sm.point.validate(target.schema)
        elif not arity:
            raise SchemaMismatch(f"atom {name!r} needs a target point, not an axis action")
        elif len(sm.offsets) != arity or len(target_axes.get(sm.target, ())) != arity:
            raise SchemaMismatch(f"strand {name!r} maps to {sm.target!r} with mismatched shape")
        table.append((name, sm))
    extra = set(assignments) - {name for name, _ in source.schema.strands}
    if extra:
        raise UnknownPoint(f"assignment for unknown strand {sorted(extra)[0]!r}")

    f = SymbolicMap(source, target, tuple(table), label)
    stray = sym_image(f, source.carrier_set) - target.carrier_set
    if not stray.is_empty():
        q = next(stray.iter_sample_points())
        raise UnknownPoint(f"image {q.describe()} lies outside the target carrier")
    return f


def sym_identity(x: SymbolicPretop) -> SymbolicMap:
    return build_sym_map(x, x, {name: name for name, _ in x.schema.strands}, label="id")


# -- images ------------------------------------------------------------------

def _shifted(sm: StrandMap, box: tuple, axes: tuple) -> tuple:
    """The image of a box of source coordinate sets under a shift, one
    set per target axis.  Clipping at an ℕ floor would drop an image
    point below it silently, so such a point is named first."""
    for i, (s, off, ax) in enumerate(zip(box, sm.offsets, axes)):
        if ax.low is None:
            continue
        below = s & IntervalSet.from_pairs(s.axis, [(None, ax.low - off - 1)])
        if not below.is_empty():
            coords = [t.least() + o for t, o in zip(box, sm.offsets)]
            coords[i] = below.least() + off
            q = Point(sm.target, tuple(coords))
            raise UnknownPoint(f"image {q.describe()} lies below the floor of {sm.target!r}")
    return tuple(
        IntervalSet.from_pairs(ax, [(lo + off, hi + off) for lo, hi in s.parts])
        for s, off, ax in zip(box, sm.offsets, axes)
    )


def sym_image(f: SymbolicMap, s: DefSet) -> DefSet:
    """Exact forward image of a definable set: each endpoint of a shifted
    strand moves by its offset, and a collapsed strand meeting ``s``
    adds its point."""
    if s.schema != f.source.schema:
        raise SchemaMismatch("set uses a different ground schema than the map's source")
    s = s & f.source.carrier_set
    schema = f.target.schema
    points, strands = [], {}
    for name, boxes in s.parts:
        sm = f.strand_map(name)
        if sm.collapses:
            points.append(sm.point)
        else:
            axes = schema.axes(sm.target)
            strands.setdefault(sm.target, []).extend(_shifted(sm, box, axes) for box in boxes)
    out = DefSet.of(schema, strands)
    for q in points:
        out = out | DefSet.point(schema, q)
    return out


# -- continuity ---------------------------------------------------------------

def _escapes(f: SymbolicMap, u: SymDefSet, strand: str, coords: tuple, bases) -> list:
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
        return outside(u, sm.point.strand, at, [[*b, *overlap_conds(coords)] for b in bases])
    states = [(b, coords) for b in bases]
    for name, piece in template_pieces(u, masked=False):
        if name != sm.target:
            continue
        grown = []
        for b, cs in states:
            for i, (([(lo, hi)], _), off) in enumerate(zip(piece, sm.offsets)):
                items, low = cs[i]
                fails = [] if isinstance(lo, float) else [(NEG_INF, lo - off - 1)]
                fails += [] if isinstance(hi, float) else [(hi - off + 1, INF)]
                for fail in fails:
                    new = (*cs[:i], ([*items, fail], low), *cs[i + 1 :])
                    if conjoin([*b, *overlap_conds(new)], LIMITS_K) is not None:
                        grown.append((b, new))
        states = grown
    return [[*b, *overlap_conds(cs)] for b, cs in states]


def _failures(f: SymbolicMap, rule: VicinityRule):
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
            for box in carrier_conds(x.schema, pat, x.carrier)
            for tbox in carrier_conds(y.schema, target_rule.pattern, y.carrier)
        ]
        for q_strand, coords in template_pieces(rule.template):
            yield from _escapes(f, u, q_strand, coords, bases)


def sym_is_continuous(f: SymbolicMap) -> Verdict:
    """Continuity verdict with a (point, parameter) witness on failure.

    ``f`` is continuous at ``p`` when for every ``j`` some ``k`` gives
    ``f(T_p(k)) ⊆ U_f(p)(j)``.  It fails at ``p`` when, for some
    ``J >= 0``, every vicinity ``T_p(k)`` holds a point ``q`` with
    ``f(q)`` outside ``U_f(p)(J)``.  The family is decreasing in ``k``,
    so "every ``k``" is its eventual truth, and each system of
    :func:`_failures` is decided with ``k`` as the limit.  The witness
    point comes from the first satisfiable system, its coordinates fixed
    in turn to the feasible value nearest 0; its parameter is the least
    ``J`` that fails there.
    """
    for rule in f.source.rules:
        systems = list(_failures(f, rule))
        first = next((s for s in (conjoin(c, LIMITS_K) for c in systems) if s is not None), None)
        if first is None:
            continue
        env = solution(first, ("n", "m"))
        at_p = bound_conds({v: (env[v], env[v]) for v in rule.pattern.vars})
        fails = (conjoin([*c, *at_p], LIMITS_K) for c in systems)
        j = min(solution(s, ("J",))["J"] for s in fails if s is not None)
        return Verdict(False, (rule.pattern.point(env), j))
    return Verdict(True, None)


# -- ends under a map ----------------------------------------------------------

def image_end(f: SymbolicMap, e: EndClass):
    """Image of an end class: a target end class, or a Point when the
    strand collapses (the image trace is then principal)."""
    sm = f.strand_map(e.strand)
    if sm.collapses:
        return sm.point
    for side, ax in zip(e.sides, f.target.schema.axes(sm.target, e.kind)):
        if side == "minus" and ax.kind == "nat":
            raise UnclassifiableImageTrace(f"{e.describe()} maps toward the floor of {sm.target!r}")
    fixed = e.fixed
    if fixed is not None:
        fixed += sm.offsets[e.sides.index("fixed")]
    elif "fixed" in e.sides:
        raise UnclassifiableImageTrace(f"pin {e.describe()} before mapping it")
    return EndClass(sm.target, e.sides, fixed)
