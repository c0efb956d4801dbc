"""Maps between rule-presented spaces.

A map is given strand by strand: a shift of the coordinates of a ray or
grid strand onto a strand of the same shape, or the collapse of a whole
strand to one target point.  The image of a definable set is definable
again, with every endpoint moved by its offset.  Validation is one
inclusion, the image of the source carrier inside the target carrier,
and continuity is decided exactly on the comparison systems of
:func:`~pretop.symbolic.analysis.sym_discontinuity`; nothing is sampled.
"""

from __future__ import annotations

from ..defsets import DefSet, GroundSchema, Point
from ..errors import SchemaMismatch, UnclassifiableImageTrace, UnknownPoint
from ..finite import Verdict
from ..intervals import IntervalSet
from ..record import record
from .analysis import EndClass, sym_adh, sym_discontinuity
from .space import SymbolicPretop


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


def _strand_axes(schema: GroundSchema) -> dict:
    """The coordinate axes of each strand, in schema order; none for an
    atom."""
    out = {a: () for a in schema.atoms}
    out.update((n, (ax,)) for n, ax in schema.rays)
    out.update((n, (rows, cols)) for n, rows, cols in schema.grids)
    return out


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
    axes, target_axes = _strand_axes(source.schema), _strand_axes(target.schema)
    for name, own in axes.items():
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
    extra = set(assignments) - set(axes)
    if extra:
        raise UnknownPoint(f"assignment for unknown strand {sorted(extra)[0]!r}")

    f = SymbolicMap(source, target, tuple(table), label)
    stray = sym_image(f, source.carrier_set) - target.carrier_set
    if not stray.is_empty():
        q = next(stray.iter_sample_points())
        raise UnknownPoint(f"image {q.describe()} lies outside the target carrier")
    return f


def sym_identity(x: SymbolicPretop) -> SymbolicMap:
    return build_sym_map(x, x, {name: name for name in _strand_axes(x.schema)}, label="id")


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
    points = [f.strand_map(a).point for a in s.atoms]
    axes, rays, grids = _strand_axes(schema), {}, {}
    pieces = [(name, (iset,)) for name, iset in s.rays if not iset.is_empty()]
    pieces += [(name, group) for name, groups in s.grids for group in groups]
    for name, box in pieces:
        sm = f.strand_map(name)
        if sm.collapses:
            points.append(sm.point)
        elif len(box) == 1:
            rays.setdefault(sm.target, []).extend(_shifted(sm, box, axes[sm.target])[0].parts)
        else:
            grids.setdefault(sm.target, []).append(_shifted(sm, box, axes[sm.target]))
    ray_parts = {n: IntervalSet.from_pairs(schema.ray_axis(n), parts) for n, parts in rays.items()}
    out = DefSet.build(schema, (), ray_parts, grids)
    for q in points:
        out = out | DefSet.point(schema, q)
    return out


# -- continuity ---------------------------------------------------------------

def sym_is_continuous(f: SymbolicMap, method: str = "vicinity", probes=None) -> Verdict:
    """Continuity verdict with a (point, parameter) witness on failure.

    ``vicinity`` is the decision procedure: ``f`` is continuous at ``p``
    when for every ``j`` some ``k`` gives ``f(T_p(k)) ⊆ U_f(p)(j)``.  The
    failures form one family of comparison systems in ``p``'s
    coordinates and ``j``, with ``k`` resolved by its eventual truth,
    decided exactly by :func:`~pretop.symbolic.analysis.sym_discontinuity`;
    its witness fixes the coordinates, then ``j``, each nearest 0.  The
    ``adh-set`` method replays the adherence-image inclusion on a finite
    family of probe sets; failures are definitive, passes corroborate.
    """
    if method == "adh-set":
        return _adh_probe_check(f, probes)
    if method != "vicinity":
        raise ValueError(f"unknown method {method!r}")
    witness = sym_discontinuity(f)
    return Verdict(witness is None, witness)


def _default_probes(f: SymbolicMap) -> list:
    probes = []
    for rule in f.source.rules:
        region = rule.pattern.to_defset(f.source.schema) & f.source.carrier_set
        if not region.is_empty():
            probes.append(region)
        env = {v: 1 for v in rule.pattern.vars}
        inst = rule.template.substitute(env).evaluate({"k": 1}) & f.source.carrier_set
        if not inst.is_empty():
            probes.append(inst)
    for i in range(len(probes) - 1):
        if len(probes) >= 12:
            break
        probes.append(probes[i] | probes[i + 1])
    return probes


def _adh_probe_check(f: SymbolicMap, probes) -> Verdict:
    if probes is None:
        probes = _default_probes(f)
    for a in probes:
        left = sym_image(f, sym_adh(f.source, a))
        right = sym_adh(f.target, sym_image(f, a))
        stray = left - right
        if not stray.is_empty():
            q = next(stray.iter_sample_points())
            return Verdict(False, (a, q))
    return Verdict(True, None)


# -- ends under a map ----------------------------------------------------------

def image_end(f: SymbolicMap, e: EndClass):
    """Image of an end class: a target end class, or a Point when the
    strand collapses (the image trace is then principal)."""
    sm = f.strand_map(e.strand)
    if sm.collapses:
        return sm.point
    if e.kind == "ray":
        ax = f.target.schema.ray_axis(sm.target)
        if e.row == "minus" and ax.kind == "nat":
            raise UnclassifiableImageTrace(
                f"{e.describe()} maps toward the floor of {sm.target!r}"
            )
        return EndClass(sm.target, "ray", e.row)
    rows_ax, cols_ax = f.target.schema.grid_axes(sm.target)
    for side, ax in ((e.row, rows_ax), (e.col, cols_ax)):
        if side == "minus" and ax.kind == "nat":
            raise UnclassifiableImageTrace(
                f"{e.describe()} maps toward the floor of {sm.target!r}"
            )
    fixed = e.fixed
    if fixed is not None:
        fixed += sm.offsets[0] if e.row == "fixed" else sm.offsets[1]
    elif "fixed" in (e.row, e.col):
        raise UnclassifiableImageTrace(f"pin {e.describe()} before mapping it")
    return EndClass(sm.target, "grid", e.row, e.col, fixed)
