"""Maps between rule-presented spaces.

A map is given strand by strand: an affine action on the coordinates of
a ray or grid strand, or the collapse of a whole strand to one target
point.  Images of definable sets stay definable exactly when every
stretching is avoidable (scale one, or singleton and finite pieces);
anything else raises ``FragmentEscape`` rather than approximating.
Continuity is decided by the vicinity route: templates are compared on
a window wide enough to settle unit-slope facts, with guard offsets
catching any residual drift.
"""

from __future__ import annotations

from ..defsets import DefSet, GroundSchema, Point
from ..errors import FragmentEscape, SchemaMismatch, UnclassifiableImageTrace, UnknownPoint
from ..finite import Verdict
from ..intervals import INF, NEG_INF, AxisDomain, IntervalSet
from ..record import record
from .analysis import EndClass, sym_adh
from .solve import GUARD_OFFSETS, stabilization
from .space import SymbolicPretop, VicinityRule

# widest finite interval an image computation will enumerate pointwise
_ENUMERATION_CAP = 4096


def _validation_window(bound: int) -> int:
    """Sampling radius of map validation and continuity.

    A strand map with scale > 1 falls outside the unit-slope comparisons
    that the rest of the engine decides exactly, so these two checks
    still sample the source points within this radius: a few times the
    largest constant of the map and its two spaces, beyond every
    endpoint of their templates and selectors.
    """
    return 6 * bound + 12


def _axis_samples(axis: AxisDomain, selector: IntervalSet, w: int) -> list:
    lo = -w if axis.kind == "int" else axis.low
    return [x for x in range(lo, w + 1) if x in selector]


def _rule_points(schema: GroundSchema, rule: VicinityRule, carrier: DefSet | None, w: int) -> list:
    """Sample points covered by the rule within the window."""
    pat = rule.pattern
    if pat.kind == "atom":
        pts = [Point.atom(pat.strand)]
    elif pat.kind == "ray":
        (rows,) = pat.selectors(schema)
        pts = [Point.ray(pat.strand, n) for n in _axis_samples(schema.ray_axis(pat.strand), rows, w)]
    else:
        rows, cols = pat.selectors(schema)
        rows_ax, cols_ax = schema.grid_axes(pat.strand)
        pts = [
            Point.grid(pat.strand, n, m)
            for n in _axis_samples(rows_ax, rows, w)
            for m in _axis_samples(cols_ax, cols, w)
        ]
    return pts if carrier is None else [p for p in pts if p in carrier]


@record
class AffineAxis:
    """One coordinate action ``i -> scale*i + offset`` with scale >= 1."""

    scale: int = 1
    offset: int = 0

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"axis scale must be at least 1, got {self.scale}")

    def __call__(self, i: int) -> int:
        return self.scale * i + self.offset

    def endpoint(self, e):
        return e if e == INF or e == NEG_INF else self.scale * e + self.offset

    def describe(self) -> str:
        head = "i" if self.scale == 1 else f"{self.scale}i"
        if self.offset == 0:
            return head
        return f"{head}{self.offset:+d}"


@record
class StrandMap:
    """Action of a map on one source strand.

    Either ``affine`` onto a target strand of the same shape, with one
    axis action per coordinate, or ``to_point`` collapsing the strand.
    """

    target: str | None = None
    axes: tuple = ()
    point: Point | None = None

    @classmethod
    def affine(cls, target: str, *axes: AffineAxis) -> "StrandMap":
        return cls(target, tuple(axes))

    @classmethod
    def shift(cls, target: str, *offsets: int) -> "StrandMap":
        return cls(target, tuple(AffineAxis(1, o) for o in offsets))

    @classmethod
    def to_point(cls, p: Point) -> "StrandMap":
        return cls(point=p)

    @property
    def collapses(self) -> bool:
        return self.point is not None

    def describe(self) -> str:
        if self.collapses:
            return f"-> {self.point.describe()}"
        inner = ", ".join(a.describe() for a in self.axes)
        return f"-> {self.target}({inner})"


@record
class SymbolicMap:
    """Total map between two rule-presented spaces, given per strand.

    Build through :func:`build_sym_map`, which checks shape agreement
    and that sampled images land on the target carrier.
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

    @property
    def scale_one(self) -> bool:
        return all(
            a.scale == 1 for _, sm in self.strands if not sm.collapses for a in sm.axes
        )

    @property
    def bound(self) -> int:
        b = max(self.source.bound, self.target.bound)
        for _, sm in self.strands:
            if sm.collapses:
                b = max(b, max((abs(c) for c in sm.point.coords), default=0))
            else:
                for a in sm.axes:
                    b = max(b, a.scale, abs(a.offset))
        return b

    def apply(self, p: Point) -> Point:
        """Image of one point, validated against the target space."""
        p.validate(self.source.schema)
        sm = self.strand_map(p.strand)
        if sm.collapses:
            q = sm.point
        else:
            q = Point(sm.target, tuple(a(c) for a, c in zip(sm.axes, p.coords)))
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
    action).  Every strand must be covered; atoms must collapse.
    """
    table = []
    names = list(source.schema.atoms)
    names += [n for n, _ in source.schema.rays]
    names += [n for n, *_ in source.schema.grids]
    for name in names:
        if name not in assignments:
            raise UnknownPoint(f"no assignment for strand {name!r}")
        sm = assignments[name]
        if isinstance(sm, Point):
            sm = StrandMap.to_point(sm)
        elif isinstance(sm, str):
            arity = 1 if any(n == name for n, _ in source.schema.rays) else 2
            if source.schema.has_atom(name):
                sm = StrandMap.to_point(Point.atom(sm))
            else:
                sm = StrandMap.affine(sm, *(AffineAxis() for _ in range(arity)))
        if not sm.collapses:
            if source.schema.has_atom(name):
                raise SchemaMismatch(f"atom {name!r} needs a target point, not an axis action")
            src_arity = 1 if any(n == name for n, _ in source.schema.rays) else 2
            tgt_arity = 1 if any(n == sm.target for n, _ in target.schema.rays) else 2
            if sm.target in target.schema.atoms or len(sm.axes) != src_arity or src_arity != tgt_arity:
                raise SchemaMismatch(
                    f"strand {name!r} maps to {sm.target!r} with mismatched shape"
                )
        table.append((name, sm))
    extra = set(assignments) - set(names)
    if extra:
        raise UnknownPoint(f"assignment for unknown strand {sorted(extra)[0]!r}")

    f = SymbolicMap(source, target, tuple(table), label)
    w = _validation_window(f.bound)
    for rule in source.rules:
        for p in _rule_points(source.schema, rule, source.carrier, w):
            f.apply(p)  # raises UnknownPoint when the image leaves the target
    return f


def sym_identity(x: SymbolicPretop) -> SymbolicMap:
    assignments: dict = {a: Point.atom(a) for a in x.schema.atoms}
    for n, _ in x.schema.rays:
        assignments[n] = n
    for n, *_ in x.schema.grids:
        assignments[n] = n
    return build_sym_map(x, x, assignments, label="id")


# -- images ------------------------------------------------------------------

def _interval_image(a: AffineAxis, lo, hi):
    """Image pairs of one interval and whether they are exact."""
    if a.scale == 1:
        return [(a.endpoint(lo), a.endpoint(hi))], True
    if lo == hi:
        return [(a(lo), a(lo))], True
    if lo != NEG_INF and hi != INF and hi - lo + 1 <= _ENUMERATION_CAP:
        return [(a(i), a(i)) for i in range(lo, hi + 1)], True
    return [(a.endpoint(lo), a.endpoint(hi))], False


def _image_with_flag(f: SymbolicMap, s: DefSet) -> tuple:
    if s.schema != f.source.schema:
        raise SchemaMismatch("set uses a different ground schema than the map's source")
    s = s & f.source.carrier_set
    atoms = set()
    ray_parts: dict = {}
    grid_rects: dict = {}
    exact = True

    def add_point(q: Point):
        if not q.coords:
            atoms.add(q.strand)
        elif len(q.coords) == 1:
            ray_parts.setdefault(q.strand, []).append((q.coords[0], q.coords[0]))
        else:
            rows_ax, cols_ax = f.target.schema.grid_axes(q.strand)
            grid_rects.setdefault(q.strand, []).append(
                (
                    IntervalSet.single(rows_ax, q.coords[0]),
                    IntervalSet.single(cols_ax, q.coords[1]),
                )
            )

    for a in s.atoms:
        add_point(f.strand_map(a).point)
    for name, iset in s.rays:
        if iset.is_empty():
            continue
        sm = f.strand_map(name)
        if sm.collapses:
            add_point(sm.point)
            continue
        for lo, hi in iset.parts:
            pairs, ok = _interval_image(sm.axes[0], lo, hi)
            exact = exact and ok
            ray_parts.setdefault(sm.target, []).extend(pairs)
    for name, groups in s.grids:
        if not groups:
            continue
        sm = f.strand_map(name)
        if sm.collapses:
            add_point(sm.point)
            continue
        rows_ax, cols_ax = f.target.schema.grid_axes(sm.target)
        for rows, cols in groups:
            rpairs, rok = [], True
            for lo, hi in rows.parts:
                ps, ok = _interval_image(sm.axes[0], lo, hi)
                rpairs.extend(ps)
                rok = rok and ok
            cpairs, cok = [], True
            for lo, hi in cols.parts:
                ps, ok = _interval_image(sm.axes[1], lo, hi)
                cpairs.extend(ps)
                cok = cok and ok
            exact = exact and rok and cok
            rset = IntervalSet.from_pairs(
                rows_ax, [(None if lo == NEG_INF else lo, None if hi == INF else hi) for lo, hi in rpairs]
            )
            cset = IntervalSet.from_pairs(
                cols_ax, [(None if lo == NEG_INF else lo, None if hi == INF else hi) for lo, hi in cpairs]
            )
            grid_rects.setdefault(sm.target, []).append((rset, cset))

    parts = {
        n: IntervalSet.from_pairs(
            f.target.schema.ray_axis(n),
            [(None if lo == NEG_INF else lo, None if hi == INF else hi) for lo, hi in ps],
        )
        for n, ps in ray_parts.items()
    }
    img = DefSet.build(f.target.schema, atoms=atoms, ray_parts=parts, grid_rects=grid_rects)
    return img, exact


def sym_image(f: SymbolicMap, s: DefSet) -> DefSet:
    """Exact forward image of a definable set."""
    img, exact = _image_with_flag(f, s)
    if not exact:
        raise FragmentEscape(
            "image of an infinite piece under a stretching map is not definable"
        )
    return img


# -- continuity ---------------------------------------------------------------

def _image_inside(f: SymbolicMap, v: DefSet, w: DefSet) -> bool:
    img, exact = _image_with_flag(f, v)
    if img.subset_of(w):
        return True
    if not exact:
        raise FragmentEscape(
            "continuity undecided: stretched image only known up to a bounding interval"
        )
    return False


def sym_is_continuous(f: SymbolicMap, method: str = "vicinity", probes=None) -> Verdict:
    """Continuity verdict with a (point, parameter) witness on failure.

    ``vicinity`` is the decision procedure: at every sampled source
    point and every target parameter ``j``, some source parameter must
    push the image of the vicinity inside the target vicinity; by
    monotonicity it is enough to test one sufficiently large parameter,
    and a guard re-test protects against an unsettled window.  The
    ``adh-set`` method replays the adherence-image inclusion on a finite
    family of probe sets; failures are definitive, passes corroborate.
    """
    if method == "adh-set":
        return _adh_probe_check(f, probes)
    if method != "vicinity":
        raise ValueError(f"unknown method {method!r}")
    b = f.bound
    w = _validation_window(b)
    jtop = stabilization(b)
    for rule in f.source.rules:
        for p in _rule_points(f.source.schema, rule, f.source.carrier, w):
            y = f.apply(p)
            t = f.source.template_at(p)
            u = f.target.template_at(y)
            js = [0]
            if "k" in u.vars:
                js = list(range(jtop + 1)) + [jtop + g for g in GUARD_OFFSETS]
            weight = sum(abs(c) for c in p.coords) + sum(abs(c) for c in y.coords)
            for j in js:
                wset = u.evaluate({"k": j})
                if "k" not in t.vars:
                    if not _image_inside(f, t.evaluate({"k": 0}), wset):
                        return Verdict(False, (p, j))
                    continue
                kbig = j + stabilization(b + weight)
                ok = _image_inside(f, t.evaluate({"k": kbig}), wset)
                if ok != _image_inside(f, t.evaluate({"k": kbig + 9}), wset):
                    raise FragmentEscape(
                        f"continuity at {p.describe()} not settled within the window"
                    )
                if not ok:
                    return Verdict(False, (p, j))
    return Verdict(True, None)


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
        a = sm.axes[0] if e.row == "fixed" else sm.axes[1]
        fixed = a(fixed)
    elif "fixed" in (e.row, e.col):
        raise UnclassifiableImageTrace(f"pin {e.describe()} before mapping it")
    return EndClass(sm.target, "grid", e.row, e.col, fixed)
