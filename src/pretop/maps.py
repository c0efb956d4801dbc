"""Map-level analysis between finite spaces.

A map is a total table from source points to target points.  Every
filter on a finite set is principal, so the filter quantifiers in the
characterizations below run over nonempty kernels.  Witness scans use
ascending-mask order, matching the space-level conventions.

Each route of :func:`is_continuous` and :func:`is_perfect` is two
steps.  Its decision core returns the first failing locus, as masks and
indices, or None when the route passes; its naming step turns that locus
into the route's witness, and runs only on failure.  The boolean
entry :func:`continuous` runs one core alone, so a caller that reads
only the verdict, as the oracle does, builds no names and no
:class:`~pretop.finite.Verdict`.  The finite routes the perfect
cores call are split the same way in ``finite`` (``compact_at_core``,
``cover_compact_core``), so no decision is written twice.  Each
continuity core stops at the first failing source point; the naming
steps of ``limit`` and ``inh`` then find the least failing kernel or
set, the one an ascending scan would report.  :func:`continuity_verdicts`
and :func:`perfect_verdicts` give the oracle every route's verdict and
run each distinct core once per map: adh-filter and adh-set share one
core, and the a-and-b route reuses the adh-inequality run for its half
(a).  The ``inh`` core reads the source's inherence operator, not the
formula of the ``vicinity`` core, so a wrong operator shows as a
disagreement.

A :class:`SpaceMap` is an immutable tuple ``(source, target, graph,
tables)``, built by one ``tuple.__new__`` after a cached lookup of the
graph's tables, which also checks the graph.  Its fields are read-only
properties; each core unpacks the tuple once instead.  The cores read
the map's image and preimage tables (union tables, which a mask indexes
directly: ``img[a]``, ``pre[b]``) and fibers once, and the small-image
operator :func:`f_sharp` is read from the image table too: j lies in
f#[a] exactly when it lies outside f[X minus a].  Every
space in the package keeps its least vicinities (and so its columns)
inside ``full``, so they skip the ``& full`` of the one-mask API,
``SpaceMap.image_mask`` and ``preimage_mask``.  Only this module reads
a map's tables (``tests/test_layout.py``), which keeps that invariant
where it is stated.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .errors import PointSetMismatch
from .finite import (
    PASS,
    FinitePretop,
    Verdict,
    compact_at_core,
    cover_compact_core,
    least_choice,
    union_tables,
)


@lru_cache(maxsize=1024)
def _map_tables(graph: tuple, source_n: int, target_n: int) -> tuple:
    """(image tables, preimage tables, fibers) of a graph.  They depend on
    the graph alone, so maps sharing one share them.  A graph of the wrong
    length or with an index out of range raises; the cache keeps no
    exception, so it raises every time."""
    if len(graph) != source_n:
        raise PointSetMismatch("graph must assign every source point")
    fibers = [0] * target_n
    for i, j in enumerate(graph):
        if not 0 <= j < target_n:
            raise PointSetMismatch(f"graph hits unknown target index {j}")
        fibers[j] |= 1 << i
    return union_tables([1 << j for j in graph]), union_tables(fibers), tuple(fibers)


class SpaceMap(tuple):
    """Total function between finite spaces, as a target-index table.

    The tuple ``(source, target, graph, tables)``; ``tables`` is
    :func:`_map_tables` of the graph and not a field: eq, hash and repr
    stay on source, target and graph, and a map equals no plain tuple.
    """

    __slots__ = ()

    def __new__(cls, source, target, graph):
        graph = tuple(graph)
        return tuple.__new__(cls, (source, target, graph, _map_tables(graph, source.n, target.n)))

    source = property(itemgetter(0))
    target = property(itemgetter(1))
    graph = property(itemgetter(2))
    _tables = property(itemgetter(3))

    def __getnewargs__(self):
        return self[:3]

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:3] == other[:3]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    def __repr__(self):
        return f"SpaceMap(source={self[0]!r}, target={self[1]!r}, graph={self[2]!r})"

    @classmethod
    def from_table(cls, source: FinitePretop, target: FinitePretop, table) -> "SpaceMap":
        try:
            graph = tuple(target.index(table[p]) for p in source.points)
        except KeyError as missing:
            raise PointSetMismatch(f"no image listed for point {missing}") from None
        return cls(source, target, graph)

    @classmethod
    def identity(cls, space: FinitePretop) -> "SpaceMap":
        return cls(space, space, tuple(range(space.n)))

    @classmethod
    def constant(cls, source: FinitePretop, target: FinitePretop, name: str) -> "SpaceMap":
        return cls(source, target, (target.index(name),) * source.n)

    def __call__(self, name: str) -> str:
        return self.target.points[self.graph[self.source.index(name)]]

    def image_mask(self, a: int) -> int:
        return self._tables[0][a & self.source.full]

    def preimage_mask(self, b: int) -> int:
        return self._tables[1][b & self.target.full]

    def fiber(self, j: int) -> int:
        return self._tables[2][j]

    def is_surjective(self) -> bool:
        return self.image_mask(self.source.full) == self.target.full


# -- continuity ------------------------------------------------------------------


def _limit_core(f: SpaceMap):
    """Image filters of converging filters converge to the image point.  A
    kernel inside the least vicinity of source point i fails at i when it
    meets the points of that vicinity outside the preimage of f(i)'s
    least vicinity; the locus is the first source point with such points."""
    src, tgt, graph, (_, pre, _) = f
    svic, tvic = src.vicinity, tgt.vicinity
    for i in range(src.n):
        if svic[i] & ~pre[tvic[graph[i]]]:
            return i
    return None


def _limit_name(f: SpaceMap, i: int) -> tuple:
    # the least failing kernel is the least point of a source vicinity
    # outside the preimage, none failing before i, named with the first
    # source point whose vicinity holds it
    src, tgt, graph, (_, pre, _) = f
    svic, tvic = src.vicinity, tgt.vicinity
    bad = {x: svic[x] & ~pre[tvic[graph[x]]] for x in range(i, src.n)}
    low = min(m & -m for m in bad.values() if m)
    x = next(x for x, m in bad.items() if m & low)
    return src.names(low), src.points[x]


def _adh_core(f: SpaceMap):
    """f[adh A] inside adh f[A] for every kernel (every set) A: the first
    source point b, with the target points escaping at {b}."""
    src, tgt, graph, (img, _, _) = f
    scols, tcols = src.cols, tgt.cols
    for b in range(src.n):
        bad = img[scols[b]] & ~tcols[graph[b]]
        if bad:
            return b, bad
    return None


def _adh_name(f: SpaceMap, locus: tuple) -> tuple:
    b, bad = locus
    return f.source.names(1 << b), f.target.names(bad)[0]


def _inh_core(f: SpaceMap):
    """f^-1[inh B] inside inh f^-1[B], read through the source's inherence
    operator.  Source point x lies in f^-1[inh B] for B the least vicinity
    of f(x), and it fails when inh f^-1[B] lacks it; by monotonicity no
    other B fails at x first.  The locus is the first failing source
    point."""
    src, tgt, graph, (_, pre, _) = f
    tvic = tgt.vicinity
    for x in range(src.n):
        if not src.inh(pre[tvic[graph[x]]]) >> x & 1:
            return x
    return None


def _inh_name(f: SpaceMap, x: int) -> tuple:
    # the first failing B of a scan is the least vicinity of the image of
    # any failing point; none fails before x
    src, tgt, graph, (_, pre, _) = f
    tvic = tgt.vicinity
    b = min(tvic[graph[y]] for y in range(x, src.n) if not src.inh(pre[tvic[graph[y]]]) >> y & 1)
    bad = pre[tgt.inh(b)] & ~src.inh(pre[b])
    return tgt.names(b), src.names(bad)[0]


def _vicinity_core(f: SpaceMap):
    """Every target vicinity of f(x) absorbs the image of some source one.
    Images are monotone, so the least vicinities decide it, and the least
    one of f(x) is the first a scan of them all would fail: the locus is
    the first failing source point x."""
    src, tgt, graph, (img, _, _) = f
    svic, tvic = src.vicinity, tgt.vicinity
    for i in range(src.n):
        if img[svic[i]] & ~tvic[graph[i]]:
            return i
    return None


def _vicinity_name(f: SpaceMap, i: int) -> tuple:
    return f.source.points[i], f.target.names(f.target.vicinity[f.graph[i]])


_CONTINUITY_ROUTES = {
    "limit": (_limit_core, _limit_name),
    "adh-filter": (_adh_core, _adh_name),
    "adh-set": (_adh_core, _adh_name),
    "inh": (_inh_core, _inh_name),
    "vicinity": (_vicinity_core, _vicinity_name),
}
CONTINUITY_METHODS = tuple(_CONTINUITY_ROUTES)


def _route(routes: dict, method: str) -> tuple:
    try:
        return routes[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None


def continuous(f: SpaceMap, method: str = "vicinity") -> bool:
    """Whether ``f`` is continuous by one route, naming no witness."""
    return _route(_CONTINUITY_ROUTES, method)[0](f) is None


def continuity_verdicts(f: SpaceMap) -> list:
    """The verdict of every continuity route, in the order of the route
    table as it stands at the call, naming no witness.  Routes that share
    a core and sit next to each other (adh-filter and adh-set) run it
    once."""
    out, last = [], None
    for core, _ in _CONTINUITY_ROUTES.values():
        if core is not last:
            last, ok = core, core(f) is None
        out.append(ok)
    return out


def is_continuous(f: SpaceMap, method: str = "vicinity") -> Verdict:
    """One of five equivalent routes (adh-filter and adh-set share one).

    Witness shapes: limit (kernel names, source point), adh-filter and
    adh-set (set names, escaping target point), inh (set names, escaping
    source point), vicinity (source point, target vicinity names), each
    the first of an ascending scan of every kernel or subset.  Images,
    preimages and adherences preserve unions, so that first failure is
    a singleton or a least vicinity.
    """
    core, name = _route(_CONTINUITY_ROUTES, method)
    locus = core(f)
    return PASS if locus is None else Verdict(False, name(f, locus))


# -- perfect maps -----------------------------------------------------------------


def _definition_core(f: SpaceMap):
    """Each filter converging to a target point pulls back to one compact
    at its fiber.  Compactness at a set only gets easier as the kernel
    shrinks, so the least vicinity s of target point j, the first kernel a
    scan of them all would visit, decides it.  A kernel whose preimage is
    empty generates the degenerate filter, which no filter meshes, so it
    is skipped as vacuously compact.  The locus is j with the least
    source point escaping there."""
    src, tgt, _, (_, pre_tabs, fibers) = f
    for j, s in enumerate(tgt.vicinity):
        pre = pre_tabs[s]
        if pre:
            low = compact_at_core(src, pre, fibers[j])
            if low is not None:
                return j, low
    return None


def _definition_name(f: SpaceMap, locus: tuple) -> tuple:
    j, low = locus
    tgt = f.target
    return tgt.points[j], tgt.names(tgt.vicinity[j]), f.source.names(low)


def _adh_onto_core(f: SpaceMap):
    """adh f[A] inside f[adh A] for every set A, decided by singletons:
    the first source point b, with the target points escaping at {b}."""
    src, tgt, graph, (img, _, _) = f
    scols, tcols = src.cols, tgt.cols
    for b in range(src.n):
        bad = tcols[graph[b]] & ~img[scols[b]]
        if bad:
            return b, bad
    return None


def _fibers_core(f: SpaceMap):
    """Every nonempty fiber is cover-compact in the source: the first
    failing target point.  The empty set is cover-compact for free."""
    src, _, _, (_, _, fibers) = f
    for j, fib in enumerate(fibers):
        if fib and cover_compact_core(src, fib) is not None:
            return j
    return None


def _fibers_name(f: SpaceMap, j: int) -> tuple:
    return f.target.points[j], least_choice(f.source, f.fiber(j))


_HALVES = {"a": (_adh_onto_core, _adh_name), "b": (_fibers_core, _fibers_name)}


def _a_and_b_core(f: SpaceMap):
    for half, (core, _) in _HALVES.items():
        locus = core(f)
        if locus is not None:
            return half, locus
    return None


def _a_and_b_name(f: SpaceMap, locus: tuple) -> tuple:
    half, where = locus
    return half, _HALVES[half][1](f, where)


_PERFECT_ROUTES = {
    "definition": (_definition_core, _definition_name),
    "adh-inequality": (_adh_onto_core, _adh_name),
    "a-and-b": (_a_and_b_core, _a_and_b_name),
}
PERFECT_METHODS = tuple(_PERFECT_ROUTES)


def perfect_verdicts(f: SpaceMap) -> list:
    """The definition and adh-inequality verdicts, as the route table
    stands at the call, and on a continuous map the a-and-b verdict, whose
    half (a) is the adh-inequality run; naming no witness."""
    by_def = _PERFECT_ROUTES["definition"][0](f) is None
    by_adh = _PERFECT_ROUTES["adh-inequality"][0](f) is None
    if not continuous(f):
        return [by_def, by_adh]
    return [by_def, by_adh, by_adh and _HALVES["b"][0](f) is None]


def is_perfect(f: SpaceMap, method: str = "definition") -> Verdict:
    """Perfect maps, by any of three routes.

    The definition route asks that each filter converging to a target
    point pull back to one compact at its fiber.  The adh-inequality route
    asks adh f[A] inside f[adh A] for every set A.  The a-and-b route
    decides half (a), the adh-inequality, and then half (b), cover-compact
    fibers, and stops at the first half that fails.  Half (b) cannot fail:
    each point of a fiber has its least vicinity inside the fiber's
    vicinity sweep, so it lies in the inherence of that sweep.  It is
    still evaluated, so that its agreement stays a checked fact.
    """
    core, name = _route(_PERFECT_ROUTES, method)
    locus = core(f)
    return PASS if locus is None else Verdict(False, name(f, locus))


# -- small-image operator and irreducibility ----------------------------------------


def f_sharp(f: SpaceMap, a: int) -> int:
    """Small-image operator: target points whose whole fiber sits in a,
    that is the points outside the image of the rest of the source."""
    src, tgt, _, (img, _, _) = f
    return tgt.full & ~img[src.full & ~a]


def fiber_inside(f: SpaceMap, a: int) -> bool:
    """Whether some target point has its fiber inside a (f#[a] nonempty)."""
    return f_sharp(f, a) != 0


def is_strongly_irreducible(f: SpaceMap) -> Verdict:
    """Every overlap of two inherence-nonempty sets swallows a fiber.

    A set has nonempty inherence exactly when it holds a least vicinity,
    and a fiber fits an overlap the more easily the larger it is, so the
    least vicinities decide it.  The map fails at the first pair i <= j
    whose vicinities meet in a set holding no fiber, witnessed by the
    two vicinities.  Failing that, two disjoint vicinities grown by one
    point x overlap in {x} alone, so the map fails when some pair is
    disjoint and some singleton holds no fiber: the first such pair,
    each grown by the least such x.  An empty fiber sits inside every
    overlap, so maps missing part of the target pass.
    """
    src = f.source
    pairs = [(u, v) for i, u in enumerate(src.vicinity) for v in src.vicinity[i:]]
    for u, v in pairs:
        if u & v and not fiber_inside(f, u & v):
            return Verdict(False, (src.names(u), src.names(v)))
    apart = next(((u, v) for u, v in pairs if not u & v), None)
    lonely = next((1 << x for x in range(src.n) if not fiber_inside(f, 1 << x)), 0)
    if apart and lonely:
        return Verdict(False, (src.names(apart[0] | lonely), src.names(apart[1] | lonely)))
    return PASS
