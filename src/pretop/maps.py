"""Map-level analysis between finite spaces.

A map is a total table from source points to target points.  Every
filter on a finite set is principal, so the filter quantifiers in the
characterizations below run over nonempty kernels.  Witness scans use
ascending-mask order, matching the space-level conventions.

The routes read the map's image, preimage and fiber tables once.  Every
space in the package keeps its least vicinities (and so its columns)
inside ``full``, so they skip the ``& full`` of the one-mask API,
``SpaceMap.image_mask`` and ``preimage_mask``.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PointSetMismatch
from .finite import (
    PASS,
    FinitePretop,
    Verdict,
    compact_at_mask,
    is_cover_compact,
    union_of,
    union_tables,
)
from .record import record

CONTINUITY_METHODS = ("limit", "adh-filter", "adh-set", "inh", "vicinity")
PERFECT_METHODS = ("definition", "adh-inequality", "a-and-b")


@lru_cache(maxsize=1024)
def _map_tables(graph: tuple, target_n: int) -> tuple:
    """(image tables, preimage tables, fibers) of a graph.  They depend on
    the graph alone, so maps sharing one share them.  A graph index out of
    range raises; the cache keeps no exception, so it raises every time."""
    fibers = [0] * target_n
    for i, j in enumerate(graph):
        if not 0 <= j < target_n:
            raise PointSetMismatch(f"graph hits unknown target index {j}")
        fibers[j] |= 1 << i
    return union_tables([1 << j for j in graph]), union_tables(fibers), tuple(fibers)


@record
class SpaceMap:
    """Total function between finite spaces, as a target-index table."""

    source: FinitePretop
    target: FinitePretop
    graph: tuple[int, ...]

    def __post_init__(self):
        if len(self.graph) != self.source.n:
            raise PointSetMismatch("graph must assign every source point")
        # Not a field: eq, hash and repr stay on source, target and graph.
        self.__dict__["_tables"] = _map_tables(tuple(self.graph), self.target.n)

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
        return union_of(self._tables[0], a & self.source.full)

    def preimage_mask(self, b: int) -> int:
        return union_of(self._tables[1], b & self.target.full)

    def fiber(self, j: int) -> int:
        return self._tables[2][j]

    def is_surjective(self) -> bool:
        return self.image_mask(self.source.full) == self.target.full


# -- continuity ------------------------------------------------------------------


def is_continuous(f: SpaceMap, method: str = "vicinity") -> Verdict:
    """One of five equivalent routes (adh-filter and adh-set share one).

    Witness shapes: limit (kernel names, source point), adh-filter and
    adh-set (set names, escaping target point), inh (set names, escaping
    source point), vicinity (source point, target vicinity names), each
    the first of an ascending scan of every kernel or subset.  Images,
    preimages and adherences preserve unions, so that first failure is
    a singleton or a least vicinity.
    """
    src, tgt = f.source, f.target
    img, pre, _ = f._tables
    if method == "limit":
        # image filters of converging filters converge to the image point;
        # a kernel inside x's least vicinity fails at x when it meets bad[x]
        svic, tvic = src.vicinity, tgt.vicinity
        bad = [svic[i] & ~union_of(pre, tvic[j]) for i, j in enumerate(f.graph)]
        low = 0
        for m in bad:
            low |= m
        low &= -low
        if low:
            i = next(i for i, m in enumerate(bad) if m & low)
            return Verdict(False, (src.names(low), src.points[i]))
        return PASS
    if method in ("adh-filter", "adh-set"):
        # f[adh A] inside adh f[A] for every kernel (every set) A
        scols, tcols, graph = src.cols, tgt.cols, f.graph
        for b in range(src.n):
            bad = union_of(img, scols[b]) & ~tcols[graph[b]]
            if bad:
                return Verdict(False, (src.names(1 << b), tgt.names(bad)[0]))
        return PASS
    if method == "inh":
        # f^-1[inh B] inside inh f^-1[B]: x escapes at B when B holds the
        # least vicinity of f(x) but not the image of x's least vicinity
        svic, tvic = src.vicinity, tgt.vicinity
        fails = [tvic[j] for i, j in enumerate(f.graph) if union_of(img, svic[i]) & ~tvic[j]]
        if fails:
            b = min(fails)
            bad = union_of(pre, tgt.inh(b)) & ~src.inh(union_of(pre, b))
            return Verdict(False, (tgt.names(b), src.names(bad)[0]))
        return PASS
    if method == "vicinity":
        # every target vicinity of f(x) absorbs the image of some source
        # one; images are monotone, so the least vicinities decide it, and
        # the least one of f(x) is the first a scan of them all would fail
        svic, tvic, graph = src.vicinity, tgt.vicinity, f.graph
        for i in range(src.n):
            least = tvic[graph[i]]
            if union_of(img, svic[i]) & ~least:
                return Verdict(False, (src.points[i], tgt.names(least)))
        return PASS
    raise ValueError(f"unknown method {method!r}")


# -- perfect maps -----------------------------------------------------------------


def _adh_onto(f: SpaceMap) -> Verdict:
    """adh f[A] inside f[adh A] for every set A, decided by singletons."""
    src, tgt = f.source, f.target
    img, scols, tcols, graph = f._tables[0], src.cols, tgt.cols, f.graph
    for b in range(src.n):
        bad = tcols[graph[b]] & ~union_of(img, scols[b])
        if bad:
            return Verdict(False, (src.names(1 << b), tgt.names(bad)[0]))
    return PASS


def _fibers_cover_compact(f: SpaceMap) -> Verdict:
    """Every nonempty fiber is cover-compact in the source; the first
    failing target point, with the cover that fails."""
    for j, fib in enumerate(f._tables[2]):
        if fib:  # the empty set is cover-compact for free
            v = is_cover_compact(f.source, fib, "cover")
            if not v.ok:
                return Verdict(False, (f.target.points[j], v.witness))
    return PASS


def is_perfect(f: SpaceMap, method: str = "definition") -> Verdict:
    """Perfect maps, by any of three routes.

    The definition route asks that each filter converging to a target
    point pull back to one compact at its fiber.  Compactness at a set
    only gets easier as the kernel shrinks, so the least vicinity, the
    first kernel a scan of them all would visit, decides it.  A kernel
    whose preimage is empty generates the degenerate filter, which no
    filter meshes, so it is skipped as vacuously compact.

    The a-and-b route decides half (a), adh f[A] inside f[adh A], and then
    half (b), cover-compact fibers, and stops at the first half that
    fails.  Half (b) cannot fail: each point of a fiber has its least
    vicinity inside the fiber's vicinity sweep, so it lies in the
    inherence of that sweep.  It is still evaluated, so that its
    agreement stays a checked fact.
    """
    src, tgt = f.source, f.target
    if method == "definition":
        _, pre_tabs, fibers = f._tables
        for j, s in enumerate(tgt.vicinity):
            pre = union_of(pre_tabs, s)
            if pre:
                v = compact_at_mask(src, pre, fibers[j], "filter")
                if not v.ok:
                    return Verdict(False, (tgt.points[j], tgt.names(s), v.witness))
        return PASS
    if method == "adh-inequality":
        return _adh_onto(f)
    if method == "a-and-b":
        for half, decide in (("a", _adh_onto), ("b", _fibers_cover_compact)):
            v = decide(f)
            if not v.ok:
                return Verdict(False, (half, v.witness))
        return PASS
    raise ValueError(f"unknown method {method!r}")


# -- small-image operator and irreducibility ----------------------------------------


def f_sharp(f: SpaceMap, a: int) -> int:
    """Small-image operator: target points whose whole fiber sits in a."""
    out = 0
    for j in range(f.target.n):
        if f.fiber(j) & ~a == 0:
            out |= 1 << j
    return out


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
