"""Map-level analysis between finite spaces.

A map is a total table from source points to target points.  Every
filter on a finite set is principal, so the filter quantifiers in the
characterizations below run over nonempty kernels.  Witness scans use
ascending-mask order, matching the space-level conventions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyPreimage, PointSetMismatch
from .finite import (
    FinitePretop,
    FiniteTopology,
    PrincipalFilter,
    Verdict,
    compact_at_mask,
    is_cover_compact,
    union_of,
    union_tables,
)
from .regularize import partial_regularization, theta_of_topology

CONTINUITY_METHODS = ("limit", "adh-filter", "adh-set", "inh", "vicinity")
PERFECT_METHODS = ("definition", "adh-inequality", "a-and-b")


@lru_cache(maxsize=1024)
def _map_tables(graph: tuple, target_n: int) -> tuple:
    """(image tables, preimage tables) of a graph.  They depend on the
    graph alone, so maps sharing one share the tables."""
    fibers = [0] * target_n
    for i, j in enumerate(graph):
        fibers[j] |= 1 << i
    return union_tables([1 << j for j in graph]), union_tables(fibers)


@dataclass(frozen=True)
class SpaceMap:
    """Total function between finite spaces, as a target-index table."""

    source: FinitePretop
    target: FinitePretop
    graph: tuple[int, ...]

    def __post_init__(self):
        if len(self.graph) != self.source.n:
            raise PointSetMismatch("graph must assign every source point")
        for j in self.graph:
            if not 0 <= j < self.target.n:
                raise PointSetMismatch(f"graph hits unknown target index {j}")
        # Not a field: eq, hash and repr stay on source, target and graph.
        object.__setattr__(self, "_tables", _map_tables(tuple(self.graph), self.target.n))

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
        return self.preimage_mask(1 << j)

    def is_surjective(self) -> bool:
        return self.image_mask(self.source.full) == self.target.full


def compose(g: SpaceMap, f: SpaceMap) -> SpaceMap:
    """g after f; the middle spaces must be identical."""
    if f.target != g.source:
        raise PointSetMismatch("composition needs a matching middle space")
    return SpaceMap(f.source, g.target, tuple(g.graph[j] for j in f.graph))


def enumerate_maps(source: FinitePretop, target: FinitePretop):
    """All total maps, lexicographic in the graph tuple."""
    for graph in itertools.product(range(target.n), repeat=source.n):
        yield SpaceMap(source, target, graph)


# -- filters across a map ------------------------------------------------------


def image_filter(f: SpaceMap, flt: PrincipalFilter) -> PrincipalFilter:
    """Pushforward filter; principal over the image of the kernel."""
    return PrincipalFilter(f.image_mask(flt.kernel))


def preimage_filter(f: SpaceMap, flt: PrincipalFilter) -> PrincipalFilter:
    kernel = f.preimage_mask(flt.kernel)
    if kernel == 0:
        raise EmptyPreimage("filter kernel misses the range of the map")
    return PrincipalFilter(kernel)


# -- continuity ------------------------------------------------------------------


def is_continuous(f: SpaceMap, method: str = "vicinity") -> Verdict:
    """One of five equivalent routes, each checked by its own loop.

    Witness shapes: limit (kernel names, source point), adh-filter and
    adh-set (set names, escaping target point), inh (set names, escaping
    source point), vicinity (source point, target vicinity names).
    """
    src, tgt = f.source, f.target
    if method == "limit":
        # image filters of converging filters converge to the image point
        for k in src.kernels():
            fk = f.image_mask(k)
            for i in range(src.n):
                if k & ~src.vicinity[i] == 0 and fk & ~tgt.vicinity[f.graph[i]]:
                    return Verdict(False, (src.names(k), src.points[i]))
        return Verdict(True)
    if method == "adh-filter":
        for k in src.kernels():
            bad = f.image_mask(src.adh(k)) & ~tgt.adh(f.image_mask(k))
            if bad:
                return Verdict(False, (src.names(k), tgt.names(bad)[0]))
        return Verdict(True)
    if method == "adh-set":
        for a in src.subsets():
            bad = f.image_mask(src.adh(a)) & ~tgt.adh(f.image_mask(a))
            if bad:
                return Verdict(False, (src.names(a), tgt.names(bad)[0]))
        return Verdict(True)
    if method == "inh":
        for b in tgt.subsets():
            bad = f.preimage_mask(tgt.inh(b)) & ~src.inh(f.preimage_mask(b))
            if bad:
                return Verdict(False, (tgt.names(b), src.names(bad)[0]))
        return Verdict(True)
    if method == "vicinity":
        # every target vicinity of f(x) absorbs the image of some source
        # one; images are monotone, so the least vicinities decide it, and
        # the least one of f(x) is the first a scan of them all would fail
        for i in range(src.n):
            least = tgt.vicinity[f.graph[i]]
            if f.image_mask(src.vicinity[i]) & ~least:
                return Verdict(False, (src.points[i], tgt.names(least)))
        return Verdict(True)
    raise ValueError(f"unknown method {method!r}")


def is_theta_continuous(src: FiniteTopology, tgt: FiniteTopology, table, method: str = "vicinity") -> Verdict:
    """Continuity between the closed-vicinity forms of two topologies."""
    f = SpaceMap.from_table(theta_of_topology(src).theta, theta_of_topology(tgt).theta, table)
    return is_continuous(f, method)


def is_w_theta_continuous(f: SpaceMap, method: str = "vicinity") -> Verdict:
    """Continuity into the partial regularization of the target."""
    reg = partial_regularization(f.target)
    return is_continuous(SpaceMap(f.source, reg, f.graph), method)


# -- perfect maps -----------------------------------------------------------------


@dataclass(frozen=True)
class PerfectConditions:
    """The two halves of the perfect criterion, reported separately."""

    adh_onto: Verdict  # f[adh A] contains adh f[A] for every A
    fibers_cover_compact: Verdict

    @property
    def ok(self) -> bool:
        return self.adh_onto.ok and self.fibers_cover_compact.ok


def perfect_conditions(f: SpaceMap) -> PerfectConditions:
    src, tgt = f.source, f.target
    adh_onto = Verdict(True)
    for a in src.subsets():
        bad = tgt.adh(f.image_mask(a)) & ~f.image_mask(src.adh(a))
        if bad:
            adh_onto = Verdict(False, (src.names(a), tgt.names(bad)[0]))
            break
    fibers = Verdict(True)
    for j in range(tgt.n):
        fib = f.fiber(j)
        if fib == 0:
            continue  # the empty set is cover-compact for free
        v = is_cover_compact(src, fib, "cover")
        if not v.ok:
            fibers = Verdict(False, (tgt.points[j], v.witness))
            break
    return PerfectConditions(adh_onto, fibers)


def is_perfect(f: SpaceMap, method: str = "definition") -> Verdict:
    """Perfect maps, by any of three routes.

    The definition route walks, for each target point, the kernels of
    every filter converging to it; a converging kernel whose preimage is
    empty generates the degenerate filter, which no filter meshes, so it
    is skipped as vacuously compact.
    """
    src, tgt = f.source, f.target
    if method == "definition":
        for j in range(tgt.n):
            fiber = f.fiber(j)
            s = tgt.vicinity[j]
            while s:
                pre = f.preimage_mask(s)
                if pre:
                    v = compact_at_mask(src, pre, fiber, "filter")
                    if not v.ok:
                        return Verdict(False, (tgt.points[j], tgt.names(s), v.witness))
                s = (s - 1) & tgt.vicinity[j]
        return Verdict(True)
    if method == "adh-inequality":
        for k in src.kernels():
            bad = tgt.adh(f.image_mask(k)) & ~f.image_mask(src.adh(k))
            if bad:
                return Verdict(False, (src.names(k), tgt.names(bad)[0]))
        return Verdict(True)
    if method == "a-and-b":
        rep = perfect_conditions(f)
        if not rep.adh_onto.ok:
            return Verdict(False, ("a", rep.adh_onto.witness))
        if not rep.fibers_cover_compact.ok:
            return Verdict(False, ("b", rep.fibers_cover_compact.witness))
        return Verdict(True)
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

    The scan runs over ascending (U, V) mask pairs with U = V allowed
    and reports the first violating pair.  An empty fiber sits inside
    every overlap, so maps missing part of the target pass outright.
    """
    src = f.source
    pool = [u for u in src.subsets() if src.inh(u)]
    for u in pool:
        for v in pool:
            if u & v and not fiber_inside(f, u & v):
                return Verdict(False, (src.names(u), src.names(v)))
    return Verdict(True)
