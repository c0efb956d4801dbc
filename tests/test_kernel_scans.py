"""The kernel-scan routes decide by singletons and least vicinities.

Each route below once scanned every kernel or every subset in ascending
order and reported the first failure.  In a finite pretopology
adherence, images and preimages preserve unions and each point has a
least vicinity, so the first failure is always a singleton or a least
vicinity.  The scans are kept here as references, and the routes must
return the same verdicts and witnesses; the verdict lists the oracle
reads, ``continuity_verdicts`` and ``perfect_verdicts``, must hold the
references' verdicts.
The H-set routes once scanned the opens of a topology, its atoms and
every kernel of its θ-form; they now read the vicinity form, and
``OpenFamily`` rebuilds the old structure from the opens for the
references.  Strong irreducibility once scanned every pair of sets with
nonempty inherence; its reference is the oracle's, and its route may
report another violating pair.
"""

import itertools
import random

from pretop.errors import AxiomViolation
from pretop.finite import (
    FinitePretop,
    PrincipalFilter,
    compact_at,
    enumerate_pretops,
    is_cover_compact,
    is_topological,
)
from pretop.maps import (
    CONTINUITY_METHODS,
    SpaceMap,
    continuity_verdicts,
    is_continuous,
    is_perfect,
    is_strongly_irreducible,
    perfect_verdicts,
)
from pretop.oracle import _irreducible_by_scan
from pretop.regularize import filter_tower, hset_check, is_quasi_phc, partial_regularization


def fail(witness):
    return False, witness


PASS = (True, None)


# -- reference scans ---------------------------------------------------------------


def ref_limit(f):
    src, tgt = f.source, f.target
    for k in src.kernels():
        fk = f.image_mask(k)
        for i in range(src.n):
            if k & ~src.vicinity[i] == 0 and fk & ~tgt.vicinity[f.graph[i]]:
                return fail((src.names(k), src.points[i]))
    return PASS


def ref_vicinity(f):
    src, tgt = f.source, f.target
    for i in range(src.n):
        v = tgt.vicinity[f.graph[i]]
        if f.image_mask(src.vicinity[i]) & ~v:
            return fail((src.points[i], tgt.names(v)))
    return PASS


def ref_adh(f, sets):
    src, tgt = f.source, f.target
    for a in sets:
        bad = f.image_mask(src.adh(a)) & ~tgt.adh(f.image_mask(a))
        if bad:
            return fail((src.names(a), tgt.names(bad)[0]))
    return PASS


def ref_inh(f):
    src, tgt = f.source, f.target
    for b in tgt.subsets():
        bad = f.preimage_mask(tgt.inh(b)) & ~src.inh(f.preimage_mask(b))
        if bad:
            return fail((tgt.names(b), src.names(bad)[0]))
    return PASS


def ref_adh_onto(f, sets):
    src, tgt = f.source, f.target
    for a in sets:
        bad = tgt.adh(f.image_mask(a)) & ~f.image_mask(src.adh(a))
        if bad:
            return fail((src.names(a), tgt.names(bad)[0]))
    return PASS


def ref_perfect_conditions(f):
    """The two halves of the perfect criterion, each evaluated in full:
    (a) adh f[A] inside f[adh A] for every set A, (b) cover-compact fibers."""
    src, tgt = f.source, f.target
    fibers = PASS
    for j in range(tgt.n):
        fib = f.preimage_mask(1 << j)
        if fib == 0:
            continue  # the empty set is cover-compact for free
        v = is_cover_compact(src, fib, "cover")
        if not v.ok:
            fibers = fail((tgt.points[j], v.witness))
            break
    return ref_adh_onto(f, src.subsets()), fibers


def ref_a_and_b(f):
    adh_onto, fibers = ref_perfect_conditions(f)
    # every fiber is cover-compact: a point's least vicinity lies inside
    # the fiber's vicinity sweep, so the point lies in its inherence
    assert fibers == PASS, f
    if not adh_onto[0]:
        return fail(("a", adh_onto[1]))
    return PASS


def ref_compact_at_filter(space, kernel, at):
    for k in space.kernels():
        if k & kernel and not space.adh(k) & at:
            return fail(space.names(k))
    return PASS


def ref_definition(f):
    src, tgt = f.source, f.target
    for j in range(tgt.n):
        fiber = f.fiber(j)
        s = tgt.vicinity[j]
        while s:
            pre = f.preimage_mask(s)
            if pre:
                ok, w = ref_compact_at_filter(src, pre, fiber)
                if not ok:
                    return fail((tgt.points[j], tgt.names(s), w))
            s = (s - 1) & tgt.vicinity[j]
    return PASS


def ref_filter_refines(space, at):
    for k in space.kernels():
        if space.adh(k) & at:
            continue
        member = k
        found = False
        while True:
            if not space.adh(member) & at:
                found = True
                break
            if member == space.full:
                break
            member = (member + 1) | k
        if not found:
            return fail(space.names(k))
    return PASS


def ref_vicinity_separation(space, at):
    for k in space.kernels():
        if space.adh(k) & at:
            continue
        hit = False
        for v in space.subsets():
            if at & ~space.inh(v):
                continue
            member = k
            while True:
                if v & member == 0:
                    hit = True
                    break
                if member == space.full:
                    break
                member = (member + 1) | k
            if hit:
                break
        if not hit:
            return fail(space.names(k))
    return PASS


def ref_rpi_compact(space):
    reg = partial_regularization(space)
    for k in space.kernels():
        if reg.adh(k) == 0:
            return fail(space.names(k))
    return PASS


def ref_inherent_filter(space):
    for k in space.kernels():
        if space.inh(k) != 0 and space.adh(k) == 0:
            return fail(space.names(k))
    return PASS


def ref_tower_adh(space):
    for k in space.kernels():
        tower = filter_tower(space, PrincipalFilter(k))
        if space.adh(tower.level(1)) == 0:
            return fail(space.names(k))
    return PASS


class OpenFamily:
    """A finite topology as its family of opens, the masks fixed by inh,
    with the least open, closure, atoms and θ-form derived from the
    family alone."""

    def __init__(self, space):
        self.space = space
        self.opens = [a for a in space.subsets() if space.inh(a) == a]
        self.least = []
        for i in range(space.n):
            m = space.full
            for u in self.opens:
                if u >> i & 1:
                    m &= u
            self.least.append(m)
        nonempty = [u for u in self.opens if u]
        self.atoms = [
            u for u in nonempty if not any(v != u and v & ~u == 0 for v in nonempty)
        ]
        self.theta = FinitePretop(space.points, tuple(self.closure(m) for m in self.least))

    def closure(self, a):
        return sum(1 << i for i, m in enumerate(self.least) if m & a)


def ref_hset(topo, at, method):
    sp = topo.space
    if method == "theta-adh":
        for k in sp.kernels():
            if k & at and not topo.theta.adh(k) & at:
                return fail(sp.names(k))
        return PASS
    for u in topo.opens if method == "open-filter" else topo.atoms:
        if u and u & at and not topo.closure(u) & at:
            return fail(sp.names(u))
    return PASS


# -- helpers ---------------------------------------------------------------------


def verdict(v):
    return v.ok, v.witness


def spaces_up_to(n):
    return [sp for k in range(1, n + 1) for sp in enumerate_pretops(k)]


def random_space(rng, n):
    points = tuple(str(i + 1) for i in range(n))
    return FinitePretop(points, tuple((1 << i) | rng.getrandbits(n) for i in range(n)))


def discrete(n):
    return FinitePretop(tuple(str(j + 1) for j in range(n)), tuple(1 << j for j in range(n)))


def map_routes(f):
    """(route, verdict entry, method, reference verdict) for every
    rewritten map route."""
    src = f.source
    yield "limit", is_continuous, "limit", ref_limit(f)
    yield "adh-filter", is_continuous, "adh-filter", ref_adh(f, src.kernels())
    yield "adh-set", is_continuous, "adh-set", ref_adh(f, src.subsets())
    yield "inh", is_continuous, "inh", ref_inh(f)
    yield "vicinity", is_continuous, "vicinity", ref_vicinity(f)
    yield "definition", is_perfect, "definition", ref_definition(f)
    yield "adh-inequality", is_perfect, "adh-inequality", ref_adh_onto(f, src.kernels())
    yield "adh-onto", is_perfect, "adh-inequality", ref_adh_onto(f, src.subsets())
    yield "a-and-b", is_perfect, "a-and-b", ref_a_and_b(f)


def check_maps(maps):
    """Compare every route on ``maps`` and its witness with its reference,
    and the verdict lists the oracle reads with the references' verdicts:
    ``continuity_verdicts`` route by route, ``perfect_verdicts`` for the
    definition and adh-inequality routes and, on continuous maps, a-and-b.
    Count the failing verdicts per route."""
    failing = {name: 0 for name, *_ in map_routes(maps[0])}
    for f in maps:
        holds = {}
        for name, decide, method, ref in map_routes(f):
            assert verdict(decide(f, method)) == ref, (name, f)
            holds[name] = ref[0]
            failing[name] += not ref[0]
        assert continuity_verdicts(f) == [holds[m] for m in CONTINUITY_METHODS], f
        perfect = [holds["definition"], holds["adh-inequality"]]
        assert perfect_verdicts(f) == perfect + [holds["a-and-b"]] * holds["limit"], f
    return failing


# -- tests -------------------------------------------------------------------------


def test_map_routes_match_the_scans_on_every_small_map():
    spaces = spaces_up_to(3)
    maps = [
        SpaceMap(src, tgt, g)
        for src in spaces
        for tgt in spaces
        for g in itertools.product(range(tgt.n), repeat=src.n)
    ]
    assert len(maps) == 115_277
    failing = check_maps(maps)
    assert all(0 < count < len(maps) for count in failing.values()), failing


def test_map_routes_match_the_scans_sampled():
    rng = random.Random(8)
    maps = []
    for _ in range(3000):
        src = random_space(rng, rng.randint(4, 6))
        tgt = random_space(rng, rng.randint(4, 6))
        maps.append(SpaceMap(src, tgt, tuple(rng.randrange(tgt.n) for _ in range(src.n))))
    failing = check_maps(maps)
    assert all(0 < count < len(maps) for count in failing.values()), failing


def test_compact_at_filter_matches_the_kernel_scan():
    cases = failing = 0
    for sp in spaces_up_to(3):
        for k in sp.kernels():
            for at in sp.kernels():
                got = verdict(compact_at(sp, PrincipalFilter(k), at, "filter"))
                assert got == ref_compact_at_filter(sp, k, at)
                cases += 1
                failing += not got[0]
    assert (cases, failing) == (3173, 872)


def axiom_breaking_spaces(n):
    """Every vicinity tuple on n points, the point axiom not enforced."""
    points = tuple(str(i + 1) for i in range(n))
    for vic in itertools.product(range(1 << n), repeat=n):
        yield FinitePretop(points, vic)


def spaces_with_and_without_the_axiom():
    return spaces_up_to(3) + [sp for n in (1, 2, 3) for sp in axiom_breaking_spaces(n)]


def test_filter_cover_routes_match_the_scans():
    for sp in spaces_with_and_without_the_axiom():
        for at in sp.kernels():
            assert verdict(is_cover_compact(sp, at, "filter-refines")) == ref_filter_refines(sp, at)
            got = verdict(is_cover_compact(sp, at, "vicinity-separation"))
            assert got == ref_vicinity_separation(sp, at) == PASS


def test_quasi_phc_routes_match_the_scans():
    failing = {"rpi-compact": 0, "inherent-filter": 0, "tower-adh": 0}
    undefined_towers = 0
    for sp in spaces_up_to(4) + spaces_with_and_without_the_axiom():
        refs = {"rpi-compact": ref_rpi_compact(sp), "inherent-filter": ref_inherent_filter(sp)}
        try:
            refs["tower-adh"] = ref_tower_adh(sp)
        except AxiomViolation:
            # a tower is undefined once a sweep drops a point of its kernel,
            # which the point axiom rules out
            assert any(not v >> i & 1 for i, v in enumerate(sp.vicinity)), sp
            undefined_towers += 1
        for method, ref in refs.items():
            assert verdict(is_quasi_phc(sp, method)) == ref, (method, sp)
            failing[method] += not ref[0]
    # tower-adh can fail only where a tower is undefined
    assert failing["rpi-compact"] > 0 and failing["inherent-filter"] > 0, failing
    assert failing["tower-adh"] == 0 < undefined_towers


def test_hset_routes_match_the_scans_on_every_topology():
    cases = 0
    for sp in spaces_up_to(4):
        if not is_topological(sp).ok:
            continue
        topo = OpenFamily(sp)
        assert tuple(topo.least) == sp.vicinity
        assert topo.theta == partial_regularization(sp)
        for at in sp.kernels():
            for method in ("open-filter", "open-ultrafilter", "theta-adh"):
                assert verdict(hset_check(sp, at, method)) == ref_hset(topo, at, method)
            cases += 1
    assert cases == 5541


def test_inherent_filter_takes_an_empty_vicinity_at_the_least_lonely_point():
    # b lies in no vicinity and a's vicinity is empty, so every kernel
    # inside {b} is inherent with empty adherence
    sp = FinitePretop(("a", "b", "c"), (0b000, 0b001, 0b101))
    assert verdict(is_quasi_phc(sp, "inherent-filter")) == ref_inherent_filter(sp) == (False, ("b",))


def test_strong_irreducibility_matches_the_definition_scan():
    """The verdict reads only the source and the fiber partition, so the
    targets are discrete; graphs that miss target points are included."""
    targets = [discrete(t) for t in range(1, 7)]
    sources = spaces_up_to(3) + [sp for n in (1, 2) for sp in axiom_breaking_spaces(n)]
    maps = [
        SpaceMap(src, tgt, g)
        for src in sources
        for tgt in targets[:3]
        for g in itertools.product(range(tgt.n), repeat=src.n)
    ]
    assert len(maps) == 2602
    rng = random.Random(12)
    for _ in range(3000):
        src = random_space(rng, rng.randint(4, 6))
        tgt = targets[rng.randrange(src.n)]
        maps.append(SpaceMap(src, tgt, tuple(rng.randrange(tgt.n) for _ in range(src.n))))
    by_vicinities = grown = 0
    for f in maps:
        got = is_strongly_irreducible(f)
        assert got.ok == _irreducible_by_scan(f).ok, f
        if got.ok:
            continue
        src = f.source
        u, v = (src.mask(names) for names in got.witness)
        meet = u & v
        assert src.inh(u) and src.inh(v) and meet, f
        assert all(f.fiber(j) & ~meet for j in range(f.target.n)), f
        if u in src.vicinity and v in src.vicinity:
            by_vicinities += 1
        else:
            grown += 1
    # both failing branches: a pair of least vicinities, and a disjoint
    # pair grown by a point whose singleton holds no fiber
    assert by_vicinities > 0 and grown > 0, (by_vicinities, grown)
