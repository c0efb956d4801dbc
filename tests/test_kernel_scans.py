"""The kernel-scan routes decide by singletons and least vicinities.

Each route below once scanned every kernel or every subset in ascending
order and reported the first failure.  In a finite pretopology
adherence, images and preimages preserve unions and each point has a
least vicinity, so the first failure is always a singleton or a least
vicinity.  The scans are kept here as references, and the routes must
return the same verdicts and witnesses.
"""

import itertools
import random

from pretop.finite import (
    FinitePretop,
    PrincipalFilter,
    compact_at,
    enumerate_pretops,
    is_cover_compact,
    vicinity_sweep,
)
from pretop.maps import SpaceMap, is_continuous, is_perfect, perfect_conditions
from pretop.regularize import filter_tower, is_quasi_phc, partial_regularization


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


# -- helpers ---------------------------------------------------------------------


def verdict(v):
    return v.ok, v.witness


def spaces_up_to(n):
    return [sp for k in range(1, n + 1) for sp in enumerate_pretops(k)]


def random_space(rng, n):
    points = tuple(str(i + 1) for i in range(n))
    return FinitePretop(points, tuple((1 << i) | rng.getrandbits(n) for i in range(n)))


def map_routes(f):
    """(route, new verdict, reference verdict) for every rewritten map route."""
    src = f.source
    yield "limit", is_continuous(f, "limit"), ref_limit(f)
    yield "adh-filter", is_continuous(f, "adh-filter"), ref_adh(f, src.kernels())
    yield "adh-set", is_continuous(f, "adh-set"), ref_adh(f, src.subsets())
    yield "inh", is_continuous(f, "inh"), ref_inh(f)
    yield "definition", is_perfect(f, "definition"), ref_definition(f)
    yield "adh-inequality", is_perfect(f, "adh-inequality"), ref_adh_onto(f, src.kernels())
    yield "adh-onto", perfect_conditions(f).adh_onto, ref_adh_onto(f, src.subsets())


def check_maps(maps):
    """Compare every route on ``maps``; count the failing verdicts per route."""
    failing = {name: 0 for name, _, _ in map_routes(maps[0])}
    for f in maps:
        for name, got, ref in map_routes(f):
            assert verdict(got) == ref, (name, f)
            failing[name] += not ref[0]
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


def towers_end(space):
    """Whether every filter tower reaches a fixed point; outside the point
    axiom the vicinity sweep may cycle instead."""
    for k in space.kernels():
        seen = set()
        while k not in seen:
            seen.add(k)
            nxt = vicinity_sweep(space, k)
            if nxt == k:
                break
            k = nxt
        else:
            return False
    return True


def test_quasi_phc_routes_match_the_scans():
    failing = {"rpi-compact": 0, "inherent-filter": 0, "tower-adh": 0}
    for sp in spaces_up_to(4) + spaces_with_and_without_the_axiom():
        refs = {"rpi-compact": ref_rpi_compact(sp), "inherent-filter": ref_inherent_filter(sp)}
        if towers_end(sp):
            refs["tower-adh"] = ref_tower_adh(sp)
        for method, ref in refs.items():
            assert verdict(is_quasi_phc(sp, method)) == ref, (method, sp)
            failing[method] += not ref[0]
    assert all(count > 0 for count in failing.values()), failing


def test_inherent_filter_takes_an_empty_vicinity_at_the_least_lonely_point():
    # b lies in no vicinity and a's vicinity is empty, so every kernel
    # inside {b} is inherent with empty adherence
    sp = FinitePretop(("a", "b", "c"), (0b000, 0b001, 0b101))
    assert verdict(is_quasi_phc(sp, "inherent-filter")) == ref_inherent_filter(sp) == (False, ("b",))
