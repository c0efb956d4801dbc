"""The cover and vicinity routes decide by the least choice.  Each route
once enumerated every choice cover (or every pair of vicinities); those
enumerations are kept here as references, and the routes must return
the same verdicts and witnesses, and the boolean entry the same verdict."""

import itertools
import random

from pretop.finite import (
    FinitePretop,
    PrincipalFilter,
    compact_at,
    enumerate_pretops,
    is_cover_compact,
)
from pretop.maps import SpaceMap, continuous, is_continuous
from pretop.regularize import is_quasi_phc


def supersets(space, m):
    """The supersets of ``m`` in ascending order, starting at ``m``."""
    out = [m]
    while out[-1] != space.full:
        out.append((out[-1] + 1) | m)
    return out


def choice_covers(space, at):
    """Every cover of ``at`` that picks one vicinity per point, in the
    product order of ascending supersets of the least vicinities."""
    pools = [supersets(space, space.vicinity[i]) for i in range(space.n) if at >> i & 1]
    return itertools.product(*pools)


def union(pick):
    out = 0
    for c in pick:
        out |= c
    return out


def ref_cover_compact(space, at):
    for pick in choice_covers(space, at):
        if at & ~space.inh(union(pick)):
            return False, tuple(space.names(c) for c in pick)
    return True, None


def ref_compact_at_cover(space, kernel, at):
    for pick in choice_covers(space, at):
        if kernel & ~union(pick):
            return False, tuple(space.names(c) for c in pick)
    return True, None


def ref_adh_cover(space):
    for pick in choice_covers(space, space.full):
        if union(space.adh(c) for c in pick) != space.full:
            return False, tuple(space.names(c) for c in pick)
    return True, None


def ref_vicinity_continuous(f):
    """Every target vicinity of f(x) absorbs the image of some source one."""
    src, tgt = f.source, f.target
    for i in range(src.n):
        for v in supersets(tgt, tgt.vicinity[f.graph[i]]):
            if not any(f.image_mask(u) & ~v == 0 for u in supersets(src, src.vicinity[i])):
                return False, (src.points[i], tgt.names(v))
    return True, None


def spaces_up_to(n):
    return [sp for k in range(1, n + 1) for sp in enumerate_pretops(k)]


def verdict(v):
    return v.ok, v.witness


def test_cover_compact_and_adh_cover_match_every_choice_cover():
    spaces = spaces_up_to(4)
    assert len(spaces) == 4165
    for sp in spaces:
        for at in sp.kernels():
            assert verdict(is_cover_compact(sp, at, "cover")) == ref_cover_compact(sp, at)
        assert verdict(is_quasi_phc(sp, "adh-cover")) == ref_adh_cover(sp)


def test_compact_at_cover_matches_every_choice_cover():
    cases = failing = 0
    for sp in spaces_up_to(3):
        for k in sp.kernels():
            for at in sp.kernels():
                got = verdict(compact_at(sp, PrincipalFilter(k), at, "cover"))
                assert got == ref_compact_at_cover(sp, k, at)
                cases += 1
                failing += not got[0]
    assert (cases, failing) == (3173, 872)


def test_adh_cover_fails_on_the_first_choice_cover():
    # outside the point axiom: b's empty vicinity meets no member
    sp = FinitePretop(("a", "b"), (0b10, 0b00))
    assert verdict(is_quasi_phc(sp, "adh-cover")) == ref_adh_cover(sp) == (False, (("b",), ()))


def test_vicinity_route_matches_the_vicinity_scan():
    for size in (1, 2, 3):
        spaces = list(enumerate_pretops(size))
        graphs = list(itertools.product(range(size), repeat=size))
        for src in spaces:
            for tgt in spaces:
                for g in graphs:
                    f = SpaceMap(src, tgt, g)
                    ref = ref_vicinity_continuous(f)
                    assert verdict(is_continuous(f, "vicinity")) == ref
                    assert continuous(f, "vicinity") is ref[0]


def random_space(rng, n):
    points = tuple(str(i + 1) for i in range(n))
    return FinitePretop(points, tuple((1 << i) | rng.getrandbits(n) for i in range(n)))


def test_vicinity_route_matches_the_vicinity_scan_sampled():
    rng = random.Random(6)
    failing = 0
    for _ in range(3000):
        src = random_space(rng, rng.randint(4, 6))
        tgt = random_space(rng, rng.randint(4, 6))
        f = SpaceMap(src, tgt, tuple(rng.randrange(tgt.n) for _ in range(src.n)))
        got = verdict(is_continuous(f, "vicinity"))
        assert got == ref_vicinity_continuous(f)
        assert continuous(f, "vicinity") is got[0]
        failing += not got[0]
    assert 0 < failing < 3000
