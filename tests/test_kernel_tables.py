"""The table-driven finite kernel against its definitions.

The operators, the singleton columns, the vicinity sweep, the fibers and
the name lookup read mask-indexed union tables, per-byte name tables or
cached tuples; here they are compared with the per-point loops that
define them, at sizes on both sides of each byte boundary (and of the
switch from flat to per-byte union tables above 8 points), and the
oracle output is pinned to digests taken from the loop implementation.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from pretop.errors import PointSetMismatch
from pretop.finite import (
    PASS,
    ByteUnions,
    FinitePretop,
    Verdict,
    enumerate_pretops,
    is_topological,
    vicinity_sweep,
)
from pretop.maps import SpaceMap
from pretop.oracle import run_suites

SIZES = (1, 7, 8, 9, 16, 17, 40)


def _points(n):
    return tuple(f"p{i}" for i in range(n))


@st.composite
def spaces(draw):
    n = draw(st.sampled_from(SIZES))
    vic = tuple(draw(st.integers(0, (1 << n) - 1)) | (1 << i) for i in range(n))
    return FinitePretop(_points(n), vic)


def adh_by_loop(space, a):
    return sum(1 << i for i, m in enumerate(space.vicinity) if m & a)


def inh_by_loop(space, a):
    return sum(1 << i for i, m in enumerate(space.vicinity) if m & ~a == 0)


def image_by_loop(f, a):
    out = 0
    for i, j in enumerate(f.graph):
        if a >> i & 1:
            out |= 1 << j
    return out


def preimage_by_loop(f, b):
    return sum(1 << i for i, j in enumerate(f.graph) if b >> j & 1)


def sweep_by_loop(space, a):
    out = 0
    for i in range(space.n):
        if a >> i & 1:
            out |= space.vicinity[i]
    return out


def names_by_bit(space, a):
    return tuple(p for i, p in enumerate(space.points) if a >> i & 1)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_space_operators_match_their_definitions(data):
    space = data.draw(spaces())
    for _ in range(8):
        a = data.draw(st.integers(0, space.full))
        assert space.adh(a) == adh_by_loop(space, a)
        assert space.inh(a) == inh_by_loop(space, a)
        assert space.names(a) == names_by_bit(space, a)
        assert vicinity_sweep(space, a) == sweep_by_loop(space, a)
    assert space.cols == tuple(space.adh(1 << j) for j in range(space.n))
    assert space.cols == tuple(adh_by_loop(space, 1 << j) for j in range(space.n))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_map_operators_match_their_definitions(data):
    src = data.draw(spaces())
    tgt = data.draw(spaces())
    graph = tuple(data.draw(st.integers(0, tgt.n - 1)) for _ in range(src.n))
    f = SpaceMap(src, tgt, graph)
    for _ in range(8):
        a = data.draw(st.integers(0, src.full))
        b = data.draw(st.integers(0, tgt.full))
        assert f.image_mask(a) == image_by_loop(f, a)
        assert f.preimage_mask(b) == preimage_by_loop(f, b)
    for j in range(tgt.n):
        assert f.fiber(j) == f.preimage_mask(1 << j) == preimage_by_loop(f, 1 << j)


def test_shared_pass_is_frozen():
    assert PASS == Verdict(True) and PASS.witness is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        PASS.ok = False


def test_a_bad_graph_raises_on_every_call():
    # the map tables are cached per graph, and a failed check must not be
    sp = FinitePretop(("1", "2"), (1, 2))
    for _ in range(2):
        with pytest.raises(PointSetMismatch):
            SpaceMap(sp, sp, (0, 2))


def test_tables_grow_linearly():
    # up to 8 points one flat table of all 2^n unions; above, one 256-entry
    # table per byte, so the tables grow linearly in the points
    small = FinitePretop(_points(3), (1, 2, 4))
    small.adh(1)
    assert type(small._adh_tables) is tuple and len(small._adh_tables) == 8
    space = FinitePretop(_points(40), tuple(1 << i for i in range(40)))
    space.adh(1)
    assert isinstance(space._adh_tables, ByteUnions)
    assert [len(t) for t in space._adh_tables] == [256] * 5


def test_cached_values_stay_out_of_equality():
    a = FinitePretop(("1", "2"), (1, 3))
    b = FinitePretop(("1", "2"), (1, 3))
    a.adh(1)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def _topological_by_scan(space):
    for a in space.subsets():
        adh = space.adh(a)
        if space.adh(adh) != adh:
            return Verdict(False, space.names(a))
    return Verdict(True)


def test_singleton_check_matches_full_scan():
    count = 0
    for n in range(1, 5):
        for space in enumerate_pretops(n):
            assert is_topological(space) == _topological_by_scan(space)
            count += 1
    assert count == 4165


def test_oracle_json_is_worker_independent():
    serial = run_suites("all", max_points=2).to_json()
    pooled = run_suites("all", max_points=2, workers=2).to_json()
    assert serial == pooled


def test_pool_folds_across_chunks():
    # 3,173 instances: seven chunks, so the pool keeps a window in flight
    serial = run_suites("compact-at-2way", max_points=3)
    assert serial.suites[0].checked == 3173
    assert run_suites("compact-at-2way", max_points=3, workers=2).to_json() == serial.to_json()


def test_map_suites_match_loop_kernel_digest():
    # Digest of the summary produced by the per-point loop operators.
    text = run_suites(["continuity-5way", "perfect-3way"], max_points=3).to_json()
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "28651f6ecbde8b825e34249e6b779d5a6d4fda64aeb590641e44f07f508fcf88"
    )
    # The seeded 4-point sample, digest taken before the singleton columns,
    # the sweep tables and the cached fibers.
    text = run_suites(["continuity-5way", "perfect-3way"], max_points=4, seed=1).to_json()
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "1e816618dff55550e86a2973880b885d4adae4ff91b520966142e1389313f955"
    )
