"""Interval algebra: oracle is a pointwise membership scan over a window
that extends past every finite endpoint, plus the two end flags.  Beyond
the window a normalized set is constant in each direction, so the window
together with the flags pins the set down completely."""

import math

from hypothesis import example, given, strategies as st
import pytest

from pretop.errors import AxisMismatch, MalformedInterval
from pretop.intervals import (
    INF,
    NEG_INF,
    INTEGERS,
    NATURALS0,
    NATURALS1,
    AxisDomain,
    IntervalSet,
    _normalize,
)


def raw_member(pairs, axis, n):
    # independent of the normal form: reads the raw pairs directly
    if n < (axis.low if axis.kind == "nat" else -math.inf):
        return False
    return any(
        (lo is None or n >= lo) and (hi is None or n <= hi) for lo, hi in pairs
    )


def window(*sets):
    radius = max((s.max_finite_endpoint() for s in sets), default=0) + 5
    return range(-radius, radius + 1)


axes = st.sampled_from([INTEGERS, NATURALS0, NATURALS1])
finite_end = st.integers(min_value=-30, max_value=30)


@st.composite
def raw_pairs(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.one_of(st.none(), finite_end))
        hi_min = lo if lo is not None else -30
        hi = draw(st.one_of(st.none(), st.integers(hi_min, 31)))
        pairs.append((lo, hi))
    return pairs


@st.composite
def interval_sets(draw, axis=None):
    ax = axis if axis is not None else draw(axes)
    return IntervalSet.from_pairs(ax, draw(raw_pairs()))


# -- construction and normal form -------------------------------------------


def test_merge_adjacent():
    s = IntervalSet.from_pairs(INTEGERS, [(1, 3), (4, 9)])
    assert s.parts == ((1, 9),)


def test_clip_to_axis_floor():
    s = IntervalSet.from_pairs(NATURALS0, [(-3, 2)])
    assert s.parts == ((0, 2),)


def test_interval_below_axis_dropped():
    s = IntervalSet.from_pairs(NATURALS1, [(-5, -3), (2, 2)])
    assert s.parts == ((2, 2),)


def test_malformed_reversed():
    with pytest.raises(MalformedInterval):
        IntervalSet.from_pairs(INTEGERS, [(4, 1)])


def test_malformed_infinite_lo():
    with pytest.raises(MalformedInterval):
        IntervalSet.from_pairs(INTEGERS, [(INF, INF)])
    with pytest.raises(MalformedInterval):
        IntervalSet.from_pairs(INTEGERS, [(0, NEG_INF)])


def test_axis_mismatch():
    with pytest.raises(AxisMismatch):
        IntervalSet.full(INTEGERS) | IntervalSet.full(NATURALS0)


def test_integer_axis_rejects_low():
    with pytest.raises(MalformedInterval):
        AxisDomain("int", 3)


@given(axes, raw_pairs())
def test_construction_matches_raw_scan(axis, pairs):
    s = IntervalSet.from_pairs(axis, pairs)
    for n in window(s):
        assert (n in s) == raw_member(pairs, axis, n)


@given(axes, raw_pairs())
def test_normal_form_idempotent(axis, pairs):
    s = IntervalSet.from_pairs(axis, pairs)
    assert IntervalSet.from_pairs(axis, s.parts) == s


@given(axes, raw_pairs())
def test_normal_form_sorted_disjoint_nonadjacent(axis, pairs):
    s = IntervalSet.from_pairs(axis, pairs)
    for (lo1, hi1), (lo2, hi2) in zip(s.parts, s.parts[1:]):
        assert hi1 + 1 < lo2


@given(axes.flatmap(lambda ax: st.tuples(interval_sets(ax), interval_sets(ax))), st.integers(-10, 10))
def test_the_algebra_returns_normal_parts_on_the_axis(pair, d):
    # ``&``, ``~`` and ``shift`` return the parts they build without
    # normalizing them; those parts must already be the normal form
    a, b = pair
    for s in (a & b, ~a, a.shift(d), a | b):
        assert type(s.parts) is tuple and _normalize(s.parts) == s.parts
        assert all(lo >= a.axis.low_value for lo, _ in s.parts)


# -- Boolean algebra against the scan oracle --------------------------------


@given(axes.flatmap(lambda ax: st.tuples(interval_sets(ax), interval_sets(ax))))
def test_union_intersection_difference_pointwise(pair):
    a, b = pair
    for n in window(a, b):
        if n not in a.axis:
            continue
        assert (n in (a | b)) == ((n in a) or (n in b))
        assert (n in (a & b)) == ((n in a) and (n in b))
        assert (n in (a - b)) == ((n in a) and n not in b)
        assert (n in ~a) == (n not in a)
    # end flags, which the window cannot see
    assert (a | b).has_plus_end() == (a.has_plus_end() or b.has_plus_end())
    assert (a & b).has_plus_end() == (a.has_plus_end() and b.has_plus_end())
    assert (~a).has_plus_end() == (not a.has_plus_end())


@given(axes.flatmap(lambda ax: st.tuples(interval_sets(ax), interval_sets(ax))))
def test_de_morgan(pair):
    a, b = pair
    assert ~(a | b) == (~a) & (~b)
    assert ~(a & b) == (~a) | (~b)


@given(interval_sets())
def test_complement_involution_and_self_difference(a):
    assert ~~a == a
    assert (a - a).is_empty()
    assert (a | ~a) == IntervalSet.full(a.axis)
    assert (a & ~a).is_empty()


def test_intersect_example():
    a = IntervalSet.from_pairs(INTEGERS, [(None, 0), (5, None)])
    b = IntervalSet.from_pairs(INTEGERS, [(-2, 7)])
    assert (a & b).parts == ((-2, 0), (5, 7))


def test_union_with_infinite_tail():
    a = IntervalSet.from_pairs(NATURALS0, [(0, 3)])
    b = IntervalSet.from_pairs(NATURALS0, [(2, None)])
    assert (a | b) == IntervalSet.full(NATURALS0)


# -- cardinality --------------------------------------------------------------


def test_cardinality_infinite_is_none():
    assert IntervalSet.at_least(NATURALS0, 2).cardinality() is None


# -- misc helpers used elsewhere in the package ------------------------------


@given(interval_sets(), st.integers(-10, 10))
def test_shift_pointwise(a, d):
    shifted = a.shift(d)
    for n in window(a, shifted):
        if n in a.axis and (n + d) in a.axis:
            assert ((n + d) in shifted) == (n in a)


@given(axes.flatmap(lambda ax: st.tuples(interval_sets(ax), interval_sets(ax))))
def test_subset_and_meets(pair):
    a, b = pair
    assert a.subset_of(b) == (a - b).is_empty()
    assert a.meets(b) == (not (a & b).is_empty())


def test_describe_roundtrip_flavor():
    s = IntervalSet.from_pairs(INTEGERS, [(None, -2), (0, 0), (4, None)])
    assert s.describe() == "..-2,0,4.."


PINNED = IntervalSet.from_pairs(INTEGERS, [(None, -5), (0, 2), (4, 4), (7, None)])


@given(interval_sets())
@example(PINNED)
@example(~PINNED)
def test_membership_matches_a_scan_of_the_parts(s):
    for v in [NEG_INF, INF, *window(s)]:
        assert (v in s) == any(lo <= v <= hi for lo, hi in s.parts), v
