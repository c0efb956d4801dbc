"""End extensions and the shared non-compact-end scan."""

import pytest

from pretop.construct import end_extension, extend_map_kappa
from pretop.defsets import Point
from pretop.intervals import INF, INTEGERS, NATURALS0, NATURALS1, NEG_INF, IntervalSet
from pretop.symbolic import build_sym_map, builtin, sym_regularize
from pretop.symbolic.analysis import noncompact_ends, sym_is_compact

KEYS = ["urysohn", "half_grid", "discrete_ray(1)", "discrete_ray(2)", "discrete_ray(3)"]


@pytest.mark.parametrize("regularized", [False, True], ids=["plain", "theta"])
@pytest.mark.parametrize("key", KEYS)
def test_compact_witness_is_the_first_noncompact_end(key, regularized):
    x = builtin(key)
    if regularized:
        x = sym_regularize(x)
    first = next(noncompact_ends(x), None)
    if first is None:
        expected = None
    else:
        e, bad = first
        expected = e if bad is None else e.pin(bad.least())
    verdict = sym_is_compact(x)
    assert verdict.witness == expected
    assert verdict.ok == (first is None)


def test_a_discontinuous_map_is_not_extended():
    x = builtin("urysohn")
    swap = build_sym_map(x, x, {"G": "G", "pinf": Point.atom("minf"), "minf": Point.atom("pinf")})
    with pytest.raises(ValueError, match="map is not continuous at pinf"):
        extend_map_kappa(swap)


def test_end_extension_of_two_rays():
    ext = end_extension(builtin("discrete_ray(2)"))
    assert [name for name, _ in ext.added] == ["end_R1_plus", "end_R2_plus"]
    assert ext.compact.ok


def _reference_least(s):
    """The representative element the workbench used before ``least``."""
    lo, hi = s.parts[0]
    if lo != NEG_INF:
        return int(lo)
    if hi != INF:
        return int(hi)
    return 0


@pytest.mark.parametrize(
    "s, expected",
    [
        (IntervalSet.at_least(NATURALS0, 3), 3),
        (IntervalSet.full(NATURALS1), 1),
        (IntervalSet.from_pairs(INTEGERS, [(None, -2)]), -2),
        (IntervalSet.from_pairs(INTEGERS, [(None, -5), (3, None)]), -5),
        (IntervalSet.full(INTEGERS), 0),
        (IntervalSet.bounded(INTEGERS, -4, 7), -4),
        (IntervalSet.from_pairs(NATURALS0, [(2, 4), (9, 9)]), 2),
        (IntervalSet.single(INTEGERS, -8), -8),
    ],
)
def test_least_is_the_representative_element(s, expected):
    assert s.least() == _reference_least(s) == expected
