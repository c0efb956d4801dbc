"""The pointwise axioms of rules and filter families are decided on
comparison systems; brute force on a window of points and parameters
must confirm every verdict and every witness."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from pretop.defsets import DefSet, GroundSchema, Point
from pretop.errors import EmptyKernel, NonMonotoneRule, SelfMembershipViolation, UnknownPoint
from pretop.intervals import INF, INTEGERS, NATURALS0, NEG_INF, IntervalSet
from pretop.symbolic import (
    DefFilterBase,
    PointPattern,
    VicinityRule,
    build_symbolic,
)
from pretop.symbolic.exprs import SymDefSet, SymExpr, sym_box, var
from pretop.symbolic.space import SymbolicPretop, box_points, builtin

_W = 4  # coordinates -W..W, clipped to the axis
_KS = 12  # parameters 0..KS


@st.composite
def _endpoint(draw, names, side):
    kind = draw(st.sampled_from(("inf", "const", "var", "var", "var")))
    if kind == "inf":
        return INF if side == "hi" else NEG_INF
    c = draw(st.integers(-2, 2))
    if kind == "const":
        return SymExpr.const(c)
    return SymExpr(draw(st.sampled_from(names)), draw(st.sampled_from((1, -1))), c)


@st.composite
def _one_rule(draw):
    """A ray or grid on N or Z, one rule whose template has one to three
    pieces with unit-slope endpoints, offsets in -2..2, in the point's
    coordinates and maybe k; a row selector, when drawn, is also the
    carrier, so that the one rule covers it."""
    grid = draw(st.booleans())
    rows_ax, cols_ax = draw(st.sampled_from((NATURALS0, INTEGERS))), draw(st.sampled_from((NATURALS0, INTEGERS)))
    names = ("n", "m") if grid else ("n",)
    if draw(st.booleans()):
        names += ("k",)
    ends = ("lo", "hi", "lo", "hi") if grid else ("lo", "hi")
    pieces = [tuple(draw(_endpoint(names, side)) for side in ends) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):  # the point itself
        pieces.insert(0, (var("n"), var("n"), var("m"), var("m"))[: len(ends)])
    rows = None
    if draw(st.booleans()):
        lo = draw(st.integers(-2, 2))
        rows = IntervalSet.from_pairs(rows_ax, [(lo, draw(st.sampled_from((lo, lo + 2, None))))])
    name, axes = ("G", (rows_ax, cols_ax)) if grid else ("R", (rows_ax,))
    schema = GroundSchema(((name, axes),))
    t = SymDefSet.of(schema, {name: [sym_box(p) for p in pieces]})
    pat = PointPattern(name, (rows, None)[: len(axes)])
    return schema, VicinityRule(pat, t), None if rows is None else pat.to_defset(schema)


def _window(schema: GroundSchema, pat: PointPattern, carrier) -> list:
    pts = []
    for r in range(-_W, _W + 1):
        for c in range(-_W, _W + 1) if pat.kind == "grid" else (None,):
            p = Point.ray(pat.strand, r) if c is None else Point.grid(pat.strand, r, c)
            try:
                p.validate(schema)
            except UnknownPoint:
                continue  # below a natural axis
            if (carrier is None or p in carrier) and pat.matches(schema, p):
                pts.append(p)
    return pts


_POINT = re.compile(r"(\w+)\((-?\d+)(?:,(-?\d+))?\)")


def _parse_point(text: str) -> Point:
    name, a, b = _POINT.fullmatch(text).groups()
    return Point.ray(name, int(a)) if b is None else Point.grid(name, int(a), int(b))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_one_rule())
def test_rule_axioms_are_decided_exactly(case):
    schema, rule, carrier = case
    t = rule.template if carrier is None else rule.template.with_mask(carrier)

    def vicinity(p, k):
        return t.substitute(rule.pattern.env_for(p)).evaluate({"k": k})

    try:
        build_symbolic(schema, [rule], carrier=carrier)
    except SelfMembershipViolation as e:
        text, k = re.fullmatch(r"(\S+) missing from its own vicinity at k=(\d+)", str(e)).groups()
        p = _parse_point(text)
        assert p in rule.pattern.to_defset(schema) and (carrier is None or p in carrier)
        assert p not in vicinity(p, int(k))
        return
    except NonMonotoneRule as e:
        text, k, k1 = re.fullmatch(r"vicinity of (\S+) grows from k=(\d+) to k=(\d+)", str(e)).groups()
        p, k = _parse_point(text), int(k)
        assert int(k1) == k + 1 and (carrier is None or p in carrier)
        assert not vicinity(p, k + 1).subset_of(vicinity(p, k))
        return
    for p in _window(schema, rule.pattern, carrier):
        prev = None
        for k in range(_KS + 1):
            cur = vicinity(p, k)
            assert p in cur, (p.describe(), k)
            assert prev is None or cur.subset_of(prev), (p.describe(), k)
            prev = cur


def _vicinity_by_substitution(x: SymbolicPretop, p: Point, k: int) -> DefSet:
    """``vicinity`` as it read before: the point's template, then ``k``."""
    return x.template_at(p).evaluate({"k": k})


def _assert_vicinity_binds_like_substitution(x: SymbolicPretop, window: int):
    for p in box_points(x, window):
        for k in range(4):
            assert x.vicinity(p, k) == _vicinity_by_substitution(x, p, k), (p.describe(), k)


@pytest.mark.parametrize("key", ["urysohn", "half_grid", "discrete_ray(2)"])
def test_vicinity_binds_like_substitution_on_the_builtins(key):
    x = builtin(key)
    _assert_vicinity_binds_like_substitution(x, x.bound + 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_one_rule())
def test_vicinity_binds_like_substitution_on_drawn_rules(case):
    # the space is assembled unvalidated: both forms evaluate the same
    # template, whatever the axioms say of it
    schema, rule, carrier = case
    t = rule.template if carrier is None else rule.template.with_mask(carrier)
    x = SymbolicPretop(schema, (VicinityRule(rule.pattern, t),), carrier=carrier)
    _assert_vicinity_binds_like_substitution(x, _W)


_AXES = (NATURALS0,)
_RAY = GroundSchema((("R", _AXES),))
_N, _K = var("n"), var("k")


def test_a_rule_breaking_both_axioms_reports_self_membership():
    # [k, k] holds n only at k = n, and grows at every step; the witness
    # fixes n, then k, nearest 0
    rule = VicinityRule(PointPattern.ray("R"), SymDefSet.of(_RAY, {"R": [sym_box((_K, _K))]}))
    with pytest.raises(SelfMembershipViolation, match=r"^R\(0\) missing from its own vicinity at k=1$"):
        build_symbolic(_RAY, [rule])


def test_a_growing_rule_names_its_first_step():
    # [3, k] is empty up to k = 2 and then gains k + 1 at each step; the
    # first system puts the new point below n, so n = 4 at k = 2
    rule = VicinityRule(PointPattern.ray("R"), SymDefSet.of(_RAY, {"R": [sym_box((_N, _N)), sym_box((3, _K))]}))
    with pytest.raises(NonMonotoneRule, match=r"^vicinity of R\(4\) grows from k=2 to k=3$"):
        build_symbolic(_RAY, [rule])


def test_a_template_mask_without_a_carrier_must_hold_each_point():
    five = DefSet.of(_RAY, {"R": [(IntervalSet.from_pairs(NATURALS0, [(0, 5)]),)]})
    rule = VicinityRule(PointPattern.ray("R"), SymDefSet.of(_RAY, {"R": [sym_box((_N, _N))]}).with_mask(five))
    with pytest.raises(SelfMembershipViolation, match=r"^R\(6\) missing from its own vicinity at k=0$"):
        build_symbolic(_RAY, [rule])
    # the same mask as carrier confines the points instead
    build_symbolic(_RAY, [VicinityRule(PointPattern.ray("R"), SymDefSet.of(_RAY, {"R": [sym_box((_N, _N))]}))], carrier=five)


# -- filter families -----------------------------------------------------------------


def test_a_family_empty_from_three_on_raises_at_three():
    with pytest.raises(EmptyKernel, match="^filter family is empty at k=3$"):
        DefFilterBase(SymDefSet.of(_RAY, {"R": [sym_box((0, -_K + 2))]}))


def test_a_growing_family_raises_at_its_first_step():
    with pytest.raises(NonMonotoneRule, match="^filter family grows from k=0 to k=1$"):
        DefFilterBase(SymDefSet.of(_RAY, {"R": [sym_box((0, _K))]}))


def test_emptiness_comes_first_at_an_earlier_or_equal_step():
    # [k-2, k-2] is empty for k < 2 and grows from k=1 to k=2
    with pytest.raises(EmptyKernel, match="^filter family is empty at k=0$"):
        DefFilterBase(SymDefSet.of(_RAY, {"R": [sym_box((_K - 2, _K - 2))]}))


def test_the_principal_family_of_the_empty_set_is_empty():
    with pytest.raises(EmptyKernel, match="^filter family is empty at k=0$"):
        DefFilterBase.principal(DefSet.empty(_RAY))


def test_shrinking_families_are_accepted():
    tail = DefFilterBase(SymDefSet.of(_RAY, {"R": [sym_box((_K + 1, INF))]}))
    assert tail.at(4) == DefSet.of(_RAY, {"R": [(IntervalSet.from_pairs(NATURALS0, [(5, None)]),)]})
