"""Definable sets: the oracle samples concrete points (rectangle corners
plus a fringe, and far representatives for infinite directions) and
compares set algebra pointwise."""

import random
import re

from hypothesis import given, settings, strategies as st
import pytest

from pretop.construct import end_extension
from pretop.defsets import DefSet, GroundSchema, Point
from pretop.errors import SchemaMismatch, UnknownPoint
from pretop.intervals import INF, INTEGERS, NATURALS0, NATURALS1, IntervalSet
from pretop.symbolic.analysis import sym_regularize
from pretop.symbolic.exprs import SymDefSet, SymExpr, sym_box, var
from pretop.symbolic.space import PointPattern, VicinityRule, box_points, build_symbolic, builtin
from pretop.symbolic.utvpi import template_pieces

SCHEMA = GroundSchema((("pinf", ()), ("minf", ()), ("R", (NATURALS0,)), ("G", (NATURALS1, INTEGERS))))


def ray(lo, hi=None):
    return IntervalSet.from_pairs(NATURALS0, [(lo, hi)])


def rows(lo, hi=None):
    return IntervalSet.from_pairs(NATURALS1, [(lo, hi)])


def cols(lo, hi):
    return IntervalSet.from_pairs(INTEGERS, [(lo, hi)])


@st.composite
def def_sets(draw):
    atoms = draw(st.sets(st.sampled_from(["pinf", "minf"])))
    ray_pairs = []
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.integers(0, 12))
        hi = draw(st.one_of(st.none(), st.integers(lo, 14)))
        ray_pairs.append((lo, hi))
    rects = []
    for _ in range(draw(st.integers(0, 3))):
        rlo = draw(st.integers(1, 8))
        rhi = draw(st.one_of(st.none(), st.integers(rlo, 9)))
        clo = draw(st.one_of(st.none(), st.integers(-8, 8)))
        chi = draw(st.one_of(st.none(), st.integers(clo if clo is not None else -8, 9)))
        rects.append(
            (
                IntervalSet.from_pairs(NATURALS1, [(rlo, rhi)]),
                IntervalSet.from_pairs(INTEGERS, [(clo, chi)]),
            )
        )
    strands = {a: [()] for a in atoms}
    return DefSet.of(SCHEMA, {**strands, "R": [(IntervalSet.from_pairs(NATURALS0, ray_pairs),)], "G": rects})


def probe_points(*sets):
    pts = set()
    for s in sets:
        pts.update(s.iter_sample_points())
        pts.update((~s).iter_sample_points())
    return pts


# -- construction -------------------------------------------------------------


def test_duplicate_strand_names_rejected():
    with pytest.raises(SchemaMismatch, match="duplicate strand name"):
        GroundSchema((("a", ()), ("a", (NATURALS0,))))


def test_a_box_needs_one_entry_per_axis_of_its_strand():
    schema = GroundSchema((("p", ()), ("R", (NATURALS0,)), ("G", (NATURALS1, INTEGERS))))
    with pytest.raises(SchemaMismatch, match="^a box of strand 'p' has 1 axes, not 0$"):
        DefSet.of(schema, {"p": [(IntervalSet.full(NATURALS0),)], "R": [()]})
    with pytest.raises(SchemaMismatch, match="^a box of strand 'R' has 0 axes, not 1$"):
        DefSet.of(schema, {"R": [()]})
    with pytest.raises(SchemaMismatch, match="^a box of strand 'G' has 1 axes, not 2$"):
        SymDefSet.of(schema, {"G": [sym_box((0, 3))]})
    assert SymDefSet.of(schema, {"G": [sym_box((1, 1, 0, 3))]}).evaluate({}).describe() == "grid(G; rows 1; cols 0..3)"


def test_the_schema_lists_atoms_then_rays_then_grids_each_in_the_order_given():
    grid, ray = ("G", (NATURALS1, INTEGERS)), ("R", (NATURALS0,))
    schema = GroundSchema((grid, ("b", ()), ray, ("a", ())))
    assert schema.strands == (("b", ()), ("a", ()), ray, grid)
    assert schema == GroundSchema((("b", ()), ("a", ()), ray, grid))


def test_a_strand_with_three_axes_is_rejected():
    with pytest.raises(SchemaMismatch, match="'C' has more than two axes"):
        GroundSchema((("a", ()), ("C", (NATURALS0, NATURALS0, NATURALS0))))


def test_an_end_extension_puts_its_atoms_after_the_old_atoms_and_before_the_rays():
    at = (var("n"), var("n"), var("m"), var("m"))
    schema = GroundSchema((("G", (NATURALS1, INTEGERS)), ("R", (NATURALS0,)), ("p", ())))
    rules = [
        VicinityRule(PointPattern(name, (None,) * len(axes)), SymDefSet.of(schema, {name: [sym_box(at[: 2 * len(axes)])]}))
        for name, axes in schema.strands
    ]
    # two columns keep the grid's row end pinned, as the end extension needs
    carrier = DefSet.of(schema, {"p": [()], "R": [(ray(0),)], "G": [(rows(1), cols(0, 1))]})
    ext = end_extension(build_symbolic(schema, rules, topological=True, carrier=carrier))
    added = [name for name, _ in ext.added]
    assert added == ["end_R_plus", "end_G_plus_0", "end_G_plus_1"]
    assert [name for name, _ in ext.space.schema.strands] == ["p", *added, "R", "G"]


def test_unknown_atom_rejected():
    with pytest.raises(UnknownPoint, match="no strand named 'nope'"):
        DefSet.of(SCHEMA, {"nope": [()]})


def test_unknown_point_rejected():
    with pytest.raises(UnknownPoint):
        Point.grid("X", 1, 1).validate(SCHEMA)
    with pytest.raises(UnknownPoint):
        Point.grid("G", 0, 1).validate(SCHEMA)  # row 0 below the 1-based axis


MEMBERSHIP_SETS = (
    DefSet.full(SCHEMA),
    DefSet.empty(SCHEMA),
    DefSet.of(SCHEMA, {"pinf": [()], "minf": [()]}),
    DefSet.of(SCHEMA, {"R": [(IntervalSet.full(NATURALS0),)]}),
    DefSet.of(SCHEMA, {"G": [(IntervalSet.full(NATURALS1), IntervalSet.full(INTEGERS))]}),
    DefSet.of(SCHEMA, {"minf": [()], "R": [(ray(0, 3),)], "G": [(rows(1, 2), cols(0, 5))]}),
)


@pytest.mark.parametrize(
    "point, message",
    [
        (Point("pinf", (1,)), "atom 'pinf' takes no coordinates"),
        (Point.ray("R", -1), "(-1,) not on ray 'R'"),
        (Point.grid("G", 0, 1), "(0, 1) not on grid 'G'"),
        (Point("R", (1, 2)), "(1, 2) not on ray 'R'"),
        (Point("G", (1,)), "(1,) not on grid 'G'"),
        (Point.grid("X", 1, 1), "no strand named 'X'"),
    ],
    ids=["atom-with-coordinates", "off-the-ray", "off-the-grid", "ray-arity", "grid-arity",
         "unknown-strand"],
)
def test_validate_messages(point, message):
    with pytest.raises(UnknownPoint) as err:
        point.validate(SCHEMA)
    assert str(err.value) == message
    # membership validates only the points no box holds, with the same
    # message whether the set meets the point's strand or not
    for s in MEMBERSHIP_SETS:
        with pytest.raises(UnknownPoint, match=f"^{re.escape(message)}$"):
            point in s


def _membership_by_validation(s: DefSet, p: Point):
    """Membership as it read before: validate, then look for a box."""
    p.validate(s.schema)
    return any(all(c in side for c, side in zip(p.coords, box)) for box in s.boxes(p.strand))


def _outcome(test, s, p):
    try:
        return test(s, p)
    except UnknownPoint as err:
        return str(err)


drawn_points = st.builds(
    Point,
    st.sampled_from(["pinf", "minf", "R", "G", "X"]),
    st.lists(st.integers(-2, 10), max_size=3).map(tuple),
)


@given(def_sets(), drawn_points)
def test_membership_validates_like_the_point(s, p):
    assert _outcome(type(s).__contains__, s, p) == _outcome(_membership_by_validation, s, p)


def test_membership():
    s = DefSet.of(SCHEMA, {"pinf": [()], "G": [(rows(2, 4), cols(0, 0))]})
    assert Point.atom("pinf") in s
    assert Point.atom("minf") not in s
    assert Point.grid("G", 3, 0) in s
    assert Point.grid("G", 3, 1) not in s
    assert Point.ray("R", 0) not in s


# -- canonical grid form -------------------------------------------------------


def test_overlapping_rectangles_merge():
    a = DefSet.of(SCHEMA, {"G": [(rows(1, 5), cols(0, 3)), (rows(3, 8), cols(0, 3))]})
    b = DefSet.of(SCHEMA, {"G": [(rows(1, 8), cols(0, 3))]})
    assert a == b
    assert len(a.boxes("G")) == 1


def test_row_groups_disjoint_and_distinct():
    s = DefSet.of(SCHEMA, {"G": [(rows(1, 6), cols(0, 0)), (rows(4, None), cols(2, 2))]})
    groups = s.boxes("G")
    seen_cols = set()
    for i, (r1, c1) in enumerate(groups):
        assert c1 not in seen_cols
        seen_cols.add(c1)
        for r2, _ in groups[i + 1:]:
            assert not r1.meets(r2)
    # rows 4..6 carry both columns
    assert Point.grid("G", 5, 0) in s and Point.grid("G", 5, 2) in s
    assert Point.grid("G", 7, 0) not in s and Point.grid("G", 7, 2) in s


def test_empty_rectangles_dropped():
    s = DefSet.of(SCHEMA, {"G": [(IntervalSet.empty(NATURALS1), cols(0, 1))]})
    assert s.is_empty()


@given(def_sets(), def_sets())
@settings(max_examples=60)
def test_canonical_equality_is_semantic(a, b):
    same_probe = all((p in a) == (p in b) for p in probe_points(a, b))
    assert (a == b) == same_probe


# -- algebra -------------------------------------------------------------------


@given(def_sets(), def_sets())
@settings(max_examples=60)
def test_boolean_ops_pointwise(a, b):
    union, inter, diff, comp = a | b, a & b, a - b, ~a
    for p in probe_points(a, b):
        ina, inb = p in a, p in b
        assert (p in union) == (ina or inb)
        assert (p in inter) == (ina and inb)
        assert (p in diff) == (ina and not inb)
        assert (p in comp) == (not ina)


@given(def_sets())
@settings(max_examples=60)
def test_complement_laws(a):
    assert ~~a == a
    assert (a | ~a) == DefSet.full(SCHEMA)
    assert (a & ~a).is_empty()


def test_complement_rectangle_identity():
    # (S x T)^c = S^c x full | S x T^c, here checked through the algebra
    s = DefSet.of(SCHEMA, {"G": [(rows(2, 5), cols(-1, 3))]})
    comp = ~s
    assert Point.grid("G", 1, 0) in comp
    assert Point.grid("G", 3, 4) in comp
    assert Point.grid("G", 3, 2) not in comp
    assert Point.atom("pinf") in comp


def test_schema_mismatch():
    other = GroundSchema((("x", ()),))
    with pytest.raises(SchemaMismatch):
        DefSet.full(SCHEMA) & DefSet.full(other)


# -- queries ---------------------------------------------------------------------


def test_cardinality_finite_grid():
    s = DefSet.of(SCHEMA, {"G": [(rows(1, 4), cols(-2, 2))]})
    assert s.is_finite() and s.cardinality() == 20


def test_cardinality_with_all_strands():
    s = DefSet.of(SCHEMA, {"pinf": [()], "R": [(ray(0, 3),)], "G": [(rows(1, 2), cols(5, 6))]})
    assert s.cardinality() == 1 + 4 + 4


def test_infinite_not_finite():
    assert not DefSet.of(SCHEMA, {"R": [(ray(5, None),)]}).is_finite()


def test_meets():
    a = DefSet.of(SCHEMA, {"G": [(rows(1, None), cols(1, None))]})
    b = DefSet.of(SCHEMA, {"G": [(rows(3, 3), cols(-5, 1))]})
    c = DefSet.of(SCHEMA, {"G": [(rows(3, 3), cols(-5, -1))]})
    assert a.meets(b) and not a.meets(c)


def test_describe_mentions_each_strand():
    s = DefSet.of(SCHEMA, {"minf": [()], "R": [(ray(2, None),)], "G": [(rows(1, None), cols(0, 0))]})
    d = s.describe()
    assert "atom(minf)" in d and "ray(R; 2..)" in d and "grid(G;" in d


# -- membership against the set algebra ------------------------------------------

BUILTINS = ("urysohn", "half_grid", "discrete_ray(2)")


def seeded_interval(rng, axis):
    """Up to three pairs, each end finite or infinite, normalized."""
    pairs = []
    for _ in range(rng.randrange(4)):
        lo = None if rng.random() < 0.3 else rng.randint(-8, 8)
        hi = None if rng.random() < 0.3 else rng.randint(-8 if lo is None else lo, 9)
        pairs.append((lo, hi))
    return IntervalSet.from_pairs(axis, pairs)


def seeded_defset(rng, schema):
    """Each atom in or out, one box on each ray, up to three on each grid,
    drawn strand by strand in schema order."""
    strands = {}
    for name, axes in schema.strands:
        if not axes:
            if rng.random() < 0.5:
                strands[name] = [()]
        else:
            count = 1 if len(axes) == 1 else rng.randrange(4)
            strands[name] = [tuple(seeded_interval(rng, ax) for ax in axes) for _ in range(count)]
    return DefSet.of(schema, strands)


@pytest.mark.parametrize("key", BUILTINS)
def test_membership_is_meeting_the_point_set(key):
    x = builtin(key)
    rng = random.Random(f"membership:{key}")
    sets = [seeded_defset(rng, x.schema) for _ in range(24)]
    sets += [DefSet.empty(x.schema), DefSet.full(x.schema)]
    if "G" in dict(x.schema.strands):  # sets of several row groups, where the group that decides matters
        assert any(len(s.boxes("G")) > 1 for s in sets)
    for p in box_points(x, 6):
        point = DefSet.point(x.schema, p)
        for s in sets:
            assert (p in s) == (not (point & s).is_empty()), (p.describe(), s.describe())


@pytest.mark.parametrize("key", BUILTINS)
def test_a_concrete_set_evaluates_back_from_its_symbolic_form(key):
    schema = builtin(key).schema
    rng = random.Random(f"symbolic form:{key}")
    sets = [seeded_defset(rng, schema) for _ in range(24)] + [DefSet.empty(schema), DefSet.full(schema)]
    if "G" in dict(schema.strands):  # boxes of several row groups, each of several parts
        assert any(len(s.boxes("G")) > 1 for s in sets)
        assert any(len(box[0].parts) > 1 and len(box[1].parts) > 1 for s in sets for box in s.boxes("G"))
    for d in sets:
        sym = SymDefSet.from_defset(d)
        assert sym.evaluate({}) == d, d.describe()
        for m in sets[::5]:
            assert sym.with_mask(m).evaluate({}) == d & m, (d.describe(), m.describe())


def test_the_pieces_of_a_grid_set_come_box_by_box_rows_slowest():
    split = (IntervalSet.from_pairs(NATURALS1, [(1, 2), (5, 6)]), IntervalSet.from_pairs(INTEGERS, [(0, 0), (3, 4)]))
    d = DefSet.of(SCHEMA, {"G": [(rows(8), cols(-2, -1)), split]})
    c = SymExpr.const
    expected = [
        ((c(1), c(2)), (c(0), c(0))),
        ((c(1), c(2)), (c(3), c(4))),
        ((c(5), c(6)), (c(0), c(0))),
        ((c(5), c(6)), (c(3), c(4))),
        ((c(8), INF), (c(-2), c(-1))),
    ]
    got = list(template_pieces(SymDefSet.from_defset(d), masked=False))
    assert got == [("G", (([r], 1), ([col], None))) for r, col in expected]


@pytest.mark.parametrize("key", BUILTINS)
def test_a_pattern_matches_the_points_of_its_region(key):
    x = builtin(key)
    schema = x.schema
    rng = random.Random(f"patterns:{key}")
    pats = [r.pattern for r in x.rules + sym_regularize(x).rules]
    for n, axes in schema.strands:
        if len(axes) == 1:
            pats += [PointPattern.ray(n, seeded_interval(rng, axes[0])) for _ in range(8)]
        elif axes:
            pats += [
                PointPattern(n, tuple(None if rng.random() < 0.3 else seeded_interval(rng, a) for a in axes))
                for _ in range(8)
            ]
    for pat in pats:
        region = pat.to_defset(schema)
        for p in box_points(x, 6):
            assert pat.matches(schema, p) == (p in region), (pat.describe(), p.describe())
