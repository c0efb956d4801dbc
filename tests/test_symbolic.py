"""Symbolic spaces: the rule engine must agree with brute force on every
finite snapshot wide enough to be faithful, and the worked grid space
must reproduce its known closures, ends and compactness splits."""

from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from pretop.construct import end_extension, merged_end_extension
from pretop.defsets import DefSet, GroundSchema, Point
from pretop.errors import (
    FragmentEscape,
    PatternGap,
    PatternOverlap,
    SelfMembershipViolation,
    SizeLimit,
    UnknownBuiltin,
    WindowTooSmall,
)
from pretop.intervals import INF, INTEGERS, NATURALS0, NATURALS1, NEG_INF, AxisDomain, IntervalSet
from pretop.model import eval_set, parse_set_expr, set_literal
from pretop.symbolic import (
    DefFilterBase,
    PointPattern,
    SymbolicPretop,
    VicinityRule,
    build_symbolic,
    builtin,
    cl_theta,
    end_converges,
    ends,
    sym_adh,
    sym_compact_at,
    sym_hausdorff,
    sym_inh,
    sym_is_compact,
    sym_regularize,
    sym_restrict,
)
from pretop.symbolic.analysis import _membership_region
from pretop.symbolic.exprs import SymDefSet, SymExpr, sym_box, var
from pretop.symbolic.space import box_points, truncate
from pretop.symbolic.utvpi import cells, conjoin, section, solution


def _set(x: SymbolicPretop, text: str) -> DefSet:
    return eval_set(parse_set_expr(text), x)


def box_set(x: SymbolicPretop, window: int) -> DefSet:
    """The points of ``box_points`` as a definable set: ``[-window,
    window]`` on every axis, clipped to the axis and met with the carrier.
    A kernel inside it is faithful in the truncation at ``window``."""
    side = [(-window, window)]
    box = {n: [tuple(IntervalSet.from_pairs(ax, side) for ax in axes)] for n, axes in x.schema.strands}
    return DefSet.of(x.schema, box) & x.carrier_set


# -- builtins -----------------------------------------------------------------


def test_builtin_cache_and_keys():
    assert builtin("urysohn") is builtin("urysohn")
    assert builtin("discrete_ray(2)").schema.strands[1][0] == "R2"
    with pytest.raises(UnknownBuiltin):
        builtin("moebius")


def test_discrete_ray_beyond_512_strands_is_refused_before_building(monkeypatch):
    # the build grows about 6x per doubling of the strands; __wrapped__
    # keeps the stand-in out of builtin's cache
    built = []
    monkeypatch.setattr("pretop.symbolic.space._discrete_ray", built.append)
    for count in (513, 100000):
        with pytest.raises(SizeLimit, match=f"at most 512 strands, got {count}"):
            builtin.__wrapped__(f"discrete_ray({count})")
    assert built == []
    builtin.__wrapped__("discrete_ray(512)")
    assert built == [512]


def test_hashing_a_space_walks_its_schema_once(monkeypatch):
    # every template set carries the schema, which keeps its hash; before,
    # each template rehashed every strand: 40,400 axis hashes at 200 strands
    space, strands = builtin.__wrapped__("discrete_ray(200)"), 200
    calls = []
    axis_hash = AxisDomain.__hash__
    monkeypatch.setattr(AxisDomain, "__hash__", lambda ax: calls.append(ax) or axis_hash(ax))
    hash(space)
    first = len(calls)
    hash(space)
    assert first <= 2 * strands and len(calls) - first <= strands


def test_a_huge_or_padded_ray_count_is_read_by_its_digits():
    # int() refuses more than 4,300 digits; leading zeros do not count
    with pytest.raises(SizeLimit, match="at most 512 strands, got a 5000-digit count$"):
        builtin.__wrapped__("discrete_ray(" + "9" * 5000 + ")")
    assert builtin.__wrapped__("discrete_ray(" + "0" * 5000 + "3)") == builtin("discrete_ray(3)")


def test_urysohn_shape():
    x = builtin("urysohn")
    assert [name for name, axes in x.schema.strands if not axes] == ["pinf", "minf"]
    assert [e.describe() for e in ends(x)] == [
        "G(p,+)",
        "G(p,-)",
        "G(+,p)",
        "G(+,+)",
        "G(+,-)",
    ]
    # rows start at 1, columns are two-sided: a 2-window sees 2 + 2*5 points
    assert len(box_points(x, 2)) == 12
    assert [r.pattern.describe() for r in x.rules] == ["grid G (cols ..-1,1..)", "grid G (cols 0)", "atom pinf", "atom minf"]
    assert [r.pattern.describe() for r in sym_regularize(x).rules] == [
        "grid G (rows all; cols ..-1,1..)",
        "grid G (rows all; cols 0)",
        "atom pinf",
        "atom minf",
    ]


def _discrete(schema: GroundSchema, carrier: DefSet | None = None) -> SymbolicPretop:
    """The discrete space on a schema: each point's vicinity is the point."""
    at = (var("n"), var("n"), var("m"), var("m"))
    rules = [
        VicinityRule(PointPattern(name, (None,) * len(axes)), SymDefSet.of(schema, {name: [sym_box(at[: 2 * len(axes)])]}))
        for name, axes in schema.strands
    ]
    return build_symbolic(schema, rules, topological=True, carrier=carrier)


def test_ends_come_strand_by_strand_with_a_fixed_side_first():
    # an atom has no end; a minus end needs a two-sided axis
    schema = GroundSchema(
        (
            ("a", ()),
            ("R", (NATURALS0,)),
            ("Z", (INTEGERS,)),
            ("G", (INTEGERS, INTEGERS)),
            ("H", (NATURALS1, INTEGERS)),
            ("K", (INTEGERS, NATURALS0)),
        )
    )
    assert " ".join(e.describe() for e in ends(_discrete(schema))) == (
        "R(+) Z(+) Z(-) G(p,+) G(p,-) G(+,p) G(-,p) G(+,+) G(+,-) G(-,+) G(-,-) "
        "H(p,+) H(p,-) H(+,p) H(+,+) H(+,-) K(p,+) K(+,p) K(-,p) K(+,+) K(-,+)"
    )


def test_the_end_extension_names_a_negative_pin():
    # columns -1..0 leave only the row end at a fixed column, which diverges at both
    schema = GroundSchema((("G", (NATURALS1, INTEGERS)),))
    cols = IntervalSet.bounded(INTEGERS, -1, 0)
    x = _discrete(schema, DefSet.of(schema, {"G": [(IntervalSet.full(NATURALS1), cols)]}))
    assert [e.describe() for e in ends(x)] == ["G(+,p)"]
    ext = end_extension(x)
    assert [(name, e.describe()) for name, e in ext.added] == [("end_G_plus_m1", "G(+,-1)"), ("end_G_plus_0", "G(+,0)")]
    assert ext.compact.ok


def test_truncate_window_floor():
    x = builtin("urysohn")
    with pytest.raises(WindowTooSmall):
        truncate(x, x.bound + 1)


def test_truncate_kernels_are_clipped_templates():
    # kernels evaluate the template at k=window, then clip to the box:
    # a zero-column point keeps only itself since its tails start past w
    x = builtin("urysohn")
    w = 4
    fin, _ = truncate(x, w)
    pts = box_points(x, w)
    i = pts.index(Point.grid("G", 2, 0))
    assert fin.vicinity[i] == 1 << i
    j = pts.index(Point.grid("G", 2, 1))
    assert fin.vicinity[j] == 1 << j  # off-column points are isolated
    a = pts.index(Point.atom("pinf"))
    assert fin.names(fin.vicinity[a]) == ("pinf",)  # rows > w are outside too


# -- adherence and theta closure ------------------------------------------------


def test_adh_inh_duality_on_samples():
    x = builtin("urysohn")
    for text in ("grid(G; cols=1..)", "grid(G; cols=0) | atom(pinf)", "empty"):
        s = _set(x, text)
        assert sym_inh(x, s) == x.carrier_set - sym_adh(x, x.carrier_set - s)


def test_theta_closure_of_right_half():
    x = builtin("urysohn")
    b = _set(x, "grid(G; cols=1..)")
    assert cl_theta(x, b, 1) == _set(x, "grid(G; cols=0..) | atom(pinf)")
    assert cl_theta(x, b, 2) == _set(x, "grid(G; cols=0..) | atom(pinf) | atom(minf)")
    assert cl_theta(x, b, 3) == cl_theta(x, b, 2)  # stabilizes


def test_plain_adh_of_right_half_is_smaller():
    x = builtin("urysohn")
    b = _set(x, "grid(G; cols=1..)")
    assert sym_adh(x, b) == _set(x, "grid(G; cols=0..) | atom(pinf)")


def test_vicinity_core_of_pole():
    x = builtin("urysohn")
    core = _membership_region(x, x.template_at(Point.atom("pinf")))
    assert set_literal(core) == "atom(pinf)"


# -- ends ---------------------------------------------------------------------


def test_row_tails_converge_to_their_zero_point():
    x = builtin("urysohn")
    right = next(e for e in ends(x) if e.describe() == "G(p,+)")
    ans = end_converges(x, right)
    assert ans.at(3) == _set(x, "grid(G; rows=3; cols=0)")


def test_column_tails_split_by_side():
    x = builtin("urysohn")
    up = next(e for e in ends(x) if e.describe() == "G(+,p)")
    ans = end_converges(x, up)
    assert ans.describe() == "..-1 -> atom minf; 0 -> empty; 1.. -> atom pinf"
    assert ans.at(2) == _set(x, "atom(pinf)")
    assert ans.at(-1) == _set(x, "atom(minf)")
    assert ans.at(0).is_empty()  # the zero column escapes, hence no compactness


def test_corner_ends_converge_uniformly():
    x = builtin("urysohn")
    corner = next(e for e in ends(x) if e.describe() == "G(+,+)")
    assert end_converges(x, corner).at() == _set(x, "atom(pinf)")


# -- compactness splits ----------------------------------------------------------


def test_urysohn_compactness_split():
    x = builtin("urysohn")
    v = sym_is_compact(x)
    assert not v.ok
    assert v.witness.describe() == "G(+,0)"
    assert sym_is_compact(sym_regularize(x)).ok


def test_hausdorff_lost_by_regularization():
    x = builtin("urysohn")
    assert sym_hausdorff(x).ok
    assert not sym_hausdorff(sym_regularize(x)).ok


def test_zero_column_is_compact_inside_theta_but_not_alone():
    x = builtin("urysohn")
    a = _set(x, "grid(G; cols=0) | atom(pinf)")
    f = DefFilterBase.principal(a)
    assert sym_compact_at(sym_regularize(x), f, a).ok
    assert not sym_compact_at(x, f, a).ok
    sub = sym_regularize(sym_restrict(x, a))
    v = sym_is_compact(sub)
    assert not v.ok and v.witness.describe() == "G(+,0)"


@pytest.mark.parametrize(
    "key,family,at,witness",
    [
        ("discrete_ray(1)", "ray(R1)", "ray(R1)", "R1(+)"),
        ("discrete_ray(1)", "ray(R1; 0..5)", "ray(R1; 0..5)", None),
        ("discrete_ray(2)", "ray(R1)", "all", "R1(+)"),
    ],
)
def test_compact_at_pinned_end(key, family, at, witness):
    # an end without parameter whose trace meshes the family must have a
    # limit point inside the set
    x = builtin(key)
    v = sym_compact_at(x, DefFilterBase.principal(_set(x, family)), _set(x, at))
    assert v.ok == (witness is None)
    assert (v.witness and v.witness.describe()) == witness


def test_compact_at_pinned_end_of_the_end_extension():
    x = end_extension(builtin("discrete_ray(1)")).space
    everything = _set(x, "all")
    assert sym_compact_at(x, DefFilterBase.principal(everything), everything).ok


def test_discrete_ray_not_compact_until_extended():
    r = builtin("discrete_ray(1)")
    v = sym_is_compact(r)
    assert not v.ok and v.witness.describe() == "R1(+)"
    assert sym_hausdorff(r).ok


# -- engine versus brute force ---------------------------------------------------


@pytest.mark.parametrize(
    "key,literal",
    [
        ("urysohn", "grid(G; cols=1..)"),
        ("urysohn", "grid(G; cols=0)"),
        ("urysohn", "grid(G; rows=1..2) | atom(minf)"),
        ("half_grid", "grid(G; cols=0)"),
        ("discrete_ray(2)", "ray(R1; 3..) | ray(R2; 0..1)"),
    ],
)
def test_sym_adh_matches_snapshot(key, literal):
    x = builtin(key)
    s = _set(x, literal)
    w = 2 * x.bound + 8
    fin, _ = truncate(x, w)
    pts = box_points(x, w)
    mask = sum(1 << i for i, p in enumerate(pts) if p in s)
    adh = sym_adh(x, s)
    box = box_set(x, w)
    for i, p in enumerate(pts):
        if not x.vicinity(p, w).subset_of(box):
            continue  # kernel clipped by the window; snapshot lies here
        assert bool(fin.adh(mask) >> i & 1) == (p in adh), p.describe()


@pytest.mark.parametrize("key", ["Z ray", "urysohn", "coupled"])
def test_the_window_set_holds_exactly_the_window_points(key):
    # on a Z ray the window reaches down to -w as it does on a Z grid axis
    spaces = {
        "Z ray": lambda: _one_rule(_ZZ, (_N, _N), (NEG_INF, -_K - 1)),
        "urysohn": lambda: builtin("urysohn"),
        "coupled": _coupled,
    }
    x = spaces[key]()
    for w in (0, 3, 12):
        box, pts = box_set(x, w), box_points(x, w)
        assert all(p in box for p in pts)
        assert box.cardinality() == len(pts)


# -- custom spaces and validation ---------------------------------------------------


_RAY_AXES = (AxisDomain("nat", 0),)


def _ray_schema() -> GroundSchema:
    return GroundSchema((("R", _RAY_AXES),))


def test_build_symbolic_accepts_tail_space():
    schema = _ray_schema()
    rules = (
        VicinityRule(
            PointPattern.ray("R"),
            SymDefSet.of(schema, {"R": [sym_box((var("n"), INF))]}),
        ),
    )
    x = build_symbolic(schema, rules, label="tails")
    assert sym_adh(x, _set(x, "ray(R; 5)")) == _set(x, "ray(R; ..5)")


def test_build_symbolic_rejects_gap():
    schema = _ray_schema()
    rules = (
        VicinityRule(
            PointPattern.ray("R", IntervalSet.from_pairs(AxisDomain("nat", 0), [(1, None)])),
            SymDefSet.of(schema, {"R": [sym_box((var("n"), var("n")))]}),
        ),
    )
    with pytest.raises(PatternGap):
        build_symbolic(schema, rules)


def test_build_symbolic_rejects_overlap():
    schema = _ray_schema()
    axis = AxisDomain("nat", 0)
    rules = (
        VicinityRule(
            PointPattern.ray("R"),
            SymDefSet.of(schema, {"R": [sym_box((var("n"), var("n")))]}),
        ),
        VicinityRule(
            PointPattern.ray("R", IntervalSet.from_pairs(axis, [(2, 4)])),
            SymDefSet.of(schema, {"R": [sym_box((var("n"), var("n")))]}),
        ),
    )
    with pytest.raises(PatternOverlap):
        build_symbolic(schema, rules)


def test_coverage_errors_keep_their_rule_and_points_over_several_strands():
    grid = (NATURALS1, INTEGERS)
    schema = GroundSchema((("p", ()), ("R1", (NATURALS0,)), ("R2", (NATURALS0,)), ("G", grid)))
    own = {0: (), 1: (_N, _N), 2: (_N, _N, var("m"), var("m"))}

    def rule(pattern):
        return VicinityRule(pattern, SymDefSet.of(schema, {pattern.strand: [sym_box(own[len(pattern.sels)])]}))

    left, right = IntervalSet.from_pairs(INTEGERS, [(None, 0)]), IntervalSet.from_pairs(INTEGERS, [(0, None)])
    rules = [
        rule(PointPattern.grid("G", cols=left)),
        rule(PointPattern.ray("R1", IntervalSet.bounded(NATURALS0, 0, 5))),
        rule(PointPattern.ray("R2")),
        rule(PointPattern.atom("p")),
        rule(PointPattern.grid("G", cols=right)),
    ]
    with pytest.raises(PatternOverlap, match=r"^rule 4 claims already-covered points: grid\(G; rows all; cols 0\)$"):
        build_symbolic(schema, rules)
    rules[4] = rule(PointPattern.grid("G", cols=right - left))
    with pytest.raises(PatternGap, match=r"^no rule covers ray\(R1; 6\.\.\)$"):
        build_symbolic(schema, rules)
    carrier = ~DefSet.of(schema, {"p": [()], "R1": [(IntervalSet.at_least(NATURALS0, 6),)]})
    assert build_symbolic(schema, rules, carrier=carrier).carrier == carrier
    with pytest.raises(PatternGap, match=r"^no rule covers atom\(p\) \| ray\(R1; 6\.\.\)$"):
        build_symbolic(schema, rules[:3] + rules[4:])


def test_build_symbolic_rejects_missing_self():
    schema = _ray_schema()
    rules = (
        VicinityRule(
            PointPattern.ray("R"),
            SymDefSet.of(schema, {"R": [sym_box((var("n") + 1, INF))]}),
        ),
    )
    with pytest.raises(SelfMembershipViolation):
        build_symbolic(schema, rules)


def test_build_symbolic_rejects_growing_template():
    from pretop.errors import NonMonotoneRule

    schema = _ray_schema()
    rules = (
        VicinityRule(
            PointPattern.ray("R"),
            SymDefSet.of(schema, {"R": [sym_box((var("n"), var("n"))), sym_box((0, var("k")))]}),
        ),
    )
    with pytest.raises(NonMonotoneRule):
        build_symbolic(schema, rules)


# -- Hausdorff separation by tight closure --------------------------------------

_N, _K = var("n"), var("k")
_NAT = GroundSchema((("R", (NATURALS0,)),))
_ZZ = GroundSchema((("Z", (INTEGERS,)),))


def _one_rule(schema: GroundSchema, *pieces) -> SymbolicPretop:
    [(name, axes)] = schema.strands
    t = SymDefSet.of(schema, {name: [sym_box(p) for p in pieces]})
    return build_symbolic(schema, [VicinityRule(PointPattern.ray(name), t)])


def _split_mirror() -> SymbolicPretop:
    # {n, -n+9} on Z, one rule for ..3 and one for 4..
    t = SymDefSet.of(_ZZ, {"Z": [sym_box((_N, _N)), sym_box((-_N + 9, -_N + 9))]})
    halves = ((None, 3), (4, None))
    return build_symbolic(
        _ZZ,
        [VicinityRule(PointPattern.ray("Z", IntervalSet.from_pairs(INTEGERS, [h])), t) for h in halves],
    )


def _coupled() -> SymbolicPretop:
    # rows [n, m] tie the two coordinates, so adherence regions are no boxes
    grid = (NATURALS0, NATURALS0)
    schema = GroundSchema((("G", grid),))
    rows = IntervalSet.from_pairs(NATURALS0, [(0, 3)])
    cols = IntervalSet.from_pairs(NATURALS0, [(4, None)])
    t = SymDefSet.of(schema, {"G": [sym_box((_N, var("m"), var("m"), var("m")))]})
    carrier = DefSet.of(schema, {"G": [(rows, cols)]})
    return build_symbolic(schema, [VicinityRule(PointPattern.grid("G", rows, cols), t)], carrier=carrier)


def _ray_from_zero() -> DefSet:
    # the carrier alone keeps -n and n apart
    return DefSet.of(_ZZ, {"Z": [(IntervalSet.from_pairs(INTEGERS, [(0, None)]),)]})


def _restricted(text: str) -> SymbolicPretop:
    x = builtin("urysohn")
    return sym_restrict(x, _set(x, text))


_HAUSDORFF_SPACES = {
    **{key: (lambda key=key: builtin(key)) for key in ("urysohn", "half_grid", "discrete_ray(1)", "discrete_ray(2)")},
    **{
        f"r({key})": (lambda key=key: sym_regularize(builtin(key)))
        for key in ("urysohn", "half_grid", "discrete_ray(1)", "discrete_ray(2)")
    },
    "U|cols=0": lambda: _restricted("grid(G; cols=0) | atom(pinf)"),
    "r(U|cols=0)": lambda: sym_regularize(_restricted("grid(G; cols=0) | atom(pinf)")),
    "U|rows=1..3": lambda: _restricted("grid(G; rows=1..3) | atom(minf)"),
    "ends(discrete_ray(2))": lambda: end_extension(builtin("discrete_ray(2)")).space,
    "merged(discrete_ray(2))": lambda: merged_end_extension(builtin("discrete_ray(2)")).space,
    "ends(urysohn)": lambda: end_extension(builtin("urysohn")).space,
    "merged(urysohn)": lambda: merged_end_extension(builtin("urysohn")).space,
    "[n,inf)": lambda: _one_rule(_NAT, (_N, INF)),
    "{n}|[k+1,inf)": lambda: _one_rule(_NAT, (_N, _N), (_K + 1, INF)),
    "[n-1,n+1]": lambda: _one_rule(_ZZ, (_N - 1, _N + 1)),
    "{n,-n}": lambda: _one_rule(_ZZ, (_N, _N), (-_N, -_N)),
    "{n,-n}|0..": lambda: sym_restrict(_one_rule(_ZZ, (_N, _N), (-_N, -_N)), _ray_from_zero()),
    "{n,n+1}": lambda: _one_rule(_ZZ, (_N, _N), (_N + 1, _N + 1)),
    "{n,-n+9} split": _split_mirror,
    "rows [n,m]": _coupled,
    "r(U|rows=1..3)": lambda: sym_regularize(_restricted("grid(G; rows=1..3) | atom(minf)")),
    "r(rows [n,m])": lambda: sym_regularize(_coupled()),
    "r({n,-n+9} split)": lambda: sym_regularize(_split_mirror()),
    "r({n,-n})": lambda: sym_regularize(_one_rule(_ZZ, (_N, _N), (-_N, -_N))),
    "r({n,-n}|0..)": lambda: sym_regularize(sym_restrict(_one_rule(_ZZ, (_N, _N), (-_N, -_N)), _ray_from_zero())),
}

# Witnesses of the non-Hausdorff spaces; every other space is Hausdorff.
# Within a rule pair the witness fixes n1, m1, n2, m2 in turn to the
# feasible value nearest 0.
_WITNESSES = {
    "r(urysohn)": ("pinf", "minf"),
    "[n,inf)": ("R(0)", "R(1)"),
    "{n}|[k+1,inf)": ("R(0)", "R(1)"),
    "[n-1,n+1]": ("Z(0)", "Z(1)"),
    "{n,-n}": ("Z(-1)", "Z(1)"),
    "{n,n+1}": ("Z(0)", "Z(-1)"),  # the first piece pair needs n1 > n2
    "{n,-n+9} split": ("Z(0)", "Z(9)"),
    "rows [n,m]": ("G(0,4)", "G(1,4)"),
    "r(rows [n,m])": ("G(0,4)", "G(1,4)"),
    "r({n,-n+9} split)": ("Z(0)", "Z(9)"),
    "r({n,-n})": ("Z(-1)", "Z(1)"),
}

# Parameter shifts of the regularizations: at the point named, the
# regularized template at k is the adherence of the vicinity at k + shift.
# Only the minus pole of U|rows=1..3 needs one: its vicinity keeps grid
# points up to k = 2 only, so its adherence settles from k = 3 on.
_REBASE = {("U|rows=1..3", "minf"): 3}


@pytest.mark.parametrize("name", sorted(n for n in _HAUSDORFF_SPACES if not n.startswith("r(")))
def test_regularization_is_the_adherence_of_each_vicinity(name):
    x = _HAUSDORFF_SPACES[name]()
    r = sym_regularize(x)
    for p in box_points(x, 4):
        shift = _REBASE.get((name, p.describe()), 0)
        for k in range(8):
            assert r.vicinity(p, k) == sym_adh(x, x.vicinity(p, k + shift)), (p.describe(), k)


@pytest.mark.parametrize("name", sorted(_HAUSDORFF_SPACES))
def test_hausdorff_verdict_and_certificate(name):
    x = _HAUSDORFF_SPACES[name]()
    v = sym_hausdorff(x)
    if name in _WITNESSES:
        assert not v.ok
        p, q = v.witness
        assert (p.describe(), q.describe()) == _WITNESSES[name]
        assert p != q and p in x.carrier_set and q in x.carrier_set
        for k in range(2 * x.bound + 12):
            assert x.vicinity(p, k).meets(x.vicinity(q, k)), k
        return
    assert v.ok and v.witness is None
    # brute force: every pair of distinct points in a small box parts by
    # some parameter, hence by the largest one tried
    w = 3
    big = 2 * (w + x.bound) + 4
    vics = {p: x.vicinity(p, big) for p in box_points(x, w)}
    for p, q in combinations(vics, 2):
        assert not vics[p].meets(vics[q]), (p.describe(), q.describe())


@pytest.mark.parametrize("name", sorted(_HAUSDORFF_SPACES))
def test_parametric_ends_agree_with_their_pinned_classes(name):
    # the cells over the end parameter P give at each p the limits that
    # the one-cell projection of the pinned trace gives
    x = _HAUSDORFF_SPACES[name]()
    for y in (x, sym_regularize(x)):
        for e in ends(y):
            if not e.parametric:
                continue
            ans = end_converges(y, e)
            for p in range(-20, 21):
                if p in ans.axis:
                    assert ans.at(p) == end_converges(y, e.pin(p)).at(), (y.label, e.describe(), p)


def test_coupled_system_answers_box_callers_exactly():
    # the tie n <= m holds throughout the pattern's box rows 0..3 x cols 4..
    x = _HAUSDORFF_SPACES["rows [n,m]"]()
    s = _set(x, "grid(G; rows=2)")
    adh, inh = sym_adh(x, s), sym_inh(x, s)
    assert adh == _set(x, "grid(G; rows=0..2; cols=4..)")
    assert inh.is_empty()
    for w in (8, 12):
        _agrees_with_snapshot(x, s, w, adh=adh, inh=inh)


def test_a_tie_the_other_comparisons_imply_is_answered_exactly():
    # rows [n, m] x cols [m, m] meets rows 2 only where n <= 2 <= m, so n <= m
    # follows; meeting cols 5 leaves n <= m = 5 to the tie, which the closed
    # bound n <= 5 then implies
    grid = (NATURALS0, NATURALS0)
    schema = GroundSchema((("G", grid),))
    t = SymDefSet.of(
        schema, {"G": [sym_box((_N, _N, var("m"), var("m"))), sym_box((_N, var("m"), var("m"), var("m")))]}
    )
    x = build_symbolic(schema, [VicinityRule(PointPattern.grid("G"), t)])
    s = _set(x, "grid(G; rows=2)")
    adh = sym_adh(x, s)
    assert adh == _set(x, "grid(G; rows=2) | grid(G; rows=0..2; cols=2..)")
    _agrees_with_snapshot(x, s, 8, adh=adh)
    s = _set(x, "grid(G; cols=5)")
    adh = sym_adh(x, s)
    assert adh == s
    _agrees_with_snapshot(x, s, 12, adh=adh)
    # the complement of rows 2 meets [n, m] x [m, m] on the triangle n <= m,
    # which no bound of n or m alone describes
    with pytest.raises(FragmentEscape, match="^comparison ties n to m$"):
        sym_inh(x, _set(x, "grid(G; rows=2)"))


def _agrees_with_snapshot(x: SymbolicPretop, s: DefSet, w: int, **answers):
    """Each answer (keyed by the finite operator) matches the truncation at
    ``w`` on every point whose kernel the window does not clip."""
    fin, _ = truncate(x, w)
    pts = box_points(x, w)
    mask = sum(1 << i for i, p in enumerate(pts) if p in s)
    box = box_set(x, w)
    for op, answer in answers.items():
        got = getattr(fin, op)(mask)
        for i, p in enumerate(pts):
            if x.vicinity(p, w).subset_of(box):
                assert bool(got >> i & 1) == (p in answer), (op, w, p.describe())


_VARS = ("a", "b", "c")
_R = 3


@st.composite
def _utvpi(draw):
    """Random comparisons over three variables, each boxed in [-R, R]."""
    conds = []
    for v in _VARS:
        lo = draw(st.integers(-_R, _R))
        hi = draw(st.integers(-_R, _R))
        conds += [(SymExpr.const(lo), var(v)), (var(v), SymExpr.const(hi))]
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(st.sampled_from(_VARS)), draw(st.sampled_from(_VARS))
        sx, sy = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
        conds.append((SymExpr(x, sx, 0), SymExpr(y, sy, draw(st.integers(-4, 4)))))
    return conds


# x + y = 1 with x = y has a rational solution but no integer one
_HALF = [
    (var("a"), SymExpr("b", -1, 1)),
    (SymExpr("b", -1, 1), var("a")),
    (var("a"), var("b")),
    (var("b"), var("a")),
]


@settings(max_examples=400, deadline=None)
@example(_HALF)
@given(_utvpi())
def test_tight_closure_decides_utvpi_systems(conds):
    def holds(env):
        return all(e1.evaluate(env) <= e2.evaluate(env) for e1, e2 in conds)

    points = [dict(zip(_VARS, vals)) for vals in product(range(-_R, _R + 1), repeat=len(_VARS))]
    solutions = [env for env in points if holds(env)]
    system = conjoin(conds, frozenset())
    assert (system is None) == (not solutions)
    if system is not None:
        env = solution(system, _VARS)
        assert holds(env)
        # each variable in turn nearest 0, the smaller one on a tie
        assert env == min(solutions, key=lambda e: [(abs(e[v]), e[v]) for v in _VARS])


@st.composite
def _projected(draw):
    """One to three systems in an inner ``n`` and an outer ``P``: bounds
    on each, and comparisons ``±x ± y <= c`` between them or of ``P``
    with itself."""
    systems = []
    for _ in range(draw(st.integers(1, 3))):
        conds = []
        for v in ("n", "P"):
            if draw(st.booleans()):
                conds.append((SymExpr.const(draw(st.integers(-_R - 1, _R + 1))), var(v)))
            if draw(st.booleans()):
                conds.append((var(v), SymExpr.const(draw(st.integers(-_R - 1, _R + 1)))))
        for _ in range(draw(st.integers(0, 3))):
            x, y = draw(st.sampled_from((("n", "P"), ("P", "n"), ("P", "P"))))
            sx, sy = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
            conds.append((SymExpr(x, sx, 0), SymExpr(y, sy, draw(st.integers(-4, 4)))))
        systems.append(conds)
    return systems


@settings(max_examples=300, deadline=None)
@given(_projected())
def test_cells_project_utvpi_systems_exactly(systems):
    # the cells partition the outer range, and at every P of a window the
    # pieces of P's cell hold exactly the n that satisfy some system
    whole = IntervalSet.full(INTEGERS)
    try:
        sections = [s for s in (section(PointPattern.ray("R"), c, frozenset()) for c in systems) if s is not None]
        found = cells(None, None, {"P": whole}, sections, frozenset())
    except FragmentEscape:
        return
    outer = [c["P"] for c, _ in found]
    assert all((a & b).is_empty() for i, a in enumerate(outer) for b in outer[i + 1 :])
    assert reduce(lambda a, b: a | b, outer, IntervalSet.empty(INTEGERS)) == whole

    def holds(conds, env):
        return all(e1.evaluate(env) <= e2.evaluate(env) for e1, e2 in conds)

    def at(e, p):
        return e.evaluate({"P": p}) if isinstance(e, SymExpr) else e

    inner = range(-3 * _R - 4, 3 * _R + 5)
    for p in range(-_R - 2, _R + 3):
        (got,) = [ps for c, ps in found if p in c["P"]]
        want = {n for n in inner if any(holds(c, {"n": n, "P": p}) for c in systems)}
        have = {n for n in inner if any(at(lo, p) <= n <= at(hi, p) for _, (lo, hi) in got)}
        assert have == want, p


@pytest.mark.parametrize("name", sorted(_HAUSDORFF_SPACES))
def test_truncate_kernels_match_pointwise_membership(name):
    x = _HAUSDORFF_SPACES[name]()
    for w in (x.bound + 2, x.bound + 3, x.bound + 5):
        pts = box_points(x, w)
        vics = [x.vicinity(p, w) for p in pts]
        want = tuple(sum(1 << i for i, q in enumerate(pts) if q in v) for v in vics)
        fin, clipped = truncate(x, w)
        assert fin.vicinity == want, w
        # the clipped points are exactly those whose vicinity leaves the box
        box = box_set(x, w)
        assert clipped == sum(1 << i for i, v in enumerate(vics) if not v.subset_of(box)), w
