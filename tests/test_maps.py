"""Map analysis: continuity, perfect maps, f#.

Frozen expectations are derived by hand from the vicinity tables in
conftest; the agreement batteries let the independent routes check one
another.
"""

import inspect
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from pretop import maps
from pretop.errors import PointSetMismatch
from pretop.finite import (
    FinitePretop,
    PrincipalFilter,
    compact_at,
    enumerate_pretops,
)
from pretop.maps import (
    CONTINUITY_METHODS,
    PERFECT_METHODS,
    SpaceMap,
    f_sharp,
    fiber_inside,
    is_continuous,
    is_perfect,
    is_strongly_irreducible,
)
from pretop.regularize import partial_regularization

D3 = FinitePretop(("1", "2", "3"), (1, 2, 4))
P1 = FinitePretop(("p",), (1,))


@st.composite
def spaces3(draw):
    extras = draw(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)))
    return FinitePretop(("1", "2", "3"), tuple((1 << i) | e for i, e in enumerate(extras)))


graphs3 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def enumerate_maps(source, target):
    """All total maps, lexicographic in the graph tuple."""
    for graph in itertools.product(range(target.n), repeat=source.n):
        yield SpaceMap(source, target, graph)


# -- construction ------------------------------------------------------------


def test_from_table_requires_every_point(d2, s2):
    with pytest.raises(PointSetMismatch):
        SpaceMap.from_table(d2, s2, {"1": "a"})
    with pytest.raises(PointSetMismatch):
        SpaceMap.from_table(d2, s2, {"1": "a", "2": "zz"})
    with pytest.raises(PointSetMismatch):
        SpaceMap(d2, s2, (0, 5))


@pytest.mark.parametrize("decide", [is_continuous, is_perfect])
def test_an_unknown_route_is_rejected(d2, decide):
    with pytest.raises(ValueError) as err:
        decide(SpaceMap.identity(d2), "x")
    assert str(err.value) == "unknown method 'x'"


def test_constructors_and_apply(q3, d2, s2):
    ident = SpaceMap.identity(q3)
    assert ident("2") == "2"
    const = SpaceMap.constant(q3, P1, "p")
    assert const("3") == "p"
    f = SpaceMap.from_table(d2, s2, {"1": "a", "2": "b"})
    assert f("1") == "a" and f("2") == "b"
    assert f.is_surjective()
    assert not SpaceMap.constant(d2, s2, "a").is_surjective()


# -- the map value ----------------------------------------------------------------


def test_a_map_compares_and_hashes_on_its_three_fields(d2, s2):
    f, g = SpaceMap(d2, s2, (0, 1)), SpaceMap(d2, s2, [0, 1])
    assert f == g and not f != g and hash(f) == hash(g) == hash((d2, s2, (0, 1)))
    assert f != SpaceMap(d2, s2, (1, 0)) and f != SpaceMap(d2, d2, (0, 1))
    assert len({f, g, SpaceMap(d2, s2, (1, 1))}) == 2
    for items in (tuple(f), (d2, s2, (0, 1))):
        assert f != items and items != f
        assert not f == items and not items == f


def test_a_map_prints_its_three_fields(d2, s2):
    f = SpaceMap(d2, s2, (0, 1))
    assert repr(f) == f"SpaceMap(source={d2!r}, target={s2!r}, graph=(0, 1))"


def test_a_map_survives_a_pickle_round_trip_and_is_frozen(d2, s2):
    f = SpaceMap(d2, s2, (0, 1))
    back = pickle.loads(pickle.dumps(f))
    assert back == f and tuple(back) == tuple(f) and type(back) is SpaceMap
    for name in ("source", "graph", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)


def test_a_malformed_graph_is_refused_and_a_list_graph_kept_as_a_tuple(d2, s2):
    with pytest.raises(PointSetMismatch, match="^graph must assign every source point$"):
        SpaceMap(d2, s2, (0,))
    with pytest.raises(PointSetMismatch, match="^graph hits unknown target index 5$"):
        SpaceMap(d2, s2, (0, 5))
    with pytest.raises(PointSetMismatch, match="^graph hits unknown target index -1$"):
        SpaceMap(d2, s2, [-1, 0])
    f = SpaceMap(d2, s2, [1, 0])
    assert f.graph == (1, 0) and type(f.graph) is tuple


def test_a_map_takes_its_three_fields_by_name(d2, s2):
    assert str(inspect.signature(SpaceMap)) == "(source, target, graph)"
    f = SpaceMap(source=d2, target=s2, graph=(0, 1))
    assert (f.source, f.target, f.graph) == (d2, s2, (0, 1))
    with pytest.raises(TypeError):
        SpaceMap(d2, s2, (0, 1), None)


# -- continuity ------------------------------------------------------------------


def test_identity_is_continuous_every_route(q3):
    ident = SpaceMap.identity(q3)
    for method in CONTINUITY_METHODS:
        assert is_continuous(ident, method).ok


def test_identity_from_regularization_breaks(q3):
    # M_r(2) = X, so no rpi-vicinity of 2 maps into the pi-vicinity {2,3}
    f = SpaceMap(partial_regularization(q3), q3, (0, 1, 2))
    v = is_continuous(f, "vicinity")
    assert not v.ok
    assert v.witness == ("2", ("2", "3"))
    for method in CONTINUITY_METHODS:
        assert not is_continuous(f, method).ok


def test_discrete_source_always_continuous(q3, s2):
    for target in (q3, s2):
        src = D3 if target is q3 else FinitePretop(("1", "2"), (1, 2))
        for f in enumerate_maps(src, target):
            assert is_continuous(f, "limit").ok


def test_coarsening_identity_is_continuous(q3):
    f = SpaceMap(q3, partial_regularization(q3), (0, 1, 2))
    assert is_continuous(f, "adh-set").ok


def test_five_routes_agree_exhaustively_small():
    ones = list(enumerate_pretops(1))
    twos = list(enumerate_pretops(2))
    for src in ones + twos:
        for tgt in ones + twos:
            for f in enumerate_maps(src, tgt):
                verdicts = [is_continuous(f, m).ok for m in CONTINUITY_METHODS]
                assert len(set(verdicts)) == 1


@given(spaces3(), spaces3(), graphs3)
def test_five_routes_agree_sampled(src, tgt, graph):
    f = SpaceMap(src, tgt, graph)
    verdicts = [is_continuous(f, m).ok for m in CONTINUITY_METHODS]
    assert len(set(verdicts)) == 1


# -- theta and weak-theta continuity ---------------------------------------------


def theta_continuous(src, tgt, table):
    """Continuity between the θ-forms (partial regularizations)."""
    f = SpaceMap.from_table(partial_regularization(src), partial_regularization(tgt), table)
    return is_continuous(f)


def w_theta_continuous(f):
    """Continuity into the θ-form (partial regularization) of the target."""
    return is_continuous(SpaceMap(f.source, partial_regularization(f.target), f.graph))


def test_theta_between_discrete_topologies():
    disc = FinitePretop(("1", "2"), (1, 2))
    for table in ({"1": "1", "2": "2"}, {"1": "2", "2": "2"}):
        assert theta_continuous(disc, disc, table).ok


def test_theta_into_discrete_breaks(p3):
    # theta kernels of the source are all of X, a discrete target refuses
    disc = FinitePretop(("a", "b", "c"), (1, 2, 4))
    ident = {"a": "a", "b": "b", "c": "c"}
    assert not theta_continuous(p3, disc, ident).ok
    assert theta_continuous(disc, p3, ident).ok


def test_w_theta_identity(q3):
    assert w_theta_continuous(SpaceMap.identity(q3)).ok
    f = SpaceMap(partial_regularization(q3), q3, (0, 1, 2))
    assert not is_continuous(f, "vicinity").ok  # the plain direction fails
    assert w_theta_continuous(f).ok  # source and regularized target coincide


def test_continuous_implies_w_theta_exhaustive():
    twos = list(enumerate_pretops(2))
    for src in twos:
        for tgt in twos:
            for f in enumerate_maps(src, tgt):
                if is_continuous(f, "vicinity").ok:
                    assert w_theta_continuous(f).ok


@given(spaces3(), spaces3(), graphs3)
def test_continuous_implies_w_theta_sampled(src, tgt, graph):
    f = SpaceMap(src, tgt, graph)
    if is_continuous(f, "vicinity").ok:
        assert w_theta_continuous(f).ok


# -- perfect maps -----------------------------------------------------------------


def test_bijection_to_coarser_not_perfect(d2, s2):
    f = SpaceMap.from_table(d2, s2, {"1": "a", "2": "b"})
    assert is_continuous(f, "vicinity").ok
    for method in PERFECT_METHODS:
        assert not is_perfect(f, method).ok
    # the breaking filter: up{a} converges to b, preimage up{1}, fiber {2}
    assert not compact_at(d2, PrincipalFilter(d2.mask(["1"])), d2.mask(["2"]), "filter").ok


def test_constant_map_is_perfect(q3):
    const = SpaceMap.constant(q3, P1, "p")
    for method in PERFECT_METHODS:
        assert is_perfect(const, method).ok


def test_discrete_bijection_is_perfect(d2):
    f = SpaceMap.identity(d2)
    for method in PERFECT_METHODS:
        assert is_perfect(f, method).ok


def test_perfect_conditions_reported_separately(d2, s2):
    v = is_perfect(SpaceMap.from_table(d2, s2, {"1": "a", "2": "b"}), "a-and-b")
    # half (a) fails first: adh {a} = {a,b} in the target outgrows the
    # image of adh {1} = {1}
    assert not v.ok
    assert v.witness == ("a", (("1",), "b"))


def test_definition_vs_adh_inequality_exhaustive_small():
    ones = list(enumerate_pretops(1))
    twos = list(enumerate_pretops(2))
    for src in ones + twos:
        for tgt in ones + twos:
            for f in enumerate_maps(src, tgt):
                a = is_perfect(f, "definition").ok
                b = is_perfect(f, "adh-inequality").ok
                assert a == b
                if is_continuous(f, "vicinity").ok:
                    assert a == is_perfect(f, "a-and-b").ok


@given(spaces3(), spaces3(), graphs3)
def test_perfect_routes_agree_sampled(src, tgt, graph):
    f = SpaceMap(src, tgt, graph)
    a = is_perfect(f, "definition").ok
    assert a == is_perfect(f, "adh-inequality").ok
    if is_continuous(f, "vicinity").ok:
        assert a == is_perfect(f, "a-and-b").ok


# -- f# ---------------------------------------------------------------------------


def fibered_map():
    src = D3
    tgt = FinitePretop(("p", "q"), (1, 2))
    return SpaceMap.from_table(src, tgt, {"1": "p", "2": "p", "3": "q"})


def test_f_sharp_values():
    f = fibered_map()
    assert f.target.names(f_sharp(f, f.source.mask(["1", "2"]))) == ("p",)
    assert f_sharp(f, f.source.full) == f.target.full
    assert f_sharp(f, f.source.mask(["1"])) == 0


def test_f_sharp_adjunction_exhaustive():
    f = fibered_map()
    for a in f.source.subsets():
        assert f.preimage_mask(f_sharp(f, a)) & ~a == 0
    for b in f.target.subsets():
        assert b & ~f_sharp(f, f.preimage_mask(b)) == 0


def _f_sharp_by_fibers(f, a):
    """f# as it read before: the target points whose fiber sits in a."""
    return sum(1 << j for j in range(f.target.n) if f.fiber(j) & ~a == 0)


def test_f_sharp_reads_the_fibers_off_the_image_table():
    for s, t in itertools.product(range(1, 4), repeat=2):
        src, tgt = D3.restrict((1 << s) - 1), D3.restrict((1 << t) - 1)
        for f in enumerate_maps(src, tgt):
            for a in src.subsets():
                assert f_sharp(f, a) == _f_sharp_by_fibers(f, a), (f.graph, a)


@given(spaces3(), spaces3(), graphs3, st.integers(0, 7), st.integers(0, 7))
def test_f_sharp_adjunction_sampled(src, tgt, graph, a, b):
    f = SpaceMap(src, tgt, graph)
    assert f.preimage_mask(f_sharp(f, a)) & ~a == 0
    assert b & ~f_sharp(f, f.preimage_mask(b)) == 0


# -- strong irreducibility ----------------------------------------------------------


def test_identity_strongly_irreducible(q3):
    assert is_strongly_irreducible(SpaceMap.identity(q3)).ok


def test_two_fibers_from_discrete_not_irreducible():
    f = fibered_map()
    v = is_strongly_irreducible(f)
    assert not v.ok
    u_names, v_names = v.witness
    meet = f.source.mask(u_names) & f.source.mask(v_names)
    assert meet and not fiber_inside(f, meet)
    # another violating pair: {1,2} and {2,3} overlap in {2}, no fiber fits
    assert not fiber_inside(f, f.source.mask(["2"]))


def test_constant_map_not_irreducible(q3):
    const = SpaceMap.constant(q3, P1, "p")
    v = is_strongly_irreducible(const)
    assert not v.ok
    # the pair {1,2}, {2,3} has inherences {1} and {2,3}, meets in {2}
    u, w = q3.mask(["1", "2"]), q3.mask(["2", "3"])
    assert q3.inh(u) and q3.inh(w)
    assert not fiber_inside(const, u & w)


# -- composition --------------------------------------------------------------------


@given(spaces3(), spaces3(), spaces3(), graphs3, graphs3)
def test_composition_preserves_continuity(sp1, sp2, sp3, g1, g2):
    f = SpaceMap(sp1, sp2, g1)
    g = SpaceMap(sp2, sp3, g2)
    if is_continuous(f, "vicinity").ok and is_continuous(g, "vicinity").ok:
        g_after_f = SpaceMap(sp1, sp3, tuple(g2[j] for j in g1))
        assert is_continuous(g_after_f, "vicinity").ok


# -- the oracle's verdict lists ----------------------------------------------------


def _count_cores(monkeypatch, table, calls):
    """Put one counting wrapper per distinct core into a route table."""
    wrapped = {}
    for key, (core, name) in list(table.items()):
        if core not in wrapped:

            def counted(f, core=core):
                calls[core] = calls.get(core, 0) + 1
                return core(f)

            wrapped[core] = counted
        monkeypatch.setitem(table, key, (wrapped[core], name))


def test_verdict_lists_run_each_distinct_core_once_per_map(monkeypatch):
    calls = {}
    fibers = maps._HALVES["b"][0]
    for table in (maps._CONTINUITY_ROUTES, maps._PERFECT_ROUTES, maps._HALVES):
        _count_cores(monkeypatch, table, calls)
    seen = set()
    for n in (1, 2):
        for src, tgt in itertools.product(enumerate_pretops(n), repeat=2):
            for f in enumerate_maps(src, tgt):
                calls.clear()
                by_cont = maps.continuity_verdicts(f)
                # limit, adh (adh-filter and adh-set), inh and vicinity
                assert sorted(calls.values()) == [1, 1, 1, 1]
                calls.clear()
                by_perf = maps.perfect_verdicts(f)
                # definition, adh-inequality (half a), the continuity
                # decision, and half (b) only where a-and-b gets that far
                assert set(calls.values()) == {1}
                assert len(calls) == 3 + (fibers in calls)
                assert (fibers in calls) == (len(by_perf) == 3 and by_perf[1])
                assert by_cont == [is_continuous(f, m).ok for m in CONTINUITY_METHODS]
                routes = PERFECT_METHODS if by_cont[0] else PERFECT_METHODS[:2]
                assert by_perf == [is_perfect(f, m).ok for m in routes]
                seen.add((by_cont[0], by_perf[0]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
