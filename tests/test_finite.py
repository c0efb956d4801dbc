"""Finite engine.  Expected values were computed by hand from the
vicinity tables (adh A = points whose kernel meets A, inh its dual) and
frozen here; the equivalence properties are checked exhaustively on all
64 three-point spaces."""

import itertools

import pytest

from pretop.errors import (
    AxiomViolation,
    EmptyKernel,
    EmptySubspace,
    InvalidTopology,
    PointSetMismatch,
    SizeLimit,
)
from pretop.finite import (
    PrincipalFilter,
    compact_at,
    count_hausdorff,
    enumerate_pretops,
    is_cover_compact,
    is_hausdorff,
    is_topological,
    validate_space,
)
from pretop.model import parse_model
from pretop.regularize import hset_check


def masked(space, *names):
    return space.mask(names)


# -- construction -----------------------------------------------------------


def test_axiom_violation():
    with pytest.raises(AxiomViolation):
        validate_space(("1", "2"), {"1": ["2"], "2": ["2"]})


def test_empty_kernel():
    with pytest.raises(EmptyKernel):
        PrincipalFilter(0)


def test_unknown_point_name(q3):
    with pytest.raises(PointSetMismatch):
        q3.mask(["4"])


# -- adherence / inherence, frozen values -----------------------------------


def test_adh_q3(q3):
    assert q3.names(q3.adh(masked(q3, "3"))) == ("2", "3")
    assert q3.names(q3.adh(q3.adh(masked(q3, "3")))) == ("1", "2", "3")


def test_inh_q3(q3):
    assert q3.names(q3.inh(masked(q3, "1", "2"))) == ("1",)
    assert q3.names(q3.inh(masked(q3, "2", "3"))) == ("2", "3")


def test_adh_filter(q3, p3):
    assert q3.names(q3.adh_filter(PrincipalFilter(masked(q3, "2")))) == ("1", "2")
    assert p3.names(p3.adh_filter(PrincipalFilter(masked(p3, "b")))) == ("a", "b", "c")


def test_adh_empty_is_empty(q3):
    assert q3.adh(0) == 0


def test_converges(q3):
    f = PrincipalFilter(masked(q3, "2"))
    assert q3.converges(f, q3.index("1"))
    assert not q3.converges(f, q3.index("3"))


def exhaustive_spaces(n=3):
    return list(enumerate_pretops(n))


def test_adh_axioms_exhaustive():
    for sp in exhaustive_spaces():
        for a in sp.subsets():
            adh = sp.adh(a)
            assert adh & a == a  # expansive
            for b in sp.subsets():
                assert sp.adh(a | b) == adh | sp.adh(b)  # additive


def test_adh_inh_duality_exhaustive():
    for sp in exhaustive_spaces():
        for a in sp.subsets():
            assert sp.inh(a) == sp.full & ~sp.adh(sp.full & ~a)


# -- separation and classification --------------------------------------------


def test_hausdorff(d2, q3):
    assert is_hausdorff(d2).ok
    v = is_hausdorff(q3)
    assert not v.ok and v.witness == ("1", "2")


def test_hausdorff_collapse_count():
    # a Hausdorff finite pretopology is discrete, so exactly one per size
    assert count_hausdorff(2) == 1
    assert count_hausdorff(3) == 1


def test_enumeration_counts():
    assert len(exhaustive_spaces(2)) == 4
    assert len(exhaustive_spaces(3)) == 64
    with pytest.raises(SizeLimit):
        list(enumerate_pretops(6))


def test_enumeration_deterministic():
    a = [sp.vicinity for sp in enumerate_pretops(3)]
    b = [sp.vicinity for sp in enumerate_pretops(3)]
    assert a == b and a[0] == (1, 2, 4)


def test_topological(p3, q3):
    assert is_topological(p3).ok
    v = is_topological(q3)
    assert not v.ok and v.witness == ("3",)


# -- covers and compactness ------------------------------------------------------


def test_compact_at_methods_agree_exhaustive():
    for sp in exhaustive_spaces():
        for k in sp.kernels():
            f = PrincipalFilter(k)
            for a in sp.kernels():
                assert (
                    compact_at(sp, f, a, "filter").ok
                    == compact_at(sp, f, a, "cover").ok
                )


def test_compact_at_example(q3):
    f = PrincipalFilter(masked(q3, "3"))
    assert compact_at(q3, f, masked(q3, "2", "3"), "filter").ok
    v = compact_at(q3, f, masked(q3, "1"), "filter")
    assert not v.ok and v.witness == ("3",)


def test_compact_at_empty_set_rejected(q3):
    with pytest.raises(EmptySubspace):
        compact_at(q3, PrincipalFilter(1), 0)


def test_cover_compact_methods_agree_exhaustive():
    methods = ("cover", "filter-refines", "vicinity-separation")
    for sp in exhaustive_spaces():
        for a in sp.kernels():
            verdicts = [is_cover_compact(sp, a, m).ok for m in methods]
            assert verdicts[0] == verdicts[1] == verdicts[2]
            assert verdicts[0]  # every subset of a finite space is cover-compact


# -- restriction -------------------------------------------------------------------


def test_restrict(q3):
    sub = q3.restrict(masked(q3, "1", "2"))
    assert sub.points == ("1", "2")
    assert sub.vicinity == (sub.mask(["1", "2"]), sub.mask(["2"]))
    with pytest.raises(EmptySubspace):
        q3.restrict(0)


def test_restrict_adh_consistent(q3):
    sub = q3.restrict(masked(q3, "2", "3"))
    assert sub.names(sub.adh(sub.mask(["3"]))) == ("2", "3")


# -- topologies ----------------------------------------------------------------------
#
# A finite topology is a space whose adherence is idempotent.  Its opens
# are the masks fixed by inh; the tests below derive the least opens,
# the minimal opens and the closure from that family and compare them
# with the vicinity form.


def topologies(n):
    return [sp for sp in enumerate_pretops(n) if is_topological(sp).ok]


def opens_of(space):
    return [a for a in space.subsets() if space.inh(a) == a]


def test_topology_from_p3(p3):
    opens = opens_of(p3)
    assert {p3.names(u) for u in opens} == {(), ("b",), ("a", "b"), ("b", "c"), ("a", "b", "c")}
    # the least open at a point, a submask of every open holding it, is
    # its least vicinity
    assert tuple(min(u for u in opens if u >> i & 1) for i in range(3)) == p3.vicinity


def test_topology_from_q3_rejected(q3):
    assert not is_topological(q3).ok
    for method in ("open-filter", "open-ultrafilter", "theta-adh"):
        with pytest.raises(InvalidTopology):
            hset_check(q3, q3.full, method)


def test_invalid_topology():
    for opens, message in [
        ("{a} {a b}", "missing empty set or whole set"),
        ("{} {a} {b} {a b c}", "family not closed under union/intersection"),
    ]:
        text = f"# two lines\n\ntopology T {{ points: a b c; opens: {opens}; }}\n"
        with pytest.raises(InvalidTopology, match=f"^line 3: {message}$"):
            parse_model(text)


def test_topology_count_three_points():
    # labeled topologies on 3 points
    assert len(topologies(3)) == 29


def minimal(masks):
    return {u for u in masks if not any(v != u and v & ~u == 0 for v in masks)}


def test_topology_atoms(p3):
    # the minimal nonempty opens are the minimal least vicinities
    assert minimal(p3.vicinity) == {p3.mask(["b"])}
    for sp in topologies(3):
        assert minimal([u for u in opens_of(sp) if u]) == minimal(sp.vicinity)


def test_closure(p3):
    assert p3.names(p3.adh(p3.mask(["a", "b"]))) == ("a", "b", "c")
    for sp in topologies(3):
        closed = [sp.full & ~u for u in opens_of(sp)]
        for a in sp.subsets():
            closure = sp.full
            for c in closed:
                if a & ~c == 0:
                    closure &= c
            assert closure == sp.adh(a)


# -- filter-form compactness matches cover form on every space+filter pair ----------


def test_compact_at_two_point_spaces():
    for sp in enumerate_pretops(2):
        for k in sp.kernels():
            for a in sp.kernels():
                f = PrincipalFilter(k)
                assert compact_at(sp, f, a, "filter").ok == compact_at(sp, f, a, "cover").ok


def test_choice_cover_reduction_is_faithful(q3):
    # a failing choice cover must really be a cover
    v = compact_at(q3, PrincipalFilter(masked(q3, "3")), masked(q3, "1"), "cover")
    assert not v.ok
    fam = [q3.mask(names) for names in v.witness]
    # each point of the set has a member holding its least vicinity
    assert any(q3.vicinity[q3.index("1")] & ~c == 0 for c in fam)
