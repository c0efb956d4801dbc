"""Regularization and towers.  The tower-level oracle enumerates members
from the definition (keep a member when its inherence is again a member)
and the closed-form kernels must match it on every space and kernel."""

import pytest

from pretop.errors import AxiomViolation, EmptySubspace
from pretop.finite import (
    FinitePretop,
    PrincipalFilter,
    enumerate_pretops,
    is_topological,
    validate_space,
)
from pretop.regularize import (
    PHC_METHODS,
    filter_tower,
    hset_check,
    is_quasi_phc,
    partial_regularization,
    phc_report,
    tower_lemmas_check,
)

HSET_METHODS = ("open-filter", "open-ultrafilter", "theta-adh")


def tower_level_members(space, f, level):
    """A tower level enumerated from its definition: keep a member when
    its inherence is again a member."""
    members = {m for m in space.subsets() if f.kernel & ~m == 0}
    for _ in range(level):
        members = {m for m in members if space.inh(m) in members}
    return members


def topologies(n):
    return [sp for sp in enumerate_pretops(n) if is_topological(sp).ok]


def test_partial_regularization_is_the_adherence_of_each_vicinity_built_once():
    spaces = [sp for n in range(1, 5) for sp in enumerate_pretops(n)]
    assert len(spaces) == 4165
    for sp in spaces:
        reg = partial_regularization(sp)
        assert reg == FinitePretop(sp.points, tuple(sp.adh(m) for m in sp.vicinity))
        assert partial_regularization(sp) is reg


def test_partial_regularization_q3(q3):
    reg = partial_regularization(q3)
    assert reg.names(reg.vicinity[0]) == ("1", "2")
    assert reg.names(reg.vicinity[1]) == ("1", "2", "3")
    assert reg.names(reg.vicinity[2]) == ("2", "3")


def test_partial_regularization_p3(p3):
    reg = partial_regularization(p3)
    assert all(m == reg.full for m in reg.vicinity)


def coarsens(reg, sp):
    """Every least vicinity of ``sp`` lies inside the one of ``reg``."""
    return all(v & ~r == 0 for v, r in zip(sp.vicinity, reg.vicinity))


def test_regularization_coarsens():
    for sp in enumerate_pretops(3):
        assert coarsens(partial_regularization(sp), sp)


def test_tower_q3(q3):
    f = PrincipalFilter(q3.mask(["1"]))
    tower = filter_tower(q3, f)
    assert [q3.names(k) for k in tower.kernels] == [("1",), ("1", "2"), ("1", "2", "3")]
    assert tower.stabilizes_at == 2
    assert not tower.is_open
    assert not tower.is_inherent  # inh {1} is empty


def test_tower_against_member_enumeration():
    for sp in enumerate_pretops(3):
        for k in sp.kernels():
            tower = filter_tower(sp, PrincipalFilter(k))
            for level in range(4):
                members = tower_level_members(sp, PrincipalFilter(k), level)
                expected = {m for m in sp.subsets() if tower.level(level) & ~m == 0}
                assert members == expected, (sp.vicinity, k, level)


def test_open_filter_fixed_by_tower(p3):
    # kernel {b} is pretopologically open in p3
    f = PrincipalFilter(p3.mask(["b"]))
    tower = filter_tower(p3, f)
    assert tower.is_open and tower.limit == p3.mask(["b"])


def test_tower_lemmas_exhaustive():
    for sp in enumerate_pretops(3):
        for k in sp.kernels():
            rep = tower_lemmas_check(sp, PrincipalFilter(k))
            assert rep.level_identity, (sp.vicinity, k)
            assert rep.open_identity, (sp.vicinity, k)


def test_tower_raises_when_the_sweep_drops_its_kernel():
    # without the point axiom the sweep of {1} is {2} and that of {2} is {1}
    cycling = FinitePretop(("1", "2"), (2, 1))
    with pytest.raises(AxiomViolation):
        filter_tower(cycling, PrincipalFilter(1))


def test_tower_limit_is_largest_open_refinement():
    # the stabilized kernel is the smallest open kernel above the filter;
    # its filter is the largest pretopologically open filter inside it
    for sp in enumerate_pretops(3):
        for k in sp.kernels():
            lim = filter_tower(sp, PrincipalFilter(k)).limit
            assert filter_tower(sp, PrincipalFilter(lim)).is_open
            assert k & ~lim == 0
            for other in sp.kernels():
                if k & ~other == 0 and filter_tower(sp, PrincipalFilter(other)).is_open:
                    assert lim & ~other == 0


# -- theta of a topology -------------------------------------------------------
#
# The θ-form of a topology has the closures of the least opens as its
# kernels; the closure of a least open is the adherence of a least
# vicinity, so the θ-form is the partial regularization.


def test_theta_p3(p3):
    theta = partial_regularization(p3)
    assert theta.names(theta.vicinity[0]) == ("a", "b", "c")


def test_theta_indiscrete():
    sp = validate_space(("a", "b"), {"a": ["a", "b"], "b": ["a", "b"]})
    assert partial_regularization(sp) == sp


def test_theta_coarsens_exhaustive():
    for sp in topologies(3):
        assert coarsens(partial_regularization(sp), sp)


# -- quasi-PHC ---------------------------------------------------------------------


def test_quasi_phc_methods_agree_exhaustive():
    for sp in enumerate_pretops(3):
        verdicts = [is_quasi_phc(sp, m).ok for m in PHC_METHODS]
        assert all(verdicts) or not any(verdicts)
        assert all(verdicts)  # finite spaces are compact


def test_phc_report(q3, d2):
    rep = phc_report(q3)
    assert rep.quasi and not rep.hausdorff and not rep.phc
    rep = phc_report(d2)
    assert rep.quasi and rep.hausdorff and rep.phc


# -- H-set checks -------------------------------------------------------------------


def test_hset_p3(p3):
    at = p3.mask(["c"])
    for method in HSET_METHODS:
        assert hset_check(p3, at, method).ok
    # {b} is a least vicinity inside every other, so it is the unique
    # minimal open; it misses {c}, so the ultrafilter clause is vacuous
    assert all(p3.mask(["b"]) & ~v == 0 for v in p3.vicinity)


def test_hset_methods_agree_exhaustive():
    for sp in topologies(3):
        for at in range(1, sp.full + 1):
            verdicts = [hset_check(sp, at, m).ok for m in HSET_METHODS]
            assert verdicts == [True, True, True]


def test_hset_rejects_a_space_without_the_point_axiom():
    # adherence is empty everywhere, hence idempotent, so only the point
    # axiom tells this tuple from a topology; the routes would disagree
    sp = FinitePretop(("1", "2"), (0, 0))
    for method in HSET_METHODS:
        with pytest.raises(AxiomViolation):
            hset_check(sp, 1, method)


def test_hset_empty_rejected(p3):
    with pytest.raises(EmptySubspace):
        hset_check(p3, 0)
