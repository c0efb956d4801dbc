"""Partial regularization, filter towers and the H-set style checks on
finite spaces.

The partially regularized space replaces each least vicinity kernel by
its adherence.  The tower of a filter keeps the members whose inherence
is again a member; on a finite space that is principal at each level,
with kernels growing by one vicinity sweep per step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySubspace
from .finite import (
    FinitePretop,
    FiniteTopology,
    PrincipalFilter,
    Verdict,
    is_hausdorff,
    least_choice,
    vicinity_sweep,
)


def partial_regularization(space: FinitePretop) -> FinitePretop:
    return FinitePretop(space.points, tuple(space.adh(m) for m in space.vicinity))


@dataclass(frozen=True)
class FilterTower:
    """Levels of a principal filter under the inherence refinement.

    ``kernels[i]`` is the kernel of the i-th level (level 0 is the
    filter itself); the last entry repeats forever.
    """

    space: FinitePretop
    kernels: tuple[int, ...]

    @property
    def stabilizes_at(self) -> int:
        return len(self.kernels) - 1

    @property
    def limit(self) -> int:
        return self.kernels[-1]

    def level(self, i: int) -> int:
        return self.kernels[min(i, len(self.kernels) - 1)]

    @property
    def is_open(self) -> bool:
        """Pretopologically open: the first refinement changes nothing."""
        return self.level(1) == self.kernels[0]

    @property
    def is_inherent(self) -> bool:
        """Every member has nonempty inherence."""
        return self.space.inh(self.kernels[0]) != 0


def filter_tower(space: FinitePretop, f: PrincipalFilter) -> FilterTower:
    kernels = [f.kernel]
    while True:
        nxt = vicinity_sweep(space, kernels[-1])
        if nxt == kernels[-1]:
            break
        kernels.append(nxt)
    return FilterTower(space, tuple(kernels))


def tower_level_members(space: FinitePretop, f: PrincipalFilter, level: int):
    """Enumerate a tower level directly from its definition; the oracle
    for the kernel formula above."""
    members = {m for m in space.subsets() if f.kernel & ~m == 0}
    for _ in range(level):
        members = {m for m in members if space.inh(m) in members}
    return members


@dataclass(frozen=True)
class TowerLemmaReport:
    adh_base: int          # adh of the filter in the base space
    adh_regularized: int   # adh of the filter in the partial regularization
    adh_level1: int        # adh of the first tower level, in the base space
    filter_open: bool
    level_identity: bool   # adh_regularized == adh_level1
    open_identity: bool    # for open filters: adh_base == adh_regularized


def tower_lemmas_check(space: FinitePretop, f: PrincipalFilter) -> TowerLemmaReport:
    reg = partial_regularization(space)
    tower = filter_tower(space, f)
    adh_base = space.adh(f.kernel)
    adh_reg = reg.adh(f.kernel)
    adh_l1 = space.adh(tower.level(1))
    return TowerLemmaReport(
        adh_base=adh_base,
        adh_regularized=adh_reg,
        adh_level1=adh_l1,
        filter_open=tower.is_open,
        level_identity=adh_reg == adh_l1,
        open_identity=(not tower.is_open) or adh_base == adh_reg,
    )


# -- theta structure of a finite topology ------------------------------------


@dataclass(frozen=True)
class ThetaForms:
    plain: FinitePretop  # open-neighborhood pretopology
    theta: FinitePretop  # closures of the least open neighborhoods


def theta_of_topology(topo: FiniteTopology) -> ThetaForms:
    topo.validate()
    plain = topo.to_pretop()
    theta = FinitePretop(
        topo.points, tuple(topo.closure(topo.min_open(i)) for i in range(topo.n))
    )
    return ThetaForms(plain, theta)


# -- compactness of the partial regularization --------------------------------


def is_quasi_phc(space: FinitePretop, method: str = "rpi-compact") -> Verdict:
    """Compactness of the partially regularized space, via any of the
    four finite characterizations.  On a finite space each one holds
    outright; the value of running all four is their agreement.  The
    kernel routes report the first failing kernel in ascending order;
    adh and the tower levels preserve unions, so that is a singleton."""
    if method == "rpi-compact":
        reg = partial_regularization(space)
        for b in range(space.n):
            if reg.adh(1 << b) == 0:
                return Verdict(False, space.names(1 << b))
        return Verdict(True)
    if method == "adh-cover":
        # adh is additive, so the adherences of a cover's members cover
        # the space exactly when the adherence of their union does
        if space.adh(vicinity_sweep(space, space.full)) != space.full:
            return Verdict(False, least_choice(space, space.full))
        return Verdict(True)
    if method == "inherent-filter":
        # adherence is empty on the kernels inside `lonely`, the points in
        # no vicinity, so the only vicinity such a kernel can hold is empty
        lonely = space.full & ~vicinity_sweep(space, space.full)
        if lonely and 0 in space.vicinity:
            return Verdict(False, space.names(lonely & -lonely))
        return Verdict(True)
    if method == "tower-adh":
        # level 1 of the tower over a point is the point's least vicinity
        for b in range(space.n):
            if space.adh(space.vicinity[b]) == 0:
                return Verdict(False, space.names(1 << b))
        return Verdict(True)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PhcReport:
    quasi: bool
    hausdorff: bool
    phc: bool
    methods: tuple[tuple[str, bool], ...]


PHC_METHODS = ("rpi-compact", "adh-cover", "inherent-filter", "tower-adh")


def phc_report(space: FinitePretop) -> PhcReport:
    methods = tuple((m, is_quasi_phc(space, m).ok) for m in PHC_METHODS)
    quasi = all(ok for _, ok in methods)
    h = is_hausdorff(space).ok
    return PhcReport(quasi=quasi, hausdorff=h, phc=quasi and h, methods=methods)


def adh_cover_subfamily(space: FinitePretop, family) -> tuple | None:
    """Smallest subfamily whose adherences cover the space; None when the
    whole family fails.  Scans subsets by size then index order."""
    fam = list(family)
    import itertools

    for size in range(1, len(fam) + 1):
        for pick in itertools.combinations(range(len(fam)), size):
            union = 0
            for i in pick:
                union |= space.adh(fam[i])
            if union == space.full:
                return tuple(fam[i] for i in pick)
    return None


# -- H-set checks on finite topologies -----------------------------------------


def hset_check(topo: FiniteTopology, at: int, method: str = "open-filter") -> Verdict:
    """H-set conditions relativized to a finite topology.  All three hold
    for every subset of a finite space; the three routes are kept separate
    so their agreement stays a checked fact, not an assumption."""
    topo.validate()
    if at == 0:
        raise EmptySubspace("H-set check at the empty set is not defined")
    if method == "open-filter":
        # open filters are principal over a nonempty open generator
        for u in sorted(topo.opens):
            if u and u & at and not topo.closure(u) & at:
                return Verdict(False, tuple(topo.points[i] for i in range(topo.n) if u >> i & 1))
        return Verdict(True)
    if method == "open-ultrafilter":
        for u in topo.atoms():
            if u & at and not topo.closure(u) & at:
                return Verdict(False, tuple(topo.points[i] for i in range(topo.n) if u >> i & 1))
        return Verdict(True)
    if method == "theta-adh":
        theta = theta_of_topology(topo).theta
        for k in range(1, topo.full + 1):
            if k & at and not theta.adh(k) & at:
                return Verdict(False, tuple(topo.points[i] for i in range(topo.n) if k >> i & 1))
        return Verdict(True)
    raise ValueError(f"unknown method {method!r}")
