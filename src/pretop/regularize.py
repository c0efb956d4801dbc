"""Partial regularization, filter towers and the H-set style checks on
finite spaces.

The partially regularized space replaces each least vicinity kernel by
its adherence.  The tower of a filter keeps the members whose inherence
is again a member; on a finite space that is principal at each level,
with kernels growing by one vicinity sweep per step.
"""

from __future__ import annotations

from .errors import AxiomViolation, EmptySubspace, InvalidTopology
from .finite import (
    PASS,
    FinitePretop,
    PrincipalFilter,
    Verdict,
    is_topological,
    least_choice,
    vicinity_sweep,
)
from .record import record


def partial_regularization(space: FinitePretop) -> FinitePretop:
    """Each least vicinity replaced by its adherence.  On a topology this
    is the θ-form (Porter & Woods, *Extensions and Absolutes of Hausdorff
    Spaces*, 1988): the closure of a least open is the adherence of a
    least vicinity.  It is built once per space and kept with it, so
    every call on one space returns the same object."""
    return space._regularization


@record
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
    """The tower of ``f``.  Under the point axiom each sweep contains its
    kernel, so the kernels grow and stop within n steps; a sweep that
    drops a point of its kernel could cycle forever, so it raises
    :class:`AxiomViolation`."""
    kernels = [f.kernel]
    while True:
        nxt = vicinity_sweep(space, kernels[-1])
        if nxt == kernels[-1]:
            break
        if kernels[-1] & ~nxt:
            raise AxiomViolation("a vicinity sweep misses a point of its kernel")
        kernels.append(nxt)
    return FilterTower(space, tuple(kernels))


@record
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


# -- compactness of the partial regularization --------------------------------


def is_quasi_phc(space: FinitePretop, method: str = "rpi-compact") -> Verdict:
    """Compactness of the partially regularized space, via any of the
    four finite characterizations.  On a finite space each one holds
    outright; the value of running all four is their agreement.  The
    kernel routes report the first failing kernel in ascending order;
    adh and the tower levels preserve unions, so that is a singleton."""
    if method == "rpi-compact":
        for b, col in enumerate(partial_regularization(space).cols):
            if col == 0:
                return Verdict(False, space.names(1 << b))
        return PASS
    if method == "adh-cover":
        # adh is additive, so the adherences of a cover's members cover
        # the space exactly when the adherence of their union does
        if space.adh(vicinity_sweep(space, space.full)) != space.full:
            return Verdict(False, least_choice(space, space.full))
        return PASS
    if method == "inherent-filter":
        # adherence is empty on the kernels inside `lonely`, the points in
        # no vicinity, so the only vicinity such a kernel can hold is empty
        lonely = space.full & ~vicinity_sweep(space, space.full)
        if lonely and 0 in space.vicinity:
            return Verdict(False, space.names(lonely & -lonely))
        return PASS
    if method == "tower-adh":
        # level 1 of the tower over a point is the point's least vicinity
        for b in range(space.n):
            if space.adh(space.vicinity[b]) == 0:
                return Verdict(False, space.names(1 << b))
        return PASS
    raise ValueError(f"unknown method {method!r}")


PHC_METHODS = ("rpi-compact", "adh-cover", "inherent-filter", "tower-adh")


# -- H-set checks on finite topologies -----------------------------------------


def hset_check(space: FinitePretop, at: int, method: str = "open-filter") -> Verdict:
    """H-set conditions relative to a finite topology, given by its
    vicinity form; raises :class:`AxiomViolation` when a point misses its
    own vicinity and :class:`InvalidTopology` unless ``space`` is
    topological.  Each route reports the first failure of its old scan in
    ascending order:

    * open-filter: a failing open contains the least vicinity of each of
      its points, and the one of a point in ``at`` fails too and is no
      larger, so the least failing ``vicinity[i]`` with i in ``at`` decides;
    * open-ultrafilter: the atoms (minimal nonempty opens) are the least
      vicinities inside the adherence of their point;
    * theta-adh: the adherence of the partial regularization, the θ-form
      of the topology, is additive, so the least failing kernel is a
      singleton of ``at``.

    None of them can fail: every candidate u meets ``at``, and u lies in
    adh u by the point axiom.  The three routes are kept separate so their
    agreement stays a checked fact, not an assumption.
    """
    if any(not v >> i & 1 for i, v in enumerate(space.vicinity)):
        raise AxiomViolation("a point is missing from its own vicinity")
    if not is_topological(space).ok:
        raise InvalidTopology("pretopology has a non-idempotent adherence")
    if at == 0:
        raise EmptySubspace("H-set check at the empty set is not defined")
    if method == "open-filter":
        fails = [
            v for i, v in enumerate(space.vicinity) if at >> i & 1 and not space.adh(v) & at
        ]
        return Verdict(False, space.names(min(fails))) if fails else PASS
    if method == "open-ultrafilter":
        atoms = {v for v, col in zip(space.vicinity, space.cols) if v & ~col == 0}
        for u in sorted(atoms):
            if u & at and not space.adh(u) & at:
                return Verdict(False, space.names(u))
        return PASS
    if method == "theta-adh":
        for j, col in enumerate(partial_regularization(space).cols):
            if at >> j & 1 and not col & at:
                return Verdict(False, space.names(1 << j))
        return PASS
    raise ValueError(f"unknown method {method!r}")


HSET_METHODS = ("open-filter", "open-ultrafilter", "theta-adh")
