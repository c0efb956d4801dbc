"""Finite pretopological spaces as bitmask tables.

A space is a point tuple plus one vicinity kernel per point (the least
vicinity; on a finite space the vicinity filter is principal over it).
Subsets and kernels are bitmasks in declaration order, which also fixes
every deterministic witness: scans run over ascending masks and report
the first hit.

The operators are read from per-byte union tables.  Adherence preserves
finite unions, adh(A | B) = adh A | adh B, so adh A is the union of
adh{j} over the points j of A, and adh{j} is the column of points whose
least vicinity contains j.  One table per byte of points holds the union
of that byte's columns for each of its 256 bit patterns, so a lookup per
nonzero byte of A gives adh A exactly, at any size, with tables that
grow linearly in the number of points.  Inherence is the dual,
inh A = X minus adh(X minus A), and images and preimages under a map
are unions too (``maps``), read from tables built the same way.  The
columns themselves are kept as ``cols`` (``cols[j]`` is adh{j}), so a
scan over singletons reads them without a lookup, and the vicinity sweep
(the union of the least vicinities over a set) is read from tables of
the least vicinities built the same way.  ``names`` joins per-byte
tables of name tuples.  Every passing route returns the one shared
:data:`PASS`; a ``Verdict`` is frozen, so sharing it is safe.

A finite topology is a space for which :func:`is_topological` holds.
Its opens are the masks with ``inh(a) == a``, the least open at a point
is that point's least vicinity, its closure is ``adh``, and its minimal
nonempty opens are its minimal least vicinities.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache

from .errors import (
    AxiomViolation,
    EmptyKernel,
    EmptySubspace,
    PointSetMismatch,
    SizeLimit,
)
from .record import record


@record
class Verdict:
    """Boolean outcome plus the first counterexample found, if any."""

    ok: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


PASS = Verdict(True)


@record
class PrincipalFilter:
    """Filter on a finite space, represented by its kernel mask."""

    kernel: int

    def __post_init__(self):
        if self.kernel == 0:
            raise EmptyKernel("a filter kernel cannot be empty")


def byte_tables(items, join, empty) -> tuple:
    """Per-byte tables over ``items``: ``tabs[k][b]`` joins ``items[8k + i]``
    over the set bits i of ``b``, in ascending i.  Each item doubles its
    byte's table: the entries with its bit set are the entries without
    it, joined with the item."""
    tabs = []
    for lo in range(0, len(items) or 1, 8):
        tab = [empty]
        for item in items[lo : lo + 8]:
            tab += [join(t, item) for t in tab]
        tabs.append(tuple(tab))
    return tuple(tabs)


def union_tables(cols) -> tuple:
    """Per-byte tables of unions of the columns ``cols``."""
    return byte_tables(cols, operator.or_, 0)


def union_of(tabs: tuple, a: int) -> int:
    """Union of the columns at the bits of ``a``, one lookup per nonzero
    byte.  ``a`` must not have bits beyond the columns."""
    if a < 256:
        return tabs[0][a]
    out = 0
    for tab in tabs:
        if a & 0xFF:
            out |= tab[a & 0xFF]
        a >>= 8
    return out


@lru_cache(maxsize=256)
def _point_name_tables(points: tuple) -> tuple:
    """Per-byte tables of name tuples, shared by spaces on one point tuple."""
    return byte_tables([(p,) for p in points], operator.add, ())


@record
class FinitePretop:
    points: tuple[str, ...]
    vicinity: tuple[int, ...]  # least vicinity kernel per point index

    # Derived values are cached in the instance dict; the record
    # compares, hashes and prints the two fields only.

    @cached_property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def full(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def cols(self) -> tuple:
        """``cols[j]`` is adh{j}: the points whose least vicinity holds j."""
        cols = [0] * self.n
        for i, m in enumerate(self.vicinity):
            m &= self.full
            while m:
                low = m & -m
                cols[low.bit_length() - 1] |= 1 << i
                m ^= low
        return tuple(cols)

    @cached_property
    def _adh_tables(self) -> tuple:
        return union_tables(self.cols)

    @cached_property
    def _sweep_tables(self) -> tuple:
        return union_tables(self.vicinity)

    @cached_property
    def _name_tables(self) -> tuple:
        return _point_name_tables(tuple(self.points))

    # -- masks and names ---------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self.points.index(name)
        except ValueError:
            raise PointSetMismatch(f"no point named {name!r}") from None

    def mask(self, names) -> int:
        return mask_reader(self.points)(names)

    def names(self, mask: int) -> tuple[str, ...]:
        mask &= self.full
        if mask < 256:
            return self._name_tables[0][mask]
        out = ()
        for tab in self._name_tables:
            out += tab[mask & 0xFF]
            mask >>= 8
        return out

    def subsets(self):
        return range(self.full + 1)

    def kernels(self):
        return range(1, self.full + 1)

    # -- the two operators ----------------------------------------------------

    def adh(self, a: int) -> int:
        """Points whose least vicinity meets a."""
        return union_of(self._adh_tables, a & self.full)

    def inh(self, a: int) -> int:
        """Points whose least vicinity lies inside a."""
        full = self.full
        return full & ~union_of(self._adh_tables, full & ~a)

    def adh_filter(self, f: PrincipalFilter) -> int:
        return self.adh(f.kernel)

    def converges(self, f: PrincipalFilter, x: int) -> bool:
        """Filter convergence: kernel inside the least vicinity of x."""
        return f.kernel & ~self.vicinity[x] == 0

    def restrict(self, a: int) -> "FinitePretop":
        if a == 0:
            raise EmptySubspace("cannot restrict to the empty set")
        keep = [i for i in range(self.n) if a >> i & 1]
        pts = tuple(self.points[i] for i in keep)
        vic = []
        for i in keep:
            m = self.vicinity[i] & a
            vic.append(sum(1 << k for k, j in enumerate(keep) if m >> j & 1))
        return FinitePretop(pts, tuple(vic))


def mask_reader(points):
    """The function taking point names to their mask over ``points``, for
    declarations that read masks before their space exists."""
    bits = {}
    for i, p in enumerate(points):
        bits.setdefault(p, 1 << i)

    def mask(names) -> int:
        m = 0
        for name in names:
            try:
                m |= bits[name]
            except KeyError:
                raise PointSetMismatch(f"no point named {name!r}") from None
        return m

    return mask


def validate_space(points, table) -> FinitePretop:
    """Build a space from name -> vicinity-names, checking the point axiom."""
    points = tuple(points)
    mask = mask_reader(points)
    vic = []
    for i, p in enumerate(points):
        m = mask(table[p])
        if not m >> i & 1:
            raise AxiomViolation(f"point {p!r} missing from its own vicinity")
        vic.append(m)
    return FinitePretop(points, tuple(vic))


# -- separation and topologicity -------------------------------------------


def is_hausdorff(space: FinitePretop) -> Verdict:
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if space.vicinity[i] & space.vicinity[j]:
                return Verdict(False, (space.points[i], space.points[j]))
    return PASS


def is_topological(space: FinitePretop) -> Verdict:
    """Idempotent adherence.  adh is additive, so adh(adh A) = adh A holds
    for every A once it holds for the singletons, and the least failing
    mask is the singleton of the least failing point."""
    for k, adh in enumerate(space.cols):
        if space.adh(adh) != adh:
            return Verdict(False, (space.points[k],))
    return PASS


# -- covers and compactness ---------------------------------------------------


def vicinity_sweep(space: FinitePretop, a: int) -> int:
    """Union of the least vicinities over a."""
    return union_of(space._sweep_tables, a & space.full)


def least_choice(space: FinitePretop, at: int) -> tuple:
    """The cover of ``at`` picking each point's least vicinity, by names; its
    union is ``vicinity_sweep(space, at)``.  It refines every cover of
    ``at``, and the cover conditions tested here and in ``regularize`` are
    monotone in the members (union, ``inh`` and ``adh`` are), so they hold
    for every cover once they hold for this one, and when they fail this
    cover is the first failing choice in ascending order."""
    return tuple(space.names(space.vicinity[i]) for i in range(space.n) if at >> i & 1)


def compact_at(space: FinitePretop, f: PrincipalFilter, at: int, method: str = "filter") -> Verdict:
    """Compactness of a filter at a set, by either characterization."""
    if at == 0:
        raise EmptySubspace("compactness at the empty set is not defined")
    return compact_at_mask(space, f.kernel, at, method)


def compact_at_mask(space: FinitePretop, kernel: int, at: int, method: str) -> Verdict:
    """:func:`compact_at` for the principal filter with kernel ``kernel``."""
    if method == "filter":
        # every filter meshing with f must adhere inside `at`; adh k meets
        # `at` exactly when k meets the vicinity sweep of `at`
        bad = kernel & ~vicinity_sweep(space, at)
        if bad:
            return Verdict(False, space.names(bad & -bad))
        return PASS
    if method == "cover":
        # every cover of `at` must swallow a member of f in finitely many steps
        if kernel & ~vicinity_sweep(space, at):
            return Verdict(False, least_choice(space, at))
        return PASS
    raise ValueError(f"unknown method {method!r}")


def is_cover_compact(space: FinitePretop, at: int, method: str = "cover") -> Verdict:
    """Cover-compact subsets, by any of the three characterizations.

    The filter routes quantify over the filters whose adherence misses
    ``at``: adh is additive, so their kernels are the subsets of
    ``rest``, which decides both conditions.  Neither can fail: a
    filter's least member is its kernel, and adh k misses ``at`` exactly
    when k misses ``vicinity_sweep(space, at)``, the least vicinity of
    ``at``.
    """
    if at == 0:
        raise EmptySubspace("cover-compactness of the empty set is not defined")
    if method == "cover":
        if at & ~space.inh(vicinity_sweep(space, at)):
            return Verdict(False, least_choice(space, at))
        return PASS
    rest = 0
    for b, col in enumerate(space.cols):
        if not col & at:
            rest |= 1 << b
    if method == "filter-refines":
        # adh F disjoint from `at` forces a member already avoiding it
        ok = not space.adh(rest) & at
    elif method == "vicinity-separation":
        # adh F disjoint from `at` forces a vicinity of `at` missing a member
        ok = not rest & vicinity_sweep(space, at)
    else:
        raise ValueError(f"unknown method {method!r}")
    return PASS if ok else Verdict(False, space.names(rest))


# -- enumeration -----------------------------------------------------------------


def enumerate_pretops(n: int):
    """All pretopologies on n named points, lexicographically by the
    per-point extra-vicinity masks.  2^(n(n-1)) spaces."""
    if not 1 <= n <= 5:
        raise SizeLimit(f"enumeration supported for 1..5 points, got {n}")
    points = tuple(str(i + 1) for i in range(n))
    spread = []
    for i in range(n):
        masks = []
        for extra in range(1 << (n - 1)):
            m = 1 << i
            pos = 0
            for j in range(n):
                if j == i:
                    continue
                if extra >> pos & 1:
                    m |= 1 << j
                pos += 1
            masks.append(m)
        spread.append(masks)
    for combo in itertools.product(*spread):
        yield FinitePretop(points, tuple(combo))


def count_hausdorff(n: int) -> int:
    return sum(1 for sp in enumerate_pretops(n) if is_hausdorff(sp).ok)
