"""Space constructions.

Finite side: quotients along the small-image operator, and dense-subset
extensions with their strict and simple modifications.
Symbolic side: the end extension, which adds one point per
non-converging end class and is the exact compactification of a
definable space at the level of its set algebra, plus the induced
extension of maps.
"""

from __future__ import annotations

from .defsets import DefSet, GroundSchema, Point
from .errors import (
    EmptySubspace,
    FragmentEscape,
    NotDense,
    NotSurjective,
    PointSetMismatch,
    SchemaMismatch,
    UnclassifiableImageTrace,
)
from .finite import FinitePretop, Verdict, is_cover_compact, is_hausdorff, vicinity_sweep
from .maps import SpaceMap, is_strongly_irreducible, is_w_theta_continuous
from .record import record
from .symbolic.analysis import (
    EndClass,
    end_converges,
    noncompact_ends,
    sym_is_compact,
    trace_sym,
)
from .symbolic.exprs import SymDefSet, var
from .symbolic.maps import SymbolicMap, build_sym_map, image_end, sym_is_continuous
from .symbolic.space import PointPattern, SymbolicPretop, VicinityRule, build_symbolic


# -- theta quotients of finite spaces -----------------------------------------

@record
class QuotientResult:
    """Quotient space, the projection onto it, and the verified facts."""

    space: FinitePretop
    map: SpaceMap
    lemma_ok: bool
    source_hausdorff: Verdict
    source_compact: Verdict
    strongly_irreducible: Verdict
    w_theta_continuous: Verdict | None


def theta_quotient(space: FinitePretop, table: dict, names=None) -> QuotientResult:
    """Quotient whose vicinities are small images of fiber vicinities.

    Each target kernel is ``{y' : fiber(y') ⊆ K}`` for ``K`` the union
    of the fiber's least vicinities.  The report replays the defining
    convergence condition against the constructed kernels on every
    target subset, and evaluates the hypotheses (Hausdorffness and
    compactness of the source, strong irreducibility of the projection)
    without enforcing them.
    """
    for p in space.points:
        if p not in table:
            raise PointSetMismatch(f"no image assigned to point {p!r}")
    tgt = tuple(dict.fromkeys(table[p] for p in space.points)) if names is None else tuple(names)
    fibers = []
    for y in tgt:
        m = sum(1 << i for i, p in enumerate(space.points) if table[p] == y)
        if m == 0:
            raise NotSurjective(f"no point maps to {y!r}")
        fibers.append(m)
    stray = set(table[p] for p in space.points) - set(tgt)
    if stray:
        raise PointSetMismatch(f"image {sorted(stray)[0]!r} missing from the target points")

    unions = [vicinity_sweep(space, fm) for fm in fibers]
    kernels = tuple(sum(1 << j2 for j2, fm in enumerate(fibers) if fm & ~k == 0) for k in unions)
    sigma = FinitePretop(tgt, kernels)
    f = SpaceMap.from_table(space, sigma, table)

    lemma_ok = True
    for j, k in enumerate(unions):
        for s in range(1, sigma.full + 1):
            pre = f.preimage_mask(s)
            if (s & ~sigma.vicinity[j] == 0) != (pre & ~k == 0):
                lemma_ok = False
    irr = is_strongly_irreducible(f)
    return QuotientResult(
        sigma,
        f,
        lemma_ok,
        is_hausdorff(space),
        is_cover_compact(space, space.full),
        irr,
        is_w_theta_continuous(f) if irr.ok else None,
    )


# -- finite extensions ---------------------------------------------------------

@record
class Extension:
    """Finite space together with a dense base subset.

    ``trace(p)`` is the part of p's least vicinity that the base sees;
    the inherited structure on the base is the restriction.
    """

    space: FinitePretop
    base: int

    def trace(self, i: int) -> int:
        return self.space.vicinity[i] & self.base


def make_extension(space: FinitePretop, base) -> Extension:
    """Present ``space`` as an extension of the subset ``base``.

    ``base`` is a mask or an iterable of point names; it must be
    nonempty and adhere to everything.
    """
    mask = base if isinstance(base, int) else space.mask(base)
    if mask == 0:
        raise EmptySubspace("an extension needs a nonempty base")
    if space.adh(mask) != space.full:
        missed = space.names(space.full & ~space.adh(mask))
        raise NotDense(f"base does not reach {missed}")
    return Extension(space, mask)


def o_set(e: Extension, a: int) -> int:
    """Points whose whole trace lies inside ``a`` (a subset of the base)."""
    a &= e.base
    return sum(1 << i for i in range(e.space.n) if e.trace(i) & ~a == 0)


def strict_extension(e: Extension) -> FinitePretop:
    """Finest extension inducing the same traces: kernels ``{p} ∪ trace(p)``.

    Porter and Woods call this the simple extension Y⁺ and the one of
    :func:`simple_extension` the strict extension Y♯; the two names here
    follow the ``construct`` subcommands, which keep them."""
    vic = tuple((1 << i) | e.trace(i) for i in range(e.space.n))
    return FinitePretop(e.space.points, vic)


def simple_extension(e: Extension) -> FinitePretop:
    """Extension with kernels ``o(trace(p))`` (Porter and Woods' strict
    extension Y♯); coarser than a topological ambient space, though not
    than an arbitrary one."""
    vic = tuple(o_set(e, e.trace(i)) for i in range(e.space.n))
    return FinitePretop(e.space.points, vic)


# -- end extensions of definable spaces ----------------------------------------

@record
class EndExtensionSpace:
    """Definable space plus one new point per non-converging end."""

    base: SymbolicPretop
    space: SymbolicPretop
    added: tuple  # ((atom name, pinned end class), ...)
    compact: Verdict


def _side_code(status: str, fixed) -> str:
    if status == "fixed":
        return str(fixed).replace("-", "m")
    return status


def _end_atom_name(e: EndClass) -> str:
    bits = [e.strand, _side_code(e.row, e.fixed)]
    if e.kind == "grid":
        bits.append(_side_code(e.col, e.fixed))
    return "end_" + "_".join(bits)


def _bad_ends(x: SymbolicPretop) -> list:
    """Non-converging end classes, each parametric one pinned at every
    value of its bad parameter region."""
    out = []
    for e, bad in noncompact_ends(x):
        if bad is None:
            out.append(e)
        elif bad.cardinality() is None:
            raise FragmentEscape(
                f"end class {e.describe()} diverges on the infinite range {bad.describe()}"
            )
        else:
            out.extend(e.pin(v) for lo, hi in bad.parts for v in range(lo, hi + 1))
    return out


def _rebase_defset(d: DefSet, schema: GroundSchema) -> DefSet:
    return DefSet.build(
        schema,
        atoms=d.atoms,
        ray_parts=dict(d.rays),
        grid_rects={n: list(groups) for n, groups in d.grids},
    )


def _rebase_template(t: SymDefSet, schema: GroundSchema) -> SymDefSet:
    mask = None if t.mask is None else _rebase_defset(t.mask, schema)
    return SymDefSet(schema, t.atoms, t.rays, t.grids, mask)


def _extend(x: SymbolicPretop, atoms_for: list, label: str) -> EndExtensionSpace:
    """Shared body: ``atoms_for`` pairs each new atom with its ends."""
    if not atoms_for:
        return EndExtensionSpace(x, x, (), sym_is_compact(x))
    names = tuple(name for name, _ in atoms_for)
    schema2 = GroundSchema(x.schema.atoms + names, x.schema.rays, x.schema.grids)
    carrier2 = None
    if x.carrier is not None:
        carrier2 = _rebase_defset(x.carrier, schema2) | DefSet.build(schema2, atoms=names)
    rules2 = [VicinityRule(r.pattern, _rebase_template(r.template, schema2)) for r in x.rules]
    added = []
    for name, covered in atoms_for:
        ray_parts: dict = {}
        grid_rects: dict = {}
        for e in covered:
            t = trace_sym(schema2, e, None, param=var("k"))
            for n, s in t.rays:
                ray_parts.setdefault(n, []).extend((p.lo, p.hi) for p in s.parts)
            for n, rects in t.grids:
                grid_rects.setdefault(n, []).extend(rects)
            added.append((name, e))
        tmpl = SymDefSet.assemble(schema2, atoms=[name], ray_parts=ray_parts, grid_rects=grid_rects)
        rules2.append(VicinityRule(PointPattern.atom(name), tmpl))
    space2 = build_symbolic(schema2, rules2, topological=False, carrier=carrier2, label=label)
    return EndExtensionSpace(x, space2, tuple(added), sym_is_compact(space2))


def end_extension(x: SymbolicPretop) -> EndExtensionSpace:
    """Compact extension adding one point per non-converging end.

    The new point's vicinities are itself together with the tails of
    the end's trace, the strict-extension recipe applied to the trace
    filter.  A space whose ends all converge comes back unchanged.
    """
    bad = _bad_ends(x)
    pairs = [(_end_atom_name(e), (e,)) for e in bad]
    return _extend(x, pairs, f"{x.label or 'space'} with ends")


def merged_end_extension(x: SymbolicPretop, name: str = "omega") -> EndExtensionSpace:
    """One-point variant: a single new point receives every
    non-converging end's tails."""
    bad = _bad_ends(x)
    pairs = [(name, tuple(bad))] if bad else []
    return _extend(x, pairs, f"{x.label or 'space'} with one end point")


# -- extending maps over end extensions -----------------------------------------

def _least_point(x: SymbolicPretop, d: DefSet) -> Point:
    """First point of a nonempty definable set, in schema order with
    coordinates drawn from the first piece."""
    for a in x.schema.atoms:
        if a in d.atoms:
            return Point.atom(a)
    for n, s in d.rays:
        if not s.is_empty():
            return Point.ray(n, s.least())
    for n, groups in d.grids:
        if groups:
            rows, cols = groups[0]
            return Point.grid(n, rows.least(), cols.least())
    raise EmptySubspace("no point to pick from an empty set")


@record
class KappaMap:
    """Extended map together with its continuity verdict."""

    map: SymbolicMap
    continuous: Verdict


def extend_map_kappa(
    f: SymbolicMap,
    source_ext: EndExtensionSpace | None = None,
    target_ext: EndExtensionSpace | None = None,
) -> KappaMap:
    """Extend a continuous map over the end extensions of its spaces.

    A new source point goes to the least limit of its image trace when
    that trace converges, and otherwise to the target's new point for
    the same end; an image trace that is neither is not classifiable.
    """
    base = sym_is_continuous(f)
    if not base.ok:
        raise ValueError(f"map is not continuous at {base.witness[0].describe()}")
    kx = source_ext if source_ext is not None else end_extension(f.source)
    ky = target_ext if target_ext is not None else end_extension(f.target)
    if kx.base != f.source or ky.base != f.target:
        raise SchemaMismatch("extensions built over different spaces than the map's")

    assignments: dict = {}
    for n, sm in f.strands:
        assignments[n] = sm
    for atom, e in kx.added:
        if atom in assignments:
            continue  # merged extension: one atom covers several ends
        img = image_end(f, e)
        if isinstance(img, Point):
            assignments[atom] = img
            continue
        limits = end_converges(f.target, img).at(img.fixed)
        if not limits.is_empty():
            assignments[atom] = _least_point(f.target, limits)
            continue
        match = [n for n, e2 in ky.added if e2 == img]
        if not match:
            raise UnclassifiableImageTrace(
                f"image end {img.describe()} converges nowhere and is not a point of the extension"
            )
        assignments[atom] = Point.atom(match[0])
    big = build_sym_map(kx.space, ky.space, assignments, label=f"{f.label or 'map'} extended")
    return KappaMap(big, sym_is_continuous(big))
