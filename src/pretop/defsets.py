"""Definable subsets of a ground set built from atoms, rays and grids.

A ground schema names finitely many strands: standalone atoms, rays
(one integer axis) and grids (row axis x column axis).  A definable set
holds, per strand, an atom flag, an interval set, or a union of
rectangles.  Grid parts are canonicalized into row groups: pairwise
disjoint row selectors, each paired with a distinct nonempty column
set, sorted by first row.  Equal canonical forms are semantically equal
sets, so record equality is set equality.
"""

from __future__ import annotations

from functools import cached_property

from .errors import SchemaMismatch, UnknownPoint
from .intervals import INF, NEG_INF, AxisDomain, IntervalSet
from .record import record


@record
class GroundSchema:
    """Strand names are unique across atoms, rays and grids."""

    atoms: tuple[str, ...] = ()
    rays: tuple[tuple[str, AxisDomain], ...] = ()
    grids: tuple[tuple[str, AxisDomain, AxisDomain], ...] = ()

    def __post_init__(self):
        names = list(self.atoms) + [n for n, _ in self.rays] + [n for n, *_ in self.grids]
        if len(names) != len(set(names)):
            raise SchemaMismatch("duplicate strand name in schema")

    @cached_property
    def _axes(self) -> dict:
        """Strand name -> ``(axis,)`` for a ray, ``(rows, cols)`` for a grid."""
        return {n: (ax,) for n, ax in self.rays} | {n: (r, c) for n, r, c in self.grids}

    def ray_axis(self, name: str) -> AxisDomain:
        if len(axes := self._axes.get(name, ())) != 1:
            raise UnknownPoint(f"no ray named {name!r}")
        return axes[0]

    def grid_axes(self, name: str) -> tuple[AxisDomain, AxisDomain]:
        if len(axes := self._axes.get(name, ())) != 2:
            raise UnknownPoint(f"no grid named {name!r}")
        return axes

    def has_atom(self, name: str) -> bool:
        return name in self.atoms


@record
class Point:
    """A concrete point of a schema: atom(name), ray(name, i) or
    grid(name, row, col)."""

    strand: str
    coords: tuple[int, ...] = ()

    @classmethod
    def atom(cls, name: str) -> "Point":
        return cls(name)

    @classmethod
    def ray(cls, name: str, i: int) -> "Point":
        return cls(name, (i,))

    @classmethod
    def grid(cls, name: str, row: int, col: int) -> "Point":
        return cls(name, (row, col))

    def validate(self, schema: GroundSchema):
        if self.strand in schema.atoms:
            if self.coords:
                raise UnknownPoint(f"atom {self.strand!r} takes no coordinates")
            return
        for n, ax in schema.rays:
            if n == self.strand:
                if len(self.coords) != 1 or self.coords[0] not in ax:
                    raise UnknownPoint(f"{self.coords} not on ray {n!r}")
                return
        for n, rows, cols in schema.grids:
            if n == self.strand:
                if len(self.coords) != 2 or self.coords[0] not in rows or self.coords[1] not in cols:
                    raise UnknownPoint(f"{self.coords} not on grid {n!r}")
                return
        raise UnknownPoint(f"no strand named {self.strand!r}")

    def describe(self) -> str:
        if not self.coords:
            return self.strand
        return f"{self.strand}({','.join(str(c) for c in self.coords)})"


def _canonical_grid(row_axis: AxisDomain, rects) -> tuple:
    """Row-group canonical form of a union of rectangles.

    Splits the row axis at every finite endpoint of the row selectors,
    computes the column set of each elementary segment, and merges
    segments with equal column sets into one group.
    """
    rects = [(r, c) for r, c in rects if not r.is_empty() and not c.is_empty()]
    if not rects:
        return ()
    bps = sorted(
        {e for r, _ in rects for lo, hi in r.parts for e in (lo, hi) if e != INF and e != NEG_INF}
    )
    segments = []
    cursor = row_axis.low_value
    for b in bps:
        if b < cursor:
            continue
        if cursor <= b - 1:
            segments.append((cursor, b - 1))
        segments.append((b, b))
        cursor = b + 1
    segments.append((cursor, INF))

    groups: dict = {}
    for lo, hi in segments:
        rep = lo if lo != NEG_INF else hi - 1  # any row in the segment
        colset = None
        for r, c in rects:
            if rep in r:
                colset = c if colset is None else colset | c
        if colset is None or colset.is_empty():
            continue
        groups.setdefault(colset, []).append((lo, hi))

    out = []
    for colset, segs in groups.items():
        rows = IntervalSet(row_axis, ())
        rows = IntervalSet.from_pairs(
            row_axis, [(None if lo == NEG_INF else lo, None if hi == INF else hi) for lo, hi in segs]
        )
        out.append((rows, colset))
    out.sort(key=lambda rc: rc[0].parts)
    return tuple(out)


def _check_schema(a: "DefSet", b: "DefSet"):
    if a.schema != b.schema:
        raise SchemaMismatch("definable sets over different schemas")


@record
class DefSet:
    """Definable subset of a schema's ground set, in canonical form.

    ``rays`` and ``grids`` list every strand in schema order so that
    structural equality is set equality.
    """

    schema: GroundSchema
    atoms: frozenset
    rays: tuple  # ((name, IntervalSet), ...) in schema order
    grids: tuple  # ((name, ((rows, cols), ...)), ...) canonical row groups

    @classmethod
    def build(cls, schema: GroundSchema, atoms=(), ray_parts=None, grid_rects=None) -> "DefSet":
        """Assemble from per-strand pieces and canonicalize.

        ``ray_parts`` maps ray name -> IntervalSet; ``grid_rects`` maps
        grid name -> iterable of (row IntervalSet, col IntervalSet).
        """
        ray_parts = dict(ray_parts or {})
        grid_rects = dict(grid_rects or {})
        for a in atoms:
            if not schema.has_atom(a):
                raise UnknownPoint(f"no atom named {a!r}")
        for n in ray_parts:
            schema.ray_axis(n)
        for n in grid_rects:
            schema.grid_axes(n)
        rays = tuple(
            (name, ray_parts.get(name, IntervalSet.empty(ax))) for name, ax in schema.rays
        )
        grids = tuple(
            (name, _canonical_grid(rows_ax, grid_rects.get(name, ())))
            for name, rows_ax, cols_ax in schema.grids
        )
        return cls(schema, frozenset(atoms), rays, grids)

    @classmethod
    def empty(cls, schema: GroundSchema) -> "DefSet":
        return cls.build(schema)

    @classmethod
    def full(cls, schema: GroundSchema) -> "DefSet":
        return cls.build(
            schema,
            atoms=schema.atoms,
            ray_parts={n: IntervalSet.full(ax) for n, ax in schema.rays},
            grid_rects={
                n: [(IntervalSet.full(r), IntervalSet.full(c))] for n, r, c in schema.grids
            },
        )

    @classmethod
    def point(cls, schema: GroundSchema, p: Point) -> "DefSet":
        p.validate(schema)
        if not p.coords:
            return cls.build(schema, atoms=[p.strand])
        if len(p.coords) == 1:
            ax = schema.ray_axis(p.strand)
            return cls.build(schema, ray_parts={p.strand: IntervalSet.single(ax, p.coords[0])})
        rows_ax, cols_ax = schema.grid_axes(p.strand)
        return cls.build(
            schema,
            grid_rects={
                p.strand: [
                    (IntervalSet.single(rows_ax, p.coords[0]), IntervalSet.single(cols_ax, p.coords[1]))
                ]
            },
        )

    # -- per-strand access ----------------------------------------------

    def ray_part(self, name: str) -> IntervalSet:
        for n, s in self.rays:
            if n == name:
                return s
        raise UnknownPoint(f"no ray named {name!r}")

    def grid_part(self, name: str) -> tuple:
        for n, groups in self.grids:
            if n == name:
                return groups
        raise UnknownPoint(f"no grid named {name!r}")

    def grid_rects(self, name: str):
        return list(self.grid_part(name))

    # -- queries -----------------------------------------------------------

    def __contains__(self, p: Point) -> bool:
        p.validate(self.schema)
        if not p.coords:
            return p.strand in self.atoms
        if len(p.coords) == 1:
            return p.coords[0] in self.ray_part(p.strand)
        row, col = p.coords
        return any(row in rows and col in cols for rows, cols in self.grid_part(p.strand))

    def is_empty(self) -> bool:
        return (
            not self.atoms
            and all(s.is_empty() for _, s in self.rays)
            and all(not groups for _, groups in self.grids)
        )

    def meets(self, other: "DefSet") -> bool:
        return not (self & other).is_empty()

    def is_finite(self) -> bool:
        return self.cardinality() is not None

    def cardinality(self):
        """Number of points, or None when infinite."""
        total = len(self.atoms)
        for _, s in self.rays:
            c = s.cardinality()
            if c is None:
                return None
            total += c
        for _, groups in self.grids:
            for rows, cols in groups:
                r, c = rows.cardinality(), cols.cardinality()
                if r is None or c is None:
                    return None
                total += r * c
        return total

    # -- algebra -------------------------------------------------------------

    def __or__(self, other: "DefSet") -> "DefSet":
        _check_schema(self, other)
        return DefSet.build(
            self.schema,
            atoms=self.atoms | other.atoms,
            ray_parts={n: s | other.ray_part(n) for n, s in self.rays},
            grid_rects={
                n: list(groups) + list(other.grid_part(n)) for n, groups in self.grids
            },
        )

    def __and__(self, other: "DefSet") -> "DefSet":
        _check_schema(self, other)
        grid_rects = {}
        for n, groups in self.grids:
            pieces = []
            for r1, c1 in groups:
                for r2, c2 in other.grid_part(n):
                    pieces.append((r1 & r2, c1 & c2))
            grid_rects[n] = pieces
        return DefSet.build(
            self.schema,
            atoms=self.atoms & other.atoms,
            ray_parts={n: s & other.ray_part(n) for n, s in self.rays},
            grid_rects=grid_rects,
        )

    def __invert__(self) -> "DefSet":
        grid_rects = {}
        for n, groups in self.grids:
            rows_ax, cols_ax = self.schema.grid_axes(n)
            pieces = []
            covered = IntervalSet.empty(rows_ax)
            for rows, cols in groups:
                covered = covered | rows
                comp = ~cols
                if not comp.is_empty():
                    pieces.append((rows, comp))
            rest = ~covered
            if not rest.is_empty():
                pieces.append((rest, IntervalSet.full(cols_ax)))
            grid_rects[n] = pieces
        return DefSet.build(
            self.schema,
            atoms=set(self.schema.atoms) - self.atoms,
            ray_parts={n: ~s for n, s in self.rays},
            grid_rects=grid_rects,
        )

    def __sub__(self, other: "DefSet") -> "DefSet":
        return self & ~other

    def subset_of(self, other: "DefSet") -> bool:
        return (self - other).is_empty()

    # -- display ---------------------------------------------------------------

    def describe(self) -> str:
        if self.is_empty():
            return "empty"
        chunks = [f"atom({a})" for a in sorted(self.atoms)]
        for n, s in self.rays:
            if not s.is_empty():
                chunks.append(f"ray({n}; {s.describe()})")
        for n, groups in self.grids:
            for rows, cols in groups:
                chunks.append(f"grid({n}; rows {rows.describe()}; cols {cols.describe()})")
        return " | ".join(chunks)

    def iter_sample_points(self, fringe: int = 2):
        """Deterministic finite probe of the set: atoms, interval corners
        and a fringe around them.  Used by tests, not by the engine."""
        for a in sorted(self.atoms):
            yield Point.atom(a)
        for n, s in self.rays:
            for v in _interval_probe(s, fringe):
                yield Point.ray(n, v)
        for n, groups in self.grids:
            for rows, cols in groups:
                for r in _interval_probe(rows, fringe):
                    for c in _interval_probe(cols, fringe):
                        yield Point.grid(n, r, c)


def _interval_probe(s: IntervalSet, fringe: int):
    vals = set()
    for lo, hi in s.parts:
        lo_f = lo if lo != NEG_INF else hi - 3 * fringe if hi != INF else -3 * fringe
        hi_f = hi if hi != INF else lo + 3 * fringe if lo != NEG_INF else 3 * fringe
        for base in (lo_f, hi_f):
            for d in range(-fringe, fringe + 1):
                v = base + d
                if v in s and v in s.axis:
                    vals.add(int(v))
    return sorted(vals)
