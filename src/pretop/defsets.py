"""Definable subsets of a ground set built from atoms, rays and grids.

A ground schema is one list of strands, each a name and its axes:
standalone atoms (no axis), rays (one integer axis) and grids (row axis
x column axis), kept in schema order, the atoms first, then the rays,
then the grids.  A definable set is built from boxes given per strand
name (:meth:`DefSet.of`) and lists, in schema order, the strands it
meets, each with its boxes: a box holds one interval set per axis of its
strand, so an atom's box is empty, a ray's holds one set and a grid's a
row set and a column set.  The boxes are canonical: an atom has one empty
box, a ray one box holding its union, and a grid its row groups,
pairwise disjoint row sets each paired with a distinct nonempty column
set, sorted by first row.  Equal canonical forms are semantically equal
sets, so record equality is set equality.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import and_, or_

from .errors import SchemaMismatch, UnknownPoint
from .intervals import INF, NEG_INF, AxisDomain, IntervalSet
from .record import lazy, record

# the kind of a strand with 0, 1 or 2 axes
KINDS = ("atom", "ray", "grid")


@record
class GroundSchema:
    """The strands of a ground set: ``(name, axes)`` pairs with 0, 1 or
    2 axes, names unique.  Schema order lists the atoms, then the rays,
    then the grids, each in the order given."""

    strands: tuple[tuple[str, tuple[AxisDomain, ...]], ...] = ()

    def __post_init__(self):
        strands = tuple(sorted(self.strands, key=lambda strand: len(strand[1])))
        object.__setattr__(self, "strands", strands)
        if len({name for name, _ in strands}) != len(strands):
            raise SchemaMismatch("duplicate strand name in schema")
        if strands and len(strands[-1][1]) >= len(KINDS):
            raise SchemaMismatch(f"strand {strands[-1][0]!r} has more than two axes")

    # Every template set of a symbolic space carries its schema, so a
    # space's hash would walk every strand once per template.  The hash is
    # kept instead; a pickle carries only the strands, since a string's
    # hash differs from one process to the next.

    @lazy
    def _hash(self) -> int:
        return hash((self.strands,))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return GroundSchema, (self.strands,)

    @lazy
    def _axes(self) -> dict:
        return dict(self.strands)

    @lazy
    def _position(self) -> dict:
        return {name: i for i, (name, _) in enumerate(self.strands)}

    @lazy
    def _full(self) -> "DefSet":
        """The whole ground set, built once; :meth:`DefSet.full` returns it."""
        return DefSet.of(self, {n: [tuple(IntervalSet.full(ax) for ax in axes)] for n, axes in self.strands})

    def axes(self, name: str, kind: str | None = None) -> tuple:
        """The axes of a strand, checked to be of ``kind`` when given."""
        axes = self._axes.get(name)
        if axes is None or (kind is not None and KINDS[len(axes)] != kind):
            raise UnknownPoint(f"no {kind or 'strand'} named {name!r}")
        return axes

    def check_boxes(self, name: str, boxes) -> tuple:
        """The axes of a strand, once each of ``boxes`` is seen to hold one
        entry per axis."""
        axes = self._axes[name]
        for box in boxes:
            if len(box) != len(axes):
                raise SchemaMismatch(f"a box of strand {name!r} has {len(box)} axes, not {len(axes)}")
        return axes

    def in_order(self, named: dict) -> list:
        """The ``(strand name, value)`` items of ``named`` in schema order."""
        try:
            order = sorted(named, key=self._position.__getitem__)
        except KeyError as e:
            raise UnknownPoint(f"no strand named {e.args[0]!r}") from None
        return [(name, named[name]) for name in order]


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
        axes = schema._axes.get(self.strand)
        if axes is None:
            raise UnknownPoint(f"no strand named {self.strand!r}")
        if len(self.coords) == len(axes):
            for c, ax in zip(self.coords, axes):
                if c not in ax:
                    break
            else:
                return
        if not axes:
            raise UnknownPoint(f"atom {self.strand!r} takes no coordinates")
        raise UnknownPoint(f"{self.coords} not on {KINDS[len(axes)]} {self.strand!r}")

    def describe(self) -> str:
        if not self.coords:
            return self.strand
        return f"{self.strand}({','.join(str(c) for c in self.coords)})"


def _canonical(axes: tuple, boxes) -> tuple:
    """Canonical boxes of the union of ``boxes`` over ``axes``, empty
    boxes dropped."""
    boxes = [b for b in boxes if all([s.parts for s in b])]
    return _union(axes, boxes) if boxes else ()


def _union(axes: tuple, boxes: list) -> tuple:
    """Canonical boxes of the union of nonempty ``boxes``.

    One box is canonical as it is.  Without axes the union is one empty
    box, and on one axis one box holding the union of the sets.  On
    more, the first axis is split at every finite endpoint of the boxes,
    each elementary segment gets the canonical union of the other
    coordinates of the boxes covering it, and segments with equal unions
    merge into one group.
    """
    if len(boxes) == 1:
        return (tuple(boxes[0]),)
    if len(axes) < 2:
        return (tuple(reduce(or_, sets) for sets in zip(*boxes)),)
    bps = sorted(
        {e for b in boxes for lo, hi in b[0].parts for e in (lo, hi) if e != INF and e != NEG_INF}
    )
    segments = []
    cursor = axes[0].low_value
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
        covering = [b[1:] for b in boxes if rep in b[0]]
        if covering:
            groups.setdefault(_union(axes[1:], covering), []).append((lo, hi))

    out = []
    for rest, segs in groups.items():
        rows = IntervalSet.from_pairs(
            axes[0], [(None if lo == NEG_INF else lo, None if hi == INF else hi) for lo, hi in segs]
        )
        out += [(rows, *b) for b in rest]
    out.sort(key=lambda box: box[0].parts)
    return tuple(out)


def _complement(axes: tuple, boxes) -> list:
    """Boxes covering the rest of a strand outside its canonical
    ``boxes``: within the first-axis set of each box the complement of
    its other coordinates, and the whole strand past those sets."""
    if not axes:
        return [] if boxes else [()]
    out = [(b[0], *r) for b in boxes for r in _complement(axes[1:], [b[1:]])]
    past = ~reduce(or_, [b[0] for b in boxes]) if boxes else IntervalSet.full(axes[0])
    return out + [(past, *r) for r in _complement(axes[1:], [])]


def display_order(parts) -> list:
    """The ``(strand, boxes)`` parts of a set as printed: the atoms
    sorted by name, then the other strands in schema order."""
    atoms = sorted(part for part in parts if part[1] == ((),))
    return atoms + [part for part in parts if part[1] != ((),)]


def _check_schema(a: "DefSet", b: "DefSet"):
    if a.schema != b.schema:
        raise SchemaMismatch("definable sets over different schemas")


_SHOW = ("atom({})", "ray({}; {})", "grid({}; rows {}; cols {})")


@record
class DefSet:
    """Definable subset of a schema's ground set, in canonical form.

    ``parts`` lists ``(strand, boxes)`` for each strand the set meets,
    in schema order, so that structural equality is set equality.
    """

    schema: GroundSchema
    parts: tuple

    @classmethod
    def of(cls, schema: GroundSchema, strands: dict) -> "DefSet":
        """The union of the boxes given per strand name, canonicalized."""
        parts = []
        for name, boxes in schema.in_order(strands):
            boxes = _canonical(schema.check_boxes(name, boxes), boxes)
            if boxes:
                parts.append((name, boxes))
        return cls(schema, tuple(parts))

    @classmethod
    def empty(cls, schema: GroundSchema) -> "DefSet":
        return cls(schema, ())

    @classmethod
    def full(cls, schema: GroundSchema) -> "DefSet":
        return schema._full

    @classmethod
    def point(cls, schema: GroundSchema, p: Point) -> "DefSet":
        p.validate(schema)
        singles = tuple(IntervalSet.single(ax, c) for ax, c in zip(schema._axes[p.strand], p.coords))
        return cls.of(schema, {p.strand: [singles]})

    def boxes(self, name: str) -> tuple:
        """The canonical boxes of one strand; none when the set misses it."""
        for n, boxes in self.parts:
            if n == name:
                return boxes
        return ()

    # -- queries -----------------------------------------------------------

    def __contains__(self, p: Point) -> bool:
        # a point inside a box lies on its strand's axes, so only a point
        # that no box holds is validated
        coords = p.coords
        for box in self.boxes(p.strand):
            if len(box) != len(coords):
                break
            for c, s in zip(coords, box):
                if c not in s:
                    break
            else:
                return True
        p.validate(self.schema)
        return False

    def is_empty(self) -> bool:
        return not self.parts

    def meets(self, other: "DefSet") -> bool:
        return not (self & other).is_empty()

    def is_finite(self) -> bool:
        return self.cardinality() is not None

    def cardinality(self):
        """Number of points, or None when infinite."""
        total = 0
        for _, boxes in self.parts:
            for box in boxes:
                size = 1
                for s in box:
                    c = s.cardinality()
                    if c is None:
                        return None
                    size *= c
                total += size
        return total

    # -- algebra -------------------------------------------------------------

    def __or__(self, other: "DefSet") -> "DefSet":
        _check_schema(self, other)
        strands: dict = {}
        for name, boxes in self.parts + other.parts:
            strands.setdefault(name, []).extend(boxes)
        return DefSet.of(self.schema, strands)

    def __and__(self, other: "DefSet") -> "DefSet":
        _check_schema(self, other)
        theirs = dict(other.parts)
        return DefSet.of(
            self.schema,
            {
                name: [tuple(map(and_, a, b)) for a in boxes for b in theirs[name]]
                for name, boxes in self.parts
                if name in theirs
            },
        )

    def __invert__(self) -> "DefSet":
        mine = dict(self.parts)
        return DefSet.of(
            self.schema, {name: _complement(axes, mine.get(name, ())) for name, axes in self.schema.strands}
        )

    def __sub__(self, other: "DefSet") -> "DefSet":
        return self & ~other

    def subset_of(self, other: "DefSet") -> bool:
        return (self - other).is_empty()

    # -- display ---------------------------------------------------------------

    def describe(self) -> str:
        chunks = [
            _SHOW[len(box)].format(name, *(s.describe() for s in box))
            for name, boxes in display_order(self.parts)
            for box in boxes
        ]
        return " | ".join(chunks) or "empty"

    def iter_sample_points(self, fringe: int = 2):
        """Deterministic finite probe of the set: the atoms, sorted by
        name, then per box the corners of its intervals and a fringe
        around them.  Witness points of the symbolic engine (an image
        outside a target carrier, a stray point of a family) are the
        first it yields."""
        for name, boxes in display_order(self.parts):
            for box in boxes:
                for coords in product(*(_interval_probe(s, fringe) for s in box)):
                    yield Point(name, coords)


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
