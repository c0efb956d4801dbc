"""Golden digest of the symbolic engine's answers on seeded rule spaces.

A seeded generator draws small rule spaces: one ray or grid on N or Z
whose rule keeps the point's own piece and adds one or two drawn pieces
(offsets -2..2 in ``n``, ``m`` and maybe ``k``), an atom whose vicinity
is a tail of the strand, and, in about 30% of the spaces, a row selector
that is also the carrier.  For each space the record holds its
description, its regularization, the Hausdorff and compactness verdicts
with their witnesses on both, every end with its limit points, and the
adherence and inherence of fixed queries; an escape or a refused rule is
recorded by its message.  The digest pins every one of these answers, so
a refactor of the comparison-system core that changes any of them,
including the order of printed pieces, fails here.

A second family pins the order across strands: two atoms declared out
of name order, one ray and one grid, one rule per strand, and atom
vicinities made of tails of the ray and of the grid.  Besides the
answers above it records the description, cardinality and first sample
points of four query sets that mix every kind of strand.
"""

import hashlib
import itertools
import random

from pretop.defsets import GroundSchema
from pretop.errors import WorkbenchError
from pretop.intervals import INF, INTEGERS, NATURALS0, NEG_INF, IntervalSet
from pretop.model import eval_set, parse_set_expr, set_literal
from pretop.symbolic import (
    PointPattern,
    VicinityRule,
    build_symbolic,
    end_converges,
    ends,
    sym_adh,
    sym_hausdorff,
    sym_inh,
    sym_is_compact,
    sym_regularize,
)
from pretop.symbolic.exprs import SymDefSet, SymExpr, sym_box, var

SEEDS = 150
DIGEST = "75be19f7a2705035a069b0ec63cfc0c20e637465d41d2c500e7057d44ba218fb"

_QUERIES = {
    "ray": ("ray(R; 0)", "ray(R; 2..)", "ray(R; -1..1)", "ray(R; 0,3..5) | atom(a)"),
    "grid": (
        "grid(G; rows=2)",
        "grid(G; cols=0)",
        "grid(G; rows=0..3; cols=0)",
        "grid(G; rows=0,2..3; cols=0,3..5) | atom(a)",
    ),
}


SEEDS_MIXED = 60
DIGEST_MIXED = "26b2847dc72774e7c530b61811fb59ea4eaec759ce1430e4fc38b215780071b6"

_MIXED_QUERIES = (
    "ray(R; 0..2) | atom(b) | atom(a)",
    "grid(G; rows=0..1; cols=0,2) | ray(R; 3)",
    "atom(b) | grid(G; rows=2) | ray(R; 1..)",
    "ray(R; -1..1) | grid(G; rows=0; cols=0..3) | atom(a)",
)


def _endpoint(rng: random.Random, names: tuple, side: str):
    kind = rng.choice(("inf", "const", "var", "var", "var"))
    if kind == "inf":
        return INF if side == "hi" else NEG_INF
    c = rng.randint(-2, 2)
    if kind == "const":
        return SymExpr.const(c)
    return SymExpr(rng.choice(names), rng.choice((1, -1)), c)


def _space(rng: random.Random):
    grid = rng.random() < 0.5
    axes = tuple(rng.choice((NATURALS0, INTEGERS)) for _ in range(2 if grid else 1))
    names = ("n", "m")[: len(axes)] + (("k",) if rng.random() < 0.5 else ())
    sides = ("lo", "hi") * len(axes)
    own = (var("n"), var("n"), var("m"), var("m"))[: len(sides)]
    pieces = [own] + [tuple(_endpoint(rng, names, s) for s in sides) for _ in range(rng.randint(1, 2))]
    tail = (var("k") + 1, INF) * len(axes)
    rows = None
    if rng.random() < 0.3:
        lo = rng.randint(-2, 2) if axes[0] is INTEGERS else rng.randint(0, 2)
        rows = IntervalSet.from_pairs(axes[0], [(lo, rng.choice((lo, lo + 2, None)))])
    name = "G" if grid else "R"
    schema = GroundSchema((("a", ()), (name, axes)))
    pat = PointPattern(name, (rows, None)[: len(axes)])
    rules = (
        VicinityRule(pat, SymDefSet.of(schema, {name: [sym_box(p) for p in pieces]})),
        VicinityRule(PointPattern.atom("a"), SymDefSet.of(schema, {"a": [()], name: [sym_box(tail)]})),
    )
    carrier = None if rows is None else pat.to_defset(schema) | PointPattern.atom("a").to_defset(schema)
    return build_symbolic(schema, rules, topological=True, carrier=carrier, label="g"), pat.kind


def _pieces(rng: random.Random, axes: tuple, coords: tuple) -> list:
    """The boxes of the point's own piece and of one or two drawn pieces
    on one strand."""
    names = coords + (("k",) if rng.random() < 0.5 else ())
    sides = ("lo", "hi") * len(axes)
    own = tuple(var(c) for c in coords for _ in range(2))
    pieces = [own] + [tuple(_endpoint(rng, names, s) for s in sides) for _ in range(rng.randint(1, 2))]
    return [sym_box(p) for p in pieces]


def _mixed_space(rng: random.Random):
    ray_axis = rng.choice((NATURALS0, INTEGERS))
    grid_axes = tuple(rng.choice((NATURALS0, INTEGERS)) for _ in range(2))
    ray_axes = (ray_axis,)
    schema = GroundSchema((("b", ()), ("a", ()), ("R", ray_axes), ("G", grid_axes)))
    tail = (var("k") + 1, INF)
    ray_tail, grid_tail = sym_box(tail), sym_box(tail * 2)
    rules = (
        VicinityRule(PointPattern.ray("R"), SymDefSet.of(schema, {"R": _pieces(rng, ray_axes, ("n",))})),
        VicinityRule(PointPattern.grid("G"), SymDefSet.of(schema, {"G": _pieces(rng, grid_axes, ("n", "m"))})),
        VicinityRule(PointPattern.atom("b"), SymDefSet.of(schema, {"b": [()], "R": [ray_tail], "G": [grid_tail]})),
        VicinityRule(PointPattern.atom("a"), SymDefSet.of(schema, {"a": [()], "G": [grid_tail]})),
    )
    return build_symbolic(schema, rules, topological=True, label="m")


def _text(w) -> str:
    if isinstance(w, tuple):
        return "(" + ", ".join(_text(v) for v in w) + ")"
    return w.describe() if hasattr(w, "describe") else repr(w)


def _answer(fn, *args) -> str:
    try:
        return fn(*args)
    except WorkbenchError as exc:
        return f"{type(exc).__name__}: {exc}"


def _verdict(fn, x) -> str:
    v = fn(x)
    return f"{v.ok} {_text(v.witness)}"


def _ends(x) -> str:
    return "; ".join(f"{e.describe()} -> {end_converges(x, e).describe()}" for e in ends(x))


def _record(seed: int, space=_space) -> list:
    rng = random.Random(seed)
    built = _answer(space, rng)
    if isinstance(built, str):
        return [f"seed {seed}: {built}"]
    x, kind = built if isinstance(built, tuple) else (built, "mixed")
    lines = [f"seed {seed}", x.describe()]
    r = _answer(sym_regularize, x)
    lines.append(r if isinstance(r, str) else r.describe())
    for sp in (x, r) if not isinstance(r, str) else (x,):
        lines += [_answer(_verdict, fn, sp) for fn in (sym_hausdorff, sym_is_compact)]
        lines.append(_answer(_ends, sp))
    for q in _QUERIES.get(kind, _MIXED_QUERIES):
        s = eval_set(parse_set_expr(q), x)
        if kind == "mixed":
            sample = ", ".join(p.describe() for p in itertools.islice(s.iter_sample_points(), 12))
            lines.append(f"{q}: {s.describe()}; {s.cardinality()}; {sample}")
        for name, fn in (("adh", sym_adh), ("inh", sym_inh)):
            lines.append(f"{name} {q}: " + _answer(lambda: set_literal(fn(x, s))))
    return lines


def test_symbolic_answers_match_the_golden_digest():
    text = "\n".join(line for seed in range(SEEDS) for line in _record(seed))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


def test_two_strand_answers_match_the_golden_digest():
    text = "\n".join(line for seed in range(SEEDS_MIXED) for line in _record(seed, _mixed_space))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST_MIXED
