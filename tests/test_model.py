"""Model printing, declaration equality and the set-expression language:
its normal forms, its errors, and the laws tying parser, printer,
evaluation and ``set_literal`` together."""

import hashlib
import random
from pathlib import Path

import pytest

from pretop.defsets import KINDS, DefSet
from pretop.errors import ParseError, WorkbenchError
from pretop.model import (
    MapDecl,
    SetDecl,
    eval_set,
    parse_model,
    parse_set_expr,
    print_model,
    print_set_expr,
    set_literal,
)
from pretop.oracle import _rand_defset
from pretop.symbolic import builtin

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.pt"))


def test_corpus_is_present():
    assert len(CORPUS) >= 3


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_print_then_parse_round_trips(path):
    doc = parse_model(path.read_text(encoding="utf-8"))
    text = print_model(doc)
    assert parse_model(text) == doc
    assert print_model(parse_model(text)) == text


def test_declarations_ignore_their_line():
    m1 = MapDecl("f", "A", "B", (("1", "x"),), line=3)
    m2 = MapDecl("f", "A", "B", (("1", "x"),), line=17)
    assert m1 == m2 and hash(m1) == hash(m2)
    assert m1 != MapDecl("f", "A", "B", (("1", "y"),), line=3)
    e = parse_set_expr("{1} | ~{2}")
    s1, s2 = SetDecl("S", e, line=1), SetDecl("S", e, line=40)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != SetDecl("T", e, line=1)


def test_topology_block_prints_its_sorted_opens():
    doc = parse_model((CORPUS[0].parent / "finite.pt").read_text(encoding="utf-8"))
    text = print_model(doc)
    assert "topology S2 {\n  points: a b;\n  opens: {} {a} {a b};\n}\n" in text
    assert doc.finite("S2").vicinity == (0b01, 0b11)
    shuffled = parse_model("topology T { points: x y; opens: {x y} {} {y} {y}; }")
    assert print_model(shuffled) == "topology T {\n  points: x y;\n  opens: {} {y} {x y};\n}\n"


def test_parsing_builds_one_space_per_finite_declaration(monkeypatch):
    # counted as perfbench/tracer.py counts finite.spaces_built
    from pretop.finite import FinitePretop

    built, init = [], FinitePretop.__init__

    def counting_init(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        built.append(obj)

    monkeypatch.setattr(FinitePretop, "__init__", counting_init)
    text = (CORPUS[0].parent / "finite.pt").read_text(encoding="utf-8")
    doc = parse_model(text)
    declared = [line.split()[1] for line in text.splitlines() if line.split()[:1] in (["space"], ["topology"])]
    assert len(declared) == 4
    assert built == [doc.finite(name) for name in declared]


# -- the set-expression language ------------------------------------------------

BUILTINS = ("urysohn", "half_grid", "discrete_ray(2)")


@pytest.mark.parametrize(
    "text, printed",
    [
        ("ray(R1; 1..4,5)", "ray(R1; 1..5)"),
        ("ray(R1; ..3,2..)", "ray(R1)"),
        ("grid(G; rows=..)", "grid(G)"),
        ("grid(G; rows>3; cols!=0)", "grid(G; rows=4..; cols=..-1,1..)"),
        ("grid(G; cols=0; rows=1..3)", "grid(G; rows=1..3; cols=0)"),
        ("atom(pinf) | ~(ray(R1; <=2) & ray(R2; >=1))", "atom(pinf) | ~(ray(R1; ..2) & ray(R2; 1..))"),
    ],
)
def test_interval_clauses_print_in_normal_form(text, printed):
    assert print_set_expr(parse_set_expr(text)) == printed


def test_the_equals_sign_after_a_label_is_optional():
    assert parse_set_expr("grid(G; rows 1)") == parse_set_expr("grid(G; rows=1)")
    assert print_set_expr(parse_set_expr("grid(G; rows 1)")) == "grid(G; rows=1)"


@pytest.mark.parametrize(
    "text, message",
    [
        ("atom(pinf; 1)", "1:10: expected ')', found ';'"),
        ("ray(R1; 1; 2)", "1:10: expected ')', found ';'"),
        ("ray(R1; 5..1)", "1:9: empty interval 5..1"),
        ("ray(R1; 5..1,x)", "1:9: empty interval 5..1"),
        ("grid(G; cols=..4,5..-13", "1:18: empty interval 5..-13"),
        ("grid(G; foo=1)", "1:9: expected rows or cols"),
        ("grid(G; rows=1; rows=2)", "1:17: duplicate rows clause"),
        ("ray(R1; rows=1)", "1:9: expected an interval, found 'rows'"),
    ],
)
def test_a_malformed_term_is_refused_with_its_position(text, message):
    with pytest.raises(ParseError) as exc:
        parse_set_expr(text)
    assert str(exc.value) == message


def _interval_text(rng: random.Random) -> str:
    """A comparison or a range list, parts overlapping, unsorted and
    sometimes empty (lo above hi)."""
    if rng.random() < 0.3:
        return rng.choice((">", ">=", "<", "<=", "!=")) + str(rng.randint(-3, 5))
    parts = []
    for _ in range(rng.randint(1, 3)):
        lo, hi = (rng.choice(("", str(rng.randint(-3, 5)))) for _ in range(2))
        parts.append(lo if lo and rng.random() < 0.3 else f"{lo}..{hi}")
    return rng.choice(("", "=")) + ",".join(parts)


def _strand_names(key: str) -> dict:
    """The strand names of a builtin's schema by kind, and finite literals
    over its atoms."""
    strands = builtin(key).schema.strands
    names = {kind: tuple(n for n, axes in strands if len(axes) == i) for i, kind in enumerate(KINDS)}
    atoms = names["atom"]
    names["lit"] = ("all", "empty", "{}", "{%s}" % " ".join(atoms)) + tuple("{%s}" % a for a in atoms)
    return names


def _term_text(rng: random.Random, names: dict) -> str:
    """A strand term of the schema, or now and then one naming a strand it
    lacks; or a literal."""
    kind = rng.choice([kind for kind, own in names.items() if own])
    if rng.random() < 0.08:
        kind, name = rng.choice(("atom", "ray", "grid")), "X"
    else:
        name = rng.choice(names[kind])
    if kind == "lit":
        return name
    if kind == "atom":
        return f"atom({name})"
    if kind == "ray":
        clause = f"; {_interval_text(rng)}" if rng.random() < 0.7 else ""
        return f"ray({name}{clause})"
    labels = [label for label in ("rows", "cols") if rng.random() < 0.6]
    rng.shuffle(labels)
    clauses = "".join(f"; {label}{_interval_text(rng)}" for label in labels)
    return f"grid({name}{clauses})"


def _expr_text(rng: random.Random, names: dict, depth: int = 0) -> str:
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        return _term_text(rng, names)
    if roll < 0.55:
        return "~" + _expr_text(rng, names, depth + 1)
    if roll < 0.7:
        return f"({_expr_text(rng, names, depth + 1)})"
    op = rng.choice(("|", "&", "\\"))
    return f"{_expr_text(rng, names, depth + 1)} {op} {_expr_text(rng, names, depth + 1)}"


def _seeded_exprs(seed: int, count: int):
    """``(builtin, text)``, the builtins in turn, each text over that
    builtin's strands; every fourth text is damaged, a character replaced,
    dropped or doubled."""
    rng = random.Random(seed)
    names = {key: _strand_names(key) for key in BUILTINS}
    for i in range(count):
        key = BUILTINS[i % len(BUILTINS)]
        text = _expr_text(rng, names[key])
        if i % 4 == 3:
            at = rng.randrange(len(text))
            text = text[:at] + rng.choice(("", ";", "=", ")", ".", "x", "3", text[at] * 2)) + text[at + 1 :]
        yield key, text


def test_printing_then_parsing_returns_the_expression():
    parsed = 0
    for _, text in _seeded_exprs(5, 1500):
        try:
            e = parse_set_expr(text)
        except ParseError:
            continue
        printed = print_set_expr(e)
        assert parse_set_expr(printed) == e, text
        assert print_set_expr(parse_set_expr(printed)) == printed, text
        parsed += 1
    assert parsed > 900


@pytest.mark.parametrize("key", BUILTINS)
def test_a_set_literal_evaluates_back_to_its_set(key):
    space = builtin(key)
    assert space.carrier_set == DefSet.full(space.schema)
    rng = random.Random(11)
    for _ in range(300):
        d = _rand_defset(rng, space.schema)
        assert eval_set(parse_set_expr(set_literal(d)), space) == d


# The record of one text: its parse error with line and column, or its
# printed form, whether that reparses to the same tree, and on its builtin
# the set literal of its value or the error evaluating it.
LANGUAGE_DIGEST = "35db2f85109e1f612d4d9e1e805aea5e70a01c44ab85d6c890192165e85c3e2d"


def _language_record(key: str, text: str) -> str:
    try:
        e = parse_set_expr(text)
    except ParseError as exc:
        return f"{key} {text!r}: ParseError: {exc}"
    printed = print_set_expr(e)
    try:
        value = set_literal(eval_set(e, builtin(key)))
    except WorkbenchError as exc:
        value = f"{type(exc).__name__}: {exc}"
    return f"{key} {text!r}: {printed}; {parse_set_expr(printed) == e}; {value}"


def test_parse_print_and_evaluate_match_the_golden_digest():
    lines = [_language_record(key, text) for key, text in _seeded_exprs(7, 3000)]
    assert sum("ParseError" in line for line in lines) > 500
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LANGUAGE_DIGEST
