"""Model printing and declaration equality."""

from pathlib import Path

import pytest

from pretop.model import MapDecl, SetDecl, parse_model, parse_set_expr, print_model

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
