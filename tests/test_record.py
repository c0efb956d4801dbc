"""``record`` against its stdlib twin.

Each case rebuilds a real value class with ``dataclasses.dataclass(frozen=True)``
over the same class body (methods, properties, ``__post_init__``, and the
fields with their defaults and compare flags) and checks that the two agree on
construction, ``repr``, equality, hashing and frozenness.
"""

import dataclasses

import pytest

from pretop.defsets import GroundSchema
from pretop.errors import SchemaMismatch
from pretop.finite import FinitePretop, Verdict
from pretop.intervals import AxisDomain
from pretop.model import SetDecl, SetRef
from pretop.symbolic.space import SymbolicPretop

GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
             "__record_fields__", "__record_compared__", "__dict__", "__weakref__"}


def twin(cls):
    """``cls`` rebuilt as a stdlib frozen dataclass."""
    ns = {k: v for k, v in cls.__dict__.items() if k not in GENERATED}
    for name in cls.__record_fields__:
        if name not in cls.__record_compared__:
            ns[name] = dataclasses.field(default=ns[name], compare=False)
    built = type(cls.__name__, (), ns)
    built.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(built)


NAT = AxisDomain("nat")
SCHEMA = GroundSchema(("a",), (("r", NAT),), (("g", NAT, AxisDomain("int")),))

# (class, a full positional argument list, the number of required fields)
CASES = [
    (Verdict, (False, ("1", "2")), 1),
    (FinitePretop, (("1", "2"), (1, 3)), 2),
    (SetDecl, ("A", SetRef("B"), 7), 2),
    (GroundSchema, (SCHEMA.atoms, SCHEMA.rays, SCHEMA.grids), 0),
    (SymbolicPretop, (SCHEMA, (), True, None, "S"), 2),
]
IDS = [c[0].__name__ for c in CASES]


@pytest.mark.parametrize("cls, args, required", CASES, ids=IDS)
def test_fields_match_the_twin(cls, args, required):
    std = twin(cls)
    assert list(cls.__record_fields__) == [f.name for f in dataclasses.fields(std)]
    assert list(cls.__record_compared__) == [f.name for f in dataclasses.fields(std) if f.compare]
    assert len(args) == len(cls.__record_fields__)


@pytest.mark.parametrize("cls, args, required", CASES, ids=IDS)
def test_construction_and_repr_match_the_twin(cls, args, required):
    std = twin(cls)
    kwargs = dict(zip(cls.__record_fields__, args))
    short = args[:required]
    for mine, theirs in [
        (cls(*args), std(*args)),
        (cls(**kwargs), std(**kwargs)),
        (cls(*short), std(*short)),
    ]:
        assert repr(mine) == repr(theirs)
        assert vars(mine) == vars(theirs)
    assert cls(*args) == cls(**kwargs)
    with pytest.raises(TypeError):
        cls(*args, None)


@pytest.mark.parametrize("cls, args, required", CASES, ids=IDS)
def test_eq_and_hash_match_the_twin(cls, args, required):
    std = twin(cls)
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(std(*args))
    assert hash(a) == hash(tuple(getattr(a, n) for n in cls.__record_compared__))
    # equal fields in another class are not equal
    assert a != std(*args) and not a == std(*args)
    assert a.__eq__(std(*args)) is NotImplemented
    changed = cls("x", *args[1:])
    assert a != changed and not a == changed


def test_an_uncompared_field_is_left_out_of_eq_and_hash():
    a, b = SetDecl("A", SetRef("B"), 1), SetDecl("A", SetRef("B"), 2)
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    assert SetDecl.line == 0 and SetDecl("A", SetRef("B")).line == 0


def test_cached_properties_stay_out_of_eq_hash_and_repr():
    a, b = FinitePretop(("1", "2"), (1, 3)), FinitePretop(("1", "2"), (1, 3))
    before = repr(a)
    assert a.cols == twin(FinitePretop)(("1", "2"), (1, 3)).cols == (3, 2)
    assert "cols" in vars(a) and "cols" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == before


def test_post_init_runs_after_every_field_is_set(monkeypatch):
    seen = []
    check = GroundSchema.__post_init__

    def spy(self):
        seen.append((self.atoms, self.rays, self.grids))
        check(self)

    monkeypatch.setattr(GroundSchema, "__post_init__", spy)
    GroundSchema(("a",), grids=(("g", NAT, NAT),))
    assert seen == [(("a",), (), (("g", NAT, NAT),))]
    monkeypatch.undo()
    for cls in (GroundSchema, twin(GroundSchema)):
        with pytest.raises(SchemaMismatch, match="duplicate strand name"):
            cls(("a",), (("a", NAT),))


@pytest.mark.parametrize("cls, args, required", CASES, ids=IDS)
def test_assigning_or_deleting_raises_like_the_twin(cls, args, required):
    def errors(obj):
        out = []
        for name in (cls.__record_fields__[0], "not_a_field"):
            with pytest.raises(dataclasses.FrozenInstanceError) as assign:
                setattr(obj, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError) as delete:
                delattr(obj, name)
            out += [str(assign.value), str(delete.value)]
        return out

    assert errors(cls(*args)) == errors(twin(cls)(*args))
