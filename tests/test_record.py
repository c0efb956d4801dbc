"""``record`` against its stdlib twin and against one ``exec`` per class.

Each case rebuilds a real value class with ``dataclasses.dataclass(frozen=True)``
over the same class body (methods, properties, ``__post_init__``, and the
fields with their defaults and compare flags) and checks that the two agree on
construction, ``repr``, equality, hashing and frozenness.  Every value class of
the package is also checked to run the bytecode that a one-off ``exec`` of its
own generated source gives, though ``record`` compiles once per shape.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import pretop

from pretop.defsets import GroundSchema
from pretop.errors import SchemaMismatch
from pretop.finite import FinitePretop, Verdict
from pretop.intervals import AxisDomain
from pretop.model import SetDecl, SetRef
from pretop.record import record
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


# -- compiled once per shape ----------------------------------------------------


def _record_classes():
    found = []
    for info in pkgutil.walk_packages(pretop.__path__, "pretop."):
        module = importlib.import_module(info.name)
        found += [
            v
            for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == info.name and "__record_fields__" in vars(v)
        ]
    return found


RECORDS = _record_classes()


def exec_reference(cls):
    """``__init__``, ``__eq__`` and ``__hash__`` of ``cls`` from one ``exec`` of
    the source ``record`` generated for each class before it compiled per shape."""
    names, compared = cls.__record_fields__, cls.__record_compared__
    params, defaults = [], {}
    for name in names:
        if name in vars(cls):
            defaults[f"__dflt_{name}__"] = vars(cls)[name]
            params.append(f"{name}=__dflt_{name}__")
        else:
            params.append(name)
    body = ["__d__=self.__dict__", *(f"__d__[{name!r}]={name}" for name in names)]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "(" + "".join(f"self.{name}," for name in compared) + ")"
    theirs = "(" + "".join(f"other.{name}," for name in compared) + ")"
    env = {"__name__": cls.__module__}
    exec(
        f"def __create__({','.join(defaults)}):\n"
        f" def __init__(self,{','.join(params)}):\n  "
        + "\n  ".join(body)
        + "\n def __eq__(self,other):\n"
        f"  if other.__class__ is self.__class__:\n   return {mine}=={theirs}\n"
        "  return NotImplemented\n"
        f" def __hash__(self):\n  return hash({mine})\n"
        " return __init__,__eq__,__hash__\n",
        env,
    )
    return env["__create__"](**defaults)


def test_every_value_class_is_found():
    assert len(RECORDS) == 42
    assert {FinitePretop, GroundSchema, SetDecl, SymbolicPretop, Verdict} <= set(RECORDS)


def _bare(sig):
    # record's methods carry no annotations; the twin's do
    return sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=sig.empty,
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_signature_matches_the_twin(cls):
    assert _bare(inspect.signature(cls)) == _bare(inspect.signature(twin(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_methods_run_the_bytecode_of_one_exec_per_class(cls):
    for ref in exec_reference(cls):
        fn = vars(cls)[ref.__name__]
        for attr in ("co_code", "co_varnames", "co_names", "co_consts"):
            assert getattr(fn.__code__, attr) == getattr(ref.__code__, attr), (ref.__name__, attr)
        assert fn.__defaults__ == ref.__defaults__, ref.__name__
        assert fn.__globals__["__builtins__"] is ref.__globals__["__builtins__"]
        assert fn.__module__ == ref.__module__ == cls.__module__


def test_a_required_field_after_a_default_raises_at_decoration():
    # exec raised a SyntaxError here; the defaults tuple alone would bind
    # the default to the wrong parameter
    class Late:
        a: int = 0
        b: int

    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
        record(Late)
    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
        dataclasses.dataclass(frozen=True)(Late)


@pytest.mark.parametrize("name", ["self", "__d__"])
def test_a_field_may_not_take_a_name_the_methods_use(name):
    cls = type("Clash", (), {"__annotations__": {"a": int, name: int}})
    with pytest.raises(TypeError, match=f"may not be named {name!r}"):
        record(cls)
