"""``record`` against its stdlib twin and against one ``exec`` per class.

Each case rebuilds a real value class with ``dataclasses.dataclass(frozen=True)``
over the same class body (methods, properties, lazy values, a class-defined
``__hash__``, ``__post_init__``, and the fields with their defaults and compare
flags) and checks that the two agree on construction, ``repr``, equality,
hashing and frozenness.  Every value class of the package is also checked to
run the bytecode that a one-off ``exec`` of its own generated source gives,
though ``record`` compiles once per shape.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import pretop

from pretop.defsets import GroundSchema
from pretop.errors import SchemaMismatch
from pretop.finite import FinitePretop, Verdict
from pretop.intervals import AxisDomain
from pretop.model import SetDecl, SetRef
from pretop.record import lazy, record
from pretop.symbolic.space import SymbolicPretop

GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
             "__record_fields__", "__record_compared__", "__dict__", "__weakref__"}


def _generated(fn) -> bool:
    return fn.__code__.co_filename == "<string>"


def twin(cls):
    """``cls`` rebuilt as a stdlib frozen dataclass; a ``__hash__`` the
    class body defines goes with it."""
    ns = {k: v for k, v in cls.__dict__.items() if k not in GENERATED}
    if not _generated(cls.__hash__):
        ns["__hash__"] = cls.__hash__
    for name in cls.__record_fields__:
        if name not in cls.__record_compared__:
            ns[name] = dataclasses.field(default=ns[name], compare=False)
    built = type(cls.__name__, (), ns)
    built.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(built)


NAT = AxisDomain("nat")
SCHEMA = GroundSchema((("a", ()), ("r", (NAT,)), ("g", (NAT, AxisDomain("int")))))


# The field layout of ``GroundSchema`` before it held one strand list:
# three fields, each defaulting to (), and a ``__post_init__`` that checks
# the strand names.  No value class of the package keeps it, so this
# stands in for it as a case of the checks below.
@record
class KindSchema:
    atoms: tuple = ()
    rays: tuple = ()
    grids: tuple = ()

    def __post_init__(self):
        names = [*self.atoms, *(ray[0] for ray in self.rays), *(grid[0] for grid in self.grids)]
        if len(names) != len(set(names)):
            raise SchemaMismatch("duplicate strand name in schema")


# (class, a full positional argument list, the number of required fields)
CASES = [
    (Verdict, (False, ("1", "2")), 1),
    (FinitePretop, (("1", "2"), (1, 3)), 2),
    (SetDecl, ("A", SetRef("B"), 7), 2),
    (GroundSchema, (SCHEMA.strands,), 0),
    (KindSchema, (("a",), (("r", NAT),), (("g", NAT, AxisDomain("int")),)), 0),
    (SymbolicPretop, (SCHEMA, (), True, None, "S"), 2),
]
IDS = [c[0].__name__ for c in CASES]
# a first field unlike every case's; "x" cannot be a strand list
OTHER_FIRST = {GroundSchema: (("x", ()),)}


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
    changed = cls(OTHER_FIRST.get(cls, "x"), *args[1:])
    assert a != changed and not a == changed


def test_an_uncompared_field_is_left_out_of_eq_and_hash():
    a, b = SetDecl("A", SetRef("B"), 1), SetDecl("A", SetRef("B"), 2)
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    assert SetDecl.line == 0 and SetDecl("A", SetRef("B")).line == 0


def test_cached_properties_stay_out_of_eq_hash_and_repr():
    # the derived values of a space are lazy attributes
    a, b = FinitePretop(("1", "2"), (1, 3)), FinitePretop(("1", "2"), (1, 3))
    before = repr(a)
    assert a.cols == twin(FinitePretop)(("1", "2"), (1, 3)).cols == (3, 2)
    assert "cols" in vars(a) and "cols" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == before


@record
class Counted:
    """One field and a lazy value that counts its computations."""

    a: int

    @lazy
    def double(self) -> int:
        CALLS.append(self.a)
        return 2 * self.a


CALLS = []


def test_a_lazy_value_is_computed_once_and_stays_out_of_eq_hash_and_repr():
    CALLS.clear()
    a, b = Counted(3), Counted(3)
    assert a.double == a.double == 6 and CALLS == [3]
    assert isinstance(Counted.double, lazy) and "double" not in Counted.__record_fields__
    assert a == b and hash(a) == hash(b) == hash((3,)) and repr(a) == repr(b) == "Counted(a=3)"
    assert b.double == 6 and CALLS == [3, 3]
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.double = 7


def test_a_lazy_value_survives_a_pickle_round_trip():
    CALLS.clear()
    for computed in (False, True):
        a = Counted(4)
        if computed:
            assert a.double == 8
        back = pickle.loads(pickle.dumps(a))
        assert back == a and back.double == 8 and repr(back) == "Counted(a=4)"
    assert CALLS == [4, 4]  # the pickled value is carried, the unread one computed


def test_a_class_defined_hash_stays_like_the_twin():
    class Own:
        a: int

        def __hash__(self):
            return 7

    class EqOnly:  # Python sets __hash__ = None in a body that defines __eq__
        a: int

        def __eq__(self, other):
            return NotImplemented

    for body, expected in ((Own, 7), (EqOnly, hash((1,)))):
        ns = {k: v for k, v in vars(body).items() if k not in ("__dict__", "__weakref__")}
        std = dataclasses.dataclass(frozen=True)(type(body.__name__, (), ns))
        assert hash(record(body)(1)) == hash(std(1)) == expected


def test_the_schema_keeps_its_hash_but_no_pickle_carries_it():
    schema = GroundSchema(SCHEMA.strands)
    assert hash(schema) == hash((schema.strands,))
    assert vars(schema)["_hash"] == hash(schema)
    back = pickle.loads(pickle.dumps(schema))
    assert back == schema and "_hash" not in vars(back) and hash(back) == hash(schema)


def test_post_init_runs_after_every_field_is_set(monkeypatch):
    seen = []
    check = KindSchema.__post_init__

    def spy(self):
        seen.append((self.atoms, self.rays, self.grids))
        check(self)

    monkeypatch.setattr(KindSchema, "__post_init__", spy)
    KindSchema(("a",), grids=(("g", NAT, NAT),))
    assert seen == [(("a",), (), (("g", NAT, NAT),))]
    monkeypatch.undo()
    for cls in (KindSchema, twin(KindSchema)):
        with pytest.raises(SchemaMismatch, match="duplicate strand name"):
            cls(("a",), (("a", NAT),))
    for cls in (GroundSchema, twin(GroundSchema)):
        with pytest.raises(SchemaMismatch, match="duplicate strand name"):
            cls((("a", ()), ("a", (NAT,))))


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


# The field layouts of the three strand-term classes the model language had
# before ``StrandTerm``: one required field, then none, one or two fields
# defaulting to None.  No value class of the package keeps the last two, so
# these stand in for them as cases of the two per-class checks below.
@record
class AtomTerm:
    name: str


@record
class RayTerm:
    name: str
    parts: tuple | None = None


@record
class GridTerm:
    name: str
    rows: tuple | None = None
    cols: tuple | None = None


# The field layouts of ``PointPattern`` and ``EndClass`` before they held one
# selector or side per axis: two required fields, then two defaulting to
# None, and three required, then two defaulting to None.  No value class of
# the package keeps either, so these too stand in as cases of the checks below.
@record
class KindPattern:
    strand: str
    kind: str
    rows: tuple | None = None
    cols: tuple | None = None


@record
class KindEnd:
    strand: str
    kind: str
    row: str
    col: str | None = None
    fixed: int | None = None


LAYOUTS = RECORDS + [AtomTerm, RayTerm, GridTerm, KindPattern, KindEnd, KindSchema]


def exec_reference(cls):
    """The methods ``record`` generates for ``cls`` (``__init__``, ``__eq__``,
    and ``__hash__`` unless the class defines its own) from one ``exec`` of
    the source ``record`` generated for each class before it compiled per
    shape."""
    names, compared = cls.__record_fields__, cls.__record_compared__
    params, defaults = [], {}
    for name in names:
        if name in vars(cls):
            defaults[f"__dflt_{name}__"] = vars(cls)[name]
            params.append(f"{name}=__dflt_{name}__")
        else:
            params.append(name)
    body = [f"__setfield__(self,{name!r},{name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "(" + "".join(f"self.{name}," for name in compared) + ")"
    theirs = "(" + "".join(f"other.{name}," for name in compared) + ")"
    env = {"__name__": cls.__module__}
    exec(
        f"def __create__({','.join(['__setfield__', *defaults])}):\n"
        f" def __init__(self,{','.join(params)}):\n  "
        + "\n  ".join(body)
        + "\n def __eq__(self,other):\n"
        f"  if other.__class__ is self.__class__:\n   return {mine}=={theirs}\n"
        "  return NotImplemented\n"
        f" def __hash__(self):\n  return hash({mine})\n"
        " return __init__,__eq__,__hash__\n",
        env,
    )
    methods = env["__create__"](object.__setattr__, **defaults)
    return methods if _generated(cls.__hash__) else methods[:2]


def test_every_value_class_is_found():
    assert len(RECORDS) == 35
    assert {FinitePretop, GroundSchema, SetDecl, SymbolicPretop, Verdict} <= set(RECORDS)


def _bare(sig):
    # record's methods carry no annotations; the twin's do
    return sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=sig.empty,
    )


@pytest.mark.parametrize("cls", LAYOUTS, ids=lambda c: c.__qualname__)
def test_signature_matches_the_twin(cls):
    assert _bare(inspect.signature(cls)) == _bare(inspect.signature(twin(cls)))


@pytest.mark.parametrize("cls", LAYOUTS, ids=lambda c: c.__qualname__)
def test_methods_run_the_bytecode_of_one_exec_per_class(cls):
    for ref in exec_reference(cls):
        fn = vars(cls)[ref.__name__]
        for attr in ("co_code", "co_varnames", "co_names", "co_consts", "co_freevars"):
            assert getattr(fn.__code__, attr) == getattr(ref.__code__, attr), (ref.__name__, attr)
        assert fn.__defaults__ == ref.__defaults__, ref.__name__
        cells = [c.cell_contents for c in fn.__closure__ or ()]
        assert cells == [c.cell_contents for c in ref.__closure__ or ()], ref.__name__
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


@pytest.mark.parametrize("name", ["self", "__setfield__"])
def test_a_field_may_not_take_a_name_the_methods_use(name):
    cls = type("Clash", (), {"__annotations__": {"a": int, name: int}})
    with pytest.raises(TypeError, match=f"may not be named {name!r}"):
        record(cls)
