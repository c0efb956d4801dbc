"""Frozen value classes: the part of ``@dataclass(frozen=True)`` the package uses.

``@record`` reads the class's annotated fields and their defaults and
builds ``__init__``, ``__eq__`` and ``__hash__`` with the code shapes
``dataclasses`` generates: ``__init__`` stores each field through the
instance dict, one write per field, and then calls ``__post_init__``
when the class has one; ``__eq__`` compares the tuples of compared
fields of two instances of the same class; ``__hash__`` hashes that
tuple.  ``__repr__``, ``__setattr__`` and ``__delattr__`` are shared
functions, compiled once.  A field declared ``field(default=...,
compare=False)`` is left out of ``__eq__`` and ``__hash__``.  Assigning
or deleting an attribute raises ``dataclasses.FrozenInstanceError``,
imported only then.

The three methods are compiled once per shape, not once per class: a
shape is the number of fields, the number of compared fields and
whether the class has ``__post_init__``.  One ``exec`` per shape
compiles the methods over placeholder names ``_f0_``, ``_f1_``, ...;
each class then renames the placeholders in the cached code objects
(``code.replace``) and passes its defaults to ``FunctionType``, so every
class runs the bytecode a one-off ``exec`` of its own source would give
(only the column offsets in the line table differ).
The 42 classes ``pretop.cli`` loads fall into 11 shapes.

``dataclasses`` itself builds six functions per class with six
``exec`` calls and imports ``inspect``; for the classes ``pretop.cli``
loads that was most of its import time.  One ``exec`` per class still
took about a third of it; with one per shape (and ``json`` loaded only
for a JSON report) ``import pretop.cli`` went from about 27 to 21 ms
(``-X importtime``, bytecode cached, median of 21 interleaved runs on a
2-CPU host, Python 3.11).
"""

import builtins
from functools import lru_cache
from types import FunctionType

_MISSING = object()
# names the generated methods use themselves; a field may not take one
_RESERVED = ("self", "__d__")


class field:
    """``name: T = field(default=..., compare=False)`` leaves a field out of eq and hash."""

    def __init__(self, *, default, compare=True):
        self.default, self.compare = default, compare


def _repr(self):
    args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{self.__class__.__qualname__}({args})"


def _frozen(verb, name):
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {verb} field {name!r}")


def _setattr(self, name, value):
    raise _frozen("assign to", name)


def _delattr(self, name):
    raise _frozen("delete", name)


def _placeholders(count: int) -> list:
    return [f"_f{i}_" for i in range(count)]


@lru_cache(maxsize=None)
def _shape(fields: int, compared: int, post_init: bool) -> tuple:
    """The code objects of ``__init__``, ``__eq__`` and ``__hash__`` for one
    shape, over placeholder field names.  Defaults are evaluated by the
    function object, not its code, so the shape leaves them out."""
    names = _placeholders(fields)
    body = ["__d__=self.__dict__", *(f"__d__[{name!r}]={name}" for name in names)]
    if post_init:
        body.append("self.__post_init__()")
    mine = "(" + "".join(f"self.{name}," for name in _placeholders(compared)) + ")"
    theirs = "(" + "".join(f"other.{name}," for name in _placeholders(compared)) + ")"
    env = {}
    exec(
        "def __create__():\n"
        f" def __init__(self,{','.join(names)}):\n  "
        + "\n  ".join(body)
        + "\n def __eq__(self,other):\n"
        f"  if other.__class__ is self.__class__:\n   return {mine}=={theirs}\n"
        "  return NotImplemented\n"
        f" def __hash__(self):\n  return hash({mine})\n"
        " return __init__,__eq__,__hash__\n",
        env,
    )
    return tuple(fn.__code__ for fn in env["__create__"]())


def _rename(code, names):
    """``code`` with the placeholders ``_f0_``, ``_f1_``, ... renamed to ``names``."""
    real = dict(zip(_placeholders(len(names)), names))
    return code.replace(
        co_varnames=tuple(real.get(name, name) for name in code.co_varnames),
        co_names=tuple(real.get(name, name) for name in code.co_names),
        co_consts=tuple(real.get(c, c) if isinstance(c, str) else c for c in code.co_consts),
    )


def record(cls):
    """Make ``cls`` a frozen value class over its annotated fields."""
    names, compared, defaults = [], [], []
    for name in cls.__dict__.get("__annotations__", {}):
        default = cls.__dict__.get(name, _MISSING)
        compare = True
        if isinstance(default, field):
            default, compare = default.default, default.compare
            setattr(cls, name, default)
        if name in _RESERVED:
            raise TypeError(f"{cls.__qualname__}: a field may not be named {name!r}")
        if default is not _MISSING:
            defaults.append(default)
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        names.append(name)
        if compare:
            compared.append(name)
    init, eq, hash_ = _shape(len(names), len(compared), hasattr(cls, "__post_init__"))
    env = {"__name__": cls.__module__, "__builtins__": builtins.__dict__}
    for code, fn_names, argdefs in (
        (init, names, tuple(defaults) or None),
        (eq, compared, None),
        (hash_, compared, None),
    ):
        fn = FunctionType(_rename(code, fn_names), env, code.co_name, argdefs)
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__record_fields__ = tuple(names)
    cls.__record_compared__ = tuple(compared)
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
