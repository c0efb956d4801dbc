"""Frozen value classes: the part of ``@dataclass(frozen=True)`` the package uses.

``@record`` reads the class's annotated fields and their defaults and
compiles ``__init__``, ``__eq__`` and ``__hash__`` in one ``exec`` per
class: ``__init__`` stores each field through the instance dict, one
write per field, and then calls ``__post_init__`` when the class has
one; ``__eq__`` compares the tuples of compared fields of two instances
of the same class; ``__hash__`` hashes that tuple.  ``__repr__``,
``__setattr__`` and ``__delattr__`` are shared functions, compiled once.
A field declared ``field(default=..., compare=False)`` is left out of
``__eq__`` and ``__hash__``.  Assigning or deleting an attribute raises
``dataclasses.FrozenInstanceError``, imported only then.

``dataclasses`` itself builds six functions per class with six
``exec`` calls and imports ``inspect``; for the classes ``pretop.cli``
loads that was most of its import time.
"""

_MISSING = object()


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


def record(cls):
    """Make ``cls`` a frozen value class over its annotated fields."""
    names, params, compared, defaults = [], [], [], {}
    for name in cls.__dict__.get("__annotations__", {}):
        default = cls.__dict__.get(name, _MISSING)
        compare = True
        if isinstance(default, field):
            default, compare = default.default, default.compare
            setattr(cls, name, default)
        names.append(name)
        if default is _MISSING:
            params.append(name)
        else:
            defaults[f"__dflt_{name}__"] = default
            params.append(f"{name}=__dflt_{name}__")
        if compare:
            compared.append(name)
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
    for fn in env["__create__"](**defaults):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__record_fields__ = tuple(names)
    cls.__record_compared__ = tuple(compared)
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
