"""The frozen records: `record` in place of `@dataclass(frozen=True)`.

`dataclasses.dataclass` writes the methods it adds as source text and
compiles each with `exec`, class by class: for the package's 18 records, 92
compilations, most of the time `import zdtrade` would take.  `record` lets
`dataclass` compute the fields and add nothing else, then installs the
methods below, written once and shared by every record:

* `__init__` binds positional and keyword arguments in field order, fills
  the defaults, sets each field with `object.__setattr__` and calls
  `__post_init__`; a missing, unknown or extra argument is a `TypeError`.
* `__repr__` prints `Name(field=value, ...)`.
* `__setattr__` and `__delattr__` raise `dataclasses.FrozenInstanceError`.
* `__eq__` and `__hash__` compare and hash the tuple of field values, as
  `@dataclass(frozen=True)` does.  `record(eq=False)` keeps object
  identity instead, for records of arrays, which cannot be compared or
  hashed as values.

Each class stays a dataclass (`fields`, `replace`, `asdict`,
`__match_args__`), and `inspect.signature(cls)` is its field list.
"""

import dataclasses
import inspect
import operator
from dataclasses import FrozenInstanceError

_set = object.__setattr__
_REQUIRED = object()     # the default of a field that has none


class _Spec:
    """What the shared methods need to know of one record class, computed
    once when the class is decorated."""

    __slots__ = ("cls", "names", "index", "template", "required", "post_init",
                 "values")

    def __init__(self, cls, fields):
        self.cls = cls
        self.names = tuple(f.name for f in fields)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.template = tuple(_REQUIRED if f.default is dataclasses.MISSING
                              else f.default for f in fields)
        # a field without a default never follows one (the signature checks)
        self.required = self.template.count(_REQUIRED)
        self.post_init = getattr(cls, "__post_init__", None)
        self.values = operator.attrgetter(*self.names)

    def bind(self, args, kwargs) -> list:
        """The field values of the call `cls(*args, **kwargs)`, in field
        order, or a TypeError naming what is wrong with the call."""
        n = len(args)
        if n > len(self.names):
            self._refuse(f"takes {len(self.names)} positional arguments "
                         f"but {n} were given")
        values = [*args, *self.template[n:]]
        given = n
        for name, value in kwargs.items():
            i = self.index.get(name)
            if i is None:
                self._refuse(f"got an unexpected keyword argument {name!r}")
            if i < n:
                self._refuse(f"got multiple values for argument {name!r}")
            values[i] = value
            given += i < self.required
        if given < self.required:
            self._refuse("missing required arguments: " + ", ".join(
                repr(name) for name, value in zip(self.names, values)
                if value is _REQUIRED))
        return values

    def _refuse(self, problem: str):
        raise TypeError(f"{self.cls.__qualname__}() {problem}")


def record(cls=None, /, *, eq=True):
    """Make `cls` a frozen dataclass, compared by value unless `eq` is
    False."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    spec = cls._record = _Spec(cls, fields)
    cls.__signature__ = inspect.Signature(
        [inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                           annotation=f.type,
                           default=(inspect.Parameter.empty
                                    if default is _REQUIRED else default))
         for name, f, default in zip(spec.names, fields, spec.template)],
        return_annotation=None)
    params = cls.__dataclass_params__
    params.init = params.repr = params.frozen = True
    params.eq = eq
    cls.__init__ = _init
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    if eq:
        cls.__eq__ = _eq
        cls.__hash__ = _hash
    return cls


def _init(self, *args, **kwargs):
    spec = type(self)._record
    if kwargs or len(args) != len(spec.names):
        args = spec.bind(args, kwargs)
    for name, value in zip(spec.names, args):
        _set(self, name, value)
    if spec.post_init is not None:
        spec.post_init(self)


def _repr(self) -> str:
    return (f"{type(self).__qualname__}("
            + ", ".join([f"{name}={getattr(self, name)!r}"
                         for name in type(self)._record.names]) + ")")


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        values = type(self)._record.values
        return values(self) == values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(type(self)._record.values(self))
