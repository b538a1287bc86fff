"""The frozen records: `record` in place of `@dataclass(frozen=True)`.

`dataclasses.dataclass` writes the methods it adds as source text and
compiles each with `exec`, class by class: for the package's 18 records, 92
compilations, most of the time `import zdtrade` would take.  `record` lets
`dataclass` compute the fields and add nothing else, then installs the
methods below, written once and shared by every record:

* `__init__` sets each field with `object.__setattr__` and calls
  `__post_init__`.  A call that is not one positional argument per field
  is bound by the class's `__signature__`, which fills the defaults; a
  missing, unknown, doubled or extra argument is a `TypeError` naming the
  class.
* `__repr__` prints `Name(field=value, ...)`.
* `__setattr__` and `__delattr__` raise `dataclasses.FrozenInstanceError`.
* `__eq__` and `__hash__` compare and hash the tuple of field values, as
  `@dataclass(frozen=True)` does, but a float NaN, also in a tuple field,
  equals a NaN and hashes like one.  `record(eq=False)` keeps object
  identity instead, for records of arrays, which cannot be compared or
  hashed as values.

Each class stays a dataclass (`fields`, `replace`, `asdict`,
`__match_args__`), and `inspect.signature(cls)` is its field list.
"""

import dataclasses
import inspect
import math
import operator
from dataclasses import FrozenInstanceError

_set = object.__setattr__


class _Spec:
    """What the shared methods need to know of one record class, computed
    once when the class is decorated."""

    __slots__ = ("names", "post_init", "values")

    def __init__(self, cls, fields):
        self.names = tuple(f.name for f in fields)
        self.post_init = getattr(cls, "__post_init__", None)
        self.values = operator.attrgetter(*self.names)


def record(cls=None, /, *, eq=True):
    """Make `cls` a frozen dataclass, compared by value unless `eq` is
    False."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    cls._record = _Spec(cls, fields)
    cls.__signature__ = inspect.Signature(
        [inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                           annotation=f.type,
                           default=(inspect.Parameter.empty
                                    if f.default is dataclasses.MISSING
                                    else f.default))
         for f in fields],
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
    cls = type(self)
    spec = cls._record
    if kwargs or len(args) != len(spec.names):
        try:
            bound = cls.__signature__.bind(*args, **kwargs)
        except TypeError as error:
            raise TypeError(f"{cls.__qualname__}() {error}") from None
        bound.apply_defaults()
        args = bound.args
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


def _key(value):
    """`value` with every float NaN, also in a tuple, made the one object
    `math.nan`: tuples compare items by identity first."""
    if type(value) is tuple:
        return tuple(map(_key, value))
    return math.nan if isinstance(value, float) and value != value else value


def _eq(self, other):
    if other.__class__ is self.__class__:
        values = type(self)._record.values
        return _key(values(self)) == _key(values(other))
    return NotImplemented


def _hash(self) -> int:
    return hash(_key(type(self)._record.values(self)))
