"""Frozen records that follow the dataclasses API without importing it.

A record's fields are its class's ``__slots__``, in order; its explicit
``__init__`` checks the arguments and passes the fields, in that order, to
``_Record.__init__``, which stores them.  Equality, hash and repr go by the
field values in order, as a frozen dataclass's do (but ndarray fields
compare by shape and elements, where a dataclass's equality raises);
assignment and deletion raise AttributeError (not its subclass
``dataclasses.FrozenInstanceError``), and ``__reduce__`` lets copy and
pickle rebuild a record through ``__init__``.

``dataclasses.fields``, ``replace``, ``asdict``, ``astuple`` and
``is_dataclass`` find a dataclass by its ``__dataclass_fields__``.  A record
class builds that mapping on first access only: the fields of a frozen
``dataclasses.make_dataclass`` twin, named after the slots, with the
annotations and defaults of ``__init__``.  So ``dataclasses`` and ``inspect``
load in the process that calls one of those functions, and no other.
``replace`` calls ``__init__``, so a replaced record is checked again.
"""

from __future__ import annotations

from ._format import loaded_numpy


class _DataclassFields:
    """``__dataclass_fields__`` of each record class, built on first access
    and then cached on that class."""

    def __set_name__(self, owner, name):
        self.base = owner

    def __get__(self, instance, owner):
        if owner is self.base:  # the base has no fields and is no dataclass
            raise AttributeError("__dataclass_fields__")
        import dataclasses
        import inspect

        parameters = inspect.signature(owner.__init__).parameters
        spec = []
        for name in owner.__slots__:
            parameter = parameters[name]
            if parameter.default is parameter.empty:
                spec.append((name, parameter.annotation))
            else:
                spec.append((name, parameter.annotation, parameter.default))
        twin = dataclasses.make_dataclass(owner.__name__, spec, frozen=True)
        fields = twin.__dataclass_fields__
        owner.__dataclass_fields__ = fields  # shadows this descriptor from now on
        return fields


def _field_equal(a, b) -> bool:
    """Equality of two fields as a tuple compares its items, but ndarrays are
    equal only when ``np.array_equal`` says so: it compares the shapes
    before ``==``, which raises on shapes that cannot broadcast."""
    if a is b:
        return True
    np = loaded_numpy()  # no ndarray exists before numpy is loaded
    if np is not None and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return bool(a == b)


class _Record:
    """A frozen record whose fields are its class's ``__slots__``, in order."""

    __slots__ = ()

    __dataclass_fields__ = _DataclassFields()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_field_equal(getattr(self, name), getattr(other, name))
                   for name in self.__slots__)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
