"""The base of the package's value types: equality, hash and repr over a field tuple.

A subclass names its fields in `_fields` (and in `__slots__`, plus
"__dict__" where a `cached_property` stores its table) and writes its own
`__init__`, which stores each field with `object.__setattr__`.  Instances
refuse assignment and deletion; a mutable subclass restores
`object.__setattr__` and `object.__delattr__` and sets `__hash__` to None.
"""


def _rebuild(cls, values):
    """An instance of `cls` holding `values` in its fields, without running `__init__`."""
    self = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(self, name, value)
    return self


class Value:
    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the fields as they are, and any tables a cached_property stored
        return _rebuild, (type(self), self._values()), getattr(self, "__dict__", None)
