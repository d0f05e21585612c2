"""Value records: the base of the package's parameter, piece and result types.

A record class declares ``__slots__`` and ``_fields`` (its field names in
``__init__`` order) and writes an ``__init__`` that validates, then assigns
each field through ``setfield``. The base gives ==, hash and repr over the
field values (a record holding a list or a dict is unhashable, as a tuple
holding one is), and copy, deepcopy and pickle that rebuild through ``__init__``,
so what an ``__init__`` caches outside the fields is computed afresh.
"""

setfield = object.__setattr__  # assigns a field of a frozen record from its __init__


class Record:
    """An immutable value; assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

