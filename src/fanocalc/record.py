"""The frozen base of the package's value records.

A record lists its fields in ``__slots__`` and sets them in its own
``__init__`` through ``object.__setattr__``; this base supplies the rest,
read from the class's own ``__slots__``, so no second field list exists.
"""


class FrozenRecord:
    """A value record that refuses assignment and deletion once built.

    Records compare equal when they are of the same class and their fields
    are equal, and hash by their fields.  Copy and pickle rebuild a record
    through its ``__init__``, so its checks run again; the default, which
    restores the slots one by one, would meet the assignment guard.  A
    ``"__dict__"`` slot (for ``cached_property`` tables) is not a field.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name != "__dict__"])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())
