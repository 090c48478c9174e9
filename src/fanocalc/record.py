"""The base of the package's value records.

A record lists its fields in ``__slots__``, and this module reads them
from there, once per class and along its bases, so no second field list
exists and a subclass keeps the fields of the record it extends.  Its
records check their arguments in their own ``__init__`` and end it with
one ``_store`` call.
"""


class FrozenRecord:
    """A value record that compares and hashes by its fields and refuses
    assignment and deletion once built.

    Two records are equal when they are of the same class and their fields
    are equal.  A ``"__dict__"`` slot (for ``cached_property`` tables) is
    not a field.  Copy and pickle rebuild a record through its
    ``__init__``, so its checks run again; the default, which restores the
    slots one by one, would meet the assignment guard.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class's own __slots__ name only its own fields: read the bases' too, bases first
        slots = [
            (name, klass.__dict__[name])
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
            if name != "__dict__"
        ]
        cls._names = tuple(name for name, _ in slots)
        # each field's slot setter, bound once per class; it writes past __setattr__
        cls._setters = tuple(slot.__set__ for _, slot in slots)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def _store(self, *values) -> None:
        """Set the fields to ``values``, in the order ``_fields`` reads them."""
        setters = self._setters
        if len(values) != len(setters):
            raise ValueError(f"{type(self).__name__} has {len(setters)} fields, got {len(values)} values")
        for setter, value in zip(setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __hash__(self):
        return hash(self._fields())
