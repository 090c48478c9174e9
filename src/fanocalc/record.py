"""The base of the package's value records.

A record lists its fields in ``__slots__``, and this module reads them
from there, once per class and along its bases, so no second field list
exists and a subclass keeps the fields of the record it extends.  Its
records check their arguments in their own ``__init__`` and end it with
one ``_store`` call, which takes one value per field in slot order and
refuses a wrong number of values before it sets any field.
"""

from operator import attrgetter


class FrozenRecord:
    """A value record that compares and hashes by its fields and refuses
    assignment and deletion once built.

    Two records are equal when they are of the same class and their fields
    are equal.  A ``"__dict__"`` slot (for ``cached_property`` tables) is
    not a field.  A record has at least one field; a class with none is
    refused when it is defined.  Copy and pickle rebuild a record through
    its ``__init__``, so its checks run again; the default, which restores
    the slots one by one, would meet the assignment guard.
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
        if not slots:
            raise TypeError(f"{cls.__name__} has 0 fields; a record has at least 1")
        cls._names = tuple(name for name, _ in slots)
        # each field's place among the values and its slot setter, read once
        # per class; a setter writes past __setattr__.  Indexing the values
        # from these pairs takes about a third less time per call than a zip
        # of setters and values (Python 3.11.7).
        setters = tuple(enumerate(slot.__set__ for _, slot in slots))
        count = len(setters)

        def _store(self, *values):
            if len(values) != count:
                raise TypeError(f"{cls.__name__}._store() takes {count} values, got {len(values)}")
            for index, setter in setters:
                setter(self, values[index])

        cls._store = _store
        # every field read in C, for __eq__ and __hash__: a tuple of them, or a
        # one-field class's bare value; __eq__ compares records of one class only
        cls._fields = attrgetter(*cls._names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a tuple of arguments even for one field, which _fields returns bare
        return type(self), tuple([getattr(self, name) for name in self._names])

    def __hash__(self):
        return hash(self._fields(self))
