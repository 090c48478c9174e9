"""The base of the package's value records.

A record lists its fields in ``__slots__``, and this module reads them
from there, once per class and along its bases, so no second field list
exists and a subclass keeps the fields of the record it extends.  Its
records check their arguments in their own ``__init__`` and end it with
one ``_store`` call.
"""

from operator import attrgetter

# One factory per arity: each binds a class's slot setters into a _store that
# takes one value per field and makes one setter call for each; a call with
# a wrong number of values is Python's own TypeError.  One generic loop over
# the setters in their place made the warm paper-suite pass 3.5 % slower,
# and 8.8 % slower than with the per-node value memo the syntax tree used to
# hold, every pair slower and one by 12.7 %: too near warm_s's 10 % bound to
# delete (medians of 10 alternating bench pairs, Python 3.11.7, 2 vCPUs).

def _store1(set1):
    def _store(self, v1):
        set1(self, v1)
    return _store


def _store2(set1, set2):
    def _store(self, v1, v2):
        set1(self, v1)
        set2(self, v2)
    return _store


def _store3(set1, set2, set3):
    def _store(self, v1, v2, v3):
        set1(self, v1)
        set2(self, v2)
        set3(self, v3)
    return _store


def _store4(set1, set2, set3, set4):
    def _store(self, v1, v2, v3, v4):
        set1(self, v1)
        set2(self, v2)
        set3(self, v3)
        set4(self, v4)
    return _store


def _store5(set1, set2, set3, set4, set5):
    def _store(self, v1, v2, v3, v4, v5):
        set1(self, v1)
        set2(self, v2)
        set3(self, v3)
        set4(self, v4)
        set5(self, v5)
    return _store


_STORES = (_store1, _store2, _store3, _store4, _store5)


class FrozenRecord:
    """A value record that compares and hashes by its fields and refuses
    assignment and deletion once built.

    Two records are equal when they are of the same class and their fields
    are equal.  A ``"__dict__"`` slot (for ``cached_property`` tables) is
    not a field.  A record has one to five fields; a class with more is
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
        if not 1 <= len(slots) <= len(_STORES):
            raise TypeError(f"{cls.__name__} has {len(slots)} fields; a record has 1 to {len(_STORES)}")
        cls._names = tuple(name for name, _ in slots)
        # a _store over each field's slot setter, bound once per class; a setter writes past __setattr__
        cls._store = _STORES[len(slots) - 1](*(slot.__set__ for _, slot in slots))
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
