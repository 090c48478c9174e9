"""The base of the package's value records.

A record lists its fields in ``__slots__``, and this module reads them
from there, once per class and along its bases, so no second field list
exists and a subclass keeps the fields of the record it extends.  Its
records check their arguments in their own ``__init__`` and end it with
one ``_store`` call.
"""

_ABSENT = object()  # the default of a value not passed to _store


def _refuse(record, values: tuple, extra: tuple):
    given = sum(value is not _ABSENT for value in values) + len(extra)
    raise ValueError(f"{type(record).__name__} has {len(values)} fields, got {given} values")


# One factory per arity: each binds a class's slot setters into a _store that
# takes one value per field and makes one setter call for each.  A value not
# passed leaves the last field at its default and a value too many fills the
# tail, so a wrong arity is refused with a ValueError, as a call of the wrong
# arity would otherwise raise a TypeError that names no record.

def _store1(set1):
    def _store(self, v1=_ABSENT, *extra):
        if v1 is _ABSENT or extra:
            _refuse(self, (v1,), extra)
        set1(self, v1)
    return _store


def _store2(set1, set2):
    def _store(self, v1=_ABSENT, v2=_ABSENT, *extra):
        if v2 is _ABSENT or extra:
            _refuse(self, (v1, v2), extra)
        set1(self, v1)
        set2(self, v2)
    return _store


def _store3(set1, set2, set3):
    def _store(self, v1=_ABSENT, v2=_ABSENT, v3=_ABSENT, *extra):
        if v3 is _ABSENT or extra:
            _refuse(self, (v1, v2, v3), extra)
        set1(self, v1)
        set2(self, v2)
        set3(self, v3)
    return _store


def _store4(set1, set2, set3, set4):
    def _store(self, v1=_ABSENT, v2=_ABSENT, v3=_ABSENT, v4=_ABSENT, *extra):
        if v4 is _ABSENT or extra:
            _refuse(self, (v1, v2, v3, v4), extra)
        set1(self, v1)
        set2(self, v2)
        set3(self, v3)
        set4(self, v4)
    return _store


def _store5(set1, set2, set3, set4, set5):
    def _store(self, v1=_ABSENT, v2=_ABSENT, v3=_ABSENT, v4=_ABSENT, v5=_ABSENT, *extra):
        if v5 is _ABSENT or extra:
            _refuse(self, (v1, v2, v3, v4, v5), extra)
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

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __hash__(self):
        return hash(self._fields())
