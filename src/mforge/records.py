"""Plain result records, and the corpus caps the command line builds.

A record subclass names its fields, in order, in __slots__ and the defaults
of its trailing fields in _defaults; a default that is a type (list, dict,
frozenset) is called once per instance, so no mutable default is shared.
Records compare field by field with records of their own class and print
as Name(field=value, ...).  Every record refuses assignment after
construction and hashes by its field values, so a record with a list or
dict field is unhashable.

This module imports nothing, so every command can build caps and reports
without loading the modules that compute them.
"""


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments, got {len(args)}")
        values = dict(zip(names, args))
        for key, val in kwargs.items():
            if key not in names:
                raise TypeError(f"{cls}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{cls}() got multiple values for argument {key!r}")
            values[key] = val
        for name in names:
            if name in values:
                val = values[name]
            elif name in self._defaults:
                val = self._defaults[name]
                if isinstance(val, type):
                    val = val()
            else:
                raise TypeError(f"{cls}() missing required argument {name!r}")
            object.__setattr__(self, name, val)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class CorpusCaps(Record):
    """Size caps on the generated corpus: members above either are left out."""

    __slots__ = ("max_ground", "max_rank")
    _defaults = {"max_ground": 64, "max_rank": 8}
