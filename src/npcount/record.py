"""Immutable records: plain classes whose fields are their ``__slots__``.

:class:`Record`'s ``__init__`` sets the fields once, in slot order; assigning
or deleting one raises AttributeError. Records are equal, and hash alike, only
within one class and over :meth:`Record._key` (every field unless the class
narrows it), so a record never equals a tuple or a record of another class.
"""
from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _values

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"
