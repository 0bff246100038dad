"""Immutable records, without the import cost of :mod:`dataclasses`.

A subclass of :class:`Record` lists its fields as class annotations, in
order, as a frozen dataclass would.  It gets an ``__init__`` that takes
the fields by position or keyword (``TypeError`` for a missing or
unknown one) and then calls ``__post_init__``, a field-by-field
``repr``, equality with records of the same class only, the hash of the
field tuple, and ``AttributeError`` on assignment and deletion.  Pickle
and copy restore the instance dictionary without calling ``__init__``.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base class of the package's immutable report and spec records."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        state = vars(self)
        for key in fields:
            state[key] = values[key]
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate or normalise the fields; set them with ``object.__setattr__``."""

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __repr__(self) -> str:
        body = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot assign {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot delete {key!r}")
