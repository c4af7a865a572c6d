"""Immutable value records whose behaviour follows from ``__slots__``, and the one work-cap refusal,
here because every module that caps a count imports this one."""


def _refuse(count: int, cap: int, what: str, unit: str) -> None:
    """ValueError naming what, the count written exactly, its unit and the cap, where count passes cap."""
    if count > cap:
        raise ValueError(f"{what} {count:,} {unit}, past the cap of {cap:,}")


class Record:
    """A frozen field tuple: a subclass lists its fields in ``__slots__`` and
    its ``__init__`` passes their values, in that order, to :meth:`_set`.

    repr (``Name(field=value, ...)``), == and hash follow the field tuple, as
    for a frozen data class; assigning or deleting raises AttributeError; and
    unpickling calls the constructor, so its checks run again.

    ``_set`` calls each field's slot-descriptor setter, taken once per class
    into ``_setters`` in field order.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
