"""Base class of the package's immutable value records."""

_set = object.__setattr__


class Record:
    """Immutable record over ``__slots__``: its fields compare, hash and
    print as a tuple, equal only to records of the same class, and cannot
    be assigned.  A subclass names its fields in ``__slots__``, in the order
    of its constructor's arguments, and sets them in its own ``__init__``
    through ``_set`` (``object.__setattr__``)."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__
