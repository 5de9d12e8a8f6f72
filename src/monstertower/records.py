"""Base class of the package's immutable value records.

A record is one tuple allocation.  A subclass names its fields in
``_fields`` and declares ``__slots__ = ()``; ``Record.__new__`` builds it
from its field values, by position and in that order.  Only a record that
checks or defaults its values writes a ``__new__`` of its own, which builds
the record with one ``_new`` call (``tuple.__new__``) on the values; so
does a hot path whose code fixes the arity, such as each engine's step,
while every public construction keeps ``Record.__new__``'s arity check.  Each
field is read through the C getter of ``collections.namedtuple`` fields.
The tuple is storage only: a record is not a sequence."""

try:
    from _collections import _tuplegetter
except ImportError:  # what collections.namedtuple falls back to
    from operator import itemgetter

    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)

_new = tuple.__new__


def _values(record) -> tuple:
    """The field values of a record, as a plain tuple."""
    return tuple.__getitem__(record, slice(None))


def _unsupported(op: str, reflected: bool = False):
    def method(self, other):
        left, right = (other, self) if reflected else (self, other)
        raise TypeError(f"unsupported operand type(s) for {op}: "
                        f"'{type(left).__name__}' and '{type(right).__name__}'")
    return method


def _unordered(op: str):
    def method(self, other):
        raise TypeError(f"'{op}' not supported between instances of "
                        f"'{type(self).__name__}' and '{type(other).__name__}'")
    return method


def _hidden(name: str) -> property:
    def get(self):
        raise AttributeError(f"'{type(self).__name__}' object has no attribute '{name}'")
    return property(get)


class Record(tuple):
    """Immutable record: its fields compare, hash and print as a tuple,
    equal only to records of the same class, and cannot be assigned.  The
    tuple protocol is blocked, so length, indexing, membership, ``+``,
    ``*`` and ordering fail as on a plain object, and a record is true.  A
    subclass that defines ``__iter__`` iterates, and membership then runs
    through it; one that defines ``__len__`` defines ``__bool__`` with it.
    A record is built from one value per field, in ``_fields`` order; a
    subclass that checks nothing writes no constructor."""

    __slots__ = ()
    _fields = ()

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} values "
                            f"({', '.join(cls._fields)}), got {len(values)}")
        return _new(cls, values)

    def __init_subclass__(cls):
        # a subclass that names no fields reads its base's
        for index, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, _tuplegetter(index, None))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor
        return type(self), _values(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, _values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    # -- what a plain object does not have -----------------------------------

    __iter__ = __reversed__ = None

    def __bool__(self) -> bool:
        return True

    def __len__(self):
        raise TypeError(f"object of type '{type(self).__name__}' has no len()")

    def __getitem__(self, index):
        raise TypeError(f"'{type(self).__name__}' object is not subscriptable")

    def __contains__(self, item) -> bool:
        if self.__iter__ is None:
            raise TypeError(f"argument of type '{type(self).__name__}' is not iterable")
        return any(x is item or x == item for x in self)

    __add__, __radd__ = _unsupported("+"), _unsupported("+", reflected=True)
    __mul__, __rmul__ = _unsupported("*"), _unsupported("*", reflected=True)
    __lt__, __le__, __gt__, __ge__ = map(_unordered, ("<", "<=", ">", ">="))
    count, index = _hidden("count"), _hidden("index")
