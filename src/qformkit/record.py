"""The immutable value base of qformkit's verdicts, results and inputs.

A subclass lists its attributes in ``__slots__``.  Its fields are the
public ones, in that order, unless it names them in ``_fields``; they
are the arguments that rebuild the value.  The base gives field-wise
``==``, ``hash`` and ``repr``, refuses ``setattr`` and ``delattr``, and
pickles and copies a value as a call of its class on its fields.  A
subclass that writes no ``__init__`` gets one taking the fields by
position or keyword, compiled once per class, as a dataclass's is.
"""

_set = object.__setattr__


def _make_init(cls):
    """__init__(self, <fields>): one object.__setattr__ call per field.
    A shared __init__(self, *args, **kwargs) that loops over the fields
    takes about twice as long per record."""
    names = cls._fields
    lines = [f"def __init__(self, {', '.join(names)}):"]
    lines += [f"    _set(self, {name!r}, {name})" for name in names] or ["    pass"]
    namespace = {"_set": _set}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _make_init(cls)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
