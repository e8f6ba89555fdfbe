"""Frozen records: the value semantics of a frozen dataclass, written once,
with nothing generated or executed at class creation.

A record class spells out its own ``__init__``: it sets each field with
`_set` (``object.__setattr__``, which keeps CPython's inline attribute
values, where writing through ``__dict__`` would not) and then calls
``__post_init__`` if the class has one.  The fields are that ``__init__``'s
parameters, in order; a subclass that writes none keeps its base's.
"""

_set = object.__setattr__


class Record:
    """Equality within one class, field by field; the hash of the field
    tuple; ``Name(field=value, ...)`` repr; no assignment or deletion."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return type(self).__qualname__ + "(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(self._fields, self._values())) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the named fields changed, built by the constructor."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
