"""Frozen records: the value semantics of a frozen dataclass, written once,
with nothing generated or executed at class creation.

A record class names its fields once, in order, in `_fields`, and the
values of the last ones, which a caller may omit, in `_defaults`; a
subclass that declares neither keeps its base's.  The one constructor,
`Record.__init__`, binds its arguments as a def with those parameters
would, sets each field with `_set` (``object.__setattr__``, which keeps
CPython's inline attribute values, where writing through ``__dict__`` would
not) and then calls ``__post_init__`` to check or normalize them.
"""

_set = object.__setattr__


class Record:
    """Equality within one class, field by field; the hash of the field
    tuple; ``Name(field=value, ...)`` repr; no assignment or deletion."""

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        n = len(fields)
        if kwargs or len(args) != n:
            defaults = self._defaults
            if not kwargs and 0 < n - len(args) <= len(defaults):
                args += defaults[len(args) - n:]
            else:  # bound as by a def with these parameters, or refused
                bound = dict(zip(fields[n - len(defaults):], defaults))
                bound.update(zip(fields, args))
                bound.update(kwargs)
                if len(args) > n or bound.keys() != set(fields) or not \
                        kwargs.keys().isdisjoint(fields[:len(args)]):
                    raise TypeError(
                        f"{type(self).__qualname__}() takes {fields} once "
                        f"each, got {len(args)} positional and {tuple(kwargs)}")
                args = tuple(map(bound.__getitem__, fields))
        i = 0
        while i < n:  # faster than a for loop over zip or range
            _set(self, fields[i], args[i])
            i += 1
        self.__post_init__()

    def __post_init__(self):
        """Check or normalize the fields, once they are all set."""

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


class Namespace:
    """Attributes set from keywords, as by ``types.SimpleNamespace``."""

    def __init__(self, **values):
        self.__dict__.update(values)


class cached:
    """A method run on the first read of its name from an instance, whose
    value is then stored in the instance's ``__dict__`` and read from there,
    as by `functools.cached_property`."""

    def __init__(self, method):
        self.method = method

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.method.__name__,
                                            self.method(instance))
