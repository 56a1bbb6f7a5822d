"""Lepage equivalents of first-order Lagrangians on jet and Grassmann charts.

Subpackages build on each other in this order: ``expr`` (exact scalar
expressions; its parser and printers are in ``_dsl``, its evaluation and
sampled verdicts in ``_sampling``, so that no process compiles the core in
one piece), ``charts`` (jet/adapted charts and total derivatives),
``forms`` (exterior algebra), ``equivalents`` (Lepage constructors and
Euler-Lagrange machinery), ``homogeneity`` (Zermelo and equivariance checks),
``variation`` (prolongations, Noether currents, first variation),
``metric`` (metric area Lagrangians and their Lepage forms), and ``cli``;
``minimal``, the numeric minimal-graph workbench, uses numpy only.
``Frozen``, the base of every value class, is here because every process
that builds one has loaded this module already.
"""

__version__ = "0.1.0"


class Frozen:
    """Base of the value classes whose fields are fixed at construction.

    A subclass names its fields in ``__slots__`` in the order of its
    constructor's parameters, and its ``__init__`` stores them with
    ``_freeze``.  Assignment and deletion then raise AttributeError, as on a
    frozen dataclass, so ``copy``, ``deepcopy`` and ``pickle``, which could
    not set the slots either, call the class again with the fields; a
    ``_``-prefixed slot is a cache that the constructor fills and copies
    leave out.  ``_compared`` names the fields that ``==``, ``hash`` and
    ``repr`` read: two values are equal when they are of one class with
    equal fields, and hash as the tuple of those fields.  A class that
    names none compares, hashes and prints as the object itself.
    """

    __slots__ = ()
    _compared = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self, names) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or bool(self._compared) and \
            self._values(self._compared) == other._values(self._compared)

    def __hash__(self):
        if not self._compared:
            return object.__hash__(self)
        return hash(self._values(self._compared))

    def __repr__(self):
        if not self._compared:
            return object.__repr__(self)
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compared)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values(
            name for name in self.__slots__ if not name.startswith("_"))
