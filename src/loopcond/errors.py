"""Exception types shared across the package, and the base of its
immutable values."""

from operator import attrgetter


class _Value:
    """An immutable value, as a frozen dataclass is, without generating code.

    A subclass's fields are its own annotated class attributes, in order;
    one given a value in the class body, or as a class keyword, has that
    value as its default (a slot may not share its name with a class
    attribute, so a slotted field takes the keyword).  The constructor
    takes the fields positionally or by keyword, sets them and calls
    `_check`, which may reject them or set derived attributes with
    `object.__setattr__`.  Equality and hashing go by the field tuple, and
    the repr lists the fields; assignment and deletion raise AttributeError.
    A subclass that names its fields in `__slots__` keeps no instance dict.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__annotations__)
        slots = cls.__dict__.get("__slots__", ())
        cls._defaults = {name: cls.__dict__[name] for name in fields
                         if name in cls.__dict__ and name not in slots} | defaults
        # the field tuple in one C call; attrgetter of one name gives the
        # bare value, so a one-field class wraps it in a 1-tuple
        get = attrgetter(*fields) if fields else lambda self: ()
        cls._values = property(get if len(fields) != 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        cls, set_field = type(self), object.__setattr__
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes at most {len(cls._fields)} arguments")
        for name, value in zip(cls._fields, args):
            set_field(self, name, value)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                set_field(self, name, kwargs.pop(name))
            elif name in cls._defaults:
                set_field(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected arguments {sorted(kwargs)}")
        self._check()

    def _check(self) -> None:
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # copy and pickle restore what object.__getstate__ gave: the
        # instance dict, or (dict or None, slot values) for a slotted class
        for part in state if type(state) is tuple else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class LoopcondError(Exception):
    """Base class for all package-specific errors."""


class ConditionSyntaxError(LoopcondError):
    """Identity text does not match the grammar."""


class SymbolMismatch(LoopcondError):
    """The two sides of an identity use different function symbols."""


class ArityMismatch(LoopcondError):
    """The two sides of an identity have different argument counts."""


class EmptyArgs(LoopcondError):
    """An identity side has an empty argument list."""


class NotSymmetric(LoopcondError):
    """Operation requires a symmetric graph."""


class NotWeaklyConnected(LoopcondError):
    """Operation requires a weakly connected graph with at least one edge."""


class BudgetExceeded(LoopcondError):
    """Search exhausted its node-expansion budget before reaching an answer.

    Distinct from a negative answer: the search was cut off, nothing is known.
    """

    def __init__(self, expansions: int):
        super().__init__(f"search budget exhausted after {expansions} node expansions")
        self.expansions = expansions


class SlotMismatch(LoopcondError):
    """Gadget inputs do not match its slot declaration."""


class ArityNotDivisible(LoopcondError):
    """Relation arity is not divisible by the power exponent."""


class SizeCap(LoopcondError):
    """Requested verification instance exceeds the configured size cap."""


class UniverseMismatch(LoopcondError):
    """Relation universe does not match the algebra universe."""


class ExponentCap(LoopcondError):
    """Free-algebra tables would exceed the configured entry cap."""


class BadTerm(LoopcondError):
    """Term references unknown operations, wrong arities, or out-of-range leaves."""


class AlgebraFormatError(LoopcondError):
    """Algebra JSON is not an object of the documented shape and types."""


class GraphFormatError(LoopcondError):
    """Graph JSON is not an object of the documented shape and types."""


class GadgetFormatError(LoopcondError):
    """Gadget JSON is not an object of the documented shape and types."""
