"""Exception types shared across the package."""


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
