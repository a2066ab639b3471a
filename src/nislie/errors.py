"""Exception types shared across the package."""

from __future__ import annotations


class NisLieError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(NisLieError):
    pass


class NotOdd(NisLieError):
    """An odd element was required but the argument has even support."""


class NotAlternating(NisLieError):
    """No quadratic form has the given matrix as its polar form."""


class DegeneratePolar(NisLieError):
    pass


class CaseParityMismatch(NisLieError):
    """Extension-case tag does not match the parities of B or D."""


class FieldNotInCase(NisLieError):
    """A recipe sets a field that its extension case does not have."""

    def __init__(self, field: str, case: str):
        self.field = field
        self.case = case
        super().__init__(f"recipe field {field} does not apply to case {case}")


class ConditionViolated(NisLieError):
    """An extension hypothesis fails; carries the condition label."""

    def __init__(self, condition: str, witness=None, detail: str = ""):
        self.condition = condition
        self.witness = witness
        msg = f"condition ({condition}) violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InnerNotDerivation(NisLieError):
    """The inner maps do not fit in the (graded) derivation space.

    Either ad of a basis vector is not a derivation, so the algebra fails
    the axioms, or the declared degrees do not respect the bracket; either
    way there is no outer quotient.  Carries the basis name the message
    points at, and whether the degrees are at fault (every ad of the parity
    is a derivation).
    """

    def __init__(self, element: str, message: str, degrees_at_fault=False):
        self.element = element
        self.degrees_at_fault = degrees_at_fault
        super().__init__(message)


class HypothesisNotMet(NisLieError):
    """The chosen central element does not satisfy the reduction hypothesis."""


class SplitsOff(NisLieError):
    """B(x,x) != 0: the line through x splits off orthogonally."""


class UnknownName(NisLieError):
    pass


class OutOfRange(NisLieError):
    pass


class UnderdeterminedMap(NisLieError):
    """Bracket closure of a partial map did not determine it fully."""


class SearchBudgetExceeded(NisLieError):
    """An exhaustive enumeration ran out of its node budget."""
