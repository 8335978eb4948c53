"""Exception types shared across the package."""

from __future__ import annotations


class DomainMismatchError(ValueError):
    """Arithmetic attempted between elements of different domains."""


class DimensionMismatchError(ValueError):
    """Point or polynomial dimensions do not agree."""


class ZeroDenominatorError(ValueError):
    """A fraction was constructed with denominator zero."""


class ExactDivisionError(ArithmeticError):
    """Exact division was requested but the quotient is not in the ring."""


class NotAZeroError(ValueError):
    """A point claimed to be a zero of a polynomial is not one."""


class IntegralPointError(ValueError):
    """An operation defined only for non-integral points received an integral one."""


class NotAFormError(ValueError):
    """The operation requires a homogeneous quadratic (no linear or constant part)."""


class ValueNotIntegralError(ValueError):
    """The value of the form at the given point does not lie in the base ring."""


class IsotropicDirectionError(ValueError):
    """The chord direction annihilates the quadratic part, so there is no second
    intersection point."""


class SearchBudgetError(RuntimeError):
    """A randomized search exhausted its attempt budget, or an enumeration
    was refused because its size exceeds the search budget."""


class InternalInvariantError(RuntimeError):
    """A computed quantity violated an identity the algorithm guarantees.

    This always indicates a bug, never bad input.
    """


class FormError(ValueError):
    """Base class for form-text diagnostics; carries a character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class FormSyntaxError(FormError):
    """The input text does not match the form grammar."""


class FormVariableError(FormError):
    """An identifier is not a valid variable for the requested dimension."""


class FormDegreeError(FormError):
    """The expanded polynomial has total degree greater than 2."""


class FormCoefficientError(FormError):
    """A coefficient literal does not belong to the requested domain."""


class OracleNotFound(Exception):
    """No admissible rounding witness exists within the search window.

    Attributes:
        x: the offending fraction point.
        window: the per-coordinate search bound that was exhausted.
        min_norm: the smallest nonzero extended norm achieved by any
            candidate, as an exact Fraction (0 if every candidate vanished).
    """

    def __init__(self, x, window, min_norm):
        super().__init__(
            f"no witness with norm in (0, 1) within window {window} "
            f"around {x}; best nonzero norm {min_norm}"
        )
        self.x = x
        self.window = window
        self.min_norm = min_norm


class DescentAborted(OracleNotFound):
    """Oracle failure inside a descent run; records the step index."""

    def __init__(self, step_index, x, window, min_norm):
        OracleNotFound.__init__(self, x, window, min_norm)
        self.step_index = step_index
        self.args = (
            f"descent aborted at step {step_index}: no witness within "
            f"window {window} around {x}",
        )
