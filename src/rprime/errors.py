"""Exception types shared across the package."""


class RPrimeError(Exception):
    """Base class for all domain errors raised by this package."""


class FieldSpecError(RPrimeError):
    """A field-spec document is malformed or violates a type invariant."""


class IndexDivisorError(RPrimeError):
    """Splitting requested at a prime where factoring the defining
    polynomial misreports the decomposition (p^2 divides the polynomial
    discriminant, Dedekind's criterion shows p to divide the index of
    the polynomial order, and no override is available)."""


class BudgetExceededError(RPrimeError):
    """An enumeration or counting request exceeds its documented guard."""


class ToleranceError(RPrimeError):
    """A requested zeta tolerance cannot be certified by the field's
    zeta route (the Euler ladder's top rung, or the L-functions)."""
