"""Exception hierarchy shared by every module in the package."""


class LeibalgError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(LeibalgError):
    """Invalid construction data, e.g. a composite modulus."""


class FieldMismatch(LeibalgError):
    """Operands belong to different fields."""


class DivisionByZero(LeibalgError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class BadIndex(LeibalgError):
    """Basis index outside 1..dim in table data."""


class DuplicateEntry(LeibalgError):
    """A product cell was specified twice."""


class BadVector(LeibalgError):
    """Vector length does not match the ambient dimension."""


class NotAnIdeal(LeibalgError):
    """Quotient requested by a subspace that is not an ideal."""


class NotASubalgebra(LeibalgError):
    """Restriction requested to a subspace not closed under the bracket."""


class NotApplicable(LeibalgError):
    """Operation precondition (e.g. codimension-one center) fails."""


class NotNilpotent(LeibalgError):
    """Operation defined only for nilpotent algebras."""


class NeedsFiniteField(LeibalgError):
    """Operation requires a prime field GF(p)."""


class SearchBoundExceeded(LeibalgError):
    """Exhaustive isomorphism search outside its completeness bounds.

    Raised instead of silently returning an unreliable verdict.
    """


class NoSuchEntry(LeibalgError):
    """Unknown catalog entry name."""


class ConstraintViolated(LeibalgError):
    """Catalog entry parameters violate a validity constraint."""


class IncompleteAssignment(LeibalgError):
    """Parameter assignment misses one or more variables."""


class UnknownVariable(LeibalgError):
    """A variable name that is not among a polynomial's variables."""


class ParseError(LeibalgError):
    """Malformed text input; carries a line number when available."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalError(LeibalgError):
    """An internal invariant was breached; always a bug."""
