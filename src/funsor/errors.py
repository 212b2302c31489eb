"""Exception types shared across the package.

Every error carries a stable ``code`` string (the class name unless noted)
so the command-line frontend can report machine-readable error categories.
"""
from __future__ import annotations


class FunsorError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class TypeConflict(FunsorError, TypeError):
    """The same name is used with two different types."""


class NameAbsent(FunsorError):
    """A name was looked up or removed from a context that lacks it."""


class FunsorTypeError(FunsorError, TypeError):
    """A term is ill-typed; carries the offending subterm when available."""

    def __init__(self, message, subterm=None):
        super().__init__(message)
        self.subterm = subterm

    @property
    def code(self) -> str:
        return "TypeError"


class IndexOutOfRange(FunsorError):
    """An index value lies outside the bound of its integer type."""


class BoundsError(FunsorError):
    """A slice or concatenation does not fit the axis it addresses."""


class ContextMismatch(FunsorError, TypeError):
    """Operands carry incompatible typing contexts."""


class RankDeficient(FunsorError):
    """A matrix that must be positive definite is singular or indefinite."""


class NotAffine(FunsorError):
    """An expression substituted into a Gaussian is not structurally affine."""


class InvalidMatching(FunsorError, TypeError):
    """A step matching violates the Markov product's side conditions."""


class ScanUnsupported(FunsorError):
    """The selected scan cannot evaluate a chain under this interpretation."""


class NoClosedForm(FunsorError):
    """An interpretation left a reduction lazy where a value was asked for."""


class FuelExhausted(FunsorError):
    """Rewriting exceeded the configured number of rule applications."""


class StackUnderflow(FunsorError):
    """An interpretation pop was requested with nothing pushed."""
