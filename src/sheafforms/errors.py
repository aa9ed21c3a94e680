"""Error taxonomy.

Every failure mode carries a stable code (the class name) so scenario
reports can serialize it, plus whatever witness data explains the failure.
"""

from __future__ import annotations


class SheafFormsError(Exception):
    """Base class; `code` is the stable identifier used in reports."""

    @property
    def code(self) -> str:
        return type(self).__name__

    def __init__(self, message: str, **witness):
        super().__init__(message)
        self.message = message
        self.witness = witness


# -- topology ---------------------------------------------------------------

class MissingEmptyOrTotal(SheafFormsError):
    pass


class NotClosedUnderUnion(SheafFormsError):
    pass


class NotClosedUnderIntersection(SheafFormsError):
    pass


class NotASubset(SheafFormsError):
    pass


# -- sections ---------------------------------------------------------------

class OpenMismatch(SheafFormsError):
    pass


class EmptyOpen(SheafFormsError):
    pass


class NotNowhereZero(SheafFormsError):
    pass


# -- modules ----------------------------------------------------------------

class ModuleMismatch(SheafFormsError):
    pass


class NotFree(SheafFormsError):
    pass


# -- bilinear ---------------------------------------------------------------

class NotOrthosymmetric(SheafFormsError):
    pass


class IsotropicSubmodule(SheafFormsError):
    pass


# -- symplectic -------------------------------------------------------------

class OddRank(SheafFormsError):
    pass


class NotAlternating(SheafFormsError):
    pass


class Degenerate(SheafFormsError):
    pass


class PartialRelationsViolated(SheafFormsError):
    pass


class PartnerNotFound(SheafFormsError):
    pass


class NotTotallyIsotropic(SheafFormsError):
    pass


class IsometryHypothesisViolated(SheafFormsError):
    pass


class FreenessViolated(SheafFormsError):
    pass


class RankMismatch(SheafFormsError):
    pass


# -- scalars ----------------------------------------------------------------

class EntryTooLong(SheafFormsError):
    """A rational entry of a result has more decimal digits than the
    interpreter converts to a string."""


# -- self-checks ------------------------------------------------------------

class SelfCheckFailed(SheafFormsError):
    """A construction failed the check it makes on its own result: a defect
    of the library, not of its input."""


# -- cli --------------------------------------------------------------------

class ParseError(SheafFormsError):
    pass


class UnknownSuite(SheafFormsError):
    pass
