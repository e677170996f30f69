"""Exception types shared across the package."""

from __future__ import annotations


class LinkfoldError(Exception):
    """Base class for all package errors."""


class LinkageError(LinkfoldError):
    """Structurally invalid linkage or configuration."""


class AnnotationError(LinkfoldError):
    """Annotation table is malformed or inconsistent with the geometry."""


class ValidationFailure(LinkfoldError):
    """A combinatorial validity check failed.

    Not raised by the check functions themselves (they return reports);
    raised by operations that require a valid input to proceed.
    """

    def __init__(self, message: str, report: object = None) -> None:
        super().__init__(message)
        self.report = report


class CorridorError(LinkfoldError):
    """Corridor decomposition or height assignment failed."""


class PerturbationError(LinkfoldError):
    """No admissible perturbation was produced.

    Carries the witness of the failed exact check, such as the offending
    pair of features, when one is known.
    """

    def __init__(self, message: str, offending: object = None) -> None:
        super().__init__(message)
        self.offending = offending


class ChainError(LinkfoldError):
    """Chain classification or canonical placement failed."""


class AdornmentError(LinkfoldError):
    """Adornment region is malformed (non-simple, wrong orientation, ...)."""


class DocumentError(LinkfoldError):
    """Document parse or serialization failure, with a JSON-path location."""

    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
