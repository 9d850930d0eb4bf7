"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure. Sub-hierarchies
mirror the package layout: solver-level errors, knowledge-base errors, and
reasoning-layer errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SolverError(ReproError):
    """Base class for errors in the SAT/SMT solving substrate."""


class InvalidLiteralError(SolverError):
    """A literal was zero or referenced an out-of-range variable."""


class SolverStateError(SolverError):
    """The solver was used in a way its current state does not allow."""


class BudgetExceededError(SolverError):
    """A conflict or time budget was exhausted before a verdict was reached."""


class EncodingError(ReproError):
    """A formula or constraint could not be encoded to CNF."""


class UnboundedIntError(EncodingError):
    """An integer variable lacked the finite bounds needed for encoding."""


class KnowledgeBaseError(ReproError):
    """Base class for knowledge-representation errors."""


class DuplicateEntryError(KnowledgeBaseError):
    """An entity with the same name was registered twice."""


class UnknownEntityError(KnowledgeBaseError):
    """A rule or query referenced an entity that is not in the knowledge base."""


class ValidationError(KnowledgeBaseError):
    """An encoding failed schema or consistency validation."""


class StoreBusyError(ReproError):
    """A fact store refused a write for a passing reason: another writer
    holds its lock. Nothing was written, so the same write may be
    retried."""


class ReasoningError(ReproError):
    """Base class for reasoning-layer errors."""


class NoSolutionError(ReasoningError):
    """A synthesis query had no satisfying design.

    Carries the conflict diagnosis (if computed) so callers can surface
    which requirements clashed.
    """

    def __init__(self, message: str, conflict=None):
        super().__init__(message)
        self.conflict = conflict


class QueryError(ReasoningError):
    """A query was malformed or referenced unknown objectives/entities."""


class TopologyError(ReproError):
    """A topology was malformed or a routing invariant did not hold."""


class ExtractionError(ReproError):
    """A document could not be parsed into an encoding."""
