"""Exception types shared across the engine.

Every error raised by kdr derives from KdrError so callers can catch the
whole family at an API boundary. Errors caused by what the operator handed
in (malformed documents, unknown names, unreadable paths) derive from
UserError; the CLI exits 1 for those and 2 for every other KdrError. Errors
that carry extra context (positions, line numbers, dropped names) expose it
as attributes.
"""

from __future__ import annotations


class KdrError(Exception):
    """Base class for all engine errors."""


class UserError(KdrError):
    """An error in the operator's input rather than in the machinery."""


# --- ontology ---------------------------------------------------------------

class DuplicateName(UserError):
    pass


class DuplicateAttribute(UserError):
    pass


class UnknownParent(UserError):
    pass


class KindMismatch(UserError):
    pass


class CycleDetected(UserError):
    pass


class UnknownConcept(UserError):
    pass


class AmbiguousName(UserError):
    pass


class EmptyImport(UserError):
    pass


class SchemaViolation(UserError):
    """A document or row handed in (ontology, config, script, dataset) has the wrong shape."""


# --- llm gateway ------------------------------------------------------------

class BackendUnavailable(KdrError):
    pass


# --- extraction -------------------------------------------------------------

class NoImportsFound(KdrError):
    """A model response contained no valid import line.

    `dropped` lists names that looked like imports but are unknown in the
    target namespace.
    """

    def __init__(self, message: str, dropped: list[str] | None = None):
        super().__init__(message)
        self.dropped = list(dropped or [])


class ParseFailure(KdrError):
    pass


class EmptyOutput(KdrError):
    pass


class UnknownGoldType(UserError):
    pass


# --- knowledge store --------------------------------------------------------

class TypeMismatch(UserError):
    pass


class KeyMismatch(UserError):
    pass


class UnknownId(UserError):
    pass


class IoFailure(UserError):
    pass


class CorruptRecord(UserError):
    """A line of a file failed to parse or validate; `line_number` is 1-based."""

    def __init__(self, message: str, line_number: int, path=None):
        where = f"{path}: " if path is not None else ""
        super().__init__(f"{where}line {line_number}: {message}")
        self.line_number = line_number


class UnrenderableValue(KdrError):
    pass


# --- reasoning --------------------------------------------------------------

class UnbalancedTags(KdrError):
    """Tag structure in a decomposition is broken; `position` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EmptyQuery(KdrError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class NoConceptFound(KdrError):
    pass


class RejectedCode(KdrError):
    pass


class NoTopicEntity(KdrError):
    pass


class NoInstancesFound(KdrError):
    pass


class SandboxUnavailable(KdrError):
    pass


class SearchBackendUnavailable(KdrError):
    pass


class EmptyCorpus(KdrError):
    pass


# --- pipeline ---------------------------------------------------------------

class UnparseableProposal(KdrError):
    pass


class DanglingArtifact(KdrError):
    pass


# --- evaluation -------------------------------------------------------------

class GoldParentMissing(UserError):
    pass


class ShapeMismatch(UserError):
    pass


class SubgraphLoadFailure(KdrError):
    pass
