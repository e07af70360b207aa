"""Exception types shared across the engine.

Every error kdr raises for a bad input or a failed backend derives from
KdrError; a builtin error such as ValueError marks a bug in kdr itself. The
class alone decides what a failure does:

- a UserError (a malformed document, an unknown name, a path the operator
  chose that cannot be read or written) stops the command with exit 1;
- an Outage (the chat or embedding backend, or the analysis sandbox, is
  gone) stops the run before any persisted write, with exit 2;
- any other KdrError is the fault of one item (a passage, a concept, a
  request) and is recorded against that item, with exit 2 if it escapes a
  command.

Errors that carry extra context (positions, line numbers, dropped names)
expose it as attributes.
"""

from __future__ import annotations


class KdrError(Exception):
    """Base class for all engine errors."""


class UserError(KdrError):
    """An error in the operator's input rather than in the machinery."""


class Outage(KdrError):
    """A service every item needs is down, so no item can succeed."""


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

class BackendUnavailable(Outage):
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
    """A file or directory kdr was told to read or write, named in the message."""


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


class SandboxUnavailable(Outage):
    pass


class SearchBackendUnavailable(KdrError):
    """Not an Outage: a section without web text is still a report."""


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
