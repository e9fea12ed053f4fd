"""Exception hierarchy shared across the engine, and the reader of outside
files, which raises one of them."""

from __future__ import annotations

from pathlib import Path


class AtomicReasonerError(Exception):
    """Base class for all engine errors."""


# --- tree / model errors ----------------------------------------------------

class EmptyProblem(AtomicReasonerError):
    pass


class Terminated(AtomicReasonerError):
    """Mutation attempted on a terminated tree."""


class AlreadyTerminated(AtomicReasonerError):
    """set_termination called twice."""


class MissingHypothesis(AtomicReasonerError):
    """Verification appended with no hypothesis to verify."""


class NodeNotOnActivePath(AtomicReasonerError):
    pass


class UnknownAction(AtomicReasonerError):
    pass


# --- backend errors ---------------------------------------------------------

class BackendFailure(AtomicReasonerError):
    """Base class for completion-backend failures."""


class BackendTimeout(BackendFailure):
    pass


class RateLimited(BackendFailure):
    def __init__(self, message: str = "rate limited", retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class AuthError(BackendFailure):
    pass


class MalformedResponse(BackendFailure):
    def __init__(self, message: str, excerpt: str = ""):
        super().__init__(message)
        self.excerpt = excerpt


class ScriptExhausted(BackendFailure):
    pass


class EmptyCompletion(BackendFailure):
    """Backend returned a blank completion after retry."""


# --- parsing / io errors ----------------------------------------------------

class ParseError(AtomicReasonerError):
    """``<source>[:<line>]: <message>``; ``message`` keeps the bare reason."""

    def __init__(self, message: str, source: str = "", line: int | None = None):
        loc = f"{source or '<input>'}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}")
        self.message = message
        self.source = source
        self.line = line


def _read_text(path) -> str:
    """The text of the file at ``path``, read as UTF-8 with an optional
    byte-order mark; a ``ParseError`` naming the file when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", str(path)) from exc


class MissingDefault(AtomicReasonerError):
    """SOP registry loaded without a default SOP."""


class EmptySuite(AtomicReasonerError):
    pass


# --- puzzle / metrics errors ------------------------------------------------

class GenerationExhausted(AtomicReasonerError):
    pass


class TooLarge(AtomicReasonerError):
    pass


class InvalidDistribution(AtomicReasonerError):
    pass


class DimensionMismatch(AtomicReasonerError):
    pass
