"""Exception hierarchy shared across the engine, and the one reader of
outside input (files, package data, standard input, JSON), which raises one
of them."""

from __future__ import annotations

import json
import re
import sys
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


def _decode(data: bytes, source: str) -> str:
    """``data`` read as UTF-8 with an optional byte-order mark, each CRLF or
    lone CR read as a newline (as ``open`` reads text); a ``ParseError``
    naming ``source`` when it is not UTF-8."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", source) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(file) -> str:
    """The text of ``file``, a path or a package resource, read by ``_decode``."""
    file = Path(file) if isinstance(file, str) else file
    return _decode(file.read_bytes(), str(file))


def read_stdin() -> str:
    """The text piped to standard input, read by ``_decode`` as ``<stdin>``."""
    return _decode(sys.stdin.buffer.read(), "<stdin>")


# A surrogate code point left in decoded JSON text is unpaired (``json``
# joins an escaped pair into one character), and UTF-8 cannot encode it.
_UNPAIRED_SURROGATE = re.compile("[\ud800-\udfff]")


def encodable(value):
    """``value``, a string or a decoded JSON value, with each unpaired
    surrogate in its strings (object keys too) replaced by U+FFFD, so that
    it encodes as UTF-8.  Lists and objects are mended in place, walked with
    a stack rather than by recursion, so every depth ``json.loads`` reads is
    mended.  An object keeps its key order; of two keys that mend alike,
    the later one's value wins."""
    if isinstance(value, str):
        return _UNPAIRED_SURROGATE.sub("\ufffd", value)
    stack = [value] if isinstance(value, (list, dict)) else []
    while stack:
        container = stack.pop()
        if isinstance(container, dict):
            items = [(encodable(key), item) for key, item in container.items()]
            container.clear()
            container.update(items)
        for slot in container.keys() if isinstance(container, dict) else range(len(container)):
            item = container[slot]
            if isinstance(item, str):
                container[slot] = encodable(item)
            elif isinstance(item, (list, dict)):
                stack.append(item)
    return value


def parse_json(text: str, source: str):
    """The JSON value ``text`` holds, each unpaired surrogate escape read as
    U+FFFD; a ``ParseError`` naming ``source`` when it holds none, or one
    nested too deeply or with an integer too long for ``int`` to read."""
    try:
        value = json.loads(text)
        return encodable(value) if "\\u" in text else value  # only an escape decodes to a surrogate
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", source, exc.lineno) from exc
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise ParseError("invalid JSON: a number too long to read", source) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply", source) from exc


class MissingDefault(AtomicReasonerError):
    """SOP registry loaded without a default SOP."""


class EmptySuite(AtomicReasonerError):
    pass


# --- puzzle / metrics errors ------------------------------------------------

class TooLarge(AtomicReasonerError):
    pass


class InvalidDistribution(AtomicReasonerError):
    pass


class DimensionMismatch(AtomicReasonerError):
    pass
