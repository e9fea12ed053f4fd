"""Exception hierarchy shared across the engine, and the shape check every
record read from disk passes before it is used."""

from __future__ import annotations


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


_JSON_NAMES = {
    str: "a string", int: "an integer", bool: "true or false",
    type(None): "null", list: "a list", dict: "an object",
}


def _json_type(shape) -> type:
    """The JSON type a value of ``shape`` has at its top level."""
    if shape is None:
        return type(None)
    return type(shape) if isinstance(shape, (list, dict)) else shape


def check_shape(value, shape, where: str, path: str = "") -> None:
    """Raise ``ParseError`` from ``where`` unless the JSON ``value`` has
    ``shape``: a type (a bool is no int); ``None``; ``[item]``, a list of
    items; ``[a, b, ...]``, a list of exactly those items; ``{str: item}``,
    an object of items; a dict of fields, where a name ending in "?" may be
    absent and keys it does not name are ignored; or a tuple of
    alternatives, chosen by the value's JSON type."""
    alternatives = shape if isinstance(shape, tuple) else (shape,)
    for shape in alternatives:  # the loop leaves ``shape`` at the one that fits
        kind = _json_type(shape)
        if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
            break
    else:
        expected = " or ".join(_JSON_NAMES[_json_type(s)] for s in alternatives)
        raise ParseError(f"{path} is not {expected}" if path else f"not {expected}", where)
    prefix = f"{path}." if path else ""
    if isinstance(shape, list):
        if len(shape) != 1 and len(value) != len(shape):
            raise ParseError(f"{path or 'value'} does not hold {len(shape)} items", where)
        for i, item in enumerate(value):
            check_shape(item, shape[0] if len(shape) == 1 else shape[i], where, f"{path}[{i}]")
    elif isinstance(shape, dict) and str in shape:
        for key, item in value.items():
            check_shape(item, shape[str], where, prefix + key)
    elif isinstance(shape, dict):
        for name, field in shape.items():
            key = name.removesuffix("?")
            if key in value:
                check_shape(value[key], field, where, prefix + key)
            elif key == name:
                raise ParseError(f"{prefix}{key} is missing", where)


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
