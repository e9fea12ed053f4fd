"""Pluggable completion backends and the one way the engine asks them.

Every backend satisfies one contract: ``complete(CompletionRequest) ->
CompletionResult`` and is safe to call concurrently, also by one session,
which sends a request ahead on a pool thread while it sends another
(``router._Replies.ahead``).  Three implementations ship here: a deterministic
scripted backend for tests and replays, an HTTP client for OpenAI-compatible
chat endpoints, and a record/replay cache that wraps either.  ``ask`` sends
a request, re-asking once when the reply does not parse; every engine call
goes through it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import email.utils
import enum
import functools
import hashlib
import json
import math
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, TypeVar, Union

import requests

from .errors import (
    AuthError,
    BackendTimeout,
    EmptyCompletion,
    MalformedResponse,
    RateLimited,
    ScriptExhausted,
    encodable,
)

T = TypeVar("T")

TAGS = ("routing", "solve", "check", "summarize")

# Sends per ``ask``: the first try plus one re-ask.
ASK_ATTEMPTS = 2


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "system" | "user" | "assistant"
    content: str


@dataclass
class CompletionRequest:
    messages: list[ChatMessage]
    temperature: float = 0.7
    max_tokens: int = 2048
    seed: Optional[int] = None
    tag: str = "solve"

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature out of range [0, 2]")
        if self.tag not in TAGS:
            raise ValueError(f"unknown request tag: {self.tag}")


class ResultSource(enum.Enum):
    """Where a reply came from.  ``CACHE`` is a replay hit, served with no
    model wait: a session whose last reply was one sends nothing
    ahead (``router._Replies``, which reads the source of each reply the
    session uses).  ``RECORDING`` is a hit while recording: the session's
    next request most likely misses and waits on the model, so it keeps
    sending ahead.  ``TallyBackend``, and ``CacheBackend`` on a miss, return
    the inner backend's result, source included."""

    NETWORK = "Network"
    SCRIPT = "Script"
    CACHE = "Cache"
    RECORDING = "Recording"


@dataclass
class CompletionResult:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: float = 0.0
    source: ResultSource = ResultSource.SCRIPT


def ask(backend, request: CompletionRequest, parse: Callable[[str], Optional[T]]) -> Optional[T]:
    """Send ``request`` until ``parse`` accepts a reply, at most ASK_ATTEMPTS
    times; the first parsed value that is not None, or None.

    Re-ask k carries ``seed=k``, so it is a request of its own: a cache does
    not answer it with the reply just rejected."""
    for attempt in range(ASK_ATTEMPTS):
        sent = dataclasses.replace(request, seed=attempt) if attempt else request
        value = parse(backend.complete(sent).text)
        if value is not None:
            return value
    return None


def nonblank(text: str) -> Optional[str]:
    """Parser for free-text replies: the stripped text, None when blank."""
    return text.strip() or None


def ask_text(backend, request: CompletionRequest) -> str:
    """``ask`` for a free-text reply: the stripped text; raises
    EmptyCompletion when every attempt comes back blank."""
    text = ask(backend, request, nonblank)
    if text is None:
        raise EmptyCompletion(f"backend returned blank output twice (tag={request.tag})")
    return text


# --- scripted backend ---------------------------------------------------------

ScriptValue = Union[list, str]


class ScriptedBackend:
    """Deterministic, network-free backend.

    The script maps a request tag to a queue of responses; a plain string
    value means "always answer this" for that tag.  Queues are per tag, so
    the answers do not depend on the order in which concurrent calls of
    different tags arrive.  An optional ``default`` (string or
    ``callable(request) -> str``) serves any exhausted queue instead of
    raising ScriptExhausted.
    """

    def __init__(
        self,
        script: dict[str, ScriptValue],
        default: Union[str, Callable[[CompletionRequest], str], None] = None,
    ):
        if not isinstance(script, dict):
            raise TypeError("a script maps request tags to responses")
        for tag, value in script.items():
            texts = [value] if isinstance(value, str) else value
            if not isinstance(texts, list) or not all(isinstance(text, str) for text in texts):
                raise TypeError(f"script value for {tag!r} must be a string or a list of strings")
        self._lock = threading.Lock()
        self._script = script
        self._default = default
        self._queues = {
            tag: list(value) if isinstance(value, list) else value
            for tag, value in script.items()
        }
        self.calls: list[CompletionRequest] = []

    def fresh(self) -> "ScriptedBackend":
        """A new backend at the start of this one's script, with no calls."""
        return ScriptedBackend(self._script, self._default)

    def _next(self, request: CompletionRequest) -> str:
        entry = self._queues.get(request.tag)
        if isinstance(entry, str):
            return entry
        if entry:
            return entry.pop(0)
        if self._default is not None:
            if callable(self._default):
                return self._default(request)
            return self._default
        raise ScriptExhausted(f"no scripted response left (tag={request.tag})")

    def complete(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            self.calls.append(request)
            text = self._next(request)
        return CompletionResult(
            text=text,
            prompt_tokens=sum(len(m.content.split()) for m in request.messages),
            completion_tokens=len(text.split()),
            source=ResultSource.SCRIPT,
        )


# --- HTTP backend -------------------------------------------------------------

@dataclass
class HttpConfig:
    base_url: str
    model: str = "gpt-4o-mini"
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 120.0
    max_retries: int = 5
    backoff_base: float = 1.0
    max_concurrent: int = 4

    def __post_init__(self):
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not self.backoff_base >= 0:
            raise ValueError("backoff_base must be >= 0")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")


class HttpBackend:
    """OpenAI-compatible chat-completions client with retry and backoff.

    Retries Timeout/429/5xx with exponential backoff (base 1 s, factor 2,
    jitter), up to ``max_retries`` extra attempts.  A ``Retry-After`` is the
    backoff's floor; one longer than ``timeout`` is not waited for, and that
    attempt's error is raised at once.  At most
    ``max_concurrent`` requests are in flight; a caller sleeping through a
    backoff holds no slot.  An unpaired surrogate in a reply's text becomes
    U+FFFD, so every reply encodes as UTF-8.  API keys are read from the
    environment only.
    ``close()`` closes the ``requests.Session`` the backend made itself; one
    passed in stays open.
    """

    def __init__(
        self,
        config: HttpConfig,
        session: Optional[requests.Session] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        self.config = config
        self.model = config.model
        self._owns_session = session is None
        self._session = session or requests.Session()
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._semaphore = threading.Semaphore(config.max_concurrent)

    def close(self) -> None:
        if self._owns_session:
            self._session.close()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, request: CompletionRequest) -> CompletionResult:
        body = {
            "model": self.config.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            body["seed"] = request.seed

        url = self.config.base_url.rstrip("/") + "/chat/completions"
        last_error: Exception = BackendTimeout("no attempt made")
        for attempt in range(self.config.max_retries + 1):
            try:
                # the slot is held for the request only, never through a backoff
                with self._semaphore:
                    started = time.monotonic()
                    response = self._session.post(
                        url,
                        json=body,
                        headers=self._headers(),
                        timeout=self.config.timeout,
                    )
            except requests.Timeout:
                last_error = BackendTimeout(f"request timed out after {self.config.timeout}s")
                self._backoff(attempt)
                continue
            except requests.RequestException as exc:
                last_error = BackendTimeout(f"connection error: {exc}")
                self._backoff(attempt)
                continue

            latency = (time.monotonic() - started) * 1000.0
            if response.status_code in (401, 403):
                raise AuthError(f"auth failed with status {response.status_code}")
            if response.status_code == 429 or response.status_code >= 500:
                retry_after = _parse_retry_after(response)
                last_error = RateLimited(
                    f"status {response.status_code}", retry_after=retry_after
                ) if response.status_code == 429 else BackendTimeout(
                    f"server error {response.status_code}"
                )
                if retry_after is not None and retry_after > self.config.timeout:
                    raise last_error
                self._backoff(attempt, floor=retry_after)
                continue
            if response.status_code != 200:
                raise MalformedResponse(
                    f"unexpected status {response.status_code}",
                    excerpt=response.text[:200],
                )
            return self._parse(response, latency)
        raise last_error

    def _backoff(self, attempt: int, floor: Optional[float] = None) -> None:
        if attempt >= self.config.max_retries:
            return
        delay = self.config.backoff_base * 2 ** attempt
        delay *= 0.5 + self._rng.random()  # jitter in [0.5x, 1.5x)
        if floor is not None:
            delay = max(delay, floor)
        self._sleep(delay)

    @staticmethod
    def _parse(response: requests.Response, latency_ms: float) -> CompletionResult:
        try:
            payload = response.json()
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise MalformedResponse("unparseable completion body", excerpt=response.text[:200])
        if not isinstance(text, str):
            raise MalformedResponse("completion content is not text", excerpt=response.text[:200])
        usage = payload.get("usage")
        return CompletionResult(
            text=encodable(text),
            prompt_tokens=_token_count(usage, "prompt_tokens"),
            completion_tokens=_token_count(usage, "completion_tokens"),
            latency_ms=latency_ms,
            source=ResultSource.NETWORK,
        )


def _token_count(usage, name: str) -> int:
    """``usage[name]`` as a whole count; 0 when ``usage`` is not an object or
    the count is missing, not a number (``null``, ``"12.5"``) or negative.
    A reply's token usage is bookkeeping: it never fails the reply."""
    if not isinstance(usage, dict):
        return 0
    try:
        return max(0, int(usage.get(name, 0)))
    except (TypeError, ValueError, OverflowError):
        return 0


def _parse_retry_after(response: requests.Response) -> Optional[float]:
    """Retry-After in seconds: delay-seconds, or an HTTP-date (always GMT) as
    the delay from now, never below 0; None when absent or unreadable (NaN
    included).  Delay-seconds too large for a float read as infinity."""
    value = response.headers.get("Retry-After")
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        pass
    else:
        return None if math.isnan(seconds) else seconds
    try:
        return max(0.0, email.utils.parsedate_to_datetime(value).timestamp() - time.time())
    except ValueError:
        return None


# --- record/replay cache --------------------------------------------------------

class CacheMode(enum.Enum):
    RECORD = "record"
    REPLAY = "replay"


# Hashed first by every key, so a change of key or entry layout misses old stores.
CACHE_FORMAT = b"atomic-reasoner cache 3"


def _hash_fields(state, fields) -> None:
    for field in fields:
        data = field.encode("utf-8")
        state.update(b"%d:" % len(data))
        state.update(data)


@functools.lru_cache(maxsize=256, typed=True)
def _head_state(model: str, temperature: float, max_tokens: int, seed, role: str, content: str):
    """sha256 state over CACHE_FORMAT and a request's fixed head: the fields
    ``cache_key`` hashes before the second message.  Shared; never updated."""
    state = hashlib.sha256(CACHE_FORMAT)
    _hash_fields(state, (model, repr(temperature), str(max_tokens), str(seed), role, content))
    return state


def cache_key(request: CompletionRequest, model: str) -> str:
    """sha256 over CACHE_FORMAT and the length-prefixed UTF-8 of the model,
    ``repr(temperature)``, ``max_tokens``, ``seed`` and each message's role
    and content.  The tag is not part of the key.

    The hash state after the head (CACHE_FORMAT through the first message's
    content) is computed once per distinct head and copied; only the later
    messages are hashed per call."""
    first = request.messages[0]
    state = _head_state(
        model, request.temperature, request.max_tokens, request.seed, first.role, first.content
    ).copy()
    for message in request.messages[1:]:  # ``_hash_fields`` of role and content, in two updates
        role, content = message.role.encode("utf-8"), message.content.encode("utf-8")
        state.update(b"%d:%s%d:" % (len(role), role, len(content)))
        state.update(content)
    return state.hexdigest()


# Bytes asked for by the first read of an entry: the header and a 2048-token
# reply (about 8 KB of text) arrive in it.
_READ_SIZE = 8192


class CacheBackend:
    """Record/replay layer over another backend; one file per key.

    The key (``cache_key``) covers the model, temperature, max_tokens, seed
    and messages, not the tag.  An entry (format 3) is an ASCII header line
    ``<text bytes> <prompt_tokens> <completion_tokens>``, the reply's raw
    UTF-8 text and a newline, then one compact JSON line ``{"request": ...}``
    with the model and tag, for audit.  A hit is one read of the entry, and
    one more only when the text does not fit in it; it checks the header,
    the text's length and the newline after it, decodes the text, and parses
    no JSON.  Stores recorded before format 3 miss and must be re-recorded.

    Recording is single-flight per key: concurrent callers of one request
    wait for the first one's entry, so the inner backend sees each key once.
    Callers with different keys never wait on each other, and replay takes
    no lock."""

    def __init__(
        self,
        inner,
        mode: CacheMode,
        store_path: Union[str, Path],
        strict: bool = True,
    ):
        if inner is None and (mode is CacheMode.RECORD or not strict):
            raise ValueError(f"a {mode.value} cache that asks on a miss needs an inner backend")
        self.inner = inner
        self.mode = mode
        self.strict = strict
        self.store = Path(store_path)
        self.model = getattr(inner, "model", "scripted")
        self._prefix = os.path.join(self.store, "")
        self._guard = threading.Lock()
        self._key_locks: dict[str, list] = {}  # key -> [lock, callers holding or waiting]
        if mode is CacheMode.RECORD:
            self.store.mkdir(parents=True, exist_ok=True)

    @contextlib.contextmanager
    def _single_flight(self, key: str):
        with self._guard:
            entry = self._key_locks.setdefault(key, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._guard:
                entry[1] -= 1
                if not entry[1]:
                    del self._key_locks[key]

    def complete(self, request: CompletionRequest) -> CompletionResult:
        key = cache_key(request, self.model)

        if self.mode is CacheMode.REPLAY:
            result = self._load(key)
            if result is not None:
                return result
            if self.strict:
                raise MalformedResponse(
                    f"cache miss (tag={request.tag}) in {self.store}", excerpt=key
                )
            return self.inner.complete(request)

        with self._single_flight(key):
            result = self._load(key)
            if result is None:
                result = self.inner.complete(request)
                self._write(key, request, result)
        return result

    def _write(self, key: str, request: CompletionRequest, result: CompletionResult) -> None:
        text = result.text.encode("utf-8")
        audit = {
            "request": {
                "model": self.model,
                "messages": [[m.role, m.content] for m in request.messages],
                "temperature": request.temperature,
                "max_tokens": request.max_tokens,
                "seed": request.seed,
                "tag": request.tag,
            },
        }
        entry = b"%d %d %d\n%s\n%s\n" % (
            len(text),
            result.prompt_tokens,
            result.completion_tokens,
            text,
            json.dumps(audit, ensure_ascii=False, separators=(",", ":")).encode("utf-8"),
        )
        # A reader sees either no entry or a whole one: write aside, then rename.
        fd, tmp = tempfile.mkstemp(dir=self.store, prefix=f".{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(entry)
            os.replace(tmp, f"{self._prefix}{key}.json")
        except BaseException:
            os.unlink(tmp)
            raise

    def _load(self, key: str) -> Optional[CompletionResult]:
        """The stored result for ``key``, from the entry's header and text;
        None when there is no entry."""
        try:
            fd = os.open(f"{self._prefix}{key}.json", os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            entry = os.read(fd, _READ_SIZE)
            end = entry.find(b"\n")
            header = entry[:end] if end >= 0 else entry
            fields = header.split(b" ")
            if end < 0 or len(fields) != 3 or not all(map(bytes.isdigit, fields)):
                raise ValueError(f"bad header {header[:64]!r}")
            size, prompt_tokens, completion_tokens = map(int, fields)
            start, stop = end + 1, end + 1 + size  # the text, sliced out of ``entry``
            if len(entry) <= stop and size < os.fstat(fd).st_size:
                entry += os.read(fd, stop + 1 - len(entry))
            if len(entry) <= stop or entry[stop] != 0x0A:
                raise ValueError(f"text is not {size} bytes and a newline")
            return CompletionResult(
                text=entry[start:stop].decode("utf-8"),
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                source=ResultSource.CACHE if self.mode is CacheMode.REPLAY else ResultSource.RECORDING,
            )
        except ValueError as exc:
            raise MalformedResponse(f"corrupt cache entry {key}.json: {exc}")
        finally:
            os.close(fd)


class TallyBackend:
    """Wrapper that accumulates token usage across calls (thread-safe)."""

    def __init__(self, inner):
        self.inner = inner
        self.model = getattr(inner, "model", "scripted")
        self._lock = threading.Lock()
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def complete(self, request: CompletionRequest) -> CompletionResult:
        result = self.inner.complete(request)
        with self._lock:
            self.prompt_tokens += result.prompt_tokens
            self.completion_tokens += result.completion_tokens
        return result
