import ast
import dataclasses
import datetime
import email.utils
import hashlib
import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from atomic_reasoner import backends, bench, metrics, model, router, sop
from atomic_reasoner.backends import (
    CacheBackend,
    CacheMode,
    ChatMessage,
    CompletionRequest,
    CompletionResult,
    HttpBackend,
    HttpConfig,
    ResultSource,
    ScriptedBackend,
    cache_key,
)
from atomic_reasoner.errors import (
    AuthError,
    BackendTimeout,
    MalformedResponse,
    RateLimited,
    ScriptExhausted,
)


def make_request(text="hello", tag="solve", temperature=0.5):
    return CompletionRequest(
        messages=[ChatMessage("system", "sys"), ChatMessage("user", text)],
        temperature=temperature,
        tag=tag,
    )


def ok_payload(content="pong", prompt_tokens=3, completion_tokens=2):
    return {
        "choices": [{"message": {"role": "assistant", "content": content}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


class StubHandler(BaseHTTPRequestHandler):
    """Serves a scripted sequence of behaviors shared via the server object.
    A ``("status", code)`` entry may give ``(code, headers)`` instead."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.requests.append(json.loads(body))
        behavior = (
            self.server.script.pop(0) if self.server.script else ("ok", ok_payload())
        )
        kind, payload = behavior
        if kind == "status":
            status, headers = payload if isinstance(payload, tuple) else (payload, {})
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(b'{"error": "scripted"}')
        elif kind == "malformed":
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload.encode())
        else:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(json.dumps(payload).encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.script = []
    server.requests = []
    server.backends = []  # every backend make_http_backend built against it
    # ``shutdown()`` waits for ``serve_forever`` to poll; the default 0.5 s
    # interval would add up to that to every HTTP test's teardown.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield server
    for backend in server.backends:
        backend.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def make_http_backend(server, sleep=None, **overrides):
    sleeps = []
    config = HttpConfig(
        base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
        model="stub-model",
        **overrides,
    )
    backend = HttpBackend(config, sleep=sleep or sleeps.append, rng=random.Random(0))
    server.backends.append(backend)
    return backend, sleeps


class TestScriptedBackend:
    def test_fifo_queue(self):
        backend = ScriptedBackend({"solve": ["one", "two"]})
        assert backend.complete(make_request()).text == "one"
        assert backend.complete(make_request()).text == "two"
        with pytest.raises(ScriptExhausted):
            backend.complete(make_request())

    def test_script_must_be_keyed_by_tag(self):
        with pytest.raises(TypeError):
            ScriptedBackend(["one", "two"])

    @pytest.mark.parametrize("value", [5, None, ["one", 2], ("one",), {"text": "one"}])
    def test_script_value_that_is_not_text_is_rejected_at_construction(self, value):
        with pytest.raises(TypeError, match="'routing'"):
            ScriptedBackend({"solve": ["one"], "routing": value})

    def test_tag_keyed_queues_and_infinite_string(self):
        backend = ScriptedBackend({"solve": ["a"], "check": "always"})
        assert backend.complete(make_request(tag="check")).text == "always"
        assert backend.complete(make_request(tag="check")).text == "always"
        assert backend.complete(make_request(tag="solve")).text == "a"
        with pytest.raises(ScriptExhausted):
            backend.complete(make_request(tag="solve"))

    def test_callable_default(self):
        backend = ScriptedBackend({}, default=lambda r: r.messages[-1].content.upper())
        assert backend.complete(make_request("echo me")).text == "ECHO ME"

    def test_records_calls(self):
        backend = ScriptedBackend({"solve": ["x"]})
        backend.complete(make_request("traced"))
        assert backend.calls[0].messages[-1].content == "traced"

    def test_result_source(self):
        backend = ScriptedBackend({"solve": ["x"]})
        assert backend.complete(make_request()).source is ResultSource.SCRIPT


class TestRequestValidation:
    def test_empty_messages_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(messages=[], temperature=0.5, tag="solve")

    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            make_request(temperature=2.5)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            make_request(tag="divination")


class TestHttpConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_concurrent", 0),
            ("timeout", 0),
            ("timeout", -1.0),
            ("timeout", float("nan")),
            ("backoff_base", -0.5),
            ("max_retries", -1),
        ],
        ids=["max_concurrent-0", "timeout-0", "timeout-negative", "timeout-nan", "backoff_base-negative", "max_retries-negative"],
    )
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HttpConfig(base_url="http://127.0.0.1:9/v1", **{field: value})

    def test_edge_values_accepted(self):
        HttpConfig(base_url="http://127.0.0.1:9/v1", timeout=30, max_retries=0, backoff_base=0.0, max_concurrent=1)
        HttpConfig(base_url="http://127.0.0.1:9/v1", timeout=30, backoff_base=0.004, max_concurrent=2)


# A reply whose content holds an unpaired surrogate escape (half of a cut
# emoji) beside a whole escaped pair.
SURROGATE_BODY = '{"choices": [{"message": {"content": "cut \\ud83d, whole \\ud83d\\ude00, \\udc00"}}]}'
SURROGATE_TEXT = "cut \ufffd, whole \U0001f600, \ufffd"


class TestHttpBackend:
    def test_unpaired_surrogate_becomes_replacement_character(self, stub_server):
        stub_server.script = [("malformed", SURROGATE_BODY)]
        backend, _ = make_http_backend(stub_server)
        text = backend.complete(make_request()).text
        assert text == SURROGATE_TEXT
        text.encode("utf-8")

    def test_unpaired_surrogate_records_and_replays(self, stub_server, tmp_path):
        stub_server.script = [("malformed", SURROGATE_BODY)]
        backend, _ = make_http_backend(stub_server)
        assert CacheBackend(backend, CacheMode.RECORD, tmp_path).complete(make_request()).text == SURROGATE_TEXT
        replayer = CacheBackend(None, CacheMode.REPLAY, tmp_path)
        replayer.model = backend.model
        assert replayer.complete(make_request()).text == SURROGATE_TEXT

    def test_session_over_unpaired_surrogates_serializes_its_trace(self, stub_server):
        stub_server.script = [("malformed", SURROGATE_BODY)] * 64
        backend, _ = make_http_backend(stub_server)
        problem = model.Problem(id="p", statement="A puzzle.", answer_schema=model.FreeText())
        tree, final = router.run_session(problem, config=router.SessionConfig(max_rounds=2), backends=backend)
        assert final.text == SURROGATE_TEXT
        metrics.serialize_trace(tree).encode("utf-8")

    def test_ok_parses_text_and_usage(self, stub_server):
        stub_server.script = [("ok", ok_payload("answer text", 11, 7))]
        backend, _ = make_http_backend(stub_server)
        result = backend.complete(make_request())
        assert result.text == "answer text"
        assert result.prompt_tokens == 11 and result.completion_tokens == 7
        assert result.source is ResultSource.NETWORK
        sent = stub_server.requests[0]
        assert sent["model"] == "stub-model"
        assert sent["messages"][0] == {"role": "system", "content": "sys"}

    def test_retries_429_then_500_then_succeeds(self, stub_server):
        stub_server.script = [("status", 429), ("status", 500), ("ok", ok_payload())]
        backend, sleeps = make_http_backend(stub_server)
        assert backend.complete(make_request()).text == "pong"
        assert len(stub_server.requests) == 3
        assert len(sleeps) == 2  # one backoff per failed attempt

    def test_backoff_is_exponential_with_jitter(self, stub_server):
        stub_server.script = [("status", 500)] * 3 + [("ok", ok_payload())]
        backend, sleeps = make_http_backend(stub_server)
        backend.complete(make_request())
        # base 1s, factor 2, jitter in [0.5x, 1.5x)
        for attempt, delay in enumerate(sleeps):
            assert 0.5 * 2**attempt <= delay < 1.5 * 2**attempt

    def test_exhausted_retries_raise_rate_limited(self, stub_server):
        stub_server.script = [("status", 429)] * 10
        backend, _ = make_http_backend(stub_server, max_retries=2)
        with pytest.raises(RateLimited):
            backend.complete(make_request())
        assert len(stub_server.requests) == 3  # initial + 2 retries

    def test_retry_after_seconds_is_the_backoff(self, stub_server):
        stub_server.script = [("status", (429, {"Retry-After": "7"})), ("ok", ok_payload())]
        backend, sleeps = make_http_backend(stub_server)
        assert backend.complete(make_request()).text == "pong"
        assert sleeps == [7.0]

    def test_retry_after_http_date_waits_until_that_date(self, stub_server):
        when = datetime.datetime.now(datetime.timezone.utc) + datetime.timedelta(seconds=30)
        retry_after = email.utils.format_datetime(when, usegmt=True)
        stub_server.script = [("status", (429, {"Retry-After": retry_after})), ("ok", ok_payload())]
        backend, sleeps = make_http_backend(stub_server)
        assert backend.complete(make_request()).text == "pong"
        (delay,) = sleeps
        assert 25 < delay <= 30  # the date has whole seconds

    @pytest.mark.parametrize(
        "retry_after",
        ["Wed, 21 Oct 2015 07:28:00 GMT", "soon", "nan"],
        ids=["past-date", "unreadable", "nan"],
    )
    def test_retry_after_past_or_unreadable_leaves_the_backoff(self, stub_server, retry_after):
        stub_server.script = [("status", (429, {"Retry-After": retry_after})), ("ok", ok_payload())]
        backend, sleeps = make_http_backend(stub_server)
        assert backend.complete(make_request()).text == "pong"
        (delay,) = sleeps
        assert 0.5 <= delay < 1.5  # base 1 s with jitter, the first attempt's backoff

    @pytest.mark.parametrize(
        "retry_after, seconds",
        [
            ("inf", float("inf")),
            ("1e400", float("inf")),
            ("9" * 400, float("inf")),
            ("Fri, 31 Dec 9999 23:59:59 GMT", None),
            ("121", 121.0),
        ],
        ids=["inf", "1e400", "400-digits", "year-9999", "past-the-timeout"],
    )
    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_past_the_timeout_raises_at_once(
        self, stub_server, status, retry_after, seconds
    ):
        """A wait longer than ``HttpConfig.timeout`` (120 s) is not slept
        through: ``time.sleep`` itself raises OverflowError for most of these."""
        stub_server.script = [("status", (status, {"Retry-After": retry_after})), ("ok", ok_payload())]
        sleeps = []

        def sleep(delay):
            sleeps.append(delay)
            time.sleep(delay)

        backend, _ = make_http_backend(stub_server, sleep=sleep)
        with pytest.raises(RateLimited if status == 429 else BackendTimeout) as excinfo:
            backend.complete(make_request())
        assert sleeps == [] and len(stub_server.requests) == 1
        if status == 429:
            retry = excinfo.value.retry_after
            assert retry == seconds if seconds is not None else retry > 2.5e11

    def test_run_benchmark_records_an_unhonoured_retry_after_as_a_failed_trial(self, stub_server):
        stub_server.script = [("status", (429, {"Retry-After": "inf"}))]
        backend, _ = make_http_backend(stub_server, sleep=time.sleep)
        task = bench.gen_puzzle(0, 3, 2)[0]
        report = bench.run_benchmark([task], "ar", backend, trials=1, workers=1)
        (result,) = report.results
        assert result.verdict.failure == "BackendFailure"

    def test_auth_error_is_immediate(self, stub_server):
        stub_server.script = [("status", 401)]
        backend, _ = make_http_backend(stub_server)
        with pytest.raises(AuthError):
            backend.complete(make_request())
        assert len(stub_server.requests) == 1  # never retried

    def test_malformed_body_raises(self, stub_server):
        stub_server.script = [("malformed", '{"choices": []}')]
        backend, _ = make_http_backend(stub_server)
        with pytest.raises(MalformedResponse):
            backend.complete(make_request())

    @pytest.mark.parametrize(
        "usage",
        [
            None,
            {"prompt_tokens": None, "completion_tokens": None},
            {"prompt_tokens": "12.5", "completion_tokens": "2.5"},
            {"prompt_tokens": -3, "completion_tokens": float("inf")},
            "12 tokens",
            [11, 7],
        ],
        ids=["null-usage", "null-counts", "fractional-strings", "negative-and-inf", "string", "list"],
    )
    def test_malformed_usage_keeps_the_reply_with_zero_tokens(self, stub_server, usage):
        stub_server.script = [("ok", {**ok_payload("answer text"), "usage": usage})]
        backend, _ = make_http_backend(stub_server)
        result = backend.complete(make_request())
        assert result.text == "answer text"
        assert (result.prompt_tokens, result.completion_tokens) == (0, 0)

    def test_timeout_retried_then_raised(self, stub_server, monkeypatch):
        import requests as requests_lib

        backend, sleeps = make_http_backend(stub_server, max_retries=1)

        def always_timeout(*args, **kwargs):
            raise requests_lib.Timeout("scripted timeout")

        monkeypatch.setattr(backend._session, "post", always_timeout)
        with pytest.raises(BackendTimeout):
            backend.complete(make_request())
        assert len(sleeps) == 1

    def test_backoff_releases_the_concurrency_slot(self, stub_server):
        stub_server.script = [("status", 429), ("ok", ok_payload("second")), ("ok", ok_payload("first"))]
        second = {}

        def sleep(delay):
            # the first caller is backing off: a second caller must get the only slot now
            caller = threading.Thread(target=lambda: second.update(result=backend.complete(make_request())))
            caller.start()
            caller.join(timeout=5)
            second["finished_during_backoff"] = not caller.is_alive()

        backend, _ = make_http_backend(stub_server, sleep=sleep, max_concurrent=1)
        assert backend.complete(make_request()).text == "first"
        assert second["finished_during_backoff"]
        assert second["result"].text == "second"

    def test_close_closes_only_a_session_it_made(self, monkeypatch):
        closed = []
        config = HttpConfig(base_url="http://127.0.0.1:9/v1", model="stub-model")
        given = backends.requests.Session()
        monkeypatch.setattr(given, "close", lambda: closed.append("given"))
        HttpBackend(config, session=given).close()
        assert closed == []
        own = HttpBackend(config)
        monkeypatch.setattr(own._session, "close", lambda: closed.append("own"))
        own.close()
        assert closed == ["own"]

    def test_api_key_header_from_env(self, stub_server, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-unit-test")
        stub_server.script = [("ok", ok_payload())]
        backend, _ = make_http_backend(stub_server)

        captured = {}
        original = backend._session.post

        def spy(url, **kwargs):
            captured.update(kwargs["headers"])
            return original(url, **kwargs)

        backend._session.post = spy
        backend.complete(make_request())
        assert captured["Authorization"] == "Bearer sk-unit-test"


def jittered_backoffs(count, floor=None):
    """The first ``count`` backoffs of an HttpBackend with ``backoff_base``
    1 s and ``rng=random.Random(0)``: 2**attempt s times a jitter in
    [0.5, 1.5), never below ``floor``."""
    rng = random.Random(0)
    return [max(2**attempt * (0.5 + rng.random()), floor or 0.0) for attempt in range(count)]


@pytest.mark.parametrize(
    "reply, max_retries, error, message, retried, retry_after",
    [
        (("status", 400), 2, MalformedResponse, "unexpected status 400", False, None),
        (("status", 404), 2, MalformedResponse, "unexpected status 404", False, None),
        (("status", 401), 2, AuthError, "auth failed with status 401", False, None),
        (("status", 403), 2, AuthError, "auth failed with status 403", False, None),
        (("status", 429), 0, RateLimited, "status 429", True, None),
        (("status", 429), 2, RateLimited, "status 429", True, None),
        (("status", (429, {"Retry-After": "7"})), 2, RateLimited, "status 429", True, 7.0),
        (("status", 503), 0, BackendTimeout, "server error 503", True, None),
        (("status", 503), 2, BackendTimeout, "server error 503", True, None),
        (("status", (503, {"Retry-After": "7"})), 2, BackendTimeout, "server error 503", True, 7.0),
        ("connection", 2, BackendTimeout, "connection error: refused", True, None),
        ("timeout", 2, BackendTimeout, "request timed out after 120.0s", True, None),
        (("ok", ok_payload(None)), 2, MalformedResponse, "completion content is not text", False, None),
        (("ok", ok_payload(["a list"])), 2, MalformedResponse, "completion content is not text", False, None),
        (("malformed", '{"choices": []}'), 2, MalformedResponse, "unparseable completion body", False, None),
        (("malformed", "not json"), 2, MalformedResponse, "unparseable completion body", False, None),
    ],
    ids=[
        "400", "404", "401", "403", "429-no-retries", "429", "429-retry-after", "503-no-retries", "503",
        "503-retry-after", "connection-error", "timeout", "null-content", "list-content", "no-choices",
        "not-json",
    ],
)
def test_http_failure_table(stub_server, monkeypatch, reply, max_retries, error, message, retried, retry_after):
    """Each failure HttpBackend meets: the error it raises and its message,
    the requests it sends and the backoffs it sleeps.  A retried failure is
    sent ``max_retries + 1`` times with a backoff after each attempt but the
    last; a ``Retry-After`` is the backoff's floor."""
    import requests as requests_lib

    stub_server.script = [reply] * 10
    backend, sleeps = make_http_backend(stub_server, max_retries=max_retries)
    posts = []
    post = backend._session.post

    def spy(url, **kwargs):
        posts.append(url)
        if reply == "connection":
            raise requests_lib.ConnectionError("refused")
        if reply == "timeout":
            raise requests_lib.Timeout("scripted timeout")
        return post(url, **kwargs)

    monkeypatch.setattr(backend._session, "post", spy)
    with pytest.raises(error) as excinfo:
        backend.complete(make_request())
    assert type(excinfo.value) is error and str(excinfo.value) == message
    assert len(posts) == (max_retries + 1 if retried else 1)
    assert sleeps == jittered_backoffs(max_retries if retried else 0, retry_after)
    if error is RateLimited:
        assert excinfo.value.retry_after == retry_after
    else:
        assert not hasattr(excinfo.value, "retry_after")


@pytest.mark.parametrize(
    "body",
    [
        '{"choices": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"choices": [{"message": {"content": "x"}}], "n": ' + "7" * 5000 + "}",
    ],
    ids=["deep", "long-integer"],
)
def test_a_body_too_deep_or_too_long_to_read_fails_one_trial(stub_server, body):
    """A 200 body that ``json`` cannot read is a MalformedResponse, so a
    benchmark records its trial as a BackendFailure and runs on."""
    stub_server.script = [("malformed", body)] * 2
    backend, sleeps = make_http_backend(stub_server)
    with pytest.raises(MalformedResponse, match="^unparseable completion body$"):
        backend.complete(make_request())
    task = bench.gen_puzzle(0, 3, 2)[0]
    report = bench.run_benchmark([task], "ar", backend, trials=1, workers=1)
    (result,) = report.results
    assert result.verdict.failure == "BackendFailure"
    assert len(stub_server.requests) == 2 and sleeps == []


def reference_key(request, model, tag=backends.CACHE_FORMAT):
    """``cache_key`` as one pass over the documented byte stream under ``tag``."""
    fields = [model, repr(request.temperature), str(request.max_tokens), str(request.seed)]
    for message in request.messages:
        fields += (message.role, message.content)
    parts = [tag]
    for field in fields:
        data = field.encode("utf-8")
        parts += (b"%d:" % len(data), data)
    return hashlib.sha256(b"".join(parts)).hexdigest()


class BlockingBackend:
    """Inner backend that answers each prompt with ``answer to <prompt>``;
    a call for ``blocked`` waits until ``release`` is set (at most 5 s)."""

    def __init__(self, blocked: str):
        self.blocked = blocked
        self.entered = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()
        self.calls: list[str] = []

    def complete(self, request):
        text = request.messages[-1].content
        with self._lock:
            self.calls.append(text)
        if text == self.blocked:
            self.entered.set()
            self.release.wait(5)
        return CompletionResult(text=f"answer to {text}")


class TestCacheBackend:
    @pytest.mark.parametrize(
        "mode, strict", [(CacheMode.RECORD, True), (CacheMode.RECORD, False), (CacheMode.REPLAY, False)]
    )
    def test_a_cache_that_asks_on_a_miss_needs_an_inner_backend(self, tmp_path, mode, strict):
        """Else the first miss raises ``AttributeError``, which no session or
        benchmark catches."""
        with pytest.raises(ValueError, match=f"a {mode.value} cache"):
            CacheBackend(None, mode, tmp_path / "store", strict=strict)
        assert not (tmp_path / "store").exists()

    def test_key_is_stable_and_order_sensitive(self):
        a = cache_key(make_request("one"), "m")
        assert a == cache_key(make_request("one"), "m")
        assert a == cache_key(make_request("one", tag="routing"), "m")  # the tag is not in the key
        assert a != cache_key(make_request("two"), "m")
        assert a != cache_key(make_request("one"), "other-model")

    def test_key_golden_digest(self):
        request = CompletionRequest(
            messages=[ChatMessage("system", "sys"), ChatMessage("user", "Which house? é")],
            temperature=0.5,
            max_tokens=512,
            seed=3,
            tag="routing",
        )
        assert cache_key(request, "gpt-4o-mini") == (
            "cdc5117ec998ea20fad5f3b66a846eb4087aff1a6493f5c21393ca04ddea242f"
        )

    def test_key_equals_the_one_pass_reference(self):
        """The cached head state leaves the key as the documented byte stream
        hashes it, for any head shared or not, and from threads sharing one."""
        rng = random.Random(11)
        words = ["sys", "q", "é", "日本", "🦓", "", "a b", "{{tree}}", "1:2"]

        def text():
            return " ".join(rng.choice(words) for _ in range(rng.randrange(4)))

        requests = [
            CompletionRequest(
                messages=[ChatMessage(rng.choice(["system", "user"]), text()) for _ in range(rng.randint(1, 3))],
                temperature=rng.choice([0.0, 0.2, 0.5, 0.7, 1, 1.0]),
                max_tokens=rng.choice([512, 2048]),
                seed=rng.choice([None, 0, 1]),
                tag=rng.choice(["routing", "solve"]),
            )
            for _ in range(300)
        ]
        for request in requests:
            for model in ("m", "gpt-4o-mini", "é-model"):
                assert cache_key(request, model) == reference_key(request, model)

        head = [ChatMessage("system", "shared head é")]
        shared = [
            CompletionRequest(messages=head + [ChatMessage("user", f"q{i} 日本")] * (1 + i % 2))
            for i in range(64)
        ]
        expected = [reference_key(request, "m") for request in shared]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(4):
                    assert list(pool.map(lambda request: cache_key(request, "m"), shared)) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"messages": [("user", "ab"), ("user", "c")]}, {"messages": [("user", "a"), ("user", "bc")]}),
            ({"messages": [("user", "system")]}, {"messages": [("system", "user")]}),
            ({"seed": None}, {"seed": 0}),
            ({"temperature": 0.7}, {"temperature": 0.70000001}),
            ({"max_tokens": 2048}, {"max_tokens": 2049}),
            ({"model": "m"}, {"model": "m2"}),
            ({"messages": [("user", "q")]}, {"messages": [("user", "q"), ("user", "q")]}),
        ],
    )
    def test_key_tells_requests_apart(self, first, second):
        def key(fields):
            fields = dict(fields)
            model = fields.pop("model", "m")
            messages = [ChatMessage(*m) for m in fields.pop("messages", [("user", "q")])]
            return cache_key(CompletionRequest(messages=messages, **fields), model)

        assert key(first) != key(second)

    def test_entry_is_result_line_then_request_line(self, tmp_path):
        reply = "Check Result: No error é.\nLine two."
        inner = ScriptedBackend({"check": [reply]})
        recorder = CacheBackend(inner, CacheMode.RECORD, tmp_path)
        request = dataclasses.replace(make_request("q", tag="check"), seed=1)
        recorder.complete(request)

        key = cache_key(request, "scripted")
        entry = (tmp_path / f"{key}.json").read_bytes()
        text = reply.encode("utf-8")
        assert entry.startswith(b"%d 2 7\n%s\n" % (len(text), text))
        audit = entry[len(b"%d 2 7\n%s\n" % (len(text), text)):]
        assert audit.endswith(b"\n") and audit.count(b"\n") == 1
        assert json.loads(audit) == {
                "request": {
                    "model": "scripted",
                    "messages": [["system", "sys"], ["user", "q"]],
                    "temperature": 0.5,
                    "max_tokens": 2048,
                    "seed": 1,
                    "tag": "check",
                }
            }
        assert list(tmp_path.iterdir()) == [tmp_path / f"{key}.json"]

    def test_replay_reads_only_the_result_line(self, tmp_path):
        """The request line is never parsed: the header and text are the entry."""
        request = make_request("q")
        path = tmp_path / f"{cache_key(request, 'scripted')}.json"
        path.write_bytes(b'6 3 0\nstored\n{"request": not json at all\n')
        result = CacheBackend(None, CacheMode.REPLAY, tmp_path).complete(request)
        assert (result.text, result.prompt_tokens, result.completion_tokens) == ("stored", 3, 0)

    def test_result_line_longer_than_one_read_replays_whole(self, tmp_path):
        request = make_request("q")
        prompt_tokens = sum(len(m.content.split()) for m in request.messages)
        size = 300_000
        header = b"%d %d 1\n" % (size, prompt_tokens)
        # "é" takes the last byte of the first read and the first of the next
        at = backends._READ_SIZE - 1 - len(header)
        text = "a" * at + "é" + "z" * (size - at - 2)
        recorder = CacheBackend(ScriptedBackend({"solve": [text]}), CacheMode.RECORD, tmp_path)
        recorder.complete(request)
        entry = (tmp_path / f"{cache_key(request, 'scripted')}.json").read_bytes()
        assert entry.startswith(header)
        assert entry[backends._READ_SIZE - 1:backends._READ_SIZE + 1] == "é".encode("utf-8")
        result = CacheBackend(None, CacheMode.REPLAY, tmp_path).complete(request)
        assert result.text == text

    def test_entry_without_trailing_newline_replays(self, tmp_path):
        request = make_request("q")
        path = tmp_path / f"{cache_key(request, 'scripted')}.json"
        replayer = CacheBackend(None, CacheMode.REPLAY, tmp_path)
        for entry in (b'9 0 0\nlast line\n{"request": {"tag": "solve"}}', b"9 0 0\nlast line\n"):
            path.write_bytes(entry)
            result = replayer.complete(request)
            assert (result.text, result.prompt_tokens) == ("last line", 0)

    def test_format_2_store_misses(self, tmp_path):
        request = make_request("q")
        old_key = reference_key(request, "scripted", b"atomic-reasoner cache 2")
        (tmp_path / f"{old_key}.json").write_text(
            '{"result":{"text":"old","prompt_tokens":2,"completion_tokens":1}}\n', encoding="utf-8"
        )
        with pytest.raises(MalformedResponse, match="cache miss"):
            CacheBackend(None, CacheMode.REPLAY, tmp_path).complete(request)

    def test_record_then_replay_identical(self, tmp_path):
        inner = ScriptedBackend({"solve": ["recorded answer"]})
        recorder = CacheBackend(inner, CacheMode.RECORD, tmp_path)
        first = recorder.complete(make_request("q"))

        replayer = CacheBackend(None, CacheMode.REPLAY, tmp_path)
        second = replayer.complete(make_request("q"))
        assert second.text == first.text
        assert second.prompt_tokens == first.prompt_tokens
        assert second.source is ResultSource.CACHE

    def test_hit_while_recording_is_its_own_source(self, tmp_path):
        recorder = CacheBackend(ScriptedBackend({"solve": ["recorded answer"]}), CacheMode.RECORD, tmp_path)
        assert recorder.complete(make_request("q")).source is ResultSource.SCRIPT
        hit = recorder.complete(make_request("q"))
        assert (hit.text, hit.source) == ("recorded answer", ResultSource.RECORDING)

    def test_strict_replay_miss_raises(self, tmp_path):
        replayer = CacheBackend(None, CacheMode.REPLAY, tmp_path)
        with pytest.raises(MalformedResponse, match="cache miss"):
            replayer.complete(make_request("never recorded"))

    def test_strict_replay_miss_names_tag_and_store(self, tmp_path):
        replayer = CacheBackend(None, CacheMode.REPLAY, tmp_path)
        with pytest.raises(MalformedResponse) as excinfo:
            replayer.complete(make_request("never recorded", tag="routing"))
        assert str(excinfo.value) == f"cache miss (tag=routing) in {tmp_path}"

    def test_nonstrict_replay_falls_through(self, tmp_path):
        inner = ScriptedBackend({"solve": ["live"]})
        replayer = CacheBackend(inner, CacheMode.REPLAY, tmp_path, strict=False)
        assert replayer.complete(make_request("q")).text == "live"

    def test_record_replay_full_session_byte_identical(self, tmp_path):
        """A whole session recorded, then replayed with no inner backend."""
        from atomic_reasoner import cases, metrics, sop

        fixture = cases.load_case("case1")
        registry = sop.builtin_registry()
        recorder = CacheBackend(fixture.backend(), CacheMode.RECORD, tmp_path)
        tree1, final1 = router.run_session(
            fixture.task.to_problem(), backends=recorder, sop_registry=registry
        )

        replayer = CacheBackend(None, CacheMode.REPLAY, tmp_path)
        tree2, final2 = router.run_session(
            fixture.task.to_problem(), backends=replayer, sop_registry=registry
        )
        assert final2.text == final1.text
        assert metrics.serialize_trace(tree2) == metrics.serialize_trace(tree1)

    def test_reask_under_record_reaches_the_inner_backend(self, tmp_path):
        from atomic_reasoner import model
        from atomic_reasoner.model import AtomicAction, FreeText, Problem

        inner = ScriptedBackend({"routing": ["???", "ACTION: PremiseDiscovery\nGUIDANCE: ok"]})
        recorder = CacheBackend(inner, CacheMode.RECORD, tmp_path)
        tree = model.new_tree(Problem(id="p", statement="A puzzle.", answer_schema=FreeText()))
        decision = router.decide(tree, router.SessionConfig(), recorder)
        assert decision == router.Extend(AtomicAction.PREMISE_DISCOVERY, "ok")
        assert len(inner.calls) == 2

        replayer = CacheBackend(None, CacheMode.REPLAY, tmp_path)
        assert router.decide(tree, router.SessionConfig(), replayer) == decision

    def test_concurrent_record_of_one_request_calls_inner_once(self, tmp_path):
        inner = BlockingBackend("q")
        recorder = CacheBackend(inner, CacheMode.RECORD, tmp_path)
        texts = []
        threads = [
            threading.Thread(target=lambda: texts.append(recorder.complete(make_request("q")).text))
            for _ in range(2)
        ]
        threads[0].start()
        assert inner.entered.wait(5)
        threads[1].start()
        time.sleep(0.1)  # the second caller reaches the cache while the first is blocked
        inner.release.set()
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()
        assert inner.calls == ["q"]
        assert texts == ["answer to q", "answer to q"]

    def test_record_of_another_key_does_not_wait(self, tmp_path):
        inner = BlockingBackend("slow")
        recorder = CacheBackend(inner, CacheMode.RECORD, tmp_path)
        slow = threading.Thread(target=recorder.complete, args=(make_request("slow"),))
        slow.start()
        try:
            assert inner.entered.wait(5)
            assert recorder.complete(make_request("fast")).text == "answer to fast"
            assert slow.is_alive()
        finally:
            inner.release.set()
            slow.join(5)
        assert not slow.is_alive()

    def test_record_stress_each_key_reaches_inner_once(self, tmp_path):
        inner = ScriptedBackend({}, default=lambda request: f"answer to {request.messages[-1].content}")
        recorder = CacheBackend(inner, CacheMode.RECORD, tmp_path)
        requests = [make_request(f"q{i % 5}") for i in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                texts = list(pool.map(lambda request: recorder.complete(request).text, requests))
        finally:
            sys.setswitchinterval(interval)
        assert texts == [f"answer to q{i % 5}" for i in range(40)]
        assert sorted(r.messages[-1].content for r in inner.calls) == [f"q{i}" for i in range(5)]
        assert recorder._key_locks == {}

    def test_concurrent_trials_make_one_trial_of_inner_calls(self, tmp_path):
        task = bench.gen_puzzle(0, 3, 2)[0]
        registry = sop.builtin_registry()
        solo = bench.oracle_session_backend(task)
        router.run_session(task.to_problem(), backends=solo, sop_registry=registry)

        inner = bench.oracle_session_backend(task)
        recorder = CacheBackend(inner, CacheMode.RECORD, tmp_path)
        barrier = threading.Barrier(2, timeout=5)

        def factory(task):
            barrier.wait()  # both trials run at once
            return recorder

        report = bench.run_benchmark(
            [task], "ar", factory, trials=2, workers=2, sop_registry=registry
        )
        assert report.mean_success() == 1.0

        # A request sent ahead (the compression of a chain being left, R2's
        # request during a hypothesis check) races a call of another tag, so
        # compare each tag's calls in their order.
        def by_tag(calls):
            return {tag: [call for call in calls if call.tag == tag] for tag in backends.TAGS}

        assert by_tag(inner.calls) == by_tag(solo.calls)

    @pytest.mark.parametrize(
        "entry",
        [
            "[]",
            '{"result": null}',
            '{"result": {"text": "x", "prompt_tokens": null}}',
            '{"result": {"text": 7}}',
            pytest.param("", id="empty"),
            pytest.param(
                json.dumps({"request": {"tag": "solve"}, "result": {"text": "x"}}, sort_keys=True, indent=2),
                id="format-1",
            ),
            pytest.param(
                '{"result":{"text":"x","prompt_tokens":1,"completion_tokens":1}}\n'
                '{"request":{"model":"scripted","tag":"solve"}}\n',
                id="format-2",
            ),
            pytest.param(b"one 2 3\nx\n", id="non-numeric-header"),
            pytest.param(b"-1 2 3\nx\n", id="negative-header"),
            pytest.param(b"1 2 -3\nx\n", id="negative-token-count"),
            pytest.param(b"1 2\nx\n", id="header-missing-a-field"),
            pytest.param(b"1 2 3", id="header-without-newline"),
            pytest.param(b"5 2 3\nx\n", id="text-shorter-than-header"),
            pytest.param(b"1000000000000 2 3\nx\n", id="text-far-shorter-than-header"),
            pytest.param(b"1 2 3\nxy\n", id="text-longer-than-header"),
            pytest.param(b"2 2 3\n\xc3\x28\n", id="text-not-utf-8"),
        ],
    )
    def test_corrupt_entry_is_malformed_response(self, tmp_path, entry):
        request = make_request("q")
        path = tmp_path / f"{cache_key(request, 'scripted')}.json"
        path.write_bytes(entry if isinstance(entry, bytes) else entry.encode("utf-8"))
        replayer = CacheBackend(None, CacheMode.REPLAY, tmp_path)
        with pytest.raises(MalformedResponse, match="corrupt cache entry"):
            replayer.complete(request)


# --- one path from prompt to reply ---------------------------------------------------

# Where ``.complete(`` may be called, as (module, qualified name): ``ask``, the
# wrappers that pass a request on, and every method of a session's backend.
COMPLETE_CALLERS = {
    ("backends", "ask"),
    ("backends", "CacheBackend.complete"),
    ("backends", "TallyBackend.complete"),
    ("router", "_Replies"),
}


def _complete_calls(node, module, scope=""):
    """(module, qualified name of the enclosing def, line) of each
    ``.complete(`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if child.func.attr == "complete":
                yield module, scope, child.lineno
        yield from _complete_calls(child, module, inner)


def _allowed(module, scope):
    return any(
        module == allowed_module and (scope == name or scope.startswith(name + "."))
        for allowed_module, name in COMPLETE_CALLERS
    )


def test_every_engine_call_goes_through_ask():
    package = Path(backends.__file__).parent
    calls = [
        call
        for path in sorted(package.glob("*.py"))
        for call in _complete_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert {("backends", "ask"), ("router", "_Replies.complete")} <= {call[:2] for call in calls}
    assert [call for call in calls if not _allowed(*call[:2])] == []
