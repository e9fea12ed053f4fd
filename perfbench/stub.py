"""Loopback OpenAI-compatible chat-completions stub serving the simulated model.

Run as ``python3 perfbench/stub.py --seed N --shape wide --suite FILE``.  It
binds 127.0.0.1 on a free port, prints ``PORT <n>`` on stdout and serves
until it receives SIGTERM or SIGINT or its stdin reaches end of file.

* ``POST /v1/chat/completions`` answers with ``SimModel`` after waiting the
  latency model's time for the call (minus the model's own compute time).
  The response header ``X-Sim-Service-Ms`` carries the time spent serving.
* A seeded share of requests is throttled with 429 and ``Retry-After``: the
  first arrival of a throttled request body, the third, and so on, so each
  throttled call succeeds on its retry and a repeated session is throttled
  again in the same places.
* ``GET /stats`` returns request, throttle and connection counts.

HTTP/1.1 keep-alive: one thread per client connection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import socketserver
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from simmodel import SHAPES, LatencyModel, SimModel, load_records  # noqa: E402


class _Stub:
    def __init__(self, model: SimModel, latency: LatencyModel, seed: int, throttle_share: float, retry_after: float):
        self.model = model
        self.latency = latency
        self.seed = seed
        self.throttle_share = throttle_share
        self.retry_after = retry_after
        self.lock = threading.Lock()
        self.arrivals: dict[str, int] = {}
        self.stats = {"requests": 0, "throttled": 0, "connections": 0}

    def throttled(self, body: bytes) -> bool:
        key = hashlib.sha256(body).hexdigest()
        with self.lock:
            self.stats["requests"] += 1
            count = self.arrivals.get(key, 0)
            self.arrivals[key] = count + 1
        draw = int(hashlib.sha256(f"{self.seed}:{key}".encode()).hexdigest()[:8], 16) / 0x100000000
        hit = draw < self.throttle_share and count % 2 == 0
        if hit:
            with self.lock:
                self.stats["throttled"] += 1
        return hit


_REASONS = {200: "OK", 404: "Not Found", 429: "Too Many Requests"}


def _response(status: int, payload: dict, headers: dict | None = None) -> bytes:
    data = json.dumps(payload).encode("utf-8")
    head = [f"HTTP/1.1 {status} {_REASONS[status]}", "Content-Type: application/json",
            f"Content-Length: {len(data)}"]
    head += [f"{name}: {value}" for name, value in (headers or {}).items()]
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + data


def _handler(stub: _Stub):
    class Handler(socketserver.StreamRequestHandler):
        """Minimal HTTP/1.1 keep-alive server: one request after another on a
        connection, each answered with a single write."""

        disable_nagle_algorithm = True  # else delayed ACKs add ~40 ms per response

        def handle(self):
            with stub.lock:
                stub.stats["connections"] += 1
            while True:
                request_line = self.rfile.readline()
                if not request_line.strip():
                    return
                method, path = request_line.split()[:2]
                length = 0
                while True:
                    header = self.rfile.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                body = self.rfile.read(length)
                self.wfile.write(self._answer(method, path.decode("ascii"), body))

        def _answer(self, method: bytes, path: str, body: bytes) -> bytes:
            if method == b"GET" and path == "/stats":
                with stub.lock:
                    return _response(200, dict(stub.stats))
            if method != b"POST" or not path.endswith("/chat/completions"):
                return _response(404, {"error": "not found"})
            started = time.perf_counter()
            if stub.throttled(body):
                return _response(429, {"error": "rate limited"}, {"Retry-After": str(stub.retry_after)})
            request = json.loads(body)
            messages = [(m["role"], m["content"]) for m in request["messages"]]
            text = stub.model.respond(messages)
            prompt_chars = sum(len(c) for _, c in messages)
            wait = stub.latency.wait_s(prompt_chars, len(text)) - (time.perf_counter() - started)
            if wait > 0:
                time.sleep(wait)
            payload = {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": prompt_chars // 4, "completion_tokens": len(text) // 4},
            }
            service_ms = (time.perf_counter() - started) * 1000.0
            return _response(200, payload, {"X-Sim-Service-Ms": f"{service_ms:.4f}"})

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--suite", required=True, help="JSONL suite the model knows")
    parser.add_argument("--latency", required=True, help="latency model as JSON")
    parser.add_argument("--throttle-share", type=float, default=0.0)
    parser.add_argument("--retry-after", type=float, default=0.01)
    args = parser.parse_args(argv)

    model = SimModel(args.seed, SHAPES[args.shape], load_records(args.suite))
    stub = _Stub(model, LatencyModel(**json.loads(args.latency)), args.seed, args.throttle_share, args.retry_after)
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _handler(stub))
    server.daemon_threads = True

    def stop(signum, frame):
        threading.Thread(target=server.shutdown).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    def stop_when_parent_goes():
        sys.stdin.read()  # returns at EOF: the benchmark closed the pipe or died
        server.shutdown()

    threading.Thread(target=stop_when_parent_goes, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
