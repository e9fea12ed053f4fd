"""Span tracing of the engine's layers without editing the engine.

Every cross-module call in the package goes through a module attribute
(``executor_mod.execute``, ``prompts.build_*``, ``model.render_tree``,
``puzzles.brute_solve`` ...), and intra-module calls look names up in the
same module dict, so replacing a module attribute with a timing wrapper
records a span at each layer boundary.  Backend ``complete`` methods are
wrapped on their classes.

Spans are aggregated as they end (count, total time, self time per name);
self time is a span's duration minus the time of its direct child spans.
Model wait (the simulated model, or the whole HTTP call) is a child span, so
it is excluded from every engine layer's self time.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

WAIT_SPANS = ("sim.wait", "backends.HttpBackend.complete")


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    """Installs span wrappers, aggregates spans, and removes the wrappers."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.count: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)  # span ms, names in ``keep``
        self.counters: dict[str, float] = defaultdict(float)
        self.keep: set[str] = set()

    # --- installation ------------------------------------------------------

    def wrap_module(self, module, prefix: str, hooks: Optional[dict] = None) -> None:
        """Wrap every public function defined in ``module``."""
        hooks = hooks or {}
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            self.patch(module, name, f"{prefix}.{name}", hooks.get(name))

    def patch(self, owner, attr: str, span: str, hook: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``span``."""
        self.replace(owner, attr, self._wrapper(span, getattr(owner, attr), hook))

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until ``uninstall``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper(self, span: str, fn, hook):
        local = self._local
        record = self._record

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            frame = _Frame()
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                record(span, elapsed, elapsed - frame.child)
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- aggregation -------------------------------------------------------

    def _record(self, span: str, elapsed: float, own: float) -> None:
        with self._lock:
            self.count[span] += 1
            self.total_s[span] += elapsed
            self.self_s[span] += own
            if span in self.keep:
                self.samples[span].append(elapsed * 1000.0)

    def add(self, counter: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    @property
    def thread_state(self) -> dict:
        """Per-thread scratch space (reset by callers at trial start)."""
        return self._local.__dict__.setdefault("state", {})

    def reset_thread_state(self) -> None:
        self._local.__dict__["state"] = {}

    def self_ms(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix + ".")) * 1000.0

    def total_ms(self, span: str) -> float:
        return self.total_s.get(span, 0.0) * 1000.0


def shared_prefix(a: str, b: str) -> int:
    """Length of the common prefix of two strings (binary search on slices)."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo
