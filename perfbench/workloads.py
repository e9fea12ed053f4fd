"""The benchmark's workloads: set-up, timed region, output checks and metrics.

Session workloads drive ``bench.run_benchmark`` (strategy ``ar``, default
``SessionConfig``, the built-in SOPs) in whole passes over a fixed task list
until the run's seconds are used up and at least ``MIN_TRIALS`` trials ran,
so per-session counts are exact: every pass makes the same calls.  ``genpuzzles`` runs the ``genpuzzles`` CLI path
(``bench.gen_puzzle`` + ``bench.task_to_record``) over a fixed puzzle set in
one thread, also in whole passes.

Each trial is timed from the moment ``run_benchmark`` asks the backend
factory for its backend to the moment it hands the scored tree to
``trace_sink``; both are public hooks of ``run_benchmark``.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from typing import Callable, Optional

import requests

from atomic_reasoner import backends, bench, cases, checker, executor, model, prompts, puzzles, router, sop
from atomic_reasoner.backends import CacheBackend, CacheMode, CompletionResult, HttpBackend, HttpConfig

from simmodel import DEEP, WIDE, ZERO_LATENCY, LatencyModel, SimModel, digest, load_records, prompt_chars
from spans import WAIT_SPANS, Tracer, shared_prefix

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
WORK_DIR = BENCH_DIR / "_work"

# Provider wait per call: about 8.6 ms for a grid-wide call and 10-11 ms for a
# grid-deep call, against ~0.3 ms of engine CPU per call.  The base is that
# high because the HTTP client and the stub cost ~3 ms of CPU per call on a
# 2-vCPU host, and CPU speed there varies run to run: a larger wait share
# keeps grid-wide steady.
LATENCY = LatencyModel(base_ms=8.0, prompt_ms_per_kchar=0.1, completion_ms_per_kchar=0.5)
THROTTLE_SHARE = 0.01  # share of grid-wide requests answered 429 on first arrival
RETRY_AFTER_S = 0.01  # above backoff_base * 1.5, so every retry waits exactly this
BACKOFF_BASE_S = 0.004
SETUP_REPEATS = 3

MIN_TRIALS = 100  # session runs go on past --seconds until this many trials, so p90 has 10 beyond it
DEEP_TRIALS = 4  # grid-deep: 5 tasks x 4 trials per pass
REPLAY_TRIALS = 20  # grid-replay: 5 tasks x 20 trials per pass

# genpuzzles: (houses, attributes, seed); its records' sha256 are in baseline.json.
# The median and p90 puzzles are 5x4 ones of about a second each: a single
# sub-second puzzle's time swings with the host's CPU speed.
GENPUZZLE_SET = ((5, 3, 0), (5, 3, 1), (5, 4, 2), (5, 4, 3), (5, 4, 5))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``; a lone value is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_baseline() -> dict:
    return json.loads((DATA_DIR / "baseline.json").read_text(encoding="utf-8"))


# --- backends ------------------------------------------------------------------


class SimBackend:
    """In-process completion backend serving ``SimModel`` with the latency
    model.  The model's own compute time is taken out of the wait."""

    model = "sim"

    def __init__(self, sim: SimModel, latency: LatencyModel):
        self.sim = sim
        self.latency = latency

    def complete(self, request) -> CompletionResult:
        started = time.perf_counter()
        messages = [(m.role, m.content) for m in request.messages]
        text = self.sim.respond(messages)
        wait = self.latency.wait_s(prompt_chars(messages), len(text)) - (time.perf_counter() - started)
        if wait > 0:
            time.sleep(wait)
        return CompletionResult(
            text=text,
            prompt_tokens=sum(len(c.split()) for _, c in messages),
            completion_tokens=len(text.split()),
            latency_ms=(time.perf_counter() - started) * 1000.0,
        )


class _Meter:
    """Per-trial counter of engine-level calls and prompt characters; probes
    the reference clock, if any, before each call."""

    __slots__ = ("inner", "model", "calls", "chars", "reference")

    def __init__(self, inner, reference: Optional[ReferenceClock] = None):
        self.inner = inner
        self.model = getattr(inner, "model", "scripted")
        self.calls = 0
        self.chars = 0
        self.reference = reference

    def complete(self, request):
        self.calls += 1
        self.chars += sum(len(m.content) for m in request.messages)
        if self.reference is not None:
            self.reference.probe_inside()
        return self.inner.complete(request)


class TrialClock:
    """Backend factory and trace sink for ``run_benchmark`` that time each
    trial, at the reference speed if given a ``ReferenceClock`` (one worker
    only: the clock is not thread-safe)."""

    def __init__(self, backend, tracer: Optional[Tracer] = None, reference: Optional[ReferenceClock] = None):
        self.backend = backend
        self.tracer = tracer
        self.reference = reference
        self._local = threading.local()
        self._lock = threading.Lock()
        self.trial_ms: list[float] = []  # at the reference speed when there is a reference clock
        self.wall_trial_ms: list[float] = []
        self.calls = 0
        self.chars = 0
        self.nodes = 0
        self.chains = 0

    def factory(self, task):
        if self.tracer is not None:
            self.tracer.reset_thread_state()
        self._local.meter = _Meter(self.backend, self.reference)
        if self.reference is not None:
            self.reference.start()
        self._local.started = time.perf_counter()
        return self._local.meter

    def sink(self, task, tree, verdict):
        if self.reference is not None:
            wall, elapsed = self.reference.stop()
        else:
            wall = elapsed = (time.perf_counter() - self._local.started) * 1000.0
        meter = self._local.meter
        with self._lock:
            self.trial_ms.append(elapsed)
            self.wall_trial_ms.append(wall)
            self.calls += meter.calls
            self.chars += meter.chars
            self.nodes += len(tree.nodes)
            self.chains += len(tree.chains)


# --- reference-speed clock (grid-replay, genpuzzles) -----------------------------

# The host's CPU speed drifts by +-20 % over seconds and minutes.  grid-replay
# and genpuzzles are pure CPU work, so their wall times drift with it, and
# they report times at a fixed reference speed instead: a short fixed
# pure-Python probe, independent of the package, runs before every model call
# (grid-replay) or ``brute_solve`` call (genpuzzles) and around every timed
# trial or puzzle.  The wall time between two probes is scaled by the
# probes' reference time over their mean measured time.  Speed is correlated
# over tens of milliseconds, longer than the gap between probes, so the
# probes track it.  Contention does not slow all code alike, so each
# workload's probe is a miniature of its own kind of work: text, regex and
# JSON for the engine, a permutation search for the generator; another probe
# followed each workload 1.5 to 2.5 times worse.  Wall times are in the
# report line beside the scaled ones.
REFERENCE_MS = 0.06  # one probe repetition's time on the scale the reported times are given in


@dataclass(frozen=True)
class _Before:
    attr_a: str
    value_a: str
    attr_b: str
    value_b: str

    def holds(self, assignment: dict) -> bool:
        return assignment[self.attr_a].index(self.value_a) < assignment[self.attr_b].index(self.value_b)


@dataclass(frozen=True)
class _Together(_Before):
    def holds(self, assignment: dict) -> bool:
        return assignment[self.attr_a].index(self.value_a) == assignment[self.attr_b].index(self.value_b)


_PROBE_PERMS = list(permutations(("a", "b", "c", "d", "e")))
_PROBE_CLUES = ((_Before("x", "c", "x", "a"),), (_Together("x", "b", "y", "d"), _Before("y", "a", "x", "e")))


def _search_probe(reps: int) -> int:
    """A miniature of the generator's brute-force grid search."""
    found = 0
    assignment: dict = {}
    for _ in range(reps):
        for first in _PROBE_PERMS[::30]:
            assignment["x"] = first
            if all(clue.holds(assignment) for clue in _PROBE_CLUES[0]):
                for second in _PROBE_PERMS[::8]:
                    assignment["y"] = second
                    if all(clue.holds(assignment) for clue in _PROBE_CLUES[1]):
                        found += 1
    return found


_PROBE_WORDS = ("step", "chain", "house", "clue", "value", "left", "right", "name", "color", "pet")
_PROBE_STEP = re.compile(r"Step (\d+) \((\w+)\):")


def _text_probe(reps: int) -> int:
    """A miniature of the engine's work: build a rendered text, scan it with a regex, round-trip it through JSON."""
    words = 0
    for _ in range(reps):
        text = "\n".join(
            f"Step {i} ({_PROBE_WORDS[i % 10]}): the {_PROBE_WORDS[i * 3 % 10]} is {i % 5}" for i in range(25)
        )
        steps = sum(1 for _ in _PROBE_STEP.finditer(text))
        words += len(json.loads(json.dumps({"text": text, "steps": steps}))["text"].split())
    return words


# Probe and repetitions per probe: ~0.06 ms per grid-replay model call (~0.3 ms
# of engine CPU) and ~0.3 ms per brute_solve call (~15 ms).
PROBES = {"grid-replay": (_text_probe, 1), "genpuzzles": (_search_probe, 5)}


class ReferenceClock:
    """Times single-threaded CPU work at the reference speed.

    ``start``/``stop`` (or ``measure``) time one operation.  Code inside it
    calls ``probe_inside`` at regular points; each call closes a segment,
    which is scaled by the mean of the probes at its two ends.  With
    ``inside`` False (a traced run, which keeps probes out of the traced
    spans and prints no times at reference speed) the whole operation is one
    segment."""

    def __init__(self, probe: Callable[[int], int], reps: int):
        self.probe = probe
        self.reps = reps
        self.samples: list[float] = []  # every probe's time, s
        self.inside = True
        self.brute_solve_calls = 0
        self._active = False
        self._typical: Optional[float] = None  # running typical probe time, s
        self._last = 0.0  # capped time of the last probe, s
        self._mark = 0.0  # when the last probe ended
        self._wall = 0.0  # the current operation's time without probes, s
        self._scaled = 0.0  # the same at the reference speed, s

    def _probe(self) -> float:
        started = time.perf_counter()
        self.probe(self.reps)
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        # a probe that lost the CPU to another process would overstate the slowdown
        typical = elapsed if self._typical is None else self._typical
        capped = min(elapsed, 3.0 * typical)
        self._typical = 0.9 * typical + 0.1 * capped
        return capped

    def _segment(self) -> None:
        segment = time.perf_counter() - self._mark
        capped = self._probe()
        slowdown = (self._last + capped) / 2.0 / (self.reps * REFERENCE_MS / 1000.0)
        self._wall += segment
        self._scaled += segment / slowdown
        self._last = capped
        self._mark = time.perf_counter()

    def probe_inside(self) -> None:
        if self._active and self.inside:
            self._segment()

    def start(self) -> None:
        self._last = self._probe()
        self._wall = self._scaled = 0.0
        self._active = True
        self._mark = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(wall ms without probes, reference-speed ms) since ``start``."""
        self._segment()
        self._active = False
        return self._wall * 1000.0, self._scaled * 1000.0

    def measure(self, fn, *args):
        """Run ``fn(*args)``; returns (result, wall ms, reference-speed ms)."""
        self.start()
        result = fn(*args)
        return (result, *self.stop())

    @contextmanager
    def probing_brute_solve(self):
        """Wrap ``puzzles.brute_solve`` to count its calls and probe before each."""
        original = puzzles.brute_solve

        def brute_solve(*args, **kwargs):
            self.brute_solve_calls += 1
            self.probe_inside()
            return original(*args, **kwargs)

        puzzles.brute_solve = brute_solve
        try:
            yield
        finally:
            puzzles.brute_solve = original

    def mean_rep_ms(self) -> float:
        """Measured time of one probe repetition, to compare with REFERENCE_MS."""
        return statistics.fmean(self.samples) * 1000.0 / self.reps if self.samples else 0.0


# --- workload contexts ------------------------------------------------------------


@dataclass
class Context:
    """What one set-up produced; ``close`` releases it."""

    tasks: list
    backend: object
    trials: int
    workers: int
    closers: list[Callable[[], None]] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def close(self) -> None:
        for close in reversed(self.closers):
            close()
        self.closers.clear()


def _load_suite(name: str):
    path = DATA_DIR / f"{name}.jsonl"
    tasks, rejects = bench.load_tasks(path, "grid")
    if rejects:
        raise RuntimeError(f"{path.name}: {len(rejects)} malformed lines")
    return path, tasks


def _warm_up(ctx: Context, registry) -> None:
    """One session, so lazy template loading and regex compilation happen in set-up."""
    task = ctx.tasks[0]
    _, final = router.run_session(
        task.to_problem(), config=router.SessionConfig(), backends=ctx.backend, sop_registry=registry
    )
    if not bench.score(task, final.text).correct:
        raise RuntimeError(f"warm-up session on {task.id} missed gold")


def _start_stub(seed: int, suite: Path) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [
            sys.executable, str(BENCH_DIR / "stub.py"),
            "--seed", str(seed), "--shape", WIDE.name, "--suite", str(suite),
            "--latency", json.dumps(LATENCY.to_json()),
            "--throttle-share", str(THROTTLE_SHARE), "--retry-after", str(RETRY_AFTER_S),
        ],
        stdin=subprocess.PIPE,  # the stub exits when this pipe closes, even if we die
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        _stop(proc)
        raise RuntimeError("stub did not start")
    return proc, int(line.split()[1])


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        pipe.close()


def setup_grid_wide(seed: int, registry, reference: Optional[ReferenceClock] = None) -> Context:
    suite, tasks = _load_suite("wide")
    random.Random(seed).shuffle(tasks)
    workers = nproc()
    proc, port = _start_stub(seed, suite)
    session = requests.Session()
    session.trust_env = False  # loopback only: no proxy or netrc lookups
    backend = HttpBackend(
        HttpConfig(
            base_url=f"http://127.0.0.1:{port}/v1",
            model="sim",
            timeout=30.0,
            backoff_base=BACKOFF_BASE_S,
            max_concurrent=workers,
        ),
        session=session,
        rng=random.Random(seed),
    )
    ctx = Context(tasks=tasks, backend=backend, trials=1, workers=workers,
                  closers=[lambda: _stop(proc), session.close])
    ctx.info.update(session=session, stub_stats=lambda: session.get(
        f"http://127.0.0.1:{port}/stats", timeout=10).json())
    try:
        _warm_up(ctx, registry)
    except BaseException:
        ctx.close()
        raise
    return ctx


def setup_grid_deep(seed: int, registry, reference: Optional[ReferenceClock] = None) -> Context:
    _, tasks = _load_suite("deep")
    sim = SimModel(seed, DEEP, load_records(DATA_DIR / "deep.jsonl"))
    ctx = Context(tasks=tasks, backend=SimBackend(sim, LATENCY), trials=DEEP_TRIALS, workers=nproc())
    _warm_up(ctx, registry)
    return ctx


def setup_grid_replay(seed: int, registry, reference: Optional[ReferenceClock] = None) -> Context:
    _, tasks = _load_suite("deep")
    sim = SimBackend(SimModel(seed, DEEP, load_records(DATA_DIR / "deep.jsonl")), ZERO_LATENCY)
    WORK_DIR.mkdir(exist_ok=True)
    store = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))
    closers = [lambda: shutil.rmtree(store, ignore_errors=True)]
    try:
        recorder = CacheBackend(_Meter(sim, reference), CacheMode.RECORD, store)
        report = bench.run_benchmark(
            tasks, "ar", recorder, trials=1, workers=1,
            session_config=router.SessionConfig(), sop_registry=registry,
        )
        if report.mean_success() != 1.0:
            raise RuntimeError("recording sessions missed gold")
    except BaseException:
        for close in closers:
            close()
        raise
    replay = CacheBackend(sim, CacheMode.REPLAY, store, strict=True)
    # one worker: sessions are engine CPU, which the GIL serialises anyway, and
    # the reference clock times one thread
    return Context(tasks=tasks, backend=replay, trials=REPLAY_TRIALS, workers=1, closers=closers)


def setup_genpuzzles(seed: int, registry, reference: Optional[ReferenceClock] = None) -> Context:
    baseline = load_baseline()["genpuzzles"]
    order = list(GENPUZZLE_SET)
    random.Random(seed).shuffle(order)
    # Warm-up: the set's median puzzle.  It pays any lazy set-up, and at about
    # a second it is long enough for setup_s to be measured steadily.
    bench.gen_puzzle(3, 5, 4)
    return Context(tasks=order, backend=None, trials=1, workers=1, info={"baseline": baseline})


SETUPS = {
    "grid-wide": setup_grid_wide,
    "grid-deep": setup_grid_deep,
    "grid-replay": setup_grid_replay,
    "genpuzzles": setup_genpuzzles,
}


# --- results ------------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # end-to-end name -> (value, unit)
    named: dict = field(default_factory=dict)  # the workload's own metric names -> (value, unit)
    info: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def run_sessions(ctx: Context, seconds: float, registry, tracer: Optional[Tracer],
                 min_trials: int = MIN_TRIALS, reference: Optional[ReferenceClock] = None) -> Outcome:
    """With a reference clock, times are at the reference speed and throughput
    is completed trials per second of trial time (one worker)."""
    if reference is not None and ctx.workers != 1:
        raise ValueError("the reference clock times one worker")
    clock = TrialClock(ctx.backend, tracer, reference)
    out = Outcome()
    walls: list[float] = []
    rates: list[float] = []  # completed trials per second, one per pass (reported only)
    started = time.perf_counter()
    while True:
        per_pass = len(ctx.tasks) * ctx.trials
        before = len(clock.trial_ms)
        try:
            report = bench.run_benchmark(
                ctx.tasks, "ar", clock.factory, trials=ctx.trials, workers=ctx.workers,
                session_config=router.SessionConfig(), sop_registry=registry, trace_sink=clock.sink,
            )
        except Exception as exc:  # a trial raised something other than BackendFailure
            out.attempted += per_pass
            out.fail(f"run_benchmark raised {type(exc).__name__}: {exc}", per_pass)
            break
        walls.append(report.wall_time_s)
        pass_s = report.wall_time_s if reference is None else sum(clock.trial_ms[before:]) / 1000.0
        rates.append((len(clock.trial_ms) - before) / pass_s)
        for result in report.results:
            out.attempted += 1
            if result.verdict.failure == "BackendFailure":
                out.fail(f"{result.task_id} trial {result.trial}: BackendFailure")
            elif result.verdict.correct:
                out.correct += 1
            else:
                out.problems.append(f"{result.task_id} trial {result.trial}: scored {result.verdict.partial:.2f}")
        if time.perf_counter() - started >= seconds and out.attempted >= min_trials:
            break

    if "stub_stats" in ctx.info:
        out.info["stub"] = ctx.info["stub_stats"]()
    done = len(clock.trial_ms)
    wall = sum(walls)
    out.info.update(passes=len(walls), pass_rates=rates, trials=out.attempted, completed=done, workers=ctx.workers,
                    trials_per_task=ctx.trials, tasks=len(ctx.tasks), wall_s=wall)
    if done:
        sessions_per_s = done / (wall if reference is None else sum(clock.trial_ms) / 1000.0)
        p50, p90 = percentile(clock.trial_ms, 50), percentile(clock.trial_ms, 90)
        calls, kchars = clock.calls / done, clock.chars / 1000.0 / done
        success = out.correct / out.attempted
        out.metrics.update(
            throughput_per_s=(sessions_per_s, "1/s"), item_ms_p50=(p50, "ms"), item_ms_p90=(p90, "ms"),
            calls_per_item=(calls, "calls"), kchars_per_item=(kchars, "kchars"), success_rate=(success, "share"),
        )
        out.named.update(
            sessions_per_s=(sessions_per_s, "sessions/s"), session_ms_p50=(p50, "ms"), session_ms_p90=(p90, "ms"),
            llm_calls_per_session=(calls, "calls"), prompt_kchars_per_session=(kchars, "kchars"),
            success_rate=(success, "share"),
        )
        if reference is not None:
            out.named.update(wall_sessions_per_s=(done / (sum(clock.wall_trial_ms) / 1000.0), "sessions/s"),
                             wall_session_ms_p50=(percentile(clock.wall_trial_ms, 50), "ms"))
            out.info.update(probe_rep_ms=reference.mean_rep_ms(), probes=len(reference.samples))
    out.info.update(trial_ms=clock.wall_trial_ms, nodes=clock.nodes, chains=clock.chains,
                    busy_share=sum(clock.wall_trial_ms) / 1000.0 / (wall * ctx.workers) if wall else 0.0)
    return out


def run_genpuzzles(ctx: Context, seconds: float, clock: ReferenceClock) -> Outcome:
    out = Outcome()
    produced: list[tuple[tuple, str, object, dict, float, float]] = []
    rates: list[float] = []  # puzzles per reference-speed second, one per pass (reported only)

    def generate(key):
        houses, attributes, seed = key
        task, gold = bench.gen_puzzle(seed, houses, attributes)
        return task, gold, json.dumps(bench.task_to_record(task, "grid"), ensure_ascii=False)

    clock.brute_solve_calls = 0  # the count covers the timed passes, not set-up
    started = time.perf_counter()
    with clock.probing_brute_solve():
        while True:
            pass_scaled = 0.0
            for key in ctx.tasks:
                (task, gold, line), wall_ms, scaled_ms = clock.measure(generate, key)
                produced.append((key, line, task, gold, wall_ms, scaled_ms))
                pass_scaled += scaled_ms
            rates.append(len(ctx.tasks) / (pass_scaled / 1000.0))
            if time.perf_counter() - started >= seconds:
                break
    elapsed = time.perf_counter() - started

    n = len(produced)
    wall = [p[4] for p in produced]
    scaled = [p[5] for p in produced]
    per_s = n / (sum(scaled) / 1000.0)
    p50, p90 = percentile(scaled, 50), percentile(scaled, 90)
    calls = clock.brute_solve_calls / n
    kchars = sum(len(p[1]) for p in produced) / 1000.0 / n
    out.metrics.update(
        throughput_per_s=(per_s, "1/s"), item_ms_p50=(p50, "ms"), item_ms_p90=(p90, "ms"),
        calls_per_item=(calls, "calls"), kchars_per_item=(kchars, "kchars"),
    )
    out.named.update(puzzles_per_s=(per_s, "puzzles/s"), puzzle_ms_p50=(p50, "ms"),
                     brute_solve_calls_per_puzzle=(calls, "calls"),
                     wall_puzzles_per_s=(n / (sum(wall) / 1000.0), "puzzles/s"),
                     wall_puzzle_ms_p50=(percentile(wall, 50), "ms"))
    out.info.update(puzzles=n, passes=len(rates), pass_rates=rates, wall_s=elapsed, produced=produced,
                    probe_rep_ms=clock.mean_rep_ms(), probes=len(clock.samples))
    return out


def check_puzzles(ctx: Context, out: Outcome) -> None:
    """Each generated puzzle must be unique under brute_solve and match its
    recorded sha256; the suite in canonical order must match too."""
    baseline = ctx.info["baseline"]
    produced = out.info.pop("produced")
    unique: dict[tuple, bool] = {}  # the oracle check runs once per distinct puzzle
    for key, line, task, gold, *_ in produced:
        out.attempted += 1
        if key not in unique:
            unique[key] = bench.brute_solve_task(task, limit=2) == [gold]
        if unique[key] and digest(line) == baseline["records"].get("{}x{}-s{}".format(*key)):
            out.correct += 1
        else:
            out.fail("puzzle {}x{} seed {}: not unique or differs from the recorded sha256".format(*key))
    canonical = {key: line for key, line, *_ in produced}
    suite = "\n".join(canonical[key] for key in GENPUZZLE_SET if key in canonical) + "\n"
    out.info["suite_sha256"] = digest(suite)
    if len(canonical) == len(GENPUZZLE_SET):
        out.attempted += 1
        if digest(suite) == baseline["suite_sha256"]:
            out.correct += 1
        else:
            out.fail("generated suite differs from the recorded sha256")
    success = out.correct / out.attempted
    out.metrics["success_rate"] = (success, "share")
    out.named["success_rate"] = (success, "share")


class _TagCounter:
    """Counts calls and characters per request tag around a backend."""

    model = "scripted"

    def __init__(self, inner):
        self.inner = inner
        self.tally: dict[str, dict[str, int]] = {}

    def complete(self, request):
        result = self.inner.complete(request)
        row = self.tally.setdefault(request.tag, {"calls": 0, "prompt_chars": 0, "completion_chars": 0})
        row["calls"] += 1
        row["prompt_chars"] += sum(len(m.content) for m in request.messages)
        row["completion_chars"] += len(result.text)
        return result


def check_case_replays(out: Outcome) -> dict:
    """Replay the shipped case1/case2 recordings; they must reach (A) and the
    full grid.  Returns exact per-tag calls and characters for each."""
    counts = {}
    for name in cases.CASE_NAMES:
        fixture = cases.load_case(name)
        counter = _TagCounter(fixture.backend())
        out.attempted += 1
        try:
            _, final = router.run_session(
                fixture.task.to_problem(), config=router.SessionConfig(),
                backends=counter, sop_registry=sop.builtin_registry(),
            )
            verdict = bench.score(fixture.task, final.text)
            ok = verdict.correct and verdict.partial == 1.0
        except Exception as exc:  # a replay that raises is a failed operation
            ok = False
            out.problems.append(f"{name}: {type(exc).__name__}: {exc}")
        if ok:
            out.correct += 1
        else:
            out.fail(f"{name} replay no longer reaches its reference answer")
        counts[name] = dict(sorted(counter.tally.items()))
    return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> dict:
    """CPU time of this process and of its ended children (the HTTP stub)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"self": own.ru_utime + own.ru_stime, "children": children.ru_utime + children.ru_stime}


# --- tracing --------------------------------------------------------------------


def install_tracer(ctx: Context) -> Tracer:
    """Wrap the public functions of the engine's layers for one traced run."""
    tracer = Tracer()
    tracer.keep.update({"backends.CacheBackend.complete", "puzzles.brute_solve"})

    def on_decide(args, kwargs, decision, elapsed):
        if isinstance(decision, router.Extend):
            fallback = decision.guidance == router.FALLBACK_GUIDANCE
            tracer.add("router.decisions.fallback" if fallback else "router.decisions.extend")
        elif isinstance(decision, router.Backtrack):
            tracer.add("router.decisions.backtrack")
        else:
            tracer.add("router.decisions.terminate")

    def on_check(args, kwargs, report, elapsed):
        tracer.add("checker.checks")
        if report.is_error:
            tracer.add("checker.errors")
        if report.rationale == "unparseable":
            tracer.add("checker.unparseable")

    def on_render(args, kwargs, text, elapsed):
        budget = args[1] if len(args) > 1 else kwargs.get("budget")
        if budget is not None:
            tracer.add("model.render_budgeted")
            if model.ELISION_MARKER in text or len(text) == budget:
                tracer.add("model.render_truncated")

    def on_generate(args, kwargs, result, elapsed):
        _, houses, attributes = args[:3]
        tracer.sample(f"puzzles.generate_ms.{houses}x{attributes}", elapsed * 1000.0)

    def on_tally(args, kwargs, result, elapsed):
        request = args[1]
        text = "\n".join(m.content for m in request.messages)
        tag = request.tag
        tracer.add(f"backends.calls.{tag}")
        tracer.add(f"backends.prompt_chars.{tag}", len(text) - (len(request.messages) - 1))
        tracer.add("backends.completion_chars", len(result.text))
        last = tracer.thread_state.setdefault("last_prompt", {})
        if tag in last:
            tracer.add(f"prompts.prefix_pairs.{tag}")
            tracer.add(f"prompts.prefix_frac_sum.{tag}", shared_prefix(last[tag], text) / len(text))
        last[tag] = text

    def on_cache(args, kwargs, result, elapsed):
        if result.source is backends.ResultSource.CACHE:
            tracer.add("backends.cache.hits")

    def on_http(args, kwargs, result, elapsed):
        attempts = tracer.thread_state.pop("attempts", [])
        if len(attempts) == 1 and attempts[0][0] == 200:
            tracer.sample("backends.http.overhead_ms", elapsed * 1000.0 - attempts[0][1])
        tracer.add("backends.http.retries", max(0, len(attempts) - 1))

    for module, prefix, hooks in (
        (bench, "bench", None),
        (router, "router", {"decide": on_decide}),
        (executor, "executor", None),
        (checker, "checker", {"check": on_check}),
        (prompts, "prompts", None),
        (model, "model", {"render_tree": on_render}),
        (puzzles, "puzzles", {"generate_puzzle": on_generate}),
        (backends, "backends", None),
    ):
        tracer.wrap_module(module, prefix, hooks)
    tracer.patch(backends.TallyBackend, "complete", "backends.TallyBackend.complete", on_tally)
    tracer.patch(backends.CacheBackend, "complete", "backends.CacheBackend.complete", on_cache)
    tracer.patch(backends.HttpBackend, "complete", "backends.HttpBackend.complete", on_http)
    tracer.patch(SimBackend, "complete", "sim.wait")

    session = ctx.info.get("session")
    if session is not None:
        post = session.post

        def timed_post(*args, **kwargs):
            response = post(*args, **kwargs)
            service = float(response.headers.get("X-Sim-Service-Ms", "0"))
            tracer.thread_state.setdefault("attempts", []).append((response.status_code, service))
            return response

        tracer.replace(session, "post", timed_post)
    return tracer


def layer_metrics(tracer: Tracer, out: Outcome) -> dict:
    """Every per-layer metric; 0 where the workload does not exercise the layer."""
    c = tracer.counters
    sessions = max(out.info.get("completed", 0), 0)
    per = (lambda v: v / sessions) if sessions else (lambda v: 0.0)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    def p50(name: str) -> float:
        values = tracer.samples.get(name)
        return percentile(values, 50) if values else 0.0

    m: dict[str, tuple[float, str]] = {}
    for tag in ("routing", "solve", "check", "summarize"):
        m[f"backends.calls.{tag}"] = (per(c[f"backends.calls.{tag}"]), "calls")
    for tag in ("routing", "solve", "check", "summarize"):
        m[f"backends.prompt_kchars.{tag}"] = (per(c[f"backends.prompt_chars.{tag}"]) / 1000.0, "kchars")
    m["backends.completion_kchars"] = (per(c["backends.completion_chars"]) / 1000.0, "kchars")
    m["checker.revisions_per_session"] = (per(tracer.count["checker.revise"]), "count")
    for kind in ("extend", "backtrack", "terminate", "fallback"):
        m[f"router.decisions.{kind}"] = (per(c[f"router.decisions.{kind}"]), "count")
    m["model.render_truncated_share"] = (share(c["model.render_truncated"], c["model.render_budgeted"]), "share")
    m["bench.worker_busy_share"] = (out.info.get("busy_share", 0.0) if sessions else 0.0, "share")
    m["backends.http.overhead_ms_p50"] = (p50("backends.http.overhead_ms"), "ms")
    m["backends.http.retries_per_session"] = (per(c["backends.http.retries"]), "count")
    cache_calls = tracer.count["backends.CacheBackend.complete"]
    m["backends.cache.complete_ms_p50"] = (p50("backends.CacheBackend.complete") if sessions else 0.0, "ms")
    m["backends.cache.hit_share"] = (share(c["backends.cache.hits"], cache_calls) if sessions else 0.0, "share")
    m["model.render_tree_ms_per_session"] = (per(tracer.total_ms("model.render_tree")), "ms")
    m["prompts.build_ms_per_session"] = (per(tracer.self_ms("prompts")), "ms")
    m["router.self_ms_per_session"] = (per(tracer.self_ms("router")), "ms")
    m["executor.self_ms_per_session"] = (per(tracer.self_ms("executor")), "ms")
    m["checker.self_ms_per_session"] = (per(tracer.self_ms("checker")), "ms")
    m["checker.checks_per_session"] = (per(c["checker.checks"]), "count")
    m["checker.error_share"] = (share(c["checker.errors"], c["checker.checks"]), "share")
    m["checker.unparseable_share"] = (share(c["checker.unparseable"], c["checker.checks"]), "share")
    m["bench.score_ms_per_trial"] = (per(tracer.total_ms("bench.score")), "ms")
    m["model.nodes_per_session"] = (per(out.info.get("nodes", 0)), "count")
    m["model.chains_per_session"] = (per(out.info.get("chains", 0)), "count")
    wait_s = sum(tracer.total_s.get(name, 0.0) for name in WAIT_SPANS)
    trial_s = sum(out.info.get("trial_ms", [])) / 1000.0
    m["backends.wait_share"] = (share(wait_s, trial_s), "share")
    for tag in ("routing", "solve", "check"):
        m[f"prompts.shared_prefix_frac.{tag}"] = (
            share(c[f"prompts.prefix_frac_sum.{tag}"], c[f"prompts.prefix_pairs.{tag}"]), "share")
    n_puzzles = tracer.count["puzzles.generate_puzzle"]
    m["puzzles.brute_solve_calls_per_puzzle"] = (share(tracer.count["puzzles.brute_solve"], n_puzzles), "calls")
    m["puzzles.brute_solve_ms_p50"] = (p50("puzzles.brute_solve") if n_puzzles else 0.0, "ms")
    for size in ("5x3", "5x4"):
        m[f"puzzles.generate_ms_p50.{size}"] = (p50(f"puzzles.generate_ms.{size}"), "ms")
    return m
