"""Benchmark of the atomic-reasoner package.

    python3 perfbench/run.py --workload grid-wide --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

* ``grid-wide``   64 distinct 3-4-house tasks, 1 trial each, over HttpBackend
                  to a loopback OpenAI-compatible stub serving the simulated model;
* ``grid-deep``   5 five-house tasks x 4 trials, in-process simulated model,
                  verbose steps, failing checks, render budget exceeded;
* ``grid-replay`` grid-deep sessions replayed from a strict CacheBackend;
* ``genpuzzles``  the genpuzzles path over a fixed puzzle set, one thread.

Set-up runs ``SETUP_REPEATS`` times and ``setup_s`` is the median.  The run
then repeats whole passes until ``--seconds`` have passed (and, for session
workloads, at least 100 trials ran), checks every output, and prints a report
line (environment, the workload's own metric names, per-run details) followed
by the result line: ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
wraps the package's layers and gives the per-layer metrics.  Exit code 0 means the run completed (the result line says
whether its outputs were correct); 2 means bad arguments, 3 that the package
under ``src/`` could not be imported.

grid-replay and genpuzzles give their times, set-up included, at a reference
CPU speed (see ``workloads.ReferenceClock``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid-wide", "grid-deep", "grid-replay", "genpuzzles")


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def _source_digest() -> str:
    """sha256 over the package sources, identifying the code under test."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Set up, run and check one workload; returns (report, result).

    ``tiny`` shrinks the run to a few sessions or one puzzle and one set-up,
    for the self-test."""
    import workloads as w
    from atomic_reasoner import sop

    # grid-replay and genpuzzles are pure CPU work and time themselves at the
    # reference speed, set-up included
    clock = w.ReferenceClock(*w.PROBES[workload]) if workload in w.PROBES else None

    def set_up():
        registry = sop.builtin_registry()
        return registry, w.SETUPS[workload](seed, registry, clock)

    setup_s = []
    setup_wall_s = []
    ctx = None
    try:
        for _ in range(1 if tiny else w.SETUP_REPEATS):
            if clock is None:
                started = time.perf_counter()
                registry, candidate = set_up()
                setup_wall_s.append(time.perf_counter() - started)
                setup_s.append(setup_wall_s[-1])
            else:
                # genpuzzles' warm-up probes at each brute_solve call, grid-replay's
                # recording at each model call (the clock goes to its backend)
                with clock.probing_brute_solve():
                    (registry, candidate), wall_ms, scaled_ms = clock.measure(set_up)
                setup_wall_s.append(wall_ms / 1000.0)
                setup_s.append(scaled_ms / 1000.0)
            if ctx is not None:
                ctx.close()
            ctx = candidate
    except BaseException:
        if ctx is not None:
            ctx.close()
        raise
    if tiny:
        # one 5x3 puzzle (well under a second), or three session tasks
        ctx.tasks = [t for t in ctx.tasks if t[1] == 3][:1] if workload == "genpuzzles" else ctx.tasks[:3]
        ctx.trials = 1

    tracer = None
    try:
        if trace:
            tracer = w.install_tracer(ctx)
            if clock is not None:
                clock.inside = False  # keeps probes out of the traced spans; no scaled times are printed
        try:
            if workload == "genpuzzles":
                out = w.run_genpuzzles(ctx, seconds, clock)
            else:
                out = w.run_sessions(ctx, seconds, registry, tracer, min_trials=1 if tiny else w.MIN_TRIALS,
                                     reference=clock)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        ctx.close()

    if workload == "genpuzzles":
        w.check_puzzles(ctx, out)
    case_replays = w.check_case_replays(out)
    setup_median = statistics.median(setup_s)
    rss = w.peak_rss_mb()
    out.metrics.update(setup_s=(setup_median, "s"), peak_rss_mb=(rss, "MB"))
    out.named.update(
        failed_share=(out.failed / out.attempted, "share"),
        setup_s=(setup_median, "s"),
        peak_rss_mb=(rss, "MB"),
    )
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "python": platform.python_version(),
            "nproc": w.nproc(),
            "git_commit": _git_commit(),
            "src_sha256": _source_digest(),
            "workers": ctx.workers,
            "latency_model": w.LATENCY.to_json(),
            "throttle_share": w.THROTTLE_SHARE,
            "retry_after_s": w.RETRY_AFTER_S,
            "backoff_base_s": w.BACKOFF_BASE_S,
            "setup_repeats": len(setup_s),
            "reference": ({"probe": clock.probe.__name__, "reps": clock.reps, "ms_per_rep": w.REFERENCE_MS}
                          if clock is not None else None),
        },
        "setup_s_all": setup_s,
        "setup_wall_s_all": setup_wall_s,
        "metrics": _metrics(out.named),
        "run": {k: v for k, v in out.info.items() if k != "trial_ms"},
        "cpu_s": w.cpu_seconds(),
        "case_replays": case_replays,
        "problems": out.problems[:20],
    }
    metrics = w.layer_metrics(tracer, out) if tracer is not None else out.metrics
    result = {
        "correct": out.failed == 0 and out.correct == out.attempted,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": _metrics(metrics),
    }
    return report, result


def import_package() -> bool:
    """Put src/ and perfbench/ on the path; False if the package is not importable from src/."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import atomic_reasoner
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if Path(atomic_reasoner.__file__).resolve().parent.parent != ROOT / "src":
        print(f"atomic_reasoner imported from {atomic_reasoner.__file__}, not from src/", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="atomic-reasoner benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_package():
        return 3
    report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
