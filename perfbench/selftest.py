"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, completes with correct
outputs; that every metric BENCHMARK.json lists is emitted with its unit;
that each workload reports its own metric names (wall-clock ones too where
times are at reference speed); and that the simulated model drives each
session shape to gold the way the workload intends
(grid-deep backtracks, revises and exceeds the render budget; grid-wide does
not; grid-replay hits the cache on every call).  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SESSION_NAMES = {
    "sessions_per_s": "sessions/s", "session_ms_p50": "ms", "session_ms_p90": "ms",
    "llm_calls_per_session": "calls", "prompt_kchars_per_session": "kchars", "success_rate": "share",
}
COMMON_NAMES = {"failed_share": "share", "setup_s": "s", "peak_rss_mb": "MB"}
OWN_NAMES = {
    "grid-wide": SESSION_NAMES, "grid-deep": SESSION_NAMES,
    "grid-replay": {**SESSION_NAMES, "wall_sessions_per_s": "sessions/s", "wall_session_ms_p50": "ms"},
    "genpuzzles": {"puzzles_per_s": "puzzles/s", "success_rate": "share",
                   "wall_puzzles_per_s": "puzzles/s", "wall_puzzle_ms_p50": "ms"},
}

# Per-layer values that show each workload has the shape it is meant to have.
SHAPE = {
    "grid-wide": {"router.decisions.backtrack": 1.0, "checker.revisions_per_session": 0.0,
                  "model.render_truncated_share": 0.0, "backends.cache.hit_share": 0.0},
    "grid-deep": {"router.decisions.backtrack": 1.0, "checker.revisions_per_session": 2.0,
                  "backends.http.retries_per_session": 0.0},
    "grid-replay": {"router.decisions.backtrack": 1.0, "backends.cache.hit_share": 1.0,
                    "backends.wait_share": 0.0},
    "genpuzzles": {"backends.calls.solve": 0.0},
}
POSITIVE = {
    "grid-wide": ("backends.http.overhead_ms_p50", "backends.wait_share", "model.chains_per_session"),
    "grid-deep": ("model.render_truncated_share", "backends.wait_share", "prompts.shared_prefix_frac.routing"),
    "grid-replay": ("backends.cache.complete_ms_p50", "model.render_truncated_share"),
    "genpuzzles": ("puzzles.brute_solve_calls_per_puzzle", "puzzles.generate_ms_p50.5x3"),
}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def _check_units(metrics: dict, wanted: dict, what: str) -> None:
    for name, unit in wanted.items():
        _expect(name in metrics, f"{what}: metric {name} missing")
        _expect(metrics[name]["unit"] == unit, f"{what}: {name} has unit {metrics[name]['unit']}, not {unit}")
        _expect(isinstance(metrics[name]["value"], (int, float)), f"{what}: {name} is not a number")


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS), "workload list")
    _expect(run.import_package(), "package import")

    for workload in run.WORKLOADS:
        report, result = run.measure(workload, seed=7, seconds=0, trace=False, tiny=True)
        what = f"{workload} untraced"
        _expect(result["correct"] and result["failed"] == 0, f"{what}: {report['problems']}")
        _check_units(result["metrics"], end_to_end, what)
        _expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{what}: a metric is 0")
        _check_units(report["metrics"], {**OWN_NAMES[workload], **COMMON_NAMES}, f"{what} report")
        _expect(report["metrics"]["success_rate"]["value"] == 1.0, f"{what}: success_rate below 1")

        report, result = run.measure(workload, seed=7, seconds=0, trace=True, tiny=True)
        what = f"{workload} traced"
        _expect(result["correct"] and result["failed"] == 0, f"{what}: {report['problems']}")
        _check_units(result["metrics"], per_layer, what)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for name, value in SHAPE[workload].items():
            _expect(values[name] == value, f"{what}: {name} = {values[name]}, expected {value}")
        for name in POSITIVE[workload]:
            _expect(values[name] > 0, f"{what}: {name} is 0")
        print(f"ok {workload}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
