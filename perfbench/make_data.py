"""Regenerate the benchmark's committed data under perfbench/data/.

    python3 perfbench/make_data.py

* ``wide.jsonl``: 64 grid tasks, 16 each at 3x3, 3x4, 4x3 and 4x4 (seeds 0-63).
* ``deep.jsonl``: 5 grid tasks at 5x4 (seeds 1000-1004).
* ``baseline.json``: the sha256 of every ``genpuzzles`` record in the fixed
  puzzle set and of the whole suite, and the exact per-tag calls and
  characters of the shipped case1/case2 replays, at the commit that made it.

The suites are generated once and committed so the session workloads do not
pay for puzzle generation.  Rerunning this script is only needed when the
generator's output is meant to change; the genpuzzles workload then fails
until ``baseline.json`` is regenerated.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from atomic_reasoner import bench  # noqa: E402

from simmodel import digest  # noqa: E402
from workloads import DATA_DIR, GENPUZZLE_SET, Outcome, check_case_replays  # noqa: E402


def _line(seed: int, houses: int, attributes: int) -> str:
    task, _ = bench.gen_puzzle(seed, houses, attributes)
    return json.dumps(bench.task_to_record(task, "grid"), ensure_ascii=False)


def main() -> int:
    DATA_DIR.mkdir(exist_ok=True)
    sizes = ((3, 3), (3, 4), (4, 3), (4, 4))
    wide = [_line(seed, *sizes[seed % 4]) for seed in range(64)]
    (DATA_DIR / "wide.jsonl").write_text("\n".join(wide) + "\n", encoding="utf-8")
    deep = [_line(seed, 5, 4) for seed in range(1000, 1005)]
    (DATA_DIR / "deep.jsonl").write_text("\n".join(deep) + "\n", encoding="utf-8")

    records = {}
    lines = []
    for houses, attributes, seed in GENPUZZLE_SET:
        line = _line(seed, houses, attributes)
        records[f"{houses}x{attributes}-s{seed}"] = digest(line)
        lines.append(line)
    outcome = Outcome()
    case_replays = check_case_replays(outcome)
    if outcome.failed:
        raise SystemExit(f"case replays failed: {outcome.problems}")
    baseline = {
        "genpuzzles": {"records": records, "suite_sha256": digest("\n".join(lines) + "\n")},
        "case_replays": case_replays,
    }
    (DATA_DIR / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(wide)} wide, {len(deep)} deep tasks and baseline.json to {DATA_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
