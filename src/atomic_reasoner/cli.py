"""Command-line interface: solve, bench, synth, inspect, genpuzzles.

Exit codes: 0 success, 1 usage error, 2 backend failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional

from . import bench as bench_mod
from . import metrics, model, router, sop as sop_mod
from .backends import (
    CacheBackend,
    CacheMode,
    HttpBackend,
    HttpConfig,
    ScriptedBackend,
)
from .errors import AtomicReasonerError, BackendFailure, ParseError
from .model import FreeText, Problem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BACKEND = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; we reserve 2 for backend
    failures, so convert parse errors into exceptions and map them to 1."""

    def error(self, message):  # noqa: D102
        raise UsageError(message)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("http", "scripted", "replay"), default="scripted")
    parser.add_argument("--script", help="JSON script file for the scripted backend")
    parser.add_argument("--base-url", default="http://localhost:8000/v1")
    parser.add_argument("--model", default="gpt-4o-mini")
    parser.add_argument("--api-key-env", default="OPENAI_API_KEY")
    parser.add_argument("--max-rounds", type=int, default=12)
    parser.add_argument("--max-chains", type=int, default=4)
    parser.add_argument("--checker-mode", choices=router.CHECKER_MODES, default="every")
    parser.add_argument("--sop-dir", help="directory of .sop files (default: built-in set)")
    parser.add_argument("--cache", choices=("record", "replay", "off"), default="off")
    parser.add_argument("--cache-dir", default="cache")
    parser.add_argument("--out", help="output directory (default: runs/<timestamp>)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="atomic-reasoner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one session on a single problem")
    p_solve.add_argument("problem", nargs="?", help="problem file (plain text or task JSON)")
    p_solve.add_argument("--stdin", action="store_true", help="read the problem text from stdin")
    _add_common_flags(p_solve)

    p_bench = sub.add_parser("bench", help="run a task suite and report means")
    p_bench.add_argument("suite", help="line-delimited JSON task file")
    p_bench.add_argument("--format", choices=bench_mod.TASK_FORMATS, default="grid")
    p_bench.add_argument("--strategy", choices=("ar", "single-pass"), default="ar")
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument("--workers", type=int, default=None)
    _add_common_flags(p_bench)

    p_synth = sub.add_parser("synth", help="export SFT records from saved traces")
    p_synth.add_argument("traces", help="directory of *.trace.json files")
    p_synth.add_argument("--filter", choices=("correct_only", "all"), default="correct_only")
    p_synth.add_argument("--out", help="output directory (default: runs/<timestamp>)")

    p_inspect = sub.add_parser("inspect", help="pretty-print a saved trace")
    p_inspect.add_argument("trace", help="trace file written by solve/bench")

    p_gen = sub.add_parser("genpuzzles", help="emit a generated logic-grid suite with gold")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--houses", type=int, default=3)
    p_gen.add_argument("--attributes", type=int, default=3)
    p_gen.add_argument("--count", type=int, default=20)
    p_gen.add_argument("--out", help="output directory (default: runs/<timestamp>)")

    return parser


def _out_dir(args) -> Path:
    if getattr(args, "out", None):
        path = Path(args.out)
    else:
        stamp = _dt.datetime.now().strftime("%Y%m%d-%H%M%S")
        path = Path("runs") / stamp
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_script(args):
    if not args.script:
        raise UsageError("--backend scripted requires --script")
    return json.loads(Path(args.script).read_text(encoding="utf-8"))


def _build_backend(args, script=None):
    """The backend chain the flags name; ``script`` is the parsed --script
    file, read here when not given."""
    if args.backend == "replay":  # serve recorded responses only, no inner backend
        backend = CacheBackend(None, CacheMode.REPLAY, args.cache_dir)
    else:
        if args.backend == "scripted":
            inner = ScriptedBackend(_read_script(args) if script is None else script)
        else:
            inner = HttpBackend(
                HttpConfig(base_url=args.base_url, model=args.model, api_key_env=args.api_key_env)
            )
        if args.cache == "off":
            return inner
        backend = CacheBackend(inner, CacheMode(args.cache), args.cache_dir, strict=False)
    # Every cache layer keys under --model, so a store replays whichever backend recorded it.
    backend.model = args.model
    return backend


def _close_http(backend) -> None:
    """Close the HTTP backend ``_build_backend`` made, bare or under a cache."""
    inner = getattr(backend, "inner", backend)
    if isinstance(inner, HttpBackend):
        inner.close()


def _session_config(args) -> router.SessionConfig:
    return router.SessionConfig(
        max_rounds=args.max_rounds, max_chains=args.max_chains, checker_mode=args.checker_mode
    )


def _sop_registry(args) -> sop_mod.SopRegistry:
    if getattr(args, "sop_dir", None):
        return sop_mod.load_sops(args.sop_dir)
    return sop_mod.builtin_registry()


def _read_problem(args) -> tuple[Problem, Optional[bench_mod.Task]]:
    if args.stdin:
        text = sys.stdin.read()
        return Problem(id="stdin", statement=text, answer_schema=FreeText()), None
    if not args.problem:
        raise UsageError("solve needs a problem file or --stdin")
    raw = Path(args.problem).read_text(encoding="utf-8")
    if args.problem.endswith(".json"):
        record = json.loads(raw)
        task = bench_mod._task_from_record(record, record["format"], record.get("suite", ""))
        return task.to_problem(), task
    return Problem(id=Path(args.problem).stem, statement=raw, answer_schema=FreeText()), None


_UNSAFE_NAME_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def _write_trace(out: Path, problem_id: str, tree, correct: Optional[bool], suite: str) -> Path:
    # Task ids come from input files: keep the names they make inside ``out``.
    name = _UNSAFE_NAME_CHARS.sub("_", problem_id).lstrip(".") or "problem"
    trace_path = out / f"{name}.trace.json"
    trace_path.write_text(metrics.serialize_trace(tree), encoding="utf-8")
    meta = {"correct": correct, "suite": suite}
    (out / f"{name}.meta.json").write_text(
        json.dumps(meta, indent=2) + "\n", encoding="utf-8"
    )
    return trace_path


def cmd_solve(args) -> int:
    problem, task = _read_problem(args)
    backend = _build_backend(args)
    suite = task.suite if task is not None else ""
    try:
        out = _out_dir(args)
        tree, final = router.run_session(
            problem,
            config=_session_config(args),
            backends=backend,
            sop_registry=_sop_registry(args),
        )
    except BackendFailure as exc:
        # Keep the partial trace; main() reports the failure and exits 2.
        _write_trace(out, problem.id, exc.tree, False if task is not None else None, suite)
        raise
    finally:
        _close_http(backend)
    correct = None
    if task is not None:
        correct = bench_mod.score(task, final.text).correct
    _write_trace(out, problem.id, tree, correct, suite)
    (out / "answer.txt").write_text(final.text + "\n", encoding="utf-8")
    print(f"rounds: {model.round_count(tree)}  chains: {len(tree.chains)}")
    print(final.text)
    return EXIT_OK


def cmd_bench(args) -> int:
    tasks, rejects = bench_mod.load_tasks(args.suite, args.format)
    for reject in rejects:
        print(f"reject line {reject.line}: {reject.reason}", file=sys.stderr)
    if not tasks:
        raise UsageError("suite contains no valid tasks")
    if args.backend == "scripted" and args.cache != "record":
        # A script is used up as it answers: every (task, trial) gets its own
        # copy of the file, which is read once.  Recording keeps one chain, so
        # concurrent trials share one single-flight layer and pop the script
        # once per stored key.
        script = _read_script(args)
        backend = lambda task: _build_backend(args, script)  # noqa: E731
    else:
        backend = _build_backend(args)
    try:
        out = _out_dir(args)
        report = bench_mod.run_benchmark(
            tasks,
            strategy=args.strategy,
            backend=backend,
            trials=args.trials,
            workers=args.workers,
            session_config=_session_config(args),
            sop_registry=_sop_registry(args),
            suite=Path(args.suite).stem,
        )
    finally:
        _close_http(backend)
    payload = report.to_json(tasks)
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    for name, value in payload["aggregates"].items():
        print(f"{name}: {value:.3f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    traces_dir = Path(args.traces)
    if not traces_dir.is_dir():
        raise FileNotFoundError(f"not a directory: {traces_dir}")
    scored = []
    for trace_path in sorted(traces_dir.glob("*.trace.json")):
        tree = metrics.deserialize_trace(trace_path.read_text(encoding="utf-8"))
        meta_path = trace_path.with_name(trace_path.name.replace(".trace.json", ".meta.json"))
        correct, suite = False, ""
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            correct = bool(meta.get("correct"))
            suite = meta.get("suite") or ""
        scored.append(metrics.ScoredTrace(tree=tree, correct=correct, suite=suite))
    records = metrics.to_sft_records(scored, filter=args.filter)
    out = _out_dir(args)
    sft_path = out / "sft.jsonl"
    sft_path.write_text(metrics.sft_records_to_jsonl(records), encoding="utf-8")
    print(f"{len(records)} records -> {sft_path}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    tree = metrics.deserialize_trace(Path(args.trace).read_text(encoding="utf-8"))
    print(f"Problem: {tree.problem.statement}")
    print()
    print(model.render_tree(tree))
    stats = metrics.trace_stats(tree)
    print()
    print(f"rounds: {stats.rounds}  chains: {len(tree.chains)}  backtracks: {stats.backtracks}")
    print(f"revisions: {stats.revisions}  check errors: {stats.check_errors}")
    if tree.terminated:
        print(f"termination: {tree.terminated.mode.value}")
    return EXIT_OK


def cmd_genpuzzles(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    out = _out_dir(args)
    lines = []
    for seed in range(args.seed, args.seed + args.count):
        task, _grid = bench_mod.gen_puzzle(seed, args.houses, args.attributes)
        lines.append(json.dumps(bench_mod.task_to_record(task, "grid"), ensure_ascii=False))
    suite_path = out / "generated_suite.jsonl"
    suite_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{args.count} tasks -> {suite_path}")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "bench": cmd_bench,
    "synth": cmd_synth,
    "inspect": cmd_inspect,
    "genpuzzles": cmd_genpuzzles,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BackendFailure as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (OSError, json.JSONDecodeError, ParseError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AtomicReasonerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
