"""Benchmark harness: task files, scoring, multi-trial aggregation, a
single-pass baseline, and oracle helpers for generated puzzles."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Optional, Union

from . import answers, metrics, puzzles
from . import model, prompts, router
from .backends import ScriptedBackend, TallyBackend, ask
from .errors import BackendFailure, EmptySuite, ParseError, parse_json, read_text
from .model import GridSchema, MultipleChoice, Numeric, Problem


@dataclass
class Task:
    id: str
    statement: str
    schema: object  # answer schema (same family as Problem.answer_schema)
    gold: object  # letter (mcq), grid dict (grid), or string (numeric)
    split: Optional[str] = None  # "easy" | "hard"
    suite: str = ""
    clues: list = field(default_factory=list)  # structured clues, grid tasks only

    def to_problem(self) -> Problem:
        return Problem(id=self.id, statement=self.statement, answer_schema=self.schema)


@dataclass
class Verdict:
    correct: bool
    partial: float
    failure: Optional[str] = None  # "NoAnswerFound" | "BackendFailure"

    def __post_init__(self):
        if self.correct and self.partial != 1.0:
            raise ValueError("correct verdicts must have partial = 1.0")


@dataclass
class Reject:
    line: int
    reason: str


# --- task files (JSON lines, one task per line) ----------------------------------

@dataclass(kw_only=True)
class TaskRecord:
    """The fields every task record holds, as the record codec
    (``metrics.to_json``/``from_json``) writes and reads them."""

    optional: ClassVar[tuple[str, ...]] = ("id", "split", "suite")
    id: Union[str, int] = ""
    statement: str
    split: Optional[str] = None
    suite: str = ""


@dataclass(kw_only=True)
class McqRecord(TaskRecord):
    options: tuple[str, ...]
    gold: str


@dataclass(kw_only=True)
class GridRecord(TaskRecord):
    optional: ClassVar[tuple[str, ...]] = (*TaskRecord.optional, "clues")
    schema: GridSchema
    gold: dict[str, dict[str, str]]
    clues: list[puzzles.Clue] = field(default_factory=list)


@dataclass(kw_only=True)
class NumericRecord(TaskRecord):
    gold: Union[str, int]


TASK_RECORDS = {"mcq": McqRecord, "grid": GridRecord, "numeric": NumericRecord}


@dataclass
class _Format:
    """What a task record that names its format (``solve``'s) holds beside
    its format's fields."""

    format: str


def _task_from_record(data: dict, format: str) -> Task:
    record = metrics.from_json(TASK_RECORDS[format], data, "task record")
    if not record.statement.strip():
        raise ValueError("blank statement")
    if format == "mcq":
        schema = MultipleChoice(options=record.options)
        gold = record.gold.upper()
        if gold not in answers.option_letters(schema):
            raise ValueError(f"gold {gold!r} not among option letters")
    elif format == "grid":
        schema = record.schema
        houses = {str(house): house for house in range(1, schema.houses + 1)}
        for key in record.gold:
            if key not in houses:
                raise ValueError(f"gold key {key!r} is not a house number from 1 to {schema.houses}")
        for key, house in houses.items():
            cells = record.gold.get(key)
            if cells is None:
                raise ValueError(f"gold missing house {house}")
            for attr, values in schema.attributes:
                if cells.get(attr) not in values:
                    raise ValueError(f"gold house {house} has bad {attr!r} cell")
        gold = {house: record.gold[key] for key, house in houses.items()}
        puzzles.validate_clues(schema, record.clues)
    else:
        schema = Numeric()
        gold = str(record.gold)
        if answers.read_number(gold) is None:
            raise ValueError(f"gold {gold!r} is not a number")
    return Task(
        id=str(record.id),
        statement=record.statement,
        schema=schema,
        gold=gold,
        split=record.split,
        suite=record.suite,
        clues=getattr(record, "clues", []),
    )


def task_from_record(record) -> Task:
    """The task a record that names its ``format`` holds: a ``solve`` task
    file or a shipped case."""
    format = metrics.from_json(_Format, record, "task record").format
    if format not in TASK_RECORDS:
        raise ParseError(f"unknown format {format!r}", "task record")
    return _task_from_record(record, format)


def load_tasks(path: Union[str, Path], format: str) -> tuple[list[Task], list[Reject]]:
    """Load a line-delimited task file; malformed lines become rejects, never
    silent drops.  An unpaired surrogate escape reads as U+FFFD; a file that
    is not UTF-8 raises ``ParseError``."""
    if format not in TASK_RECORDS:
        raise ValueError(f"format must be one of {tuple(TASK_RECORDS)}")
    text = read_text(path)
    tasks: list[Task] = []
    rejects: list[Reject] = []
    # Not ``splitlines``: a record may hold a raw U+2028 or U+2029.
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = parse_json(line, "task record")
            tasks.append(_task_from_record(record, format))
        except (ValueError, ParseError) as exc:
            rejects.append(Reject(line=line_no, reason=f"SchemaMismatch: {exc}"))
    if not tasks and not rejects:
        raise EmptySuite(f"no tasks in {path}")
    return tasks, rejects


def task_to_record(task: Task, format: str) -> dict:
    parts = {"gold": task.gold}
    if format == "mcq":
        parts["options"] = task.schema.options
    elif format == "grid":
        parts = {"schema": task.schema, "gold": {str(h): c for h, c in task.gold.items()}, "clues": task.clues}
    cls = TASK_RECORDS[format]
    record = cls(id=task.id, statement=task.statement, split=task.split, suite=task.suite, **parts)
    return metrics.to_json(cls, record)


# --- scoring ------------------------------------------------------------------------

def score(task: Task, final_text: str, answer: object = None) -> Verdict:
    """Total and deterministic scoring of a final-answer text against the
    gold: what ``answers.extract`` reads, cell by cell for a grid.
    ``answer`` is that reading when the caller holds it
    (``FinalAnswer.answer``); None reads ``final_text`` here."""
    schema = task.schema
    if answer is None:
        answer = answers.extract(schema, final_text)
    if isinstance(schema, GridSchema):
        cells = [(answer[h][a], task.gold[h][a]) for h in answer for a in schema.attribute_names]
        partial = sum(got is not None and got == gold for got, gold in cells) / len(cells)
        found = any(got is not None for got, _ in cells)
        return Verdict(correct=(partial == 1.0), partial=partial, failure=None if found else "NoAnswerFound")
    if answer is None:
        return Verdict(correct=False, partial=0.0, failure="NoAnswerFound")
    if isinstance(schema, Numeric):
        correct = answer == answers.read_number(str(task.gold))
    elif isinstance(schema, MultipleChoice):
        correct = answer == task.gold
    else:  # free text, matched after stripping whitespace
        correct = answer == str(task.gold).strip()
    return Verdict(correct=correct, partial=1.0 if correct else 0.0)


# --- puzzle task construction ---------------------------------------------------------

def gen_puzzle(seed: int, houses: int, attributes: int) -> tuple[Task, dict[int, dict[str, str]]]:
    """Generate one unique-solution logic-grid Task plus its gold grid."""
    schema, clues, solution = puzzles.generate_puzzle(seed, houses, attributes)
    gold = puzzles.assignment_to_grid(schema, solution)
    statement = puzzles.render_statement(schema, clues)
    task = Task(
        id=f"puzzle-s{seed}-h{houses}-a{attributes}",
        statement=statement,
        schema=schema,
        gold=gold,
        split="easy" if houses <= 3 else "hard",
        suite="generated-puzzles",
        clues=clues,
    )
    return task, gold


def brute_solve_task(task: Task, limit: Optional[int] = None) -> list[dict[int, dict[str, str]]]:
    """Oracle wrapper: all consistent grids for a grid task's clue set."""
    if not isinstance(task.schema, GridSchema):
        raise ValueError("brute_solve_task requires a grid task")
    solutions = puzzles.brute_solve(task.schema, task.clues, limit=limit)
    return [puzzles.assignment_to_grid(task.schema, s) for s in solutions]


def oracle_session_backend(task: Task) -> ScriptedBackend:
    """Scripted backend whose answers come from the brute-force oracle,
    driving a default-config session to the correct solution: one clean
    chain, then the backtrack to its hypothesis that follows a completed
    chain, verified again and concluded."""
    solutions = brute_solve_task(task, limit=2)
    if len(solutions) != 1:
        raise ValueError(f"task {task.id} does not have a unique solution")
    answer_block = answers.format_grid_answer(task.schema, solutions[0])
    return ScriptedBackend(
        {
            "routing": [
                "ACTION: PremiseDiscovery\nGUIDANCE: List every clue with a number.",
                "ACTION: HypothesisGeneration\nGUIDANCE: Propose the full assignment.",
                "GUIDANCE: Check the proposed assignment against every clue.",
                "ACTION: SUMMARY<FINISHED>\nGUIDANCE: State the verified assignment.",
                "TARGET: Step 2\nREASON: KeyNode",
                "GUIDANCE: Re-check the proposed assignment clue by clue.",
                "ACTION: SUMMARY<FINISHED>\nGUIDANCE: State the verified assignment.",
            ],
            "solve": [
                "The clues are enumerated and classified.",
                f"Hypothesis 1: the assignment is\n{answer_block}",
                "Checked every clue against Hypothesis 1: all satisfied.",
                f"All clues verified.\n{answer_block}",
                "Re-checked every clue against Hypothesis 1: all satisfied.",
                f"All clues verified again.\n{answer_block}",
            ],
            "check": "Check Result: No error.",
            "summarize": f"All clues are satisfied by the assignment.\n{answer_block}",
        }
    )


# --- strategies and suite execution ----------------------------------------------------

def single_pass(task: Task, backend) -> str:
    """Baseline: one bare solver call with the problem and format instruction."""
    instruction = answers.format_instruction(task.schema)
    request = prompts.build_single_pass_prompt(task.statement, instruction)
    return ask(backend, request, lambda text: text)  # the reply as it came: one call


@dataclass
class TrialResult:
    task_id: str
    trial: int
    verdict: Verdict
    split: Optional[str] = None
    rounds: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass
class BenchReport:
    suite: str
    strategy: str
    trials: int
    results: list[TrialResult]
    wall_time_s: float = 0.0

    @property
    def prompt_tokens(self) -> int:
        return sum(r.prompt_tokens for r in self.results)

    @property
    def completion_tokens(self) -> int:
        return sum(r.completion_tokens for r in self.results)

    def mean_success(self, split: Optional[str] = None) -> float:
        selected = self.results
        if split is not None:
            selected = [r for r in selected if r.split == split]
        if not selected:
            return 0.0
        return sum(1.0 if r.verdict.correct else 0.0 for r in selected) / len(selected)

    def mean_partial(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.verdict.partial for r in self.results) / len(self.results)

    def to_json(self) -> dict:
        aggregates = {"overall": self.mean_success(), "mean_partial": self.mean_partial()}
        for split in sorted({r.split for r in self.results if r.split}):
            aggregates[split] = self.mean_success(split)
        return {
            "suite": self.suite,
            "strategy": self.strategy,
            "trials": self.trials,
            "aggregates": aggregates,
            "usage": {
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens,
                "wall_time_s": round(self.wall_time_s, 3),
            },
            "results": [
                {
                    "task_id": r.task_id,
                    "trial": r.trial,
                    "correct": r.verdict.correct,
                    "partial": r.verdict.partial,
                    "failure": r.verdict.failure,
                    "rounds": r.rounds,
                }
                for r in self.results
            ],
        }


BackendLike = object
BackendFactory = Callable[[Task], BackendLike]


def run_benchmark(
    tasks: list[Task],
    strategy: str,
    backend: Union[BackendLike, BackendFactory],
    trials: int = 3,
    workers: Optional[int] = None,
    session_config: Optional[router.SessionConfig] = None,
    sop_registry=None,
    suite: str = "",
    trace_sink: Optional[Callable[[Task, model.AtomicTree, Verdict], None]] = None,
) -> BenchReport:
    """Run every task ``trials`` times under a strategy ('ar' or
    'single-pass').  Each (task, trial) pair is one job for one pool of
    ``workers`` threads (at least 1; default: one per job, at most 8; sessions
    wait on the backend, not the CPU).  Results stay task-major, trials ascending.  A
    callable ``backend`` is a factory, called with the task at the start of
    each trial in that trial's thread.  A ``ScriptedBackend`` is used up as
    it answers, so each trial gets a ``fresh()`` copy of it."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if strategy not in ("ar", "single-pass"):
        raise ValueError(f"unknown strategy {strategy!r}")

    factory: BackendFactory
    if callable(backend) and not hasattr(backend, "complete"):
        factory = backend  # type: ignore[assignment]
    elif isinstance(backend, ScriptedBackend):
        factory = lambda task: backend.fresh()  # noqa: E731
    else:
        factory = lambda task: backend  # noqa: E731

    items = [(task, trial) for task in tasks for trial in range(1, trials + 1)]
    if workers is None:
        workers = min(8, len(items))
    started = time.monotonic()

    def run_trial(item: tuple[Task, int]) -> TrialResult:
        task, trial = item
        tally = TallyBackend(factory(task))
        rounds = 0
        try:
            if strategy == "ar":
                tree, final = router.run_session(
                    task.to_problem(),
                    config=session_config,
                    backends=tally,
                    sop_registry=sop_registry,
                )
                rounds = model.round_count(tree)
                verdict = score(task, final.text, final.answer)
                if trace_sink:
                    trace_sink(task, tree, verdict)
            else:
                verdict = score(task, single_pass(task, tally))
        except BackendFailure:
            verdict = Verdict(correct=False, partial=0.0, failure="BackendFailure")
        return TrialResult(
            task_id=task.id,
            trial=trial,
            verdict=verdict,
            split=task.split,
            rounds=rounds,
            prompt_tokens=tally.prompt_tokens,
            completion_tokens=tally.completion_tokens,
        )

    if workers <= 1 or len(items) <= 1:
        all_results = [run_trial(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            all_results = list(pool.map(run_trial, items))

    return BenchReport(
        suite=suite or (tasks[0].suite if tasks else ""),
        strategy=strategy,
        trials=trials,
        results=all_results,
        wall_time_s=time.monotonic() - started,
    )
