"""Atomic reasoning orchestration engine and benchmark harness.

Runs slow-thinking sessions over a backend LLM: a routing policy picks one
atomic reasoning action per round, an executor performs it, a checker audits
it against a per-category error taxonomy, and the resulting atomic tree is
scored, serialized, and exportable as fine-tuning data.
"""

from .backends import (
    CacheBackend,
    CacheMode,
    ChatMessage,
    CompletionRequest,
    CompletionResult,
    HttpBackend,
    HttpConfig,
    ScriptedBackend,
)
from .bench import BenchReport, Task, Verdict, load_tasks, run_benchmark, score
from .checker import ErrorKind, applicable_errors, run_check_cycle
from .errors import AtomicReasonerError, BackendFailure
from .metrics import (
    deserialize_trace,
    entropy,
    serialize_trace,
    to_sft_records,
    trace_stats,
    weighted_step_entropy,
)
from .model import (
    AtomicAction,
    AtomicTree,
    Chain,
    ChainStatus,
    CheckReport,
    FreeText,
    GridSchema,
    MultipleChoice,
    Node,
    Numeric,
    Problem,
    TerminationMode,
    render_tree,
)
from .puzzles import brute_solve, generate_puzzle
from .router import (
    Backtrack,
    Extend,
    SessionConfig,
    Terminate,
    decide,
    run_session,
)
from .sop import Sop, SopRegistry, builtin_registry, load_sops, triage

__version__ = "0.1.0"

__all__ = [
    "AtomicAction",
    "AtomicReasonerError",
    "AtomicTree",
    "BackendFailure",
    "Backtrack",
    "BenchReport",
    "CacheBackend",
    "CacheMode",
    "Chain",
    "ChainStatus",
    "ChatMessage",
    "CheckReport",
    "CompletionRequest",
    "CompletionResult",
    "ErrorKind",
    "Extend",
    "FreeText",
    "GridSchema",
    "HttpBackend",
    "HttpConfig",
    "MultipleChoice",
    "Node",
    "Numeric",
    "Problem",
    "ScriptedBackend",
    "SessionConfig",
    "Sop",
    "SopRegistry",
    "Task",
    "Terminate",
    "TerminationMode",
    "Verdict",
    "applicable_errors",
    "brute_solve",
    "builtin_registry",
    "decide",
    "deserialize_trace",
    "entropy",
    "generate_puzzle",
    "load_sops",
    "load_tasks",
    "render_tree",
    "run_benchmark",
    "run_check_cycle",
    "run_session",
    "score",
    "serialize_trace",
    "to_sft_records",
    "trace_stats",
    "triage",
    "weighted_step_entropy",
]
