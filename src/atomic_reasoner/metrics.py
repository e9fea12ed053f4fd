"""Trace serialization, run statistics, SFT-corpus export, and discrete
entropy diagnostics over action selection."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import model
from .errors import DimensionMismatch, InvalidDistribution, ParseError, check_shape
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
    Termination,
    TerminationMode,
)

PROB_TOLERANCE = 1e-9
TRACE_FORMAT_VERSION = 1


# --- entropy diagnostics --------------------------------------------------------

@dataclass
class DiscreteDistribution:
    """Finite outcome distribution: (label, probability) pairs."""

    outcomes: list[tuple[str, float]]

    def __post_init__(self):
        if not self.outcomes:
            raise InvalidDistribution("distribution needs at least one outcome")
        total = 0.0
        for _, p in self.outcomes:
            if p < 0:
                raise InvalidDistribution(f"negative probability {p}")
            total += p
        if abs(total - 1.0) > PROB_TOLERANCE:
            raise InvalidDistribution(f"probabilities sum to {total}, not 1")

    @classmethod
    def uniform(cls, labels: Sequence[str]) -> "DiscreteDistribution":
        p = 1.0 / len(labels)
        return cls([(label, p) for label in labels])


def entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy in bits; 0 log 0 := 0."""
    total = 0.0
    for _, p in dist.outcomes:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def weighted_step_entropy(selection_row: Sequence[float], per_action_entropies: Sequence[float]) -> float:
    """Expected per-step entropy when each action j (with its own output
    entropy E_j) is selected with probability r_j: sum_j r_j * E_j."""
    if len(selection_row) != len(per_action_entropies):
        raise DimensionMismatch(
            f"{len(selection_row)} selection probabilities vs "
            f"{len(per_action_entropies)} entropies"
        )
    if any(p < 0 for p in selection_row):
        raise InvalidDistribution("negative selection probability")
    if abs(sum(selection_row) - 1.0) > PROB_TOLERANCE:
        raise InvalidDistribution("selection row must sum to 1")
    if any(e < 0 for e in per_action_entropies):
        raise InvalidDistribution("entropies must be non-negative")
    return sum(r * e for r, e in zip(selection_row, per_action_entropies))


# --- run statistics ---------------------------------------------------------------

@dataclass
class TraceStats:
    rounds: int
    action_histogram: dict[str, int]
    chains: int
    backtracks: int
    revisions: int
    check_errors: int


def trace_stats(tree: AtomicTree) -> TraceStats:
    """Counts computed purely from the trace."""
    histogram = {action.value: 0 for action in AtomicAction}
    revisions = 0
    check_errors = 0
    for node in tree.nodes.values():
        histogram[node.action.value] += 1
        if node.revised:
            revisions += 1
        check_errors += sum(1 for r in node.check_reports if r.is_error)
    return TraceStats(
        rounds=model.round_count(tree),
        action_histogram=histogram,
        chains=len(tree.chains),
        backtracks=max(0, len(tree.chains) - 1),
        revisions=revisions,
        check_errors=check_errors,
    )


# --- trace serialization ------------------------------------------------------------

def _schema_to_json(schema) -> dict:
    if isinstance(schema, FreeText):
        return {"kind": "free_text"}
    if isinstance(schema, Numeric):
        return {"kind": "numeric"}
    if isinstance(schema, MultipleChoice):
        return {"kind": "mcq", "options": list(schema.options)}
    if isinstance(schema, GridSchema):
        return {
            "kind": "grid",
            "houses": schema.houses,
            "attributes": [[name, list(values)] for name, values in schema.attributes],
        }
    raise TypeError(f"unknown schema type {type(schema)!r}")


# The fields of each answer schema kind's JSON object beside "kind".
SCHEMA_SHAPES = {
    "free_text": {}, "numeric": {}, "mcq": {"options": [str]},
    "grid": {"houses": int, "attributes": [[str, [str]]]},
}


def schema_from_json(data: dict):
    kind = data["kind"]
    if kind not in SCHEMA_SHAPES:
        raise ParseError(f"unknown kind {kind!r}", "answer schema")
    check_shape(data, SCHEMA_SHAPES[kind], "answer schema")
    if kind == "mcq":
        return MultipleChoice(options=tuple(data["options"]))
    if kind == "grid":
        attributes = tuple((name, tuple(values)) for name, values in data["attributes"])
        return GridSchema(houses=data["houses"], attributes=attributes)
    return FreeText() if kind == "free_text" else Numeric()


# What every trace document holds.
TRACE_SHAPE = {
    "format_version": int,
    "problem": {"id": str, "statement": str, "domain_hint": (str, None), "answer_schema": {"kind": str}},
    "nodes": {
        str: {
            "action": str,
            "guidance": str,
            "content": str,
            "created_round": int,
            "revised": bool,
            "flagged": bool,
            "check_reports": [
                {"verdict": str, "kinds": [str], "rationale": str, "suggestion": (str, None)}
            ],
        }
    },
    "chains": {
        str: {"parent": ([str, int], None), "node_ids": [str], "status": str, "summary": (str, None)}
    },
    "chain_order": [str],
    "active_chain": str,
    "terminated": ({"mode": str, "final_answer": str}, None),
    "next_node_seq": int,
    "next_chain_seq": int,
}


def tree_to_json(tree: AtomicTree) -> dict:
    return {
        "format_version": TRACE_FORMAT_VERSION,
        "problem": {
            "id": tree.problem.id,
            "statement": tree.problem.statement,
            "domain_hint": tree.problem.domain_hint,
            "answer_schema": _schema_to_json(tree.problem.answer_schema),
        },
        "nodes": {
            nid: {
                "action": node.action.value,
                "guidance": node.guidance,
                "content": node.content,
                "created_round": node.created_round,
                "revised": node.revised,
                "flagged": node.flagged,
                "check_reports": [
                    {
                        "verdict": r.verdict,
                        "kinds": list(r.kinds),
                        "rationale": r.rationale,
                        "suggestion": r.suggestion,
                    }
                    for r in node.check_reports
                ],
            }
            for nid, node in tree.nodes.items()
        },
        "chains": {
            cid: {
                "parent": list(chain.parent) if chain.parent else None,
                "node_ids": list(chain.node_ids),
                "status": chain.status.value,
                "summary": chain.summary,
            }
            for cid, chain in tree.chains.items()
        },
        "chain_order": list(tree.chains),
        "active_chain": tree.active_chain_id,
        "terminated": (
            {
                "mode": tree.terminated.mode.value,
                "final_answer": tree.terminated.final_answer,
            }
            if tree.terminated
            else None
        ),
        "next_node_seq": tree.next_node_seq,
        "next_chain_seq": tree.next_chain_seq,
    }


def serialize_trace(tree: AtomicTree) -> str:
    """Canonical document: sorted keys, fixed indentation, trailing newline.
    Equal trees serialize identically."""
    return json.dumps(tree_to_json(tree), sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def deserialize_trace(document: str) -> AtomicTree:
    """The tree a trace document holds.  Raises ``ParseError`` unless the
    document has ``TRACE_SHAPE`` and this ``format_version``, and every
    chain's nodes, parent step and the active chain exist, so no reader of
    the tree can fail on it."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid trace document: {exc.msg}", line=exc.lineno)
    check_shape(data, TRACE_SHAPE, "trace")
    if data["format_version"] != TRACE_FORMAT_VERSION:
        raise ParseError(f"unknown format_version {data['format_version']}", "trace")
    if sorted(data["chain_order"]) != sorted(data["chains"]):
        raise ParseError("chain_order does not name each chain once", "trace")
    try:
        problem = Problem(
            id=data["problem"]["id"],
            statement=data["problem"]["statement"],
            domain_hint=data["problem"]["domain_hint"],
            answer_schema=schema_from_json(data["problem"]["answer_schema"]),
        )
        nodes = {}
        for nid, nd in data["nodes"].items():
            nodes[nid] = Node(
                id=nid,
                action=AtomicAction(nd["action"]),
                guidance=nd["guidance"],
                content=nd["content"],
                created_round=nd["created_round"],
                revised=nd["revised"],
                flagged=nd["flagged"],
                check_reports=[
                    CheckReport(
                        verdict=r["verdict"],
                        kinds=r["kinds"],
                        rationale=r["rationale"],
                        suggestion=r["suggestion"],
                    )
                    for r in nd["check_reports"]
                ],
            )
        chains = {}
        for cid in data["chain_order"]:
            cd = data["chains"][cid]
            chains[cid] = Chain(
                id=cid,
                parent=tuple(cd["parent"]) if cd["parent"] else None,
                node_ids=cd["node_ids"],
                status=ChainStatus(cd["status"]),
                summary=cd["summary"],
            )
        terminated = None
        if data["terminated"]:
            terminated = Termination(
                mode=TerminationMode(data["terminated"]["mode"]),
                final_answer=data["terminated"]["final_answer"],
            )
    except ValueError as exc:
        raise ParseError(f"malformed trace document: {exc!r}")
    earlier: set[str] = set()
    for cid, chain in chains.items():
        if not all(nid in nodes for nid in chain.node_ids):
            raise ParseError(f"chain {cid} holds a node the trace lacks", "trace")
        if chain.parent is not None:
            parent_id, index = chain.parent
            # Only an earlier chain can be a parent, so parents form no cycle.
            if parent_id not in earlier or not 0 <= index < len(chains[parent_id].node_ids):
                raise ParseError(f"chain {cid} branches from no step of an earlier chain", "trace")
        earlier.add(cid)
    if data["active_chain"] not in chains:
        raise ParseError(f"active_chain {data['active_chain']!r} is not a chain", "trace")
    return AtomicTree(
        problem=problem,
        chains=chains,
        nodes=nodes,
        active_chain_id=data["active_chain"],
        terminated=terminated,
        next_node_seq=data["next_node_seq"],
        next_chain_seq=data["next_chain_seq"],
    )


# --- SFT export -------------------------------------------------------------------

@dataclass
class SftRecord:
    instruction: str
    reasoning: str
    answer: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.instruction.strip() and self.reasoning.strip() and self.answer.strip()):
            raise ValueError("instruction, reasoning, and answer must be non-empty")


@dataclass
class ScoredTrace:
    tree: AtomicTree
    correct: bool
    suite: str = ""


def to_sft_records(traces: Iterable[ScoredTrace], filter: str = "correct_only") -> list[SftRecord]:
    """Export terminated, scored traces as instruction/reasoning/answer
    records.  ``filter`` is 'all' or 'correct_only'.  The reasoning is the
    terminating chain's ancestry, root to tip, one line per step; revised
    content already replaced the originals in place."""
    if filter not in ("all", "correct_only"):
        raise ValueError("filter must be 'all' or 'correct_only'")
    records = []
    for scored in traces:
        tree = scored.tree
        if tree.terminated is None:
            continue
        if filter == "correct_only" and not scored.correct:
            continue
        reasoning = model.render_steps(model.active_path(tree))
        texts = (tree.problem.statement, reasoning, tree.terminated.final_answer)
        if not all(text.strip() for text in texts):
            continue
        records.append(
            SftRecord(
                instruction=tree.problem.statement,
                reasoning=reasoning,
                answer=tree.terminated.final_answer,
                meta={
                    "suite": scored.suite,
                    "rounds": model.round_count(tree),
                    "correct": scored.correct,
                },
            )
        )
    return records


def sft_records_to_jsonl(records: Iterable[SftRecord]) -> str:
    lines = []
    for record in records:
        lines.append(
            json.dumps(
                {
                    "instruction": record.instruction,
                    "reasoning": record.reasoning,
                    "answer": record.answer,
                    "meta": record.meta,
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
