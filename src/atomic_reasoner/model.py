"""Atomic tree data model: actions, nodes, chains, and tree operations.

The tree is the full record of one solving session.  Every executed atomic
action becomes a node on some chain; backtracking forks a new chain off a
historical node.  Exactly one chain is Active until the tree terminates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    AlreadyTerminated,
    EmptyProblem,
    MissingHypothesis,
    NodeNotOnActivePath,
    Terminated,
    UnknownAction,
)

ELISION_MARKER = "[... earlier steps elided ...]"
REVIEW_MARK = "  <-- step under review"

# Minimum number of trailing nodes the active chain keeps under truncation,
# so the router always sees the recent context.
ACTIVE_CHAIN_KEEP = 3


class AtomicAction(enum.Enum):
    """The closed six-action taxonomy."""

    PREMISE_DISCOVERY = "PremiseDiscovery"
    PREMISE_RETRIEVAL = "PremiseRetrieval"
    PREMISE_SUMMARIZATION = "PremiseSummarization"
    HYPOTHESIS_GENERATION = "HypothesisGeneration"
    HYPOTHESIS_VERIFICATION = "HypothesisVerification"
    SUMMARY_FINISHED = "SummaryFinished"


class ActionCategory(enum.Enum):
    PREMISE = "Premise"
    REASONING = "Reasoning"
    ENDING = "Ending"


_CATEGORY = {
    AtomicAction.PREMISE_DISCOVERY: ActionCategory.PREMISE,
    AtomicAction.PREMISE_RETRIEVAL: ActionCategory.PREMISE,
    AtomicAction.PREMISE_SUMMARIZATION: ActionCategory.PREMISE,
    AtomicAction.HYPOTHESIS_GENERATION: ActionCategory.REASONING,
    AtomicAction.HYPOTHESIS_VERIFICATION: ActionCategory.REASONING,
    AtomicAction.SUMMARY_FINISHED: ActionCategory.ENDING,
}


def category(action: AtomicAction) -> ActionCategory:
    return _CATEGORY[action]


# Action names by lower-cased value; no value holds "_", so dropping them
# accepts the snake_case spellings used by SOP files too.
_ACTION_BY_NAME = {action.value.lower(): action for action in AtomicAction}


def parse_action(name: str) -> AtomicAction:
    """Parse an action name; the enumeration is closed."""
    action = _ACTION_BY_NAME.get(name.strip().lower().replace("_", ""))
    if action is None:
        raise UnknownAction(f"unknown atomic action: {name!r}")
    return action


# --- answer schemas ---------------------------------------------------------

@dataclass(frozen=True)
class FreeText:
    kind: str = "free_text"


@dataclass(frozen=True)
class Numeric:
    kind: str = "numeric"


@dataclass(frozen=True)
class MultipleChoice:
    options: tuple[str, ...]
    kind: str = "mcq"

    def __post_init__(self):
        if len(self.options) < 2:
            raise ValueError("multiple choice needs at least 2 options")


@dataclass(frozen=True)
class GridSchema:
    """Logic-grid schema: n houses, each attribute has exactly n values."""

    houses: int
    attributes: tuple[tuple[str, tuple[str, ...]], ...]
    kind: str = "grid"

    def __post_init__(self):
        if self.houses < 1:
            raise ValueError("grid schema needs at least 1 house")
        if len(self.attributes) < 1:
            raise ValueError("grid schema needs at least 1 attribute")

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)

    def values_for(self, attribute: str) -> tuple[str, ...]:
        for name, values in self.attributes:
            if name == attribute:
                return values
        raise KeyError(attribute)


AnswerSchema = Union[FreeText, Numeric, MultipleChoice, GridSchema]


@dataclass
class Problem:
    id: str
    statement: str
    domain_hint: Optional[str] = None
    answer_schema: AnswerSchema = field(default_factory=FreeText)


# --- check reports (owned by checker module, stored on nodes) ---------------

@dataclass
class CheckReport:
    verdict: str  # "NoError" | "Error"
    kinds: list[str] = field(default_factory=list)
    rationale: str = ""
    suggestion: Optional[str] = None

    def __post_init__(self):
        if self.verdict == "Error" and not self.kinds:
            raise ValueError("Error verdict requires at least one kind")
        if self.verdict == "NoError" and self.kinds:
            raise ValueError("NoError verdict must not carry kinds")

    @property
    def is_error(self) -> bool:
        return self.verdict == "Error"


# --- nodes and chains -------------------------------------------------------

@dataclass
class Node:
    id: str
    action: AtomicAction
    guidance: str
    content: str
    created_round: int
    check_reports: list[CheckReport] = field(default_factory=list)
    revised: bool = False
    flagged: bool = False


class ChainStatus(enum.Enum):
    ACTIVE = "Active"
    SUSPENDED = "Suspended"
    DORMANT = "Dormant"


@dataclass
class Chain:
    id: str
    parent: Optional[tuple[str, int]]  # (chain id, node index on that chain)
    node_ids: list[str] = field(default_factory=list)
    status: ChainStatus = ChainStatus.ACTIVE
    summary: Optional[str] = None


class TerminationMode(enum.Enum):
    ACTIVE_SOLVED = "ActiveSolved"
    PASSIVE_LIMIT = "PassiveLimit"


@dataclass
class Termination:
    mode: TerminationMode
    final_answer: str


@dataclass
class AtomicTree:
    problem: Problem
    chains: dict[str, Chain] = field(default_factory=dict)
    nodes: dict[str, Node] = field(default_factory=dict)
    active_chain_id: str = ""
    terminated: Optional[Termination] = None
    next_node_seq: int = 1
    next_chain_seq: int = 1


# --- operations ---------------------------------------------------------------

def new_tree(problem: Problem) -> AtomicTree:
    """Fresh tree: one empty Active root chain, zero nodes."""
    if not problem.statement.strip():
        raise EmptyProblem("problem statement is blank")
    tree = AtomicTree(problem=problem)
    root = Chain(id=_chain_id(tree), parent=None)
    tree.chains[root.id] = root
    tree.active_chain_id = root.id
    return tree


def _chain_id(tree: AtomicTree) -> str:
    cid = f"c{tree.next_chain_seq}"
    tree.next_chain_seq += 1
    return cid


def _node_id(tree: AtomicTree) -> str:
    nid = f"n{tree.next_node_seq}"
    tree.next_node_seq += 1
    return nid


def round_count(tree: AtomicTree) -> int:
    return len(tree.nodes)


def active_chain(tree: AtomicTree) -> Chain:
    return tree.chains[tree.active_chain_id]


def _active_segments(tree: AtomicTree) -> Iterator[tuple[Chain, list[str]]]:
    """Each chain on the active path with its node ids on the path, from the
    active chain back to the root chain."""
    chain = active_chain(tree)
    ids = chain.node_ids
    while True:
        yield chain, ids
        if chain.parent is None:
            return
        parent_id, index = chain.parent
        chain = tree.chains[parent_id]
        ids = chain.node_ids[: index + 1]


def active_path(tree: AtomicTree) -> list[Node]:
    """Nodes from the root to the tip of the active chain, in order."""
    nodes = tree.nodes
    return [nodes[nid] for _, ids in reversed(list(_active_segments(tree))) for nid in ids]


def append_node(tree: AtomicTree, action: AtomicAction, guidance: str, content: str) -> str:
    """Append one executed action to the active chain; returns the node id."""
    if tree.terminated is not None:
        raise Terminated("tree is terminated")
    if action is AtomicAction.HYPOTHESIS_VERIFICATION:
        if not any(n.action is AtomicAction.HYPOTHESIS_GENERATION for n in active_path(tree)):
            raise MissingHypothesis("verification with no prior hypothesis on the active path")
    node = Node(
        id=_node_id(tree),
        action=action,
        guidance=guidance,
        content=content,
        created_round=round_count(tree) + 1,
    )
    tree.nodes[node.id] = node
    active_chain(tree).node_ids.append(node.id)
    return node.id


def branch_at(tree: AtomicTree, target_node: str) -> str:
    """Fork a new Active chain off a node on the active path.

    The old active chain becomes Suspended when it ran to a SummaryFinished
    ending, Dormant when merely paused.
    """
    if tree.terminated is not None:
        raise Terminated("tree is terminated")
    location = _locate_on_active_path(tree, target_node)
    if location is None:
        raise NodeNotOnActivePath(f"node {target_node} is not on the active path")
    chain_id, index = location

    old = active_chain(tree)
    ended_in_summary = bool(old.node_ids) and (
        tree.nodes[old.node_ids[-1]].action is AtomicAction.SUMMARY_FINISHED
    )
    old.status = ChainStatus.SUSPENDED if ended_in_summary else ChainStatus.DORMANT

    new = Chain(id=_chain_id(tree), parent=(chain_id, index))
    tree.chains[new.id] = new
    tree.active_chain_id = new.id
    return new.id


def _locate_on_active_path(tree: AtomicTree, node_id: str) -> Optional[tuple[str, int]]:
    for chain, ids in _active_segments(tree):
        if node_id in ids:
            return chain.id, ids.index(node_id)
    return None


def set_termination(tree: AtomicTree, mode: TerminationMode, final_answer: str) -> None:
    if tree.terminated is not None:
        raise AlreadyTerminated("tree already terminated")
    tree.terminated = Termination(mode=mode, final_answer=final_answer)


# --- rendering ----------------------------------------------------------------

def format_step(step: int, node: Node) -> str:
    """The one-line form of a step that every prompt and export shares."""
    # ``_value_`` is the member's stored value; ``.value`` costs a Python-level
    # property call on every read.
    return f"Step {step} ({node.action._value_}): {node.content}"


def _elide(
    lines: list[str], runs: Iterable[Iterable[int]], budget: Optional[int]
) -> tuple[str, bool]:
    """Fit ``lines`` into ``budget`` characters by dropping the indices of
    ``runs`` in order; one ELISION_MARKER stands where each run's first
    dropped line was.  Returns the text and whether it fits."""
    text = "\n".join(lines)
    size = len(text)
    if budget is None or size <= budget:
        return text, True
    kept: list[Optional[str]] = list(lines)
    for run in runs:
        first = None
        for i in run:
            if size <= budget:
                break
            if first is None:
                first = i
                size += len(ELISION_MARKER) + 1
            size -= len(lines[i]) + 1
            kept[i] = None
        if first is not None:
            kept[first] = ELISION_MARKER
    return "\n".join([line for line in kept if line is not None]), size <= budget


def render_steps(
    nodes: Iterable[Node], budget: Optional[int] = None, focus: Optional[Node] = None
) -> str:
    """Consecutive steps numbered from 1, one per line; ``focus`` ends with
    REVIEW_MARK.

    Under a character budget, steps are dropped oldest-first, never
    ``focus``, and one elision marker stands where the first dropped step
    was; the other steps keep their numbers.  When every other step is gone
    and the text still exceeds the budget, only ``focus`` is returned, since
    the checker must see the step it reviews (the empty string without one).
    """
    focus_id = focus.id if focus is not None else None
    lines: list[str] = []
    at = None
    for step, node in enumerate(nodes, start=1):
        lines.append(format_step(step, node))
        if node.id == focus_id and at is None:
            at = step - 1
            lines[at] += REVIEW_MARK
    text, fits = _elide(lines, [(i for i in range(len(lines)) if i != at)], budget)
    if fits:
        return text
    return lines[at] if at is not None else ""


def _render_node(step: int, node: Node) -> str:
    text = format_step(step, node)
    if node.revised:
        text += "\n  [revised after check]"
    return text


def _chain_header(tree: AtomicTree, chain: Chain, ordinal: int) -> str:
    header = f"Chain {ordinal} [{chain.status._value_}]"
    if chain.parent is not None:
        parent_id, index = chain.parent
        parent_ord = list(tree.chains).index(parent_id) + 1
        header += f" (branched from Chain {parent_ord}, Step {index + 1})"
    return header


def render_tree(tree: AtomicTree, budget: Optional[int] = None) -> str:
    """Deterministic textual outline of the tree's chains.

    The problem statement is not part of it: every prompt, and ``inspect``,
    shows the statement once itself.  Non-active chains render via their
    summary when present.  Under a character budget, nodes are dropped
    oldest-first (non-active chains first), each truncated chain showing one
    elision marker; the active chain never drops below its last
    ACTIVE_CHAIN_KEEP nodes.  If that is still too long, the outline is the
    empty string.
    """
    lines: list[str] = []
    # Droppable node lines per chain, non-active chains first: the drop order.
    runs: list[range] = []
    active_run = range(0)
    for ordinal, (cid, chain) in enumerate(tree.chains.items(), start=1):
        if lines:
            lines.append("")
        lines.append(_chain_header(tree, chain, ordinal))
        if chain.status is not ChainStatus.ACTIVE and chain.summary:
            lines.append(f"Summary: {chain.summary}")
            continue
        first = len(lines)
        lines.extend(_render_node(i, tree.nodes[n]) for i, n in enumerate(chain.node_ids, start=1))
        if cid == tree.active_chain_id:
            active_run = range(first, len(lines) - ACTIVE_CHAIN_KEEP)
        else:
            runs.append(range(first, len(lines)))
    text, fits = _elide(lines, runs + [active_run], budget)
    return text if fits else ""
