"""Cognitive routing: decide each round whether to extend the active chain,
backtrack and branch, or terminate.

Hard engine rules take priority over anything the routing backend says:

  R1. At or past the round cap, terminate passively.
  R2. Right after a hypothesis is generated, the next action is its
      verification; the backend is consulted only for guidance text.
  R3. A finish proposal on a path with no verification is converted into a
      forced hypothesis verification.
  R4. Unparseable routing output, after one re-ask, falls back to a safe
      premise-summarization step.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional, Union

from . import checker as checker_mod
from . import executor as executor_mod
from . import backends as backends_mod
from . import model, prompts, sop as sop_mod
from .errors import BackendFailure, Terminated, UnknownAction
from .executor import FinalAnswer
from .model import (
    ActionCategory,
    AtomicAction,
    AtomicTree,
    ChainStatus,
    Problem,
    TerminationMode,
)


class BacktrackReason(enum.Enum):
    INCORRECT_CONTENT = "IncorrectContent"
    KEY_NODE = "KeyNode"
    UNEXPLORED_BRANCH = "UnexploredBranch"


@dataclass(frozen=True)
class Extend:
    action: AtomicAction
    guidance: str

    def __post_init__(self):
        if not self.guidance.strip():
            raise ValueError("Extend.guidance must be non-empty")


@dataclass(frozen=True)
class Backtrack:
    target: str  # node id
    reason: BacktrackReason


@dataclass(frozen=True)
class Terminate:
    mode: TerminationMode


RoutingDecision = Union[Extend, Backtrack, Terminate]


CHECKER_MODES = ("every", "reasoning-only", "ending-only", "off")


@dataclass
class SessionConfig:
    max_rounds: int = 12
    max_chains: int = 4
    checker_mode: str = "every"

    def __post_init__(self):
        if self.max_rounds < 2:
            raise ValueError("max_rounds must be >= 2")
        if self.max_chains < 1:
            raise ValueError("max_chains must be >= 1")
        if self.checker_mode not in CHECKER_MODES:
            raise ValueError(f"checker_mode must be one of {CHECKER_MODES}")


# --- routing-response parsing ---------------------------------------------------

# A field's value is the rest of its own line (``[^\S\n]`` is whitespace other
# than a newline); an empty value is no value.
def _field(name: str, value: str = "(.*)") -> re.Pattern:
    return re.compile(rf"^[^\S\n]*\**{name}[^\S\n]*[:\-][^\S\n]*{value}$", re.IGNORECASE | re.MULTILINE)


_ACTION_LINE = _field("ACTION")
_GUIDANCE_LINE = _field("GUIDANCE")
_TARGET_LINE = _field("TARGET", r"(?:Step[^\S\n]*)?(\d+)[^\S\n]*\**[^\S\n]*")
_REASON_LINE = _field("REASON")


def _last_line(pattern: re.Pattern, text: str) -> Optional[re.Match]:
    """``pattern``'s match on the last line of ``text`` it matches, walking
    lines from the end: the footer is read without scanning the reasoning."""
    stop = len(text)
    while stop >= 0:
        start = text.rfind("\n", 0, stop) + 1
        match = pattern.match(text, start, stop)
        if match:
            return match
        stop = start - 1
    return None


FALLBACK_GUIDANCE = (
    "Restate and organize all premises gathered so far, grouping related clues "
    "and highlighting the ones not yet used."
)


@dataclass(frozen=True)
class RoutingProposal:
    kind: str  # "extend" | "finish" | "terminate" | "backtrack"
    action: Optional[AtomicAction] = None
    guidance: str = ""


def parse_routing_response(text: str) -> Optional[RoutingProposal]:
    """Parse the ACTION/GUIDANCE footer; None when no ACTION line parses."""
    match = _last_line(_ACTION_LINE, text)
    if match is None:
        return None
    # Trailing stars go before trailing spaces, as in ``**ACTION: X* **``.
    raw_action = match.group(1).rstrip("*").strip().strip("*").strip()
    guidance = parse_guidance_only(text) or ""

    normalized = raw_action.upper().replace(" ", "")
    if "SUMMARY<FINISHED>" in normalized or "SUMMARYFINISHED" in normalized:
        return RoutingProposal(kind="finish", action=AtomicAction.SUMMARY_FINISHED, guidance=guidance)
    if normalized.startswith("TERMINATE"):
        return RoutingProposal(kind="terminate", guidance=guidance)
    if normalized.startswith("BACKTRACK"):
        return RoutingProposal(kind="backtrack", guidance=guidance)
    try:
        action = model.parse_action(raw_action)
    except UnknownAction:
        return None
    if action is AtomicAction.SUMMARY_FINISHED:
        return RoutingProposal(kind="finish", action=action, guidance=guidance)
    return RoutingProposal(kind="extend", action=action, guidance=guidance)


def parse_guidance_only(text: str) -> Optional[str]:
    match = _last_line(_GUIDANCE_LINE, text)
    if match is None:
        return None
    return match.group(1).strip().strip("*").strip() or None


# --- decision logic -------------------------------------------------------------

def _chain_completed(tree: AtomicTree) -> bool:
    chain = model.active_chain(tree)
    return bool(chain.node_ids) and (
        tree.nodes[chain.node_ids[-1]].action is AtomicAction.SUMMARY_FINISHED
    )


def _has_verification(path: list[model.Node]) -> bool:
    return any(n.action is AtomicAction.HYPOTHESIS_VERIFICATION for n in path)


def _has_hypothesis(path: list[model.Node]) -> bool:
    return any(n.action is AtomicAction.HYPOTHESIS_GENERATION for n in path)


def _verification_guidance(path: list[model.Node]) -> str:
    for node in reversed(path):
        if node.action is AtomicAction.HYPOTHESIS_GENERATION:
            excerpt = node.content.strip().replace("\n", " ")
            if len(excerpt) > 300:
                excerpt = excerpt[:300] + "..."
            return (
                "Verify the most recently proposed hypothesis against every premise, "
                f"one premise at a time. The hypothesis step was: {excerpt}"
            )
    return "Verify the current conclusion against every premise, one premise at a time."


def decide(
    tree: AtomicTree,
    config: SessionConfig,
    backend,
    sop_hints: str = "",
) -> RoutingDecision:
    """One routing decision honoring R1-R4; see module docstring."""
    if tree.terminated is not None:
        raise Terminated("tree is terminated")

    # R1: hard round cap, no backend consultation.
    if model.round_count(tree) >= config.max_rounds:
        return Terminate(TerminationMode.PASSIVE_LIMIT)

    path = model.active_path(tree)

    # Completed chain: backtrack once, then conclude.
    if _chain_completed(tree):
        explored_before = any(
            c.status is not ChainStatus.ACTIVE and c.id != tree.active_chain_id
            for c in tree.chains.values()
        )
        if (
            explored_before
            or len(tree.chains) >= config.max_chains
            or model.round_count(tree) + 2 > config.max_rounds
        ):
            return Terminate(TerminationMode.ACTIVE_SOLVED)
        target, reason = select_backtrack_target(tree, backend)
        return Backtrack(target=target, reason=reason)

    # R2: a fresh hypothesis is verified promptly; backend gives guidance only.
    if path and path[-1].action is AtomicAction.HYPOTHESIS_GENERATION:
        reply = backend.complete(prompts.build_routing_prompt(tree, sop_hints))
        return Extend(
            AtomicAction.HYPOTHESIS_VERIFICATION,
            parse_guidance_only(reply.text) or _verification_guidance(path),
        )

    # R4 envelope: parse the proposal, one re-ask, then safe fallback.
    proposal = backends_mod.ask(
        backend, prompts.build_routing_prompt(tree, sop_hints), parse_routing_response
    )
    if proposal is None:
        return Extend(AtomicAction.PREMISE_SUMMARIZATION, FALLBACK_GUIDANCE)

    if proposal.kind in ("finish", "terminate"):
        # R3: the first finish claim on an unverified path is not accepted.
        if not _has_verification(path):
            if _has_hypothesis(path):
                return Extend(AtomicAction.HYPOTHESIS_VERIFICATION, _verification_guidance(path))
            # Nothing to verify yet: demand an explicit hypothesis first.
            return Extend(
                AtomicAction.HYPOTHESIS_GENERATION,
                "Before concluding, state the proposed solution explicitly as "
                "'Hypothesis 1:' so it can be verified.",
            )
        if proposal.kind == "terminate":
            return Terminate(TerminationMode.ACTIVE_SOLVED)
        return Extend(
            AtomicAction.SUMMARY_FINISHED,
            proposal.guidance
            or "Assemble the verified conclusions into the complete final answer.",
        )

    if proposal.kind == "backtrack":
        if len(tree.chains) >= config.max_chains:
            return Terminate(TerminationMode.PASSIVE_LIMIT)
        if not path:
            return Extend(AtomicAction.PREMISE_SUMMARIZATION, FALLBACK_GUIDANCE)
        target, reason = select_backtrack_target(tree, backend)
        return Backtrack(target=target, reason=reason)

    action = proposal.action
    # A verification with no hypothesis to verify cannot be appended; route
    # the intent into generating the missing hypothesis instead.
    if action is AtomicAction.HYPOTHESIS_VERIFICATION and not _has_hypothesis(path):
        return Extend(
            AtomicAction.HYPOTHESIS_GENERATION,
            proposal.guidance or "Propose explicit hypotheses for the current sub-problem.",
        )
    return Extend(action, proposal.guidance or _default_guidance(action))


def _default_guidance(action: AtomicAction) -> str:
    defaults = {
        AtomicAction.PREMISE_DISCOVERY: (
            "Identify the basic conditions and constraints of the problem, extract "
            "necessary rules, and organize implicit constraints."
        ),
        AtomicAction.PREMISE_RETRIEVAL: (
            "Retrieve the clues and premise information pertinent to the current step."
        ),
        AtomicAction.PREMISE_SUMMARIZATION: FALLBACK_GUIDANCE,
        AtomicAction.HYPOTHESIS_GENERATION: (
            "Propose necessary possible hypotheses for the current sub-problem, each "
            "prefixed 'Hypothesis <k>:'."
        ),
        AtomicAction.HYPOTHESIS_VERIFICATION: (
            "Verify the pending hypothesis against every premise, one at a time."
        ),
        AtomicAction.SUMMARY_FINISHED: (
            "Assemble the verified conclusions into the complete final answer."
        ),
    }
    return defaults[action]


def select_backtrack_target(tree: AtomicTree, backend) -> tuple[str, BacktrackReason]:
    """Pick a node on the active path to branch from, per the backtracking
    prompt's three target categories; deterministic fallback to the deepest
    hypothesis-generation node."""
    path = model.active_path(tree)

    def parse_target(text: str) -> Optional[tuple[str, BacktrackReason]]:
        target_match = _last_line(_TARGET_LINE, text)
        if target_match is None:
            return None
        step = int(target_match.group(1))
        if not 1 <= step <= len(path):
            return None
        reason = BacktrackReason.KEY_NODE
        reason_match = _last_line(_REASON_LINE, text)
        if reason_match is not None:
            token = re.sub(r"[^a-z]", "", reason_match.group(1).lower())
            for candidate in BacktrackReason:
                if re.sub(r"[^a-z]", "", candidate.value.lower()) == token:
                    reason = candidate
                    break
        return path[step - 1].id, reason

    chosen = backends_mod.ask(backend, prompts.build_backtracking_prompt(tree), parse_target)
    if chosen is not None:
        return chosen

    # Fallback: deepest hypothesis-generation node, else the last node.
    for node in reversed(path):
        if node.action is AtomicAction.HYPOTHESIS_GENERATION:
            return node.id, BacktrackReason.KEY_NODE
    return path[-1].id, BacktrackReason.KEY_NODE


# --- session loop ----------------------------------------------------------------

def _checker_applies(mode: str, action: AtomicAction) -> bool:
    if mode == "off":
        return False
    if mode == "every":
        return True
    cat = model.category(action)
    if mode == "reasoning-only":
        return cat is ActionCategory.REASONING
    return cat is ActionCategory.ENDING  # ending-only


def run_session(
    problem: Problem,
    config: Optional[SessionConfig] = None,
    backends=None,
    sop_registry: Optional[sop_mod.SopRegistry] = None,
) -> tuple[AtomicTree, FinalAnswer]:
    """Full solving loop: decide -> execute -> check -> (branch | terminate).

    ``backends`` is the one backend every call goes to; each request names its
    role in ``CompletionRequest.tag``, so a backend that dispatches on the tag
    can serve each role from a different model.  On BackendFailure the partial
    tree is preserved on the raised exception (``exc.tree``)."""
    config = config or SessionConfig()

    tree = model.new_tree(problem)
    active_sop = None
    if sop_registry is not None:
        active_sop = sop_registry.get(sop_mod.triage(problem, sop_registry))
    sop_hints = active_sop.scheduling_hints if active_sop else ""

    try:
        while True:
            decision = decide(tree, config, backends, sop_hints)

            if isinstance(decision, Terminate):
                final = executor_mod.finalize(tree, backends, decision.mode)
                model.set_termination(tree, decision.mode, final.text)
                return tree, final

            if isinstance(decision, Backtrack):
                old_chain = model.active_chain(tree)
                model.branch_at(tree, decision.target)
                if old_chain.node_ids:
                    executor_mod.compress_chain(tree, old_chain, backends)
                continue

            guidance_extra = (
                sop_mod.sop_guidance(active_sop, decision.action) if active_sop else ""
            )
            node = executor_mod.execute(
                tree, decision.action, decision.guidance, backends, guidance_extra
            )
            if _checker_applies(config.checker_mode, node.action):
                checker_mod.run_check_cycle(tree, node, backends)
    except BackendFailure as exc:
        exc.tree = tree  # preserve the partial trace for callers
        raise
