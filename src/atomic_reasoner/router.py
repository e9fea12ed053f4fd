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

A request the session's thread has built before it needs the reply is
sent ahead: the session's one backend, a ``_Replies``, has the pool
``_send_pool`` send it with the wrapped backend's ``complete`` while the
thread sends, or waits on, another call, and the thread joins the send
when that call is done.  Two kinds of request go ahead:

* the compression of a chain being left (tag ``summarize``), while the
  backtracking-target request (tag ``routing``) is sent (``_leave_chain``);
* the next routing request, while a step is checked (``run_session``):
  during a hypothesis's first check, whose next decision is R2's, and
  during every re-check of a revised step, unless R1 ends the session or
  the chain is completed (``_routing_sent_during``).

One rule holds for both: a pooled reply answers only a request
byte-identical to the one sent ahead, and any other request goes to the
backend on the session's thread.  Three do: the routing request after a
check that revised the step, whose pooled reply is dropped, the re-ask of
an unparseable routing reply (R4), and the re-ask of a blank compression,
sent after the branch.  So the session's thread builds every request and
applies every reply, the pool only sends, every reply the session uses
answers a request a serial session sends, and a check that fails after a
send ahead adds one routing request.  A check that fails for the last time
(``checker.MAX_REVISIONS``) only flags the step, which no prompt shows, so
its send is used.

A session whose last reply came from a cache (``ResultSource.CACHE``, as a
replay hit returns) builds nothing ahead: such a reply comes with no model
wait, so a pooled send would hide nothing and cost a thread handoff, and
each request is built and sent on the session's thread when it is asked
for.  ``_Replies`` reads the source of each reply the session uses; any
other session, a cache miss and a hit while recording
(``ResultSource.RECORDING``) included, sends ahead as above.
"""

from __future__ import annotations

import contextlib
import enum
import re
from concurrent import futures
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from . import checker as checker_mod
from . import executor as executor_mod
from . import backends as backends_mod
from . import answers, model, prompts, sop as sop_mod
from .errors import BackendFailure, Terminated, UnknownAction
from .executor import FinalAnswer
from .model import (
    ActionCategory,
    AtomicAction,
    AtomicTree,
    Problem,
    TerminationMode,
)


class BacktrackReason(enum.Enum):
    INCORRECT_CONTENT = "IncorrectContent"
    KEY_NODE = "KeyNode"
    UNEXPLORED_BRANCH = "UnexploredBranch"


@dataclass(frozen=True)
class Extend:
    """``outline`` is the tree as the routing request that led here rendered
    it, which the step's solver prompt shows again (``executor.execute``);
    None for an Extend made with no routing request.  It is no part of the
    decision."""

    action: AtomicAction
    guidance: str
    outline: Optional[str] = field(default=None, compare=False, repr=False)

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
    return re.compile(rf"^[^\S\n]*\**{name}\**[^\S\n]*[:\-][^\S\n]*{value}$", re.IGNORECASE | re.MULTILINE)


_ACTION_LINE = _field("ACTION")
_GUIDANCE_LINE = _field("GUIDANCE")
# TARGET's value is a step number alone; markup may wrap it, as ``**TARGET:** Step 2``.
_TARGET_LINE = _field("TARGET", r"\**[^\S\n]*(?:Step[^\S\n]*)?(\d+)[^\S\n]*\**[^\S\n]*")
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
    """Guidance to verify the deepest hypothesis on ``path``, which holds one."""
    node = next(n for n in reversed(path) if n.action is AtomicAction.HYPOTHESIS_GENERATION)
    excerpt = node.content.strip().replace("\n", " ")
    if len(excerpt) > 300:
        excerpt = excerpt[:300] + "..."
    return (
        "Verify the most recently proposed hypothesis against every premise, "
        f"one premise at a time. The hypothesis step was: {excerpt}"
    )


def decide(
    tree: AtomicTree,
    config: SessionConfig,
    backend,
    sop_hints: str = "",
) -> RoutingDecision:
    """One routing decision honoring R1-R4; see module docstring.

    A Backtrack is applied before it is returned: the tree branches at its
    target, and the chain left behind holds its summary (``_leave_chain``).
    The routing request goes through ``backends.ask``, so the session's
    ``_Replies`` answers its first attempt with the reply to the request sent
    ahead during the last check when the two are equal."""
    if tree.terminated is not None:
        raise Terminated("tree is terminated")

    # R1: hard round cap, no backend consultation.
    if model.round_count(tree) >= config.max_rounds:
        return Terminate(TerminationMode.PASSIVE_LIMIT)

    path = model.active_path(tree)

    # Completed chain: backtrack once, then conclude.
    if _chain_completed(tree):
        if (
            len(tree.chains) > 1
            or len(tree.chains) >= config.max_chains
            or model.round_count(tree) + 2 > config.max_rounds
        ):
            return Terminate(TerminationMode.ACTIVE_SOLVED)
        return _leave_chain(tree, backend)

    # Every Extend below follows the routing request, with the tree as it
    # rendered it: the step's solver prompt shows the same outline.
    outline = prompts._outline(tree)
    request = prompts.build_routing_prompt(tree, sop_hints, outline)

    # R2: a fresh hypothesis is verified promptly; backend gives guidance only,
    # through a parser that never rejects, so it is asked once.
    if path and path[-1].action is AtomicAction.HYPOTHESIS_GENERATION:
        guidance = backends_mod.ask(
            backend, request, lambda text: parse_guidance_only(text) or _verification_guidance(path)
        )
        return Extend(AtomicAction.HYPOTHESIS_VERIFICATION, guidance, outline)

    # R4 envelope: parse the proposal, one re-ask, then safe fallback.
    proposal = backends_mod.ask(backend, request, parse_routing_response)
    if proposal is None:
        return Extend(AtomicAction.PREMISE_SUMMARIZATION, FALLBACK_GUIDANCE, outline)

    if proposal.kind in ("finish", "terminate"):
        # R3: the first finish claim on an unverified path is not accepted.
        if not _has_verification(path):
            if _has_hypothesis(path):
                return Extend(AtomicAction.HYPOTHESIS_VERIFICATION, _verification_guidance(path), outline)
            # Nothing to verify yet: demand an explicit hypothesis first.
            return Extend(
                AtomicAction.HYPOTHESIS_GENERATION,
                "Before concluding, state the proposed solution explicitly as "
                "'Hypothesis 1:' so it can be verified.",
                outline,
            )
        if proposal.kind == "terminate":
            return Terminate(TerminationMode.ACTIVE_SOLVED)
        # A finish extends with SUMMARY<FINISHED>, below.

    if proposal.kind == "backtrack":
        if len(tree.chains) >= config.max_chains:
            return Terminate(TerminationMode.PASSIVE_LIMIT)
        if not path:
            return Extend(AtomicAction.PREMISE_SUMMARIZATION, FALLBACK_GUIDANCE, outline)
        return _leave_chain(tree, backend)

    action = proposal.action
    # A verification with no hypothesis to verify cannot be appended; route
    # the intent into generating the missing hypothesis instead.
    if action is AtomicAction.HYPOTHESIS_VERIFICATION and not _has_hypothesis(path):
        return Extend(
            AtomicAction.HYPOTHESIS_GENERATION,
            proposal.guidance or "Propose explicit hypotheses for the current sub-problem.",
            outline,
        )
    return Extend(action, proposal.guidance or _default_guidance(action), outline)


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


# Threads that send the requests sent ahead (``_Replies.ahead``) and do
# nothing else.  Every session shares them and has at most one pooled send
# in flight, because a check and a leave never overlap; they start
# on demand.  32 covers bench's default of at most 8 workers four times
# over; past 32 concurrent sessions a send waits for a thread and that
# session's overlap runs serially.
_SEND_THREADS = 32
_send_pool = futures.ThreadPoolExecutor(_SEND_THREADS, thread_name_prefix="send-ahead")


class _Replies:
    """A session's backend: every call of the session goes through it, on
    the session's thread, and it holds at most one request sent ahead.

    ``cached`` records whether the last reply the session used came from a
    cache replay (``ResultSource.CACHE``): then the next reply is expected
    with no model wait too, and nothing is built ahead.  ``ahead(build)``
    calls ``build`` unless ``cached`` is set and sends the request it
    returns, if any, on the pool with ``backend.complete``; leaving its
    ``with`` block waits for that send.  ``complete`` answers a request
    equal to the one sent ahead, once, with the pooled reply, or raises its
    failure; any other request goes to ``backend`` on the caller's thread.
    A pooled reply that no request takes is dropped at the next ``ahead``."""

    def __init__(self, backend):
        self.backend = backend
        self.cached = False
        self._sent = None, None  # the request sent ahead and its future

    @contextlib.contextmanager
    def ahead(self, build: Callable[[], Optional[backends_mod.CompletionRequest]]):
        request = None if self.cached else build()
        reply = None if request is None else _send_pool.submit(self.backend.complete, request)
        self._sent = request, reply
        try:
            yield
        finally:
            if reply is not None:
                futures.wait((reply,))

    def complete(self, request: backends_mod.CompletionRequest) -> backends_mod.CompletionResult:
        sent, reply = self._sent
        if request == sent:
            self._sent = None, None
            result = reply.result()  # re-raises a failed send
        else:
            result = self.backend.complete(request)
        self.cached = result.source is backends_mod.ResultSource.CACHE
        return result


def _leave_chain(tree: AtomicTree, backend) -> Backtrack:
    """``select_backtrack_target``, then branch there.  The compression of the
    chain being left, when it has steps, is sent ahead while the target
    request goes out; the tree branches once both are answered, and then the
    chain's summary is read from the pooled reply.  A blank one is re-asked,
    on this thread.  A plain ``backend``, as a direct ``decide`` caller
    passes, is wrapped in a ``_Replies`` for the leave.

    Failures leave the tree as the serial order would: a failed target call
    raises with no branch and no summary, and a failed compression raises
    after the branch, with no summary.  When both fail, the target's failure
    is raised."""
    if not isinstance(backend, _Replies):
        backend = _Replies(backend)
    leaving = model.active_chain(tree)
    compression = prompts.build_compression_prompt(tree, leaving) if leaving.node_ids else None
    with backend.ahead(lambda: compression):
        target, reason = select_backtrack_target(tree, backend)
    model.branch_at(tree, target)
    if compression:
        leaving.summary = backends_mod.ask_text(backend, compression)
    return Backtrack(target=target, reason=reason)


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


def _routing_sent_during(
    tree: AtomicTree, node: model.Node, revisions: int, config: SessionConfig
) -> bool:
    """Whether the next routing request goes ahead during a check of
    ``node`` after ``revisions`` revisions: during a hypothesis's first
    check, whose next decision is R2's, and during every re-check of a
    revised step, when R1 leaves room and the chain is not completed (a
    completed chain terminates or backtracks with no routing request).  The
    first check of any other step is not overlapped: it is the check that
    finds most errors, and each error drops the send and adds a routing
    call."""
    return (
        (revisions > 0 or node.action is AtomicAction.HYPOTHESIS_GENERATION)
        and model.round_count(tree) < config.max_rounds
        and not _chain_completed(tree)
    )


def _checked_ending(tree: AtomicTree, mode: TerminationMode) -> Optional[FinalAnswer]:
    """The final answer a session already holds: the content of the ending
    step its active chain closed on, when the session ended ActiveSolved, the
    checker left that step unflagged and the content is a complete answer
    under the schema; it carries the answer read from that content.  None
    sends the session through ``finalize``."""
    if mode is not TerminationMode.ACTIVE_SOLVED or not _chain_completed(tree):
        return None
    ending = tree.nodes[model.active_chain(tree).node_ids[-1]]
    if ending.flagged:
        return None
    schema = tree.problem.answer_schema
    answer = answers.extract(schema, ending.content)
    if not answers.is_complete(schema, answer):
        return None
    return FinalAnswer(ending.content, answer)


def run_session(
    problem: Problem,
    config: Optional[SessionConfig] = None,
    backends=None,
    sop_registry: Optional[sop_mod.SopRegistry] = None,
) -> tuple[AtomicTree, FinalAnswer]:
    """Full solving loop: decide -> execute -> check -> (branch | terminate).
    The final answer is the checked ending step when ``_checked_ending``
    accepts it, and otherwise the reply to one ``finalize`` call.

    Two calls of one session may be in flight at once, one of them sent
    ahead (see the module docstring): the compression of a chain being left
    goes with the target request, and the next routing request goes while a
    hypothesis has its first check or a revised step is checked again
    (``_routing_sent_during``), through ``run_check_cycle``'s ``during``.
    A send ahead is answered before its check returns or raises, and its
    reply is used only for an identical request, so a check that revises
    the step after a send costs one extra routing call.  While replies come
    from a cache (``ResultSource.CACHE``) nothing is built ahead: every call
    is built and sent on the caller's thread, in series.

    ``backends`` is the one backend every call goes to; each request names its
    role in ``CompletionRequest.tag``, so a backend that dispatches on the tag
    can serve each role from a different model.  On BackendFailure the partial
    tree is preserved on the raised exception (``exc.tree``)."""
    config = config or SessionConfig()
    backends = _Replies(backends)

    tree = model.new_tree(problem)
    active_sop = None
    if sop_registry is not None:
        active_sop = sop_registry.get(sop_mod.triage(problem, sop_registry))
    sop_hints = active_sop.scheduling_hints if active_sop else ""

    try:
        while True:
            decision = decide(tree, config, backends, sop_hints)

            if isinstance(decision, Terminate):
                final = _checked_ending(tree, decision.mode) or executor_mod.finalize(
                    tree, backends, decision.mode
                )
                model.set_termination(tree, decision.mode, final.text)
                return tree, final

            if isinstance(decision, Backtrack):
                continue  # ``decide`` has branched and stored the summary

            guidance_extra = active_sop.action_strategies.get(decision.action, "") if active_sop else ""
            node = executor_mod.execute(
                tree, decision.action, decision.guidance, backends, guidance_extra, decision.outline
            )
            if not _checker_applies(config.checker_mode, node.action):
                continue

            def send_routing_ahead(revisions):
                return backends.ahead(
                    lambda: prompts.build_routing_prompt(tree, sop_hints)
                    if _routing_sent_during(tree, node, revisions, config)
                    else None
                )

            checker_mod.run_check_cycle(tree, node, backends, send_routing_ahead)
    except BackendFailure as exc:
        exc.tree = tree  # preserve the partial trace for callers
        raise
