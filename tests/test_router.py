import dataclasses
import hashlib
import json
import random
import re
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from atomic_reasoner import bench, cases, metrics, model, prompts, router, sop
from atomic_reasoner.backends import (
    TAGS,
    CacheBackend,
    CacheMode,
    CompletionResult,
    ScriptedBackend,
    TallyBackend,
    cache_key,
)
from atomic_reasoner.errors import (
    BackendFailure,
    BackendTimeout,
    MalformedResponse,
    RateLimited,
    Terminated,
)
from atomic_reasoner.model import (
    AtomicAction,
    ChainStatus,
    FreeText,
    GridSchema,
    Problem,
    TerminationMode,
)
from atomic_reasoner.router import (
    Backtrack,
    BacktrackReason,
    Extend,
    SessionConfig,
    Terminate,
)


def make_tree():
    return model.new_tree(Problem(id="p", statement="A puzzle.", answer_schema=FreeText()))


def routing(text):
    return ScriptedBackend({"routing": text})


class TestParsing:
    def test_action_and_guidance_footer(self):
        p = router.parse_routing_response(
            "Some reasoning.\nACTION: PremiseDiscovery\nGUIDANCE: Extract the clues."
        )
        assert p.kind == "extend"
        assert p.action is AtomicAction.PREMISE_DISCOVERY
        assert p.guidance == "Extract the clues."

    def test_summary_finished_variants(self):
        for text in ("ACTION: SUMMARY<FINISHED>", "ACTION: SummaryFinished", "**ACTION: summary<finished>**"):
            assert router.parse_routing_response(text).kind == "finish"

    def test_terminate_and_backtrack_verbs(self):
        assert router.parse_routing_response("ACTION: TERMINATE").kind == "terminate"
        assert router.parse_routing_response("ACTION: BACKTRACK").kind == "backtrack"

    def test_garbage_returns_none(self):
        assert router.parse_routing_response("no structured footer here") is None
        assert router.parse_routing_response("ACTION: FooBarBaz") is None

    @pytest.mark.parametrize(
        "text", ["**ACTION**: PremiseDiscovery\nGUIDANCE: go", "ACTION: PremiseDiscovery\n**GUIDANCE**: go"]
    )
    def test_bold_field_names_are_read(self, text):
        p = router.parse_routing_response(text)
        assert (p.action, p.guidance) == (AtomicAction.PREMISE_DISCOVERY, "go")

    def test_last_action_line_wins(self):
        p = router.parse_routing_response(
            "ACTION: PremiseDiscovery\nreconsidering...\nACTION: HypothesisGeneration\nGUIDANCE: go"
        )
        assert p.action is AtomicAction.HYPOTHESIS_GENERATION


    def test_empty_field_never_takes_the_next_line(self):
        p = router.parse_routing_response("Plan.\nGUIDANCE:\nACTION: PremiseDiscovery")
        assert p.action is AtomicAction.PREMISE_DISCOVERY and p.guidance == ""
        p = router.parse_routing_response("ACTION: HypothesisGeneration\nGUIDANCE:   \n\nThanks")
        assert p.action is AtomicAction.HYPOTHESIS_GENERATION and p.guidance == ""
        assert router.parse_guidance_only("GUIDANCE: first\nGUIDANCE: **\nmore text") is None
        assert router.parse_routing_response("ACTION:\nPremiseDiscovery") is None

    def test_empty_guidance_gets_the_default(self):
        tree = make_tree()
        decision = router.decide(
            tree, SessionConfig(), routing("ACTION: PremiseDiscovery\nGUIDANCE:\nThanks")
        )
        assert decision == Extend(
            AtomicAction.PREMISE_DISCOVERY, router._default_guidance(AtomicAction.PREMISE_DISCOVERY)
        )


class TestHardRules:
    def test_r1_round_cap_terminates_without_backend(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        model.append_node(tree, AtomicAction.PREMISE_RETRIEVAL, "g", "c")
        backend = ScriptedBackend({})  # any call would raise ScriptExhausted
        decision = router.decide(tree, SessionConfig(max_rounds=2), backend)
        assert decision == Terminate(TerminationMode.PASSIVE_LIMIT)

    def test_r2_forced_verification_after_hypothesis(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
        decision = router.decide(
            tree, SessionConfig(), routing("ACTION: SummaryFinished\nGUIDANCE: wrap up")
        )
        assert isinstance(decision, Extend)
        assert decision.action is AtomicAction.HYPOTHESIS_VERIFICATION

    def test_r2_uses_backend_guidance_text(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
        decision = router.decide(tree, SessionConfig(), routing("GUIDANCE: check clue 3 first"))
        assert decision.action is AtomicAction.HYPOTHESIS_VERIFICATION
        assert decision.guidance == "check clue 3 first"

    def test_r3_first_finish_on_unverified_path_forces_verification(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
        model.append_node(tree, AtomicAction.PREMISE_SUMMARIZATION, "g", "c")
        decision = router.decide(tree, SessionConfig(), routing("ACTION: SUMMARY<FINISHED>"))
        assert isinstance(decision, Extend)
        assert decision.action is AtomicAction.HYPOTHESIS_VERIFICATION

    def test_r3_without_any_hypothesis_demands_one(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        decision = router.decide(tree, SessionConfig(), routing("ACTION: TERMINATE"))
        assert decision.action is AtomicAction.HYPOTHESIS_GENERATION

    def test_r3_finish_accepted_after_verification(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
        model.append_node(tree, AtomicAction.HYPOTHESIS_VERIFICATION, "g", "checked")
        decision = router.decide(tree, SessionConfig(), routing("ACTION: SUMMARY<FINISHED>"))
        assert isinstance(decision, Extend)
        assert decision.action is AtomicAction.SUMMARY_FINISHED

    def test_r4_unparseable_retries_once_then_falls_back(self):
        tree = make_tree()
        backend = ScriptedBackend({"routing": ["???", "still nothing"]})
        decision = router.decide(tree, SessionConfig(), backend)
        assert decision == Extend(AtomicAction.PREMISE_SUMMARIZATION, router.FALLBACK_GUIDANCE)
        assert len(backend.calls) == 2
        assert backend.calls[1] == dataclasses.replace(backend.calls[0], seed=1)

    def test_r4_second_attempt_can_succeed(self):
        tree = make_tree()
        backend = ScriptedBackend({"routing": ["???", "ACTION: PremiseDiscovery\nGUIDANCE: ok"]})
        decision = router.decide(tree, SessionConfig(), backend)
        assert decision.action is AtomicAction.PREMISE_DISCOVERY

    def test_decide_on_terminated_tree_raises(self):
        tree = make_tree()
        model.set_termination(tree, TerminationMode.ACTIVE_SOLVED, "x")
        with pytest.raises(Terminated):
            router.decide(tree, SessionConfig(), routing("ACTION: TERMINATE"))

    def test_verification_proposal_without_hypothesis_converted(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        decision = router.decide(
            tree, SessionConfig(), routing("ACTION: HypothesisVerification\nGUIDANCE: verify")
        )
        assert decision.action is AtomicAction.HYPOTHESIS_GENERATION


class TestBacktracking:
    """``decide`` applies a Backtrack: the tree branches at the target and the
    chain left behind holds its summary."""

    def completed_tree(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
        model.append_node(tree, AtomicAction.HYPOTHESIS_VERIFICATION, "g", "ok")
        model.append_node(tree, AtomicAction.SUMMARY_FINISHED, "g", "done")
        return tree

    def leave(self, tree, routing_reply, config=SessionConfig()):
        """Decide on ``tree`` with ``routing_reply`` for every routing call;
        returns the decision, the path before it and the chain it left."""
        path, left = model.active_path(tree), model.active_chain(tree)
        backend = ScriptedBackend({"routing": routing_reply, "summarize": ["chain summary"]})
        decision = router.decide(tree, config, backend)
        assert isinstance(decision, Backtrack)
        assert left.summary == "chain summary"
        assert model.active_chain(tree) is not left and not model.active_chain(tree).node_ids
        assert model.active_path(tree) == path[: path.index(tree.nodes[decision.target]) + 1]
        return decision, path, left, backend

    def test_completed_chain_backtracks_to_named_step(self):
        tree = self.completed_tree()
        decision, path, left, _ = self.leave(tree, "TARGET: Step 2\nREASON: UnexploredBranch")
        assert decision == Backtrack(path[1].id, BacktrackReason.UNEXPLORED_BRANCH)
        assert left.status is ChainStatus.SUSPENDED

    @pytest.mark.parametrize(
        "reply", ["**TARGET**: 3\nREASON: IncorrectContent", "TARGET: 3\n**REASON**: IncorrectContent"]
    )
    def test_bold_target_and_reason_are_read(self, reply):
        decision, path, _, _ = self.leave(self.completed_tree(), reply)
        assert decision == Backtrack(path[2].id, BacktrackReason.INCORRECT_CONTENT)

    @pytest.mark.parametrize("reply", ["**TARGET:** Step 2", "**TARGET:** 2", "TARGET: **Step 2**"])
    def test_markup_around_the_target_separator_is_read_at_once(self, reply):
        tree = self.completed_tree()
        backend = ScriptedBackend({"routing": [reply, "TARGET: Step 3"]})
        target = router.select_backtrack_target(tree, backend)
        assert target == (model.active_path(tree)[1].id, BacktrackReason.KEY_NODE)
        assert len(backend.calls) == 1

    @pytest.mark.parametrize("number", ["9" * 5000, "0" * 4300 + "2"], ids=["5000-nines", "4301-digit-two"])
    def test_a_target_step_too_long_to_read_is_asked_again(self, number):
        """A number past ``sys.get_int_max_str_digits()`` names no step, even
        one whose value is a step's."""
        tree = self.completed_tree()
        backend = ScriptedBackend({"routing": [f"TARGET: Step {number}", "TARGET: Step 3"]})
        target = router.select_backtrack_target(tree, backend)
        assert target == (model.active_path(tree)[2].id, BacktrackReason.KEY_NODE)
        assert len(backend.calls) == 2

    def test_target_with_more_than_a_step_number_is_asked_again(self):
        tree = self.completed_tree()
        backend = ScriptedBackend({"routing": ["TARGET: Step 2 because it branches", "TARGET: Step 3"]})
        target = router.select_backtrack_target(tree, backend)
        assert target == (model.active_path(tree)[2].id, BacktrackReason.KEY_NODE)
        assert len(backend.calls) == 2

    def test_mid_chain_backtrack_proposal_branches(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
        model.append_node(tree, AtomicAction.HYPOTHESIS_VERIFICATION, "g", "wrong")
        decision, path, left, _ = self.leave(tree, ["ACTION: BACKTRACK", "TARGET: Step 1"])
        assert decision == Backtrack(path[0].id, BacktrackReason.KEY_NODE)
        assert left.status is ChainStatus.DORMANT

    def test_unparseable_target_falls_back_to_deepest_hypothesis(self):
        tree = self.completed_tree()
        decision, path, _, backend = self.leave(tree, "gibberish")
        assert decision.target == path[1].id  # the hypothesis node
        asked = [call for call in backend.calls if call.tag == "routing"]
        assert asked[1] == dataclasses.replace(asked[0], seed=1)

    def test_out_of_range_target_falls_back(self):
        tree = self.completed_tree()
        decision, path, _, _ = self.leave(tree, "TARGET: Step 99")
        assert decision.target == path[1].id

    def test_unreadable_target_on_a_path_with_no_hypothesis_branches_at_the_last_step(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        model.append_node(tree, AtomicAction.PREMISE_RETRIEVAL, "g", "c")
        model.append_node(tree, AtomicAction.PREMISE_SUMMARIZATION, "g", "c")
        decision, path, left, backend = self.leave(tree, ["ACTION: BACKTRACK", "TARGET: Step 9", "gibberish"])
        assert decision == Backtrack(path[-1].id, BacktrackReason.KEY_NODE)
        assert left.status is ChainStatus.DORMANT
        assert [call.tag for call in backend.calls].count("routing") == 3

    def test_target_and_reason_are_read_on_their_own_lines(self):
        tree = self.completed_tree()
        decision, path, _, _ = self.leave(
            tree, "TARGET:\n3\nTARGET: Step 1\nREASON:\nIncorrectContent"
        )
        assert decision == Backtrack(path[0].id, BacktrackReason.KEY_NODE)

    def test_direct_decide_sends_target_and_compression_together(self):
        """A plain backend passed to ``decide`` gets the leave's overlap too:
        the target request and the compression wait for each other on a
        barrier, so sent one after the other the first would time out."""
        tree = self.completed_tree()
        path, left = model.active_path(tree), model.active_chain(tree)
        backend = Answered(
            ScriptedBackend({"routing": "TARGET: Step 2", "summarize": ["chain summary"]}),
            meet=(("routing", 1), ("summarize", 1)),
        )
        decision = router.decide(tree, SessionConfig(), backend)
        assert decision == Backtrack(path[1].id, BacktrackReason.KEY_NODE)
        assert left.summary == "chain summary"
        assert sorted(backend.tags) == ["routing", "summarize"]

    def test_second_completed_chain_terminates(self):
        tree = self.completed_tree()
        model.branch_at(tree, model.active_path(tree)[1].id)
        model.append_node(tree, AtomicAction.HYPOTHESIS_VERIFICATION, "g", "ok")
        model.append_node(tree, AtomicAction.SUMMARY_FINISHED, "g", "done again")
        decision = router.decide(tree, SessionConfig(), ScriptedBackend({}))
        assert decision == Terminate(TerminationMode.ACTIVE_SOLVED)

    def test_completed_chain_at_chain_cap_terminates(self):
        tree = self.completed_tree()
        cfg = SessionConfig(max_chains=1)
        decision = router.decide(tree, cfg, ScriptedBackend({}))
        assert decision == Terminate(TerminationMode.ACTIVE_SOLVED)

    def test_max_chains_converts_backtrack_proposal_to_passive_terminate(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        cfg = SessionConfig(max_chains=1)
        decision = router.decide(tree, cfg, routing("ACTION: BACKTRACK"))
        assert decision == Terminate(TerminationMode.PASSIVE_LIMIT)


def adversarial_backend(rng):
    """Emits random structured and unstructured routing responses; solve and
    summarize requests get a random hypothesis, and a quarter of checks find
    an error, chosen by the check request alone, so a check sent while a
    routing request is in flight on another thread draws nothing from
    ``rng``."""
    verbs = [
        "ACTION: PremiseDiscovery\nGUIDANCE: g",
        "ACTION: PremiseRetrieval\nGUIDANCE: g",
        "ACTION: PremiseSummarization\nGUIDANCE: g",
        "ACTION: HypothesisGeneration\nGUIDANCE: g",
        "ACTION: HypothesisVerification\nGUIDANCE: g",
        "ACTION: SUMMARY<FINISHED>\nGUIDANCE: g",
        "ACTION: TERMINATE",
        "ACTION: BACKTRACK",
        "TARGET: Step 1\nREASON: IncorrectContent",
        "TARGET: Step 7\nREASON: KeyNode",
        "complete gibberish with no footer",
        "",
        "ACTION: NotARealAction",
    ]

    def reply(request):
        if request.tag == "routing":
            return rng.choice(verbs)
        if request.tag == "check":
            if random.Random(request.messages[-1].content).random() < 0.25:
                return "Check Result: There is an error\nError Type: Conclusion Error"
            return "Check Result: No error."
        return f"Hypothesis 1: guess {rng.random():.4f}"  # solve, summarize

    return ScriptedBackend({}, default=reply)


def run_adversarial_session(seed):
    rng = random.Random(seed)
    config = SessionConfig()
    tree, final = router.run_session(
        Problem(id=f"adv-{seed}", statement="A puzzle.", answer_schema=FreeText()),
        config=config,
        backends=adversarial_backend(rng),
    )
    return tree


def test_adversarial_sessions_respect_engine_rules():
    for seed in range(60):
        tree = run_adversarial_session(seed)
        # R1: never exceeds the round cap
        assert model.round_count(tree) <= 12
        assert tree.terminated is not None
        assert len(tree.chains) <= 4
        # verification-after-generation on every chain's root path
        for chain in tree.chains.values():
            actions = [tree.nodes[nid].action for nid in chain.node_ids]
            for prev, nxt in zip(actions, actions[1:]):
                if prev is AtomicAction.HYPOTHESIS_GENERATION:
                    assert nxt is AtomicAction.HYPOTHESIS_VERIFICATION


FAULTS = ("blank", "garbage", RateLimited, BackendTimeout, MalformedResponse)


class Faulty:
    """Passes calls to ``inner``, but answers a seeded share ``rate`` of them,
    in every tag, with one fault from FAULTS instead.  Whether and how the
    k-th call of a tag fails depends only on (seed, tag, k), so a session's
    thread and the pool thread share no random state.  A leave's two calls
    are told apart by their system messages, ``leave_systems`` (target,
    compression); ``leave_faults`` counts faults in them.  A routing call
    sent off the thread that made this backend is a routing request sent
    ahead during a check: ``recheck_faults`` counts faults in those sent
    during the re-check of a revised step, told by the last solve request
    from that thread being a revision, and ``r2_faults`` faults in the rest,
    R2's requests sent during a hypothesis's first check.
    ``pooled_seeds`` lists the seed of every call sent off that thread, so a
    re-ask sent from the pool shows.  A call sent off that thread takes 2 ms,
    so one left running past its session's end shows in ``late``, which
    counts calls sent, or still in flight, once ``close`` has been called."""

    def __init__(self, inner, seed, rate, leave_systems):
        self.inner = inner
        self.seed = seed
        self.rate = rate
        self.leave_systems = leave_systems
        self.leave_faults = 0
        self.r2_faults = 0
        self.recheck_faults = 0
        self._revising = False
        self.pooled_seeds = []
        self.late = 0
        self._closed = False
        self._in_flight = 0
        self._sent = Counter()
        self._session_thread = threading.current_thread()
        self._lock = threading.Lock()

    def complete(self, request):
        pooled = threading.current_thread() is not self._session_thread
        with self._lock:
            nth = self._sent[request.tag]
            self._sent[request.tag] += 1
            self.late += self._closed
            self._in_flight += 1
            if pooled:
                self.pooled_seeds.append(request.seed)
            elif request.tag == "solve":
                self._revising = "# Checker findings:" in request.messages[-1].content
        try:
            if pooled:
                time.sleep(0.002)
            rng = random.Random(f"{self.seed}/{request.tag}/{nth}")
            if rng.random() >= self.rate:
                return self.inner.complete(request)
            with self._lock:
                self.leave_faults += request.messages[0] in self.leave_systems
                if pooled and request.tag == "routing":
                    self.recheck_faults += self._revising
                    self.r2_faults += not self._revising
            fault = rng.choice(FAULTS)
            if fault == "blank":
                return CompletionResult(text=" \n")
            if fault == "garbage":
                return CompletionResult(text="}{ ACTION: TARGET: Step -1 \x00")
            raise fault(f"injected (tag={request.tag})")
        finally:
            with self._lock:
                self._in_flight -= 1

    def close(self):
        with self._lock:
            self._closed = True
            self.late += self._in_flight


def test_fault_injection_fuzz_degrades_sessions_without_corrupting_trees():
    """About 300 seeded sessions, half adversarial ones that revise steps and
    half oracle sessions that backtrack, with 8 % of calls in every tag
    faulted, some in a leave, some in R2's request sent ahead and some in a
    routing request sent during a re-check: only BackendFailure escapes, every
    tree (finished or ``exc.tree``) keeps R1 and the chain cap and
    round-trips through the trace format, no call reaches the backend
    after ``run_session`` returns or raises, and the pool sends no re-ask."""
    config = SessionConfig()
    tasks = [bench.gen_puzzle(seed, 3, 2)[0] for seed in range(3)]
    oracles = [bench.oracle_session_backend(task) for task in tasks]
    one_step = model.new_tree(tasks[0].to_problem())
    model.append_node(one_step, AtomicAction.PREMISE_DISCOVERY, "g", "c")
    leave_systems = (
        prompts.build_backtracking_prompt(one_step).messages[0],
        prompts.build_compression_prompt(one_step, model.active_chain(one_step)).messages[0],
    )
    outcomes = Counter()
    sessions = []
    for seed in range(300):
        if seed % 2:
            inner = adversarial_backend(random.Random(seed))
            problem = Problem(id=f"adv-{seed}", statement="A puzzle.", answer_schema=FreeText())
        else:
            inner = oracles[seed // 2 % len(tasks)].fresh()
            problem = tasks[seed // 2 % len(tasks)].to_problem()
        backend = Faulty(inner, seed, 0.08, leave_systems)
        sessions.append(backend)
        try:
            tree, _final = router.run_session(problem, config=config, backends=backend)
            outcomes["finished"] += 1
        except BackendFailure as exc:
            tree = exc.tree
            outcomes["failed"] += 1
        backend.close()
        assert model.round_count(tree) <= config.max_rounds
        assert len(tree.chains) <= config.max_chains
        trace = metrics.serialize_trace(tree)
        assert metrics.serialize_trace(metrics.deserialize_trace(trace)) == trace
    # Read after every session has ended, so a call sent late is counted too.
    assert [backend.seed for backend in sessions if backend.late] == []
    assert outcomes["finished"] and outcomes["failed"]
    assert sum(backend.leave_faults for backend in sessions)
    assert sum(backend.r2_faults for backend in sessions)
    assert sum(backend.recheck_faults for backend in sessions)
    pooled_seeds = [seed for backend in sessions for seed in backend.pooled_seeds]
    assert pooled_seeds and set(pooled_seeds) == {None}


def four_step_backend():
    return ScriptedBackend(
        {
            "routing": [
                "ACTION: PremiseDiscovery\nGUIDANCE: extract",
                "ACTION: HypothesisGeneration\nGUIDANCE: propose",
                "GUIDANCE: verify carefully",
                "ACTION: SUMMARY<FINISHED>\nGUIDANCE: summarize",
            ],
            "solve": ["premises", "Hypothesis 1: the answer is 42", "verified", "final content"],
            "check": "Check Result: No error.",
            "summarize": "chain summary or final",
        }
    )


def test_session_case_flow_with_scripted_backend():
    """A clean extend-verify-finish-terminate session end to end."""
    backend = four_step_backend()
    config = SessionConfig(max_chains=1)
    tree, final = router.run_session(
        Problem(id="p", statement="A puzzle.", answer_schema=FreeText()),
        config=config,
        backends=backend,
    )
    assert tree.terminated.mode is TerminationMode.ACTIVE_SOLVED
    actions = [n.action for n in model.active_path(tree)]
    assert actions == [
        AtomicAction.PREMISE_DISCOVERY,
        AtomicAction.HYPOTHESIS_GENERATION,
        AtomicAction.HYPOTHESIS_VERIFICATION,
        AtomicAction.SUMMARY_FINISHED,
    ]
    assert final.text == "chain summary or final"


@pytest.mark.parametrize(
    "mode, checks",
    [("every", 4), ("reasoning-only", 2), ("ending-only", 1), ("off", 0)],
)
def test_checker_mode_picks_the_checked_steps(mode, checks):
    """The four-step session checks PD, HG, HV and SF under "every", the two
    reasoning steps (HG, HV) under "reasoning-only", SF alone under
    "ending-only" and nothing under "off"."""
    backend = four_step_backend()
    tree, _final = router.run_session(
        Problem(id="p", statement="A puzzle.", answer_schema=FreeText()),
        config=SessionConfig(max_chains=1, checker_mode=mode),
        backends=backend,
    )
    assert model.round_count(tree) == 4
    assert sum(request.tag == "check" for request in backend.calls) == checks
    assert sum(len(node.check_reports) for node in tree.nodes.values()) == checks


def test_backend_failure_preserves_partial_tree():
    backend = ScriptedBackend(
        {
            "routing": ["ACTION: PremiseDiscovery\nGUIDANCE: g"],
            "solve": ["some premises"],
            "check": [],  # exhausted on first check
        }
    )
    from atomic_reasoner.errors import BackendFailure

    with pytest.raises(BackendFailure) as excinfo:
        router.run_session(
            Problem(id="p", statement="A puzzle.", answer_schema=FreeText()),
            backends=backend,
        )
    assert model.round_count(excinfo.value.tree) == 1


GRID = GridSchema(houses=2, attributes=(("name", ("Ann", "Bob")), ("pet", ("cat", "dog"))))
COMPLETE_GRID = "All clues hold.\nSolution:\n- House 1: Ann (cat)\n- House 2: Bob (dog)"
SUMMARY_REPLY = "The summarizer's answer.\nSolution:\n- House 1: Ann (cat)\n- House 2: Bob (dog)"
NO_ERROR = "Check Result: No error."
SORTING_ERROR = "Check Result: There is an error\nError Type: Sorting Error\nSuggestion: order the houses."


def ending_session(ending, ending_checks=(NO_ERROR,), revisions=(), schema=GRID, **config):
    """A one-chain PD -> HG -> HV -> SF session whose ending step replies
    ``ending``, is checked by ``ending_checks`` and revised by ``revisions``.
    The script has one summarize reply, so a second finalize would raise."""
    backend = ScriptedBackend(
        {
            "routing": [
                "ACTION: PremiseDiscovery\nGUIDANCE: extract",
                "ACTION: HypothesisGeneration\nGUIDANCE: propose",
                "GUIDANCE: verify carefully",
                "ACTION: SUMMARY<FINISHED>\nGUIDANCE: conclude",
            ],
            "solve": ["premises", "Hypothesis 1: Ann has the cat", "verified", ending, *revisions],
            "check": [NO_ERROR] * 3 + list(ending_checks),
            "summarize": [SUMMARY_REPLY],
        }
    )
    tree, final = router.run_session(
        Problem(id="g", statement="A grid puzzle.", answer_schema=schema),
        config=SessionConfig(max_chains=1, **config),
        backends=backend,
    )
    ending_node = tree.nodes[model.active_chain(tree).node_ids[-1]]
    assert ending_node.action is AtomicAction.SUMMARY_FINISHED
    return tree, final, ending_node, [request.tag for request in backend.calls]


class TestCheckedEnding:
    def test_complete_ending_is_the_answer_without_a_summary_call(self):
        tree, final, ending, tags = ending_session(COMPLETE_GRID)
        assert "summarize" not in tags
        assert final.text == ending.content == COMPLETE_GRID
        assert tree.terminated.mode is TerminationMode.ACTIVE_SOLVED
        assert tree.terminated.final_answer == COMPLETE_GRID

    def test_revised_ending_answers_with_its_revision(self):
        revised = COMPLETE_GRID + "\n(sorted by house)"
        _tree, final, ending, tags = ending_session(
            "Solution:\n- House 2: Bob (dog)\n- House 1: Ann",
            ending_checks=(SORTING_ERROR, NO_ERROR),
            revisions=(revised,),
        )
        assert ending.revised and not ending.flagged
        assert "summarize" not in tags
        assert final.text == revised

    @pytest.mark.parametrize(
        "case, ending, ending_checks, revisions, schema, config",
        [
            ("incomplete grid", COMPLETE_GRID.replace(" (dog)", ""), (NO_ERROR,), (), GRID, {}),
            (
                "flagged ending",
                COMPLETE_GRID,
                (SORTING_ERROR,) * 3,
                (COMPLETE_GRID, COMPLETE_GRID),
                GRID,
                {},
            ),
            ("passive limit", COMPLETE_GRID, (NO_ERROR,), (), GRID, {"max_rounds": 4}),
            ("free text", COMPLETE_GRID, (NO_ERROR,), (), FreeText(), {}),
        ],
    )
    def test_other_endings_still_call_finalize_once(
        self, case, ending, ending_checks, revisions, schema, config
    ):
        tree, final, ending_node, tags = ending_session(
            ending, ending_checks, revisions, schema, **config
        )
        assert tags.count("summarize") == 1 and tags[-1] == "summarize"
        assert final.text == SUMMARY_REPLY
        assert ending_node.flagged is (case == "flagged ending")
        expected = TerminationMode.PASSIVE_LIMIT if case == "passive limit" else TerminationMode.ACTIVE_SOLVED
        assert tree.terminated.mode is expected


def backtracking_script(target=True, routing_after=(), summarize=("chain summary",)):
    """PD -> HG -> HV -> SF on the first chain; the fifth routing reply, if
    ``target``, is the backtracking target (Step 2), and ``routing_after``
    drives the second chain."""
    return {
        "routing": [
            "ACTION: PremiseDiscovery\nGUIDANCE: extract",
            "ACTION: HypothesisGeneration\nGUIDANCE: propose",
            "GUIDANCE: verify carefully",
            "ACTION: SUMMARY<FINISHED>\nGUIDANCE: conclude",
            *(["TARGET: Step 2\nREASON: UnexploredBranch"] if target else []),
            *routing_after,
        ],
        "solve": ["premises", "Hypothesis 1: 42", "verified", "42", "verified again", "42 again"],
        "check": NO_ERROR,
        "summarize": list(summarize),
    }


class Answered:
    """Passes calls to ``inner``.  A call whose tag is in ``delays`` first
    sleeps that many seconds, and ``tags`` lists each call's tag when its
    reply or failure is back.  The two calls named in ``meet``, each as
    (tag, n) for the n-th call of that tag, wait for each other on a barrier,
    so sent one after the other the first would time out.  A routing call
    sent off the thread that made this backend is a routing request sent
    ahead; ``ahead`` counts those calls, and the first of them raises
    ``ahead_failure`` when one is given."""

    def __init__(self, inner, delays=(), meet=(), ahead_failure=None):
        self.inner = inner
        self.delays = dict(delays)
        self.meet = meet
        self.barrier = threading.Barrier(2, timeout=5) if meet else None
        self.ahead_failure = ahead_failure
        self.ahead = 0
        self.tags = []
        self._session_thread = threading.current_thread()
        self._sent = Counter()
        self._lock = threading.Lock()

    def complete(self, request):
        sent_ahead = request.tag == "routing" and threading.current_thread() is not self._session_thread
        with self._lock:
            self._sent[request.tag] += 1
            nth = self._sent[request.tag]
            self.ahead += sent_ahead
            first_ahead = sent_ahead and self.ahead == 1
        if (request.tag, nth) in self.meet:
            self.barrier.wait()
        time.sleep(self.delays.get(request.tag, 0.0))
        try:
            if first_ahead and self.ahead_failure is not None:
                raise self.ahead_failure
            return self.inner.complete(request)
        finally:
            with self._lock:
                self.tags.append(request.tag)


def run_backtracking_session(backend):
    return router.run_session(
        Problem(id="b", statement="A puzzle.", answer_schema=FreeText()), backends=backend
    )


class TestLeavingAChain:
    def test_target_and_compression_are_in_flight_together(self):
        """Each of the two calls waits until the other has been sent; sent
        one after the other, the first would time out on the barrier."""
        script = backtracking_script(
            routing_after=("GUIDANCE: verify again", "ACTION: SUMMARY<FINISHED>\nGUIDANCE: conclude"),
            summarize=("chain summary", "final answer"),
        )
        backend = Answered(ScriptedBackend(script), meet=(("routing", 5), ("summarize", 1)))
        tree, final = run_backtracking_session(backend)
        first, second = tree.chains.values()
        assert first.summary == "chain summary" and second.summary is None
        assert final.text == "final answer"
        assert Counter(backend.tags) == Counter(routing=7, solve=6, check=6, summarize=2)

    def test_failed_target_call_raises_after_the_compression_with_no_branch(self):
        backend = Answered(ScriptedBackend(backtracking_script(target=False)), {"summarize": 0.2})
        with pytest.raises(BackendFailure, match="tag=routing") as excinfo:
            run_backtracking_session(backend)
        answered = list(backend.tags)
        assert answered[-2:] == ["routing", "summarize"]
        (chain,) = excinfo.value.tree.chains.values()
        assert chain.summary is None
        time.sleep(0.3)
        assert backend.tags == answered

    def test_failed_compression_raises_after_the_branch_with_no_summary(self):
        backend = ScriptedBackend(backtracking_script(summarize=()))
        with pytest.raises(BackendFailure, match="tag=summarize") as excinfo:
            run_backtracking_session(backend)
        tree = excinfo.value.tree
        assert len(tree.chains) == 2
        assert all(chain.summary is None for chain in tree.chains.values())

    def test_target_failure_wins_when_both_calls_fail(self):
        backend = ScriptedBackend(backtracking_script(target=False, summarize=()))
        with pytest.raises(BackendFailure, match="tag=routing") as excinfo:
            run_backtracking_session(backend)
        assert len(excinfo.value.tree.chains) == 1

    def test_blank_compression_is_re_asked_on_the_session_thread_after_the_target(self):
        """The pooled reply answers only the compression request it was sent
        for; its ``seed=1`` re-ask goes out from the session's thread once
        the target reply is in."""
        script = backtracking_script(
            routing_after=("GUIDANCE: verify again", "ACTION: SUMMARY<FINISHED>\nGUIDANCE: conclude"),
            summarize=(" \n", "chain summary", "final answer"),
        )
        inner = ScriptedBackend(script)
        session_thread = threading.current_thread()
        events = []

        class Recorded:
            def complete(self, request):
                on_session = threading.current_thread() is session_thread
                events.append(("sent", request.tag, request.seed, on_session))
                reply = inner.complete(request)
                events.append(("answered", request.tag, request.seed, on_session))
                return reply

        tree, final = run_backtracking_session(Recorded())
        first, _second = tree.chains.values()
        assert first.summary == "chain summary" and final.text == "final answer"
        compression, re_ask, _final = [call for call in inner.calls if call.tag == "summarize"]
        assert (compression.seed, re_ask.seed) == (None, 1)
        assert dataclasses.replace(re_ask, seed=None) == compression
        target_answered = [
            i for i, event in enumerate(events) if event[:2] == ("answered", "routing")
        ][4]
        re_asked = events.index(("sent", "summarize", 1, True))
        assert target_answered < re_asked

    def test_trees_are_rendered_and_prompts_built_on_the_session_thread(self, monkeypatch):
        """The leave's pool thread only sends: every render and prompt build
        of a backtracking session runs on the thread that runs the session."""
        calls = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)

            return wrapper

        for module, name in [(model, "render_steps"), (model, "render_tree")] + [
            (prompts, name) for name in dir(prompts) if name.startswith("build_")
        ]:
            monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
        task = bench.gen_puzzle(0, 3, 2)[0]
        tree, _final = router.run_session(
            task.to_problem(), backends=bench.oracle_session_backend(task)
        )
        assert len(tree.chains) == 2 and next(iter(tree.chains.values())).summary
        assert {"render_steps", "build_compression_prompt", "build_backtracking_prompt"} <= {
            name for name, _thread in calls
        }
        assert {thread for _name, thread in calls} == {threading.current_thread()}

    def test_concurrent_sessions_match_the_serial_one(self):
        """Sixteen case2 sessions (one backtrack each) on eight threads with a
        short switch interval: every trace and token tally equals a lone
        session's, so no update of the tree or the tally is lost."""
        fx = cases.load_case("case2")
        registry = sop.builtin_registry()

        def session(_):
            tally = TallyBackend(fx.backend())
            tree, final = router.run_session(fx.task.to_problem(), backends=tally, sop_registry=registry)
            return metrics.serialize_trace(tree), final.text, tally.prompt_tokens, tally.completion_tokens

        expected = session(None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(session, range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 16


CONCLUSION_ERROR = "Check Result: There is an error\nError Type: Conclusion Error\nSuggestion: redo it."


def hypothesis_script(hypothesis_checks=(NO_ERROR,)):
    """A one-chain PD -> HG -> HV -> SF session (``max_chains=1``) whose
    hypothesis is checked by ``hypothesis_checks``, revised after each error."""
    revisions = ["Hypothesis 1: revised"] * (len(hypothesis_checks) - 1)
    return {
        "routing": [
            "ACTION: PremiseDiscovery\nGUIDANCE: extract",
            "ACTION: HypothesisGeneration\nGUIDANCE: propose",
            "GUIDANCE: verify carefully",
            "ACTION: SUMMARY<FINISHED>\nGUIDANCE: conclude",
        ],
        "solve": ["premises", "Hypothesis 1: draft", *revisions, "verified", "final content"],
        "check": [NO_ERROR, *hypothesis_checks, NO_ERROR, NO_ERROR],
        "summarize": ["final answer"],
    }


def run_hypothesis_session(backend, **config):
    return router.run_session(
        Problem(id="h", statement="A puzzle.", answer_schema=FreeText()),
        config=SessionConfig(**{"max_chains": 1, **config}),
        backends=backend,
    )


class TestSendingR2Ahead:
    def test_hypothesis_check_and_r2_are_in_flight_together(self):
        """The hypothesis's check (the second check) and R2's request (the
        third routing call) wait for each other on a barrier."""
        backend = Answered(
            ScriptedBackend(hypothesis_script()), meet=(("check", 2), ("routing", 3))
        )
        tree, final = run_hypothesis_session(backend)
        assert backend.ahead == 1
        verification = model.active_path(tree)[2]
        assert verification.guidance == "verify carefully"
        assert final.text == "final answer"
        assert Counter(backend.tags) == Counter(routing=4, solve=4, check=4, summarize=1)

    def test_failed_r2_sent_ahead_raises_once_the_check_passes(self):
        backend = Answered(
            ScriptedBackend(hypothesis_script()), ahead_failure=RateLimited("ahead")
        )
        with pytest.raises(RateLimited, match="ahead") as excinfo:
            run_hypothesis_session(backend)
        path = model.active_path(excinfo.value.tree)
        assert [node.action for node in path] == [
            AtomicAction.PREMISE_DISCOVERY,
            AtomicAction.HYPOTHESIS_GENERATION,
        ]
        assert [report.verdict for report in path[-1].check_reports] == ["NoError"]

    def test_failed_r2_sent_ahead_is_dropped_when_the_check_revises(self):
        backend = Answered(
            ScriptedBackend(hypothesis_script((CONCLUSION_ERROR, NO_ERROR))),
            ahead_failure=RateLimited("ahead"),
        )
        tree, final = run_hypothesis_session(backend)
        hypothesis, verification = model.active_path(tree)[1:3]
        assert hypothesis.revised and hypothesis.content == "Hypothesis 1: revised"
        assert verification.guidance == "verify carefully"
        assert final.text == "final answer"
        # R2's request sent ahead during the first check fails and is dropped;
        # the one sent again during the re-check answers R2
        assert backend.ahead == 2 and backend.tags.count("routing") == 5

    def test_failed_check_raises_after_r2_sent_ahead_is_answered(self):
        script = hypothesis_script()
        script["check"] = [NO_ERROR]  # the hypothesis's check finds no reply
        backend = Answered(ScriptedBackend(script), {"routing": 0.2})
        with pytest.raises(BackendFailure, match="tag=check"):
            run_hypothesis_session(backend)
        answered = list(backend.tags)
        assert backend.ahead == 1 and answered[-2:] == ["check", "routing"]
        time.sleep(0.3)
        assert backend.tags == answered

    @pytest.mark.parametrize(
        "config",
        [{"max_rounds": 2}, {"checker_mode": "ending-only"}, {"checker_mode": "off"}],
        ids=["round-cap", "ending-only", "off"],
    )
    def test_nothing_is_sent_ahead_when_r2_is_not_checked_or_not_next(self, config):
        backend = Answered(ScriptedBackend(hypothesis_script()))
        run_hypothesis_session(backend, **config)
        assert backend.ahead == 0


def premise_script(premise_checks, dropped=0):
    """``hypothesis_script``'s session whose premise step, the first, is
    checked by ``premise_checks`` and revised after each error but a last
    one; ``dropped`` routing replies answer sends that a later revision
    drops."""
    script = hypothesis_script()
    script["routing"][1:1] = ["ACTION: PremiseRetrieval\nGUIDANCE: dropped"] * dropped
    script["solve"][1:1] = ["premises, revised"] * (len(premise_checks) - 1)
    script["check"][:1] = premise_checks
    return script


class TestSendingRoutingAheadOfARecheck:
    def test_recheck_and_next_routing_request_are_in_flight_together(self):
        """The revised premise step's re-check (the second check) and the
        next routing request (the second routing call) wait for each other on
        a barrier; the reply sent ahead picks the next step."""
        backend = Answered(
            ScriptedBackend(premise_script((CONCLUSION_ERROR, NO_ERROR))),
            meet=(("check", 2), ("routing", 2)),
        )
        tree, final = run_hypothesis_session(backend)
        premises, hypothesis = model.active_path(tree)[:2]
        assert premises.revised and premises.content == "premises, revised"
        assert hypothesis.guidance == "propose"
        assert final.text == "final answer"
        # sent ahead: during the re-check and during the hypothesis's check
        assert backend.ahead == 2
        assert Counter(backend.tags) == Counter(routing=4, solve=5, check=5, summarize=1)

    def test_nothing_is_sent_during_a_recheck_at_the_round_cap(self):
        backend = Answered(ScriptedBackend(hypothesis_script((CONCLUSION_ERROR, NO_ERROR))))
        tree, _final = run_hypothesis_session(backend, max_rounds=2)
        assert model.active_path(tree)[-1].revised
        assert backend.ahead == 0 and backend.tags.count("routing") == 2

    def test_nothing_is_sent_during_a_recheck_of_summary_finished(self):
        """Its chain is completed, so the session ends with no routing request;
        the one send is R2's, during the hypothesis's check."""
        script = hypothesis_script()
        script["solve"].append("final content, revised")
        script["check"][-1:] = [CONCLUSION_ERROR, NO_ERROR]
        backend = Answered(ScriptedBackend(script))
        tree, _final = run_hypothesis_session(backend)
        ending = model.active_path(tree)[-1]
        assert ending.action is AtomicAction.SUMMARY_FINISHED and ending.revised
        assert backend.ahead == 1 and backend.tags.count("routing") == 4

    def test_step_failing_every_check_costs_one_routing_call(self):
        """The premise step fails all three checks: the send during its first
        re-check is dropped by the second revision, and the send during the
        last re-check answers the next decision, as a flag is in no prompt."""
        backend = Answered(ScriptedBackend(premise_script((CONCLUSION_ERROR,) * 3, dropped=1)))
        tree, final = run_hypothesis_session(backend)
        premises, hypothesis = model.active_path(tree)[:2]
        assert premises.flagged and hypothesis.guidance == "propose"
        assert final.text == "final answer"
        # a serial session sends 4; the two from the session's thread are the
        # first and the last
        assert backend.ahead == 3 and backend.tags.count("routing") == 5


_STEP_LINE = re.compile(r"^Step \d+ \((\w+)\): (.*)$", re.MULTILINE)
_GUIDANCE_HEADER = "# The expert's guidance for the current step:\n"


def pure_reply(request):
    """A reply that is a function of the request alone: routing follows the
    last rendered step (R2's guidance names its request's digest), a step's
    content follows its guidance, a revision rewrites the draft, and the
    check fails the step under review while it is the draft."""
    user = request.messages[-1].content
    digest = hashlib.sha256(user.encode("utf-8")).hexdigest()[:12]
    if request.tag == "routing":
        steps = _STEP_LINE.findall(user)
        return {
            None: "ACTION: PremiseDiscovery\nGUIDANCE: extract",
            "PremiseDiscovery": "ACTION: HypothesisGeneration\nGUIDANCE: propose",
            "HypothesisGeneration": f"GUIDANCE: verify against routing {digest}",
            "HypothesisVerification": "ACTION: SUMMARY<FINISHED>\nGUIDANCE: conclude",
        }[steps[-1][0] if steps else None]
    if request.tag == "check":
        (under_review,) = [line for line in user.splitlines() if line.endswith(model.REVIEW_MARK)]
        return CONCLUSION_ERROR if "draft" in under_review else NO_ERROR
    if request.tag == "solve":
        if "# Checker findings:" in user:
            return "Hypothesis 1: revised"
        guidance = user.split(_GUIDANCE_HEADER, 1)[1].split("\n", 1)[0]
        if guidance == "propose":
            return "Hypothesis 1: draft"
        return f"step after '{guidance}'"
    return f"final answer from {digest}"  # summarize


def request_digests(calls):
    """Per tag, the number of requests and the sha256 of their ordered
    (sampling, seed, messages) stream."""
    streams = {}
    for r in calls:
        streams.setdefault(r.tag, []).append(
            [r.temperature, r.max_tokens, r.seed, [[m.role, m.content] for m in r.messages]]
        )
    return {
        tag: (len(stream), hashlib.sha256(json.dumps(stream, sort_keys=True).encode("utf-8")).hexdigest())
        for tag, stream in streams.items()
    }


# A serial session's requests, tree and answer under ``pure_reply``: the
# hypothesis's first check fails, so R2 is built once, after the revision.
PURE_REPLY_GOLDENS = {
    "check": (5, "2910ff64da420d1ff6c429456568f7078e7f61028da2da7018504ee7ba8fd5b3"),
    "routing": (4, "5be33f93df3cec91b78617390dba17bd8b107dc8746003136186387960eeb521"),
    "solve": (5, "f247f691bd0c928b5558ec181c9e252a2b3ff1b23995d6a26790ef98b9b3fd58"),
    "summarize": (1, "16140cb718993eaf5c8f9ebcdcacbd3a6da75e378da4bc844a1eda5a15daebca"),
    "trace": "fa5281b9b787e483db16cfe53e0da15f8b1ac8155b2849eec21baddb6e010d2f",
    "final": "final answer from 94ae0d33d22b",
}


def test_revised_hypothesis_costs_one_routing_request_and_changes_nothing_else():
    """Against a serial session: every tag but routing sends the same
    requests, routing sends one more, R2's request as built before the
    revision, and the tree and the answer are the same."""
    backend = ScriptedBackend({}, default=pure_reply)
    tree, final = router.run_session(
        Problem(id="pure", statement="A puzzle.", answer_schema=FreeText()),
        config=SessionConfig(max_chains=1),
        backends=backend,
    )
    routing = [request for request in backend.calls if request.tag == "routing"]
    others = [request for request in backend.calls if request.tag != "routing"]
    digests = request_digests(others + routing[:2] + routing[3:])
    assert digests == {tag: PURE_REPLY_GOLDENS[tag] for tag in TAGS}

    premises, hypothesis = model.active_path(tree)[:2]
    assert hypothesis.revised
    before_revision = model.new_tree(tree.problem)
    model.append_node(before_revision, premises.action, premises.guidance, premises.content)
    model.append_node(before_revision, hypothesis.action, hypothesis.guidance, "Hypothesis 1: draft")
    assert routing[2] == prompts.build_routing_prompt(before_revision) != routing[3]

    trace = hashlib.sha256(metrics.serialize_trace(tree).encode("utf-8")).hexdigest()
    assert (trace, final.text) == (PURE_REPLY_GOLDENS["trace"], PURE_REPLY_GOLDENS["final"])


# Per tag: the target request and the compression of the chain being left go
# out at the same time, so only each tag's own order is fixed.
GOLDEN_REQUEST_STREAMS = {
    "case1": {
        "check": (5, "bcb3fcd883752874e057ffe0c5ca246fb63c03a696c1b82c5535ca0e3c110bd0"),
        "routing": (5, "d1f3b7653bf6fd66f5fdc7972aeac31a4fea5b6041e51184565b899448d56978"),
        "solve": (5, "4c906e069ef824a5941323e4987baa4bff88fe0d6e3e5dfe628eca5ff0432bef"),
        "summarize": (1, "9553fbaae21d366585ecc522b0b4eecd332494886ca935a41bb4e5b4afe77958"),
    },
    "case2": {
        "check": (6, "c625719fc4dbf998a64cb2774eb59cb2e9acbe7373185e76236027b4ec951ef7"),
        "routing": (7, "7e8966dde48330044daaf401532a201a3fd51cb4a2a6981c6950065ddcd00447"),
        "solve": (6, "f5b86510a86d9353ac95b7c09881dbd229ab68b64335852883234aeede9b5b13"),
        "summarize": (1, "7725e9c8062d7c0e7c7045458e1b8decfd4717e1c3769c1fdc69fe01641db12d"),
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REQUEST_STREAMS))
def test_case_request_stream_is_byte_identical(name):
    """Every request a shipped case sends (sampling, seed, messages) is
    pinned by digest in its tag's order, so refactors of the prompt path
    cannot drift silently."""
    fx = cases.load_case(name)
    recorder = fx.backend()
    router.run_session(
        fx.task.to_problem(), backends=recorder, sop_registry=sop.builtin_registry()
    )
    assert request_digests(recorder.calls) == GOLDEN_REQUEST_STREAMS[name]


class OnThreads:
    """Passes calls to ``inner`` and lists each request with whether it was
    sent on the thread that made this backend."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self._session_thread = threading.current_thread()

    def complete(self, request):
        self.calls.append((request, threading.current_thread() is self._session_thread))
        return self.inner.complete(request)

    def requests(self, tag=None):
        return [request for request, _on_session in self.calls if tag in (None, request.tag)]


def strict_replay(store):
    return OnThreads(CacheBackend(None, CacheMode.REPLAY, store, strict=True))


def run_pure_session(backend):
    return router.run_session(
        Problem(id="pure", statement="A puzzle.", answer_schema=FreeText()),
        config=SessionConfig(max_chains=1),
        backends=backend,
    )


class TestSendingNothingAheadOnReplay:
    """A session whose last reply came from a cache sends nothing ahead."""

    def test_strict_replay_sends_every_call_on_the_session_thread(self, tmp_path):
        fx = cases.load_case("case2")
        registry = sop.builtin_registry()
        recorded = OnThreads(fx.backend())
        recording = router.run_session(
            fx.task.to_problem(),
            backends=CacheBackend(recorded, CacheMode.RECORD, tmp_path),
            sop_registry=registry,
        )
        replayed = strict_replay(tmp_path)
        tree, final = router.run_session(fx.task.to_problem(), backends=replayed, sop_registry=registry)
        assert not all(on_session for _request, on_session in recorded.calls)
        assert all(on_session for _request, on_session in replayed.calls)
        assert metrics.serialize_trace(tree) == metrics.serialize_trace(recording[0])
        assert final.text == recording[1].text

    def test_replay_of_a_revised_hypothesis_makes_the_serial_requests(self, tmp_path):
        """The recording's R2 request sent ahead during the failing first
        check is dropped; its replay sends it neither ahead nor at all."""
        recorded = OnThreads(ScriptedBackend({}, default=pure_reply))
        run_pure_session(CacheBackend(recorded, CacheMode.RECORD, tmp_path))
        replayed = strict_replay(tmp_path)
        tree, final = run_pure_session(replayed)
        assert len(recorded.requests("routing")) == PURE_REPLY_GOLDENS["routing"][0] + 1
        assert request_digests(replayed.requests()) == {tag: PURE_REPLY_GOLDENS[tag] for tag in TAGS}
        trace = hashlib.sha256(metrics.serialize_trace(tree).encode("utf-8")).hexdigest()
        assert (trace, final.text) == (PURE_REPLY_GOLDENS["trace"], PURE_REPLY_GOLDENS["final"])

    def test_replay_builds_each_routing_prompt_it_sends_and_no_other(self, tmp_path, monkeypatch):
        """Every routing prompt a replaying session builds is sent once, in
        the order built: none is built ahead and then dropped or rebuilt."""
        run_pure_session(CacheBackend(ScriptedBackend({}, default=pure_reply), CacheMode.RECORD, tmp_path))
        built = []
        build = prompts.build_routing_prompt

        def counted_build(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(prompts, "build_routing_prompt", counted_build)
        replayed = strict_replay(tmp_path)
        run_pure_session(replayed)
        assert len(built) == PURE_REPLY_GOLDENS["routing"][0]
        assert built == replayed.requests("routing")

    def test_recording_still_sends_ahead(self, tmp_path):
        """Every reply of a cold ``RECORD`` session comes from its inner
        backend, so the hypothesis's check and R2's request still wait for
        each other on a barrier."""
        backend = Answered(
            ScriptedBackend(hypothesis_script()), meet=(("check", 2), ("routing", 3))
        )
        _tree, final = run_hypothesis_session(CacheBackend(backend, CacheMode.RECORD, tmp_path))
        assert backend.ahead == 1 and final.text == "final answer"

    def test_a_hit_while_recording_keeps_sending_ahead(self, tmp_path):
        """The store already holds the hypothesis's solve request, so the
        recording session's hypothesis is a hit; its check and R2's request
        miss and still wait for each other on a barrier."""
        script = hypothesis_script()
        probe = ScriptedBackend(script)
        run_hypothesis_session(probe)
        hypothesis_solve = [request for request in probe.calls if request.tag == "solve"][1]
        recorder = CacheBackend(ScriptedBackend({"solve": "Hypothesis 1: draft"}), CacheMode.RECORD, tmp_path)
        recorder.complete(hypothesis_solve)

        script["solve"].remove("Hypothesis 1: draft")  # the store answers it
        inner = ScriptedBackend(script)
        backend = Answered(inner, meet=(("check", 2), ("routing", 3)))
        _tree, final = run_hypothesis_session(CacheBackend(backend, CacheMode.RECORD, tmp_path))
        assert hypothesis_solve not in inner.calls
        assert backend.ahead == 1 and final.text == "final answer"

    def test_a_replay_miss_resumes_sending_ahead(self, tmp_path):
        """The hypothesis's solve call misses a non-strict replay and is
        answered by the inner backend, so R2's request goes ahead during the
        hypothesis's check; a strict replay of the whole store sends none."""
        inner = ScriptedBackend(hypothesis_script())
        recording = run_hypothesis_session(CacheBackend(inner, CacheMode.RECORD, tmp_path))
        replayed = Answered(CacheBackend(None, CacheMode.REPLAY, tmp_path, strict=True))
        run_hypothesis_session(replayed)
        assert replayed.ahead == 0

        hypothesis_solve = [request for request in inner.calls if request.tag == "solve"][1]
        (tmp_path / f"{cache_key(hypothesis_solve, 'scripted')}.json").unlink()
        missed = ScriptedBackend({"solve": ["Hypothesis 1: draft"]})
        replayed = Answered(CacheBackend(missed, CacheMode.REPLAY, tmp_path, strict=False))
        tree, final = run_hypothesis_session(replayed)
        assert missed.calls == [hypothesis_solve]
        assert replayed.ahead == 1
        assert metrics.serialize_trace(tree) == metrics.serialize_trace(recording[0])
        assert final.text == recording[1].text

    @pytest.mark.parametrize("tag, nth", [("routing", 3), ("summarize", 1)], ids=["r2", "compression"])
    def test_strict_replay_miss_on_a_request_sent_ahead_raises_as_in_series(self, tmp_path, tag, nth):
        """R2's request misses after the hypothesis's check passes, with no
        step added; the compression misses after the target request, with
        the tree branched and no summary stored."""
        script = backtracking_script(
            routing_after=("GUIDANCE: verify again", "ACTION: SUMMARY<FINISHED>\nGUIDANCE: conclude"),
            summarize=("chain summary", "final answer"),
        )
        inner = ScriptedBackend(script)
        run_backtracking_session(CacheBackend(inner, CacheMode.RECORD, tmp_path))
        missing = [request for request in inner.calls if request.tag == tag][nth - 1]
        (tmp_path / f"{cache_key(missing, 'scripted')}.json").unlink()

        replayed = strict_replay(tmp_path)
        with pytest.raises(MalformedResponse, match=f"cache miss \\(tag={tag}\\)") as excinfo:
            run_backtracking_session(replayed)
        assert replayed.calls[-1] == (missing, True)
        assert all(on_session for _request, on_session in replayed.calls)
        tree = excinfo.value.tree
        assert all(chain.summary is None for chain in tree.chains.values())
        if tag == "routing":
            path = model.active_path(tree)
            assert [node.action for node in path] == [
                AtomicAction.PREMISE_DISCOVERY,
                AtomicAction.HYPOTHESIS_GENERATION,
            ]
            assert [report.verdict for report in path[-1].check_reports] == ["NoError"]
        else:
            assert len(tree.chains) == 2
            assert replayed.requests()[-2].tag == "routing"

    def test_concurrent_replays_match_a_lone_one(self, tmp_path):
        """Sixteen case2 sessions replayed from one strict store on eight
        threads with a short switch interval: every trace, answer and token
        tally equals a lone replay's."""
        fx = cases.load_case("case2")
        registry = sop.builtin_registry()
        router.run_session(
            fx.task.to_problem(),
            backends=CacheBackend(fx.backend(), CacheMode.RECORD, tmp_path),
            sop_registry=registry,
        )
        store = CacheBackend(None, CacheMode.REPLAY, tmp_path, strict=True)

        def session(_):
            tally = TallyBackend(store)
            tree, final = router.run_session(fx.task.to_problem(), backends=tally, sop_registry=registry)
            return metrics.serialize_trace(tree), final.text, tally.prompt_tokens, tally.completion_tokens

        expected = session(None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(session, range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 16
