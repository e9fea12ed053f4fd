import dataclasses
import hashlib
import json
import random

import pytest

from atomic_reasoner import cases, model, router, sop
from atomic_reasoner.backends import ScriptedBackend
from atomic_reasoner.errors import Terminated
from atomic_reasoner.model import (
    AtomicAction,
    ChainStatus,
    FreeText,
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
        backend = ScriptedBackend([])  # any call would raise ScriptExhausted
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
    def completed_tree(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
        model.append_node(tree, AtomicAction.HYPOTHESIS_VERIFICATION, "g", "ok")
        model.append_node(tree, AtomicAction.SUMMARY_FINISHED, "g", "done")
        return tree

    def test_completed_chain_backtracks_to_named_step(self):
        tree = self.completed_tree()
        decision = router.decide(
            tree, SessionConfig(), routing("TARGET: Step 2\nREASON: UnexploredBranch")
        )
        assert isinstance(decision, Backtrack)
        assert decision.target == model.active_path(tree)[1].id
        assert decision.reason is BacktrackReason.UNEXPLORED_BRANCH

    def test_unparseable_target_falls_back_to_deepest_hypothesis(self):
        tree = self.completed_tree()
        backend = ScriptedBackend({"routing": "gibberish"})
        decision = router.decide(tree, SessionConfig(), backend)
        assert isinstance(decision, Backtrack)
        assert decision.target == model.active_path(tree)[1].id  # the hypothesis node
        assert backend.calls[1] == dataclasses.replace(backend.calls[0], seed=1)

    def test_out_of_range_target_falls_back(self):
        tree = self.completed_tree()
        decision = router.decide(tree, SessionConfig(), ScriptedBackend({"routing": "TARGET: Step 99"}))
        assert isinstance(decision, Backtrack)
        assert decision.target == model.active_path(tree)[1].id

    def test_target_and_reason_are_read_on_their_own_lines(self):
        tree = self.completed_tree()
        backend = ScriptedBackend({"routing": "TARGET:\n3\nTARGET: Step 1\nREASON:\nIncorrectContent"})
        decision = router.decide(tree, SessionConfig(), backend)
        assert decision == Backtrack(model.active_path(tree)[0].id, BacktrackReason.KEY_NODE)

    def test_second_completed_chain_terminates(self):
        tree = self.completed_tree()
        model.branch_at(tree, model.active_path(tree)[1].id)
        model.append_node(tree, AtomicAction.HYPOTHESIS_VERIFICATION, "g", "ok")
        model.append_node(tree, AtomicAction.SUMMARY_FINISHED, "g", "done again")
        decision = router.decide(tree, SessionConfig(), ScriptedBackend([]))
        assert decision == Terminate(TerminationMode.ACTIVE_SOLVED)

    def test_completed_chain_at_chain_cap_terminates(self):
        tree = self.completed_tree()
        cfg = SessionConfig(max_chains=1)
        decision = router.decide(tree, cfg, ScriptedBackend([]))
        assert decision == Terminate(TerminationMode.ACTIVE_SOLVED)

    def test_max_chains_converts_backtrack_proposal_to_passive_terminate(self):
        tree = make_tree()
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        cfg = SessionConfig(max_chains=1)
        decision = router.decide(tree, cfg, routing("ACTION: BACKTRACK"))
        assert decision == Terminate(TerminationMode.PASSIVE_LIMIT)


def adversarial_backend(rng):
    """Emits random structured and unstructured routing responses; solve and
    summarize requests get a random hypothesis, and every check passes."""
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
        return f"Hypothesis 1: guess {rng.random():.4f}"  # solve, summarize

    return ScriptedBackend({"check": "Check Result: No error."}, default=reply)


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


GOLDEN_REQUEST_STREAMS = {
    "case1": (16, "4d76cf8450e8d38181cb47276cc9c66bb968fb0e818fc033a1ccd09e03954544"),
    "case2": (21, "22e4248b622147b06d2c0e4f407421235a810a146766fcf68be8d8ada1fa3907"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REQUEST_STREAMS))
def test_case_request_stream_is_byte_identical(name):
    """Every request a shipped case sends (tag, sampling, seed, messages) is
    pinned by digest, so refactors of the prompt path cannot drift silently."""
    fx = cases.load_case(name)
    recorder = fx.backend()
    router.run_session(
        fx.task.to_problem(), backends=recorder, sop_registry=sop.builtin_registry()
    )
    stream = [
        [r.tag, r.temperature, r.max_tokens, r.seed, [[m.role, m.content] for m in r.messages]]
        for r in recorder.calls
    ]
    digest = hashlib.sha256(json.dumps(stream, sort_keys=True).encode("utf-8")).hexdigest()
    assert (len(stream), digest) == GOLDEN_REQUEST_STREAMS[name]
