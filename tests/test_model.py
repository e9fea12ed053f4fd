import random

import pytest

from atomic_reasoner import model
from atomic_reasoner.errors import (
    AlreadyTerminated,
    EmptyProblem,
    MissingHypothesis,
    NodeNotOnActivePath,
    Terminated,
)
from atomic_reasoner.model import (
    AtomicAction,
    ActionCategory,
    ChainStatus,
    FreeText,
    Problem,
    TerminationMode,
)


def make_tree(statement="Order three items."):
    return model.new_tree(Problem(id="p", statement=statement, answer_schema=FreeText()))


def test_action_categories_partition():
    premise = [a for a in AtomicAction if model.category(a) is ActionCategory.PREMISE]
    reasoning = [a for a in AtomicAction if model.category(a) is ActionCategory.REASONING]
    ending = [a for a in AtomicAction if model.category(a) is ActionCategory.ENDING]
    assert len(premise) == 3 and len(reasoning) == 2 and len(ending) == 1
    assert len(list(AtomicAction)) == 6


def test_parse_action_accepts_snake_and_camel():
    assert model.parse_action("PremiseDiscovery") is AtomicAction.PREMISE_DISCOVERY
    assert model.parse_action("hypothesis_generation") is AtomicAction.HYPOTHESIS_GENERATION


def test_new_tree_blank_statement_rejected():
    with pytest.raises(EmptyProblem):
        model.new_tree(Problem(id="p", statement="   ", answer_schema=FreeText()))


def test_append_first_node_round_accounting():
    tree = make_tree()
    assert model.round_count(tree) == 0
    model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
    assert model.round_count(tree) == 1
    assert len(model.active_chain(tree).node_ids) == 1


def test_verification_without_hypothesis_rejected():
    tree = make_tree()
    with pytest.raises(MissingHypothesis):
        model.append_node(tree, AtomicAction.HYPOTHESIS_VERIFICATION, "g", "c")


def test_case1_action_sequence_appends():
    tree = make_tree()
    for action in (
        AtomicAction.PREMISE_DISCOVERY,
        AtomicAction.HYPOTHESIS_GENERATION,
        AtomicAction.HYPOTHESIS_VERIFICATION,
        AtomicAction.HYPOTHESIS_VERIFICATION,
    ):
        model.append_node(tree, action, "g", "c")
    path = model.active_path(tree)
    assert [n.action for n in path] == [
        AtomicAction.PREMISE_DISCOVERY,
        AtomicAction.HYPOTHESIS_GENERATION,
        AtomicAction.HYPOTHESIS_VERIFICATION,
        AtomicAction.HYPOTHESIS_VERIFICATION,
    ]


def test_branch_at_keeps_prefix_and_suspends_summary_chain():
    tree = make_tree()
    ids = [
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c1"),
        model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "c2"),
        model.append_node(tree, AtomicAction.SUMMARY_FINISHED, "g", "c3"),
    ]
    old_id = tree.active_chain_id
    new_id = model.branch_at(tree, ids[1])
    assert len(tree.chains) == 2
    assert tree.chains[old_id].status is ChainStatus.SUSPENDED  # ended in a summary
    new = tree.chains[new_id]
    assert new.parent == (old_id, 1)
    assert new.node_ids == []
    assert [n.id for n in model.active_path(tree)] == ids[:2]


def test_branch_at_without_summary_marks_dormant():
    tree = make_tree()
    nid = model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c1")
    old_id = tree.active_chain_id
    model.branch_at(tree, nid)
    assert tree.chains[old_id].status is ChainStatus.DORMANT


def test_branch_at_sibling_node_rejected():
    tree = make_tree()
    kept = model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c1")
    dropped = model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "c2")
    model.branch_at(tree, kept)  # "dropped" now lives only on the old chain's tail
    with pytest.raises(NodeNotOnActivePath):
        model.branch_at(tree, dropped)


def test_terminated_tree_is_frozen():
    tree = make_tree()
    model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c1")
    model.set_termination(tree, TerminationMode.ACTIVE_SOLVED, "answer")
    with pytest.raises(Terminated):
        model.append_node(tree, AtomicAction.PREMISE_RETRIEVAL, "g", "c2")
    with pytest.raises(Terminated):
        model.branch_at(tree, model.active_path(tree)[0].id)
    with pytest.raises(AlreadyTerminated):
        model.set_termination(tree, TerminationMode.PASSIVE_LIMIT, "again")


def test_render_tree_is_deterministic_and_one_based():
    tree = make_tree("A short problem.")
    model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "first step")
    model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "second step")
    text = model.render_tree(tree)
    assert text == model.render_tree(tree)
    assert "Step 1 (PremiseDiscovery): first step" in text
    assert "Step 2 (HypothesisGeneration): second step" in text
    assert "Chain 1 [Active]" in text


def test_render_tree_budget_elides_oldest_first():
    tree = make_tree("A short problem.")
    for i in range(8):
        model.append_node(tree, AtomicAction.PREMISE_RETRIEVAL, "g", f"content {i} " + "x" * 80)
    full = model.render_tree(tree)
    budget = len(full) // 2
    clipped = model.render_tree(tree, budget=budget)
    assert len(clipped) <= budget
    assert model.ELISION_MARKER in clipped
    assert "content 7" in clipped  # newest node survives
    assert "content 0" not in clipped  # oldest dropped


def test_render_tree_uses_summary_for_inactive_chains():
    tree = make_tree()
    nid = model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "kept")
    model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "abandoned detail")
    old_id = tree.active_chain_id
    model.branch_at(tree, nid)
    tree.chains[old_id].summary = "dead-end branch"
    text = model.render_tree(tree)
    assert "Summary: dead-end branch" in text
    assert "abandoned detail" not in text


def _random_walk(seed: int) -> None:
    """One randomized op-sequence; asserts the structural invariants after
    every operation."""
    rng = random.Random(seed)
    tree = make_tree()
    for _ in range(rng.randrange(3, 30)):
        ops = ["append"]
        if model.active_path(tree):
            ops.append("branch")
        op = rng.choice(ops)
        if op == "append":
            action = rng.choice(list(AtomicAction))
            try:
                model.append_node(tree, action, "g", f"content-{rng.random():.6f}")
            except MissingHypothesis:
                assert action is AtomicAction.HYPOTHESIS_VERIFICATION
        else:
            path = model.active_path(tree)
            model.branch_at(tree, rng.choice(path).id)

        # single active chain
        active = [c for c in tree.chains.values() if c.status is ChainStatus.ACTIVE]
        assert len(active) == 1 and active[0].id == tree.active_chain_id
        # round accounting
        assert model.round_count(tree) == len(tree.nodes)
        assert sum(len(c.node_ids) for c in tree.chains.values()) == len(tree.nodes)
        # acyclicity: parent links reach the root without revisits
        for chain in tree.chains.values():
            seen = {chain.id}
            cursor = chain
            while cursor.parent is not None:
                cursor = tree.chains[cursor.parent[0]]
                assert cursor.id not in seen
                seen.add(cursor.id)
        # every verification has a hypothesis earlier on its path
        path = model.active_path(tree)
        seen_hypo = False
        for node in path:
            if node.action is AtomicAction.HYPOTHESIS_GENERATION:
                seen_hypo = True
            if node.action is AtomicAction.HYPOTHESIS_VERIFICATION:
                assert seen_hypo


def test_random_op_sequences_uphold_invariants():
    for seed in range(300):
        _random_walk(seed)
