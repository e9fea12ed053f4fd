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


def _reference_render_tree(tree, budget=None):
    """The quadratic truncation render_tree replaced (without its old
    ``Problem:`` line): rebuild the whole text after every dropped node."""
    drops = {cid: 0 for cid in tree.chains}

    def build():
        lines = []
        for ordinal, (cid, chain) in enumerate(tree.chains.items(), start=1):
            if lines:
                lines.append("")
            lines.append(model._chain_header(tree, chain, ordinal))
            if chain.status is not ChainStatus.ACTIVE and chain.summary:
                lines.append(f"Summary: {chain.summary}")
                continue
            dropped = drops[cid]
            if dropped:
                lines.append(model.ELISION_MARKER)
            for offset, nid in enumerate(chain.node_ids[dropped:], start=dropped + 1):
                lines.append(model._render_node(offset, tree.nodes[nid]))
        return "\n".join(lines)

    text = build()
    if budget is None or len(text) <= budget:
        return text
    candidates = []
    for cid, chain in tree.chains.items():
        if cid == tree.active_chain_id:
            continue
        if chain.status is not ChainStatus.ACTIVE and chain.summary:
            continue
        candidates.extend((cid, i) for i in range(len(chain.node_ids)))
    act = model.active_chain(tree)
    droppable = max(0, len(act.node_ids) - model.ACTIVE_CHAIN_KEEP)
    candidates.extend((act.id, i) for i in range(droppable))
    for cid, _ in candidates:
        drops[cid] += 1
        text = build()
        if len(text) <= budget:
            return text
    return ""


def _random_rendered_tree(rng):
    """A tree with branches, summarized and unsummarized old chains, revised
    nodes and multi-line contents."""
    tree = make_tree()
    for _ in range(rng.randrange(0, 25)):
        path = model.active_path(tree)
        if path and rng.random() < 0.2:
            old = model.active_chain(tree)
            model.branch_at(tree, rng.choice(path).id)
            if rng.random() < 0.5:
                old.summary = f"summary {rng.random():.4f}"
            continue
        lines = [f"line {i} " + "x" * rng.randrange(0, 60) for i in range(rng.randrange(1, 4))]
        try:
            nid = model.append_node(tree, rng.choice(list(AtomicAction)), "g", "\n".join(lines))
        except MissingHypothesis:
            continue
        tree.nodes[nid].revised = rng.random() < 0.2
    return tree


def test_render_tree_matches_reference_truncation():
    rng = random.Random(7)
    renders = 0
    for _ in range(300):
        tree = _random_rendered_tree(rng)
        full = len(_reference_render_tree(tree))
        budgets = [None, -1, 0, 5, full, full - 1] + [rng.randrange(0, full + 2) for _ in range(8)]
        for budget in budgets:
            assert model.render_tree(tree, budget) == _reference_render_tree(tree, budget), budget
            renders += 1
    assert renders == 300 * 14


def test_render_tree_budget_zero_is_empty():
    tree = make_tree()
    model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "first step")
    assert model.render_tree(tree, 0) == ""
    assert model.render_tree(tree, -1) == ""
    assert model.render_tree(tree, 1) == ""


def test_render_tree_cuts_only_at_line_boundaries():
    rng = random.Random(11)
    for _ in range(300):
        tree = _random_rendered_tree(rng)
        whole = set(model.render_tree(tree).splitlines()) | {model.ELISION_MARKER, ""}
        full = len(model.render_tree(tree))
        for budget in [0, 1, full - 1, full] + [rng.randrange(0, full + 2) for _ in range(8)]:
            text = model.render_tree(tree, budget)
            assert len(text) <= max(budget, 0), budget
            assert set(text.splitlines()) <= whole, budget


def test_render_tree_omits_the_statement():
    tree = make_tree("A statement shown once by the prompt.")
    model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "first step")
    text = model.render_tree(tree)
    assert "A statement shown once" not in text
    assert text.startswith("Chain 1 [Active]")


def _steps_tree(contents):
    tree = make_tree()
    for content in contents:
        model.append_node(tree, AtomicAction.PREMISE_RETRIEVAL, "g", content)
    return model.active_path(tree)


@pytest.mark.parametrize("focus_at", [0, 4, 9])
def test_render_steps_budget_keeps_the_focus(focus_at):
    path = _steps_tree([f"content {i} " + "y" * 50 for i in range(10)])
    focus = path[focus_at]
    full = model.render_steps(path, focus=focus)
    for budget in range(0, len(full) + 1, 7):
        text = model.render_steps(path, budget, focus=focus)
        focus_line = model.format_step(focus_at + 1, focus) + model.REVIEW_MARK
        assert focus_line in text.splitlines()
        assert text.count(model.REVIEW_MARK) == 1
        assert len(text) <= budget or len(focus_line) > budget
        if text != full:
            assert text.count(model.ELISION_MARKER) <= 1
        shown = [int(line.split()[1]) for line in text.splitlines() if line.startswith("Step ")]
        assert shown == sorted(shown)
        for line in text.splitlines():
            if line.startswith("Step "):
                step = int(line.split()[1])
                assert line.startswith(model.format_step(step, path[step - 1]))


def test_render_steps_drops_oldest_first_with_one_marker():
    path = _steps_tree([f"content {i} " + "y" * 50 for i in range(10)])
    full = model.render_steps(path)
    assert full == model.render_steps(path, len(full))
    text = model.render_steps(path, len(full) // 2, focus=path[0])
    lines = text.splitlines()
    assert lines[0] == model.format_step(1, path[0]) + model.REVIEW_MARK
    assert lines[1] == model.ELISION_MARKER
    assert lines[-1] == model.format_step(10, path[9])
    assert text.count(model.ELISION_MARKER) == 1
    assert len(text) <= len(full) // 2
    no_focus = model.render_steps(path, len(full) // 2)
    assert no_focus.splitlines()[0] == model.ELISION_MARKER
    assert "content 0" not in no_focus and "content 9" in no_focus


def _reference_render_steps(nodes, budget=None, focus=None):
    """render_steps by brute force: drop one more step, oldest first and
    never ``focus``, and rebuild the whole text until it fits."""
    nodes = list(nodes)
    at = next((i for i, n in enumerate(nodes) if focus is not None and n.id == focus.id), None)
    lines = [
        f"Step {i + 1} ({n.action.value}): {n.content}" + (model.REVIEW_MARK if i == at else "")
        for i, n in enumerate(nodes)
    ]
    order = [i for i in range(len(lines)) if i != at]
    for dropped in range(len(order) + 1):
        gone = set(order[:dropped])
        shown = [
            model.ELISION_MARKER if i in gone else line
            for i, line in enumerate(lines)
            if i not in gone or i == order[0]
        ]
        text = "\n".join(shown)
        if budget is None or len(text) <= budget:
            return text
    return lines[at] if at is not None else ""


def test_render_steps_matches_reference():
    rng = random.Random(17)
    renders = 0
    for _ in range(300):
        tree = _random_rendered_tree(rng)
        path = model.active_path(tree)
        off_path = [n for n in tree.nodes.values() if n not in path]
        stranger = model.Node(id="x1", action=AtomicAction.PREMISE_DISCOVERY, guidance="g",
                              content="not in the tree", created_round=1)
        focuses = [None, stranger] + path[-1:] + ([rng.choice(path)] if path else [])
        focuses += [rng.choice(off_path)] if off_path else []
        full = len(_reference_render_steps(path))
        budgets = [None, -1, 0, 5, full, full - 1, 12000]
        budgets += [rng.randrange(0, 12001) for _ in range(3)] + [rng.randrange(0, full + 2) for _ in range(5)]
        for focus in focuses:
            for budget in budgets:
                expected = _reference_render_steps(path, budget, focus)
                assert model.render_steps(path, budget, focus=focus) == expected, (budget, focus)
                assert model.render_steps(iter(path), budget, focus=focus) == expected
                renders += 1
    assert renders > 300 * 12 * 2


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
