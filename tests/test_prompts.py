import pytest

from atomic_reasoner import bench, cases, checker, model, prompts, router, sop
from atomic_reasoner.backends import ScriptedBackend
from atomic_reasoner.model import AtomicAction, FreeText, Problem

STATEMENT = "Which of the five houses holds the zebra? Every clue is binding."


def session_tree(steps=3, content="a step"):
    tree = model.new_tree(Problem(id="p", statement=STATEMENT, answer_schema=FreeText()))
    for i in range(steps):
        model.append_node(tree, AtomicAction.PREMISE_RETRIEVAL, "g", f"{content} {i}")
    return tree


def user_text(request):
    return request.messages[-1].content


BUILDERS = {
    "routing": lambda tree: prompts.build_routing_prompt(tree, "hints"),
    "solve": lambda tree: prompts.build_expansion_prompt(tree, "guidance", "procedure"),
    "backtracking": prompts.build_backtracking_prompt,
    "summary": lambda tree: prompts.build_summary_prompt(tree, "End with the answer."),
    "compression": lambda tree: prompts.build_compression_prompt(tree, model.active_chain(tree)),
    "checker": lambda tree: prompts.build_checker_prompt(
        tree, model.active_path(tree)[-1], checker.error_definitions(AtomicAction.PREMISE_RETRIEVAL)
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_prompt_carries_the_statement_once(name):
    request = BUILDERS[name](session_tree())
    assert sum(m.content.count(STATEMENT) for m in request.messages) == 1


def test_long_checker_process_fits_the_budget_and_keeps_the_reviewed_step():
    tree = session_tree(steps=40, content="verbose reasoning " + "z" * 600)
    path = model.active_path(tree)
    node = path[-1]
    backend = ScriptedBackend({"check": ["Check Result: No error"]})
    checker.check(tree, node, backend)
    body = user_text(backend.calls[0])
    process = body.split("Process to be examined:\n\n", 1)[1].split("\n\n# Response format", 1)[0]
    label = f"Problem: {STATEMENT}\n\n"
    assert process.startswith(label)
    # The statement is part of the budget; its "Problem: " label is not.
    assert len(process) - len("Problem: \n\n") <= prompts.RENDER_BUDGET
    assert model.ELISION_MARKER in process
    assert process.endswith(model.format_step(40, node) + model.REVIEW_MARK)


def test_backtracking_chain_numbers_steps_along_the_active_path():
    tree = session_tree(steps=6, content="first chain " + "q" * 400)
    model.branch_at(tree, model.active_path(tree)[2].id)
    for i in range(30):
        content = f"branch step {i} " + "w" * 400
        model.append_node(tree, AtomicAction.PREMISE_SUMMARIZATION, "g", content)
    path = model.active_path(tree)
    request = prompts.build_backtracking_prompt(tree)
    body = user_text(request)
    chain = body.split("which is:\n\n", 1)[1].split("\n\n# Response format", 1)[0]
    assert len(chain) + len(STATEMENT) <= prompts.RENDER_BUDGET
    assert chain.count(model.ELISION_MARKER) == 1
    shown = [line for line in chain.splitlines() if line.startswith("Step ")]
    assert shown and shown[-1].startswith("Step 33 ")
    for line in shown:
        k = int(line.split()[1])
        assert line == model.format_step(k, path[k - 1])

    k = int(shown[0].split()[1])
    backend = ScriptedBackend({"routing": [f"TARGET: Step {k}\nREASON: KeyNode"]})
    target, _ = router.select_backtrack_target(tree, backend)
    assert target == path[k - 1].id


def test_backtracking_tree_and_chain_share_one_budget():
    tree = session_tree(steps=20, content="first chain " + "q" * 400)
    model.branch_at(tree, model.active_path(tree)[5].id)
    for i in range(30):
        model.append_node(tree, AtomicAction.PREMISE_SUMMARIZATION, "g", f"branch step {i} " + "w" * 400)
    body = user_text(prompts.build_backtracking_prompt(tree))
    shown_tree, rest = body.split("tree structure:\n\n", 1)[1].split("\n\nAmong them,", 1)
    chain = rest.split("which is:\n\n", 1)[1].split("\n\n# Response format", 1)[0]
    assert model.ELISION_MARKER in chain
    # a tree that cannot keep its last steps whole is left out, never cut mid-step
    assert shown_tree == "" or shown_tree.startswith("Chain ")
    assert len(STATEMENT) + len(shown_tree) + len(chain) <= prompts.RENDER_BUDGET
    # the chain is rendered as if alone; the tree takes what it leaves
    assert chain == model.render_steps(model.active_path(tree), prompts.RENDER_BUDGET - len(STATEMENT))


def test_checker_reviews_a_node_off_the_active_path_as_its_next_step():
    tree = session_tree(steps=2)
    first, second = model.active_path(tree)
    model.branch_at(tree, first.id)
    request = prompts.build_checker_prompt(tree, second, checker.error_definitions(second.action))
    body = user_text(request)
    assert body.count(model.REVIEW_MARK) == 1
    assert model.format_step(2, second) + model.REVIEW_MARK in body


SLOTS = "{{tree}}, {{chain}}, {{problem}} and {{sop}}"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_slot_text_in_the_statement_and_steps_reaches_the_prompt_verbatim(name):
    statement = f"Solve this. Note: {SLOTS} are literal text."
    tree = model.new_tree(Problem(id="p", statement=statement, answer_schema=FreeText()))
    for i in range(3):
        model.append_node(tree, AtomicAction.PREMISE_RETRIEVAL, "g", f"step {i} quotes {SLOTS}")
    body = "\n".join(m.content for m in BUILDERS[name](tree).messages)
    assert body.count(statement) == 1
    assert "step 2 quotes " + SLOTS in body


def test_fill_leaves_a_slot_without_a_value_verbatim():
    assert prompts.fill("a {{x}} b {{y}} {{ z }}", x="1", unused="2") == "a 1 b {{y}} {{ z }}"


def _session_prompts(task, backend):
    sent = []

    class Recorder:
        def complete(self, request):
            sent.append(request)
            return backend.complete(request)

    router.run_session(task.to_problem(), backends=Recorder(), sop_registry=sop.builtin_registry())
    return sent


@pytest.mark.parametrize("source", ["case1", "case2", "grid-5x4"])
def test_session_prompts_fill_every_template_slot(source):
    if source == "grid-5x4":
        task = bench.gen_puzzle(0, 5, 4)[0]
        backend = bench.oracle_session_backend(task)
    else:
        fixture = cases.load_case(source)
        task, backend = fixture.task, fixture.backend()
    sent = _session_prompts(task, backend)
    assert {request.tag for request in sent} >= {"routing", "solve", "summarize"}
    for request in sent:
        for message in request.messages:
            assert "{{" not in message.content, (request.tag, message.role)
