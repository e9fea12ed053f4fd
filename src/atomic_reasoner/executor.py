"""Executes routed atomic actions against the reasoning backend and produces
the final answer at termination when the ending step does not hold it.  The
answer format both prompts ask for is ``answers.format_instruction``."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import answers, backends, model, prompts
from .model import AtomicAction, AtomicTree, Node, TerminationMode

HYPOTHESIS_MARKER = re.compile(r"^\s*[-*]?\s*\**Hypothesis\s+\d+\s*\**:", re.IGNORECASE | re.MULTILINE)


@dataclass
class FinalAnswer:
    """A session's final answer.  ``answer`` is what ``answers.extract``
    read from ``text`` under the problem's schema when the session read it
    (a checked ending step, ``router._checked_ending``), and None when it did
    not (``finalize``): ``bench.score`` then reads ``text`` itself."""

    text: str
    answer: object = None


def execute(
    tree: AtomicTree,
    action: AtomicAction,
    guidance: str,
    backend,
    sop_guidance: str = "",
    outline: Optional[str] = None,
) -> Node:
    """Run one Extend decision: build the solver prompt, call the backend,
    append the node.  The ending step is asked for the schema's answer format,
    so it can stand as the final answer.  A hypothesis step missing the
    'Hypothesis <k>:' marker gets ``Node.flagged`` set; the flag is recorded
    in the trace, and no prompt renders it.  ``outline`` is the tree as the
    round's routing request rendered it (``Extend.outline``); without it the
    tree is rendered here."""
    answer_format = ""
    if action is AtomicAction.SUMMARY_FINISHED:
        answer_format = answers.format_instruction(tree.problem.answer_schema)
    request = prompts.build_expansion_prompt(tree, guidance, sop_guidance, answer_format, outline)
    content = backends.ask_text(backend, request)
    node_id = model.append_node(tree, action, guidance, content)
    node = tree.nodes[node_id]
    if action is AtomicAction.HYPOTHESIS_GENERATION and not HYPOTHESIS_MARKER.search(content):
        node.flagged = True
    return node


def finalize(tree: AtomicTree, backend, mode: TerminationMode) -> FinalAnswer:
    """One summarizing backend call shaped by the problem's answer schema;
    the answer is read from its text by ``answers.extract``.  Sessions that
    end on a complete, checked ending step skip it (``router.run_session``)."""
    request = prompts.build_summary_prompt(
        tree,
        answers.format_instruction(tree.problem.answer_schema),
        best_effort=(mode is TerminationMode.PASSIVE_LIMIT),
    )
    return FinalAnswer(backends.ask_text(backend, request))

