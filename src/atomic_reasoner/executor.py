"""Executes routed atomic actions against the reasoning backend and produces
the final answer at termination when the ending step does not hold it."""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import backends, model, prompts
from .model import (
    AtomicAction,
    AtomicTree,
    GridSchema,
    MultipleChoice,
    Node,
    Numeric,
    TerminationMode,
)

HYPOTHESIS_MARKER = re.compile(r"^\s*[-*]?\s*\**Hypothesis\s+\d+\s*\**:", re.IGNORECASE | re.MULTILINE)


@dataclass
class FinalAnswer:
    text: str


def execute(
    tree: AtomicTree,
    action: AtomicAction,
    guidance: str,
    backend,
    sop_guidance: str = "",
) -> Node:
    """Run one Extend decision: build the solver prompt, call the backend,
    append the node.  The ending step is asked for the schema's answer format,
    so it can stand as the final answer.  Hypothesis steps missing the
    'Hypothesis <k>:' marker get flagged for checker attention."""
    answer_format = ""
    if action is AtomicAction.SUMMARY_FINISHED:
        answer_format = format_instruction_for(tree.problem.answer_schema)
    request = prompts.build_expansion_prompt(tree, guidance, sop_guidance, answer_format)
    content = backends.ask_text(backend, request)
    node_id = model.append_node(tree, action, guidance, content)
    node = tree.nodes[node_id]
    if action is AtomicAction.HYPOTHESIS_GENERATION and not HYPOTHESIS_MARKER.search(content):
        node.flagged = True
    return node


def format_instruction_for(schema) -> str:
    if isinstance(schema, MultipleChoice):
        return (
            "Your final answer should follow this format: "
            '"The correct answer is (insert answer here)".'
        )
    if isinstance(schema, GridSchema):
        first = schema.attribute_names[0]
        rest = ", ".join(f"<{a}>" for a in schema.attribute_names[1:])
        line = f"- House <n>: <{first}>" + (f" ({rest})" if rest else "")
        return (
            'End with a block starting with the line "Solution:" followed by one '
            f'line per house in the form "{line}".'
        )
    if isinstance(schema, Numeric):
        return "End with the final numeric value on its own line."
    return "End with a clear statement of the final answer."


def finalize(tree: AtomicTree, backend, mode: TerminationMode) -> FinalAnswer:
    """One summarizing backend call shaped by the problem's answer schema;
    the answer is extracted from its text by ``bench.score``.  Sessions that
    end on a complete, checked ending step skip it (``router.run_session``)."""
    request = prompts.build_summary_prompt(
        tree,
        format_instruction_for(tree.problem.answer_schema),
        best_effort=(mode is TerminationMode.PASSIVE_LIMIT),
    )
    return FinalAnswer(backends.ask_text(backend, request))

