"""Executes routed atomic actions against the reasoning backend and produces
the final answer at termination."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Optional

from . import answers, backends, model, prompts
from .backends import CompletionRequest
from .errors import EmptyCompletion
from .model import (
    AtomicAction,
    AtomicTree,
    Chain,
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
    extracted: Optional[Any] = None  # option letter, grid dict, or normalized number


def _complete_nonempty(backend, request: CompletionRequest) -> str:
    text = backends.ask(backend, request, backends.nonblank)
    if text is None:
        raise EmptyCompletion(f"backend returned blank output twice (tag={request.tag})")
    return text


def execute(
    tree: AtomicTree,
    action: AtomicAction,
    guidance: str,
    backend,
    sop_guidance: str = "",
) -> Node:
    """Run one Extend decision: build the solver prompt, call the backend,
    append the node.  Hypothesis steps missing the 'Hypothesis <k>:' marker
    get flagged for checker attention."""
    request = prompts.build_expansion_prompt(tree, guidance, sop_guidance)
    content = _complete_nonempty(backend, request)
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
    """One summarizing backend call shaped by the problem's answer schema."""
    schema = tree.problem.answer_schema
    request = prompts.build_summary_prompt(
        tree,
        format_instruction_for(schema),
        best_effort=(mode is TerminationMode.PASSIVE_LIMIT),
    )
    text = _complete_nonempty(backend, request)
    extracted: Optional[Any] = None
    if isinstance(schema, MultipleChoice):
        extracted = answers.extract_mcq(text, answers.option_letters(schema))
    elif isinstance(schema, GridSchema):
        extracted = answers.parse_grid(text, schema)
    elif isinstance(schema, Numeric):
        extracted = answers.normalize_numeric(text)
    return FinalAnswer(text=text, extracted=extracted)


def compress_chain(tree: AtomicTree, chain: Chain, backend) -> str:
    """Summarize a chain that just left Active status; stores and returns the
    summary."""
    summary = _complete_nonempty(backend, prompts.build_compression_prompt(tree, chain))
    chain.summary = summary
    return summary
