"""Prompt construction from plain-text template files.

Templates live in ``templates/`` and use ``{{name}}`` placeholders.  Every
builder is a pure function of its inputs that returns a ready, tagged
``CompletionRequest``, so prompt construction is deterministic and each
request is built in exactly one place.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from typing import Optional

from . import model
from .backends import ChatMessage, CompletionRequest
from .errors import read_text

# Characters of the session a prompt shows, statement included: the tree,
# the active chain or the checked path gets what the statement leaves.
RENDER_BUDGET = 12000

# Sampling defaults per role (mirrors common slow-thinking framework settings).
ROUTING_TEMPERATURE = 0.2
SOLVE_TEMPERATURE = 0.7
CHECK_TEMPERATURE = 0.0


def _request(
    system: str, user: str, tag: str, temperature: float, max_tokens: int = 2048
) -> CompletionRequest:
    return CompletionRequest(
        messages=[ChatMessage("system", system), ChatMessage("user", user)],
        temperature=temperature,
        max_tokens=max_tokens,
        tag=tag,
    )


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    return read_text(resources.files("atomic_reasoner").joinpath("templates").joinpath(f"{name}.txt"))


def _budget(tree: model.AtomicTree) -> int:
    """What RENDER_BUDGET leaves for rendering the session after its statement."""
    return RENDER_BUDGET - len(tree.problem.statement)


def _outline(tree: model.AtomicTree) -> str:
    """The tree as the routing, solver and summary prompts show it."""
    return model.render_tree(tree, _budget(tree))


_SLOT = re.compile(r"\{\{(\w+)\}\}")


@lru_cache(maxsize=64)
def _pieces(template: str) -> tuple[str, ...]:
    """``template`` cut at its ``{{name}}`` slots: literal text at even
    indices, slot names at odd ones."""
    return tuple(_SLOT.split(template))


def fill(template: str, **values: str) -> str:
    """``template`` with each ``{{name}}`` slot replaced by ``values[name]``,
    in one pass: a value's own ``{{...}}`` text is never filled, and a slot
    with no value stays as written."""
    pieces = _pieces(template)
    out = list(pieces)
    for i in range(1, len(pieces), 2):
        name = pieces[i]
        out[i] = values[name] if name in values else "{{" + name + "}}"
    return "".join(out)


def build_routing_prompt(
    tree: model.AtomicTree, sop_hints: str = "", outline: Optional[str] = None
) -> CompletionRequest:
    """``outline`` is ``_outline(tree)`` when the caller has rendered it."""
    body = fill(
        load_template("routing_expansion"),
        sop=sop_hints,
        problem=tree.problem.statement,
        tree=_outline(tree) if outline is None else outline,
    )
    return _request(
        "You are an expert routing agent for structured reasoning.",
        body,
        "routing",
        ROUTING_TEMPERATURE,
    )


def build_expansion_prompt(
    tree: model.AtomicTree,
    guidance: str,
    sop_guidance: str = "",
    answer_format: str = "",
    outline: Optional[str] = None,
) -> CompletionRequest:
    """The solver's prompt for one step.  ``answer_format`` is for the ending
    step: its own section, so the guidance stays the line after its header.
    ``outline`` is ``_outline(tree)`` when the caller has rendered it."""
    parts = [
        "# The problem that needs to be solved is:",
        tree.problem.statement,
        "",
        "# The reasoning steps up to the current point:",
        _outline(tree) if outline is None else outline,
        "",
        "# The expert's guidance for the current step:",
        guidance,
    ]
    if sop_guidance:
        parts += ["", "# Domain procedure for this action:", sop_guidance]
    if answer_format:
        parts += ["", "# The format of the final answer:", answer_format]
    return _request(load_template("solver_system"), "\n".join(parts), "solve", SOLVE_TEMPERATURE)


def build_revision_prompt(content: str, report: model.CheckReport) -> CompletionRequest:
    parts = [
        "A checker reviewed the reasoning step below and found an error. "
        "Rewrite the step so the error is fixed, keeping everything that was correct.",
        "",
        "# Original step content:",
        content,
        "",
        "# Checker findings:",
        report.rationale,
    ]
    if report.suggestion:
        parts += ["", "# Suggested fix:", report.suggestion]
    parts += ["", "Respond with the full revised step content only."]
    return _request(load_template("solver_system"), "\n".join(parts), "solve", SOLVE_TEMPERATURE)


def build_single_pass_prompt(statement: str, format_instruction: str) -> CompletionRequest:
    return _request(
        "You are a careful problem solver.",
        f"{statement}\n\n{format_instruction}",
        "solve",
        SOLVE_TEMPERATURE,
    )


def build_backtracking_prompt(tree: model.AtomicTree) -> CompletionRequest:
    # TARGET indexes the chain, so it is rendered first; the tree gets the rest.
    chain = model.render_steps(model.active_path(tree), _budget(tree))
    body = fill(
        load_template("backtracking"),
        problem=tree.problem.statement,
        tree=model.render_tree(tree, _budget(tree) - len(chain)),
        chain=chain,
    )
    return _request(
        "You are a routing agent reviewing a finished reasoning chain.",
        body,
        "routing",
        ROUTING_TEMPERATURE,
    )


def build_checker_prompt(
    tree: model.AtomicTree, node: model.Node, error_definitions: str
) -> CompletionRequest:
    """The checker reviews ``node`` in the context of the active path, steps
    numbered along the path; a node off the path is reviewed as its next step."""
    path = model.active_path(tree)
    if all(prior.id != node.id for prior in path):
        path.append(node)
    steps = model.render_steps(path, _budget(tree), focus=node)
    process = f"Problem: {tree.problem.statement}\n\n{steps}"
    body = fill(load_template("checker"), errors=error_definitions, process=process)
    return _request("You are a meticulous reasoning checker.", body, "check", CHECK_TEMPERATURE)


def build_summary_prompt(
    tree: model.AtomicTree,
    format_instruction: str,
    best_effort: bool = False,
) -> CompletionRequest:
    instruction = format_instruction
    if best_effort:
        instruction = (
            "The round budget was exhausted before the reasoning concluded; "
            "give your best-effort answer from the partial reasoning.\n" + instruction
        )
    body = fill(
        load_template("summary"),
        problem=tree.problem.statement,
        tree=_outline(tree),
        format_instruction=instruction,
    )
    return _request(
        "You conclude reasoning sessions with a final answer.",
        body,
        "summarize",
        CHECK_TEMPERATURE,
    )


def build_compression_prompt(tree: model.AtomicTree, chain: model.Chain) -> CompletionRequest:
    body = fill(
        load_template("compression"),
        problem=tree.problem.statement,
        chain=model.render_steps((tree.nodes[nid] for nid in chain.node_ids), _budget(tree)),
    )
    return _request(
        "You compress finished reasoning chains into short summaries.",
        body,
        "summarize",
        CHECK_TEMPERATURE,
        max_tokens=512,
    )
