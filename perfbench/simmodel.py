"""Simulated model: a deterministic, stateless stand-in for an LLM provider.

``SimModel.respond(messages)`` answers every request the engine makes
(routing, backtracking, solve, revise, check, compression, final summary)
as a pure function of the workload seed, the request text and the suite the
model "knows" (statement -> gold grid).  It drives a default-config session
to the gold answer along a fixed plan per workload shape:

* chain 1 follows ``plan1``; the routing agent then backtracks to step
  ``backtrack_step`` and the engine compresses chain 1;
* chain 2 follows ``plan2`` and ends in SUMMARY<FINISHED>, after which the
  engine terminates and asks for the final answer.

The request kind is read from the system message, the position in the plan
from the rendered tree in the prompt, so nothing is remembered between calls.

``LatencyModel`` turns a call's size into a provider wait.  This module does
not import the engine: it reads prompts as text, like a provider would.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass
from typing import Optional

PD = "PremiseDiscovery"
PR = "PremiseRetrieval"
PS = "PremiseSummarization"
HG = "HypothesisGeneration"
HV = "HypothesisVerification"
SF = "SUMMARY<FINISHED>"
SF_NODE = "SummaryFinished"  # how the tree renders a SUMMARY<FINISHED> step

GUIDANCE = {
    PD: "Discover premises: list every clue with its number and the attributes it links.",
    PR: "Retrieve premises: collect the clues that pin attributes to fixed houses.",
    PS: "Summarize premises: group the clues by attribute and mark the ones still unused.",
    HG: "Generate hypotheses: propose one complete assignment of every attribute to every house.",
    HV: "Verify hypotheses: check the proposed assignment against every clue, one clue at a time.",
    SF: "Finish: assemble the verified assignment into the final Solution block.",
}
_ACTION_BY_GUIDANCE = {text: action for action, text in GUIDANCE.items()}

# Checker error kinds per action category (any kind of the right category
# parses; these are the engine's fallback kinds).
_ERROR_KIND = {PD: "Content Conflict", PR: "Content Conflict", PS: "Content Conflict",
               HG: "Conclusion Error", HV: "Conclusion Error", SF: "Sorting Error"}
_NODE_TO_PLAN = {PD: PD, PR: PR, PS: PS, HG: HG, HV: HV, SF_NODE: SF}

REVISION_NOTE = "[revision] The flagged inference now cites the clue it relies on."


@dataclass(frozen=True)
class Shape:
    """One session shape: the plan, how verbose steps are, how many checks fail."""

    name: str
    plan1: tuple[str, ...]
    plan2: tuple[str, ...]
    backtrack_step: int
    backtrack_reason: str
    step_chars: int  # target length of each solve completion
    check_chars: int  # target length of each checker completion
    check_errors: int  # checks per session that report an error (each revised once)


WIDE = Shape(
    name="wide",
    plan1=(PD, HG, HV, SF),
    plan2=(HG, HV, SF),
    backtrack_step=1,
    backtrack_reason="UnexploredBranch",
    step_chars=300,
    check_chars=120,
    check_errors=0,
)

DEEP = Shape(
    name="deep",
    plan1=(PD, PR, PS, HG, HV, SF),
    plan2=(PR, HG, HV, SF),
    backtrack_step=3,
    backtrack_reason="KeyNode",
    step_chars=2600,
    check_chars=700,
    check_errors=2,
)

SHAPES = {s.name: s for s in (WIDE, DEEP)}


@dataclass(frozen=True)
class LatencyModel:
    """Provider wait per call: ``base + a * prompt_chars + b * completion_chars``."""

    base_ms: float
    prompt_ms_per_kchar: float
    completion_ms_per_kchar: float

    def wait_s(self, prompt_chars: int, completion_chars: int) -> float:
        ms = (
            self.base_ms
            + self.prompt_ms_per_kchar * prompt_chars / 1000.0
            + self.completion_ms_per_kchar * completion_chars / 1000.0
        )
        return ms / 1000.0

    def to_json(self) -> dict:
        return asdict(self)


ZERO_LATENCY = LatencyModel(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Known:
    """What the model knows about one task."""

    task_id: str
    attributes: tuple[tuple[str, tuple[str, ...]], ...]
    gold: dict  # house number (int) -> {attribute: value}
    clues: tuple[str, ...]  # the statement's numbered clue lines


def known_from_record(record: dict) -> Known:
    statement = record["statement"]
    return Known(
        task_id=record["id"],
        attributes=tuple((name, tuple(values)) for name, values in record["schema"]["attributes"]),
        gold={int(h): cells for h, cells in record["gold"].items()},
        clues=tuple(line for line in statement.splitlines() if re.match(r"\d+\. ", line)),
    )


def solution_block(known: Known) -> str:
    """The 'Solution:' block the engine's summary prompt asks for."""
    names = [name for name, _ in known.attributes]
    lines = ["Solution:"]
    for house in sorted(known.gold):
        cells = known.gold[house]
        rest = ", ".join(cells[n] for n in names[1:])
        lines.append(f"- House {house}: {cells[names[0]]}" + (f" ({rest})" if rest else ""))
    return "\n".join(lines)


def prompt_chars(messages) -> int:
    return sum(len(content) for _, content in messages)


_SYSTEM_KIND = (
    ("You are an expert routing agent", "routing"),
    ("You are a routing agent reviewing a finished reasoning chain", "backtrack"),
    ("You are a meticulous reasoning checker", "check"),
    ("You conclude reasoning sessions with a final answer", "final"),
    ("You compress finished reasoning chains", "compress"),
    ("You are a solver", "solve"),
)

_CHAIN_HEADER = re.compile(r"^Chain (\d+) \[(\w+)\]")
_STEP_LINE = re.compile(r"^Step (\d+) \((\w+)\):")
_REVIEW_MARK = "  <-- step under review"


class SimModel:
    """Answers chat requests for one workload seed and one session shape.

    ``messages`` is a sequence of ``(role, content)`` pairs.  The model knows
    the tasks of its suite by statement; a prompt about any other problem is
    answered with a generic, unparseable reply.
    """

    def __init__(self, seed: int, shape: Shape, records: list[dict]):
        self.seed = seed
        self.shape = shape
        self._known = {r["statement"]: known_from_record(r) for r in records}
        plan_keys = [(i, a) for i, a in enumerate(shape.plan1, start=1)]
        plan_keys += [(shape.backtrack_step + i, a) for i, a in enumerate(shape.plan2, start=1)]
        self._failing: dict[str, frozenset] = {}
        for known in self._known.values():
            rng = random.Random(f"{seed}:{known.task_id}")
            self._failing[known.task_id] = frozenset(rng.sample(plan_keys, shape.check_errors))

    def respond(self, messages) -> str:
        system = messages[0][1]
        user = messages[-1][1]
        kind = next((k for prefix, k in _SYSTEM_KIND if system.startswith(prefix)), "solve")
        if kind == "solve" and user.startswith("A checker reviewed"):
            return self._revise(user)  # revision prompts omit the problem
        known = self._find(user)
        if known is None:
            return "I cannot tell which problem this is."
        return getattr(self, "_" + kind)(user, known)

    def _find(self, text: str) -> Optional[Known]:
        for statement, known in self._known.items():
            if statement in text:
                return known
        return None

    # --- routing -----------------------------------------------------------

    def _routing(self, prompt: str, known: Known) -> str:
        ordinal, steps = _active_chain(prompt)
        plan = self.shape.plan1 if ordinal == 1 else self.shape.plan2
        action = plan[steps] if steps < len(plan) else SF
        return (
            f"The active chain has {steps} step(s); the plan for this chain continues "
            f"with {action}.\nACTION: {action}\nGUIDANCE: {GUIDANCE[action]}"
        )

    def _backtrack(self, prompt: str, known: Known) -> str:
        return (
            "The finished chain fixed the assignment early; revisiting the premises "
            "may expose an alternative line of reasoning.\n"
            f"TARGET: Step {self.shape.backtrack_step}\nREASON: {self.shape.backtrack_reason}"
        )

    # --- solving -----------------------------------------------------------

    def _solve(self, prompt: str, known: Known) -> str:
        marker = "# The expert's guidance for the current step:\n"
        guidance = prompt[prompt.find(marker) + len(marker):].split("\n", 1)[0] if marker in prompt else ""
        action = _ACTION_BY_GUIDANCE.get(guidance.strip(), PS)
        return _pad(self._step_body(action, known), self.shape.step_chars, known)

    def _step_body(self, action: str, known: Known) -> str:
        if action == PD:
            return "Premises found in the statement:\n" + "\n".join(f"- {c}" for c in known.clues)
        if action == PR:
            fixed = [c for c in known.clues if "in house" in c] or list(known.clues[:2])
            return "Clues that fix positions:\n" + "\n".join(f"- {c}" for c in fixed)
        if action == PS:
            names = ", ".join(name for name, _ in known.attributes)
            return f"The clues constrain the attributes {names}; {len(known.clues)} clues in total."
        if action == HG:
            return "Hypothesis 1: the assignment is\n" + solution_block(known)
        if action == HV:
            checks = "\n".join(f"- Clue {c.split('.', 1)[0]}: satisfied by Hypothesis 1." for c in known.clues)
            return "Checking Hypothesis 1 clue by clue:\n" + checks
        return "All clues are verified.\n" + solution_block(known)

    def _revise(self, prompt: str) -> str:
        start = prompt.find("# Original step content:\n") + len("# Original step content:\n")
        end = prompt.find("\n\n# Checker findings:")
        return prompt[start:end].strip() + "\n" + REVISION_NOTE

    # --- checking ----------------------------------------------------------

    def _check(self, prompt: str, known: Known) -> str:
        step, action, content = _step_under_review(prompt)
        analysis = _pad("Each error type was considered for the step under review.", self.shape.check_chars, known)
        key = (step, _NODE_TO_PLAN.get(action, action))
        if key in self._failing[known.task_id] and REVISION_NOTE not in content:
            return (
                f"{analysis}\nCheck Result: There is an error\n"
                f"Error Type: {_ERROR_KIND.get(key[1], 'Conclusion Error')}\n"
                "Suggestion: cite the clue each inference relies on."
            )
        return f"{analysis}\nCheck Result: No error"

    # --- summaries ---------------------------------------------------------

    def _compress(self, prompt: str, known: Known) -> str:
        return (
            "The chain gathered the premises, proposed a full assignment, verified it "
            "against every clue and concluded with it."
        )

    def _final(self, prompt: str, known: Known) -> str:
        return "The verified assignment satisfies every clue.\n" + solution_block(known)

def _pad(body: str, target: int, known: Known) -> str:
    """Lengthen a completion to about ``target`` characters with a restatement
    of the clues, the way verbose models do."""
    if len(body) >= target:
        return body
    filler = []
    size = len(body)
    i = 0
    while size < target and known.clues:
        line = f"- Restating {known.clues[i % len(known.clues)]}"
        filler.append(line)
        size += len(line) + 1
        i += 1
    return body + "\nNotes:\n" + "\n".join(filler)


def _active_chain(prompt: str) -> tuple[int, int]:
    """(ordinal of the Active chain, steps shown on it) from a rendered tree."""
    ordinal, steps, in_active = 1, 0, False
    for line in prompt.splitlines():
        header = _CHAIN_HEADER.match(line)
        if header:
            in_active = header.group(2) == "Active"
            if in_active:
                ordinal = int(header.group(1))
            continue
        if in_active:
            step = _STEP_LINE.match(line)
            if step:
                steps = int(step.group(1))
    return ordinal, steps


def _step_under_review(prompt: str) -> tuple[int, str, str]:
    """(path step, action, content) of the step a checker prompt reviews."""
    lines = prompt.splitlines()
    for i, line in enumerate(lines):
        if line.endswith(_REVIEW_MARK):
            for j in range(i, -1, -1):
                step = _STEP_LINE.match(lines[j])
                if step:
                    content = "\n".join(lines[j:i + 1])
                    return int(step.group(1)), step.group(2), content
    return 0, "", ""


def load_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
