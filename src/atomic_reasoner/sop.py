"""Standard Operating Procedures: domain triage and per-action strategy text.

SOPs live in ``.sop`` files: UTF-8, INI-like sections.

    [meta]
    domain = logical-reasoning
    keywords = clue, clues:, houses

    [schedule]
    <free text injected into routing prompts>

    [action:premise_discovery]
    <strategy text for that action>

``keywords`` is a comma-separated list that triage matches, case-insensitively,
against the problem statement; an SOP without keywords is reached only as the
default.  Action section names use snake_case action names; unknown action,
section or ``[meta]`` key names, and non-blank ``[meta]`` lines without
``=``, are a parse error.  The registry always
carries a default SOP.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .errors import MissingDefault, ParseError, UnknownAction, read_text
from .model import AtomicAction, Problem, parse_action

log = logging.getLogger(__name__)

DEFAULT_DOMAIN = "default"


@dataclass
class Sop:
    domain: str
    action_strategies: dict[AtomicAction, str] = field(default_factory=dict)
    scheduling_hints: str = ""
    keywords: tuple[str, ...] = ()  # lower-cased triage keywords

    def __post_init__(self):
        if not self.domain.strip():
            raise ValueError("SOP domain must be non-empty")


@dataclass
class SopRegistry:
    sops: dict[str, Sop]

    def get(self, domain: str) -> Sop:
        return self.sops.get(domain, self.sops[DEFAULT_DOMAIN])


# --- .sop parsing -------------------------------------------------------------

def parse_sop(text: str, source: str = "<string>") -> Sop:
    domain = ""
    keywords: tuple[str, ...] = ()
    schedule_lines: list[str] = []
    strategies: dict[AtomicAction, str] = {}

    section: Optional[str] = None
    section_line = 0
    section_action: Optional[AtomicAction] = None
    buffer: list[str] = []

    def flush():
        nonlocal domain, keywords
        if section is None:
            return
        body = "\n".join(buffer).strip()
        if section == "meta":
            for line_no, raw in enumerate(buffer, start=section_line + 1):
                if not raw.strip():
                    continue
                if "=" not in raw:
                    raise ParseError(f"[meta] line {raw.strip()!r} is not 'key = value'", source, line_no)
                key, value = (part.strip() for part in raw.split("=", 1))
                if key == "domain":
                    domain = value
                elif key == "keywords":
                    words = (w.strip().lower() for w in value.split(","))
                    keywords = tuple(w for w in words if w)
                else:
                    raise ParseError(
                        f"unknown [meta] key {key!r} (known: domain, keywords)", source, line_no
                    )
        elif section == "schedule":
            schedule_lines.append(body)
        elif section == "action":
            strategies[section_action] = body

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            flush()
            buffer = []
            section_line = line_no
            header = stripped[1:-1].strip()
            if header == "meta" or header == "schedule":
                section, section_action = header, None
            elif header.startswith("action:"):
                name = header.split(":", 1)[1].strip()
                try:
                    section_action = parse_action(name)
                except UnknownAction as exc:
                    raise ParseError(str(exc), source, line_no)
                section = "action"
            else:
                raise ParseError(f"unknown section [{header}]", source, line_no)
            continue
        buffer.append(raw)
    flush()

    if not domain:
        raise ParseError("missing [meta] domain", source)
    return Sop(
        domain=domain,
        action_strategies=strategies,
        scheduling_hints="\n".join(s for s in schedule_lines if s),
        keywords=keywords,
    )


def load_sops(path: Union[str, Path]) -> SopRegistry:
    """Load every ``*.sop`` file under a directory into a registry."""
    root = Path(path)
    sops: dict[str, Sop] = {}
    for file in sorted(root.glob("*.sop")):
        sop = parse_sop(read_text(file), source=str(file))
        if sop.domain in sops:
            log.warning("duplicate SOP domain %s in %s: last wins", sop.domain, file)
        sops[sop.domain] = sop
    if DEFAULT_DOMAIN not in sops:
        raise MissingDefault(f"no {DEFAULT_DOMAIN}.sop found under {root}")
    return SopRegistry(sops=sops)


def builtin_registry() -> SopRegistry:
    """The two shipped SOPs (science, logic) plus the default."""
    with resources.as_file(resources.files("atomic_reasoner") / "data" / "sops") as root:
        return load_sops(root)


# --- triage -------------------------------------------------------------------

def triage(problem: Problem, registry: SopRegistry) -> str:
    """Domain classification by keyword heuristics over the statement: an SOP
    scores one point per ``[meta]`` keyword the lowered statement contains.
    The highest score wins, ties alphabetically; with no hit, the default.
    Always returns a label present in the registry."""
    if problem.domain_hint and problem.domain_hint in registry.sops:
        return problem.domain_hint
    statement = problem.statement.lower()
    scores: dict[str, int] = {}
    for domain, sop in registry.sops.items():
        score = sum(1 for w in sop.keywords if w in statement)
        if score:
            scores[domain] = score
    if scores:
        return min(scores, key=lambda domain: (-scores[domain], domain))
    return DEFAULT_DOMAIN
