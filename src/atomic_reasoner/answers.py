"""Answer extraction and normalization for final-answer text.

These parsers are total: they return ``None`` / empty structures instead of
raising, so scoring can always proceed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .model import GridSchema, MultipleChoice

# "The correct answer is (A)", tolerating bold markers and missing parens.
_MCQ_PATTERN = re.compile(
    r"the\s+correct\s+answer\s+is\s*[:\s]*\**\(?\**([A-Za-z])\**\)?\**",
    re.IGNORECASE,
)
_PAREN_LETTER = re.compile(r"\(([A-Za-z])\)")
_OPTION_LABEL = re.compile(r"\s*\(?([A-Za-z])\)?")
_SEPARATORS = re.compile(r"[\s\-]+")
_HOUSE_LINE = re.compile(r"house\s*(\d+)\s*:\s*(.*)", re.IGNORECASE)
_PARENTHESIZED = re.compile(r"\(([^)]*)\)")


def option_letters(schema: MultipleChoice) -> list[str]:
    """Option labels: the leading letter of each option entry."""
    letters = []
    for opt in schema.options:
        match = _OPTION_LABEL.match(opt)
        letters.append(match.group(1).upper() if match else opt[:1].upper())
    return letters


def extract_mcq(text: str, options: list[str]) -> Optional[str]:
    """Last 'The correct answer is (X)' occurrence; fallback to the last
    standalone parenthesized option letter."""
    if not options:
        raise ValueError("options must be non-empty")
    valid = {o.upper() for o in options}
    hits = [m.group(1).upper() for m in _MCQ_PATTERN.finditer(text)]
    for letter in reversed(hits):
        if letter in valid:
            return letter
    fallback = [m.group(1).upper() for m in _PAREN_LETTER.finditer(text)]
    for letter in reversed(fallback):
        if letter in valid:
            return letter
    return None


def _normalize_token(token: str) -> str:
    return _SEPARATORS.sub(" ", token.strip().lower())


@lru_cache(maxsize=64)
def _vocabulary(schema: GridSchema) -> dict[str, dict[str, str]]:
    """Each attribute's values keyed by their normalized token; shared, never updated."""
    return {attr: {_normalize_token(v): v for v in values} for attr, values in schema.attributes}


def parse_grid(text: str, schema: GridSchema) -> dict[int, dict[str, Optional[str]]]:
    """Parse the final 'Solution:' block into house -> attribute -> value.

    Values match the schema vocabulary case-insensitively with whitespace and
    hyphen normalization; anything else stays missing.  Line format follows
    the transcripts: ``House 1: Peter (mystery, spaghetti, watermelon)`` with
    the parenthesized values in schema attribute order after the first.
    """
    grid: dict[int, dict[str, Optional[str]]] = {
        house: {attr: None for attr in schema.attribute_names}
        for house in range(1, schema.houses + 1)
    }
    idx = text.lower().rfind("solution:")
    if idx < 0:
        return grid
    block = text[idx + len("solution:"):]

    vocab = _vocabulary(schema)
    attrs = schema.attribute_names

    for raw in block.splitlines():
        match = _HOUSE_LINE.search(raw.strip().lstrip("-* ").strip())
        if not match:
            continue
        house = int(match.group(1))
        if house not in grid:
            continue
        rest = match.group(2).strip()
        paren = _PARENTHESIZED.search(rest)
        leading = rest[: paren.start()].strip() if paren else rest
        tokens = [leading] if leading else []
        if paren:
            tokens += [t.strip() for t in paren.group(1).split(",")]
        for attr, token in zip(attrs, tokens):
            hit = vocab[attr].get(_normalize_token(token))
            if hit is not None:
                grid[house][attr] = hit
    return grid


def format_grid_answer(schema: GridSchema, grid: dict[int, dict[str, str]]) -> str:
    """Canonical 'Solution:' block for a full assignment (the inverse of
    parse_grid on complete grids)."""
    lines = ["Solution:"]
    attrs = schema.attribute_names
    for house in range(1, schema.houses + 1):
        cells = grid[house]
        first = cells[attrs[0]]
        rest = ", ".join(cells[a] for a in attrs[1:])
        if rest:
            lines.append(f"- House {house}: {first} ({rest})")
        else:
            lines.append(f"- House {house}: {first}")
    return "\n".join(lines)


_BOXED = re.compile(r"\\boxed\{([^{}]*)\}")
_NUMBER = re.compile(r"-?\+?\d+(?:\.\d+)?(?:/\d+)?")
_WHOLE_NUMBER = re.compile(r"[+\-]?\d+(?:\.\d+)?(?:/\d+)?")


def normalize_numeric(text: str) -> Optional[str]:
    """Normalize a numeric answer: strip whitespace/boxed markers/leading '+',
    drop trailing zeros.  Returns None when nothing numeric is present."""
    candidate = text.strip()
    boxed = _BOXED.findall(candidate)
    if boxed:
        candidate = boxed[-1].strip()
    else:
        numbers = _NUMBER.findall(candidate)
        if candidate and _WHOLE_NUMBER.fullmatch(candidate):
            numbers = [candidate]
        if not numbers:
            return None
        candidate = numbers[-1]
    candidate = candidate.lstrip("+").strip()
    value = parse_rational(candidate)
    if value is None:
        return candidate or None
    if value.denominator == 1:
        return str(value.numerator)
    return str(value)


def parse_rational(text: str) -> Optional[Fraction]:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


def numeric_equal(left: str, right: str) -> bool:
    """Exact comparison, rational arithmetic where both sides parse."""
    lf, rf = parse_rational(left), parse_rational(right)
    if lf is not None and rf is not None:
        return lf == rf
    return left.strip() == right.strip()
