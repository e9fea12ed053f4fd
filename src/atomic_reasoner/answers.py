"""The final-answer format and its one reader.

``format_instruction`` is the format every final-answer prompt asks for, and
``extract`` reads what a text states under it; the parsers below it return
``None`` / empty structures instead of raising, so reading a reply never
fails.  ``is_complete`` (does the checked ending step hold the whole answer?)
and ``bench.score`` (is it the gold answer?) both judge what ``extract``
read, and a session that read its answer hands it on
(``executor.FinalAnswer.answer``), so a trial reads its answer once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .model import FreeText, GridSchema, MultipleChoice, Numeric

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
    attrs = schema.attribute_names
    grid: dict[int, dict[str, Optional[str]]] = {
        house: dict.fromkeys(attrs) for house in range(1, schema.houses + 1)
    }
    # The last "solution:" in any ASCII case that no letter precedes
    # ("Final solution:", "**Solution:**"; not "resolution:").  The encoded
    # copy has one byte per character, so its index is one into ``text``;
    # ``text.lower()`` can be longer ("İ" lowers to two characters).
    lowered = text.encode("ascii", "replace").lower()
    idx = lowered.rfind(b"solution:")
    while idx > 0 and text[idx - 1].isalpha():
        idx = lowered.rfind(b"solution:", 0, idx)
    if idx < 0:
        return grid
    block = text[idx + len("solution:"):]

    vocab = _vocabulary(schema)

    # casefold() maps each character _HOUSE_LINE takes for a letter of
    # "house" to that letter, so a line whose folded copy lacks "house"
    # cannot match and is skipped unparsed (a verbose ending step is mostly
    # such lines).
    for raw, folded in zip(block.splitlines(), block.casefold().splitlines()):
        if "house" not in folded:
            continue
        match = _HOUSE_LINE.search(raw.strip().lstrip("-* ").strip())
        if not match:
            continue
        try:
            house = int(match.group(1))
        except ValueError:  # too long for int(): names no house
            continue
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
# Digits, read as one number when grouped by thousands ("1,000"), then an
# optional decimal part and exponent ("2.5e-3"); a magnitude is such an
# operand or a ratio of two ("7.5/2").
_DIGITS = r"(?:\d{1,3}(?:,\d{3})+|\d+)"
_OPERAND = rf"{_DIGITS}(?:\.\d+)?(?:[eE][+\-]?\d+)?"
_MAGNITUDE = rf"{_OPERAND}(?:/{_OPERAND})?"
# A sign is "-", "+" or "-+", which reads as "-".
_NUMBER = re.compile(rf"-?\+?{_MAGNITUDE}")
# An exponent as ``Fraction`` reads it, once "_" groupings are dropped.  One
# past MAX_EXPONENT, in either direction, states no number: its power of ten
# would take longer to build than any reply is worth.
_EXPONENT = re.compile(r"[eE][+\-]?0*(\d+)")
MAX_EXPONENT = 4300


def read_number(text: str) -> Optional[Fraction]:
    """The number ``text`` states, as an exact rational: the last
    ``\\boxed{...}``, else the last number, with U+2212 read as '-' and a
    leading '+' and thousands separators dropped; a ratio is the quotient of
    its two parts.  None when nothing numeric is present, a box included
    (``\\boxed{x 5}`` states no number), and past MAX_EXPONENT."""
    candidate = text.replace("\u2212", "-")
    boxed = _BOXED.findall(candidate)
    if boxed:
        candidate = boxed[-1].strip()
    else:
        numbers = _NUMBER.findall(candidate)
        if not numbers:
            return None
        candidate = numbers[-1]
    candidate = re.sub(r"^(-?)\++", r"\1", candidate).strip()
    if _NUMBER.fullmatch(candidate):
        candidate = candidate.replace(",", "")
    exponents = _EXPONENT.findall(candidate.replace("_", ""))
    if any(len(exp) > 4 or int(exp) > MAX_EXPONENT for exp in exponents):  # no int() of a long one
        return None
    try:
        numerator, denominator = candidate.split("/") if "/" in candidate else (candidate, "1")
        return Fraction(numerator) / Fraction(denominator)
    except (ValueError, ZeroDivisionError):
        return None


def format_instruction(schema) -> str:
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


def extract(schema, text: str):
    """What the final-answer ``text`` states under ``schema``: the option
    letter (mcq), the grid with ``None`` in each cell that does not parse,
    the number as a ``Fraction`` (numeric) or the stripped text (free text).
    None when no letter or number is found."""
    if isinstance(schema, MultipleChoice):
        return extract_mcq(text, option_letters(schema))
    if isinstance(schema, GridSchema):
        return parse_grid(text, schema)
    if isinstance(schema, Numeric):
        return read_number(text)
    return text.strip()


def is_complete(schema, answer) -> bool:
    """Whether ``answer``, what ``extract`` read under ``schema``, is a whole
    answer: every grid cell, the option letter or the number is there.  Free
    text is never complete."""
    if isinstance(schema, FreeText):
        return False
    if isinstance(schema, GridSchema):
        return all(None not in cells.values() for cells in answer.values())
    return answer is not None
