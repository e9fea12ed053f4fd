"""Differential tests: each reply parser against a verbatim copy of the
version it replaced.

The copies below are the straightforward regex scans the engine used before
its parsers read an ASCII reply's lowered copy or walk lines from the end.
The routing copies carry the line rule: a field's value is the rest of its
own line, never the next line.  Every copy also reads a bold field name
(``**NAME**:``, ``NAME**:``), as the engine does.  Inputs are the checker
corpus plus seeded fuzz: field lines at random positions, mixed case, ``*``
markup around names and values, empty values, CRLF line ends and non-ASCII
text whose lowered form changes length or which matches ASCII letters
case-insensitively (``İ``, ``ſ``, ``K``).
"""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from atomic_reasoner import answers, checker, model, router
from atomic_reasoner.backends import ScriptedBackend
from atomic_reasoner.errors import UnknownAction
from atomic_reasoner.model import AtomicAction, CheckReport, FreeText, GridSchema, Problem
from atomic_reasoner.router import BacktrackReason, RoutingProposal

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "checker_corpus.json").read_text(encoding="utf-8")
)

# --- the reference copies ----------------------------------------------------------


def _reference_parse_action(name):
    cleaned = name.strip()
    for action in AtomicAction:
        if cleaned.lower() == action.value.lower():
            return action
        # Accept snake_case spellings used by SOP files.
        if cleaned.lower().replace("_", "") == action.value.lower():
            return action
    raise UnknownAction(f"unknown atomic action: {name!r}")


_REF_RESULT_LINE = re.compile(r"check\s+result\**\s*[:\-][^\S\n]*(\S.*)", re.IGNORECASE)
_REF_TYPE_LINE = re.compile(r"error\s+type\**\s*[:\-][^\S\n]*(\S.*)", re.IGNORECASE)
_REF_SUGGESTION_LINE = re.compile(r"suggestion\**\s*[:\-][^\S\n]*(\S.*)", re.IGNORECASE)


def _reference_parse_check_response(text, action):
    verdict_match = None
    for match in _REF_RESULT_LINE.finditer(text):
        verdict_match = match
    if verdict_match is None:
        return None
    verdict_text = verdict_match.group(1).strip().strip("*. ").lower()
    if verdict_text.startswith("no error"):
        return CheckReport(verdict="NoError", rationale=text.strip())

    allowed = set(checker.applicable_errors(action))
    kinds = []
    for match in _REF_TYPE_LINE.finditer(text):
        token = checker._normalize_kind_token(match.group(1).strip().strip("*."))
        kind = checker._KIND_LOOKUP.get(token)
        if kind is not None and kind not in kinds:
            kinds.append(kind)
    if not kinds:
        body = checker._normalize_kind_token(text)
        for kind in allowed:
            if checker._normalize_kind_token(checker._human_name(kind)) in body:
                kinds.append(kind)
    if not kinds:
        kinds = [checker._CATEGORY_DEFAULT[model.category(action)]]

    suggestion = None
    for match in _REF_SUGGESTION_LINE.finditer(text):
        suggestion = match.group(1).strip()
    return CheckReport(
        verdict="Error",
        kinds=[k.value for k in sorted(kinds, key=lambda k: k.value)],
        rationale=text.strip(),
        suggestion=suggestion,
    )


_REF_ACTION_LINE = re.compile(
    r"^[^\S\n]*\**ACTION\**[^\S\n]*[:\-][^\S\n]*(.*?)[^\S\n]*\**$", re.IGNORECASE | re.MULTILINE
)
_REF_GUIDANCE_LINE = re.compile(
    r"^[^\S\n]*\**GUIDANCE\**[^\S\n]*[:\-][^\S\n]*(.*?)[^\S\n]*$", re.IGNORECASE | re.MULTILINE
)
_REF_TARGET_LINE = re.compile(
    r"^[^\S\n]*\**TARGET\**[^\S\n]*[:\-][^\S\n]*\**[^\S\n]*(?:Step[^\S\n]*)?(\d+)[^\S\n]*\**[^\S\n]*$",
    re.IGNORECASE | re.MULTILINE,
)
_REF_REASON_LINE = re.compile(
    r"^[^\S\n]*\**REASON\**[^\S\n]*[:\-][^\S\n]*(.*?)[^\S\n]*\**$", re.IGNORECASE | re.MULTILINE
)


def _reference_parse_guidance_only(text):
    matches = list(_REF_GUIDANCE_LINE.finditer(text))
    if matches:
        return matches[-1].group(1).strip().strip("*").strip() or None
    return None


def _reference_parse_routing_response(text):
    matches = list(_REF_ACTION_LINE.finditer(text))
    if not matches:
        return None
    raw_action = matches[-1].group(1).strip().strip("*").strip()
    guidance = _reference_parse_guidance_only(text) or ""

    normalized = raw_action.upper().replace(" ", "")
    if "SUMMARY<FINISHED>" in normalized or "SUMMARYFINISHED" in normalized:
        return RoutingProposal(kind="finish", action=AtomicAction.SUMMARY_FINISHED, guidance=guidance)
    if normalized.startswith("TERMINATE"):
        return RoutingProposal(kind="terminate", guidance=guidance)
    if normalized.startswith("BACKTRACK"):
        return RoutingProposal(kind="backtrack", guidance=guidance)
    try:
        action = _reference_parse_action(raw_action)
    except UnknownAction:
        return None
    if action is AtomicAction.SUMMARY_FINISHED:
        return RoutingProposal(kind="finish", action=action, guidance=guidance)
    return RoutingProposal(kind="extend", action=action, guidance=guidance)


def _reference_parse_target(text, path):
    target_match = list(_REF_TARGET_LINE.finditer(text))
    if not target_match:
        return None
    step = int(target_match[-1].group(1))
    if not 1 <= step <= len(path):
        return None
    reason = BacktrackReason.KEY_NODE
    reason_match = list(_REF_REASON_LINE.finditer(text))
    if reason_match:
        token = re.sub(r"[^a-z]", "", reason_match[-1].group(1).lower())
        for candidate in BacktrackReason:
            if re.sub(r"[^a-z]", "", candidate.value.lower()) == token:
                reason = candidate
                break
    return path[step - 1].id, reason


def _reference_normalize_token(token):
    return re.sub(r"[\s\-]+", " ", token.strip().lower())


_SOLUTION_MARKER = re.compile("[sS][oO][lL][uU][tT][iI][oO][nN]:")


def _reference_parse_grid(text, schema):
    grid = {
        house: {attr: None for attr in schema.attribute_names}
        for house in range(1, schema.houses + 1)
    }
    # The last "solution:" spelt in ASCII letters of either case that no
    # letter precedes, found in ``text`` itself: no index from a transformed
    # copy.
    ends = [
        marker.end()
        for marker in _SOLUTION_MARKER.finditer(text)
        if not text[marker.start() - 1 : marker.start()].isalpha()
    ]
    if not ends:
        return grid
    block = text[ends[-1]:]

    vocab = {
        attr: {_reference_normalize_token(v): v for v in values}
        for attr, values in schema.attributes
    }
    attrs = schema.attribute_names

    line_re = re.compile(r"house\s*(\d+)\s*:\s*(.*)", re.IGNORECASE)
    for raw in block.splitlines():
        match = line_re.search(raw.strip().lstrip("-* ").strip())
        if not match:
            continue
        house = int(match.group(1))
        if house not in grid:
            continue
        rest = match.group(2).strip()
        paren = re.search(r"\(([^)]*)\)", rest)
        leading = rest[: paren.start()].strip() if paren else rest
        tokens = [leading] if leading else []
        if paren:
            tokens += [t.strip() for t in paren.group(1).split(",")]
        for attr, token in zip(attrs, tokens):
            hit = vocab[attr].get(_reference_normalize_token(token))
            if hit is not None:
                grid[house][attr] = hit
    return grid


_REF_BOXED = re.compile(r"\\boxed\{([^{}]*)\}")
_REF_DIGITS = r"(?:\d{1,3}(?:,\d{3})+|\d+)"
_REF_OPERAND = rf"{_REF_DIGITS}(?:\.\d+)?(?:[eE][+\-]?\d+)?"
_REF_MAGNITUDE = rf"{_REF_OPERAND}(?:/{_REF_OPERAND})?"
_REF_NUMBER = re.compile(rf"-?\+?{_REF_MAGNITUDE}")


def _reference_normalize_numeric(text):
    candidate = text.strip().replace("\u2212", "-")
    boxed = _REF_BOXED.findall(candidate)
    if boxed:
        candidate = boxed[-1].strip()
    else:
        numbers = _REF_NUMBER.findall(candidate)
        if candidate and _REF_NUMBER.fullmatch(candidate):
            numbers = [candidate]
        if not numbers:
            return None
        candidate = numbers[-1]
    candidate = re.sub(r"^(-?)\++", r"\1", candidate).strip()
    if _REF_NUMBER.fullmatch(candidate):
        candidate = candidate.replace(",", "")
    value = _reference_parse_rational(candidate)
    return None if value is None else str(value)  # "7/2", or "4" for 4/1


def _reference_parse_rational(text):
    try:
        numerator, denominator = text.split("/") if "/" in text else (text, "1")
        return Fraction(numerator) / Fraction(denominator)
    except (ValueError, ZeroDivisionError):
        return None


# --- fuzz ---------------------------------------------------------------------------

# Each key with values that suit it; two lines in five take a value of any key.
_FIELDS = {
    "ACTION": (
        "PremiseDiscovery", "premise_discovery", "Hypothesis Generation", "hypothesisverification",
        "SUMMARY<FINISHED>", "Summary Finished", "TERMINATE", "Backtrack now", "Foo",
        "PremiseDİscovery",
    ),
    "GUIDANCE": ("Extract the clues.", "**go**", "check clue 3", "Δ ünïcode", "İstanbul"),
    "TARGET": ("Step 3", "step4", "2", "0", "9", "Step  1", "Step\n2"),
    "REASON": ("IncorrectContent", "key node", "Unexplored-Branch", "ſomething"),
    "Check Result": ("No error.", "no error", "There is an error", "**Error**", "Error"),
    "Check  Result": ("No error", "error"),
    "Error Type": (
        "Sorting Error", "Calculation Errors", "ContentConflict", "Judgment error.", "ſorting error",
        "Kelvin K", "unknown",
    ),
    "Suggestion": ("re-check clue 3", "Re-sort the houses.", "İ", ""),
}
_EMPTY = ("", "  ", "*", "**")
_VALUES = tuple(value for values in _FIELDS.values() for value in values) + _EMPTY
_PROSE = (
    "Let me think about the clues.", "The action here is subtle.", "guidance follows below",
    "no error in step 2", "check result pending", "a sorting error in the ordering",
    "clue 4 links Alice", "ſ ı İ K", "é à ü", "Expression inconsistencies abound.",
    "Conclusion errors: none", "", " ", "***", "İİİİİİ İstanbul İzmir",
)


def _mixed_case(rng, word):
    return "".join(c.upper() if rng.random() < 0.5 else c.lower() for c in word)


def _field_line(rng):
    key = rng.choice(list(_FIELDS))
    value = rng.choice(_FIELDS[key] if rng.random() < 0.6 else _VALUES)
    if rng.random() < 0.5:
        key = _mixed_case(rng, key)
    line = (
        rng.choice(("", " ", "\t", "*", "**", " ** ", "- "))
        + key
        + rng.choice(("", "", "**", "*"))
        + rng.choice((":", ":", " :", "-", ": ", ":\t", "：", ":\n"))
        + rng.choice(("", " ", "  ", "*", "** "))
        + value
        + rng.choice(("", " ", "**", "* *", " **", "*.", "\r", " \t"))
    )
    if rng.random() < 0.15:
        line = rng.choice(_PROSE) + " " + line
    return line


def _fuzz_text(rng):
    lines = [
        _field_line(rng) if rng.random() < 0.5 else rng.choice(_PROSE)
        for _ in range(rng.randrange(0, 9))
    ]
    text = rng.choice(("\n", "\n", "\r\n", "\n\n")).join(lines)
    return text + rng.choice(("", "", "\n", " ", "\n  \n"))


def _fuzz_texts(seed, count=3000):
    rng = random.Random(seed)
    texts = [item["text"] for item in CORPUS]
    texts += [_fuzz_text(rng) for _ in range(count)]
    return texts


def test_fuzz_covers_both_reply_kinds():
    texts = _fuzz_texts(1)
    assert sum(not text.isascii() for text in texts) > 300
    assert sum(text.isascii() for text in texts) > 300
    assert sum(_reference_parse_routing_response(text) is not None for text in texts) > 100
    assert sum(_reference_parse_guidance_only(text) is not None for text in texts) > 100
    assert sum(_reference_parse_check_response(text, AtomicAction.PREMISE_DISCOVERY) is not None
               for text in texts) > 300


# --- the differential tests ------------------------------------------------------------


@pytest.mark.parametrize("action", list(AtomicAction))
def test_parse_check_response_matches_reference(action):
    for text in _fuzz_texts(11):
        assert checker.parse_check_response(text, action) == _reference_parse_check_response(
            text, action
        ), text


def test_parse_routing_response_matches_reference():
    for text in _fuzz_texts(12):
        assert router.parse_routing_response(text) == _reference_parse_routing_response(text), text


def test_parse_guidance_only_matches_reference():
    for text in _fuzz_texts(13):
        assert router.parse_guidance_only(text) == _reference_parse_guidance_only(text), text


def test_backtrack_target_matches_reference():
    tree = model.new_tree(Problem(id="p", statement="A puzzle.", answer_schema=FreeText()))
    for content in ("premises", "more premises", "a summary", "another", "last"):
        model.append_node(tree, AtomicAction.PREMISE_RETRIEVAL, "g", content)
    path = model.active_path(tree)
    # An unparseable first reply is re-asked once; the second reply always parses.
    second = "TARGET: 1\nREASON: UnexploredBranch"
    for text in _fuzz_texts(14, count=1500):
        backend = ScriptedBackend({"routing": [text, second]})
        expected = _reference_parse_target(text, path) or (path[0].id, BacktrackReason.UNEXPLORED_BRANCH)
        assert router.select_backtrack_target(tree, backend) == expected, text


def test_parse_action_matches_reference():
    rng = random.Random(15)
    names = [a.value for a in AtomicAction] + ["premise_discovery", "SUMMARY_FINISHED", "Foo", ""]
    for _ in range(3000):
        name = _mixed_case(rng, rng.choice(names))
        if rng.random() < 0.3:
            at = rng.randrange(len(name) + 1)
            name = name[:at] + rng.choice(("_", "__", " ", "İ", "ſ", "-")) + name[at:]
        name = rng.choice(("", " ", "\t")) + name + rng.choice(("", " ", "\n"))
        try:
            expected = _reference_parse_action(name)
        except UnknownAction:
            with pytest.raises(UnknownAction):
                model.parse_action(name)
        else:
            assert model.parse_action(name) is expected, name


def _grid_text(rng, schema):
    lines = [rng.choice(_PROSE)]
    if rng.random() < 0.9:
        lines.append(
            rng.choice(("Solution:", "solution:", "SOLUTION:", "Solution", "Final solution: ", "**Solution:**"))
        )
    for _ in range(rng.randrange(0, schema.houses + 3)):
        cells = []
        for _, values in schema.attributes:
            value = rng.choice(values + ("unknown", ""))
            if rng.random() < 0.3:
                value = _mixed_case(rng, value).replace(" ", rng.choice((" ", "-", "  ", " - ")))
            cells.append(value)
        rest = cells[0] + (f" ({', '.join(cells[1:])})" if rng.random() < 0.8 else " " + ", ".join(cells[1:]))
        lines.append(
            rng.choice(("", "- ", "* ", "  ", "**"))
            + rng.choice(("House", "house", "HOUSE", "Haus"))
            + rng.choice((" ", "", "  "))
            + str(rng.randrange(0, schema.houses + 2))
            + rng.choice((":", " :", ": ", "-"))
            + " "
            + rest
        )
    if rng.random() < 0.3:
        lines.insert(
            rng.randrange(len(lines) + 1),
            rng.choice(("Conflict resolution: none.", "resolution:", "Résolution: aucune.", "Dissolution:")),
        )
    return rng.choice(("\n", "\r\n")).join(lines)


def test_parse_grid_matches_reference():
    rng = random.Random(16)
    schemas = [
        GridSchema(
            houses=3,
            attributes=(
                ("name", ("Arnold", "Eric", "Peter")),
                ("lunch", ("grilled cheese", "pizza", "spaghetti")),
            ),
        ),
        GridSchema(
            houses=4,
            attributes=(
                ("name", ("Alice", "Bob", "Carol", "Dave")),
                ("genre", ("science fiction", "mystery", "biography", "romance")),
                ("smoothie", ("cherry", "lime", "water-melon", "banana")),
            ),
        ),
        GridSchema(houses=2, attributes=(("pet", ("cat", "dog")),)),
    ]
    for _ in range(3000):
        schema = rng.choice(schemas)
        text = _grid_text(rng, schema)
        assert answers.parse_grid(text, schema) == _reference_parse_grid(text, schema), text


def _operand(rng):
    digits = rng.choice((
        str(rng.randrange(10)),
        str(rng.randrange(10**6)),
        f"{rng.randrange(1, 1000)},{rng.randrange(1000):03d}",
        f"{rng.randrange(1, 1000)},{rng.randrange(1000):03d},{rng.randrange(1000):03d}",
        f"{rng.randrange(1, 100)},{rng.randrange(100)}",  # no thousands group
        "0" * rng.randrange(1, 4) + str(rng.randrange(100)),
    ))
    if rng.random() < 0.4:
        digits += "." + str(rng.randrange(10**rng.randrange(1, 5))).rjust(rng.randrange(1, 4), "0")
    if rng.random() < 0.3:
        digits += rng.choice("eE") + rng.choice(("", "+", "-")) + str(rng.randrange(401))
    return digits


def _number_text(rng):
    number = _operand(rng)
    if rng.random() < 0.3:
        number += rng.choice(("/", "/", " / ")) + rng.choice((_operand(rng), "0", "0.0"))
    sign = rng.choice(("", "", "-", "+", "-+", "+-", "\u2212", "--", "++"))
    return sign + number


def _numeric_text(rng):
    parts = []
    for _ in range(rng.randrange(0, 4)):
        kind = rng.random()
        if kind < 0.35:
            parts.append(_number_text(rng))
        elif kind < 0.6:
            inner = rng.choice((_number_text(rng), " " + _number_text(rng) + " ", "x 5", "1 000", "abc", "", "1/2/3"))
            parts.append("\\boxed{" + inner + "}")
        else:
            parts.append(rng.choice(_PROSE + ("the total is", "so x =", "apples,", "step 3:", "{}", "\\boxed{")))
    text = rng.choice((" ", "  ", ", ", "\n", "")).join(parts)
    return rng.choice(("", " ", "\n")) + text + rng.choice(("", ".", " ", "\n", "$"))


def test_read_number_matches_reference():
    rng = random.Random(17)
    texts = [_numeric_text(rng) for _ in range(4000)]
    read = 0
    for text in texts:
        expected = _reference_normalize_numeric(text)
        value = answers.read_number(text)
        if expected is None:
            assert value is None, text
        else:
            assert str(value) == expected, text
            read += 1
    # the fuzz reaches numbers and non-numbers alike
    assert 1000 < read < 3500
