"""Fine-grained reflection: per-category error taxonomy, verdict parsing,
and bounded revision of flagged nodes."""

from __future__ import annotations

import contextlib
import enum
import functools
import re
from typing import Callable, Optional

from . import backends, model, prompts
from .model import ActionCategory, AtomicAction, CheckReport, Node

MAX_REVISIONS = 2  # revision cycles per node before accept-with-flag


class ErrorKind(enum.Enum):
    CONTENT_CONFLICT = "ContentConflict"
    LOGICAL_CONTRADICTION = "LogicalContradiction"
    EXPRESSION_INCONSISTENCY = "ExpressionInconsistency"
    CALCULATION_ERROR = "CalculationError"
    COMMON_SENSE_ERROR = "CommonSenseError"
    RECAPITULATION_ERROR = "RecapitulationError"
    IGNORING_OF_PREMISES = "IgnoringOfPremises"
    MISUSING_OF_PREMISES = "MisusingOfPremises"
    CONCLUSION_ERROR = "ConclusionError"
    RESULT_OMISSION = "ResultOmission"
    RESULTS_INCONSISTENCY = "ResultsInconsistency"
    JUDGMENT_ERROR = "JudgmentError"
    SORTING_ERROR = "SortingError"


# Fallback kind when the checker reports an error without a recognizable tag.
_CATEGORY_DEFAULT = {
    ActionCategory.PREMISE: ErrorKind.CONTENT_CONFLICT,
    ActionCategory.REASONING: ErrorKind.CONCLUSION_ERROR,
    ActionCategory.ENDING: ErrorKind.JUDGMENT_ERROR,
}

# Each category's error kinds, in prompt order, with the definition and
# suggested checking method the checker prompt carries for that category.
_TAXONOMY = {
    ActionCategory.PREMISE: (
        (ErrorKind.CONTENT_CONFLICT, (
            "Content Conflict: extracted premise information directly conflicts with "
            "the original statement. Compare every stated premise against the original "
            "question and flag any discrepancy."
        )),
        (ErrorKind.LOGICAL_CONTRADICTION, (
            "Logical Contradiction: information in one step is inconsistent with or "
            "does not follow from earlier steps. Verify each step sequentially against "
            "its premises, checking conditional branches individually."
        )),
        (ErrorKind.EXPRESSION_INCONSISTENCY, (
            "Expression Inconsistency: expressions or equations are rewritten "
            "inconsistently across steps. Compare adjacent steps, verify substitutions, "
            "and keep symbols, units, and values consistent."
        )),
    ),
    ActionCategory.REASONING: (
        (ErrorKind.CALCULATION_ERROR, (
            "Calculation Error: miscalculation or transcription mistakes between "
            "consecutive equations. Recompute each step and confirm intermediate results "
            "carry over correctly."
        )),
        (ErrorKind.COMMON_SENSE_ERROR, (
            "Common Sense Error: claims that violate basic common knowledge, such as "
            "wrong numerical comparisons or unrealistic assertions. Check conclusions "
            "against fundamental facts."
        )),
        (ErrorKind.RECAPITULATION_ERROR, (
            "Recapitulation Error: an idea is redundantly repeated or restated. Look "
            "for repetitive statements within the reasoning."
        )),
        (ErrorKind.IGNORING_OF_PREMISES, (
            "Ignoring of Premises: a constraint or scenario from the premises is "
            "neglected. Confirm every premise constraint was actually applied."
        )),
        (ErrorKind.MISUSING_OF_PREMISES, (
            "Misusing of Premises: a statement deviates from the premises by confusing "
            "references or altering given information. Compare each statement directly "
            "with the premises."
        )),
        (ErrorKind.CONCLUSION_ERROR, (
            "Conclusion Error: a conclusion is not logically derived from the prior "
            "steps or conflicts with a premise. Map each conclusion back to its "
            "supporting evidence."
        )),
    ),
    ActionCategory.ENDING: (
        (ErrorKind.RESULT_OMISSION, (
            "Result Omission: a required outcome is missing from the final step. Check "
            "that all necessary conclusions are explicitly stated."
        )),
        (ErrorKind.RESULTS_INCONSISTENCY, (
            "Results Inconsistency: the outcome is stated differently in different "
            "places. Compare all statements of the result across the process."
        )),
        (ErrorKind.JUDGMENT_ERROR, (
            "Judgment Error: the final step reaches a conclusion conflicting with the "
            "established logic. Ensure the final judgment follows from the preceding "
            "reasoning without abrupt shifts."
        )),
        (ErrorKind.SORTING_ERROR, (
            "Sorting Error: the final output sequence deviates from the ordering "
            "established during intermediate steps. Re-sort explicitly and cross-verify "
            "positional claims against the re-sorted sequence."
        )),
    ),
}


def applicable_errors(action: AtomicAction) -> list[ErrorKind]:
    """Error kinds applicable to a node, keyed by its action category."""
    return [kind for kind, _ in _TAXONOMY[model.category(action)]]


def error_definitions(action: AtomicAction) -> str:
    """The numbered definitions of the error kinds that apply to ``action``."""
    return _category_definitions(model.category(action))


@functools.cache
def _category_definitions(cat: ActionCategory) -> str:
    return "\n\n".join(
        f"{i}. **{_human_name(kind)}**:\n   {definition}"
        for i, (kind, definition) in enumerate(_TAXONOMY[cat], start=1)
    )


def _human_name(kind: ErrorKind) -> str:
    return re.sub(r"(?<!^)([A-Z])", r" \1", kind.value)


def _normalize_kind_token(token: str) -> str:
    return re.sub(r"[^a-z]", "", token.lower()).rstrip("s")


_KIND_LOOKUP = {}
for _kind in ErrorKind:
    _KIND_LOOKUP[_normalize_kind_token(_kind.value)] = _kind
    _KIND_LOOKUP[_normalize_kind_token(_human_name(_kind))] = _kind
# A plural seen in the wild that dropping a trailing "s" does not reduce to its kind.
_KIND_LOOKUP[_normalize_kind_token("Expression Inconsistencies")] = ErrorKind.EXPRESSION_INCONSISTENCY

# Each field's pattern compiled IGNORECASE for any reply, and as is for the
# lowered copy of an ASCII reply: that scan is several times cheaper, and
# lowering ASCII keeps every offset, so values are sliced from the original.
# A value is the rest of the separator's own line (``[^\S\n]`` is whitespace
# other than a newline); a blank value is no value.
def _field(name: str) -> tuple[re.Pattern, re.Pattern]:
    source = rf"{name}\**\s*[:\-][^\S\n]*(\S.*)"
    return re.compile(source, re.IGNORECASE), re.compile(source)


_RESULT_LINE = _field(r"check\s+result")
_TYPE_LINE = _field(r"error\s+type")
_SUGGESTION_LINE = _field("suggestion")

# The prose scan's token for each kind of a category.
_PROSE_TOKENS = {
    cat: [(kind, _normalize_kind_token(_human_name(kind))) for kind, _ in entries]
    for cat, entries in _TAXONOMY.items()
}


def _values(field: tuple[re.Pattern, re.Pattern], text: str, lower: Optional[str]) -> list[str]:
    """Group 1 of each ``field`` match in ``text``; ``lower`` is the lowered
    copy of an ASCII ``text``, or None."""
    if lower is None:
        return [match.group(1) for match in field[0].finditer(text)]
    return [text[match.start(1) : match.end(1)] for match in field[1].finditer(lower)]


def parse_check_response(text: str, action: AtomicAction) -> Optional[CheckReport]:
    """Parse a checker response; None when no verdict line is present."""
    lower = text.lower() if text.isascii() else None
    verdicts = _values(_RESULT_LINE, text, lower)
    if not verdicts:
        return None
    verdict_text = verdicts[-1].strip().strip("*. ").lower()
    if verdict_text.startswith("no error"):
        return CheckReport(verdict="NoError", rationale=text.strip())

    # Explicit "Error Type:" tags are trusted across the whole taxonomy: a
    # checker may legitimately flag, say, a sorting problem while reviewing a
    # verification step.  The looser prose scan below stays restricted to the
    # action's own category.
    kinds: list[ErrorKind] = []
    for value in _values(_TYPE_LINE, text, lower):
        kind = _KIND_LOOKUP.get(_normalize_kind_token(value.strip().strip("*.")))
        if kind is not None and kind not in kinds:
            kinds.append(kind)
    cat = model.category(action)
    if not kinds:
        # Scan prose for any applicable kind name.
        body = _normalize_kind_token(text)
        kinds = [kind for kind, token in _PROSE_TOKENS[cat] if token in body]
    if not kinds:
        kinds = [_CATEGORY_DEFAULT[cat]]

    suggestions = _values(_SUGGESTION_LINE, text, lower)
    return CheckReport(
        verdict="Error",
        kinds=[k.value for k in sorted(kinds, key=lambda k: k.value)],
        rationale=text.strip(),
        suggestion=suggestions[-1].strip() if suggestions else None,
    )


def check(tree: model.AtomicTree, node: Node, backend) -> CheckReport:
    """One checker pass over a node.  Fail-open: unparseable output after one
    re-ask yields a NoError report with rationale 'unparseable'."""
    request = prompts.build_checker_prompt(tree, node, error_definitions(node.action))
    report = backends.ask(backend, request, lambda text: parse_check_response(text, node.action))
    if report is None:
        report = CheckReport(verdict="NoError", rationale="unparseable")
    node.check_reports.append(report)
    return report


def revise(tree: model.AtomicTree, node: Node, report: CheckReport, backend) -> Node:
    """Rewrite a node's content from a checker error report (in place)."""
    if not report.is_error:
        raise ValueError("revise requires an Error report")
    request = prompts.build_revision_prompt(node.content, report)
    node.content = backends.ask_text(backend, request)
    node.revised = True
    return node


def run_check_cycle(
    tree: model.AtomicTree,
    node: Node,
    backend,
    during: Optional[Callable[[int], contextlib.AbstractContextManager]] = None,
) -> Node:
    """check -> revise loop, bounded: after MAX_REVISIONS revisions a still-
    erroring node is accepted with its flag set.  Checks are tagged ``check``
    and revisions ``solve``, so one backend serves both roles.

    ``during(revisions)``, when given, returns the context manager each check
    runs in, ``revisions`` being the revisions made so far (0 for the first
    check); the session uses it to send the next routing request meanwhile."""
    revisions = 0
    while True:
        with during(revisions) if during else contextlib.nullcontext():
            report = check(tree, node, backend)
        if not report.is_error:
            return node
        if revisions >= MAX_REVISIONS:
            node.flagged = True
            return node
        revise(tree, node, report, backend)
        revisions += 1

