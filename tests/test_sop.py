import collections
import random
from typing import Optional

import pytest

from atomic_reasoner import sop
from atomic_reasoner.errors import MissingDefault, ParseError, UnknownAction
from atomic_reasoner.model import AtomicAction, FreeText, Problem, parse_action

SAMPLE = """\
[meta]
domain = chemistry

[schedule]
Balance equations before proposing yields.

[action:premise_discovery]
List all reagents and conditions.

[action:hypothesis_verification]
Re-derive each product from the balanced equation.
"""


def reference_parse_sop(text: str, source: str = "<string>") -> sop.Sop:
    """The one-pass parser ``sop.parse_sop`` replaced, kept as ground truth.
    It drops text before the first section, which ``parse_sop`` rejects."""
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
    return sop.Sop(
        domain=domain,
        action_strategies=strategies,
        scheduling_hints="\n".join(s for s in schedule_lines if s),
        keywords=keywords,
    )


# The line groups the differential test draws its texts from.
FUZZ_LINES = (
    ("[meta]", " [ meta ] ", "[schedule]", "[action:premise_discovery]", "[ action: Hypothesis_Verification ]"),
    ("[example]", "[Meta]", "[action:telepathy]", "[action:]", "[]", "[[meta]]", "[meta", "meta]", "[meta] #", "["),
    ("domain = chem", "domain=default", " domain = x y ", "domain =", "keywords = Reagent, titration ,, pH",
     "keywords = ,", "keywords=a=b", "keyword = x", "keywords: x", "= x", "Domain = x"),
    ("", "   ", "\t", "Balance equations first.", "step = s", "# a note", "x [y] z", "  indented text"),
)


def fuzz_text(rng: random.Random) -> str:
    """Up to ten lines drawn from ``FUZZ_LINES``; half the texts open with a
    good ``[meta]`` section, so that many of them parse."""
    lines = ["[meta]", "domain = chem"] if rng.random() < 0.5 else []
    lines += [rng.choice(rng.choice(FUZZ_LINES)) for _ in range(rng.randint(0, 8))]
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))


def stray_line(text: str) -> Optional[tuple[int, str]]:
    """The first non-blank line before the first section header, as (line
    number, stripped text), or None."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            return None
        if stripped:
            return line_no, stripped
    return None


def make_problem(statement, hint=None):
    return Problem(id="p", statement=statement, answer_schema=FreeText(), domain_hint=hint)


class TestParsing:
    def test_parse_sections(self):
        parsed = sop.parse_sop(SAMPLE)
        assert parsed.domain == "chemistry"
        assert "Balance equations" in parsed.scheduling_hints
        assert parsed.action_strategies[AtomicAction.PREMISE_DISCOVERY] == (
            "List all reagents and conditions."
        )

    def test_unknown_action_section_is_parse_error(self):
        bad = "[meta]\ndomain = x\n\n[action:telepathy]\nguess\n"
        with pytest.raises(ParseError) as excinfo:
            sop.parse_sop(bad, source="bad.sop")
        assert "bad.sop" in str(excinfo.value)

    def test_unknown_section_is_parse_error(self):
        with pytest.raises(ParseError):
            sop.parse_sop("[meta]\ndomain = x\n[wat]\n")

    def test_keywords_are_split_stripped_and_lowered(self):
        parsed = sop.parse_sop("[meta]\ndomain = x\nkeywords =  Reagent, titration ,, = ?,  pH\n")
        assert parsed.keywords == ("reagent", "titration", "= ?", "ph")
        assert sop.parse_sop(SAMPLE).keywords == ()

    def test_unknown_meta_key_is_parse_error(self):
        """A misspelt key fails loudly instead of leaving the SOP without keywords."""
        with pytest.raises(ParseError) as excinfo:
            sop.parse_sop("[meta]\ndomain = x\nkeyword = titration\n", source="bad.sop")
        message = str(excinfo.value)
        assert message.startswith("bad.sop:3:")
        assert "'keyword'" in message and "domain, keywords" in message

    def test_meta_line_without_equals_is_parse_error(self):
        """A colon for the '=' fails loudly instead of leaving the SOP without keywords."""
        with pytest.raises(ParseError) as excinfo:
            sop.parse_sop("[meta]\ndomain = x\nkeywords: titration\n", source="bad.sop")
        message = str(excinfo.value)
        assert message.startswith("bad.sop:3:")
        assert "'keywords: titration'" in message

    def test_missing_domain_is_parse_error(self):
        with pytest.raises(ParseError):
            sop.parse_sop("[schedule]\nhello\n")

    def test_example_section_is_parse_error(self):
        with pytest.raises(ParseError, match=r"unknown section \[example\]"):
            sop.parse_sop("[meta]\ndomain = x\n\n[example]\nproblem = p\nstep = s\n")

    def test_text_before_the_first_section_is_parse_error(self):
        """A keywords line above ``[meta]`` fails loudly instead of leaving the
        SOP without keywords."""
        with pytest.raises(ParseError) as excinfo:
            sop.parse_sop("\nkeywords = titration\n[meta]\ndomain = x\n", source="bad.sop")
        assert str(excinfo.value) == "bad.sop:2: text before the first section: 'keywords = titration'"

    def test_matches_the_reference_parser(self):
        """100,000 seeded texts give the reference's ``Sop`` or its
        ``ParseError`` (message, source and line), except those with text
        before the first section, which give that error at that line."""

        def outcome(parse, text):
            try:
                return parse(text, source="s.sop")
            except ParseError as exc:
                return exc.message, exc.source, exc.line

        kinds = ("text before", "unknown section", "unknown atomic action", "unknown [meta] key", "[meta] line", "missing")
        seen = collections.Counter()
        rng = random.Random(38)
        for _ in range(100_000):
            text = fuzz_text(rng)
            stray = stray_line(text)
            if stray is None:
                expected = outcome(reference_parse_sop, text)
            else:
                expected = (f"text before the first section: {stray[1]!r}", "s.sop", stray[0])
            result = outcome(sop.parse_sop, text)
            assert result == expected, text
            seen[next(k for k in kinds if result[0].startswith(k)) if isinstance(result, tuple) else "parsed"] += 1
        assert len(seen) == len(kinds) + 1 and min(seen.values()) > 1000, seen


class TestRegistry:
    def test_builtin_registry_has_default_and_domains(self):
        reg = sop.builtin_registry()
        assert sop.DEFAULT_DOMAIN in reg.sops
        assert "logical-reasoning" in reg.sops
        assert "science-problem" in reg.sops

    def test_unknown_domain_falls_back_to_default(self):
        reg = sop.builtin_registry()
        assert reg.get("no-such-domain").domain == sop.DEFAULT_DOMAIN

    def test_load_sops_requires_default(self, tmp_path):
        (tmp_path / "only.sop").write_text("[meta]\ndomain = solo\n", encoding="utf-8")
        with pytest.raises(MissingDefault):
            sop.load_sops(tmp_path)

    def test_load_sops_duplicate_domain_last_wins(self, tmp_path, caplog):
        (tmp_path / "a.sop").write_text(
            "[meta]\ndomain = default\n[schedule]\nfirst\n", encoding="utf-8"
        )
        (tmp_path / "b.sop").write_text(
            "[meta]\ndomain = default\n[schedule]\nsecond\n", encoding="utf-8"
        )
        with caplog.at_level("WARNING"):
            reg = sop.load_sops(tmp_path)
        assert reg.get(sop.DEFAULT_DOMAIN).scheduling_hints == "second"
        assert "duplicate" in caplog.text

    def test_logic_sop_verification_strategy_mentions_clue_by_clue(self):
        reg = sop.builtin_registry()
        strategy = reg.get("logical-reasoning").action_strategies[AtomicAction.HYPOTHESIS_VERIFICATION]
        assert "clue-by-clue" in strategy


class TestTriage:
    def test_domain_hint_wins(self):
        reg = sop.builtin_registry()
        problem = make_problem("compute the integral", hint="logical-reasoning")
        assert sop.triage(problem, reg) == "logical-reasoning"

    def test_keywords_pick_logic_domain(self):
        reg = sop.builtin_registry()
        problem = make_problem(
            "There are 3 houses and these clues constrain who lives where."
        )
        assert sop.triage(problem, reg) == "logical-reasoning"

    def test_keywords_pick_science_domain(self):
        reg = sop.builtin_registry()
        problem = make_problem("Calculate the value of the definite integral of x dx.")
        assert sop.triage(problem, reg) == "science-problem"

    def test_sop_dir_domain_is_picked_by_its_keywords(self, tmp_path):
        (tmp_path / "default.sop").write_text("[meta]\ndomain = default\n", encoding="utf-8")
        (tmp_path / "chemistry.sop").write_text(
            "[meta]\ndomain = chemistry\nkeywords = Reagent, titration\n", encoding="utf-8"
        )
        reg = sop.load_sops(tmp_path)
        problem = make_problem("A titration of 25 mL of acid needs how much base?")
        assert sop.triage(problem, reg) == "chemistry"
        assert sop.triage(make_problem("Name the capital of France."), reg) == sop.DEFAULT_DOMAIN

    def test_sop_without_keywords_is_never_scored(self, tmp_path):
        # alpha would win any tie alphabetically, but it scores on no statement
        (tmp_path / "default.sop").write_text("[meta]\ndomain = default\n", encoding="utf-8")
        (tmp_path / "alpha.sop").write_text("[meta]\ndomain = alpha\nkeywords = ,\n", encoding="utf-8")
        (tmp_path / "zoology.sop").write_text(
            "[meta]\ndomain = zoology\nkeywords = otter\n", encoding="utf-8"
        )
        reg = sop.load_sops(tmp_path)
        assert sop.triage(make_problem("How long does an otter sleep?"), reg) == "zoology"
        assert sop.triage(make_problem("Nothing matches here."), reg) == sop.DEFAULT_DOMAIN

    def test_inconclusive_without_backend_uses_default(self):
        reg = sop.builtin_registry()
        assert sop.triage(make_problem("hello there"), reg) == sop.DEFAULT_DOMAIN
