import pytest

from atomic_reasoner import sop
from atomic_reasoner.errors import MissingDefault, ParseError
from atomic_reasoner.model import AtomicAction, FreeText, Problem

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
