import time
from fractions import Fraction

import pytest

from atomic_reasoner import answers
from atomic_reasoner.model import FreeText, GridSchema, MultipleChoice, Numeric

SCHEMA = GridSchema(
    houses=3,
    attributes=(
        ("name", ("Arnold", "Eric", "Peter")),
        ("lunch", ("grilled cheese", "pizza", "spaghetti")),
    ),
)


def states_whole_answer(schema, text):
    """``answers.is_complete`` on what ``answers.extract`` reads from ``text``."""
    return answers.is_complete(schema, answers.extract(schema, text))


class TestMcq:
    OPTIONS = answers.option_letters(
        MultipleChoice(options=tuple(f"({c}) option {c}" for c in "ABCDEFG"))
    )

    def test_standard_phrase(self):
        assert answers.extract_mcq("The correct answer is (A)", self.OPTIONS) == "A"

    def test_bold_and_no_parens(self):
        assert answers.extract_mcq("**The correct answer is B**", self.OPTIONS) == "B"

    def test_last_occurrence_wins(self):
        text = "The correct answer is (C). Wait. The correct answer is (E)."
        assert answers.extract_mcq(text, self.OPTIONS) == "E"

    def test_fallback_paren_letter(self):
        assert answers.extract_mcq("after checking, (D) fits best", self.OPTIONS) == "D"

    def test_invalid_letter_rejected(self):
        assert answers.extract_mcq("The correct answer is (Z)", self.OPTIONS) is None

    def test_no_answer(self):
        assert answers.extract_mcq("I cannot decide.", self.OPTIONS) is None


class TestGrid:
    def test_round_trip_with_format(self):
        grid = {
            1: {"name": "Peter", "lunch": "spaghetti"},
            2: {"name": "Eric", "lunch": "grilled cheese"},
            3: {"name": "Arnold", "lunch": "pizza"},
        }
        assert answers.parse_grid(answers.format_grid_answer(SCHEMA, grid), SCHEMA) == grid

    def test_last_solution_block_wins(self):
        text = (
            "Solution:\n- House 1: Eric (pizza)\n\nActually no.\n\n"
            "Solution:\n- House 1: Peter (spaghetti)\n- House 2: Eric (grilled cheese)\n"
            "- House 3: Arnold (pizza)\n"
        )
        grid = answers.parse_grid(text, SCHEMA)
        assert grid[1]["name"] == "Peter"

    def test_unknown_values_stay_missing(self):
        text = "Solution:\n- House 1: Zelda (sushi)\n"
        grid = answers.parse_grid(text, SCHEMA)
        assert grid[1] == {"name": None, "lunch": None}

    def test_case_and_hyphen_insensitive_vocab(self):
        text = "Solution:\n- House 3: ARNOLD (Grilled-Cheese)\n"
        grid = answers.parse_grid(text, SCHEMA)
        assert grid[3] == {"name": "Arnold", "lunch": "grilled cheese"}

    def test_text_that_lowers_longer_keeps_its_offset(self):
        # "İ".lower() is two characters, so a cut taken from a lowered copy
        # would land past the house line.
        schema = GridSchema(houses=1, attributes=(("name", ("Ann",)),))
        grid = answers.parse_grid("İİİİİİİİİİİİ Solution:\n- House 1: Ann", schema)
        assert grid == {1: {"name": "Ann"}}

    @pytest.mark.parametrize(
        "marker",
        ["Final solution:", "**Solution:**", "SOLUTION:", "1. solution:"],
    )
    def test_a_marker_after_no_letter_opens_the_block(self, marker):
        grid = answers.parse_grid(f"Reasoning.\n{marker}\n- House 1: Peter (pizza)", SCHEMA)
        assert grid[1] == {"name": "Peter", "lunch": "pizza"}

    @pytest.mark.parametrize("word", ["resolution:", "Conflict resolution: none.", "Résolution:", "dissolution:"])
    def test_solution_inside_a_word_is_no_marker(self, word):
        block = "Solution:\n- House 1: Peter (pizza)\n- House 2: Eric (spaghetti)\n- House 3: Arnold (grilled cheese)"
        grid = answers.parse_grid(f"{block}\n{word}\n- House 1: Eric (pizza)", SCHEMA)
        assert grid[1] == {"name": "Eric", "lunch": "pizza"}  # the block reads on past the word
        assert grid[3] == {"name": "Arnold", "lunch": "grilled cheese"}
        assert states_whole_answer(SCHEMA, f"{block}\n{word}")
        assert answers.parse_grid(f"{word}\n- House 1: Peter (pizza)", SCHEMA)[1] == {"name": None, "lunch": None}

    def test_no_solution_block_all_missing(self):
        grid = answers.parse_grid("no structured answer here", SCHEMA)
        assert all(v is None for cells in grid.values() for v in cells.values())


class TestNumeric:
    def test_plain_and_boxed(self):
        assert answers.read_number("42") == 42
        assert answers.read_number("The answer is \\boxed{42}.") == 42

    def test_trailing_zero_and_plus_normalization(self):
        assert answers.read_number("+3.50") == Fraction(7, 2)
        assert answers.read_number("3.5") == answers.read_number("7/2")

    def test_fraction_equality(self):
        assert answers.read_number("2/4") == answers.read_number("0.5")
        assert answers.read_number("1/3") != answers.read_number("0.3333")

    def test_last_number_in_prose(self):
        assert answers.read_number("First 12, then 17, so the total is 29.") == 29

    def test_nothing_numeric(self):
        assert answers.read_number("no numbers here") is None

    @pytest.mark.parametrize("text", ["\\boxed{x 5}", "\\boxed{1 000}", "\\boxed{abc}", "ratio 5/0"])
    def test_a_box_or_fraction_that_is_no_number_reads_as_none(self, text):
        assert answers.read_number(text) is None
        assert not states_whole_answer(Numeric(), text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("The answer is 1,000.", 1000),
            ("12,345 apples", 12345),
            ("\\boxed{1,000}", 1000),
            pytest.param(
                "a total of 1,234,567.50",
                Fraction(2469135, 2),
                id="a total of 1,234,567.50-2469135/2",
            ),
            ("-1,000", -1000),
        ],
    )
    def test_thousands_separators_group_one_number(self, text, expected):
        assert answers.read_number(text) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param("so the total is 2.5e-3", Fraction(1, 400), id="plain"),
            pytest.param("1e5", 100000, id="bare"),
            pytest.param("\\boxed{\u22127}", -7, id="boxed"),
            pytest.param("x is -+5", -5, id="plain-minus-plus"),
            pytest.param("-+5", -5, id="bare-minus-plus"),
            pytest.param("\\boxed{-+5}", -5, id="boxed-minus-plus"),
        ],
    )
    def test_exponents_and_unicode_minus_read_alike_in_every_form(self, text, expected):
        assert answers.read_number(text) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param("7.5/2", Fraction(15, 4), id="decimal-numerator"),
            pytest.param("1e5/2", 50000, id="exponent-numerator"),
            pytest.param("\\boxed{7.5/2}", Fraction(15, 4), id="boxed"),
            pytest.param("0.5/0.25", 2, id="decimal-denominator"),
        ],
    )
    def test_ratio_of_decimals_reads_as_their_quotient(self, text, expected):
        assert answers.read_number(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["1e5000", "1e-5000", "\\boxed{1e999999999}", "It is 1e20000000.", "2/1e4301", "\\boxed{1e1_0000}"],
    )
    def test_an_exponent_past_the_limit_states_no_number_at_once(self, text):
        started = time.perf_counter()
        assert answers.read_number(text) is None
        assert time.perf_counter() - started < 0.01

    def test_the_largest_exponents_read_exactly(self):
        assert answers.read_number("1e4300") == 10**4300
        assert answers.read_number("1e-4300") == Fraction(1, 10**4300)
        assert answers.read_number("9" * 4000 + "e4000") == (10**4000 - 1) * 10**4000


class TestIsComplete:
    def test_grid_needs_every_cell(self):
        full = answers.format_grid_answer(
            SCHEMA,
            {
                1: {"name": "Peter", "lunch": "spaghetti"},
                2: {"name": "Eric", "lunch": "grilled cheese"},
                3: {"name": "Arnold", "lunch": "pizza"},
            },
        )
        assert states_whole_answer(SCHEMA, "Reasoning first.\n" + full)
        assert not states_whole_answer(SCHEMA, full.replace(" (pizza)", ""))
        assert not states_whole_answer(SCHEMA, full.replace("Arnold", "Zed"))
        assert not states_whole_answer(SCHEMA, "no solution block")

    def test_mcq_needs_an_option_letter(self):
        schema = MultipleChoice(options=("(A) one", "(B) two"))
        assert states_whole_answer(schema, "The correct answer is (B)")
        assert not states_whole_answer(schema, "The correct answer is (Q)")
        assert not states_whole_answer(schema, "undecided")

    def test_numeric_needs_a_number(self):
        assert states_whole_answer(Numeric(), "so the total is \\boxed{29}")
        assert not states_whole_answer(Numeric(), "no numbers here")

    def test_free_text_is_never_complete(self):
        assert not states_whole_answer(FreeText(), "The answer is the zebra.")
