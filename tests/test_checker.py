import contextlib
import dataclasses
import json
from pathlib import Path

import pytest

from atomic_reasoner import checker, model
from atomic_reasoner.backends import ScriptedBackend
from atomic_reasoner.checker import ErrorKind
from atomic_reasoner.errors import EmptyCompletion
from atomic_reasoner.model import (
    ActionCategory,
    AtomicAction,
    FreeText,
    Problem,
)

CORPUS_PATH = Path(__file__).parent / "data" / "checker_corpus.json"


def load_corpus():
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def make_tree_with_node(action=AtomicAction.HYPOTHESIS_VERIFICATION):
    tree = model.new_tree(Problem(id="p", statement="A puzzle.", answer_schema=FreeText()))
    model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
    nid = model.append_node(tree, action, "g", "original content")
    return tree, tree.nodes[nid]


class TestTaxonomy:
    def test_thirteen_kinds_partitioned_3_6_4(self):
        kinds = list(ErrorKind)
        assert len(kinds) == 13
        by_cat = {model.category(action): checker.applicable_errors(action) for action in AtomicAction}
        assert sorted(kind.name for cat_kinds in by_cat.values() for kind in cat_kinds) == sorted(
            kind.name for kind in kinds
        )
        assert len(by_cat[ActionCategory.PREMISE]) == 3
        assert len(by_cat[ActionCategory.REASONING]) == 6
        assert len(by_cat[ActionCategory.ENDING]) == 4

    def test_applicable_errors_by_action(self):
        premise = checker.applicable_errors(AtomicAction.PREMISE_DISCOVERY)
        assert set(premise) == {
            ErrorKind.CONTENT_CONFLICT,
            ErrorKind.LOGICAL_CONTRADICTION,
            ErrorKind.EXPRESSION_INCONSISTENCY,
        }
        assert len(checker.applicable_errors(AtomicAction.HYPOTHESIS_VERIFICATION)) == 6
        ending = checker.applicable_errors(AtomicAction.SUMMARY_FINISHED)
        assert ErrorKind.SORTING_ERROR in ending and len(ending) == 4

    def test_no_overlap_across_actions(self):
        all_kinds = (
            checker.applicable_errors(AtomicAction.PREMISE_DISCOVERY)
            + checker.applicable_errors(AtomicAction.HYPOTHESIS_GENERATION)
            + checker.applicable_errors(AtomicAction.SUMMARY_FINISHED)
        )
        assert len(all_kinds) == 13 == len(set(all_kinds))

    def test_definitions_only_cover_applicable_kinds(self):
        text = checker.error_definitions(AtomicAction.PREMISE_DISCOVERY)
        assert "Content Conflict" in text
        assert "Sorting Error" not in text


class TestParser:
    @pytest.mark.parametrize("item", load_corpus(), ids=lambda i: f"item-{i['id']}")
    def test_corpus_item(self, item):
        action = model.parse_action(item["action"])
        report = checker.parse_check_response(item["text"], action)
        if item["verdict"] is None:
            assert report is None
        else:
            assert report is not None
            assert report.verdict == item["verdict"]
            assert report.kinds == item["kinds"]
            if "suggestion" in item:
                assert report.suggestion == item["suggestion"]

    def test_explicit_tag_outside_category_is_trusted(self):
        report = checker.parse_check_response(
            "Check Result: There is an error.\nError Type: Sorting Error",
            AtomicAction.HYPOTHESIS_VERIFICATION,
        )
        assert report.kinds == ["SortingError"]

    # Each field name in turn wrapped in ``**``; the "é" variants take the
    # non-ASCII path of the parser.
    @pytest.mark.parametrize("tail", ["", " é"])
    @pytest.mark.parametrize("bold", ["Check Result", "Error Type", "Suggestion"])
    def test_bold_field_names_are_read(self, bold, tail):
        text = "Check Result: There is an error.\nError Type: Sorting Error\nSuggestion: Recount." + tail
        report = checker.parse_check_response(
            text.replace(bold, f"**{bold}**"), AtomicAction.HYPOTHESIS_VERIFICATION
        )
        assert (report.verdict, report.kinds, report.suggestion) == ("Error", ["SortingError"], "Recount." + tail)

    # A field's value never starts on the next line; the "é" variants take the
    # non-ASCII path of the parser.
    @pytest.mark.parametrize("tail", ["", " é"])
    def test_empty_suggestion_does_not_take_the_next_line(self, tail):
        report = checker.parse_check_response(
            "Check Result: There is an error.\nError Type: Conclusion Error\n"
            "Suggestion:\n\nThanks for reading" + tail,
            AtomicAction.HYPOTHESIS_VERIFICATION,
        )
        assert report.verdict == "Error" and report.kinds == ["ConclusionError"]
        assert report.suggestion is None

    @pytest.mark.parametrize("tail", ["", " é"])
    def test_empty_check_result_is_no_verdict(self, tail):
        text = "Check Result:\n\nStep 3 looks right" + tail
        assert checker.parse_check_response(text, AtomicAction.HYPOTHESIS_VERIFICATION) is None


class TestCheckAndRevise:
    def test_check_appends_report(self):
        tree, node = make_tree_with_node()
        backend = ScriptedBackend({"check": ["Check Result: No error."]})
        report = checker.check(tree, node, backend)
        assert report.verdict == "NoError"
        assert node.check_reports == [report]

    def test_check_fail_open_after_one_reask(self):
        tree, node = make_tree_with_node()
        backend = ScriptedBackend({"check": ["garbage", "more garbage"]})
        report = checker.check(tree, node, backend)
        assert report.verdict == "NoError"
        assert report.rationale == "unparseable"
        assert len(backend.calls) == 2
        assert backend.calls[1] == dataclasses.replace(backend.calls[0], seed=1)

    def test_checker_prompt_scopes_definitions_to_category(self):
        tree, node = make_tree_with_node(AtomicAction.HYPOTHESIS_VERIFICATION)
        backend = ScriptedBackend({"check": "Check Result: No error."})
        checker.check(tree, node, backend)
        prompt_text = "\n".join(m.content for m in backend.calls[0].messages)
        assert "Calculation Error" in prompt_text
        assert "Content Conflict" not in prompt_text
        assert "original content" in prompt_text

    def test_revise_rewrites_content_in_place(self):
        tree, node = make_tree_with_node()
        report = checker.parse_check_response(
            "Check Result: There is an error.\nError Type: Conclusion Error\nSuggestion: flip it",
            node.action,
        )
        backend = ScriptedBackend({"solve": ["revised content"]})
        checker.revise(tree, node, report, backend)
        assert node.content == "revised content"
        assert node.revised is True
        prompt_text = "\n".join(m.content for m in backend.calls[0].messages)
        assert "original content" in prompt_text and "flip it" in prompt_text

    def test_revise_raises_after_two_blank_replies(self):
        tree, node = make_tree_with_node()
        report = checker.parse_check_response("Check Result: There is an error.", node.action)
        backend = ScriptedBackend({"solve": ["", "  \n"]})
        with pytest.raises(EmptyCompletion):
            checker.revise(tree, node, report, backend)
        assert len(backend.calls) == 2
        assert backend.calls[1] == dataclasses.replace(backend.calls[0], seed=1)
        assert node.content == "original content" and not node.revised

    def test_revise_rejects_no_error_report(self):
        tree, node = make_tree_with_node()
        report = checker.parse_check_response("Check Result: No error.", node.action)
        with pytest.raises(ValueError):
            checker.revise(tree, node, report, ScriptedBackend({}))

    def test_cycle_stops_on_first_clean_check(self):
        tree, node = make_tree_with_node()
        backend = ScriptedBackend({"check": ["Check Result: No error."]})
        checker.run_check_cycle(tree, node, backend)
        assert len(node.check_reports) == 1
        assert not node.flagged and not node.revised

    def test_adversarial_checker_capped_at_two_revisions(self):
        tree, node = make_tree_with_node()
        backend = ScriptedBackend(
            {
                "check": "Check Result: There is an error.\nError Type: Conclusion Error",
                "solve": ["try 1", "try 2", "try 3"],
            }
        )
        inside = []

        @contextlib.contextmanager
        def during(revisions):
            start = len(backend.calls)
            yield
            inside.append((revisions, [request.tag for request in backend.calls[start:]]))

        checker.run_check_cycle(tree, node, backend, during)
        assert node.flagged is True
        assert node.content == "try 2"  # exactly two revision cycles ran
        assert len(node.check_reports) == 3  # MAX_REVISIONS + 1 checks
        # each check, and no revision, runs in ``during`` of the revisions so far
        assert inside == [(0, ["check"]), (1, ["check"]), (2, ["check"])]

    def test_cycle_never_moves_the_node(self):
        tree, node = make_tree_with_node()
        before = list(model.active_chain(tree).node_ids)
        backend = ScriptedBackend(
            {
                "check": ["Check Result: There is an error.", "Check Result: No error."],
                "solve": ["fixed"],
            }
        )
        checker.run_check_cycle(tree, node, backend)
        assert model.active_chain(tree).node_ids == before
        assert node.action is AtomicAction.HYPOTHESIS_VERIFICATION
