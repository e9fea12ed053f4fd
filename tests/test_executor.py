import dataclasses

import pytest

from atomic_reasoner import answers, executor, model
from atomic_reasoner.backends import ScriptedBackend
from atomic_reasoner.errors import EmptyCompletion
from atomic_reasoner.model import (
    AtomicAction,
    FreeText,
    GridSchema,
    MultipleChoice,
    Numeric,
    Problem,
    TerminationMode,
)


def make_tree(schema=None):
    return model.new_tree(
        Problem(id="p", statement="A puzzle.", answer_schema=schema or FreeText())
    )


class TestExecute:
    def test_appends_node_with_guidance_and_content(self):
        tree = make_tree()
        backend = ScriptedBackend({"solve": ["clue list"]})
        node = executor.execute(
            tree, AtomicAction.PREMISE_DISCOVERY, "extract the clues", backend
        )
        assert node.content == "clue list"
        assert node.guidance == "extract the clues"
        assert model.round_count(tree) == 1
        prompt = "\n".join(m.content for m in backend.calls[0].messages)
        assert "extract the clues" in prompt and "A puzzle." in prompt

    def test_blank_completion_retried_once_then_raises(self):
        tree = make_tree()
        backend = ScriptedBackend({"solve": ["", "  "]})
        with pytest.raises(EmptyCompletion):
            executor.execute(tree, AtomicAction.PREMISE_DISCOVERY, "g", backend)
        assert len(backend.calls) == 2
        assert backend.calls[1] == dataclasses.replace(backend.calls[0], seed=1)

    def test_unmarked_hypothesis_generation_is_flagged(self):
        tree = make_tree()
        backend = ScriptedBackend({"solve": ["some guesses with no marker"]})
        node = executor.execute(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", backend)
        assert node.flagged is True

    def test_marked_hypothesis_generation_not_flagged(self):
        tree = make_tree()
        for text in ("Hypothesis 1: x", "- **Hypothesis 2:** y"):
            node = executor.execute(
                tree, AtomicAction.HYPOTHESIS_GENERATION, "g", ScriptedBackend({"solve": [text]})
            )
            assert node.flagged is False

    def test_sop_guidance_is_injected(self):
        tree = make_tree()
        backend = ScriptedBackend({"solve": ["content"]})
        executor.execute(
            tree, AtomicAction.PREMISE_DISCOVERY, "g", backend, sop_guidance="use clue tables"
        )
        prompt = "\n".join(m.content for m in backend.calls[0].messages)
        assert "use clue tables" in prompt

    def test_ending_step_prompt_carries_the_answer_format(self):
        """The format instruction is its own section; the guidance stays the
        first line after its header and the node keeps it as given."""
        schema = GridSchema(houses=2, attributes=(("name", ("A", "B")),))
        tree = make_tree(schema)
        backend = ScriptedBackend({"solve": ["content"]})
        node = executor.execute(
            tree, AtomicAction.SUMMARY_FINISHED, "assemble the answer", backend, "procedure"
        )
        prompt = backend.calls[0].messages[-1].content
        header = "# The expert's guidance for the current step:\n"
        assert prompt.split(header, 1)[1].split("\n", 1)[0] == "assemble the answer"
        section = "\n\n# The format of the final answer:\n" + answers.format_instruction(schema)
        assert prompt.endswith(section)
        assert node.guidance == "assemble the answer"

    def test_other_steps_get_no_answer_format(self):
        schema = GridSchema(houses=2, attributes=(("name", ("A", "B")),))
        backend = ScriptedBackend({"solve": ["content"]})
        executor.execute(make_tree(schema), AtomicAction.PREMISE_DISCOVERY, "g", backend)
        assert answers.format_instruction(schema) not in backend.calls[0].messages[-1].content


class TestFormatInstruction:
    def test_mcq_instruction_matches_transcript_convention(self):
        schema = MultipleChoice(options=("(A) x", "(B) y"))
        text = answers.format_instruction(schema)
        assert 'The correct answer is' in text

    def test_grid_instruction_lists_houses(self):
        schema = GridSchema(houses=2, attributes=(("name", ("A", "B")),))
        text = answers.format_instruction(schema)
        assert "Solution:" in text and "House" in text

    def test_numeric_instruction(self):
        assert "numeric" in answers.format_instruction(Numeric()).lower()


class TestFinalize:
    def test_passive_limit_requests_best_effort(self):
        tree = make_tree()
        backend = ScriptedBackend({"summarize": ["partial conclusion"]})
        final = executor.finalize(tree, backend, TerminationMode.PASSIVE_LIMIT)
        assert final.text == "partial conclusion"
        prompt = "\n".join(m.content for m in backend.calls[0].messages).lower()
        assert "best" in prompt  # best-effort wording reaches the prompt

