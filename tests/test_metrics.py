import json
import math
import random
from pathlib import Path

import pytest

from atomic_reasoner import bench, metrics, model, puzzles
from atomic_reasoner.errors import DimensionMismatch, InvalidDistribution, ParseError
from atomic_reasoner.metrics import (
    DiscreteDistribution,
    ScoredTrace,
    entropy,
    weighted_step_entropy,
)
from atomic_reasoner.model import (
    AtomicAction,
    CheckReport,
    FreeText,
    GridSchema,
    MultipleChoice,
    Numeric,
    Problem,
    TerminationMode,
)
from test_shapes import mutations, task_records


def random_tree(rng: random.Random):
    """A structurally varied tree: random actions, occasional branch,
    reports, revision marks, and termination."""
    tree = model.new_tree(
        Problem(
            id=f"t{rng.randrange(10**6)}",
            statement=f"problem {rng.random():.8f}",
            answer_schema=rng.choice(
                [FreeText(), MultipleChoice(options=("(A) x", "(B) y"))]
            ),
        )
    )
    for _ in range(rng.randrange(1, 10)):
        action = rng.choice(
            [a for a in AtomicAction if a is not AtomicAction.HYPOTHESIS_VERIFICATION]
        )
        nid = model.append_node(tree, action, f"g{rng.random():.4f}", f"c{rng.random():.4f}")
        node = tree.nodes[nid]
        if rng.random() < 0.3:
            node.check_reports.append(
                CheckReport(
                    verdict="Error",
                    kinds=["ConclusionError"],
                    rationale="r",
                    suggestion="s",
                )
            )
            node.revised = True
        if rng.random() < 0.2:
            model.branch_at(tree, rng.choice(model.active_path(tree)).id)
    if rng.random() < 0.5:
        model.set_termination(
            tree,
            rng.choice([TerminationMode.ACTIVE_SOLVED, TerminationMode.PASSIVE_LIMIT]),
            "final",
        )
    return tree


class TestEntropy:
    def test_uniform_is_log2_k(self):
        for k in (2, 4, 8):
            dist = DiscreteDistribution.uniform([str(i) for i in range(k)])
            assert abs(entropy(dist) - math.log2(k)) < 1e-12

    def test_point_mass_is_zero(self):
        assert entropy(DiscreteDistribution([("a", 1.0), ("b", 0.0)])) == 0.0

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidDistribution):
            DiscreteDistribution([("a", 0.4), ("b", 0.4)])

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidDistribution):
            DiscreteDistribution([("a", 1.2), ("b", -0.2)])


class TestWeightedStepEntropy:
    def test_point_mass_selection(self):
        row = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        entropies = [0.7, 9.9, 1.0, 2.0, 3.0, 4.0]
        assert weighted_step_entropy(row, entropies) == 0.7

    def test_simple_average(self):
        assert weighted_step_entropy([0.5, 0.5], [1.0, 3.0]) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_step_entropy([1.0], [1.0, 2.0])

    def test_matches_dot_product_oracle(self):
        rng = random.Random(42)
        for _ in range(200):
            raw = [rng.random() for _ in range(6)]
            total = sum(raw)
            row = [x / total for x in raw]
            entropies = [rng.uniform(0, 5) for _ in range(6)]
            oracle = sum(r * e for r, e in zip(row, entropies))
            assert abs(weighted_step_entropy(row, entropies) - oracle) < 1e-12


class TestTraceStats:
    def test_counts_from_case_like_tree(self):
        tree = model.new_tree(Problem(id="p", statement="s", answer_schema=FreeText()))
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "c")
        nid = model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
        model.branch_at(tree, nid)
        model.append_node(tree, AtomicAction.HYPOTHESIS_VERIFICATION, "g", "c")
        node = tree.nodes[nid]
        node.check_reports.append(
            CheckReport(verdict="Error", kinds=["ConclusionError"], rationale="r")
        )
        node.revised = True
        stats = metrics.trace_stats(tree)
        assert stats.rounds == 3
        assert stats.chains == 2
        assert stats.backtracks == 1
        assert stats.revisions == 1
        assert stats.check_errors == 1
        assert stats.action_histogram["PremiseDiscovery"] == 1
        assert sum(stats.action_histogram.values()) == 3
        assert set(stats.action_histogram) == {a.value for a in AtomicAction}


def branched_tree():
    """Chain c1 with two steps; chain c2 branched from its first step."""
    tree = model.new_tree(Problem(id="b", statement="s", answer_schema=FreeText()))
    model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "n1")
    model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "n2")
    model.branch_at(tree, "n1")
    model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "n3")
    return tree


class TestSerialization:
    def test_round_trip_is_identity_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(100):
            tree = random_tree(rng)
            doc = metrics.serialize_trace(tree)
            back = metrics.deserialize_trace(doc)
            assert metrics.serialize_trace(back) == doc
            assert list(back.chains) == list(tree.chains)  # insertion order kept
            assert back.active_chain_id == tree.active_chain_id

    def test_canonical_document_shape(self):
        rng = random.Random(1)
        doc = metrics.serialize_trace(random_tree(rng))
        assert doc.endswith("\n")
        data = json.loads(doc)
        assert data["format_version"] == metrics.TRACE_FORMAT_VERSION

    def test_bad_json_raises_parse_error(self):
        with pytest.raises(ParseError):
            metrics.deserialize_trace("{not json")

    def test_missing_keys_raise_parse_error(self):
        with pytest.raises(ParseError):
            metrics.deserialize_trace('{"format_version": 1}')

    def test_nodes_that_are_not_an_object_raise_parse_error(self):
        data = json.loads(metrics.serialize_trace(random_tree(random.Random(3))))
        with pytest.raises(ParseError):
            metrics.deserialize_trace(json.dumps({**data, "nodes": []}))

    def test_grid_attribute_values_that_are_not_a_list_raise_parse_error(self):
        schema = GridSchema(houses=2, attributes=(("n", ("A", "B")),))
        tree = model.new_tree(Problem(id="g", statement="s", answer_schema=schema))
        data = json.loads(metrics.serialize_trace(tree))
        data["problem"]["answer_schema"]["attributes"] = [["n", "AB"]]
        with pytest.raises(ParseError):
            metrics.deserialize_trace(json.dumps(data))

    @pytest.mark.parametrize("version", [99, "x", None, True, 1.0, "absent"])
    def test_other_format_version_raises_parse_error(self, version):
        data = json.loads(metrics.serialize_trace(random_tree(random.Random(3))))
        if version == "absent":
            del data["format_version"]
        else:
            data["format_version"] = version
        with pytest.raises(ParseError):
            metrics.deserialize_trace(json.dumps(data))

    def test_revised_that_is_not_a_bool_raises_parse_error(self):
        """``"revised": "no"`` is truthy; ``trace_stats`` would count it."""
        tree = branched_tree()
        data = json.loads(metrics.serialize_trace(tree))
        data["nodes"]["n1"]["revised"] = "no"
        with pytest.raises(ParseError, match="nodes.n1.revised is not true or false"):
            metrics.deserialize_trace(json.dumps(data))

    @pytest.mark.parametrize(
        "change",
        [
            lambda d: d["chains"]["c1"]["node_ids"].append("n9"),
            lambda d: d.update(active_chain="c9"),
            lambda d: d["chains"]["c2"].update(parent=["c9", 0]),
            lambda d: d["chains"]["c2"].update(parent=["c1", 5]),
            lambda d: d["chains"]["c2"].update(parent=["c1", -1]),
            lambda d: d["chains"]["c2"].update(parent=["c2", 0]),
            lambda d: d["chains"]["c1"].update(parent=["c2", 0]),
            lambda d: d.update(chain_order=["c1"]),
            lambda d: d.update(chain_order=["c1", "c2", "c2"]),
            lambda d: d.update(chain_order=["c1", "c9"]),
        ],
        ids=[
            "unknown-node",
            "unknown-active-chain",
            "unknown-parent-chain",
            "parent-index-past-its-chain",
            "negative-parent-index",
            "own-parent",
            "parent-cycle",
            "chain-left-out-of-order",
            "chain-named-twice",
            "unknown-chain-in-order",
        ],
    )
    def test_dangling_link_raises_parse_error(self, change):
        data = json.loads(metrics.serialize_trace(branched_tree()))
        metrics.deserialize_trace(json.dumps(data))
        change(data)
        with pytest.raises(ParseError):
            metrics.deserialize_trace(json.dumps(data))


class TestRecordCodec:
    """``to_json``/``from_json`` on the tagged unions the records hold."""

    @pytest.mark.parametrize(
        "schema",
        [FreeText(), Numeric(), MultipleChoice(("(A) x", "(B) y")), GridSchema(2, (("n", ("A", "B")),))],
        ids=["free_text", "numeric", "mcq", "grid"],
    )
    def test_answer_schema_round_trips(self, schema):
        data = metrics.to_json(model.AnswerSchema, schema)
        assert data["kind"] == type(schema).kind
        assert metrics.from_json(model.AnswerSchema, json.loads(json.dumps(data)), "schema") == schema

    @pytest.mark.parametrize(
        "clue",
        [
            puzzles.FixedPosition("name", "Eric", 2),
            puzzles.LeftOf("name", "Arnold", "pet", "dog"),
            puzzles.Adjacent("pet", "cat", "pet", "dog"),
            puzzles.SameHouse("name", "Eric", "pet", "dog"),
        ],
        ids=lambda clue: type(clue).__name__,
    )
    def test_clue_round_trips(self, clue):
        data = metrics.to_json(puzzles.Clue, clue)
        assert list(data)[0] == "kind" and data["kind"] == type(clue).__name__
        assert metrics.from_json(puzzles.Clue, json.loads(json.dumps(data)), "clue") == clue

    def test_member_is_written_without_a_kind_where_its_type_is_no_union(self):
        assert metrics.to_json(GridSchema, GridSchema(1, (("n", ("A",)),))) == {"houses": 1, "attributes": [["n", ["A"]]]}

    def test_unknown_kind_names_where(self):
        with pytest.raises(ParseError, match="^schema: kind 'essay' is unknown$"):
            metrics.from_json(model.AnswerSchema, {"kind": "essay"}, "schema")

    def test_wrongly_typed_member_field_names_where(self):
        data = {"kind": "FixedPosition", "attribute": "name", "value": "Eric", "house": True}
        with pytest.raises(ParseError, match="^clue: house is not an integer$"):
            metrics.from_json(puzzles.Clue, data, "clue")

    def test_each_type_is_mapped_once(self, monkeypatch):
        clues = [puzzles.FixedPosition("name", "Eric", 2), puzzles.LeftOf("name", "Arnold", "pet", "dog")]
        document = metrics.serialize_trace(branched_tree())
        for tp, value in [(list[puzzles.Clue], clues), (model.AtomicTree, metrics.deserialize_trace(document))]:
            metrics.from_json(tp, metrics.to_json(tp, value), "record")
        for name in ("get_origin", "get_args", "is_dataclass"):
            monkeypatch.setattr(metrics, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        assert metrics.from_json(list[puzzles.Clue], metrics.to_json(list[puzzles.Clue], clues), "record") == clues
        assert metrics.serialize_trace(metrics.deserialize_trace(document)) == document

    def test_member_error_in_a_trace_names_the_file_and_the_path(self):
        tree = model.new_tree(Problem(id="m", statement="s", answer_schema=MultipleChoice(("(A) x", "(B) y"))))
        data = json.loads(metrics.serialize_trace(tree))
        data["problem"]["answer_schema"]["options"] = "(A) x"
        with pytest.raises(ParseError, match="^q.trace.json: problem.answer_schema.options is not a list$"):
            metrics.deserialize_trace(json.dumps(data), "q.trace.json")


DATA = Path(__file__).parent / "data"
MUTATION_OUTCOMES = DATA / "mutation_outcomes.json"


def outcome(read, *args) -> str:
    """What ``read(*args)`` does with a record: "ok", or the error it raises."""
    try:
        read(*args)
    except (ValueError, ParseError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def mutation_outcomes() -> dict:
    """The outcome of every one-field wrong-type mutation (``test_shapes.
    mutations``): of the recorded traces through ``deserialize_trace``, and
    of ``test_shapes``' task records through ``task_from_record`` (``solve``)
    and through ``load_tasks``' reader (``bench``)."""
    outcomes = {}
    for name in ("case1", "case2"):
        trace = json.loads((DATA / f"{name}.trace.json").read_text(encoding="utf-8"))
        outcomes[name] = [outcome(metrics.deserialize_trace, json.dumps(doc)) for doc in mutations(trace)]
    for format, record in task_records():
        outcomes[format] = [
            [outcome(bench.task_from_record, doc), outcome(bench._task_from_record, doc, format)]
            for doc in mutations(record)
        ]
    return outcomes


class TestTraceFormat:
    """The format derived from the dataclasses against traces recorded
    before it was derived."""

    def test_every_one_field_mutation_reads_as_recorded(self):
        """Recorded when every record was checked against a shape and then
        read, in two walks: reading and checking in one walk reports each
        single fault with the same message."""
        assert mutation_outcomes() == json.loads(MUTATION_OUTCOMES.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_recorded_trace_reserializes_byte_identically(self, name):
        document = (DATA / f"{name}.trace.json").read_text(encoding="utf-8")
        assert metrics.serialize_trace(metrics.deserialize_trace(document)) == document

    def test_recorded_traces_cover_the_format(self):
        trees = [
            metrics.deserialize_trace((DATA / f"{name}.trace.json").read_text(encoding="utf-8"))
            for name in ("case1", "case2")
        ]
        nodes = [node for tree in trees for node in tree.nodes.values()]
        chains = [chain for tree in trees for chain in tree.chains.values()]
        assert any(node.revised for node in nodes)
        assert any(report.is_error and report.suggestion for node in nodes for report in node.check_reports)
        assert any(chain.parent for chain in chains) and any(chain.summary for chain in chains)
        assert {type(tree.problem.answer_schema) for tree in trees} == {MultipleChoice, GridSchema}

    def test_other_format_version_is_reported_before_the_rest_of_the_shape(self):
        with pytest.raises(ParseError, match="^trace: unknown format_version 2$"):
            metrics.deserialize_trace(json.dumps({"format_version": 2, "events": []}))


class TestSftExport:
    def make_scored(self, correct=True, terminate=True):
        tree = model.new_tree(Problem(id="p", statement="solve it", answer_schema=FreeText()))
        model.append_node(tree, AtomicAction.PREMISE_DISCOVERY, "g", "the clues")
        model.append_node(tree, AtomicAction.HYPOTHESIS_GENERATION, "g", "Hypothesis 1: x")
        if terminate:
            model.set_termination(tree, TerminationMode.ACTIVE_SOLVED, "the answer is x")
        return ScoredTrace(tree=tree, correct=correct, suite="unit")

    def test_correct_only_filter(self):
        records = metrics.to_sft_records(
            [self.make_scored(correct=True), self.make_scored(correct=False)]
        )
        assert len(records) == 1

    def test_all_filter_keeps_incorrect(self):
        records = metrics.to_sft_records(
            [self.make_scored(correct=True), self.make_scored(correct=False)], filter="all"
        )
        assert len(records) == 2

    def test_record_fields(self):
        record = metrics.to_sft_records([self.make_scored()])[0]
        assert "solve it" in record.instruction
        assert "Step 1 (PremiseDiscovery): the clues" in record.reasoning
        assert record.answer == "the answer is x"

    def test_blank_statement_skipped(self):
        """A trace file can hold a statement no session starts from."""
        data = json.loads(metrics.serialize_trace(self.make_scored().tree))
        data["problem"]["statement"] = " \n"
        tree = metrics.deserialize_trace(json.dumps(data))
        assert metrics.to_sft_records([ScoredTrace(tree=tree, correct=True)], filter="all") == []

    def test_unterminated_traces_skipped(self):
        assert metrics.to_sft_records([self.make_scored(terminate=False)], filter="all") == []

    def test_jsonl_round_trip(self):
        records = metrics.to_sft_records([self.make_scored()])
        lines = metrics.sft_records_to_jsonl(records).strip().splitlines()
        assert len(lines) == 1
        data = json.loads(lines[0])
        assert set(data) >= {"instruction", "reasoning", "answer"}
