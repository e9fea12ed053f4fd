import json
import random
import threading
import time

import pytest

from atomic_reasoner import answers, bench, cases, puzzles, router, sop
from atomic_reasoner.backends import ScriptedBackend
from atomic_reasoner.errors import EmptySuite
from atomic_reasoner.model import FreeText, GridSchema, MultipleChoice, Numeric


def mcq_record(id="t1", gold="A"):
    return {
        "id": id,
        "statement": "Pick one.",
        "options": ["(A) first", "(B) second"],
        "gold": gold,
    }


def grid_record():
    task, _ = bench.gen_puzzle(0, 3, 2)
    return bench.task_to_record(task, "grid")


def gold_with(key, house):
    """A change to ``grid_record`` that adds the gold key ``key`` holding
    house ``house``'s cells."""
    gold = grid_record()["gold"]
    return {"gold": {**gold, key: gold[house]}}


def write_suite(tmp_path, records, name="suite.jsonl"):
    path = tmp_path / name
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    return path


class TestLoadTasks:
    def test_loads_mcq_suite(self, tmp_path):
        path = write_suite(tmp_path, [mcq_record(), mcq_record(id="t2", gold="B")])
        tasks, rejects = bench.load_tasks(path, "mcq")
        assert len(tasks) == 2 and rejects == []
        assert isinstance(tasks[0].schema, MultipleChoice)

    def test_malformed_lines_become_rejects(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        lines = [
            json.dumps(mcq_record()),
            "{broken json",
            json.dumps({"statement": "no gold or options"}),
            json.dumps(mcq_record(id="t3", gold="Z")),  # gold outside options
        ]
        path.write_text("\n".join(lines), encoding="utf-8")
        tasks, rejects = bench.load_tasks(path, "mcq")
        assert len(tasks) == 1
        assert [r.line for r in rejects] == [2, 3, 4]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("statement", 12345),
            ("statement", ["Pick", "one."]),
            ("options", "(A) yes (B) no"),
            ("options", [1, 2]),
            ("split", 1),
            ("suite", 7),
        ],
        ids=[
            "numeric-statement",
            "list-statement",
            "string-options",
            "numeric-options",
            "numeric-split",
            "numeric-suite",
        ],
    )
    def test_wrongly_typed_field_becomes_reject(self, tmp_path, field, value):
        path = write_suite(tmp_path, [mcq_record(), {**mcq_record(id="t2"), field: value}])
        tasks, rejects = bench.load_tasks(path, "mcq")
        assert [task.id for task in tasks] == ["t1"]
        assert [r.line for r in rejects] == [2]
        assert rejects[0].reason.startswith("SchemaMismatch: ")

    @pytest.mark.parametrize("gold", ["abc", "5/0", None])
    def test_numeric_gold_that_is_no_number_becomes_reject(self, tmp_path, gold):
        records = [{"id": id, "statement": "Add.", "gold": g} for id, g in [("n1", "7/2"), ("n2", gold)]]
        tasks, rejects = bench.load_tasks(write_suite(tmp_path, records), "numeric")
        assert [task.id for task in tasks] == ["n1"]
        assert [r.line for r in rejects] == [2]

    def test_null_split_loads_as_none(self, tmp_path):
        path = write_suite(tmp_path, [{**mcq_record(), "split": None}])
        tasks, rejects = bench.load_tasks(path, "mcq")
        assert rejects == [] and tasks[0].split is None

    @pytest.mark.parametrize(
        "change",
        [
            {"gold": [1, 2]},
            {"clues": ["x"]},
            {
                "schema": {"houses": 2, "attributes": [["name", "AB"]]},
                "gold": {"1": {"name": "A"}, "2": {"name": "B"}},
            },
            {
                "schema": {"houses": 2, "attributes": [["n", [1, 2]]]},
                "gold": {"1": {"n": 1}, "2": {"n": 2}},
            },
            {
                "schema": {"houses": 2, "attributes": [["name", ["A", "A"]]]},
                "gold": {"1": {"name": "A"}, "2": {"name": "A"}},
            },
            gold_with("01", "2"),
            gold_with("9", "1"),
            gold_with("\u0663", "1"),
            gold_with("x", "1"),
        ],
        ids=[
            "list-gold", "string-clue", "string-values", "numeric-values", "repeated-values-without-clues",
            "zero-padded-gold-key", "gold-key-past-the-houses", "arabic-indic-digit-gold-key", "non-numeric-gold-key",
        ],
    )
    def test_malformed_grid_record_becomes_reject(self, tmp_path, change):
        record = {**grid_record(), **change}
        if "schema" in change:
            del record["clues"]
        tasks, rejects = bench.load_tasks(write_suite(tmp_path, [grid_record(), record]), "grid")
        assert len(tasks) == 1
        assert [r.line for r in rejects] == [2]
        assert rejects[0].reason.startswith("SchemaMismatch: ")

    @pytest.mark.parametrize(
        "task, format, text",
        [
            (bench.Task(id="m", statement="Pick.", schema=MultipleChoice(("(A) x", "(B) y")), gold="B",
                        split="hard", suite="s"), "mcq",
             '{"id": "m", "statement": "Pick.", "split": "hard", "suite": "s", "options": ["(A) x", "(B) y"], '
             '"gold": "B"}'),
            (bench.Task(id="n", statement="Add.", schema=Numeric(), gold="7/2", split="easy"), "numeric",
             '{"id": "n", "statement": "Add.", "split": "easy", "gold": "7/2"}'),
            (bench.Task(id="", statement="Add.", schema=Numeric(), gold="7/2"), "numeric",
             '{"statement": "Add.", "gold": "7/2"}'),
        ],
        ids=["mcq", "numeric", "numeric-without-id"],
    )
    def test_task_round_trips_through_records(self, tmp_path, task, format, text):
        record = bench.task_to_record(task, format)
        assert json.dumps(record) == text
        tasks, rejects = bench.load_tasks(write_suite(tmp_path, [record]), format)
        assert rejects == [] and tasks == [task]

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"schema": {"houses": 3, "attributes": [["name", "ABC"]]}},
             "task record: schema.attributes[0][1] is not a list"),
            ({"clues": grid_record()["clues"] + [{"kind": "Telepathy"}]},
             "task record: clues[4].kind 'Telepathy' is unknown"),
            ({"clues": [{"kind": "FixedPosition", "attribute": "name", "value": "Eric", "house": "1"}]},
             "task record: clues[0].house is not an integer"),
            (gold_with("x", "1"), "gold key 'x' is not a house number from 1 to 3"),
        ],
        ids=["schema-values", "clue-kind", "clue-house", "gold-key"],
    )
    def test_reject_names_the_path_in_the_record(self, tmp_path, change, reason):
        tasks, rejects = bench.load_tasks(write_suite(tmp_path, [{**grid_record(), **change}]), "grid")
        assert tasks == [] and [r.reason for r in rejects] == [f"SchemaMismatch: {reason}"]

    def test_byte_order_mark_is_not_part_of_the_first_record(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        path.write_text("\ufeff" + json.dumps(mcq_record()) + "\n", encoding="utf-8")
        tasks, rejects = bench.load_tasks(path, "mcq")
        assert [task.id for task in tasks] == ["t1"] and rejects == []

    def test_grid_round_trips_through_records(self, tmp_path):
        record = grid_record()
        path = write_suite(tmp_path, [record])
        tasks, rejects = bench.load_tasks(path, "grid")
        assert rejects == []
        task = tasks[0]
        assert isinstance(task.schema, GridSchema)
        assert bench.brute_solve_task(task) == [task.gold]

    @pytest.mark.parametrize(
        "bad_clue",
        [
            {"kind": "FixedPosition", "attribute": "name", "value": "Arnold", "house": 0},
            {"kind": "FixedPosition", "attribute": "name", "value": "Zed", "house": 1},
            {"kind": "SameHouse", "attribute_a": "name", "value_a": "Arnold",
             "attribute_b": "colour", "value_b": "red"},
        ],
    )
    def test_grid_clue_outside_schema_becomes_reject(self, tmp_path, bad_clue):
        record = grid_record()
        record["clues"].append(bad_clue)
        path = write_suite(tmp_path, [grid_record(), record])
        tasks, rejects = bench.load_tasks(path, "grid")
        assert len(tasks) == 1
        assert [r.line for r in rejects] == [2]

    def test_line_separator_inside_a_record_does_not_split_it(self, tmp_path):
        records = [mcq_record(id="t1"), {**mcq_record(id="t2"), "statement": "Pick\u2028one\u2029now."}]
        path = tmp_path / "suite.jsonl"
        path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records) + "{broken\n",
            encoding="utf-8",
        )
        tasks, rejects = bench.load_tasks(path, "mcq")
        assert [task.statement for task in tasks] == ["Pick one.", "Pick\u2028one\u2029now."]
        assert [r.line for r in rejects] == [3]

    @pytest.mark.parametrize(
        "change",
        [
            {"clues": {}},
            {"gold": {h: [[a, v] for a, v in cells.items()] for h, cells in grid_record()["gold"].items()}},
            {"clues": [{"kind": "FixedPosition", "attribute": "name", "value": "Eric", "house": True}]},
            {"suite": None},
            {"id": None},
        ],
        ids=["object-clues", "cell-pairs-gold", "bool-house", "null-suite", "null-id"],
    )
    def test_field_no_longer_coerced_becomes_reject(self, tmp_path, change):
        record = {**grid_record(), **change}
        tasks, rejects = bench.load_tasks(write_suite(tmp_path, [grid_record(), record]), "grid")
        assert len(tasks) == 1
        assert [r.line for r in rejects] == [2]
        assert rejects[0].reason.startswith("SchemaMismatch: ")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptySuite):
            bench.load_tasks(path, "mcq")

    def test_unknown_format_rejected(self, tmp_path):
        path = write_suite(tmp_path, [mcq_record()])
        with pytest.raises(ValueError):
            bench.load_tasks(path, "sonnet")


class TestScore:
    def test_mcq(self):
        task = bench._task_from_record(mcq_record(), "mcq")
        assert bench.score(task, "The correct answer is (A)").correct
        verdict = bench.score(task, "The correct answer is (B)")
        assert not verdict.correct and verdict.partial == 0.0
        assert bench.score(task, "who knows").failure == "NoAnswerFound"

    def test_grid_partial_credit(self):
        from atomic_reasoner import answers

        task, gold = bench.gen_puzzle(3, 3, 2)
        full = bench.score(task, answers.format_grid_answer(task.schema, gold))
        assert full.correct and full.partial == 1.0
        # swap two names: 2 name cells wrong out of 6 total cells
        wrong = {h: dict(cells) for h, cells in gold.items()}
        wrong[1]["name"], wrong[2]["name"] = wrong[2]["name"], wrong[1]["name"]
        partial = bench.score(task, answers.format_grid_answer(task.schema, wrong))
        assert not partial.correct
        assert partial.partial == pytest.approx(4 / 6)

    def test_grid_missing_cells_count_as_wrong(self):
        task, gold = bench.gen_puzzle(4, 3, 2)
        text = f"Solution:\n- House 1: {gold[1]['name']}\n"
        verdict = bench.score(task, text)
        assert verdict.partial == pytest.approx(1 / 6)

    def test_numeric(self):
        task = bench._task_from_record(
            {"id": "n", "statement": "Add.", "gold": "3.5"}, "numeric"
        )
        assert bench.score(task, "the total is 7/2").correct
        assert not bench.score(task, "the total is 3.4").correct
        thousand = bench._task_from_record({"id": "k", "statement": "Add.", "gold": "1000"}, "numeric")
        assert bench.score(thousand, "The answer is 1,000.").correct
        assert bench.score(thousand, "\\boxed{1,000}").correct
        exponent = bench._task_from_record({"id": "e", "statement": "Scale.", "gold": "1e5"}, "numeric")
        assert bench.score(exponent, "100000").correct
        assert not bench.score(exponent, "5").correct
        ratio = bench._task_from_record({"id": "r", "statement": "Halve.", "gold": "15/4"}, "numeric")
        assert bench.score(ratio, "7.5/2").correct


class TestOneReader:
    """``answers.is_complete`` and ``score`` judge one reading of a text: an
    answer complete enough to end a session scores correct against a gold
    that is its own reading."""

    NOISE = ["", "So ", "Checked every clue.\n", "(Z) is out; ", "**", "  \n", "1, 2 and 3. "]

    def mcq_text(self, rng, schema):
        letter = rng.choice(answers.option_letters(schema) + ["Q", "b"])
        form = rng.choice(
            [
                "The correct answer is ({})",
                "the correct answer is **{}**",
                "({})",
                "I pick {}",
                "THE CORRECT ANSWER IS: {}",
            ]
        )
        return rng.choice(self.NOISE) + form.format(letter) + rng.choice(self.NOISE)

    def grid_text(self, rng, schema):
        grid = {h: {} for h in range(1, schema.houses + 1)}
        for name, values in schema.attributes:
            for house, value in zip(grid, rng.sample(values, len(values))):
                grid[house][name] = value
        lines = answers.format_grid_answer(schema, grid).splitlines()
        edit = rng.randrange(5)
        if edit == 0:
            del lines[rng.randrange(1, len(lines))]
        elif edit == 1:
            lines = [line.upper().replace("-", " ") for line in lines]
        elif edit == 2:
            house = rng.randrange(1, len(lines))
            lines[house] = lines[house].replace(grid[house][schema.attribute_names[0]], "Zed")
        elif edit == 3:
            lines = ["Solution:", "- House 1: nobody"] + rng.choice(self.NOISE).splitlines() + lines
        return rng.choice(self.NOISE) + "\n".join(lines)

    def numeric_text(self, rng, schema):
        number = rng.choice(
            ["42", "-7", "+3.50", "1,000", "12,345.60", "2/4", "-1/3", "0.0", "5/0", "x 5", "1 000", "abc"]
            + [""]
        )
        form = rng.choice(["{}", "\\boxed{{{}}}", "the total is {}.", "{} apples"])
        return rng.choice(self.NOISE) + form.format(number) + rng.choice(self.NOISE)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_complete_answer_scores_correct_against_its_own_reading(self, seed):
        rng = random.Random(2500 + seed)
        names = ["Arnold", "Eric", "Peter", "Alice"]
        foods = ["grilled cheese", "ice-cream", "pizza", "stir fry"]
        houses = rng.randrange(2, 5)
        options = tuple(f"({c}) option" for c in "ABCDEFG"[: rng.randrange(2, 8)])
        grid = GridSchema(
            houses=houses, attributes=(("name", tuple(names[:houses])), ("food", tuple(foods[:houses])))
        )
        kinds = [
            (MultipleChoice(options=options), self.mcq_text),
            (grid, self.grid_text),
            (Numeric(), self.numeric_text),
        ]
        complete = 0
        for schema, make in kinds:
            for _ in range(100):
                text = make(rng, schema)
                assert not answers.is_complete(FreeText(), answers.extract(FreeText(), text))
                gold = answers.extract(schema, text)
                if answers.is_complete(schema, gold):
                    complete += 1
                    task = bench.Task(id="t", statement="s", schema=schema, gold=gold)
                    assert bench.score(task, text).correct, (schema, text)
        assert 50 < complete < 250


class TestOracle:
    def test_oracle_backend_drives_full_pipeline_to_gold(self):
        task, gold = bench.gen_puzzle(11, 3, 3)
        config = router.SessionConfig()
        tree, final = router.run_session(
            task.to_problem(),
            config=config,
            backends=bench.oracle_session_backend(task),
            sop_registry=sop.builtin_registry(),
        )
        assert bench.score(task, final.text).correct

    def test_oracle_rejects_ambiguous_task(self):
        task, _ = bench.gen_puzzle(5, 3, 2)
        task.clues = task.clues[:1]  # now under-constrained
        with pytest.raises(ValueError):
            bench.oracle_session_backend(task)


class TestOneAnswerRead:
    """A session that ends on its checked ending step carries the answer it
    read there; one that asks ``finalize`` carries none, and its text is
    read when scored.  Either way a trial reads each text once."""

    def sessions(self):
        """(task, backend, config, the texts a trial reads); only the first
        session ends on its checked ending step."""
        grid, _ = bench.gen_puzzle(11, 3, 3)
        numeric = bench._task_from_record({"id": "n", "statement": "Add.", "gold": "1000"}, "numeric")
        finishing = {
            "routing": "ACTION: SUMMARY<FINISHED>\nGUIDANCE: State the answer.",
            "solve": "So the total is 1e5000.",
            "check": "Check Result: No error.",
            "summarize": "The total is \\boxed{1000}.",
        }
        capped = {**finishing, "routing": "ACTION: PremiseDiscovery\nGUIDANCE: List the numbers."}
        ending = answers.format_grid_answer(grid.schema, bench.brute_solve_task(grid)[0])
        return [
            (grid, bench.oracle_session_backend(grid), router.SessionConfig(), [f"All clues verified again.\n{ending}"]),
            (numeric, ScriptedBackend(finishing), router.SessionConfig(), [finishing["solve"], finishing["summarize"]]),
            (numeric, ScriptedBackend(capped), router.SessionConfig(max_rounds=2), [capped["summarize"]]),
        ]

    def test_final_answer_carries_the_read_answer_only_from_a_checked_ending(self):
        for checked, (task, backend, config, texts) in zip((True, False, False), self.sessions()):
            _, final = router.run_session(task.to_problem(), config=config, backends=backend.fresh())
            assert final.text == texts[-1]
            if checked:
                assert final.answer == answers.extract(task.schema, final.text) is not None
            else:
                assert final.answer is None
            assert bench.score(task, final.text, final.answer).correct

    def test_a_trial_reads_each_text_once(self, monkeypatch):
        reads = []
        extract = answers.extract
        monkeypatch.setattr(answers, "extract", lambda schema, text: reads.append(text) or extract(schema, text))
        for task, backend, config, texts in self.sessions():
            reads.clear()
            report = bench.run_benchmark([task], "ar", backend, trials=1, session_config=config)
            assert report.results[0].verdict.correct
            assert reads == texts, task.id


class TestRunBenchmark:
    def make_tasks(self, n=4):
        return [bench.gen_puzzle(seed, 3, 2)[0] for seed in range(n)]

    def oracle_config(self):
        return router.SessionConfig()

    def test_ar_strategy_with_backend_factory(self):
        tasks = self.make_tasks()
        report = bench.run_benchmark(
            tasks,
            "ar",
            lambda task: bench.oracle_session_backend(task),
            trials=2,
            workers=2,
            session_config=self.oracle_config(),
            sop_registry=sop.builtin_registry(),
        )
        assert report.mean_success() == 1.0
        assert len(report.results) == len(tasks) * 2
        assert report.completion_tokens > 0

    def test_report_token_totals_are_the_sums_over_its_results(self):
        verdict = bench.Verdict(correct=True, partial=1.0)
        results = [
            bench.TrialResult("t", trial, verdict, prompt_tokens=prompt, completion_tokens=completion)
            for trial, (prompt, completion) in enumerate([(3, 1), (5, 2), (0, 7)], start=1)
        ]
        report = bench.BenchReport(suite="s", strategy="ar", trials=3, results=results)
        assert (report.prompt_tokens, report.completion_tokens) == (8, 10)
        assert report.to_json()["usage"] == {"prompt_tokens": 8, "completion_tokens": 10, "wall_time_s": 0.0}

    def test_trials_deterministic_backend_identical_verdicts(self):
        tasks = self.make_tasks(2)
        report = bench.run_benchmark(
            tasks,
            "ar",
            lambda task: bench.oracle_session_backend(task),
            trials=3,
            workers=1,
            session_config=self.oracle_config(),
            sop_registry=sop.builtin_registry(),
        )
        by_task = {}
        for r in report.results:
            by_task.setdefault(r.task_id, []).append(r.verdict.correct)
        assert all(len(set(v)) == 1 for v in by_task.values())

    def test_single_pass_strategy_scores_its_completion(self):
        task = bench._task_from_record(mcq_record(), "mcq")
        backend = ScriptedBackend({"solve": "The correct answer is (A)"})
        report = bench.run_benchmark([task], "single-pass", backend, trials=2, workers=1)
        assert report.mean_success() == 1.0

    def test_each_trial_replays_a_scripted_instance_from_the_start(self):
        case1 = cases.load_case("case1")
        backend = case1.backend()
        report = bench.run_benchmark([case1.task], "ar", backend, trials=2, workers=1)
        assert [r.verdict.failure for r in report.results] == [None, None]
        assert report.mean_success() == 1.0
        assert backend.calls == []  # each trial asked its own copy

    def test_backend_failure_becomes_verdict_not_crash(self):
        task = bench._task_from_record(mcq_record(), "mcq")
        report = bench.run_benchmark([task], "ar", ScriptedBackend({}), trials=1, workers=1)
        assert report.results[0].verdict.failure == "BackendFailure"
        assert report.mean_success() == 0.0

    def test_report_json_aggregates_by_split(self):
        tasks = [bench.gen_puzzle(0, 3, 2)[0], bench.gen_puzzle(1, 4, 2)[0]]
        assert {t.split for t in tasks} == {"easy", "hard"}
        report = bench.run_benchmark(
            tasks,
            "ar",
            lambda task: bench.oracle_session_backend(task),
            trials=1,
            workers=1,
            session_config=self.oracle_config(),
            sop_registry=sop.builtin_registry(),
        )
        payload = report.to_json()
        assert [r.split for r in report.results] == ["easy", "hard"]
        assert payload["aggregates"]["overall"] == 1.0
        assert payload["aggregates"]["easy"] == 1.0
        assert payload["aggregates"]["hard"] == 1.0

    def test_trials_of_one_task_run_side_by_side(self):
        task = bench._task_from_record(mcq_record(), "mcq")
        barrier = threading.Barrier(2, timeout=5)

        def factory(task):
            barrier.wait()  # breaks unless both trials run at once
            return ScriptedBackend({"solve": "The correct answer is (A)"})

        report = bench.run_benchmark([task], "single-pass", factory, trials=2, workers=2)
        assert [r.trial for r in report.results] == [1, 2]
        assert report.mean_success() == 1.0

    def test_results_task_major_when_trials_finish_out_of_order(self):
        tasks = [bench._task_from_record(mcq_record(id=f"t{i}"), "mcq") for i in range(3)]
        lock = threading.Lock()
        starts = {task.id: 0 for task in tasks}
        finished = []

        def factory(task):
            with lock:
                start = starts[task.id]
                starts[task.id] += 1
            index = 2 * int(task.id[1:]) + start
            time.sleep(0.06 * (5 - index))  # earlier items finish later

            def answer(request):
                with lock:
                    finished.append((task.id, start))
                return "The correct answer is (A)"

            return ScriptedBackend({}, default=answer)

        report = bench.run_benchmark(tasks, "single-pass", factory, trials=2, workers=3)
        assert [(r.task_id, r.trial) for r in report.results] == [
            (f"t{i}", trial) for i in range(3) for trial in (1, 2)
        ]
        assert report.mean_success() == 1.0
        # the second trial of t0 to start finished first, so the trials overlapped
        assert finished.index(("t0", 1)) < finished.index(("t0", 0))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bench.run_benchmark([], "ar", ScriptedBackend({}), trials=0)
        with pytest.raises(ValueError):
            bench.run_benchmark([], "mcts", ScriptedBackend({}))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        task = bench._task_from_record(mcq_record(), "mcq")
        backend = ScriptedBackend({"solve": "The correct answer is (A)"})
        with pytest.raises(ValueError, match="workers"):
            bench.run_benchmark([task], "single-pass", backend, trials=2, workers=workers)


class TestHostileFinalAnswers:
    """Final answers built to break the reader: numbers past the exponent
    limit or the integer-string limit, a "Solution:" block followed by
    "resolution:", and unpaired surrogates.  Each trial ends in a verdict."""

    GRID_TASK, GRID_GOLD = bench.gen_puzzle(0, 3, 2)
    NUMERIC = [
        ("1e5000", None),
        ("1e-5000", None),
        ("\\boxed{1e999999999}", None),
        ("1" * 5000, None),
        ("9" * 4000 + "e4000", False),
        ("It is 1e5000.", None),
        ("the total is 1,000 \\boxed{-+1e5000}", None),
    ]

    def tasks_and_replies(self):
        numeric = bench._task_from_record({"id": "n", "statement": "Add.", "gold": "1000"}, "numeric")
        mcq = bench._task_from_record(mcq_record(id="m"), "mcq")
        free = bench.Task(id="f", statement="Name it.", schema=FreeText(), gold="zebra \ud83d")
        block = answers.format_grid_answer(self.GRID_TASK.schema, self.GRID_GOLD)
        cases = [(numeric, text, correct) for text, correct in self.NUMERIC]
        cases += [
            (self.GRID_TASK, f"{block}\nConflict resolution: none.", True),
            (self.GRID_TASK, f"{block}\nresolution:\n\ud800", True),
            (mcq, "The correct answer is (A) \ud83d", True),
            (mcq, "\udc00 (B) \ud800", False),
            (free, "zebra \ud83d", True),
            (free, "\ud800", False),
        ]
        return cases

    def test_single_pass_trials_each_return_a_verdict(self):
        started = time.monotonic()
        for task, text, correct in self.tasks_and_replies():
            report = bench.run_benchmark([task], "single-pass", ScriptedBackend({"solve": text}), trials=1)
            verdict = report.results[0].verdict
            if correct is None:
                assert verdict.failure == "NoAnswerFound", text[:40]
            else:
                assert verdict.correct is correct and verdict.failure is None, text[:40]
        assert time.monotonic() - started < 2

    def test_sessions_ending_in_them_finish_and_score(self):
        """Each session's carried answer, where it read one, is what
        ``answers.extract`` reads from its text, and scores as the text."""
        started = time.monotonic()
        carried = 0
        for task, text, correct in self.tasks_and_replies():
            backend = ScriptedBackend(
                {
                    "routing": "ACTION: SUMMARY<FINISHED>\nGUIDANCE: State the answer.",
                    "solve": text,
                    "check": "Check Result: No error.",
                    "summarize": text,
                }
            )
            tree, final = router.run_session(task.to_problem(), backends=backend)
            verdict = bench.score(task, final.text, final.answer)
            assert isinstance(verdict, bench.Verdict)
            assert (verdict.failure == "NoAnswerFound") if correct is None else (verdict.correct is correct)
            assert verdict == bench.score(task, final.text)
            if final.answer is not None:
                carried += 1
                assert final.answer == answers.extract(task.schema, final.text)
        assert carried == 5  # the complete grid, mcq and numeric endings
        assert time.monotonic() - started < 2

    def test_a_checked_ending_past_the_exponent_limit_goes_to_finalize(self):
        task = bench._task_from_record({"id": "n", "statement": "Add.", "gold": "1000"}, "numeric")
        backend = ScriptedBackend(
            {
                "routing": "ACTION: SUMMARY<FINISHED>\nGUIDANCE: State the answer.",
                "solve": "So the total is 1e5000.",
                "check": "Check Result: No error.",
                "summarize": "The total is \\boxed{1000}.",
            }
        )
        tree, final = router.run_session(task.to_problem(), backends=backend)
        assert [call.tag for call in backend.calls][-1] == "summarize"
        assert final.text == "The total is \\boxed{1000}."
        assert bench.score(task, final.text).correct
