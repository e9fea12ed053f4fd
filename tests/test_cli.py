import json
from importlib import resources
from pathlib import Path

import pytest

from atomic_reasoner import cli


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture()
def case_files(tmp_path):
    """Write each packaged case study as a (task.json, script.json) pair."""

    def make(name):
        raw = (resources.files("atomic_reasoner") / "data" / "cases" / f"{name}.json").read_text(
            encoding="utf-8"
        )
        record = json.loads(raw)
        task_path = tmp_path / f"{name}.json"
        task_path.write_text(raw, encoding="utf-8")
        script_path = tmp_path / f"{name}_script.json"
        script_path.write_text(json.dumps(record["script"]), encoding="utf-8")
        return task_path, script_path

    return make


class TestExitCodes:
    def test_missing_problem_file_is_io_error(self, tmp_path, capsys):
        script = tmp_path / "s.json"
        script.write_text("{}", encoding="utf-8")
        code = run_cli(
            ["solve", str(tmp_path / "missing.txt"), "--script", str(script), "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_scripted_backend_requires_script(self, tmp_path):
        problem = tmp_path / "p.txt"
        problem.write_text("what is 2+2?", encoding="utf-8")
        assert run_cli(["solve", str(problem), "--out", str(tmp_path / "o")]) == 1

    def test_bad_choice_is_usage_error_not_argparse_exit(self, tmp_path):
        suite = tmp_path / "suite.jsonl"
        suite.write_text("{}", encoding="utf-8")
        assert run_cli(["bench", str(suite), "--strategy", "mcts"]) == 1

    def test_exhausted_script_is_backend_failure(self, tmp_path):
        problem = tmp_path / "p.txt"
        problem.write_text("what is 2+2?", encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text("[]", encoding="utf-8")
        code = run_cli(
            ["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_broken_task_json_is_io_error(self, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text("{not json", encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text("{}", encoding="utf-8")
        code = run_cli(
            ["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_replay_without_recordings_is_backend_failure(self, tmp_path):
        problem = tmp_path / "p.txt"
        problem.write_text("what is 2+2?", encoding="utf-8")
        code = run_cli(
            [
                "solve",
                str(problem),
                "--backend",
                "replay",
                "--cache-dir",
                str(tmp_path / "empty-cache"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("cache", ["off", "record"])
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_http_backend_closed_when_the_command_ends(self, tmp_path, monkeypatch, command, cache):
        from atomic_reasoner.errors import AuthError

        closed = []
        close = cli.HttpBackend.close

        def refuse(self, request):
            raise AuthError("auth failed with status 401")

        monkeypatch.setattr(cli.HttpBackend, "complete", refuse)
        monkeypatch.setattr(cli.HttpBackend, "close", lambda self: (closed.append(self), close(self)))
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({"id": "t", "statement": "what is 2+2?", "gold": "4"}) + "\n")
        args = [str(suite), "--format", "numeric", "--trials", "1"] if command == "bench" else [str(suite)]
        run_cli(
            [command, *args, "--backend", "http", "--base-url", "http://127.0.0.1:9/v1",
             "--cache", cache, "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "o")]
        )
        assert len(closed) == 1


class TestSolve:
    def test_case1_solve_prints_final_answer_last(self, case_files, tmp_path, capsys):
        task_path, script_path = case_files("case1")
        out = tmp_path / "run1"
        code = run_cli(["solve", str(task_path), "--script", str(script_path), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "rounds: 4  chains: 1" in stdout
        assert stdout.rstrip().endswith(
            "The correct answer is (A) The hummingbird is the second from the right."
        )
        assert (out / "case1.trace.json").exists()
        meta = json.loads((out / "case1.meta.json").read_text(encoding="utf-8"))
        assert meta == {"correct": True, "suite": "case-studies"}
        answer = (out / "answer.txt").read_text(encoding="utf-8")
        assert answer.rstrip().endswith("second from the right.")

    @pytest.mark.parametrize("as_task", [True, False])
    def test_backend_failure_keeps_the_partial_trace(self, case_files, tmp_path, capsys, as_task):
        from atomic_reasoner import metrics

        task_path, _ = case_files("case1")
        problem = task_path
        if not as_task:
            problem = tmp_path / "case1.txt"
            problem.write_text("Which bird is second from the right?", encoding="utf-8")
        script = tmp_path / "one-reply.json"
        script.write_text(json.dumps({"routing": ["ACTION: PremiseDiscovery\nGUIDANCE: g"]}))
        out = tmp_path / "run"
        code = run_cli(["solve", str(problem), "--script", str(script), "--out", str(out)])
        assert code == 2
        assert "backend failure" in capsys.readouterr().err
        tree = metrics.deserialize_trace((out / "case1.trace.json").read_text(encoding="utf-8"))
        assert tree.terminated is None and len(tree.nodes) == 0
        meta = json.loads((out / "case1.meta.json").read_text(encoding="utf-8"))
        assert meta == ({"correct": False, "suite": "case-studies"} if as_task else {"correct": None, "suite": ""})
        assert not (out / "answer.txt").exists()

    def test_trace_files_stay_inside_out(self, case_files, tmp_path):
        task_path, script_path = case_files("case1")
        record = json.loads(task_path.read_text(encoding="utf-8"))
        record["id"] = "../escaped"
        task_path.write_text(json.dumps(record), encoding="utf-8")
        runs = tmp_path / "runs"
        out = runs / "one"
        code = run_cli(["solve", str(task_path), "--script", str(script_path), "--out", str(out)])
        assert code == 0
        written = sorted(p.relative_to(runs).as_posix() for p in runs.rglob("*") if p.is_file())
        assert written == ["one/_escaped.meta.json", "one/_escaped.trace.json", "one/answer.txt"]

    def test_max_rounds_caps_the_trace(self, case_files, tmp_path):
        task_path, script_path = case_files("case1")
        out = tmp_path / "run2"
        code = run_cli(
            [
                "solve",
                str(task_path),
                "--script",
                str(script_path),
                "--max-rounds",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "case1.trace.json").read_text(encoding="utf-8"))
        assert len(doc["nodes"]) <= 2
        assert doc["terminated"]["mode"] == "PassiveLimit"

    def test_store_recorded_from_a_script_replays_with_default_flags(
        self, case_files, tmp_path, capsys
    ):
        task_path, script_path = case_files("case1")
        store = str(tmp_path / "store")
        code = run_cli(
            [
                "solve",
                str(task_path),
                "--script",
                str(script_path),
                "--cache",
                "record",
                "--cache-dir",
                store,
                "--out",
                str(tmp_path / "recorded"),
            ]
        )
        assert code == 0
        recorded = capsys.readouterr().out
        out = tmp_path / "replayed"
        code = run_cli(
            ["solve", str(task_path), "--backend", "replay", "--cache-dir", store, "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == recorded
        assert recorded.rstrip().endswith(
            "The correct answer is (A) The hummingbird is the second from the right."
        )
        meta = json.loads((out / "case1.meta.json").read_text(encoding="utf-8"))
        assert meta["correct"] is True

    def test_stdin_problem(self, tmp_path, capsys, monkeypatch):
        import io

        script = tmp_path / "s.json"
        script.write_text(
            json.dumps(
                {
                    "routing": [
                        "ACTION: PremiseDiscovery\nGUIDANCE: list facts",
                        "ACTION: HypothesisGeneration\nGUIDANCE: propose the sum",
                        "GUIDANCE: verify the sum",
                        "ACTION: TERMINATE",
                    ],
                    "solve": "Hypothesis 1: the answer is 4.",
                    "check": "Check Result: No error.",
                    "summarize": "The answer is 4.",
                }
            ),
            encoding="utf-8",
        )
        monkeypatch.setattr("sys.stdin", io.StringIO("what is 2+2?"))
        code = run_cli(["solve", "--stdin", "--script", str(script), "--out", str(tmp_path / "o")])
        assert code == 0
        assert capsys.readouterr().out.rstrip().endswith("The answer is 4.")


class TestBench:
    def test_single_pass_over_mcq_suite(self, tmp_path, capsys):
        suite = tmp_path / "suite.jsonl"
        records = [
            {"id": f"t{i}", "statement": "Pick.", "options": ["(A) yes", "(B) no"], "gold": "A"}
            for i in range(3)
        ]
        suite.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text(json.dumps({"solve": "The correct answer is (A)"}), encoding="utf-8")
        out = tmp_path / "bench-out"
        code = run_cli(
            [
                "bench",
                str(suite),
                "--format",
                "mcq",
                "--strategy",
                "single-pass",
                "--trials",
                "2",
                "--script",
                str(script),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["aggregates"]["overall"] == 1.0
        assert len(payload["results"]) == 6
        assert "overall: 1.000" in capsys.readouterr().out

    def _case1_suite(self, case_files, tmp_path, ids):
        task_path, script_path = case_files("case1")
        record = json.loads(task_path.read_text(encoding="utf-8"))
        suite = tmp_path / "suite.jsonl"
        suite.write_text(
            "".join(json.dumps({**record, "id": task_id}) + "\n" for task_id in ids),
            encoding="utf-8",
        )
        return task_path, script_path, suite

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_scripted_tasks_and_trials_each_get_the_whole_script(
        self, case_files, tmp_path, workers
    ):
        _, script_path, suite = self._case1_suite(case_files, tmp_path, ["t1", "t2"])
        out = tmp_path / "bench-out"
        code = run_cli(
            [
                "bench",
                str(suite),
                "--format",
                "mcq",
                "--trials",
                "2",
                "--workers",
                workers,
                "--script",
                str(script_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
        assert [(r["task_id"], r["trial"], r["correct"]) for r in results] == [
            ("t1", 1, True),
            ("t1", 2, True),
            ("t2", 1, True),
            ("t2", 2, True),
        ]

    def test_scripted_bench_reads_the_script_once(self, case_files, tmp_path, monkeypatch):
        _, script_path, suite = self._case1_suite(case_files, tmp_path, ["t1", "t2"])
        reads = []
        read_text = Path.read_text

        def counting(self, *args, **kwargs):
            if self == script_path:
                reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        out = tmp_path / "bench-out"
        code = run_cli(
            ["bench", str(suite), "--format", "mcq", "--trials", "2", "--workers", "1",
             "--script", str(script_path), "--out", str(out)]
        )
        assert code == 0
        results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
        assert [r["correct"] for r in results] == [True] * 4
        assert len(reads) == 1

    def test_scripted_trials_recording_side_by_side_store_each_answer_once(
        self, case_files, tmp_path
    ):
        task_path, script_path, suite = self._case1_suite(case_files, tmp_path, ["case1"])
        solo, shared = tmp_path / "solo-store", tmp_path / "bench-store"
        code = run_cli(
            [
                "solve",
                str(task_path),
                "--script",
                str(script_path),
                "--cache",
                "record",
                "--cache-dir",
                str(solo),
                "--out",
                str(tmp_path / "solve-out"),
            ]
        )
        assert code == 0
        out = tmp_path / "bench-out"
        code = run_cli(
            [
                "bench",
                str(suite),
                "--format",
                "mcq",
                "--trials",
                "2",
                "--workers",
                "2",
                "--script",
                str(script_path),
                "--cache",
                "record",
                "--cache-dir",
                str(shared),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
        assert [(r["trial"], r["correct"]) for r in results] == [(1, True), (2, True)]
        # every entry holds the answer a lone sequential run stored for its request
        entries = lambda store: {p.name: p.read_bytes() for p in store.iterdir()}  # noqa: E731
        assert entries(shared) == entries(solo)

    def test_rejects_reported_on_stderr(self, tmp_path, capsys):
        suite = tmp_path / "suite.jsonl"
        suite.write_text(
            json.dumps({"id": "t", "statement": "Pick.", "options": ["(A) y", "(B) n"], "gold": "A"})
            + "\nnot json\n",
            encoding="utf-8",
        )
        script = tmp_path / "s.json"
        script.write_text(json.dumps({"solve": "The correct answer is (A)"}), encoding="utf-8")
        code = run_cli(
            [
                "bench",
                str(suite),
                "--format",
                "mcq",
                "--strategy",
                "single-pass",
                "--trials",
                "1",
                "--script",
                str(script),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 0
        assert "reject line 2" in capsys.readouterr().err


class TestGenpuzzles:
    def test_writes_suite_with_count_lines(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = run_cli(["genpuzzles", "--count", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = (out / "generated_suite.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert "3 tasks" in capsys.readouterr().out
        for line in lines:
            record = json.loads(line)
            assert record["gold"] and record["clues"]

    def test_zero_count_is_usage_error(self, tmp_path):
        assert run_cli(["genpuzzles", "--count", "0", "--out", str(tmp_path / "o")]) == 1


class TestInspectAndSynth:
    def solve_case(self, case_files, tmp_path, name):
        task_path, script_path = case_files(name)
        out = tmp_path / f"traces-{name}"
        assert run_cli(["solve", str(task_path), "--script", str(script_path), "--out", str(out)]) == 0
        return out

    def test_inspect_shows_stats_and_termination(self, case_files, tmp_path, capsys):
        out = self.solve_case(case_files, tmp_path, "case2")
        capsys.readouterr()
        code = run_cli(["inspect", str(out / "case2.trace.json")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "rounds: 6  chains: 2  backtracks: 1" in stdout
        assert "termination:" in stdout

    def test_inspect_prints_the_statement_once(self, case_files, tmp_path, capsys):
        out = self.solve_case(case_files, tmp_path, "case1")
        statement = json.loads((tmp_path / "case1.json").read_text(encoding="utf-8"))["statement"]
        capsys.readouterr()
        assert run_cli(["inspect", str(out / "case1.trace.json")]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"Problem: {statement}\n\nChain 1 [")
        assert stdout.count(statement) == 1

    def test_inspect_missing_file_is_io_error(self, tmp_path):
        assert run_cli(["inspect", str(tmp_path / "nope.trace.json")]) == 3

    def test_synth_empty_dir(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        code = run_cli(["synth", str(traces), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "0 records" in capsys.readouterr().out

    def test_synth_exports_correct_trace(self, case_files, tmp_path, capsys):
        out = self.solve_case(case_files, tmp_path, "case1")
        capsys.readouterr()
        sft_out = tmp_path / "sft"
        code = run_cli(["synth", str(out), "--out", str(sft_out)])
        assert code == 0
        assert "1 records" in capsys.readouterr().out
        lines = (sft_out / "sft.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        assert "(A)" in record["answer"]

    def test_synth_correct_only_skips_unscored_traces(self, case_files, tmp_path, capsys):
        out = self.solve_case(case_files, tmp_path, "case1")
        (out / "case1.meta.json").unlink()  # no sidecar: treated as not-correct
        capsys.readouterr()
        code = run_cli(["synth", str(out), "--out", str(tmp_path / "o2")])
        assert code == 0
        assert "0 records" in capsys.readouterr().out
