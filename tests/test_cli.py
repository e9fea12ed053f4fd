import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from atomic_reasoner import bench, cli, errors, metrics, model
from atomic_reasoner.model import FreeText, Problem

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv):
    return cli.main(argv)


def piped(data: bytes):
    """Standard input as a pipe reaches ``sys.stdin``: a text layer over the bytes."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def stdin_script(tmp_path):
    """A script file for a four-round session that answers 4."""
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
    return script


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
        script.write_text("{}", encoding="utf-8")
        code = run_cli(
            ["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("text", ["[]", '["ACTION: TERMINATE"]', '"ACTION: TERMINATE"'])
    def test_script_that_is_not_an_object_is_usage_error(self, tmp_path, text):
        problem = tmp_path / "p.txt"
        problem.write_text("what is 2+2?", encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text(text, encoding="utf-8")
        code = run_cli(
            ["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "script",
        [{"routing": 5}, {"routing": None}, {"routing": ["ACTION: TERMINATE", 5]}, {"solve": {"a": "b"}}],
        ids=["number", "null", "list-with-a-number", "object"],
    )
    def test_script_value_that_is_not_text_is_usage_error(self, tmp_path, capsys, script):
        problem = tmp_path / "p.txt"
        problem.write_text("what is 2+2?", encoding="utf-8")
        script_path = tmp_path / "s.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        code = run_cli(
            ["solve", str(problem), "--script", str(script_path), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize(
        "field, value",
        [("statement", 12345), ("options", "(A) yes (B) no")],
        ids=["numeric-statement", "string-options"],
    )
    def test_wrongly_typed_task_field_is_io_error(self, tmp_path, capsys, field, value):
        record = {"format": "mcq", "statement": "Pick one.", "options": ["(A) x", "(B) y"], "gold": "A"}
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({**record, field: value}), encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text("{}", encoding="utf-8")
        code = run_cli(
            ["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("i/o error: ")

    @pytest.mark.parametrize(
        "change",
        [{"gold": [1, 2]}, {"clues": ["x"]}, {"suite": 7}],
        ids=["list-gold", "string-clue", "numeric-suite"],
    )
    def test_malformed_grid_task_is_io_error(self, tmp_path, capsys, change):
        record = {"format": "grid", **bench.task_to_record(bench.gen_puzzle(0, 3, 2)[0], "grid"), **change}
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(record), encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text("{}", encoding="utf-8")
        code = run_cli(
            ["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_broken_task_json_is_io_error(self, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text("{not json", encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text("{}", encoding="utf-8")
        code = run_cli(
            ["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["genpuzzles", "--houses", "9"], "houses"),
            (["genpuzzles", "--attributes", "5"], "attributes"),
            (["solve", "{problem}", "--max-rounds", "1"], "max_rounds"),
            (["bench", "{suite}", "--trials", "0"], "--trials"),
            (["bench", "{suite}", "--max-chains", "0"], "max_chains"),
        ],
        ids=[
            "genpuzzles-houses",
            "genpuzzles-attributes",
            "solve-max-rounds",
            "bench-trials",
            "bench-max-chains",
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flags, named):
        problem = tmp_path / "p.txt"
        problem.write_text("what is 2+2?", encoding="utf-8")
        suite = tmp_path / "suite.jsonl"
        suite.write_text(
            json.dumps({"statement": "Pick.", "options": ["(A) y", "(B) n"], "gold": "A"}) + "\n",
            encoding="utf-8",
        )
        script = tmp_path / "s.json"
        script.write_text(json.dumps({"solve": "The correct answer is (A)"}), encoding="utf-8")
        argv = [flag.format(problem=problem, suite=suite) for flag in flags]
        if argv[0] != "genpuzzles":
            argv += ["--script", str(script)]
        if argv[0] == "bench":
            argv += ["--format", "mcq", "--strategy", "single-pass"]
        assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bench_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        suite = tmp_path / "suite.jsonl"
        suite.write_text(
            json.dumps({"statement": "Pick.", "options": ["(A) y", "(B) n"], "gold": "A"}) + "\n",
            encoding="utf-8",
        )
        script = tmp_path / "s.json"
        script.write_text(json.dumps({"solve": "The correct answer is (A)"}), encoding="utf-8")
        argv = ["bench", str(suite), "--format", "mcq", "--strategy", "single-pass",
                "--script", str(script), "--workers", workers, "--out", str(tmp_path / "o")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--workers" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "record",
        [
            {"statement": "Pick.", "options": ["(A) y", "(B) n"], "gold": "A"},
            {"format": "mcq", "statement": "Pick.", "options": ["(A) y", "(B) n"], "gold": "C"},
            {"format": "mcq", "statement": "Pick.", "gold": "A"},
            ["not", "a", "record"],
        ],
        ids=["no-format", "gold-not-an-option", "no-options", "not-an-object"],
    )
    def test_malformed_task_file_is_io_error(self, tmp_path, capsys, record):
        problem = tmp_path / "task.json"
        problem.write_text(json.dumps(record), encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text("{}", encoding="utf-8")
        code = run_cli(["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"i/o error: {problem}: not a task record")

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"statement": "Pick."}, "format is missing"),
            ({"format": ["mcq"], "statement": "Pick."}, "format is not a string"),
            ({"format": "essay", "statement": "Pick."}, "unknown format 'essay'"),
            (["not", "a", "record"], "not an object"),
        ],
        ids=["no-format", "list-format", "unknown-format", "not-an-object"],
    )
    def test_task_record_without_a_known_format_names_the_field(self, tmp_path, capsys, record, message):
        problem = tmp_path / "task.json"
        problem.write_text(json.dumps(record), encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text("{}", encoding="utf-8")
        assert run_cli(["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")]) == 3
        assert f"task record: {message}" in capsys.readouterr().err

    def test_task_record_reason_is_printed_once(self, tmp_path, capsys):
        problem = tmp_path / "task.json"
        problem.write_text(json.dumps({"statement": "Pick."}), encoding="utf-8")
        script = tmp_path / "s.json"
        script.write_text("{}", encoding="utf-8")
        assert run_cli(["solve", str(problem), "--script", str(script), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"i/o error: {problem}: not a task record: format is missing\n"

    @pytest.mark.parametrize("text", ["[1, 2]", '"correct"', "null"])
    def test_meta_sidecar_that_is_not_an_object_is_io_error(self, tmp_path, capsys, text):
        traces = tmp_path / "traces"
        traces.mkdir()
        tree = model.new_tree(Problem(id="q", statement="A puzzle.", answer_schema=FreeText()))
        (traces / "q.trace.json").write_text(metrics.serialize_trace(tree), encoding="utf-8")
        meta = traces / "q.meta.json"
        meta.write_text(text, encoding="utf-8")
        assert run_cli(["synth", str(traces), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(f"i/o error: {meta}: not an object")

    @pytest.mark.parametrize("suite", ["1", "null", '["grid"]', '{"name": "grid"}'])
    def test_meta_sidecar_suite_that_is_not_a_string_is_io_error(self, tmp_path, capsys, suite):
        traces = tmp_path / "traces"
        traces.mkdir()
        tree = model.new_tree(Problem(id="q", statement="A puzzle.", answer_schema=FreeText()))
        (traces / "q.trace.json").write_text(metrics.serialize_trace(tree), encoding="utf-8")
        meta = traces / "q.meta.json"
        meta.write_text(f'{{"correct": true, "suite": {suite}}}', encoding="utf-8")
        assert run_cli(["synth", str(traces), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(f"i/o error: {meta}: suite is not a string")

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

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_replay_backend_with_cache_record_is_usage_error(self, tmp_path, capsys, command):
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({"id": "t", "statement": "what is 2+2?", "gold": "4"}) + "\n")
        args = [str(suite), "--format", "numeric", "--trials", "1"] if command == "bench" else [str(suite)]
        store = tmp_path / "cache"
        code = run_cli(
            [command, *args, "--backend", "replay", "--cache", "record", "--cache-dir", str(store),
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--backend replay" in err and "--cache record" in err
        assert not store.exists() and not (tmp_path / "o").exists()

    def test_replay_backend_takes_cache_replay(self, tmp_path):
        problem = tmp_path / "p.txt"
        problem.write_text("what is 2+2?", encoding="utf-8")
        code = run_cli(
            ["solve", str(problem), "--backend", "replay", "--cache", "replay",
             "--cache-dir", str(tmp_path / "empty-cache"), "--out", str(tmp_path / "o")]
        )
        assert code == 2  # accepted, then a cache miss

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

    def test_task_and_script_files_may_start_with_a_byte_order_mark(self, case_files, tmp_path):
        task_path, script_path = case_files("case1")
        for path in (task_path, script_path):
            path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        code = run_cli(["solve", str(task_path), "--script", str(script_path), "--out", str(tmp_path / "run")])
        assert code == 0

    @pytest.mark.parametrize("site", ["problem-text", "sop-files", "inspect-trace", "synth-trace"])
    def test_every_text_file_may_start_with_a_byte_order_mark(self, case_files, tmp_path, capsys, site):
        _, script_path = case_files("case1")
        problem = tmp_path / "p.txt"
        problem.write_text("Which bird is second from the right?", encoding="utf-8")
        sops = tmp_path / "sops"
        sops.mkdir()
        for file in (resources.files("atomic_reasoner") / "data" / "sops").iterdir():
            (sops / file.name).write_text(file.read_text(encoding="utf-8"), encoding="utf-8")
        for path in {"problem-text": [problem], "sop-files": sorted(sops.glob("*.sop"))}.get(site, []):
            path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "run"
        argv = ["solve", str(problem), "--script", str(script_path), "--sop-dir", str(sops), "--out", str(out)]
        assert run_cli(argv) == 0
        trace = out / "p.trace.json"
        tree = metrics.deserialize_trace(trace.read_text(encoding="utf-8"))
        assert tree.problem.statement == "Which bird is second from the right?"
        trace.write_text("\ufeff" + trace.read_text(encoding="utf-8"), encoding="utf-8")
        if site == "inspect-trace":
            assert run_cli(["inspect", str(trace)]) == 0
        elif site == "synth-trace":
            assert run_cli(["synth", str(out), "--filter", "all", "--out", str(tmp_path / "sft")]) == 0
        capsys.readouterr()

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
        monkeypatch.setattr("sys.stdin", piped(b"what is 2+2?"))
        code = run_cli(["solve", "--stdin", "--script", str(stdin_script(tmp_path)), "--out", str(tmp_path / "o")])
        assert code == 0
        assert capsys.readouterr().out.rstrip().endswith("The answer is 4.")

    def test_stdin_problem_drops_a_piped_byte_order_mark(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", piped(b"\xef\xbb\xbfWhat is 2+2?"))
        out = tmp_path / "o"
        assert run_cli(["solve", "--stdin", "--script", str(stdin_script(tmp_path)), "--out", str(out)]) == 0
        tree = metrics.deserialize_trace((out / "stdin.trace.json").read_text(encoding="utf-8"))
        assert tree.problem.statement == "What is 2+2?"
        capsys.readouterr()


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
        decode = errors._decode  # every outside read goes through it

        def counting(data, source):
            if source == str(script_path):
                reads.append(source)
            return decode(data, source)

        monkeypatch.setattr(errors, "_decode", counting)
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


class TestOutsideText:
    """Text read from outside files and standard input: an unpaired surrogate
    escape reads as U+FFFD, and input that is not UTF-8 exits 3 naming its
    source."""

    SUM_TASK = {"id": "n", "statement": "Add 2 and 2 \ud800.", "gold": "4"}

    def test_solve_script_with_an_unpaired_surrogate_keeps_the_trace(self, tmp_path, capsys):
        script = stdin_script(tmp_path)
        script.write_text(
            json.dumps({**json.loads(script.read_text(encoding="utf-8")), "solve": "x \ud800"}), encoding="utf-8"
        )
        assert "\\ud800" in script.read_text(encoding="utf-8")
        problem = tmp_path / "p.txt"
        problem.write_text("What is 2 + 2?", encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli(["solve", str(problem), "--script", str(script), "--out", str(out)]) == 0
        tree = metrics.deserialize_trace((out / "p.trace.json").read_text(encoding="utf-8"))
        assert {node.content for node in tree.nodes.values()} == {"x \ufffd"}
        assert (out / "p.meta.json").exists()
        capsys.readouterr()

    def test_solve_task_with_an_unpaired_surrogate_keeps_the_trace(self, tmp_path, capsys):
        task = tmp_path / "n.json"
        task.write_text(json.dumps({"format": "numeric", **self.SUM_TASK}), encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli(["solve", str(task), "--script", str(stdin_script(tmp_path)), "--out", str(out)]) == 0
        tree = metrics.deserialize_trace((out / "n.trace.json").read_text(encoding="utf-8"))
        assert tree.problem.statement == "Add 2 and 2 \ufffd."
        assert json.loads((out / "n.meta.json").read_text(encoding="utf-8"))["correct"] is True
        capsys.readouterr()

    def test_bench_suite_with_an_unpaired_surrogate_records_its_cache(self, tmp_path, capsys):
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps(self.SUM_TASK) + "\n", encoding="utf-8")
        cache, out = tmp_path / "cache", tmp_path / "o"
        argv = ["bench", str(suite), "--format", "numeric", "--trials", "1", "--script", str(stdin_script(tmp_path))]
        assert run_cli(argv + ["--cache", "record", "--cache-dir", str(cache), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["aggregates"]["overall"] == 1.0
        assert any(cache.iterdir())
        capsys.readouterr()

    def test_trace_and_sidecar_with_an_unpaired_surrogate_read_as_replacement(self, case_files, tmp_path, capsys):
        task, script = case_files("case1")
        traces = tmp_path / "traces"
        assert run_cli(["solve", str(task), "--script", str(script), "--out", str(traces)]) == 0
        trace = traces / "case1.trace.json"
        data = json.loads(trace.read_text(encoding="utf-8"))
        first = data["chains"][data["active_chain"]]["node_ids"][0]
        data["nodes"][first]["content"] += " \ud800"
        trace.write_text(json.dumps(data), encoding="utf-8")
        (traces / "case1.meta.json").write_text(json.dumps({"correct": True, "suite": "s \ud800"}), encoding="utf-8")
        assert "\\ud800" in trace.read_text(encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["inspect", str(trace)]) == 0
        assert " \ufffd" in capsys.readouterr().out
        out = tmp_path / "o"
        assert run_cli(["synth", str(traces), "--out", str(out)]) == 0
        record = json.loads((out / "sft.jsonl").read_text(encoding="utf-8"))
        assert " \ufffd" in record["reasoning"] and record["meta"]["suite"] == "s \ufffd"
        capsys.readouterr()

    @pytest.mark.parametrize("utf8_mode", ["0", "1"])
    def test_stdin_that_is_not_utf8_exits_3_under_either_utf8_mode(self, tmp_path, utf8_mode):
        out = tmp_path / "o"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONUTF8": utf8_mode, "LC_ALL": "C", "PYTHONPATH": path}
        argv = ["solve", "--stdin", "--script", str(stdin_script(tmp_path)), "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "atomic_reasoner.cli", *argv],
            input=b"abc\xff puzzle", capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.endswith(b"i/o error: <stdin>: not UTF-8: invalid start byte at byte 3\n")
        assert not out.exists()

    SITES = [
        "problem", "task", "script", "sop", "suite", "bench-script", "inspect-trace", "synth-trace", "sidecar", "stdin"
    ]

    @pytest.mark.parametrize("bad", [b"\xed\xa0\x80", b"\xff"], ids=["encoded-surrogate", "ff"])
    @pytest.mark.parametrize("site", SITES)
    def test_a_file_that_is_not_utf8_is_io_error_naming_it(self, case_files, tmp_path, capsys, monkeypatch, site, bad):
        task, script = case_files("case1")
        problem = tmp_path / "p.txt"
        problem.write_text("Which bird is second from the right?", encoding="utf-8")
        sops = tmp_path / "sops"
        sops.mkdir()
        for file in (resources.files("atomic_reasoner") / "data" / "sops").iterdir():
            (sops / file.name).write_text(file.read_text(encoding="utf-8"), encoding="utf-8")
        suite = tmp_path / "suite.jsonl"
        suite.write_text(task.read_text(encoding="utf-8").replace("\n", " ") + "\n", encoding="utf-8")
        traces = tmp_path / "traces"
        assert run_cli(["solve", str(task), "--script", str(script), "--out", str(traces)]) == 0
        out = str(tmp_path / "o")
        solve = ["solve", str(problem), "--script", str(script), "--sop-dir", str(sops), "--out", out]
        bench = ["bench", str(suite), "--format", "mcq", "--trials", "1", "--script", str(script), "--out", out]
        target, argv = {
            "problem": (problem, solve),
            "task": (task, ["solve", str(task), "--script", str(script), "--out", out]),
            "script": (script, solve),
            "sop": (sops / "default.sop", solve),
            "suite": (suite, bench),
            "bench-script": (script, bench),
            "inspect-trace": (traces / "case1.trace.json", ["inspect", str(traces / "case1.trace.json")]),
            "synth-trace": (traces / "case1.trace.json", ["synth", str(traces), "--out", out]),
            "sidecar": (traces / "case1.meta.json", ["synth", str(traces), "--out", out]),
            "stdin": ("<stdin>", ["solve", "--stdin", "--script", str(script), "--out", out]),
        }[site]
        if site == "stdin":
            monkeypatch.setattr("sys.stdin", piped(b"What is 2+2?" + bad))
        else:
            target.write_bytes(target.read_bytes() + bad)
        capsys.readouterr()
        assert run_cli(argv) == 3
        assert capsys.readouterr().err.startswith(f"i/o error: {target}: not UTF-8: ")
        assert not list(Path(out).glob("*.trace.json"))

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply"),
            ('{"x": ' + "7" * 5000 + "}", "a number too long to read"),
        ],
        ids=["deep", "long-integer"],
    )
    @pytest.mark.parametrize("site", ["task", "bench-script", "inspect-trace", "sidecar"])
    def test_json_too_deep_or_too_long_to_read_is_io_error_naming_it(
        self, case_files, tmp_path, capsys, site, text, reason
    ):
        task, script = case_files("case1")
        suite = tmp_path / "suite.jsonl"
        suite.write_text(task.read_text(encoding="utf-8").replace("\n", " ") + "\n", encoding="utf-8")
        traces = tmp_path / "traces"
        assert run_cli(["solve", str(task), "--script", str(script), "--out", str(traces)]) == 0
        out = str(tmp_path / "o")
        target, argv = {
            "task": (task, ["solve", str(task), "--script", str(script), "--out", out]),
            "bench-script": (
                script, ["bench", str(suite), "--format", "mcq", "--trials", "1", "--script", str(script), "--out", out]
            ),
            "inspect-trace": (traces / "case1.trace.json", ["inspect", str(traces / "case1.trace.json")]),
            "sidecar": (traces / "case1.meta.json", ["synth", str(traces), "--out", out]),
        }[site]
        target.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run_cli(argv) == 3
        assert capsys.readouterr().err == f"i/o error: {target}: invalid JSON: {reason}\n"
        assert not list(Path(out).glob("*.trace.json"))


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

    def test_trace_with_a_node_list_is_io_error(self, case_files, tmp_path, capsys):
        out = self.solve_case(case_files, tmp_path, "case1")
        trace = out / "case1.trace.json"
        data = json.loads(trace.read_text(encoding="utf-8"))
        trace.write_text(json.dumps({**data, "nodes": []}), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["inspect", str(trace)]) == 3
        assert run_cli(["synth", str(out), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.count("i/o error: ") == 2

    def test_synth_names_the_trace_that_does_not_load(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        document = (Path(__file__).parent / "data" / "case1.trace.json").read_text(encoding="utf-8")
        (traces / "a.trace.json").write_text(document, encoding="utf-8")
        bad = traces / "b.trace.json"
        bad.write_text(json.dumps({**json.loads(document), "active_chain": 5}), encoding="utf-8")
        assert run_cli(["synth", str(traces), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"i/o error: {bad}: active_chain is not a string\n"

    def test_synth_names_the_meta_sidecar_that_is_not_json(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        document = (Path(__file__).parent / "data" / "case1.trace.json").read_text(encoding="utf-8")
        (traces / "a.trace.json").write_text(document, encoding="utf-8")
        meta = traces / "a.meta.json"
        meta.write_text('{"correct": true,', encoding="utf-8")
        assert run_cli(["synth", str(traces), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(f"i/o error: {meta}:1: invalid JSON: ")

    def test_synth_skips_a_trace_with_a_blank_statement(self, case_files, tmp_path, capsys):
        out = self.solve_case(case_files, tmp_path, "case1")
        trace = out / "case1.trace.json"
        data = json.loads(trace.read_text(encoding="utf-8"))
        data["problem"]["statement"] = "  "
        trace.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["synth", str(out), "--out", str(tmp_path / "o"), "--filter", "all"]) == 0
        assert "0 records" in capsys.readouterr().out

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

    @pytest.mark.parametrize("correct", ['"false"', '"true"', "1", "null"])
    def test_synth_counts_only_json_true_as_correct(self, case_files, tmp_path, capsys, correct):
        out = self.solve_case(case_files, tmp_path, "case1")
        (out / "case1.meta.json").write_text(f'{{"correct": {correct}, "suite": "mcq"}}', encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["synth", str(out), "--out", str(tmp_path / "o2")]) == 0
        assert "0 records" in capsys.readouterr().out
        assert run_cli(["synth", str(out), "--out", str(tmp_path / "o3"), "--filter", "all"]) == 0
        assert "1 records" in capsys.readouterr().out

    def test_synth_correct_only_skips_unscored_traces(self, case_files, tmp_path, capsys):
        out = self.solve_case(case_files, tmp_path, "case1")
        (out / "case1.meta.json").unlink()  # no sidecar: treated as not-correct
        capsys.readouterr()
        code = run_cli(["synth", str(out), "--out", str(tmp_path / "o2")])
        assert code == 0
        assert "0 records" in capsys.readouterr().out
