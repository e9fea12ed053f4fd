"""The shape check every record read from disk passes, and a wrong-type fuzz
of the CLI's readers: each field of a trace, of a grid, an mcq and a
numeric task record, and of a meta sidecar, is set in turn to each of six
JSON values, and every command that reads the record must exit 0, 1 or 3."""

import ast
import json
from importlib import resources
from pathlib import Path

import pytest

from atomic_reasoner import bench, cli, errors
from atomic_reasoner.errors import ParseError, check_shape

WRONG_VALUES = [5, None, [], {}, "x", True]

# Enough for any session to end: finish at once, then summarize.
SCRIPT = {
    "routing": "ACTION: SUMMARY<FINISHED>\nGUIDANCE: State the answer.",
    "solve": "The answer is (A).",
    "check": "Check Result: No error.",
    "summarize": "The answer is (A).",
}


class TestCheckShape:
    @pytest.mark.parametrize(
        "value, shape",
        [
            (5, int),
            (True, bool),
            (None, None),
            (["a", "b"], [str]),
            (["a", 1], [str, int]),
            ({"x": [1], "y": []}, {str: [int]}),
            ({"a": "t", "extra": 5}, {"a": str, "b?": int}),
            (None, (str, None)),
            ({"k": 1}, ({"k": int}, None)),
        ],
    )
    def test_a_value_of_the_shape_passes(self, value, shape):
        check_shape(value, shape, "record")

    @pytest.mark.parametrize(
        "value, shape, message",
        [
            (True, int, "record: not an integer"),
            (5, bool, "record: not true or false"),
            ({"a": [1, "2"]}, {"a": [int]}, "record: a[1] is not an integer"),
            ({"a": {"b": None}}, {"a": {str: str}}, "record: a.b is not a string"),
            ({}, {"a": str}, "record: a is missing"),
            ({"b": None}, {"b?": int}, "record: b is not an integer"),
            (["a"], [str, int], "record: value does not hold 2 items"),
            ([], (str, None), "record: not a string or null"),
        ],
    )
    def test_a_value_of_another_shape_is_a_parse_error(self, value, shape, message):
        with pytest.raises(ParseError) as info:
            check_shape(value, shape, "record")
        assert str(info.value) == message


def places(value, path=()):
    """The path of every place in a JSON value, the root first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from places(item, (*path, key))


def field_of(path):
    """The field a place holds: its path with list indices, node ids and
    house numbers made alike, since the places that share one are alike."""
    return tuple(
        "*" if isinstance(key, int) or path[i - 1 : i] in (("nodes",), ("gold",)) else key
        for i, key in enumerate(path)
    )


def mutations(record):
    """``record`` with each field in turn, at its first place, set to each
    of ``WRONG_VALUES``."""
    seen = set()
    for path in places(record):
        if field_of(path) in seen:
            continue
        seen.add(field_of(path))
        for wrong in WRONG_VALUES:
            copy = json.loads(json.dumps(record))
            if not path:
                yield wrong
                continue
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = wrong
            yield copy


def run(argv):
    code = cli.main([str(arg) for arg in argv])
    assert code in (0, 1, 3), argv
    return code


@pytest.fixture(scope="module")
def case2_run(tmp_path_factory):
    """case2 solved through the CLI: its task record and the directory with
    its trace (two chains, one branched from the other) and meta sidecar."""
    root = tmp_path_factory.mktemp("case2")
    record = json.loads(
        (resources.files("atomic_reasoner") / "data" / "cases" / "case2.json").read_text(encoding="utf-8")
    )
    (root / "task.json").write_text(json.dumps(record), encoding="utf-8")
    (root / "script.json").write_text(json.dumps(record["script"]), encoding="utf-8")
    out = root / "out"
    assert run(["solve", root / "task.json", "--script", root / "script.json", "--out", out]) == 0
    return out


def test_every_wrongly_typed_trace_field_exits_cleanly(case2_run, tmp_path, capsys):
    trace = json.loads((case2_run / "case2.trace.json").read_text(encoding="utf-8"))
    assert len(trace["chains"]) == 2
    (tmp_path / "case2.meta.json").write_text('{"correct": true, "suite": "s"}', encoding="utf-8")
    path = tmp_path / "case2.trace.json"
    loaded = 0
    for doc in mutations(trace):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["inspect", path])
        assert run(["synth", tmp_path, "--filter", "all", "--out", tmp_path / "o"]) == code
        loaded += code == 0
    capsys.readouterr()
    assert loaded > 0


@pytest.mark.parametrize(
    "change",
    [{"active_chain": 5}, {"active_chain": "c9"}, {"format_version": 99}],
    ids=["numeric-active-chain", "unknown-active-chain", "version-99"],
)
def test_trace_that_does_not_load_is_io_error_for_inspect_and_synth(case2_run, tmp_path, capsys, change):
    trace = json.loads((case2_run / "case2.trace.json").read_text(encoding="utf-8"))
    path = tmp_path / "case2.trace.json"
    path.write_text(json.dumps({**trace, **change}), encoding="utf-8")
    assert cli.main(["inspect", str(path)]) == 3
    assert cli.main(["synth", str(tmp_path), "--filter", "all", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.count(f"i/o error: {path}: ") == 2


def test_every_wrongly_typed_meta_field_exits_cleanly(case2_run, tmp_path, capsys):
    meta = json.loads((case2_run / "case2.meta.json").read_text(encoding="utf-8"))
    (tmp_path / "case2.trace.json").write_text(
        (case2_run / "case2.trace.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    for doc in mutations(meta):
        (tmp_path / "case2.meta.json").write_text(json.dumps(doc), encoding="utf-8")
        run(["synth", tmp_path, "--out", tmp_path / "o"])
    capsys.readouterr()


def task_records():
    """A grid, an mcq and a numeric task record, each with its format, which
    ``solve`` reads and ``bench`` ignores."""
    grid = {"format": "grid", **bench.task_to_record(bench.gen_puzzle(0, 3, 2)[0], "grid")}
    mcq = {
        "format": "mcq", "id": "m", "statement": "Pick.", "options": ["(A) y", "(B) n"], "gold": "A", "split": "easy",
    }
    numeric = {"format": "numeric", "id": "n", "statement": "Add.", "gold": "7/2", "suite": "s"}
    return [("grid", grid), ("mcq", mcq), ("numeric", numeric)]


@pytest.mark.parametrize("format, record", task_records(), ids=["grid", "mcq", "numeric"])
def test_every_wrongly_typed_task_field_exits_cleanly(tmp_path, capsys, format, record):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(SCRIPT), encoding="utf-8")
    task, suite = tmp_path / "task.json", tmp_path / "suite.jsonl"
    for doc in mutations(record):
        task.write_text(json.dumps(doc), encoding="utf-8")
        suite.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        run(["solve", task, "--script", script, "--out", tmp_path / "o"])
        run(["bench", suite, "--format", format, "--strategy", "single-pass", "--trials", "1",
             "--script", script, "--out", tmp_path / "o"])
    capsys.readouterr()


# Where ``check_shape(`` may be called, as (module, top-level def): the record
# codec and the trace's version check, the ``format`` a ``solve`` task record
# names, the hand-declared sidecar shape, and ``check_shape`` itself.
CHECK_SHAPE_CALLERS = {
    ("metrics", "_codec"),
    ("metrics", "from_json"),
    ("metrics", "deserialize_trace"),
    ("bench", "task_from_record"),
    ("cli", "cmd_synth"),
    ("errors", "check_shape"),
}


def test_every_record_is_checked_through_the_codec():
    callers = set()
    for path in sorted(Path(errors.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) == "check_shape":
                    callers.add((path.stem, getattr(top, "name", None)))
    assert callers == CHECK_SHAPE_CALLERS
