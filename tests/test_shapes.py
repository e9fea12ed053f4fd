"""The record codec's reader, which checks every record read from disk as
it reads it, and a wrong-type fuzz of the CLI's readers: each field of a
trace, of a grid, an mcq and a numeric task record, and of a meta sidecar,
is set in turn to each of six JSON values, and every command that reads the
record must exit 0, 1 or 3."""

import ast
import io
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import ClassVar, Optional

import pytest

from atomic_reasoner import bench, cli, errors, metrics
from atomic_reasoner.errors import ParseError

WRONG_VALUES = [5, None, [], {}, "x", True]

# Enough for any session to end: finish at once, then summarize.
SCRIPT = {
    "routing": "ACTION: SUMMARY<FINISHED>\nGUIDANCE: State the answer.",
    "solve": "The answer is (A).",
    "check": "Check Result: No error.",
    "summarize": "The answer is (A).",
}


# Small record types for the reader's cases.
@dataclass
class Record:
    optional: ClassVar[tuple[str, ...]] = ("b",)
    a: str
    b: int = 0


@dataclass
class Ints:
    a: list[int]


@dataclass
class Texts:
    a: dict[str, str]


class TestFromJson:
    """``metrics.from_json`` reads a value of a type only from JSON of that
    type's form, and names the first place that has another."""

    @pytest.mark.parametrize(
        "tp, data, value",
        [
            (int, 5, 5),
            (bool, True, True),
            (type(None), None, None),
            (list[str], ["a", "b"], ["a", "b"]),
            (tuple[str, int], ["a", 1], ("a", 1)),
            (dict[str, list[int]], {"x": [1], "y": []}, {"x": [1], "y": []}),
            (Record, {"a": "t", "extra": 5}, Record("t")),
            (Optional[str], None, None),
            (Optional[Record], {"a": "t", "b": 1}, Record("t", 1)),
        ],
    )
    def test_json_of_the_type_reads(self, tp, data, value):
        assert metrics.from_json(tp, data, "record") == value

    @pytest.mark.parametrize(
        "tp, data, message",
        [
            (int, True, "record: not an integer"),
            (bool, 5, "record: not true or false"),
            (Ints, {"a": [1, "2"]}, "record: a[1] is not an integer"),
            (Texts, {"a": {"b": None}}, "record: a.b is not a string"),
            (Record, {}, "record: a is missing"),
            (Record, {"a": "t", "b": None}, "record: b is not an integer"),
            (tuple[str, int], ["a"], "record: value does not hold 2 items"),
            (Optional[str], [], "record: not a string or null"),
        ],
    )
    def test_json_of_another_form_is_a_parse_error(self, tp, data, message):
        with pytest.raises(ParseError) as info:
            metrics.from_json(tp, data, "record")
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


# Names whose use reads outside input: a file, package data or standard
# input read (``sys.stdin``), a decode of bytes, a parse of JSON.
READERS = {"read_text", "read_bytes", "stdin", "decode", "loads", "load", "json"}


def reader_uses(path):
    """(module, innermost function, name) for each name in ``READERS`` that
    the module at ``path`` uses as an attribute or imports from a module
    other than ``errors``; ``stdin`` only as ``sys.stdin``."""
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            if node.attr != "stdin" or getattr(node.value, "id", None) == "sys":
                uses.append((path.stem, function, node.attr))
        if isinstance(node, ast.ImportFrom) and node.module != "errors":
            uses.extend((path.stem, function, alias.name) for alias in node.names if alias.name in READERS)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return uses


def test_only_errors_decodes_outside_bytes_or_parses_outside_json():
    """Every file, package resource, standard input and JSON document is read
    by ``errors``, which decodes ``utf-8-sig``: a file saved with a byte-order
    mark reads as the same text as one without.  The one other decode is
    ``CacheBackend._load``'s of its own entry format."""
    modules = sorted(Path(errors.__file__).parent.glob("*.py"))
    uses = [use for path in modules if path.stem != "errors" for use in reader_uses(path)]
    assert uses == [("backends", "_load", "decode")]
    source = Path(errors.__file__).read_text(encoding="utf-8")
    decodes = [
        node.args for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "decode"
    ]
    assert [[arg.value for arg in args] for args in decodes] == [["utf-8-sig"]]


def test_a_file_and_standard_input_read_as_the_same_text(tmp_path, monkeypatch):
    """A byte-order mark is dropped, and a CRLF or lone CR reads as a newline."""
    data = b"\xef\xbb\xbfa\r\nb\rc\n"
    path = tmp_path / "p.txt"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert errors.read_text(path) == errors.read_text(str(path)) == errors.read_stdin() == "a\nb\nc\n"


# JSON texts that ``json.loads`` cannot read although each is well formed:
# nesting past the recursion limit (with an escape, so that the surrogate
# walk runs over it too), and an integer past ``sys.get_int_max_str_digits()``.
UNREADABLE_JSON = {
    "deep": ('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply"),
    "deep-with-escape": ('{"x": "\\u00e9", "y": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply"),
    "long-integer": ('{"x": ' + "7" * 5000 + "}", "a number too long to read"),
}


@pytest.mark.parametrize("kind", UNREADABLE_JSON)
def test_json_too_deep_or_too_long_to_read_is_a_parse_error(kind):
    text, reason = UNREADABLE_JSON[kind]
    with pytest.raises(ParseError) as excinfo:
        errors.parse_json(text, "doc.json")
    assert str(excinfo.value) == f"doc.json: invalid JSON: {reason}"


def test_json_that_json_loads_reads_is_mended_at_any_depth():
    """700 levels read without recursing past the limit, with an escape too,
    and the unpaired surrogate at the bottom reads as U+FFFD."""
    text = '{"x": "\\u00e9", "y": ' + "[" * 700 + '"\\ud800"' + "]" * 700 + "}"
    value = errors.parse_json(text, "doc.json")
    assert value["x"] == "\u00e9"
    item = value["y"]
    for _ in range(700):
        (item,) = item
    assert item == "\ufffd"


def test_mended_object_keys_keep_their_order_and_the_last_value():
    text = '{"\\ud800": 1, "a": ["\\udc00", {"b": "\\udfff"}], "\\udc00": 3}'
    value = errors.parse_json(text, "doc.json")
    assert value == {"\ufffd": 3, "a": ["\ufffd", {"b": "\ufffd"}]}
    assert list(value) == ["\ufffd", "a"]


@pytest.mark.parametrize("kind", UNREADABLE_JSON)
def test_a_task_line_too_deep_or_too_long_to_read_is_rejected(tmp_path, kind):
    text, reason = UNREADABLE_JSON[kind]
    record = json.dumps({"id": "t1", "statement": "Add.", "gold": "4"})
    path = tmp_path / "suite.jsonl"
    path.write_text(f"{record}\n{text}\n", encoding="utf-8")
    tasks, rejects = bench.load_tasks(path, "numeric")
    assert [task.id for task in tasks] == ["t1"]
    assert [(reject.line, reject.reason) for reject in rejects] == [
        (2, f"SchemaMismatch: task record: invalid JSON: {reason}")
    ]
