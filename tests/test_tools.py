"""The repository's tools: ``tools/code_lines.py``, the code-line counter."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
two lines."""

import os  # a comment

# a comment line


class Box:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def open(self):
        """Function docstring."""
        "a string statement that is no docstring"
        return os.sep


def shut(): pass
'''


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    # import, class, the four lines of ``size``, def open, the string
    # statement, return, def shut.
    assert code_lines.code_lines(path) == 10


def test_prints_one_row_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n', encoding="utf-8")
    assert code_lines.main(["code_lines.py", str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["1", (tmp_path / "pkg" / "a.py").as_posix()],
        ["2", (tmp_path / "pkg" / "b.py").as_posix()],
        ["3", "total"],
    ]
