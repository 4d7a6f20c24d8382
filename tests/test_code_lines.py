"""tools/code_lines.py: a code line is no comment, blank or docstring."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps its line


class A:
    """Class docstring."""

    # a comment line
    x = """a string that
spans two lines"""

    def f(self):
        """Function
        docstring."""
        return os.sep


def g():
    "one-line docstring"
    "a second string is code"
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    tool = _tool()
    # import, class, x (two lines), def f, return, def g, the second string
    assert tool.code_lines(str(path)) == 8
    assert tool.main([str(path), str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"     8  {path}", f"     8  {path}", "    16  total"]
