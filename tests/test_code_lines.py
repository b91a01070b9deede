"""scripts/code_lines.py: the code-line count of a package, on a temporary module."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""A docstring line counts,

and so does this one."""

# a comment does not count
import math  # a trailing comment leaves its code line

    # nor does an indented comment


def f():
    return math.pi
'''


def test_blank_and_comment_lines_do_not_count_and_docstrings_do(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "empty.py").write_text("\n# only a comment\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.code_lines(MODULE) == 5
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["    0 empty.py", "    5 mod.py", "    5 total"]
