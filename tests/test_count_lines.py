"""tools/count_lines.py sorts every source line into one class."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,

with a blank line inside."""
# a comment
import os  # a trailing comment keeps the line code


class Thing:
    """One line."""

    def method(self):
        """Two

        # not a comment: inside the docstring
        """
        text = """
# a "#" line in an ordinary string is a comment line
"""
        return text
'''


def test_each_line_falls_in_one_class():
    counts = count_lines.count_source(SOURCE)
    assert counts == {"code": 6, "docstring": 8, "comment": 2, "blank": 3}
    assert sum(counts.values()) == len(SOURCE.splitlines())


def test_the_cli_prints_per_file_and_total_lines(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert count_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "code 7 docstring 8 comment 3 blank 4 total 22"
    assert len(lines) == 3
