"""experiments/loc.py: the logical-line rule on an inline module."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "experiments" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", SCRIPT)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SOURCE = '''\
"""Module docstring,
over two lines."""

import os  # a comment

# a comment line


class Box:
    """Class docstring."""

    size = (1,
            2,
            3)

    def area(self, scale):
        """Function docstring."""
        total = {"a": 1,
                 "b": 2}
        return "not a docstring"


def bare(): "a docstring on the header line"
'''


def test_statements_count_once_and_docstrings_and_comments_count_zero():
    # import, class, size, def area, total, return, def bare
    assert loc.logical_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\ny = [x,\n     x]\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["7", "a.py", "2", "b.py", "9", "total"]
