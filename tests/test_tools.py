"""The repository's stdlib scripts under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_only_code_lines():
    source = '''"""A module docstring
over two lines."""
# a comment

x = 1
def f():
    """A function docstring."""
'''
    # Seven physical lines; the docstrings, the comment and the blank are not code.
    assert _load("loc").count(source) == (7, 2)


def test_loc_counts_every_line_of_a_string_that_is_not_a_docstring():
    source = 'x = 1\ny = """two\nlines"""  # trailing comment\n'
    assert _load("loc").count(source) == (3, 3)


def test_loc_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nimport os\n')
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 2\ny = 3\n")
    _load("loc").main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "2", "1"], ["b.py", "4", "2"],
                    ["total", "6", "3"]]


def test_untested_lines_names_the_branch_that_never_ran(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(x):\n"
        "    if x:\n"
        "        return 1\n"
        "    return 2\n"
    )
    tool = _load("untested_lines")

    def run():
        spec = importlib.util.spec_from_file_location("synthetic_mod", tmp_path / "mod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.f(True) == 1

    assert tool.untested(tmp_path, run) == {"mod.py": [4]}
    assert tool._ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
