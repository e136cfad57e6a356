"""The repository's stdlib scripts under ``tools/``."""

import importlib.util
import json
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


def _result(value, failed=0, tasks=6):
    metrics = {name: {"value": value, "unit": "s"} for name in ("setup_s", "task_s")}
    return {"correct": failed == 0, "attempted": tasks + failed, "failed": failed,
            "metrics": metrics, "tasks": tasks}


#: The keys of a ``final_sets`` metric entry written by ``tools/ab.py``.
AB_METRIC_KEYS = {
    "parent", "change", "parent_median", "change_median", "parent_quartiles",
    "parent_spread_frac", "change_vs_parent", "change_lower_in",
}


def test_ab_summary_of_fixed_runs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 4.0, 4.0]
    pairs = [(_result(p), _result(c, failed=int(i == 1)))
             for i, (p, c) in enumerate(zip(parent, change))]
    entry = _load("ab").summarize("montecarlo", pairs, ["task_s"])
    assert entry["task_s"] == {
        "parent": parent,
        "change": change,
        "parent_median": 3.0,
        "change_median": 2.5,
        "parent_quartiles": [2.0, 4.0],
        "parent_spread_frac": 0.667,
        "change_vs_parent": -0.1667,
        "change_lower_in": "3/5",  # pairs 0, 2 and 4: ties are not lower
    }
    assert "setup_s" not in entry
    assert entry["workload"] == "montecarlo" and entry["pairs"] == 5
    assert entry["all_correct"] is False
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["attempted"] == {"parent": 30, "change": 31}
    assert entry["tasks"] == {"parent": [6] * 5, "change": [6] * 5}


def _newest_ab_bench_file():
    """The highest-numbered ``BENCH_<N>.json`` whose metric entries have the ab keys."""
    files = sorted(TOOLS.parent.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    for path in reversed(files):
        entries = json.loads(path.read_text()).get("final_sets", [])
        if entries and all(AB_METRIC_KEYS <= set(e.get("task_s", {})) for e in entries):
            return path
    raise AssertionError("no BENCH file written by tools/ab.py")


def test_newest_bench_file_has_the_ab_keys():
    doc = json.loads(_newest_ab_bench_file().read_text())
    metrics = _load("ab").end_to_end_metrics()
    assert metrics == ["setup_s", "task_s", "peak_rss_mb"]
    workloads = [e["workload"] for e in doc["final_sets"]]
    assert workloads == ["experiment", "montecarlo", "raw_pipeline"]
    for entry in doc["final_sets"]:
        assert entry["pairs"] >= 10
        for name in metrics:
            assert set(entry[name]) == AB_METRIC_KEYS
            assert len(entry[name]["parent"]) == len(entry[name]["change"]) == entry["pairs"]
