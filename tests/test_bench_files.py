"""BENCH_*.json files: the benchmark's own workloads and end-to-end metrics,
with their units, and summaries that are ordered quartiles; and the tool
that writes them."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[f.name for f in FILES])
def test_bench_file_follows_the_benchmark(path):
    bench = json.loads(path.read_text())
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert bench["workloads"] and set(bench["workloads"]) <= workloads
    for metrics in bench["workloads"].values():
        assert metrics
        for name, m in metrics.items():
            assert m["unit"] == units[name], name
            assert m["q1"] <= m["median"] <= m["q3"], name
    # every run measured one commit's sources
    assert len({r["src_sha256"] for r in bench["runs"]}) == 1
    assert {r["workload"] for r in bench["runs"]} == set(bench["workloads"])


def _bench_file_tool():
    path = ROOT / "tools" / "bench_file.py"
    spec = importlib.util.spec_from_file_location("bench_file", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run_log(path, seed, wall_ref, peak_rss_mb):
    """A run log as perfbench prints it: meta line, table, result line."""
    meta = {"workload": "small_many", "seed": seed, "cpu_model": "test cpu",
            "nproc": 2, "cpu_affinity": 2, "python": "3.11.7",
            "numpy": "2.4.6", "scipy": "1.17.1", "git_commit": "c0ffee",
            "src_sha256": "0123456789abcdef"}
    result = {"correct": True, "metrics": {
        "wall_ref": {"value": wall_ref, "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}
    path.write_text("\n".join([
        json.dumps({"meta": meta}),
        "metric            value",
        f"wall_ref          {wall_ref}",
        json.dumps(result)]) + "\n")
    return path


def test_summary_has_the_quartiles_of_the_runs(tmp_path):
    tool = _bench_file_tool()
    logs = [_run_log(tmp_path / "a.txt", 1, 50.0, 128.0),
            _run_log(tmp_path / "b.txt", 2, 54.0, 130.0)]
    bench = tool.summarize(logs)
    assert bench["workloads"] == {"small_many": {
        "wall_ref": {"unit": "ref", "runs": 2,
                     "q1": 51.0, "median": 52.0, "q3": 53.0},
        "peak_rss_mb": {"unit": "MB", "runs": 2,
                        "q1": 128.5, "median": 129.0, "q3": 129.5}}}
    assert [(r["seed"], r["correct"]) for r in bench["runs"]] == [
        (1, True), (2, True)]
    assert bench["machine"]["cpu_model"] == "test cpu"


def test_one_run_is_its_own_quartiles(tmp_path):
    bench = _bench_file_tool().summarize(
        [_run_log(tmp_path / "a.txt", 1, 50.0, 128.0)])
    m = bench["workloads"]["small_many"]["wall_ref"]
    assert (m["runs"], m["q1"], m["median"], m["q3"]) == (1, 50.0, 50.0, 50.0)


def _check_costs_tool():
    path = ROOT / "tools" / "check_costs.py"
    spec = importlib.util.spec_from_file_location("check_costs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _record(times):
    """A run record of workers of passes of (check, seconds, reference)."""
    def rec(name, seconds, reference_s):
        return {"name": name, "ok": True, "statistical": False, "error": "",
                "replicas": 0, "values": {}, "seconds": seconds,
                "reference_s": reference_s}
    return {"meta": {"workload": "coupling", "seed": 1,
                     "git_commit": "c0ffee0",
                     "src_sha256": "0123456789abcdef"},
            "workers": [{"passes": [{"records": [rec(*r) for r in p]}
                                    for p in w]} for w in times]}


def test_check_costs_are_median_ratios_to_the_reference(tmp_path):
    tool = _check_costs_tool()
    record = _record([
        [[("a", 1.0, 0.5), ("b", 0.3, 0.1)],
         [("a", 3.0, 1.0), ("b", 0.2, 0.1)]],
        [[("a", 0.6, 0.1), ("b", 0.1, 0.1)]]])
    # a: ratios 2, 3, 6 and fastest 0.6; b: ratios 3, 2, 1 and fastest 0.1
    rows = tool.check_costs(record)
    assert list(rows) == ["a", "b"]
    assert rows["a"] == pytest.approx((3.0, 0.6))
    assert rows["b"] == pytest.approx((2.0, 0.1))
    path = tmp_path / "coupling-seed1-trace0.json"
    path.write_text(json.dumps(record))
    lines = tool.report(path).splitlines()
    assert lines[0].endswith(
        "coupling seed 1 at c0ffee0 (src 0123456789abcdef)")
    assert lines[2].split() == ["a", "3.00", "0.6000"]
    assert lines[-1].split() == ["total", "5.00"]


def _sourced(src, times, workload="coupling"):
    record = _record(times)
    record["meta"].update(src_sha256=src, workload=workload)
    return record


def test_compare_takes_medians_per_side(tmp_path):
    tool = _check_costs_tool()
    parent = [_sourced("p", [[[("a", 4.0, 1.0), ("b", 1.0, 1.0)]]]),
              _sourced("p", [[[("a", 6.0, 1.0), ("b", 3.0, 1.0)]]]),
              _sourced("p", [[[("a", 8.0, 1.0)]]])]
    change = [_sourced("c", [[[("a", 2.0, 1.0), ("b", 2.0, 1.0)]]]),
              _sourced("c", [[[("a", 3.0, 2.0), ("b", 1.0, 1.0)]]])]
    # the parent's records may come in any order after the first
    rows = tool.compare([parent[0], *change, *parent[1:]])
    assert list(rows) == ["a", "b"]
    # a: parent 4, 6, 8 and change 2, 1.5; b: parent 1, 3 and change 2, 1
    assert rows["a"] == pytest.approx((6.0, 1.75, 1.75 / 6.0, 3, 2))
    assert rows["b"] == pytest.approx((2.0, 1.5, 0.75, 2, 2))
    paths = []
    for k, record in enumerate(parent + change):
        paths.append(tmp_path / f"coupling-seed{k}.json")
        paths[-1].write_text(json.dumps(record))
    lines = tool.compare_report(paths).splitlines()
    assert lines[0] == ("coupling: parent src p (3 records) -> change src c "
                        "(2 records)")
    assert lines[2].split() == ["a", "6.00", "1.75", "0.292", "3/2"]
    assert lines[3].split() == ["b", "2.00", "1.50", "0.750", "2/2"]
    assert lines[-1].split() == ["total", "8.00", "3.25", "0.406"]


@pytest.mark.parametrize("sources, workloads", [
    (["p", "c", "x"], ["coupling"] * 3),
    (["p", "p"], ["coupling"] * 2),
    (["p", "c"], ["coupling", "small_many"])])
def test_compare_refuses_other_than_two_sources_of_one_workload(
        sources, workloads):
    records = [_sourced(s, [[[("a", 1.0, 1.0)]]], w)
               for s, w in zip(sources, workloads)]
    with pytest.raises(ValueError, match="two sources of one workload"):
        _check_costs_tool().compare(records)


def _src_lines_tool():
    path = ROOT / "tools" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


OLD_MODULE = '''"""A module docstring,
on two lines."""

# a comment line
import os


def f(x):
    """One docstring line."""
    return x  # a trailing comment counts as code
'''

NEW_MODULE = OLD_MODULE + '''

class C:
    """Class docstring."""

    text = """a multi-line string
    that is not a docstring"""

    def g(self):
        """Method
        docstring."""
        """A second string is code."""
'''


def test_src_lines_counts_code_apart_from_docstrings_and_comments(tmp_path):
    tool = _src_lines_tool()
    assert tool.count(OLD_MODULE) == (10, 3)
    # class C, text on two lines, def g and the second string
    assert tool.count(NEW_MODULE) == (22, 8)
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "sub").mkdir(parents=True)
    (new / "sub").mkdir(parents=True)
    (old / "a.py").write_text(OLD_MODULE)
    (old / "gone.py").write_text("x = 1\n")
    (old / "sub" / "b.py").write_text("\n\nx = 1\ny = 2\n")
    (new / "a.py").write_text(NEW_MODULE)
    (new / "sub" / "b.py").write_text("x = 1\n")
    (new / "notes.txt").write_text("not python\n")
    assert tool.counts(new) == {"a.py": (22, 8), "sub/b.py": (1, 1)}
    lines = tool.report(new).splitlines()
    assert lines[0].split() == ["module", "lines", "code"]
    assert [line.split() for line in lines[1:]] == [
        ["a.py", "22", "8"], ["sub/b.py", "1", "1"], ["total", "23", "9"]]
    lines = tool.report(new, old).splitlines()
    assert lines[0].split() == ["module", "lines", "code", "old", "change"]
    assert [line.split() for line in lines[1:]] == [
        ["a.py", "22", "8", "3", "+5"], ["gone.py", "0", "0", "1", "-1"],
        ["sub/b.py", "1", "1", "2", "-1"], ["total", "23", "9", "6", "+3"]]


def test_src_lines_refuses_a_missing_directory(tmp_path):
    with pytest.raises(ValueError, match="is not a directory"):
        _src_lines_tool().counts(tmp_path / "missing")
