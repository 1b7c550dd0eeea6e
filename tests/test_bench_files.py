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
