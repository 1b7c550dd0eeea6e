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
