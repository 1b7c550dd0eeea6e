"""Smoke test of the benchmark, every workload at its minimum sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json lists is printed with its unit, that
one seed gives identical verdicts and estimates in two processes, and that
a check which raises is counted as a failure instead of ending the run.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402
import worker  # noqa: E402


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--scale", "min"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _records(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--scale", "min", "--budget", "0",
         "--t0", repr(time.monotonic())],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return [(r["name"], r["ok"], r["error"], r["values"])
            for r in res["passes"][0]["records"]]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_unit(workload, trace, kind):
    stdout = _run(workload, trace)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         stdout, re.M), name


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_verdicts_and_estimates(workload):
    first = _records(workload, 5)
    assert first == _records(workload, 5)
    assert first != _records(workload, 6)


def test_raising_check_counts_as_failure():
    worker.import_package()
    import checks

    def boom():
        raise RuntimeError("boom")

    records, reference_s = checks.run_checks([
        checks.Check("fine", lambda: checks.Outcome(True, 10)),
        checks.Check("boom", boom)])
    assert [r["ok"] for r in records] == [True, False]
    assert "boom" in records[1]["error"]
    fake = {"setup_s": 1.0, "peak_rss_mb": 1.0, "known_defects": {},
            "passes": [{"wall_s": 1.0, "reference_s": reference_s,
                        "records": records}]}
    attempted, failed, correct, _ = run.verdicts([fake])
    assert (attempted, failed, correct) == (2, 1, False)
    assert run.end_to_end([fake])["pass_frac"] == 0.5
