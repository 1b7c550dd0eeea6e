"""Layered verification benchmark for edgeproc.

Runs one workload (``--workload``) or all of them, each as several fresh
worker processes, and prints every metric by name and unit; the last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py                 # every workload, end to end
    python3 perfbench/run.py --trace 1       # per-layer table instead
    python3 perfbench/run.py --workload coupling --seed 3 --trace 0

End-to-end metrics come from untraced workers: set-up is timed in each of
them from process start and reported as the median, and the check list is
repeated until ``--seconds`` are spent (default: ``run_seconds`` of
BENCHMARK.json; ``--scale min`` makes one pass).  ``--trace 1`` instead runs
one untraced and one traced worker and reports the per-layer metrics, with
the tracing overhead as the difference of their costs in reference units,
converted to seconds.  Run records with the machine and version metadata go
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("small_many", "wide_window", "coupling")
# fresh processes per untraced run; wide_window sets up for 10-15 s, so it
# gets two to keep all runs of the benchmark inside its time allowance
WORKERS = {"small_many": 3, "wide_window": 2, "coupling": 3}
# printed beside the gated metrics; their spread between runs on a shared
# machine is too wide for a bound
SECONDS_UNITS = {"wall_s": "s", "check_s.p50": "s", "check_s.p90": "s",
                 "replicas_per_s": "1/s", "reference_s": "s"}
# every worker of one workload must end by then
RUN_TIMEOUT_S = 170


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind):
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, scale, budget, trace, deadline, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--budget", repr(budget),
           "--trace", str(trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} ran past {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p50_p90(values):
    q = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), q[8]


def verdicts(workers):
    """attempted, failed, correct and the findings worth printing.

    ``correct`` is false when an exact check misses, when any check raises,
    or when the same check gives different results in two passes of one
    seed.  A statistical miss lowers pass_frac only; a known defect is
    reported whatever its verdict.
    """
    known = workers[0]["known_defects"]
    attempted = failed = 0
    correct = True
    first, notes = {}, []
    for w in workers:
        for p in w["passes"]:
            for r in p["records"]:
                attempted += 1
                failed += not r["ok"]
                key = (r["ok"], r["error"], json.dumps(r["values"],
                                                       sort_keys=True))
                if first.setdefault(r["name"], key) != key:
                    correct = False
                    notes.append(f"nondeterministic: {r['name']}")
                if r["name"] in known:
                    continue
                if r["error"] or (not r["ok"] and not r["statistical"]):
                    correct = False
    for name, (ok, err, values) in first.items():
        if name in known:
            notes.append(f"known defect {name}: {'PASS' if ok else 'FAIL'} "
                         f"{values} -- {known[name]}")
        elif not ok:
            notes.append(f"FAIL {name}: {err or values}")
    return attempted, failed, correct, sorted(set(notes))


def fastest(workers):
    """Each check's fastest time over every pass of the workers, and its
    replicas."""
    best, replicas = {}, {}
    for r in (r for w in workers for p in w["passes"] for r in p["records"]):
        best[r["name"]] = min(best.get(r["name"], r["seconds"]),
                              r["seconds"])
        replicas[r["name"]] = r["replicas"]
    return best, replicas


def costs(workers):
    """Each check's cost in reference units: the median over its
    repetitions of its time over the reference times just before and after
    it.  The ratio cancels the slow phases of a shared machine, which last
    from seconds to minutes and so shift every time taken within them."""
    ratios = {}
    for r in (r for w in workers for p in w["passes"] for r in p["records"]):
        ratios.setdefault(r["name"], []).append(r["seconds"]
                                                / r["reference_s"])
    return {k: statistics.median(v) for k, v in ratios.items()}


def end_to_end(workers):
    """Every end-to-end value: in reference units (the gated ones), and in
    seconds from each check's fastest repetition (printed alongside)."""
    best, replicas = fastest(workers)
    cost = costs(workers)
    wall, wall_ref = sum(best.values()), sum(cost.values())
    p50, p90 = p50_p90(list(best.values()))
    p50_ref, p90_ref = p50_p90(list(cost.values()))
    # a known defect fails on some seeds and not others; it is printed and
    # counted in fail_frac, but kept out of the gated fraction
    known = workers[0]["known_defects"]
    oks = [r["ok"] for w in workers for p in w["passes"]
           for r in p["records"] if r["name"] not in known]
    return {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "wall_ref": wall_ref,
        "check_ref.p50": p50_ref,
        "check_ref.p90": p90_ref,
        "replicas_per_ref": sum(replicas.values()) / wall_ref,
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "pass_frac": sum(oks) / len(oks),
        "wall_s": wall,
        "check_s.p50": p50,
        "check_s.p90": p90,
        "replicas_per_s": sum(replicas.values()) / wall,
        "reference_s": statistics.median(
            p["reference_s"] for w in workers for p in w["passes"]),
    }


def metadata(workload, seed, scale, workers):
    def git_commit():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode())
        digest.update(f.read_bytes())
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **workers[0]["versions"],
        "git_commit": git_commit(), "src_sha256": digest.hexdigest()[:16],
        "estimator_threads": 1,
        "workers": len(workers),
        "passes": [len(w["passes"]) for w in workers],
        "measures": workers[0]["measures"],
    }


def run_workload(workload, seed, seconds, trace, scale):
    """Returns the result line, findings, metadata and the values in
    seconds that are printed but not gated."""
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        spans = OUT / f"spans-{workload}-seed{seed}.json"
        plain = spawn(workload, seed, scale, seconds / 2, 0, deadline)
        traced = spawn(workload, seed, scale, seconds / 2, 1, deadline,
                       spans)
        workers = [plain, traced]
        wanted = units("per_layer")
        values = dict(traced["layers"])
        # in reference units, which cancel a drift of the machine's speed
        # between the two workers, then in seconds of the untraced worker
        values["trace.overhead_s"] = (
            (sum(costs([traced]).values()) - sum(costs([plain]).values()))
            * statistics.median(p["reference_s"] for p in plain["passes"]))
    else:
        n = WORKERS[workload]
        workers = [spawn(workload, seed, scale, seconds / n, 0, deadline)
                   for _ in range(n)]
        wanted, values = units("end_to_end"), end_to_end(workers)
    missing = set(wanted) - set(values)
    if missing:
        raise WorkerError(f"metrics not measured: {sorted(missing)}")
    attempted, failed, correct, notes = verdicts(workers)
    reps = sum(len(w["passes"]) for w in workers)
    notes.insert(0, f"{len(fastest(workers)[0])} checks, {reps} repetitions "
                    f"of each in {len(workers)} processes")
    if trace and traced["unexercised"]:
        notes.append("not called by this workload, so their metrics read 0: "
                     + ", ".join(traced["unexercised"]))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in wanted.items()}}
    meta = metadata(workload, seed, scale, workers)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"meta": meta, "result": result, "findings": notes,
                    "workers": workers}) + "\n")
    extra = {k: (values[k], u) for k, u in SECONDS_UNITS.items()
             if k in values}
    return result, notes, meta, extra


def print_table(workload, result, notes, extra):
    print(f"== {workload}: {result['attempted']} checks attempted, "
          f"{result['failed']} failed "
          f"(fail_frac {result['failed'] / result['attempted']:.4g}), "
          f"correct={result['correct']}")
    for note in notes:
        print(f"   {note}")
    for name, m in result["metrics"].items():
        print(f"   {name:40s} {m['value']:>16.6g} {m['unit']}")
    if extra:
        print("   in seconds on this machine (fastest repetition; not gated):")
    for name, (value, unit) in extra.items():
        print(f"   {name:40s} {value:>16.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="edgeproc layered verification benchmark")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; default: all of them")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "min"), default="full",
                    help="min: smallest sizes, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds <= 0):
        ap.error("--seed must be >= 0 and --seconds > 0")
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        if args.scale == "min":
            seconds = 0.0
        else:
            seconds = args.seconds or spec()["run_seconds"]
        for name in names:
            result, notes, meta, extra = run_workload(
                name, args.seed, seconds, args.trace, args.scale)
            print(json.dumps({"meta": meta}))
            print_table(name, result, notes, extra)
            results[name] = result
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
