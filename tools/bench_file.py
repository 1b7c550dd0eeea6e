"""Summarize perfbench runs of one commit into a BENCH_*.json file.

Each log is the stdout of one ``python3 perfbench/run.py --workload W
--seed k`` run: a ``{"meta": ...}`` line, the printed table and, last, the
result line.  The file gives, per workload and end-to-end metric, the
median and quartiles over the runs, and lists every run's commit, source
hash and seed, so a reader can check that all of them ran the same code.
The output must be a new file.

    python3 tools/bench_file.py BENCH_21.json logs/change-*.txt
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def read_run(path):
    lines = Path(path).read_text().splitlines()
    meta = next(json.loads(s)["meta"] for s in lines if s.startswith('{"meta"'))
    return meta, json.loads(lines[-1])


def summarize(paths):
    runs, values, units, machine = [], {}, {}, None
    for path in paths:
        meta, result = read_run(path)
        machine = machine or {k: meta[k] for k in (
            "cpu_model", "nproc", "cpu_affinity", "python", "numpy", "scipy")}
        w = meta["workload"]
        runs.append({"workload": w, "seed": meta["seed"],
                     "git_commit": meta["git_commit"],
                     "src_sha256": meta["src_sha256"],
                     "correct": result["correct"]})
        for name, m in result["metrics"].items():
            values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    workloads = {}
    for w, metrics in values.items():
        workloads[w] = {}
        for name, vs in metrics.items():
            q1, median, q3 = (statistics.quantiles(vs, n=4, method="inclusive")
                              if len(vs) > 1 else vs * 3)
            workloads[w][name] = {"unit": units[name], "runs": len(vs),
                                  "q1": q1, "median": median, "q3": q3}
    return {"machine": machine, "runs": runs, "workloads": workloads}


def main(argv):
    """Writes the summary of the logs to a new file.  It refuses to run
    without logs and to replace a file, so a call that names only a BENCH
    file leaves that file as it was."""
    if len(argv) < 2:
        sys.exit("usage: bench_file.py OUT.json RUN_LOG [RUN_LOG ...]")
    out, *logs = argv
    text = json.dumps(summarize(logs), indent=1) + "\n"
    try:
        with open(out, "x") as fh:
            fh.write(text)
    except FileExistsError:
        sys.exit(f"bench_file.py: {out} exists; name a new file")


if __name__ == "__main__":
    main(sys.argv[1:])
