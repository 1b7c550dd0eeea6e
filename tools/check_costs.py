"""Print each check's cost from perfbench run records, most costly first.

A record is one ``.perfbench_out/{workload}-seed{k}-trace{t}.json`` file.
A check's cost is the median over its repetitions of its seconds over the
reference seconds taken beside it, in reference units, the rule of
``costs`` in ``perfbench/run.py``, whose functions this reuses; its
fastest time is its fastest repetition, in seconds.

    python3 tools/check_costs.py .perfbench_out/coupling-seed1-trace0.json

With ``--compare``, the records are runs of two sources (``src_sha256``),
the parent's first: per check, it prints the median cost over each side's
records, the change/parent ratio and how many records of each side have
the check.  Records of a third source, or of another workload, are
refused.  A run overwrites the record of its workload and seed, so copy
each run's record aside before the next.

    python3 tools/check_costs.py --compare parent/*.json change/*.json
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def check_costs(record):
    """{check: (cost in ref, fastest seconds)} of one loaded record, most
    costly first."""
    run = _perfbench_run()
    cost = run.costs(record["workers"])
    best, _ = run.fastest(record["workers"])
    return {name: (cost[name], best[name])
            for name in sorted(cost, key=cost.get, reverse=True)}


def report(path):
    record = json.loads(Path(path).read_text())
    meta = record["meta"]
    rows = check_costs(record)
    lines = [f"{path}: {meta['workload']} seed {meta['seed']} at "
             f"{meta['git_commit'][:7]} (src {meta['src_sha256']})",
             f"  {'check':44s} {'cost_ref':>9s} {'fastest_s':>10s}"]
    lines += [f"  {name:44s} {c:9.2f} {s:10.4f}"
              for name, (c, s) in rows.items()]
    lines.append(f"  {'total':44s} "
                 f"{sum(c for c, _ in rows.values()):9.2f}")
    return "\n".join(lines)


def sides(records):
    """{source: its records} of loaded records of two sources and one
    workload, the first record's source first; a ValueError otherwise."""
    by_source = {}
    for record in records:
        by_source.setdefault(record["meta"]["src_sha256"], []).append(record)
    workloads = {r["meta"]["workload"] for r in records}
    if len(by_source) != 2 or len(workloads) != 1:
        raise ValueError(f"records of {len(by_source)} sources and "
                         f"{len(workloads)} workloads: a comparison takes "
                         "two sources of one workload")
    return by_source


def compare(records):
    """{check: (parent cost, change cost, change/parent, parent records,
    change records)} of loaded records of two sources, the costs medians
    over each side's records; the first record's source is the parent's.
    Checks come most costly first on the parent's side."""
    costs = [[check_costs(r) for r in side]
             for side in sides(records).values()]
    rows = {}
    for name in {name: None for side in costs for c in side for name in c}:
        parent, change = ([c[name][0] for c in side if name in c]
                          for side in costs)
        p, c = (statistics.median(v) if v else float("nan")
                for v in (parent, change))
        rows[name] = (p, c, c / p if p else float("nan"), len(parent),
                      len(change))
    return dict(sorted(rows.items(), key=lambda kv: -kv[1][0]))


def compare_report(paths):
    records = [json.loads(Path(path).read_text()) for path in paths]
    rows = compare(records)
    (parent, n_parent), (change, n_change) = (
        (src, len(side)) for src, side in sides(records).items())
    lines = [f"{records[0]['meta']['workload']}: parent src {parent} "
             f"({n_parent} records) -> change src {change} "
             f"({n_change} records)",
             f"  {'check':44s} {'parent_ref':>10s} {'change_ref':>10s} "
             f"{'ratio':>6s} {'records':>7s}"]
    lines += [f"  {name:44s} {p:10.2f} {c:10.2f} {r:6.3f} {f'{m}/{n}':>7s}"
              for name, (p, c, r, m, n) in rows.items()]
    p, c = (sum(row[i] for row in rows.values()) for i in (0, 1))
    lines.append(f"  {'total':44s} {p:10.2f} {c:10.2f} {c / p:6.3f}")
    return "\n".join(lines)


def main(argv):
    if not argv:
        sys.exit(__doc__)
    if argv[0] == "--compare":
        print(compare_report(argv[1:]))
    else:
        print("\n\n".join(report(path) for path in argv))


if __name__ == "__main__":
    main(sys.argv[1:])
