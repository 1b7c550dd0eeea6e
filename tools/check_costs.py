"""Print each check's cost from perfbench run records, most costly first.

A record is one ``.perfbench_out/{workload}-seed{k}-trace{t}.json`` file.
A check's cost is the median over its repetitions of its seconds over the
reference seconds taken beside it, in reference units, the rule of
``costs`` in ``perfbench/run.py``, whose functions this reuses; its
fastest time is its fastest repetition, in seconds.

    python3 tools/check_costs.py .perfbench_out/coupling-seed1-trace0.json
"""

from __future__ import annotations

import importlib.util
import json
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


def main(argv):
    if not argv:
        sys.exit(__doc__)
    print("\n\n".join(report(path) for path in argv))


if __name__ == "__main__":
    main(sys.argv[1:])
