"""One workload process: import, set up, run the check list, report JSON.

Run by ``run.py``, which passes the monotonic time at which it started this
process so that set-up time counts interpreter start and imports.  Prints
one JSON object on its last stdout line.  With ``--trace 1`` every public
call into the package is wrapped in a span and the per-layer metrics are
derived from the spans; the span summary is written to ``--spans``.

    python3 perfbench/worker.py --workload small_many --seed 1 --budget 3 \
        --trace 0 --t0 "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# estimators whose cost per replica the per-layer table reports
ESTIMATORS = ("estimate_event", "vertex_count_samples", "urn_count_samples",
              "vertex_presence_samples", "depoissonization_agreement")


def import_package():
    """Imports edgeproc from this checkout's src/, never from elsewhere."""
    if not (SRC / "edgeproc" / "__init__.py").is_file():
        raise SystemExit(f"edgeproc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import edgeproc
    import edgeproc.cli  # noqa: F401  (cli is not imported by the package)
    here = Path(edgeproc.__file__).resolve().parent
    if here != (SRC / "edgeproc").resolve():
        raise SystemExit(f"imported edgeproc from {edgeproc.__file__}")
    return edgeproc


def _array_bytes(obj, seen):
    """Bytes of the numpy arrays reachable from a measure and its caches."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(v, seen) for v in obj
                   if not isinstance(v, (int, float)))
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_array_bytes(v, seen) for v in vars(obj).values())
    return 0


def layer_metrics(tr, wl, passes, threads2):
    """Per-layer values from the spans of a traced worker, and the names of
    the calls the workload does not make, whose metrics read 0."""
    unexercised = set()

    def pick(names, phases=("pass",), where=None):
        names = (names,) if isinstance(names, str) else names
        found = [s for s in tr.spans if s.name in names
                 and s.phase in phases and (where is None or where(s))]
        if not found:
            unexercised.update(names)
        return found

    def total(names, phases=("setup",)):
        return sum(s.dur for s in pick(names, phases))

    def mean(names, phases=("pass",), scale=1.0, where=None):
        sp = pick(names, phases, where)
        return scale * sum(s.dur for s in sp) / len(sp) if sp else 0.0

    def rate(names, phases=("pass",), where=None):
        sp = pick(names, phases, where)
        t = sum(s.dur for s in sp)
        return sum(s.count for s in sp) / t if t > 0 else 0.0

    def per_count(names, scale=1e6):
        sp = pick(names)
        n = sum(s.count for s in sp)
        return scale * sum(s.dur for s in sp) / n if n else 0.0

    def from_checks(key):
        """Mean of a value the checks report."""
        vals = [r["values"][key] for r in passes[0]["records"]
                if key in r["values"]]
        if not vals:
            unexercised.add(key)
            return 0.0
        return sum(vals) / len(vals)

    ctor = {f"measure.{c}" for c in spans.MEASURE_CONSTRUCTORS}
    not_alias = (lambda s: s.parent is None
                 or s.parent.name != "setup.alias_build")
    seen = set()
    out = {
        "measure.build_s": sum(s.dur for s in pick(
            ctor, ("setup",), lambda s: s.parent is None
            or s.parent.name not in ctor)),
        "measure.alias_build_s": total("setup.alias_build"),
        "measure.support_connected_s": total("measure.support_connected"),
        "measure.support_edges": sum(s.n_edges
                                     for s in wl.measures.values()),
        "measure.array_mb": sum(_array_bytes(s, seen)
                                for s in wl.measures.values()) / 1e6,
        "measure.sample_edges_per_s": rate(
            "measure.sample_edge_indices", ("setup", "pass"), not_alias),
        "process.replica_rng_us": mean("process.replica_rng", scale=1e6),
        "process.run_discrete_s": mean("process.run_discrete"),
        "process.run_continuous_s": mean("process.run_continuous"),
        "process.events_per_s": rate(("process.run_discrete",
                                      "process.run_continuous")),
        "graphstate.replay_events_per_s": rate("graphstate.replay"),
        "analytic.variance_sandwich_s": mean("analytic.variance_sandwich"),
        "analytic.connectedness_series_s": mean(
            "analytic.connectedness_series"),
        "analytic.joint_ratio_us": mean("analytic.joint_ratio", scale=1e6),
    }
    for est in ESTIMATORS:
        out[f"montecarlo.{est}_us_per_replica"] = per_count(
            f"montecarlo.{est}")
    out.update({
        "montecarlo.threads2_speedup": threads2 or 0.0,
        "urns.engine_build_s": mean("urns.CouplingEngine",
                                    ("setup", "pass")),
        "urns.epochs_per_s": rate(("urns.CouplingEngine.run",
                                   "urns.CouplingEngine.step")),
        "urns.null_epoch_frac": from_checks("urns.null_epoch_frac"),
        "urns.rate_audit_us": mean("urns.coupling_rate_audit", scale=1e6),
        "urns.respect_factor_us.k8": mean(
            "urns.respect_factor", scale=1e6,
            where=lambda s: s.count == 8 and s.tag != "quadrature"),
        "urns.respect_factor_us.k20": mean(
            "urns.respect_factor", scale=1e6,
            where=lambda s: s.count == 20 and s.tag != "quadrature"),
        "urns.completeness_product_s": mean(
            "urns.essential_completeness_product"),
        "urns.respect_k20_rel_err": from_checks("urns.respect_k20_rel_err"),
        "urns.respect_k20_quad_rel_err": from_checks(
            "urns.respect_k20_quad_rel_err"),
        "cli.verify_s": mean("cli.main"),
    })
    if threads2 is None:
        unexercised.add("montecarlo.threads2_speedup")
    return out, sorted(unexercised)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "min"), default="full")
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds of check passes (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--spans", default=None,
                    help="file for the span summary of a traced run")
    args = ap.parse_args(argv)

    ep = import_package()
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        spans.install(tracer, ep)
    import checks

    wl = checks.WORKLOADS[args.workload](args.seed, args.scale, tracer)
    wl.setup()
    setup_s = time.monotonic() - args.t0

    tracer.phase = "pass"
    check_list = wl.checks()
    passes = []
    deadline = time.perf_counter() + args.budget
    while not passes or time.perf_counter() < deadline:
        t = time.perf_counter()
        records, reference_s = checks.run_checks(check_list)
        passes.append({"wall_s": time.perf_counter() - t,
                       "reference_s": reference_s, "records": records})
    tracer.phase = "threads2"
    threads2 = wl.threads2_speedup() if args.trace else None

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "passes": passes,
        "known_defects": wl.known_defects,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "measures": {k: {"config_hash": s.config_hash(),
                         "support_edges": s.n_edges}
                     for k, s in wl.measures.items()},
    }
    if args.trace:
        result["layers"], result["unexercised"] = layer_metrics(
            tracer, wl, passes, threads2)
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "spans": tracer.summary()}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
