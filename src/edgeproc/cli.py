"""Command-line entry point: one binary, subcommand per experiment.

Every output file begins with a header block recording the command line,
measure config hash, seed, window and tool version, so runs are auditable
and reproducible byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, analytic, montecarlo, urns
from .measure import load_measure
from .process import replica_rng, run_continuous, run_discrete

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2


# flags each subcommand reads, besides --seed (which every header records)
_FLAGS = {
    "simulate": ("measure", "horizon-t", "horizon-n", "out"),
    "analytic": ("measure", "horizon-t", "out"),
    "series": ("measure", "window", "out"),
    "clt": ("measure", "horizon-t", "replicas", "threads", "out"),
    "urns": ("measure", "window", "out"),
    "complete": ("measure", "window", "out"),
    "couple": ("measure", "horizon-t", "out"),
    "verify": ("threads",),
}
_OPTIONS = {
    "measure": {"help": "path to a measure config file"},
    "horizon-t": {"type": float, "default": None},
    "horizon-n": {"type": int, "default": None},
    "window": {"type": int, "default": None},
    "out": {"default": None},
    "replicas": {"type": int, "default": 10_000},
    "threads": {"type": int, "default": 1},
}


def _parser():
    p = argparse.ArgumentParser(prog="edgeproc",
                                description="edge-driven random graph toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--seed", type=int, default=0)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_OPTIONS[flag])
    return p


def _header(args, spec):
    items = [
        f"command: {args.command} " + " ".join(args.argv[1:]),
        f"config_hash: {spec.config_hash()}",
        f"seed: {args.seed}",
        f"window: {getattr(args, 'window', None) or spec.n_max}",
        f"version: edgeproc {__version__}",
    ]
    return items


def _text(value):
    """A report value as text; reals carry 17 significant digits."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _write(path, header_lines, fields):
    """Writes a ``# `` line per header entry, then ``key = value`` per field."""
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.writelines(f"{key} = {_text(value)}\n" for key, value in fields)


def _need_measure(args):
    if not args.measure:
        raise ConfigError("missing required flag: --measure")
    try:
        return load_measure(args.measure)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad measure config ({args.measure}): {exc}")


class ConfigError(Exception):
    pass


def _window(args, spec):
    """--window by the measure's window rule; a bad one is a config error."""
    try:
        return spec.window(args.window)
    except ValueError as exc:
        raise ConfigError(f"--window: {exc}")


def _cmd_simulate(args):
    spec = _need_measure(args)
    rng = replica_rng(args.seed, 0)
    if args.horizon_t is not None:
        traj = run_continuous(spec, args.horizon_t, rng)
    elif args.horizon_n is not None:
        traj = run_discrete(spec, args.horizon_n, rng)
    else:
        raise ConfigError("simulate needs --horizon-t or --horizon-n")
    out = args.out or "trajectory.csv"
    traj.to_csv(out, header_lines=_header(args, spec))
    return EXIT_OK


def _cmd_analytic(args):
    spec = _need_measure(args)
    if args.horizon_t is None:
        raise ConfigError("analytic needs --horizon-t")
    t = args.horizon_t
    lo, ex, up = analytic.variance_sandwich(spec, t)
    _write(args.out or "analytic_report.txt", _header(args, spec), [
        ("t", t),
        ("expected_vertices", analytic.expected_vertices(spec, t)),
        ("urn_variance", analytic.urn_variance(spec, t)),
        ("vertex_variance_lower", lo),
        ("vertex_variance_exact", ex),
        ("vertex_variance_upper", up),
    ])
    return EXIT_OK


def _cmd_series(args):
    spec = _need_measure(args)
    rep = analytic.connectedness_series(spec, window=_window(args, spec))
    _write(args.out or "series_report.txt", _header(args, spec),
           asdict(rep).items())
    return EXIT_OK


def _cmd_clt(args):
    spec = _need_measure(args)
    if args.horizon_t is None:
        raise ConfigError("clt needs --horizon-t")
    rep = montecarlo.clt_diagnostic(spec, args.horizon_t, args.replicas,
                                    args.seed, threads=args.threads)
    _write(args.out or "clt_report.txt", _header(args, spec), [
        ("t", rep.t),
        ("replicas", rep.replicas),
        ("standardized_mean", rep.mean),
        ("standardized_variance", rep.variance),
        ("standardized_skewness", rep.skewness),
        ("ks_statistic", rep.ks_statistic),
        ("normalization_mean", rep.normalization[0]),
        ("normalization_variance", rep.normalization[1]),
        ("normalization_kind", rep.normalization[2]),
        ("low_variance_warning", rep.low_variance_warning),
    ])
    return EXIT_OK


def _respect_fields(rep):
    return [(key, getattr(rep, key)) for key in (
        "partial_product", "blocks_used", "verdict", "verdict_basis")] + [
        (f"factor[{k}]", f"{_text(f)} ({m})")
        for k, (f, m) in enumerate(zip(rep.factors, rep.methods), start=1)]


def _cmd_urns(args):
    spec = _need_measure(args)
    window = _window(args, spec)
    M = spec.marginals.M[1:window + 1]
    if np.any(M <= 0):
        raise ConfigError("urns needs positive marginal rates on the window; "
                          "shrink --window")
    # the urns past the window still compete: their rates join the tail
    tail = float(spec.marginals.M[window + 1:].sum()) + spec.off_window_mass
    rep = urns.urns_in_order(M, tail_sum=tail)
    _write(args.out or "urns_report.txt", _header(args, spec),
           _respect_fields(rep))
    return EXIT_OK


def _cmd_complete(args):
    spec = _need_measure(args)
    blocks = _window(args, spec) - 1
    try:
        rep = urns.essential_completeness_product(spec, blocks)
    except ValueError as exc:
        raise ConfigError(f"--window: {exc}")
    _write(args.out or "complete_report.txt", _header(args, spec),
           _respect_fields(rep))
    return EXIT_OK


def _cmd_couple(args):
    spec = _need_measure(args).normalize()
    if args.horizon_t is None:
        raise ConfigError("couple needs --horizon-t")
    rng = replica_rng(args.seed, 0)
    state = urns.run_coupling(spec, args.horizon_t, rng, record=True)
    out = args.out or "coupling_trace.csv"
    urns.coupling_trace_to_csv(state, out, header_lines=_header(args, spec))
    return EXIT_OK


def _cmd_verify(args):
    """Composition of the analytic-vs-empirical module checks; no new math."""
    from .measure import explicit, power_law_product

    failures = []

    def check(name, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
        if not ok:
            failures.append(name)

    tri = explicit([((1, 2), 1 / 3), ((1, 3), 1 / 3), ((2, 3), 1 / 3)])
    rep = montecarlo.estimate_event(tri, ("I", (1, 2)), 200.0, 20_000,
                                    args.seed, threads=args.threads)
    check("triangle I_e matches 1/3", abs(rep.z_score) < 4,
          f"z={rep.z_score:.2f}")

    path = explicit([((1, 2), 1 / 3), ((2, 3), 1 / 3), ((3, 4), 1 / 3)])
    rep = montecarlo.estimate_event(path, ("I_joint", (1, 2), (3, 4)), 200.0,
                                    20_000, args.seed, threads=args.threads)
    check("path joint I matches closed form", abs(rep.z_score) < 4,
          f"z={rep.z_score:.2f}")

    peak, ok = analytic.check_exp_bound(2.0, 1.0, np.linspace(0, 20, 4001))
    check("exponential product bound", ok and peak <= 0.5,
          f"peak={peak:.4f}")

    rng = replica_rng(args.seed, 7)
    lam = rng.random(6) * 2 + 0.05
    ex = urns.respect_factor(lam, 1.3, method="subset-expansion")
    qd = urns.respect_factor(lam, 1.3, method="quadrature")
    check("respect factor expansion vs quadrature", abs(ex - qd) < 1e-10,
          f"delta={abs(ex - qd):.2e}")

    geo = urns.urns_in_order([2.0**-i for i in range(1, 11)],
                             tail_sum=2.0**-10)
    check("geometric in-order product exact", geo.partial_product == 2.0**-10
          and geo.verdict == "zero-analytic")

    spec = power_law_product(3.0, 12, normalize=True)
    eng = urns.CouplingEngine(spec)
    ok = True
    worst = 0.0
    for k in range(200):
        r = replica_rng(args.seed, 100 + k)
        st = eng.new_state()
        for _ in range(int(r.integers(0, 30))):
            eng.step(st, r)
        free = [i for i in range(1, spec.n_max + 1) if not st.in_u[i]]
        i = int(r.choice(free))
        err = abs(urns.coupling_rate_audit(st, spec, i, engine=eng)
                  - spec.marginals[i])
        worst = max(worst, err)
        ok = ok and err < 1e-12
    check("coupling rate audit 3p == M_i", ok, f"max err={worst:.2e}")

    print(f"verify: {len(failures)} failure(s)")
    return EXIT_OK if not failures else EXIT_TOLERANCE


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analytic": _cmd_analytic,
    "series": _cmd_series,
    "clt": _cmd_clt,
    "urns": _cmd_urns,
    "complete": _cmd_complete,
    "couple": _cmd_couple,
    "verify": _cmd_verify,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args.argv = argv
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
