"""Command-line entry point: one binary, subcommand per experiment.

Every output file begins with a header block recording the command line,
measure config hash, seed (where one is read), window and tool version, so
runs are auditable and reproducible byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from dataclasses import asdict

import numpy as np

from . import __version__, analytic, montecarlo, urns
from .measure import load_measure
from .process import replica_rng, run_continuous, run_discrete

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2


_OPTIONS = {
    "measure": {"help": "path to a measure config file"},
    "seed": {"type": int, "default": 0},
    "horizon-t": {"type": float, "default": None},
    "horizon-n": {"type": int, "default": None},
    "window": {"type": int, "default": None},
    "replicas": {"type": int, "default": 10_000},
}


# handler(args, spec) returns an exit code, None for EXIT_OK; flags: the
# flags it reads; required: refused if missing; out: the default output
# file; a subcommand with one takes --out
_Command = namedtuple("_Command", "handler flags required out",
                      defaults=((), None))


def _parser():
    p = argparse.ArgumentParser(prog="edgeproc",
                                description="edge-driven random graph toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in cmd.flags:
            sp.add_argument(f"--{flag}", **_OPTIONS[flag])
        if cmd.out:
            sp.add_argument("--out")
    return p


def _header(args, spec):
    return [
        f"command: {args.command} " + " ".join(args.argv[1:]),
        f"config_hash: {spec.config_hash()}",
        *([f"seed: {args.seed}"] if "seed" in args else []),
        f"window: {getattr(args, 'window', None) or spec.n_max}",
        f"version: edgeproc {__version__}",
    ]


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
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad measure config ({args.measure}): {exc}")


class ConfigError(Exception):
    pass


def _cmd_simulate(args, spec):
    if args.horizon_t is not None and args.horizon_n is not None:
        raise ConfigError("simulate takes one of --horizon-t and --horizon-n")
    rng = replica_rng(args.seed, 0)
    if args.horizon_t is not None:
        traj = run_continuous(spec, args.horizon_t, rng)
    elif args.horizon_n is not None:
        traj = run_discrete(spec, args.horizon_n, rng)
    else:
        raise ConfigError("simulate needs --horizon-t or --horizon-n")
    traj.to_csv(args.out, header_lines=_header(args, spec))


def _cmd_analytic(args, spec):
    t = args.horizon_t
    lo, ex, up = analytic.variance_sandwich(spec, t)
    _write(args.out, _header(args, spec), [
        ("t", t),
        ("expected_vertices", analytic.expected_vertices(spec, t)),
        ("urn_variance", analytic.urn_variance(spec, t)),
        ("vertex_variance_lower", lo),
        ("vertex_variance_exact", ex),
        ("vertex_variance_upper", up),
    ])


def _cmd_series(args, spec):
    rep = analytic.connectedness_series(spec, window=args.window)
    _write(args.out, _header(args, spec), asdict(rep).items())


def _cmd_clt(args, spec):
    rep = montecarlo.clt_diagnostic(spec, args.horizon_t, args.replicas,
                                    args.seed)
    _write(args.out, _header(args, spec), [
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


def _respect_fields(rep):
    return [(key, getattr(rep, key)) for key in (
        "partial_product", "blocks_used", "verdict", "verdict_basis")] + [
        (f"factor[{k}]", f"{_text(f)} ({m})")
        for k, (f, m) in enumerate(zip(rep.factors, rep.methods), start=1)]


def _cmd_urns(args, spec):
    window = args.window
    M = spec.marginals.M[1:window + 1]
    if np.any(M <= 0):
        raise ConfigError("urns needs positive marginal rates on the window; "
                          "shrink --window")
    # the urns past the window still compete: their rates join the tail
    tail = float(spec.marginals.M[window + 1:].sum()) + spec.off_window_mass
    rep = urns.urns_in_order(M, tail_sum=tail)
    _write(args.out, _header(args, spec), _respect_fields(rep))


def _cmd_complete(args, spec):
    try:
        rep = urns.essential_completeness_product(spec, args.window - 1)
    except ValueError as exc:
        raise ConfigError(f"--window: {exc}")
    _write(args.out, _header(args, spec), _respect_fields(rep))


def _cmd_couple(args, spec):
    spec = spec.normalize()
    rng = replica_rng(args.seed, 0)
    state = urns.run_coupling(spec, args.horizon_t, rng, record=True)
    urns.coupling_trace_to_csv(state, args.out,
                               header_lines=_header(args, spec))


def _cmd_verify(args, _):
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
                                    args.seed)
    check("triangle I_e matches 1/3", abs(rep.z_score) < 4,
          f"z={rep.z_score:.2f}")

    path = explicit([((1, 2), 1 / 3), ((2, 3), 1 / 3), ((3, 4), 1 / 3)])
    rep = montecarlo.estimate_event(path, ("I_joint", (1, 2), (3, 4)), 200.0,
                                    20_000, args.seed)
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
    "simulate": _Command(_cmd_simulate,
                         ("measure", "seed", "horizon-t", "horizon-n"),
                         out="trajectory.csv"),
    "analytic": _Command(_cmd_analytic, ("measure", "horizon-t"),
                         ("horizon-t",), "analytic_report.txt"),
    "series": _Command(_cmd_series, ("measure", "window"),
                       out="series_report.txt"),
    "clt": _Command(_cmd_clt,
                    ("measure", "seed", "horizon-t", "replicas"),
                    ("horizon-t",), "clt_report.txt"),
    "urns": _Command(_cmd_urns, ("measure", "window"), out="urns_report.txt"),
    "complete": _Command(_cmd_complete, ("measure", "window"),
                         out="complete_report.txt"),
    "couple": _Command(_cmd_couple, ("measure", "seed", "horizon-t"),
                       ("horizon-t",), "coupling_trace.csv"),
    "verify": _Command(_cmd_verify, ("seed",)),
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args.argv = argv
    cmd = _COMMANDS[args.command]
    try:
        spec = _need_measure(args) if "measure" in cmd.flags else None
        for flag in cmd.required:
            if getattr(args, flag.replace("-", "_")) is None:
                raise ConfigError(f"{args.command} needs --{flag}")
        if "window" in cmd.flags:
            # the measure's window rule; a bad --window is a config error
            try:
                args.window = spec.window(args.window)
            except ValueError as exc:
                raise ConfigError(f"--window: {exc}")
        if cmd.out:
            args.out = args.out or cmd.out
        return cmd.handler(args, spec) or EXIT_OK
    except (ConfigError, ValueError) as exc:
        # a flag value the library rejects (a negative seed, too few
        # replicas, an unusable horizon) is a configuration error too
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
