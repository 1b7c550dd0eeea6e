"""Replica orchestration and statistical verification.

Every estimator draws per-replica RNG streams with the single splitting rule
in :mod:`edgeproc.process` and reduces results in replica-index order, so
reports are byte-identical regardless of worker count.  All empirical checks
of tail properties target finite-horizon proxies; reports say so.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import kstest

from . import analytic
from .graphstate import GraphState
from .measure import edge
from .process import replica_rng

__all__ = [
    "EstimateReport",
    "CltReport",
    "estimate_event",
    "connected_frequency_curve",
    "i_event_growth",
    "connectivity_growth",
    "plateaued",
    "clt_diagnostic",
    "depoissonization_agreement",
    "vertex_count_samples",
    "urn_count_samples",
    "vertex_presence_samples",
    "variance_standard_error",
]


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    replicas: int
    std_error: float
    target: float = None
    z_score: float = None
    proxy: str = ""


@dataclass(frozen=True)
class CltReport:
    t: float
    replicas: int
    mean: float
    variance: float
    skewness: float
    ks_statistic: float
    normalization: tuple  # (analytic mean, analytic variance, label)
    low_variance_warning: bool


def _chunked(replicas, threads, work):
    """Run work(start, stop) over contiguous replica ranges; keep order."""
    threads = max(int(threads), 1)
    if threads == 1:
        return [work(0, replicas)]
    bounds = np.linspace(0, replicas, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futs = [pool.submit(work, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        return [f.result() for f in futs]


# -- raw samples ---------------------------------------------------------


def _vertex_groups(spec):
    """Edge indices grouped by endpoint, for reduceat vertex-arrival minima."""
    g = spec._cache.get("vgroups")
    if g is None:
        E = len(spec.w)
        verts = np.concatenate([spec.ei, spec.ej])
        eidx = np.concatenate([np.arange(E), np.arange(E)])
        order = np.argsort(verts, kind="stable")
        verts, eidx = verts[order], eidx[order]
        uniq, starts = np.unique(verts, return_index=True)
        g = (uniq, starts, eidx)
        spec._cache["vgroups"] = g
    return g


def vertex_count_samples(spec, ts, replicas, seed, threads=1):
    """|V_t| samples: shape (len(ts), replicas), from per-edge arrival draws."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    uniq, starts, eidx = _vertex_groups(spec)
    inv_w = 1.0 / spec.w

    def work(a, b):
        out = np.empty((len(ts), b - a), dtype=np.int64)
        for k in range(a, b):
            rng = replica_rng(seed, k)
            tau = rng.exponential(inv_w)
            vmin = np.minimum.reduceat(tau[eidx], starts)
            out[:, k - a] = np.sum(vmin[None, :] <= ts[:, None], axis=1)
        return out

    return np.concatenate(_chunked(replicas, threads, work), axis=1)


def urn_count_samples(spec, ts, replicas, seed, threads=1):
    """|U_t| samples for the urn scheme with rates M_i."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    M = spec.marginals.M[1:]
    M = M[M > 0]

    def work(a, b):
        out = np.empty((len(ts), b - a), dtype=np.int64)
        for k in range(a, b):
            rng = replica_rng(seed, k)
            fill = rng.exponential(1.0 / M)
            out[:, k - a] = np.sum(fill[None, :] <= ts[:, None], axis=1)
        return out

    return np.concatenate(_chunked(replicas, threads, work), axis=1)


def vertex_presence_samples(spec, t, replicas, seed):
    """Boolean presence of every window vertex at time t: shape (replicas, V)."""
    uniq, starts, eidx = _vertex_groups(spec)
    inv_w = 1.0 / spec.w
    out = np.empty((replicas, len(uniq)), dtype=bool)
    for k in range(replicas):
        rng = replica_rng(seed, k)
        tau = rng.exponential(inv_w)
        out[k] = np.minimum.reduceat(tau[eidx], starts) <= t
    return out, uniq


# -- event estimators ----------------------------------------------------


def _replay_events(spec, tau, horizon, targets):
    """Replay sorted arrivals; returns {edge: brought-two-new-vertices}."""
    keep = np.nonzero(tau <= horizon)[0]
    order = keep[np.argsort(tau[keep], kind="stable")]
    seen = set()
    hit = {}
    want = set(targets)
    for k in order:
        i, j = int(spec.ei[k]), int(spec.ej[k])
        new = (i not in seen) + (j not in seen)
        seen.add(i)
        seen.add(j)
        if (i, j) in want and (i, j) not in hit:
            hit[(i, j)] = new == 2
            if len(hit) == len(want):
                break
    return hit


def estimate_event(spec, event, horizon, replicas, seed, threads=1):
    """Empirical probability of a named event on continuous runs to horizon.

    event is one of ("I", e), ("I_joint", e, f), ("connected",),
    ("essentially_complete",).  The estimate is a finite-horizon proxy for
    the corresponding limiting statement.  ``z_score`` is set whenever the
    target is known; at an estimate of 0 or 1 it uses the null-hypothesis
    standard error.
    """
    kind = event[0]
    inv_w = 1.0 / spec.w
    if kind == "I":
        e = edge(*event[1])
        target = analytic.prob_Ie(spec, e)
        targets = [e]
    elif kind == "I_joint":
        e, f = edge(*event[1]), edge(*event[2])
        target = analytic.prob_Ie_and_If(spec, e, f)
        targets = [e, f]
    elif kind in ("connected", "essentially_complete"):
        target = None
        targets = None
    else:
        raise ValueError(f"unknown event descriptor {event!r}")

    def work(a, b):
        hits = 0
        for k in range(a, b):
            rng = replica_rng(seed, k)
            tau = rng.exponential(inv_w)
            if kind == "I":
                got = _replay_events(spec, tau, horizon, targets)
                hits += bool(got.get(targets[0], False))
            elif kind == "I_joint":
                got = _replay_events(spec, tau, horizon, targets)
                hits += (got.get(targets[0], False)
                         and got.get(targets[1], False))
            else:
                state = GraphState()
                keep = np.nonzero(tau <= horizon)[0]
                order = keep[np.argsort(tau[keep], kind="stable")]
                for kk in order:
                    state.apply_event((int(spec.ei[kk]), int(spec.ej[kk])))
                if kind == "connected":
                    hits += state.is_connected()
                else:
                    hits += state.is_essentially_complete()
        return hits

    hits = sum(_chunked(replicas, threads, work))
    est = hits / replicas
    se = float(np.sqrt(est * (1.0 - est) / replicas))
    z = None
    if target is not None:
        # at an estimate of 0 or 1 the plug-in error is 0, so the error under
        # the null hypothesis p = target sets the scale instead
        scale = se or float(np.sqrt(target * (1.0 - target) / replicas))
        if scale > 0:
            z = (est - target) / scale
        elif est == target:
            z = 0.0
        else:
            z = math.copysign(math.inf, est - target)
    return EstimateReport(estimate=est, replicas=replicas, std_error=se,
                          target=target, z_score=z,
                          proxy=f"event frequency at horizon T={horizon}")


# -- growth curves -------------------------------------------------------


def connectivity_growth(spec, t_grid, replicas, seed, track_connectivity=True,
                        threads=1):
    """Mean cumulative new-component counts (and connected frequency) per t."""
    t_grid = np.asarray(t_grid, dtype=float)
    inv_w = 1.0 / spec.w
    G = len(t_grid)

    def work(a, b):
        i_counts = np.zeros((G,), dtype=np.float64)
        conn = np.zeros((G,), dtype=np.float64)
        for k in range(a, b):
            rng = replica_rng(seed, k)
            tau = rng.exponential(inv_w)
            keep = np.nonzero(tau <= t_grid[-1])[0]
            order = keep[np.argsort(tau[keep], kind="stable")]
            times = tau[order]
            state = GraphState()
            ptr = 0
            for gi, t in enumerate(t_grid):
                while ptr < len(order) and times[ptr] <= t:
                    kk = order[ptr]
                    state.apply_event((int(spec.ei[kk]), int(spec.ej[kk])))
                    ptr += 1
                i_counts[gi] += state.i_event_count
                if track_connectivity:
                    conn[gi] += state.is_connected()
        return i_counts, conn

    parts = _chunked(replicas, threads, work)
    i_counts = sum(p[0] for p in parts) / replicas
    conn = sum(p[1] for p in parts) / replicas
    return i_counts, conn


def connected_frequency_curve(spec, t_grid, replicas, seed, threads=1):
    _, conn = connectivity_growth(spec, t_grid, replicas, seed, threads=threads)
    return list(zip(np.asarray(t_grid, dtype=float).tolist(), conn.tolist()))


def i_event_growth(spec, t_grid, replicas, seed, threads=1):
    means, _ = connectivity_growth(spec, t_grid, replicas, seed,
                                   track_connectivity=False, threads=threads)
    return means


def plateaued(t_grid, means, last_frac=0.25, rel_tol=0.01):
    """Declares a plateau when the last quarter of the grid moved < 1% relative."""
    t_grid = np.asarray(t_grid, dtype=float)
    means = np.asarray(means, dtype=float)
    cut = np.searchsorted(t_grid, t_grid[-1] - last_frac * (t_grid[-1] - t_grid[0]))
    cut = min(cut, len(means) - 1)
    base = means[cut]
    if base == 0:
        return bool(means[-1] == 0)
    return bool((means[-1] - base) / base < rel_tol)


# -- CLT diagnostics -----------------------------------------------------


def clt_diagnostic(spec, t, replicas, seed, normalization="exact", threads=1):
    """Standardized vertex-count samples against the standard normal.

    Standardization always uses analytic moments, never sample moments:
    the mean is the analytic expected vertex count and the variance is
    either the exact analytic vertex-count variance ("exact") or the urn
    variance ("urn"), as requested.
    """
    mean_a = analytic.expected_vertices(spec, t)
    if normalization == "exact":
        _, var_a, _ = analytic.variance_sandwich(spec, t)
    elif normalization == "urn":
        var_a = analytic.urn_variance(spec, t)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    counts = vertex_count_samples(spec, [t], replicas, seed, threads=threads)[0]
    std = (counts - mean_a) / np.sqrt(var_a)
    ks = float(kstest(std, "norm").statistic)
    m = float(np.mean(std))
    v = float(np.var(std, ddof=1))
    skew = float(np.mean((std - m) ** 3) / np.std(std) ** 3)
    return CltReport(t=float(t), replicas=replicas, mean=m, variance=v,
                     skewness=skew, ks_statistic=ks,
                     normalization=(mean_a, var_a, normalization),
                     low_variance_warning=var_a < 1.0)


# -- de-Poissonization ---------------------------------------------------


def depoissonization_agreement(spec, n, replicas, seed):
    """L1 distance between discrete and arrival-stopped edge-order laws.

    Histograms ordered n-tuples of support-edge indices, so the support must
    stay small (<= 10 edges, n <= 3).
    """
    E = len(spec.w)
    if E > 10 or n > 3:
        raise ValueError("tuple histogramming needs <= 10 edges and n <= 3")
    norm = spec.normalize()
    rng_d = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    rng_c = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    # discrete route: i.i.d. draws from the normalized measure
    draws = norm.sample_edge_indices(n * replicas, rng_d).reshape(replicas, n)
    # continuous route: full Poisson streams stopped at the n-th arrival
    codes_c = np.empty((replicas, n), dtype=np.int64)
    batch = 2000
    for a in range(0, replicas, batch):
        b = min(a + batch, replicas)
        gaps = rng_c.exponential(1.0 / spec.w[None, :, None],
                                 size=(b - a, E, n))
        times = np.cumsum(gaps, axis=2).reshape(b - a, E * n)
        first = np.argsort(times, axis=1)[:, :n]
        codes_c[a:b] = first // n  # edge index of each of the first n arrivals
    base = E ** np.arange(n)
    hist_d = np.bincount(draws @ base, minlength=E**n) / replicas
    hist_c = np.bincount(codes_c @ base, minlength=E**n) / replicas
    return float(np.abs(hist_d - hist_c).sum())


# -- misc statistics -----------------------------------------------------


def variance_standard_error(samples):
    """Asymptotic standard error of the sample variance."""
    x = np.asarray(samples, dtype=float)
    m = x.mean()
    s2 = x.var(ddof=1)
    m4 = np.mean((x - m) ** 4)
    return float(np.sqrt(max(m4 - s2**2, 0.0) / len(x)))
