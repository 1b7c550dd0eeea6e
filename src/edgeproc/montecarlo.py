"""Replica orchestration and statistical verification.

Every estimator draws per-replica RNG streams with the single splitting rule
in :mod:`edgeproc.process`, so reports are byte-identical regardless of
worker count.  Replicas are drawn in blocks: row r of a ``(B, E)`` block
holds replica k's exponential arrival times, exactly the values
``replica_rng(seed, k).exponential(1 / w)`` returns, and estimators reduce
whole blocks with array operations.  An edge opens a new component exactly
when it is the first arrival at both of its endpoints (ties go to the lower
edge index, as in a stable sort), so I-event estimates need no replay;
only connectivity and essential completeness replay rows through
``GraphState``.  All empirical checks of tail properties target
finite-horizon proxies; reports say so.
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

# arrival times per replica block: B = max(1, _BLOCK_ELEMENTS // E) rows
_BLOCK_ELEMENTS = 1 << 16


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


def _draw_block(seed, a, b, scale):
    """Exponential draws with the given scales for replicas a..b-1, one row
    each: the same values as ``replica_rng(seed, k).exponential(scale)``."""
    tau = np.empty((b - a, len(scale)))
    for k in range(a, b):
        replica_rng(seed, k).standard_exponential(out=tau[k - a])
    tau *= scale
    return tau


def _map_blocks(seed, replicas, threads, scale, reduce):
    """reduce(block) over every replica block, in replica order.

    Threads take contiguous replica ranges; rows come from their own
    streams, so neither the thread count nor the block size changes a
    result.
    """
    rows = max(1, _BLOCK_ELEMENTS // len(scale))

    def work(a, b):
        # zero replicas still make one empty block, so outputs keep shape
        return [reduce(_draw_block(seed, s, min(s + rows, b), scale))
                for s in range(a, b, rows) or [a]]

    threads = max(int(threads), 1)
    if threads == 1:
        return work(0, replicas)
    bounds = np.linspace(0, replicas, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futs = [pool.submit(work, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        return [part for f in futs for part in f.result()]


# -- vertex first arrivals -----------------------------------------------


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


def _endpoint_groups(spec):
    """Vertex group of each edge's two endpoints: a (2, E) array."""
    ends = spec._cache.get("vends")
    if ends is None:
        ends = np.searchsorted(_vertex_groups(spec)[0],
                               np.stack([spec.ei, spec.ej]))
        spec._cache["vends"] = ends
    return ends


def _vertex_minima(groups, tau):
    """First arrival time at every window vertex, per row: (B, V)."""
    _, starts, eidx = groups
    return np.minimum.reduceat(tau[:, eidx], starts, axis=1)


def _first_arrivals(groups, ends, tau):
    """(B, E) mask of I-events: edges that are the first arrival at both of
    their endpoints, ties going to the lower edge index."""
    uniq, starts, eidx = groups
    vmin = _vertex_minima(groups, tau)
    at_i = tau == vmin[:, ends[0]]
    at_j = tau == vmin[:, ends[1]]
    if np.count_nonzero(at_i) + np.count_nonzero(at_j) == vmin.size:
        return at_i & at_j  # each vertex minimum is attained exactly once
    # ties: the first arrival at a vertex is its lowest-index edge at the min
    E = tau.shape[1]
    group = np.repeat(np.arange(len(uniq)), np.diff(starts, append=2 * E))
    at_min = tau[:, eidx] == vmin[:, group]
    first = np.minimum.reduceat(np.where(at_min, eidx, E), starts, axis=1)
    k = np.arange(E)
    return (first[:, ends[0]] == k) & (first[:, ends[1]] == k)


# -- raw samples ---------------------------------------------------------


def _counts_below(x, ts):
    """(len(ts), B): per row, how many entries of x are <= each t."""
    return np.stack([np.count_nonzero(x <= t, axis=1) for t in ts])


def vertex_count_samples(spec, ts, replicas, seed, threads=1):
    """|V_t| samples: shape (len(ts), replicas), from per-edge arrival draws."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    # built before the draws, so its temporaries never coexist with a block
    groups = _vertex_groups(spec)
    return np.concatenate(_map_blocks(
        seed, replicas, threads, 1.0 / spec.w,
        lambda tau: _counts_below(_vertex_minima(groups, tau), ts)), axis=1)


def urn_count_samples(spec, ts, replicas, seed, threads=1):
    """|U_t| samples for the urn scheme with rates M_i."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    M = spec.marginals.M[1:]
    M = M[M > 0]
    return np.concatenate(_map_blocks(
        seed, replicas, threads, 1.0 / M,
        lambda fill: _counts_below(fill, ts)), axis=1)


def vertex_presence_samples(spec, t, replicas, seed):
    """Boolean presence of every window vertex at time t: shape (replicas, V)."""
    groups = _vertex_groups(spec)
    out = np.concatenate(_map_blocks(
        seed, replicas, 1, 1.0 / spec.w,
        lambda tau: _vertex_minima(groups, tau) <= t))
    return out, groups[0]


# -- event estimators ----------------------------------------------------


def _replayed(spec, tau, horizon):
    """GraphState after the arrivals of one row up to the horizon."""
    keep = np.nonzero(tau <= horizon)[0]
    state = GraphState()
    for kk in keep[np.argsort(tau[keep], kind="stable")]:
        state.apply_event((int(spec.ei[kk]), int(spec.ej[kk])))
    return state


def estimate_event(spec, event, horizon, replicas, seed, threads=1):
    """Empirical probability of a named event on continuous runs to horizon.

    event is one of ("I", e), ("I_joint", e, f), ("connected",),
    ("essentially_complete",).  The estimate is a finite-horizon proxy for
    the corresponding limiting statement.  ``z_score`` is set whenever the
    target is known; at an estimate of 0 or 1 it uses the null-hypothesis
    standard error.
    """
    kind = event[0]
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
    else:
        raise ValueError(f"unknown event descriptor {event!r}")

    if target is None:
        holds = (GraphState.is_connected if kind == "connected"
                 else GraphState.is_essentially_complete)

        def reduce(tau):
            return sum(holds(_replayed(spec, row, horizon)) for row in tau)
    else:
        ks = [spec._index().get(t) for t in targets]
        groups, ends = _vertex_groups(spec), _endpoint_groups(spec)

        def reduce(tau):
            if None in ks:  # an edge off the support never arrives
                return 0
            hit = (_first_arrivals(groups, ends, tau)[:, ks]
                   & (tau[:, ks] <= horizon))
            return int(np.count_nonzero(hit.all(axis=1)))

    hits = sum(_map_blocks(seed, replicas, threads, 1.0 / spec.w, reduce))
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
    groups, ends = _vertex_groups(spec), _endpoint_groups(spec)

    def reduce(tau):
        i_times = np.sort(tau[_first_arrivals(groups, ends, tau)])
        i_counts = np.searchsorted(i_times, t_grid, side="right")
        conn = np.zeros(len(t_grid), dtype=np.int64)
        if track_connectivity:
            for row in tau:
                keep = np.nonzero(row <= t_grid[-1])[0]
                order = keep[np.argsort(row[keep], kind="stable")]
                stops = np.searchsorted(row[order], t_grid, side="right")
                state, ptr = GraphState(), 0
                for gi, stop in enumerate(stops):
                    for kk in order[ptr:stop]:
                        state.apply_event((int(spec.ei[kk]),
                                           int(spec.ej[kk])))
                    ptr = stop
                    conn[gi] += state.is_connected()
        return i_counts, conn

    parts = _map_blocks(seed, replicas, threads, 1.0 / spec.w, reduce)
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
