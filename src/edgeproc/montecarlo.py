"""Replica orchestration and statistical verification.

Every estimator draws per-replica RNG streams with the single splitting rule
in :mod:`edgeproc.process`, so reports are byte-identical regardless of
worker count.  Replicas are drawn in blocks: row r of a ``(B, E)`` block
holds replica k's exponential arrival times, exactly the values
``replica_rng(seed, k).exponential(1 / w)`` returns, and estimators reduce
whole blocks with array operations.  Event estimators take a block's
arrivals in time order (ties go to the lower edge index, as in a stable
sort) and count I-events, components and completeness with the arrival
kernels ``new_vertex_counts`` and ``component_merges``, so no row is
replayed.  Vertex presence scatters the endpoints of the arrivals into
one column per support vertex, and vertex counts count it.  All empirical
checks of tail properties target finite-horizon proxies; reports say so.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import kstest

from . import analytic
from .measure import edge
from .process import (component_merges, exponential_scales,
                      full_stream_arrivals, new_vertex_counts, replica_rng)

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


def _map_blocks(seed, replicas, threads, rates, reduce):
    """reduce(block) over every replica block drawn at rates, in replica order.

    Blocks start at replicas 0, rows, 2 rows, ...; threads take whole
    blocks.  Rows come from their own streams, so neither the thread count
    nor the block size changes a result.
    """
    _check_replicas(replicas, 0)
    scale = exponential_scales(rates)
    rows = max(1, _BLOCK_ELEMENTS // len(scale))

    def work(a):
        return reduce(_draw_block(seed, a, min(a + rows, replicas), scale))

    # zero replicas still make one empty block, so outputs keep shape
    starts = range(0, replicas, rows) or [0]
    if threads <= 1:
        return list(map(work, starts))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, starts))


def _check_replicas(replicas, least):
    if replicas < least:
        raise ValueError(f"replicas must be at least {least}, got {replicas}")


def _grid(ts, name):
    """A time grid as a non-empty 1-d float array."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        raise ValueError(f"{name} is empty: no time to sample at")
    return ts


# -- vertex and edge arrivals --------------------------------------------


def _arrivals(spec, tau, t_max):
    """(rows, edges, times, i, j, new vertices) of the arrivals up to t_max in
    a (B, E) block, row by row in time order, ties going to the lower edge
    index.  Vertex v of row r becomes r * (n_max + 1) + v in i and j, so
    rows share no vertex."""
    rows, ks = np.nonzero(tau <= t_max)
    counts = np.bincount(rows, minlength=len(tau))
    starts = (np.cumsum(counts) - counts)[rows]
    pos = np.arange(len(rows)) - starts
    # each row sorts its own arrivals, padded with inf to the longest row
    pad = np.full((len(tau), counts.max(initial=0)), np.inf)
    pad[rows, pos] = tau[rows, ks]
    ks = ks[starts + np.argsort(pad, axis=1, kind="stable")[rows, pos]]
    off = rows * (spec.n_max + 1)
    i, j = off + spec.ei[ks], off + spec.ej[ks]
    return rows, ks, tau[rows, ks], i, j, new_vertex_counts(i, j)


def _components(rows, t, i, j, nv, B, ts):
    """(len(ts), B): the components of each row's graph at each time in ts."""
    grow = nv - component_merges(i, j)
    return np.stack([np.bincount(rows, weights=grow * (t <= s), minlength=B)
                     for s in ts])


# -- raw samples ---------------------------------------------------------


def _presence(spec, col, tau, t):
    """(B, V): which support vertices an edge has reached by time t, per row
    of a (B, E) block.  ``col`` is cumsum(M > 0) - 1 over the ids, so the
    support ids (M_i > 0) take columns 0..V-1 in ascending order."""
    rows, ks = np.divmod(np.flatnonzero(tau <= t), tau.shape[1])
    pres = np.zeros((len(tau), col[-1] + 1), dtype=bool)
    rows *= pres.shape[1]
    pres.reshape(-1)[rows + col[spec.ei[ks]]] = True
    pres.reshape(-1)[rows + col[spec.ej[ks]]] = True
    return pres


def _counts_below(x, ts):
    """(len(ts), B): per row, how many entries of x are <= each t."""
    return np.stack([np.count_nonzero(x <= t, axis=1) for t in ts])


def vertex_count_samples(spec, ts, replicas, seed, threads=1):
    """|V_t| samples: shape (len(ts), replicas), from per-edge arrival draws."""
    ts = _grid(ts, "ts")
    col = np.cumsum(spec.marginals.M > 0) - 1
    return np.concatenate(_map_blocks(
        seed, replicas, threads, spec.w,
        lambda tau: np.stack([np.count_nonzero(_presence(spec, col, tau, t),
                                               axis=1) for t in ts])), axis=1)


def urn_count_samples(spec, ts, replicas, seed, threads=1):
    """|U_t| samples for the urn scheme with rates M_i."""
    ts = _grid(ts, "ts")
    M = spec.marginals.M[1:]
    M = M[M > 0]
    return np.concatenate(_map_blocks(
        seed, replicas, threads, M,
        lambda fill: _counts_below(fill, ts)), axis=1)


def vertex_presence_samples(spec, t, replicas, seed):
    """Presence of every support vertex at time t: a (replicas, V) boolean
    array and the V vertex ids of its columns, ascending."""
    col = np.cumsum(spec.marginals.M > 0) - 1
    out = np.concatenate(_map_blocks(
        seed, replicas, 1, spec.w,
        lambda tau: _presence(spec, col, tau, t)))
    return out, np.flatnonzero(spec.marginals.M)


# -- event estimators ----------------------------------------------------


def _event_holds(spec, kind, ks, tau, horizon):
    """Per row of a (B, E) block, whether the event holds at the horizon;
    ks are the indices of the target edges of "I" and "I_joint"."""
    rows, k, t, i, j, nv = _arrivals(spec, tau, horizon)
    B = len(tau)
    if kind == "connected":
        return _components(rows, t, i, j, nv, B, [horizon])[0] == 1
    if kind in ("I", "I_joint"):
        first = np.zeros(tau.shape, dtype=bool)
        first[rows[nv == 2], k[nv == 2]] = True
        return first[:, ks].all(axis=1)
    # the arrived vertices are {1..m}, m >= 2, and {1..m} or {1..m-1} is
    # complete; either way every edge at vertex m joins it to the rest
    m = np.bincount(rows, weights=nv, minlength=B)
    top = np.zeros(B, dtype=np.int64)
    np.maximum.at(top, rows, spec.ej[k])
    n_edges = np.bincount(rows, minlength=B)
    at_top = np.bincount(rows[spec.ej[k] == top[rows]], minlength=B)
    return ((m >= 2) & (top == m) & ((n_edges == m * (m - 1) / 2)
            | (n_edges - at_top == (m - 1) * (m - 2) / 2)))


def estimate_event(spec, event, horizon, replicas, seed, threads=1):
    """Empirical probability of a named event on continuous runs to horizon.

    event is one of ("I", e), ("I_joint", e, f), ("connected",),
    ("essentially_complete",).  The estimate is a finite-horizon proxy for
    the corresponding limiting statement.  ``z_score`` is set whenever the
    target is known; at an estimate of 0 or 1 it uses the null-hypothesis
    standard error.
    """
    _check_replicas(replicas, 1)
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
        target, targets = None, []
    else:
        raise ValueError(f"unknown event descriptor {event!r}")

    ks = [spec.edge_index(t) for t in targets]
    hits = 0  # an edge off the support never arrives
    if None not in ks:
        hits = int(sum(_map_blocks(
            seed, replicas, threads, spec.w,
            lambda tau: np.count_nonzero(_event_holds(
                spec, kind, ks, tau, horizon)))))
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
    t_grid = _grid(t_grid, "t_grid")
    _check_replicas(replicas, 1)

    def reduce(tau):
        rows, _, t, i, j, nv = _arrivals(spec, tau, t_grid.max())
        i_counts = np.searchsorted(np.sort(t[nv == 2]), t_grid, side="right")
        conn = np.zeros(len(t_grid), dtype=np.int64)
        if track_connectivity:
            conn = np.count_nonzero(
                _components(rows, t, i, j, nv, len(tau), t_grid) == 1, axis=1)
        return i_counts, conn

    parts = _map_blocks(seed, replicas, threads, spec.w, reduce)
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


_PLATEAU_FRAC, _PLATEAU_REL_TOL = 0.25, 0.01


def plateaued(t_grid, means):
    """Declares a plateau when the last quarter of the grid moved < 1% relative."""
    t_grid = np.asarray(t_grid, dtype=float)
    means = np.asarray(means, dtype=float)
    cut = np.searchsorted(
        t_grid, t_grid[-1] - _PLATEAU_FRAC * (t_grid[-1] - t_grid[0]))
    cut = min(cut, len(means) - 1)
    base = means[cut]
    if base == 0:
        return bool(means[-1] == 0)
    return bool((means[-1] - base) / base < _PLATEAU_REL_TOL)


# -- CLT diagnostics -----------------------------------------------------


def clt_diagnostic(spec, t, replicas, seed, normalization="exact", threads=1):
    """Standardized vertex-count samples against the standard normal.

    Standardization always uses analytic moments, never sample moments:
    the mean is the analytic expected vertex count and the variance is
    either the exact analytic vertex-count variance ("exact") or the urn
    variance ("urn"), as requested.
    """
    _check_replicas(replicas, 2)
    mean_a = analytic.expected_vertices(spec, t)
    if normalization == "exact":
        _, var_a, _ = analytic.variance_sandwich(spec, t)
    elif normalization == "urn":
        var_a = analytic.urn_variance(spec, t)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    if not var_a > 0:
        raise ValueError(f"the analytic variance at t={t} is 0, so the counts "
                         "cannot be standardized")
    counts = vertex_count_samples(spec, [t], replicas, seed, threads=threads)[0]
    if np.all(counts == counts[0]):
        raise ValueError(f"all {replicas} sampled vertex counts at t={t} equal "
                         f"{counts[0]}, so the skewness is undefined")
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
    rng_d, rng_c = replica_rng(seed, 0), replica_rng(seed, 1)
    # discrete route: i.i.d. draws from the normalized measure
    draws = norm.sample_edge_indices(n * replicas, rng_d).reshape(replicas, n)
    # continuous route: full Poisson streams stopped at the n-th arrival
    codes_c = np.empty((replicas, n), dtype=np.int64)
    batch = 2000
    for a in range(0, replicas, batch):
        codes_c[a:a + batch] = full_stream_arrivals(
            spec.w, n, min(batch, replicas - a), rng_c)[1]
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
