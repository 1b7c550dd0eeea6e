"""Replica orchestration and statistical verification.

Every estimator draws per-replica RNG streams with the single splitting rule,
``process.replica_rng``, so reports are byte-identical regardless of worker
count.  Replicas are drawn in blocks of B rows: row r holds replica k's
exponential arrival times, exactly the values
``replica_rng(seed, k).exponential(1 / w)`` returns.  A block holds at most
2^16 draws for every E: B rows fill it, or, when a row does not fit twice,
one row is drawn in chunks of at most 2^16 columns.  It reaches its
reducer as its arrivals up to the latest time the estimator reads: rows,
columns and times in row-major order.  A block's rows are seeded with
``process._replica_seed_words``, the words ``replica_rng`` seeds one
replica with, hashed for every row at once.  This module owns how a block
is drawn (``_draw_block``) and which pool reduces it: one-row blocks are
spread over the CPUs the process may use and multi-row blocks stay on the
calling thread.  A call takes at most 2^32 replicas.
Estimators reduce whole blocks with array operations.  Event estimators
take a block's arrivals in ``process.arrival_order``, the one
first-arrival order, which ``run_continuous`` reads too (its docstring
gives the tie rule), and count I-events, components and completeness with
the arrival kernels ``new_vertex_counts`` and ``component_merges``, so no
row is replayed.  Vertex presence scatters the endpoints of the arrivals
into one column per support vertex, and vertex counts count it.  All
empirical checks of tail properties target finite-horizon proxies; reports
say so.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import kstest

from . import analytic
from .measure import edge
from .process import (_GivenWords, _replica_seed_words, arrival_order,
                      component_merges, exponential_scales,
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

# arrival times per replica block: B = max(1, _BLOCK_ELEMENTS // E) rows,
# or // (E * n) for full streams of n arrivals; a one-row block is drawn in
# chunks of at most this many columns
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


# -- replica blocks ------------------------------------------------------


def _draw_block(words, a, b, rates, t_max):
    """Rows (0 for replica a), columns and times of the exponential draws
    <= t_max at the given rates for replicas a..b-1, in row-major order.
    Row k's draws are the values ``replica_rng(seed, k).exponential(1 /
    rates)`` returns, where ``words = _replica_seed_words(seed)``: each
    row's PCG64 is seeded with its k's words, which numpy reads by pointer
    from the C-contiguous array; the seeding and the draws are numpy's.

    A block holds at most ``_BLOCK_ELEMENTS`` draws at a time, for every E.
    A multi-row block is drawn whole and thresholded at once.  A one-row
    block refills one buffer of at most that many columns from its
    generator, chunk after chunk: filling a generator in pieces gives the
    values of one whole fill.
    """
    E = len(rates)
    src = _GivenWords()
    if b - a != 1:
        tau = np.empty((b - a, E))
        for w, row in zip(words(a, b), tau):
            src.words = w
            np.random.Generator(np.random.PCG64(src)).standard_exponential(
                out=row)
        return _arrived(tau, rates, t_max, 0)
    src.words = words(a, b)[0]
    gen = np.random.Generator(np.random.PCG64(src))
    buf = np.empty((1, min(E, _BLOCK_ELEMENTS)))
    parts = []
    for c in range(0, E, buf.shape[1]):
        chunk = buf[:, :E - c]
        gen.standard_exponential(out=chunk[0])
        parts.append(_arrived(chunk, rates[c:c + chunk.shape[1]], t_max, c))
    return tuple(map(np.concatenate, zip(*parts)))


def _arrived(tau, rates, t_max, c):
    """Rows, columns (counted from c) and times of the entries <= t_max of
    standard exponential draws tau, scaled in place to the rates, in
    row-major order."""
    tau *= exponential_scales(rates)
    at = np.flatnonzero(tau <= t_max)  # np.nonzero on 2-d arrays is slower
    rows, ks = np.divmod(at, tau.shape[1])
    ks += c
    return rows, ks, tau.reshape(-1)[at]


def _map_blocks(seed, replicas, threads, rates, t_max, reduce):
    """reduce(B, rows, columns, times) over every replica block drawn at
    rates, in replica order; a block of B rows comes as its arrivals up to
    t_max, from ``_draw_block``.

    Blocks start at replicas 0, rows, 2 rows, ...; threads take whole
    blocks.  Rows come from their own streams, so neither the thread count
    nor the block size changes a result.  With ``threads=None`` the pool is
    picked from the block shape: one-row blocks go to one thread per CPU
    this process may use, since numpy's exponential fill releases the GIL;
    multi-row blocks stay on the calling thread, since seeding their rows
    holds it.  Only ``estimate_event`` and ``vertex_count_samples`` pass a
    count, and only when their caller gives one.
    """
    _check_replicas(replicas, 0)
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if replicas > 1 << 32:  # replica k's key is one uint32 word
        raise ValueError(f"replicas must be at most 2^32, got {replicas}")
    words = _replica_seed_words(seed)
    rows = max(1, _BLOCK_ELEMENTS // len(rates))
    if threads is None:
        threads = 1
        if rows == 1:  # the CPUs this process may use, where the OS says
            threads = (len(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity") else os.cpu_count())

    def work(a):
        b = min(a + rows, replicas)
        return reduce(b - a, *_draw_block(words, a, b, rates, t_max))

    # zero replicas still make one empty block, so outputs keep shape
    starts = range(0, replicas, rows) or [0]
    if threads == 1:
        return list(map(work, starts))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, starts))


def _check_replicas(replicas, least):
    if replicas < least:
        raise ValueError(f"replicas must be at least {least}, got {replicas}")


def _grid(ts, name):
    """A time grid as a non-empty 1-d float array of times >= 0 (inf too)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        raise ValueError(f"{name} is empty: no time to sample at")
    if not np.all(ts >= 0):  # NaN too
        raise ValueError(f"{name} must hold non-negative times, got "
                         f"{ts[~(ts >= 0)][0]}")
    return ts


# -- vertex and edge arrivals --------------------------------------------


def _arrivals(spec, rows, ks, t):
    """(rows, edges, times, i, j, new vertices) of a block's arrivals, given
    in row-major order, in ``arrival_order``.  Vertex v of row r becomes
    r * (n_max + 1) + v in i and j, so rows share no vertex."""
    rows, ks, t = arrival_order(rows, ks, t)
    off = rows * (spec.n_max + 1)
    i, j = off + spec.ei[ks], off + spec.ej[ks]
    return rows, ks, t, i, j, new_vertex_counts(i, j)


def _components(rows, t, i, j, nv, B, ts):
    """(len(ts), B): the components of each row's graph at each time in ts."""
    grow = nv - component_merges(i, j)
    return np.stack([np.bincount(rows, weights=grow * (t <= s), minlength=B)
                     for s in ts])


# -- raw samples ---------------------------------------------------------


def _presence(spec, col, B, rows, ks):
    """(B, V): which support vertices the arrived edges (rows, ks) of a
    block of B rows reach.  ``col`` is cumsum(M > 0) - 1 over the ids, so
    the support ids (M_i > 0) take columns 0..V-1 in ascending order."""
    pres = np.zeros((B, col[-1] + 1), dtype=bool)
    rows = rows * pres.shape[1]
    pres.reshape(-1)[rows + col[spec.ei[ks]]] = True
    pres.reshape(-1)[rows + col[spec.ej[ks]]] = True
    return pres


def _count_samples(ts, replicas, seed, threads, rates, count):
    """(len(ts), replicas): count(B, rows, columns), one count per row of
    a block's arrivals by t, at each time t in the grid ts, over blocks
    drawn at rates."""
    ts = _grid(ts, "ts")
    return np.concatenate(_map_blocks(
        seed, replicas, threads, rates, ts.max(),
        lambda B, rows, ks, t: np.stack([
            count(B, rows[t <= s], ks[t <= s]) for s in ts])), axis=1)


def vertex_count_samples(spec, ts, replicas, seed, threads=None):
    """|V_t| samples: shape (len(ts), replicas), from per-edge arrival draws.

    Leave ``threads`` out for the pool picked from the block shape.  It is
    kept for one caller, the benchmark's ``threads2_speedup``, which times
    1 against 2 threads (ROADMAP item 9); a count below 1 is refused.
    """
    col = np.cumsum(spec.marginals.M > 0) - 1
    return _count_samples(
        ts, replicas, seed, threads, spec.w, lambda B, rows, ks:
        np.count_nonzero(_presence(spec, col, B, rows, ks), axis=1))


def urn_count_samples(spec, ts, replicas, seed):
    """|U_t| samples for the urn scheme with rates M_i."""
    M = spec.marginals.M[1:]
    return _count_samples(ts, replicas, seed, None, M[M > 0],
                          lambda B, rows, _: np.bincount(rows, minlength=B))


def vertex_presence_samples(spec, t, replicas, seed):
    """Presence of every support vertex at time t: a (replicas, V) boolean
    array and the V vertex ids of its columns, ascending."""
    ts = _grid(t, "t")
    if ts.size != 1:
        raise ValueError(f"t must be one time, got {ts.size} times")
    (t,) = ts
    col = np.cumsum(spec.marginals.M > 0) - 1
    out = np.concatenate(_map_blocks(
        seed, replicas, None, spec.w, t,
        lambda B, rows, ks, _: _presence(spec, col, B, rows, ks)))
    return out, np.flatnonzero(spec.marginals.M)


# -- event estimators ----------------------------------------------------


def _event_holds(spec, kind, targets, B, rows, ks, t):
    """Per row of a block of B rows, whether the event holds at the horizon,
    from the block's arrivals up to it; targets are the indices of the
    target edges of "I" and "I_joint"."""
    rows, k, t, i, j, nv = _arrivals(spec, rows, ks, t)
    if kind == "connected":
        return _components(rows, t, i, j, nv, B, [np.inf])[0] == 1
    if kind in ("I", "I_joint"):
        first = np.zeros((B, len(targets)), dtype=bool)
        for m, target in enumerate(targets):
            first[rows[(nv == 2) & (k == target)], m] = True
        return first.all(axis=1)
    # the arrived vertices are {1..m}, m >= 2, and {1..m} or {1..m-1} is
    # complete; either way every edge at vertex m joins it to the rest
    m = np.bincount(rows, weights=nv, minlength=B)
    top = np.zeros(B, dtype=np.int64)
    np.maximum.at(top, rows, spec.ej[k])
    n_edges = np.bincount(rows, minlength=B)
    at_top = np.bincount(rows[spec.ej[k] == top[rows]], minlength=B)
    return ((m >= 2) & (top == m) & ((n_edges == m * (m - 1) / 2)
            | (n_edges - at_top == (m - 1) * (m - 2) / 2)))


# event kind: (the number of edges its descriptor names, the closed form of
# its probability, or None where there is none)
_EVENTS = {"I": (1, analytic.prob_Ie), "I_joint": (2, analytic.prob_Ie_and_If),
           "connected": (0, None), "essentially_complete": (0, None)}


def estimate_event(spec, event, horizon, replicas, seed, threads=None):
    """Empirical probability of a named event on continuous runs to horizon.

    event is one of ("I", e) (one edge), ("I_joint", e, f) (two edges),
    ("connected",) and ("essentially_complete",) (no edge), each edge a
    sequence of two integral ids; any other kind, edge count, edge or id is
    a ValueError.
    The estimate is a finite-horizon proxy for the corresponding limiting
    statement.  ``z_score`` is set whenever the target is known; at an
    estimate of 0 or 1 it uses the null-hypothesis standard error.

    Leave ``threads`` out for the pool picked from the block shape.  It is
    kept for one caller, the benchmark's ``threads2_speedup``, which times
    1 against 2 threads (ROADMAP item 9); a count below 1 is refused.
    """
    _check_replicas(replicas, 1)
    if not horizon > 0:  # NaN too
        raise ValueError("horizon must be positive")
    kind, *edges = event or (None,)
    n_edges, closed_form = _EVENTS.get(kind, (None, None))
    if len(edges) != n_edges or any(not hasattr(e, "__len__") or len(e) != 2
                                    for e in edges):
        raise ValueError(f"unknown event descriptor {event!r}")
    targets = [edge(*e) for e in edges]
    target = closed_form(spec, *targets) if closed_form else None

    ks = [spec.edge_index(t) for t in targets]
    hits = 0  # an edge off the support never arrives
    if None not in ks:
        hits = int(sum(_map_blocks(
            seed, replicas, threads, spec.w, horizon,
            lambda *block: np.count_nonzero(_event_holds(
                spec, kind, ks, *block)))))
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


def _growth(spec, t_grid, replicas, seed, connected):
    """Means per t of the cumulative I-event count (arrivals that brought two
    new vertices) and, if ``connected``, of the connected indicator; only
    then are component merges counted."""
    t_grid = _grid(t_grid, "t_grid")
    _check_replicas(replicas, 1)

    def reduce(B, *arrivals):
        rows, _, t, i, j, nv = _arrivals(spec, *arrivals)
        out = [np.searchsorted(np.sort(t[nv == 2]), t_grid, side="right")]
        if connected:
            out.append(np.count_nonzero(
                _components(rows, t, i, j, nv, B, t_grid) == 1, axis=1))
        return out

    parts = _map_blocks(seed, replicas, None, spec.w, t_grid.max(), reduce)
    return tuple(sum(curve) / replicas for curve in zip(*parts))


def connectivity_growth(spec, t_grid, replicas, seed):
    """Mean cumulative new-component counts and connected frequency per t."""
    return _growth(spec, t_grid, replicas, seed, connected=True)


def connected_frequency_curve(spec, t_grid, replicas, seed):
    _, conn = connectivity_growth(spec, t_grid, replicas, seed)
    return list(zip(_grid(t_grid, "t_grid").tolist(), conn.tolist()))


def i_event_growth(spec, t_grid, replicas, seed):
    """Mean cumulative new-component counts per t, with no component
    tracking."""
    return _growth(spec, t_grid, replicas, seed, connected=False)[0]


_PLATEAU_FRAC, _PLATEAU_REL_TOL = 0.25, 0.01


def plateaued(t_grid, means):
    """Declares a plateau when the last quarter of the grid moved < 1% relative."""
    t_grid = np.asarray(t_grid, dtype=float)
    means = np.asarray(means, dtype=float)
    if len(t_grid) == 0:
        raise ValueError("t_grid is empty: no plateau to look for")
    if len(means) != len(t_grid):
        raise ValueError(f"{len(means)} means for a grid of {len(t_grid)} "
                         "times")
    # the growth curves take grids in any order: read the means in time order
    order = np.argsort(t_grid, kind="stable")
    t_grid, means = t_grid[order], means[order]
    cut = np.searchsorted(
        t_grid, t_grid[-1] - _PLATEAU_FRAC * (t_grid[-1] - t_grid[0]))
    cut = min(cut, len(means) - 1)
    base = means[cut]
    if base == 0:
        return bool(means[-1] == 0)
    return bool((means[-1] - base) / base < _PLATEAU_REL_TOL)


# -- CLT diagnostics -----------------------------------------------------


def clt_diagnostic(spec, t, replicas, seed):
    """Standardized vertex-count samples against the standard normal.

    Standardization uses the exact analytic moments, never sample moments:
    the expected vertex count and the vertex-count variance.
    """
    _check_replicas(replicas, 2)
    mean_a = analytic.expected_vertices(spec, t)
    _, var_a, _ = analytic.variance_sandwich(spec, t)
    if not var_a > 0:
        raise ValueError(f"the analytic variance at t={t} is 0, so the counts "
                         "cannot be standardized")
    counts = vertex_count_samples(spec, [t], replicas, seed)[0]
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
                     normalization=(mean_a, var_a, "exact"),
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
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_replicas(replicas, 1)
    norm = spec.normalize()
    rng_d, rng_c = replica_rng(seed, 0), replica_rng(seed, 1)
    # discrete route: i.i.d. draws from the normalized measure
    draws = norm.sample_edge_indices(n * replicas, rng_d).reshape(replicas, n)
    # continuous route: full Poisson streams stopped at the n-th arrival
    codes_c = np.empty((replicas, n), dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // (E * n))
    for a in range(0, replicas, rows):
        codes_c[a:a + rows] = full_stream_arrivals(
            spec.w, n, min(rows, replicas - a), rng_c)[1]
    base = E ** np.arange(n)
    hist_d = np.bincount(draws @ base, minlength=E**n) / replicas
    hist_c = np.bincount(codes_c @ base, minlength=E**n) / replicas
    return float(np.abs(hist_d - hist_c).sum())


# -- misc statistics -----------------------------------------------------


def variance_standard_error(samples):
    """Asymptotic standard error of the sample variance."""
    x = np.asarray(samples, dtype=float)
    if len(x) < 2:
        raise ValueError("the sample variance needs at least 2 samples, got "
                         f"{len(x)}")
    m = x.mean()
    s2 = x.var(ddof=1)
    m4 = np.mean((x - m) ** 4)
    return float(np.sqrt(max(m4 - s2**2, 0.0) / len(x)))
