"""Trajectory generation for the discrete- and continuous-time graph processes.

Discrete runs draw i.i.d. edges from the normalized measure; continuous runs
assign each support edge an exponential first-arrival time with rate equal to
its (not necessarily normalized) mass.  Both produce a columnar
``Trajectory``: arrival times, endpoints and how many new vertices each
arrival brought.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

__all__ = [
    "ArrivalEvent",
    "Trajectory",
    "new_vertex_counts",
    "component_merges",
    "run_discrete",
    "run_continuous",
    "depoissonize",
    "full_stream_arrivals",
    "replica_rng",
    "exponential_scales",
    "write_table",
]


def replica_rng(master_seed, replica_index):
    """Independent per-replica stream: SeedSequence(master, spawn_key=(k,)).

    This is the single splitting rule used everywhere; replicas are safe to
    run in parallel and results reduce deterministically in index order.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(replica_index,))
    return np.random.default_rng(ss)


def exponential_scales(rates):
    """Scales 1 / rate of exponential waits: inf, with no warning, where the
    reciprocal overflows (a subnormal rate), so that clock never rings."""
    with np.errstate(over="ignore"):
        return 1.0 / np.asarray(rates, dtype=float)


def write_table(path, header_lines, columns, rows):
    """Writes a ``# `` line per header entry, then a CSV table of rows."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        wr = csv.writer(fh)
        wr.writerow(columns)
        wr.writerows(rows)


class ArrivalEvent(NamedTuple):
    index: int          # arrival ordinal, from 1
    time: float         # equals index for discrete runs
    edge: tuple         # canonical (i, j)
    new_vertices: int   # 0, 1 or 2
    new_component: bool  # true iff new_vertices == 2


def new_vertex_counts(i, j):
    """For each arrival (i[k], j[k]), how many endpoints no earlier arrival had.

    Arrival k's endpoints sit at positions 2k and 2k + 1 of the interleaved
    sequence; a stable sort puts each vertex's first position at the head
    of its run.
    """
    ends = np.empty(2 * len(i), dtype=np.int64)
    ends[0::2] = i
    ends[1::2] = j
    order = ends.argsort(kind="stable")
    srt = ends[order]
    first = np.empty(len(ends), dtype=bool)
    first[order[:1]] = True
    first[order[1:]] = srt[1:] != srt[:-1]
    return np.add(first[0::2], first[1::2], dtype=np.int64)


def component_merges(i, j):
    """For distinct edges (i[k], j[k]) in arrival order, whether arrival k
    joins two components: the minimum spanning forest under weights 1..n
    (Kruskal 1956; csgraph reads a stored 0 as no edge).  Vertex ids are
    relabelled densely first, so large ids cost nothing."""
    n = len(i)
    ids, ends = np.unique(np.concatenate([i, j]), return_inverse=True)
    forest = minimum_spanning_tree(coo_matrix(
        (np.arange(1.0, n + 1), (ends[:n], ends[n:])), shape=(len(ids),) * 2))
    merged = np.zeros(n, dtype=bool)
    merged[forest.data.astype(np.int64) - 1] = True
    return merged


@dataclass(eq=False)
class Trajectory:
    """Arrivals as columns: time, endpoints i < j, new-vertex counts."""

    time: np.ndarray
    i: np.ndarray
    j: np.ndarray
    new_vertices: np.ndarray = field(init=False)

    def __post_init__(self):
        self.new_vertices = new_vertex_counts(self.i, self.j)

    def __len__(self):
        return len(self.time)

    @cached_property
    def events(self):
        """The arrivals as ``ArrivalEvent`` records, built on first use."""
        nv = self.new_vertices.tolist()
        return list(map(ArrivalEvent._make, zip(
            range(1, len(nv) + 1), self.time.tolist(),
            zip(self.i.tolist(), self.j.tolist()), nv, [v == 2 for v in nv])))

    def to_csv(self, path, header_lines=()):
        nv = self.new_vertices.tolist()
        write_table(path, header_lines,
                    ["index", "time", "i", "j", "new_vertices",
                     "new_component"],
                    zip(range(1, len(nv) + 1), map(repr, self.time.tolist()),
                        self.i.tolist(), self.j.tolist(), nv,
                        [int(v == 2) for v in nv]))


def run_discrete(spec, n_steps, rng):
    """n_steps i.i.d. draws from the normalized measure.

    Repeated edges are re-emitted with new_vertices = 0; identification of
    parallel edges is the graph-state layer's concern.
    """
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    ks = spec.sample_edge_indices(n_steps, rng)
    times = np.arange(1, n_steps + 1, dtype=float)
    return Trajectory(times, spec.ei[ks], spec.ej[ks])


def run_continuous(spec, horizon_T, rng):
    """First arrivals in [0, T] of the poissonized process.

    One exponential first-arrival per support edge is sufficient for every
    simple-graph property; ties go to the lower edge index.  Full streams,
    in which parallel edges re-arrive, come from ``depoissonize``.
    """
    if not horizon_T > 0:  # NaN too
        raise ValueError("horizon must be positive")
    times = rng.exponential(exponential_scales(spec.w))
    ks = np.flatnonzero(times <= horizon_T)
    ks = ks[np.argsort(times[ks], kind="stable")]
    return Trajectory(times[ks], spec.ei[ks], spec.ej[ks])


def full_stream_arrivals(rates, n, size, rng):
    """Times and stream indices of the first n arrivals of full Poisson
    streams at the given rates: two (size, n) arrays, one row per replica,
    drawn in turn from rng.  No stream has more than n of them, so n
    cumulative exponential waits per stream are enough; ties go to the
    lower stream position, as in a stable sort."""
    gaps = rng.exponential(exponential_scales(rates)[:, None],
                           size=(size, len(rates), n))
    times = np.cumsum(gaps, axis=2).reshape(size, -1)
    first = np.argsort(times, axis=1, kind="stable")[:, :n]
    return np.take_along_axis(times, first, axis=1), first // n


def depoissonize(spec, n, rng):
    """First n arrivals of the continuous process with full Poisson streams;
    the induced edge-order law coincides with ``run_discrete``'s."""
    if n <= 0:
        raise ValueError("n must be positive")
    (times,), (ks,) = full_stream_arrivals(spec.w, n, 1, rng)
    return Trajectory(times, spec.ei[ks], spec.ej[ks])
