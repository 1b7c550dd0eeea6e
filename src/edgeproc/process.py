"""Trajectory generation for the discrete- and continuous-time graph processes.

Discrete runs draw i.i.d. edges from the normalized measure; continuous runs
assign each support edge an exponential first-arrival time with rate equal to
its (not necessarily normalized) mass.  Both produce a columnar
``Trajectory``: arrival times, endpoints and how many new vertices each
arrival brought.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .measure import _chunks, _integer

__all__ = [
    "ArrivalEvent",
    "Trajectory",
    "arrival_order",
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
    """Independent per-replica stream: the PCG64 generator that
    ``np.random.default_rng(SeedSequence(master_seed, spawn_key=(k,)))``
    gives, for an int seed >= 0 and 0 <= k < 2^32.

    This is the single splitting rule used everywhere; replicas are safe to
    run in parallel and results reduce deterministically in index order.
    The PCG64 is seeded with k's words from ``_replica_seed_words``, the one
    hashing path, which the replica blocks of ``montecarlo`` use too: the
    words of replicas k - k % 64 up to the next multiple of 64 are hashed
    at once and memoized, for the last 64 such blocks, with the words
    function of each of the last 16 seeds.  It takes the same
    seeds and k as the blocks, and refuses others alike.  Its
    ``bit_generator.seed_seq`` holds k's words, a read-only row of a shared
    block, not a SeedSequence, so the generator cannot ``spawn``.
    """
    seed, k = master_seed, replica_index
    if type(seed) is not int or type(k) is not int or not 0 <= k <= _MASK32:
        seed, k = _seed_int(seed), _replica_key(k)
    src = _GivenWords()
    src.words = _seed_block(seed, k - k % _SEED_BLOCK)[k % _SEED_BLOCK]
    return np.random.Generator(np.random.PCG64(src))


# -- replica seeding -----------------------------------------------------


# SeedSequence's uint32 hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_consts(init, mult, start, n):
    """Hash constants init * mult^i mod 2^32, i = start..start+n-1, as an
    (n, 1) uint32 array."""
    return np.array([init * pow(mult, i, 1 << 32) & _MASK32
                     for i in range(start, start + n)], dtype=np.uint32)[:, None]


def _hash(value, xor, mult):
    """SeedSequence's hash step on uint32 arrays, mod 2^32: the hash
    constant is ``xor`` before it and ``mult`` after it."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


# generate_state(4, uint64) hashes pool word d into output uint32 word
# 4j + d with hash constants _OUT_HASH[4j + d] before the step and
# _OUT_HASH[4j + d + 1] after it
_OUT_HASH = _hash_consts(_INIT_B, _MULT_B, 0, 9)
_OUT_XOR = _OUT_HASH[:-1].reshape(2, 4, 1)
_OUT_MULT = _OUT_HASH[1:].reshape(2, 4, 1)


def _seed_int(seed):
    """The seed as an int; a TypeError unless it is one (SeedSequence would
    take a list of ints, or None for fresh entropy)."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be a non-negative int, not {seed!r}")
    return int(seed)


def _replica_key(k):
    """Replica index k as an int, refused unless 0 <= k < 2^32: the key is
    one uint32 word."""
    if not isinstance(k, (int, np.integer)):
        raise TypeError(f"replica index must be an int, not {k!r}")
    k = int(k)
    if not 0 <= k <= _MASK32:
        raise ValueError(f"replica index must be in 0..2^32 - 1, got {k}")
    return k


def _replica_seed_words(seed):
    """``words(a, b)``: for replicas k = a..b-1 (k < 2^32), the words
    ``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)``
    that seed ``replica_rng(seed, k)``'s PCG64, as a C-contiguous
    (b - a, 4) uint64 array.  This is the one place SeedSequence's hash is
    written out; ``replica_rng`` and the replica blocks of ``montecarlo``
    both take their words from it.

    SeedSequence hashes the seed's words into its pool of 4 words, then the
    key word k into each pool word.  The seed's part is the same for every
    k and is numpy's own (SeedSequence refuses a negative seed);
    ``words`` hashes only k, as (4, B) uint32 arrays (one row per pool
    word).
    """
    seed = _seed_int(seed)
    pool = np.random.SeedSequence(seed).pool[:, None]
    # the seed's words, padded to 4, took 4 hash steps each; k meets pool
    # word d with hash constants lane[d] before the step, lane[d + 1] after
    lane = _hash_consts(_INIT_A, _MULT_A,
                        4 * max(4, -(-seed.bit_length() // 32)), 5)

    def words(a, b):
        key = np.arange(a, b, dtype=np.uint32)
        state = _hash(_mix(pool, _hash(key, lane[:-1], lane[1:])),
                      _OUT_XOR, _OUT_MULT)  # (2, 4, B)
        # uint32 words 2i (low) and 2i + 1 (high) make uint64 word i
        return state.transpose(2, 0, 1).astype("<u4", order="C").view(
            "<u8").reshape(b - a, 4).astype(np.uint64, copy=False)

    return words


# replicas per memoized block of replica_rng's words (2 KiB a block)
_SEED_BLOCK = 64
# replica_rng's words function of each of the last 16 int seeds: a new block
# of a memoized seed hashes its keys alone, not the seed's pool again
_seed_words = lru_cache(maxsize=16)(_replica_seed_words)


@lru_cache(maxsize=64)
def _seed_block(seed, a):
    """The words of replicas a..a + _SEED_BLOCK - 1 (up to 2^32 - 1) of an
    int seed, read-only: ``replica_rng`` hands out its rows."""
    block = _seed_words(seed)(a, min(a + _SEED_BLOCK, 1 << 32))
    block.flags.writeable = False
    return block


class _GivenWords(ISeedSequence):
    """A seed source whose generate_state returns ``self.words``, as is."""

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def exponential_scales(rates):
    """Scales 1 / rate of exponential waits: inf, with no warning, where the
    reciprocal overflows (a subnormal rate), so that clock never rings."""
    with np.errstate(over="ignore"):
        return 1.0 / np.asarray(rates, dtype=float)


def _arrived(tau, rates, t_max, c):
    """Rows, columns (counted from c) and times of the entries <= t_max of
    standard exponential draws tau, scaled in place to the rates, in
    row-major order.  This is the one rule that turns a stream's draws into
    arrivals: single trajectories, urn fills and the replica blocks of
    ``montecarlo`` all take theirs from it, so a single trajectory is a
    one-row block by construction.  A wait past the largest float is inf,
    a clock that never rings, with no warning."""
    with np.errstate(over="ignore"):
        tau *= exponential_scales(rates)
    at = np.flatnonzero(tau <= t_max)  # np.nonzero on 2-d arrays is slower
    rows, ks = np.divmod(at, tau.shape[1])
    ks += c
    return rows, ks, tau.reshape(-1)[at]


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


def arrival_order(rows, ks, t):
    """Arrivals given as rows, columns and times in row-major order (as
    ``np.nonzero`` lists a block's entries up to a horizon), reordered row
    by row in time order; ties go to the lower column, as in a stable sort.

    One stable sort on complex keys does it: numpy orders complex numbers
    by real part, then imaginary part, so the row is the real part and the
    time the imaginary part.  The parts are set one by one because
    ``rows + 1j * t`` turns an infinite time into a nan key (0 * inf).
    """
    key = np.empty(len(rows), dtype=complex)
    key.real, key.imag = rows, t
    order = key.argsort(kind="stable")
    return rows[order], ks[order], t[order]


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

    @property
    def events(self):
        """The arrivals as a read-only sequence of ``ArrivalEvent`` records,
        each built as it is read."""
        return _Events(self)

    def to_csv(self, path, header_lines=()):
        nv = self.new_vertices.tolist()
        write_table(path, header_lines,
                    ["index", "time", "i", "j", "new_vertices",
                     "new_component"],
                    zip(range(1, len(nv) + 1), map(repr, self.time.tolist()),
                        self.i.tolist(), self.j.tolist(), nv,
                        [int(v == 2) for v in nv]))


class _Events(Sequence):
    """A trajectory's arrivals as ``ArrivalEvent`` records, built as they
    are read: an index or a slice builds what it names, and iteration
    builds one chunk of ``_CHUNK`` records at a time."""

    def __init__(self, trajectory):
        self._traj = trajectory

    def __len__(self):
        return len(self._traj)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self._records(k))
        k = range(len(self))[k]  # an IndexError past either end
        return next(self._records(slice(k, k + 1)))

    def __iter__(self):
        for s in _chunks(len(self)):
            yield from self._records(s)

    def _records(self, s):
        """The records of the arrivals in slice s, one by one."""
        t = self._traj
        nv = t.new_vertices[s].tolist()
        return map(ArrivalEvent._make, zip(
            range(1, len(t) + 1)[s], t.time[s].tolist(),
            zip(t.i[s].tolist(), t.j[s].tolist()), nv, [v == 2 for v in nv]))


def run_discrete(spec, n_steps, rng):
    """n_steps i.i.d. draws from the normalized measure.

    Repeated edges are re-emitted with new_vertices = 0; identification of
    parallel edges is the graph-state layer's concern.
    """
    n_steps = _integer(n_steps, "n_steps")
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    ks = spec.sample_edge_indices(n_steps, rng)
    times = np.arange(1, n_steps + 1, dtype=float)
    return Trajectory(times, spec.ei[ks], spec.ej[ks])


def run_continuous(spec, horizon_T, rng):
    """First arrivals in [0, T] of the poissonized process.

    One exponential first-arrival per support edge is sufficient for every
    simple-graph property; they come in ``arrival_order``, whose docstring
    gives the tie rule.  The times are one row of standard exponential
    draws from rng, turned into arrivals by ``_arrived``, so a trajectory
    is the one-row replica block of ``montecarlo``.  Full streams, in which
    parallel edges re-arrive, come from ``depoissonize``.
    """
    if not horizon_T > 0:  # NaN too
        raise ValueError("horizon must be positive")
    _, ks, t = arrival_order(*_arrived(
        rng.standard_exponential((1, len(spec.w))), spec.w, horizon_T, 0))
    return Trajectory(t, spec.ei[ks], spec.ej[ks])


def full_stream_arrivals(rates, n, size, rng):
    """Times and stream indices of the first n arrivals of full Poisson
    streams at the given positive rates: two (size, n) arrays, one row per
    replica, drawn in turn from rng.  No stream has more than n of them, so
    n cumulative exponential waits per stream are enough: standard
    exponential draws scaled in place by ``exponential_scales``, as
    ``_arrived`` scales them, then summed in place one position at a time
    (the sequential sum of ``np.cumsum``; a wait or sum past the largest
    float is inf, a clock that never rings).  Each stream's times are then in
    order, so ``_merge_streams`` takes the first n of a row without a
    sort; ties go to the lower stream, as in a stable sort."""
    rates = np.asarray(rates, dtype=float)
    n, size = _integer(n, "n"), _integer(size, "size")
    if rates.ndim != 1 or not len(rates):
        raise ValueError("rates must be a non-empty 1-d array, got shape "
                         f"{rates.shape}")
    if not np.all(rates > 0):  # NaN too
        raise ValueError("rates must be positive, got "
                         f"{rates[~(rates > 0)][0]}")
    if n <= 0:
        raise ValueError("n must be positive")
    if size <= 0:
        raise ValueError("size must be positive")
    times = rng.standard_exponential((size, len(rates), n))
    with np.errstate(over="ignore"):
        times *= exponential_scales(rates)[:, None]
        for a in range(1, n):
            times[:, :, a] += times[:, :, a - 1]
    return _merge_streams(times)


def _merge_streams(times):
    """The first n of each row's arrival times, given as (size, E, n) times
    of E streams that are each non-decreasing, with any NaN last: (size, n)
    times and stream indices, as a stable sort of the row's E·n times
    (NaN after every number) would list them.

    A merge: each of n rounds takes every row's earliest stream head, the
    first minimum, so ties go to the lower stream and then to the earlier
    position, as in the stable sort, and advances that stream's head.
    """
    size, E, n = times.shape
    heads = times[:, :, 0].copy()
    at = np.arange(0, times.size, n)  # each head's flat index in times
    row = np.arange(0, heads.size, E)
    out_t, out_k = np.empty((size, n)), np.empty((size, n), dtype=np.intp)
    for r in range(n):
        k = heads.argmin(axis=1)
        # argmin takes a row's first NaN; the sort ranks NaN after inf
        nan = np.flatnonzero(np.isnan(heads.take(row + k)))
        h = heads[nan]
        k[nan] = (h == np.fmin.reduce(h, axis=1)[:, None]).argmax(axis=1)
        j = row + k
        out_t[:, r], out_k[:, r] = heads.take(j), k
        # a stream holding n times runs out only in the last round, whose
        # clipped read is never used
        at[j] += 1
        heads.put(j, times.take(at[j], mode="clip"))
    return out_t, out_k


def depoissonize(spec, n, rng):
    """First n arrivals of the continuous process with full Poisson streams;
    the induced edge-order law coincides with ``run_discrete``'s."""
    (times,), (ks,) = full_stream_arrivals(spec.w, n, 1, rng)
    return Trajectory(times, spec.ei[ks], spec.ej[ks])
