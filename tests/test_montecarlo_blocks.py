"""Block-vectorized estimators: golden outputs, ties, threads, block size."""

import hashlib
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from edgeproc import analytic, montecarlo as mc
from edgeproc.measure import (
    explicit,
    factorial_max,
    first_rank,
    isolated_edges,
    power_law_product,
)
from edgeproc.montecarlo import _replica_seed_words
from edgeproc.process import replica_rng

from conftest import (
    GraphState,
    block_arrivals,
    path_spec,
    random_explicit_spec,
    triangle_spec,
)

# spec factory, horizon T, event edges (I target, I_joint pair); the growth
# grids run to 2T
SPECS = {
    "triangle": (triangle_spec, 1.0, (1, 2), ((1, 2), (2, 3))),
    "path": (path_spec, 1.5, (2, 3), ((1, 2), (3, 4))),
    "factorial_max_8": (lambda: factorial_max(8), 40.0, (1, 3),
                        ((1, 2), (3, 4))),
    "random_explicit": (
        lambda: random_explicit_spec(np.random.default_rng(404),
                                     max_vertex=9, n_edges=14),
        0.8, None, None),
    "power_law_2.5_30": (lambda: power_law_product(2.5, 30), 6.0, (1, 2),
                         ((1, 2), (3, 4))),
}


def _digest(value):
    h = hashlib.sha256()
    for v in value if isinstance(value, tuple) else (value,):
        if isinstance(v, np.ndarray):
            h.update(repr((v.dtype.str, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()[:20]


def estimator_outputs(name, threads):
    """{estimator: digest} for fixed seeds on one of SPECS."""
    make, T, e, pair = SPECS[name]
    spec = make()
    if e is None:  # the random spec: its first edge and a disjoint edge
        edges = spec.edges
        e = edges[0]
        pair = (e, next(f for f in edges if not set(f) & set(e)))
    return outputs(spec, T, e, pair, threads)


def outputs(spec, T, e, pair, threads):
    """{estimator: digest} of every estimator on spec at fixed seeds; the
    estimators that take no thread count run only at ``threads=1``."""
    grid = np.linspace(0.1, 2.0, 7) * T
    kw = {"threads": threads}
    out = {
        "I": mc.estimate_event(spec, ("I", e), T, 400, 11, **kw),
        "I_joint": mc.estimate_event(spec, ("I_joint", *pair), T, 400, 12,
                                     **kw),
        "connected": mc.estimate_event(spec, ("connected",), T, 150, 13, **kw),
        "essentially_complete": mc.estimate_event(
            spec, ("essentially_complete",), T, 150, 14, **kw),
        "vertex_count_samples": mc.vertex_count_samples(spec, grid, 300, 17,
                                                        **kw),
    }
    if threads == 1:
        out.update({
            "connectivity_growth": mc.connectivity_growth(spec, grid, 150, 15),
            "i_event_growth": mc.i_event_growth(spec, grid, 300, 16),
            "urn_count_samples": mc.urn_count_samples(spec, grid, 300, 18),
            "clt_diagnostic": mc.clt_diagnostic(spec, T, 300, 19),
            "vertex_presence_samples": mc.vertex_presence_samples(
                spec, T, 300, 20),
        })
    return {k: _digest(v) for k, v in out.items()}


# digests of estimator_outputs taken before the estimators reduced whole
# replica blocks; every output must stay bit-identical.  The "I_joint"
# digests of factorial_max_8, power_law_2.5_30 and random_explicit were
# re-taken when prob_Ie_and_If moved to its positive-term form, and again
# when it read its terms off the marginals and four pair lookups: their
# targets moved by 3, 1 and 1 ulp and their z_scores in the last bits, while
# estimates, standard errors and replica counts did not change
GOLDEN = {
    "factorial_max_8": {
        "I": "7f14b1725420972c69e8",
        "I_joint": "9ff15386de63476d98f5",
        "clt_diagnostic": "ba29aa4f220ea8107eac",
        "connected": "1e832deb716223db592a",
        "connectivity_growth": "9a3de145d2836685d3c2",
        "essentially_complete": "9c38a2fdc1e418bda1e8",
        "i_event_growth": "4d9cdcd27e01fa6eddc2",
        "urn_count_samples": "64c33a970997238b175c",
        "vertex_count_samples": "9da6d2efeb4dfe8a3800",
        "vertex_presence_samples": "8f3a6e84ae6bb5eb2cac",
    },
    "path": {
        "I": "a1ff4982c42f1eede750",
        "I_joint": "49ec03736591a8d51299",
        "clt_diagnostic": "0c5107df529ba1e63121",
        "connected": "b221d2818854ed4f3045",
        "connectivity_growth": "2b39ddd02f9d95bc2186",
        "essentially_complete": "823a40cf247c543e9521",
        "i_event_growth": "c9809c45fa951624d7e7",
        "urn_count_samples": "a7055933efdac7c43301",
        "vertex_count_samples": "604d3dc9e032109875f8",
        "vertex_presence_samples": "7e937da2d135707c5d12",
    },
    "power_law_2.5_30": {
        "I": "7e9aea464be5144a0e98",
        "I_joint": "d184c2604af37b3b4027",
        "clt_diagnostic": "d9bdaa448ebdcb4038f6",
        "connected": "dd8d84b553fdba72903a",
        "connectivity_growth": "80bccd108f3decae8b77",
        "essentially_complete": "89c716bc66b56eb2fecb",
        "i_event_growth": "e503881e390911ed9837",
        "urn_count_samples": "5bd678a2d1e5e2b27bf5",
        "vertex_count_samples": "a3d9fabdc7fc8ce0cced",
        "vertex_presence_samples": "e4e6a6ab0f189106ad72",
    },
    "random_explicit": {
        "I": "c1d39dc919dd4a437860",
        "I_joint": "0622d0c1e3def853b279",
        "clt_diagnostic": "b0b73ba5268c320cfea0",
        "connected": "e3fb7c249ed7de2eacac",
        "connectivity_growth": "494edb0a0596379d7279",
        "essentially_complete": "8bcbc48859456fa4aa4d",
        "i_event_growth": "5a95f814735e289e00a7",
        "urn_count_samples": "733d4e201d70231d6261",
        "vertex_count_samples": "6f6a0290fc6cb23553e3",
        "vertex_presence_samples": "57eb381adc0e191f7b27",
    },
    "triangle": {
        "I": "4d7ded8ed5edb8ca4c57",
        "I_joint": "2f821628335daaa8c90e",
        "clt_diagnostic": "6ff519e7bd8c29900ccc",
        "connected": "543e4a6680c2215d7d35",
        "connectivity_growth": "5697cf9a0788f6b26060",
        "essentially_complete": "1abd392904f1a0073607",
        "i_event_growth": "c0b0b82349c0b0650fdd",
        "urn_count_samples": "2bdbefec36c488b0da62",
        "vertex_count_samples": "52ff0adee33544a20a78",
        "vertex_presence_samples": "92de42637d0d2054cd9b",
    },
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_outputs_match_golden(name, threads):
    got = estimator_outputs(name, threads)
    want = {k: v for k, v in GOLDEN[name].items() if k in got}
    assert got == want


def test_outputs_do_not_depend_on_block_size(monkeypatch):
    # 10 elements: three-row blocks on the path, one-row blocks on the others
    monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", 10)
    for name in ("path", "random_explicit", "factorial_max_8"):
        assert estimator_outputs(name, 1) == GOLDEN[name]


def _block_shapes(monkeypatch):
    shapes = []
    draw = mc._draw_block

    def spy(words, a, b, rates, t_max):
        shapes.append((b - a, len(rates)))
        return draw(words, a, b, rates, t_max)
    monkeypatch.setattr(mc, "_draw_block", spy)
    return shapes


def test_one_row_blocks_hold_no_whole_row():
    """A one-row block is drawn in chunks of at most _BLOCK_ELEMENTS
    columns, so no call on a wide measure holds an E-length float array,
    neither its draws nor their scales, at any thread count."""
    spec = power_law_product(2.5, 1000)
    assert spec.n_edges > 7 * mc._BLOCK_ELEMENTS
    spec.marginals  # cached on first use, outside the traced calls
    for threads in (None, 1):
        tracemalloc.start()
        try:
            mc.vertex_count_samples(spec, [1.0, 3.0], 3, 5, threads=threads)
            mc.estimate_event(spec, ("connected",), 3.0, 3, 5,
                              threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * spec.n_edges, threads


@pytest.mark.parametrize("threads", [None, 1, 2, 3])
def test_pool_is_picked_from_the_block_shape(monkeypatch, threads, triangle):
    """By default one-row blocks go to a thread per usable CPU and
    multi-row blocks stay on the calling thread; an explicit count holds
    for both."""
    pools = []

    class Spy(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)
    monkeypatch.setattr(mc, "ThreadPoolExecutor", Spy)
    wide = power_law_product(2.5, 363)
    assert mc._BLOCK_ELEMENTS // wide.n_edges == 0  # one-row blocks
    mc.vertex_count_samples(wide, [1.0], 3, 5, threads=threads)
    mc.vertex_count_samples(triangle, [1.0], 3, 5, threads=threads)
    cpus = len(os.sched_getaffinity(0))
    want = {None: [cpus] if cpus > 1 else [], 1: [], 2: [2, 2], 3: [3, 3]}
    assert pools == want[threads]


# spec factory, horizon T, block size, I target: E = 65,703 is a chunk of
# 2^16 columns and a ragged one of 167; with blocks of 10 elements, 435
# columns are 43 chunks of 10 and one of 5.  The grids run from T / 10^10
# to 10 T.  The power law's last chunk arrives only at the late times;
# rising sigma puts the heaviest edges, the first to arrive, in it
CHUNKED = {
    "wide": (lambda: power_law_product(2.5, 363), 1e11, None, (1, 2)),
    "wide_rising": (lambda: first_rank(np.arange(1.0, 364.0)), 3e-8, None,
                    (362, 363)),
    "ragged_10": (lambda: power_law_product(2.5, 30), 6.0, 10, (1, 2)),
}
CHUNK_SEED, CHUNK_GRID = 31, np.array([1e-10, 1e-5, 1.0, 10.0])
ESTIMATORS = {
    "vertex_count_samples": lambda spec, T, e, kw: mc.vertex_count_samples(
        spec, T * CHUNK_GRID, 5, CHUNK_SEED, **kw),
    "vertex_presence_samples": lambda spec, T, e, kw:
        mc.vertex_presence_samples(spec, T, 5, CHUNK_SEED),
    "I": lambda spec, T, e, kw:
        mc.estimate_event(spec, ("I", e), T, 5, CHUNK_SEED, **kw),
    "connected": lambda spec, T, e, kw:
        mc.estimate_event(spec, ("connected",), T, 5, CHUNK_SEED, **kw),
    "essentially_complete": lambda spec, T, e, kw: mc.estimate_event(
        spec, ("essentially_complete",), 10 * T, 5, CHUNK_SEED, **kw),
    "connectivity_growth": lambda spec, T, e, kw: mc.connectivity_growth(
        spec, T * CHUNK_GRID, 5, CHUNK_SEED),
    "i_event_growth": lambda spec, T, e, kw: mc.i_event_growth(
        spec, T * CHUNK_GRID, 5, CHUNK_SEED),
}


def _dense_rows(words, a, b, rates, t_max):
    """The arrivals of a dense block of replica_rng rows at CHUNK_SEED."""
    tau = np.array([replica_rng(CHUNK_SEED, k).exponential(1 / rates)
                    for k in range(a, b)]).reshape(b - a, len(rates))
    return block_arrivals(tau, t_max)


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_chunked_rows_match_dense_rows(monkeypatch, name, estimator):
    make, T, block, e = CHUNKED[name]
    spec, call = make(), ESTIMATORS[estimator]
    if block:
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", block)
    # one-row blocks of several chunks, the last one ragged
    assert spec.n_edges > mc._BLOCK_ELEMENTS
    assert spec.n_edges % mc._BLOCK_ELEMENTS
    got = {threads: _digest(call(spec, T, e, {"threads": threads}))
           for threads in (None, 1, 2, 3)}
    with monkeypatch.context() as m:
        m.setattr(mc, "_draw_block", _dense_rows)
        want = _digest(call(spec, T, e, {"threads": 1}))
    assert got == dict.fromkeys(got, want)


def test_small_spec_is_drawn_in_one_block(monkeypatch, triangle):
    shapes = _block_shapes(monkeypatch)
    mc.estimate_event(triangle, ("I", (1, 2)), 1.0, 5_000, 5)
    assert shapes == [(5_000, 3)]


def test_block_rows_are_the_replica_draws():
    spec = power_law_product(2.5, 12)
    for seed in [3, 0, 2**32, 2**130 + 7]:
        rows, ks, t = mc._draw_block(_replica_seed_words(seed), 5, 25,
                                     spec.w, np.inf)
        assert np.array_equal(rows, np.repeat(range(20), spec.n_edges))
        assert np.array_equal(ks, np.tile(range(spec.n_edges), 20))
        for r, row in enumerate(t.reshape(20, spec.n_edges)):
            want = replica_rng(seed, 5 + r).exponential(1.0 / spec.w)
            assert np.array_equal(row, want)


@pytest.mark.parametrize("threads", [1, 3])
def test_estimators_never_seed_a_row_on_its_own(monkeypatch, threads,
                                                triangle):
    """Blocks take their seeding words from one vectorized pass: each
    estimator call builds one SeedSequence, of the seed alone, for its
    pool.  A SeedSequence with a spawn_key, or replica_rng, would seed a
    row on its own."""
    real, made = np.random.SeedSequence, []

    def seed_only(entropy=None, *, spawn_key=(), **kwargs):
        if spawn_key:
            raise AssertionError("a row was seeded on its own")
        made.append(entropy)
        return real(entropy, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a row was seeded on its own")
    monkeypatch.setattr(mc.np.random, "SeedSequence", seed_only)
    monkeypatch.setattr(mc, "replica_rng", refuse)
    kw = {"threads": threads}
    got = mc.estimate_event(triangle, ("I", (1, 2)), 1.0, 3_000, 5, **kw)
    assert got.replicas == 3_000 and made == [5]
    assert mc.vertex_count_samples(triangle, [0.5, 1.0], 3_000, 5,
                                   **kw).shape == (2, 3_000)
    assert made == [5] * 2
    assert mc.urn_count_samples(triangle, [0.5, 1.0], 3_000,
                                5).shape == (2, 3_000)
    assert made == [5] * 3


@pytest.mark.parametrize("call", [
    lambda spec, n: mc.estimate_event(spec, ("I", (1, 2)), 1.0, n, 5),
    lambda spec, n: mc.vertex_count_samples(spec, [1.0], n, 5)],
    ids=["estimate_event", "vertex_count_samples"])
def test_more_replicas_than_keys_are_refused(monkeypatch, call, triangle):
    """Replica k's key is one uint32 word, so 2^32 + 1 replicas are refused
    before any block is drawn (drawing them would take hours)."""
    def refuse(*args):
        raise AssertionError("a block was drawn")
    monkeypatch.setattr(mc, "_draw_block", refuse)
    with pytest.raises(ValueError, match=r"at most 2\^32, got 4294967297"):
        call(triangle, 2**32 + 1)


def _tie_block(spec, seed, rows=400):
    """Arrival times from {1, 2, 3}: most rows tie at some vertex; the first
    rows tie everywhere, so edge index alone decides."""
    E = spec.n_edges
    tau = np.random.default_rng(seed).integers(1, 4, size=(rows, E)) * 1.0
    tau[0] = 2.0
    tau[1] = np.repeat([1.0, 2.0], [E // 2, E - E // 2])[::-1]
    return tau


def _replay(spec, row, horizon=np.inf):
    """Stable-sort GraphState replay of one row's arrivals up to the
    horizon, and the mask of the arrivals that opened a component."""
    state, opened = GraphState(), np.zeros(len(row), dtype=bool)
    edges = spec.edges
    for k in np.argsort(row, kind="stable"):
        if row[k] <= horizon:
            opened[k] = state.apply_event(edges[k])[1]
    return state, opened


def test_first_arrivals_match_stable_replay_with_ties():
    spec = random_explicit_spec(np.random.default_rng(9), max_vertex=6,
                                n_edges=10)
    tau = _tie_block(spec, 10)
    rows, ks, _, _, _, nv = mc._arrivals(spec, *block_arrivals(tau, np.inf))
    mask = np.zeros(tau.shape, dtype=bool)
    mask[rows[nv == 2], ks[nv == 2]] = True
    for row, got in zip(tau, mask):
        assert np.array_equal(got, _replay(spec, row)[1])


def test_presence_columns_are_support_vertices():
    # the window runs to 10^6, the support has four vertices
    big = 10**6
    spec = explicit([((1, 2), 1.0), ((2, big), 0.5), ((7, big), 0.3)])
    grid = [0.2, 1.0, 3.0]
    R = 60
    pres, verts = mc.vertex_presence_samples(spec, grid[1], R, 8)
    assert verts.tolist() == [1, 2, 7, big] and pres.shape == (R, 4)
    counts = mc.vertex_count_samples(spec, grid, R, 8)
    for k in range(R):
        row = replica_rng(8, k).exponential(1.0 / spec.w)
        states = [_replay(spec, row, t)[0] for t in grid]
        assert counts[:, k].tolist() == [len(s.vertices) for s in states]
        assert pres[k].tolist() == [v in states[1].vertices for v in verts]
    assert len(set(counts[1])) > 1  # the grid point splits the replicas


# vertex gaps ({1, 2}, {3, 4}, {5, 6} and {1, 2}, {5, 6}), a complete
# support and a random one
EVENT_SPECS = {
    "isolated_edges": lambda: isolated_edges([1.0, 0.5, 2.0]),
    "gap": lambda: explicit([((1, 2), 1.0), ((5, 6), 1.0)]),
    "factorial_max_5": lambda: factorial_max(5),
    "random_explicit": lambda: random_explicit_spec(
        np.random.default_rng(9), max_vertex=6, n_edges=10),
}


@pytest.mark.parametrize("name", sorted(EVENT_SPECS))
def test_event_flags_match_stable_replay(name):
    spec = EVENT_SPECS[name]()
    tau = _tie_block(spec, 11)
    tau[2] = 4.0  # a row with no arrivals at any horizon below
    subcases = set()
    # the horizons equal arrival times, and 0.5 precedes every arrival
    for horizon in (0.5, 1.0, 2.0, 3.0):
        states, opened = zip(*(_replay(spec, row, horizon) for row in tau))
        block = len(tau), *block_arrivals(tau, horizon)
        for kind in ("connected", "essentially_complete"):
            want = [getattr(state, "is_" + kind)() for state in states]
            got = mc._event_holds(spec, kind, [], *block)
            assert got.tolist() == want, (kind, horizon)
        for k in range(spec.n_edges):
            got = mc._event_holds(spec, "I", [k], *block)
            assert np.array_equal(got, np.array(opened)[:, k])
        subcases |= {state.essential_completeness()[1] for state in states}
    if name == "factorial_max_5":
        assert {"exact-prefix", "extra-vertex"} <= subcases


def test_growth_and_estimates_match_stable_replay(monkeypatch):
    spec = EVENT_SPECS["random_explicit"]()
    tau = _tie_block(spec, 12)
    monkeypatch.setattr(mc, "_draw_block", lambda words, a, b, rates, t_max:
                        block_arrivals(tau[a:b], t_max))
    grid = [0.5, 1.0, 1.5, 2.0, 3.0]
    states = [[_replay(spec, row, t)[0] for row in tau] for t in grid]
    R = len(tau)
    i_means, conn = mc.connectivity_growth(spec, grid, R, 0)
    assert i_means.tolist() == [sum(s.i_event_count for s in row) / R
                                for row in states]
    want = [sum(s.is_connected() for s in row) / R for row in states]
    assert conn.tolist() == want
    assert [mc.estimate_event(spec, ("connected",), t, R, 0).estimate
            for t in grid] == want
    assert [mc.estimate_event(spec, ("essentially_complete",), t, R, 0)
            .estimate for t in grid] == [
        sum(s.is_essentially_complete() for s in row) / R for row in states]


def test_growth_on_an_unsorted_grid():
    spec = factorial_max(6)
    grid = np.array([40.0, 5.0, 20.0])
    rank = np.argsort(np.argsort(grid))
    got = mc.connectivity_growth(spec, grid, 200, 3)
    want = mc.connectivity_growth(spec, np.sort(grid), 200, 3)
    for g, w in zip(got, want):
        assert np.array_equal(g, w[rank])


@pytest.mark.filterwarnings("error")
def test_zero_mass_edges_change_nothing():
    items = [((1, 2), 0.7), ((2, 3), 0.4), ((3, 4), 0.9), ((1, 4), 0.2),
             ((4, 5), 0.5)]
    zero = [((1, 3), 0.0), ((5, 6), 0.0)]
    bare = explicit(items)
    spec = explicit(items + zero)
    assert spec.n_max == bare.n_max and spec.edges == bare.edges
    pair = ((1, 2), (3, 4))
    assert (outputs(spec, 1.5, (2, 3), pair, 1)
            == outputs(bare, 1.5, (2, 3), pair, 1))
    assert (analytic.variance_sandwich(spec, 1.5)
            == analytic.variance_sandwich(bare, 1.5))
    assert (analytic.connectedness_series(spec)
            == analytic.connectedness_series(bare))
    assert spec.support_connected() == bare.support_connected()
    # a zero-mass target never arrives and has target probability 0
    rep = mc.estimate_event(spec, ("I", (1, 3)), 5.0, 200, 3)
    assert rep.estimate == 0.0 and rep.target == 0.0 and rep.z_score == 0.0
