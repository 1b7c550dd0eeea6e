"""Discrete and continuous trajectory generation, de-Poissonization, RNG rules."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import DisjointSet
from scipy.stats import chi2

from edgeproc import measure
from edgeproc import montecarlo as mc
from edgeproc import process
from edgeproc.measure import explicit, power_law_product
from edgeproc.montecarlo import _replica_seed_words
from edgeproc.process import (
    ArrivalEvent,
    arrival_order,
    component_merges,
    depoissonize,
    new_vertex_counts,
    replica_rng,
    run_continuous,
    run_discrete,
)
from edgeproc.graphstate import replay
from edgeproc.urns import run_urn

from conftest import (
    block_arrivals,
    event_list,
    random_explicit_spec,
    random_trajectories,
    single_edge_spec,
    sorted_stream_arrivals,
    triangle_spec,
    two_edge_spec,
)

# a small measure with disjoint and overlapping edges, for the golden files
GOLDEN_SPEC = [((1, 2), 1.0), ((2, 3), 2.0), ((1, 4), 0.5), ((3, 5), 0.75),
               ((4, 5), 1.5)]


class TestRunDiscrete:
    def test_single_edge_three_steps(self, single_edge):
        traj = run_discrete(single_edge, 3, replica_rng(0, 0))
        assert [ev.edge for ev in traj.events] == [(1, 2)] * 3
        assert [ev.new_vertices for ev in traj.events] == [2, 0, 0]
        assert [ev.new_component for ev in traj.events] == [True, False, False]

    def test_triangle_first_step_always_new_pair(self, triangle):
        for k in range(30):
            traj = run_discrete(triangle, 1, replica_rng(1, k))
            assert traj.events[0].new_vertices == 2

    def test_two_components_after_two_steps(self, two_edges):
        # four equally likely draw pairs; two leave two components
        hits = 0
        n = 20_000
        for k in range(n):
            traj = run_discrete(two_edges, 2, replica_rng(2, k))
            final = replay(traj)[-1]
            hits += final[2] == 2
        assert abs(hits / n - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_indices_and_times(self, triangle):
        traj = run_discrete(triangle, 5, replica_rng(3, 0))
        assert [ev.index for ev in traj.events] == [1, 2, 3, 4, 5]
        assert [ev.time for ev in traj.events] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_rejects_nonpositive_steps(self, triangle):
        with pytest.raises(ValueError):
            run_discrete(triangle, 0, replica_rng(4, 0))

    @pytest.mark.parametrize("n_steps", [2.0, np.int64(2), 2.5, np.nan, "3"])
    def test_step_count_must_equal_an_integer(self, triangle, n_steps):
        if n_steps in (2.0, np.int64(2)):
            want = run_discrete(triangle, 2, replica_rng(4, 1))
            got = run_discrete(triangle, n_steps, replica_rng(4, 1))
            assert got.time.tolist() == want.time.tolist()
            assert got.i.tolist() == want.i.tolist()
        else:
            with pytest.raises(ValueError, match="n_steps .* not an integer"):
                run_discrete(triangle, n_steps, replica_rng(4, 1))


class TestRunContinuous:
    def test_single_edge_exponential_mean(self, single_edge):
        n = 100_000
        times = np.empty(n)
        for k in range(n):
            traj = run_continuous(single_edge, 100.0, replica_rng(5, k))
            assert len(traj) == 1
            times[k] = traj.events[0].time
        assert abs(times.mean() - 1.0) < 3.0 / np.sqrt(n)

    def test_race_between_disjoint_edges(self, two_edges):
        n = 20_000
        wins = 0
        for k in range(n):
            traj = run_continuous(two_edges, 1e6, replica_rng(6, k))
            wins += traj.events[0].edge == (1, 2)
        assert abs(wins / n - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_triangle_first_arrival_uniform(self, triangle):
        n = 30_000
        counts = {e: 0 for e in triangle.edges}
        for k in range(n):
            traj = run_continuous(triangle, 1e6, replica_rng(7, k))
            counts[traj.events[0].edge] += 1
        stat = sum((c - n / 3) ** 2 / (n / 3) for c in counts.values())
        assert stat < chi2.ppf(0.999, 2)

    def test_times_sorted_and_indices_consecutive(self):
        spec = explicit([((1, 2), 1.0), ((2, 3), 2.0), ((1, 4), 0.5)])
        traj = run_continuous(spec, 50.0, replica_rng(8, 0))
        ts = [ev.time for ev in traj.events]
        assert ts == sorted(ts)
        assert [ev.index for ev in traj.events] == list(range(1, len(ts) + 1))

    def test_simple_graph_sufficiency(self):
        # replaying a full-stream trajectory: repeated-edge arrivals must not
        # change any simple-graph statistic
        spec = explicit([((1, 2), 2.0), ((2, 3), 1.5), ((3, 4), 1.0)])
        for k in range(50):
            traj = depoissonize(spec, 20, replica_rng(10, k))
            snaps = replay(traj)
            seen = set()
            for n, (ev, snap) in enumerate(zip(traj.events, snaps)):
                if ev.edge in seen:
                    assert ev.new_vertices == 0
                    assert snap == snaps[n - 1]
                seen.add(ev.edge)

    def test_rejects_nonpositive_horizon(self, single_edge):
        with pytest.raises(ValueError):
            run_continuous(single_edge, 0.0, replica_rng(11, 0))


class TestDepoissonize:
    def test_single_edge_repeats(self, single_edge):
        traj = depoissonize(single_edge, 2, replica_rng(12, 0))
        assert [ev.edge for ev in traj.events] == [(1, 2), (1, 2)]
        assert [ev.new_vertices for ev in traj.events] == [2, 0]

    def test_first_arrival_matches_measure(self):
        spec = explicit([((1, 2), 0.2), ((3, 4), 0.5), ((5, 6), 0.3)])
        n = 30_000
        counts = np.zeros(3)
        for k in range(n):
            traj = depoissonize(spec, 1, replica_rng(13, k))
            counts[spec.edges.index(traj.events[0].edge)] += 1
        probs = spec.w / spec.total_mass
        stat = np.sum((counts - n * probs) ** 2 / (n * probs))
        assert stat < chi2.ppf(0.999, 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_nonpositive_arrivals(self, triangle, n):
        with pytest.raises(ValueError, match="n must be positive"):
            depoissonize(triangle, n, replica_rng(14, 0))

    @pytest.mark.parametrize("n", [2.0, np.int64(2), 2.5, np.nan, "3"])
    def test_arrival_count_must_equal_an_integer(self, triangle, n):
        if n in (2.0, np.int64(2)):
            want = depoissonize(triangle, 2, replica_rng(14, 1))
            got = depoissonize(triangle, n, replica_rng(14, 1))
            assert got.time.tolist() == want.time.tolist()
            assert got.i.tolist() == want.i.tolist()
        else:
            with pytest.raises(ValueError, match="n .* not an integer"):
                depoissonize(triangle, n, replica_rng(14, 1))

    def test_times_increasing(self, triangle):
        traj = depoissonize(triangle, 3, replica_rng(14, 0))
        ts = [ev.time for ev in traj.events]
        assert ts == sorted(ts) and len(ts) == 3


class TestDeterminism:
    def test_same_seed_same_trajectory(self, triangle):
        a = run_continuous(triangle, 10.0, replica_rng(42, 3))
        b = run_continuous(triangle, 10.0, replica_rng(42, 3))
        assert [(e.edge, e.time) for e in a.events] \
            == [(e.edge, e.time) for e in b.events]

    def test_distinct_replicas_differ(self, triangle):
        a = run_continuous(triangle, 10.0, replica_rng(42, 0))
        b = run_continuous(triangle, 10.0, replica_rng(42, 1))
        assert [e.time for e in a.events] != [e.time for e in b.events]


def _numpy_seed_words(seed, a, b):
    return np.array([
        np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(
            4, np.uint64) for k in range(a, b)], dtype=np.uint64).reshape(-1, 4)


class TestReplicaSeedWords:
    """The vectorized words against numpy's own SeedSequence, so a change to
    numpy's seeding algorithm fails here."""

    @pytest.mark.parametrize("seed", [
        0, 1, 1001, 2**32 - 1, 2**32, 5_000_001_000, 2**64 + 3, 2**130 + 7])
    def test_words_are_numpys(self, seed):
        words = _replica_seed_words(seed)
        for a, b in [(0, 50), (2**32 - 30, 2**32)]:
            got = words(a, b)
            assert got.dtype == np.uint64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, _numpy_seed_words(seed, a, b))

    # seeds of 1 to 10 words; replica keys k < 2^32, up to 20 at a time
    @given(st.integers(0, 2**320 - 1), st.integers(0, 2**32).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a, min(a + 20, 2**32)))))
    @example(2**320 - 1, (2**32 - 3, 2**32))
    @example(2**128, (0, 5))
    @settings(max_examples=200, deadline=None)
    def test_words_are_numpys_for_any_seed(self, seed, ab):
        np.testing.assert_array_equal(_replica_seed_words(seed)(*ab),
                                      _numpy_seed_words(seed, *ab))

    def test_empty_range(self):
        got = _replica_seed_words(5)(7, 7)
        assert got.shape == (0, 4) and got.dtype == np.uint64

    def test_numpy_int_seed(self):
        np.testing.assert_array_equal(_replica_seed_words(np.int64(9))(0, 5),
                                      _numpy_seed_words(9, 0, 5))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_raises_as_seed_sequence_does(self, seed):
        with pytest.raises(Exception) as want:
            np.random.SeedSequence(seed, spawn_key=(0,))
        with pytest.raises(want.type):
            _replica_seed_words(seed)

    @pytest.mark.parametrize("seed", [[1, 2], 1.5, None])
    def test_non_int_seed_is_a_type_error(self, seed):
        # SeedSequence would take a list of ints, or None for fresh entropy
        with pytest.raises(TypeError, match="non-negative int"):
            _replica_seed_words(seed)


def _seed_sequence_rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(k,)))


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(4).tobytes() == want.random(4).tobytes()
    assert got.exponential(1.0, 3).tobytes() \
        == want.exponential(1.0, 3).tobytes()


class TestReplicaRng:
    """replica_rng seeds PCG64 with the block rule's words for one k: the
    stream of PCG64(SeedSequence(seed, spawn_key=(k,))), on the domain of
    the blocks."""

    @pytest.mark.parametrize("seed", [
        0, 1, 1001, 2**32 - 1, 2**32, 5_000_001_000, 2**64 + 3, 2**130 + 7])
    @pytest.mark.parametrize("k", [0, 49, 2**32 - 1])
    def test_stream_is_the_seed_sequences(self, seed, k):
        assert_same_stream(replica_rng(seed, k), _seed_sequence_rng(seed, k))

    # seeds of 1 to 10 words; every k < 2^32
    @given(st.integers(0, 2**320 - 1), st.integers(0, 2**32 - 1))
    @example(2**320 - 1, 2**32 - 1)
    @example(2**128, 0)
    @settings(max_examples=200, deadline=None)
    def test_stream_is_the_seed_sequences_for_any_seed(self, seed, k):
        assert_same_stream(replica_rng(seed, k), _seed_sequence_rng(seed, k))

    @pytest.mark.parametrize("seed, k", [
        (np.int64(9), 3), (9, np.int64(3)), (np.uint32(9), np.uint32(3)),
        (np.uint64(2**64 - 1), np.uint64(2**32 - 1))])
    def test_numpy_ints(self, seed, k):
        assert_same_stream(replica_rng(seed, k),
                           _seed_sequence_rng(int(seed), int(k)))

    @pytest.mark.parametrize("seed", [[1, 2], None, 1.5])
    def test_non_int_seed_is_refused_as_by_the_blocks(self, seed):
        with pytest.raises(TypeError, match="non-negative int"):
            replica_rng(seed, 0)

    def test_negative_seed_is_refused_as_by_the_blocks(self):
        with pytest.raises(Exception) as want:
            _replica_seed_words(-1)
        with pytest.raises(want.type, match=str(want.value)):
            replica_rng(-1, 0)

    @pytest.mark.parametrize("k", [-1, 2**32])
    def test_key_outside_one_word_is_refused(self, k):
        # the blocks refuse a negative count and more than 2^32 replicas,
        # each with a ValueError, so their keys are 0..2^32 - 1
        with pytest.raises(ValueError, match=r"0\.\.2\^32 - 1, got "
                           + str(k)):
            replica_rng(0, k)

    @pytest.mark.parametrize("k", [1.5, None, "3"])
    def test_non_int_key_is_a_type_error(self, k):
        with pytest.raises(TypeError, match="replica index"):
            replica_rng(0, k)


B = process._SEED_BLOCK
# seeds of 1, 3 and 10 uint32 words
MEMO_SEEDS = [1210, 2**64 + 3, 2**319 + 5]


@pytest.fixture
def empty_memo():
    process._seed_block.cache_clear()
    yield process._seed_block
    process._seed_block.cache_clear()


class TestReplicaRngMemo:
    """replica_rng takes k's words from a memoized block of B replicas; the
    memo changes no stream."""

    @pytest.mark.parametrize("seed", MEMO_SEEDS)
    @pytest.mark.parametrize("k", [
        B - 1, B, 2 * B - 1, 2**32 - B - 1, 2**32 - 1])
    def test_block_edges_are_the_seed_sequences(self, empty_memo, seed, k):
        assert_same_stream(replica_rng(seed, k), _seed_sequence_rng(seed, k))
        # the same k again, now from the memo
        assert_same_stream(replica_rng(seed, k), _seed_sequence_rng(seed, k))

    def test_last_block_ends_at_two_to_the_32(self, empty_memo):
        replica_rng(7, 2**32 - 1)
        block = empty_memo(7, 2**32 - B)
        assert len(block) == B and empty_memo.cache_info().hits == 1
        np.testing.assert_array_equal(
            block[-1], _numpy_seed_words(7, 2**32 - 1, 2**32)[0])

    def test_descending_and_interleaved_calls(self, empty_memo):
        seeds = MEMO_SEEDS[:2]
        for k in range(2 * B + 5, -1, -1):
            for seed in seeds:
                assert_same_stream(replica_rng(seed, k),
                                   _seed_sequence_rng(seed, k))

    def test_words_are_a_read_only_row(self, empty_memo):
        rng = replica_rng(3, 10)
        words = rng.bit_generator.seed_seq.words
        with pytest.raises(ValueError, match="read-only"):
            words[0] = 0
        for k in (9, 10, 11):
            assert_same_stream(replica_rng(3, k), _seed_sequence_rng(3, k))

    def test_threads_share_blocks(self, empty_memo):
        keys = [(seed, k) for k in range(3 * B) for seed in MEMO_SEEDS[:2]]

        def draw(key):
            return replica_rng(*key).random(4).tobytes()

        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(draw, keys))
        empty_memo.cache_clear()
        assert got == list(map(draw, keys))

    def test_memo_holds_at_most_64_blocks(self, empty_memo):
        for k in range(0, 100 * B, B):
            replica_rng(5, k)
        assert empty_memo.cache_info().currsize == 64
        assert not empty_memo(5, 99 * B).flags.writeable

    @pytest.mark.parametrize("k", [0, B + 1])
    def test_negative_seed_leaves_nothing_in_the_memo(self, empty_memo, k):
        with pytest.raises(Exception) as want:
            _replica_seed_words(-1)
        with pytest.raises(want.type, match=str(want.value)):
            replica_rng(-1, k)
        assert empty_memo.cache_info().currsize == 0


class TestSeedWordsMemo:
    """replica_rng hashes a seed's pool once while the seed is memoized."""

    @pytest.fixture
    def empty_words(self, empty_memo):
        process._seed_words.cache_clear()
        yield process._seed_words
        process._seed_words.cache_clear()

    def test_second_block_builds_no_seed_sequence(self, empty_words,
                                                  monkeypatch):
        want = [_seed_sequence_rng(1211, k) for k in (0, B)]
        assert_same_stream(replica_rng(1211, 0), want[0])
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        real = np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence", counted)
        assert_same_stream(replica_rng(1211, B), want[1])
        assert built == []
        assert empty_words.cache_info().hits == 1

    @pytest.mark.parametrize("k", [0, B + 1])
    def test_negative_seed_leaves_no_words(self, empty_words, k):
        with pytest.raises(Exception) as want:
            np.random.SeedSequence(-1)
        with pytest.raises(want.type, match=str(want.value)):
            replica_rng(-1, k)
        assert empty_words.cache_info().currsize == 0


class TestTrajectoryExport:
    def test_csv_columns(self, tmp_path, triangle):
        traj = run_continuous(triangle, 10.0, replica_rng(15, 0))
        out = tmp_path / "traj.csv"
        traj.to_csv(out, header_lines=["seed: 15"])
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed: 15"
        assert lines[1] == "index,time,i,j,new_vertices,new_component"
        assert len(lines) == 2 + len(traj)


# (B, E) blocks of first-arrival times on a 0.1 grid, so times tie often;
# inf is a legal time, the clock of a subnormal rate
BLOCKS = st.integers(1, 5).flatmap(lambda b: st.integers(0, 8).flatmap(
    lambda e: st.lists(st.lists(
        st.one_of(st.integers(0, 10).map(lambda x: x / 10), st.just(np.inf)),
        min_size=e, max_size=e), min_size=b, max_size=b)))


class TestArrivalOrder:
    @given(BLOCKS, st.sampled_from([0.0, 0.35, 1.0, np.inf]))
    @example([[0.1, 0.0, 0.1]], 1.0)
    @example([[], []], 1.0)
    @example([[0.5, 0.7], [0.2, 0.9]], 0.35)
    @example([[np.inf, 0.3, np.inf], [np.inf, np.inf, np.inf]], np.inf)
    @settings(max_examples=300, deadline=None)
    def test_against_per_row_sort(self, block, t_max):
        tau = np.array(block, dtype=float)
        want = [(r, k) for r in range(len(tau))
                for k in sorted(range(tau.shape[1]),
                                key=lambda k: (tau[r, k], k))
                if tau[r, k] <= t_max]
        rows, ks, t = arrival_order(*block_arrivals(tau, t_max))
        assert list(zip(rows.tolist(), ks.tolist())) == want
        assert t.tolist() == [tau[r, k] for r, k in want]

    @pytest.mark.parametrize("spec", [
        triangle_spec(), random_explicit_spec(np.random.default_rng(78))],
        ids=["triangle", "random"])
    def test_run_continuous_is_a_one_row_block(self, spec):
        for k in range(30):
            traj = run_continuous(spec, 2.0, replica_rng(6, k))
            block = mc._draw_block(_replica_seed_words(6), k, k + 1, spec.w,
                                   2.0)
            _, _, t, i, j, nv = mc._arrivals(spec, *block)
            for got, want in [(traj.time, t), (traj.i, i), (traj.j, j),
                              (traj.new_vertices, nv)]:
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("M", [
        [1.0, 2.5, 0.3], np.random.default_rng(3501).uniform(0.01, 3.0, 40)],
        ids=["three", "forty"])
    def test_run_urn_is_a_one_row_block(self, M):
        # every rate is positive, so urn m fills at column m's arrival
        M = np.asarray(M)
        for k in range(30):
            fill = run_urn(M, 1.0, replica_rng(3502, k))
            rows, ks, t = mc._draw_block(_replica_seed_words(3502), k, k + 1,
                                         M, 1.0)
            assert not rows.any()
            want = np.full(len(M), np.inf)
            want[ks] = t
            np.testing.assert_array_equal(fill, want)

    @pytest.mark.parametrize("rates", [
        [1.0, 2.0, 0.5], [5e-324, 1.0, 1e300, 3.0]],
        ids=["plain", "extreme"])
    def test_full_stream_arrivals_match_the_scaled_exponentials(self, rates):
        # the reference route: numpy's exponential at scale 1 / rate, the
        # cumulative waits, the first n of each row in a stable sort
        rates, n, size = np.asarray(rates), 3, 40
        times, streams = process.full_stream_arrivals(
            rates, n, size, replica_rng(3503, 0))
        with np.errstate(over="ignore"):
            scales = 1 / rates[:, None]
        gaps = replica_rng(3503, 0).exponential(
            scales, size=(size, len(rates), n))
        want = np.cumsum(gaps, axis=2).reshape(size, -1)
        first = np.argsort(want, axis=1, kind="stable")[:, :n]
        assert times.tobytes() == np.take_along_axis(
            want, first, axis=1).tobytes()
        assert streams.tolist() == (first // n).tolist()

    @pytest.mark.parametrize("rates, n, size, bad", [
        ([1.0, 0.0], 2, 3, "rates must be positive, got 0.0"),
        ([1.0, -1.0], 2, 3, "rates must be positive, got -1.0"),
        ([np.nan, 1.0], 2, 3, "rates must be positive, got nan"),
        ([], 2, 3, "rates must be a non-empty 1-d array"),
        ([[1.0, 2.0]], 2, 3, "rates must be a non-empty 1-d array"),
        ([1.0, 2.0], 0, 3, "n must be positive"),
        ([1.0, 2.0], 2.5, 3, "n 2.5 is not an integer"),
        ([1.0, 2.0], 2, 0, "size must be positive"),
        ([1.0, 2.0], 2, -1, "size must be positive")],
        ids=["zero", "negative", "nan", "empty", "2-d", "n=0", "n=2.5",
             "size=0", "size=-1"])
    def test_full_stream_arrivals_refuse_degenerate_input(self, rates, n,
                                                          size, bad):
        with pytest.raises(ValueError, match=bad):
            process.full_stream_arrivals(rates, n, size,
                                         replica_rng(3504, 0))


def _merged(times):
    """``_merge_streams`` on a copy, checked against the sort oracle bit
    for bit."""
    times = np.asarray(times, dtype=float)
    got_t, got_k = process._merge_streams(times.copy())
    want_t, want_k = sorted_stream_arrivals(times)
    assert got_t.tobytes() == want_t.tobytes()
    assert got_k.tolist() == want_k.tolist()
    return got_t, got_k


class TestMergeStreams:
    def test_equal_times_go_to_the_lower_stream(self):
        t, k = _merged([[[1.0, 2.0], [1.0, 2.0], [0.5, 2.0]],
                        [[3.0, 3.0], [3.0, 3.0], [3.0, 3.0]]])
        assert k.tolist() == [[2, 0], [0, 0]]

    def test_zero_gaps_within_a_stream(self):
        t, k = _merged([[[0.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                        [[2.0, 2.0, 2.0], [1.0, 2.0, 2.0]]])
        assert k.tolist() == [[0, 0, 0], [1, 0, 0]]

    def test_rows_that_are_all_inf(self):
        t, k = _merged(np.full((3, 4, 2), np.inf))
        assert k.tolist() == [[0, 0]] * 3 and np.all(t == np.inf)

    def test_nan_ranks_after_inf(self):
        # a 0.0 draw at scale inf is NaN, and stays NaN in the sums
        nan, inf = np.nan, np.inf
        t, k = _merged([[[nan, nan], [inf, inf]],
                        [[inf, nan], [nan, nan]],
                        [[nan, nan], [nan, nan]],
                        [[nan, nan], [2.0, inf]]])
        assert k.tolist() == [[1, 1], [0, 0], [0, 0], [1, 1]]

    def test_random_streams_with_ties_infs_and_nans(self):
        rng = np.random.default_rng(3505)
        for _ in range(300):
            shape = rng.integers(1, 6, size=3)
            times = rng.choice([0.0, 1.0, 2.0, np.inf, np.nan], size=shape)
            _merged(np.sort(times, axis=2))  # np.sort puts NaN last

    def test_waits_summing_past_the_largest_float_are_inf(self):
        # scale 1e308: a wait above 1.8e308, or a sum of two waits, is
        # silently inf
        rates, n = np.array([1e-308, 1e-308, 5e-324]), 3
        times, ks = process.full_stream_arrivals(rates, n, 200,
                                                 replica_rng(3507, 0))
        gaps = replica_rng(3507, 0).standard_exponential((200, 3, n))
        with np.errstate(over="ignore"):
            gaps *= process.exponential_scales(rates)[:, None]
            want_t, want_k = sorted_stream_arrivals(np.cumsum(gaps, axis=2))
        assert np.isinf(want_t).any()
        assert times.tobytes() == want_t.tobytes()
        assert ks.tolist() == want_k.tolist()

    def test_one_stream_is_its_own_merge(self):
        rng = np.random.default_rng(3801)
        for _ in range(300):
            size, n = rng.integers(1, 7, size=2)
            times = rng.choice([0.0, 1.0, 2.0, np.inf, np.nan],
                               size=(size, 1, n))
            t, k = _merged(np.sort(times, axis=2))
            assert t.shape == k.shape == (size, n) and k.dtype == np.intp
            assert not k.any()

    @pytest.mark.parametrize("rate", [1.0, 1e-308, 5e-324])
    def test_one_rate_is_the_sorted_route(self, rate):
        times, ks = process.full_stream_arrivals([rate], 3, 50,
                                                 replica_rng(3801, 0))
        gaps = replica_rng(3801, 0).standard_exponential((50, 1, 3))
        with np.errstate(over="ignore"):
            gaps *= process.exponential_scales([rate])[:, None]
            want_t, want_k = sorted_stream_arrivals(np.cumsum(gaps, axis=2))
        assert times.tobytes() == want_t.tobytes()
        assert ks.tolist() == want_k.tolist()

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_depoissonize_is_the_sorted_route(self, n):
        spec = power_law_product(2.5, 300)
        traj = depoissonize(spec, n, replica_rng(3506, n))
        gaps = replica_rng(3506, n).standard_exponential((1, len(spec.w), n))
        gaps *= process.exponential_scales(spec.w)[:, None]
        (times,), (ks,) = sorted_stream_arrivals(np.cumsum(gaps, axis=2))
        assert traj.time.tobytes() == times.tobytes()
        assert traj.i.tolist() == spec.ei[ks].tolist()
        assert traj.j.tolist() == spec.ej[ks].tolist()


class TestNewVertexCounts:
    def test_against_set_bookkeeping(self):
        for traj in random_trajectories(40, 60):
            seen = set()
            want = []
            for i, j in zip(traj.i.tolist(), traj.j.tolist()):
                want.append((i not in seen) + (j not in seen))
                seen.update((i, j))
            assert traj.new_vertices.tolist() == want

    def test_kernel_on_arrays(self):
        got = new_vertex_counts(np.array([3, 1, 2, 5, 3]),
                                np.array([4, 2, 3, 6, 6]))
        assert got.tolist() == [2, 2, 0, 2, 0]
        assert new_vertex_counts(np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64)).tolist() == []

    def test_events_match_columns(self):
        for traj in random_trajectories(41, 20):
            assert len(traj.events) == len(traj)
            for k, ev in enumerate(traj.events):
                assert ev.index == k + 1
                assert ev.time == traj.time[k]
                assert ev.edge == (traj.i[k], traj.j[k])
                assert ev.new_vertices == traj.new_vertices[k]
                assert ev.new_component == (ev.new_vertices == 2)


# distinct canonical edges on few vertices, so components merge often
EDGE_LISTS = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 12))
    .filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e))),
    unique=True, max_size=40)


class TestComponentMerges:
    @staticmethod
    def union_find(edges):
        dsu = DisjointSet()
        merged = []
        for a, b in edges:
            dsu.add(a)
            dsu.add(b)
            merged.append(dsu.merge(a, b))
        return merged

    @given(EDGE_LISTS, st.sampled_from([0, 10**12 - 6]))
    @settings(max_examples=200, deadline=None)
    def test_against_union_find(self, edges, shift):
        edges = [(a + shift, b + shift) for a, b in edges]
        i = np.array([a for a, _ in edges], dtype=np.int64)
        j = np.array([b for _, b in edges], dtype=np.int64)
        assert component_merges(i, j).tolist() == self.union_find(edges)

    def test_single_edge_and_empty(self):
        big = np.array([10**12], dtype=np.int64)
        assert component_merges(big, big + 1).tolist() == [True]
        empty = np.array([], dtype=np.int64)
        assert component_merges(empty, empty).tolist() == []


class TestGoldenCsv:
    """CSV bytes for fixed seeds, as written before trajectories became
    columnar (the csv module ends rows with CRLF)."""

    def check(self, traj, tmp_path, rows):
        out = tmp_path / "traj.csv"
        traj.to_csv(out, header_lines=["seed: x"])
        assert out.read_bytes() == ("# seed: x\n" + "\r\n".join(
            ["index,time,i,j,new_vertices,new_component"] + rows)
            + "\r\n").encode()

    def test_continuous(self, tmp_path):
        traj = run_continuous(explicit(GOLDEN_SPEC), 1.0, replica_rng(31, 0))
        self.check(traj, tmp_path, [
            "1,0.17356181556026268,4,5,2,1",
            "2,0.5657018060218281,1,2,2,1",
            "3,0.7821999715699064,1,4,0,0"])

    def test_depoissonize(self, tmp_path):
        traj = depoissonize(explicit(GOLDEN_SPEC), 6, replica_rng(32, 0))
        self.check(traj, tmp_path, [
            "1,0.21409522884509374,4,5,2,1",
            "2,0.32218437797836963,3,5,1,0",
            "3,0.3899244937234995,1,2,2,1",
            "4,0.6696544829832011,2,3,0,0",
            "5,0.7799984787864884,2,3,0,0",
            "6,1.02826625873203,4,5,0,0"])

    def test_discrete_triangle(self, tmp_path, triangle):
        traj = run_discrete(triangle, 8, replica_rng(33, 0))
        self.check(traj, tmp_path, [
            "1,1.0,1,2,2,1", "2,2.0,2,3,1,0", "3,3.0,1,3,0,0",
            "4,4.0,1,2,0,0", "5,5.0,2,3,0,0", "6,6.0,2,3,0,0",
            "7,7.0,1,3,0,0", "8,8.0,1,2,0,0"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda spec: run_continuous(spec, 1.0, replica_rng(0, 0)),
    lambda spec: mc.vertex_count_samples(spec, [1.0], 8, 0),
    lambda spec: run_urn([1e-308, 1.0], 1.0, replica_rng(0, 0))],
    ids=["run_continuous", "vertex_count_samples", "run_urn"])
def test_overflowing_wait_is_a_silent_inf(call):
    # 1 / 1e-308 is finite, but a draw above 1.8 scales past the largest
    # float: that clock never rings, and no warning is raised
    out = call(explicit([((1, 2), 1e-308)]))
    if isinstance(out, process.Trajectory):
        assert len(out) == 0
    elif out.dtype == float:
        assert out[0] == np.inf and out[1] < np.inf
    else:
        assert not out.any()


class TestEventsAreBuiltAsRead:
    """Trajectory.events against the whole list the records once were."""

    def trajectories(self):
        spec = power_law_product(1.5, 12)
        rng = replica_rng(42, 0)
        return [run_discrete(spec, 40, rng), run_continuous(spec, 50.0, rng),
                depoissonize(spec, 30, rng)]

    @pytest.mark.parametrize("chunk", [3, 1 << 16])
    def test_reads_are_the_lists(self, monkeypatch, chunk):
        monkeypatch.setattr(measure, "_CHUNK", chunk)
        for traj in self.trajectories():
            want = event_list(traj)
            events = traj.events
            assert len(events) == len(want) == len(traj) > 3
            # repr tells a numpy scalar from a Python number
            assert repr(events[2]) == repr(want[2])
            assert repr(events[-1]) == repr(want[-1])
            assert repr(events[-len(want)]) == repr(want[0])
            for s in (slice(1, 7), slice(None, None, -3), slice(-5, None),
                      slice(4, 2)):
                assert repr(events[s]) == repr(want[s])
            assert repr(list(events)) == repr(want)
            assert repr(list(events)) == repr(want)  # a second iteration
            for k in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    events[k]

    def test_records_are_arrival_events(self):
        for traj in self.trajectories():
            want = event_list(traj)
            for got in (list(traj.events), traj.events[:], [
                    traj.events[k] for k in range(len(traj))]):
                assert got == want
                for ev, w in zip(got, want):
                    assert type(ev) is ArrivalEvent
                    assert ev._fields == ArrivalEvent._fields
                    assert ev._asdict() == w._asdict()
                    assert ev.new_component is (ev.new_vertices == 2)

    def test_empty_trajectory(self):
        traj = run_continuous(single_edge_spec(1e-9), 1e-9, replica_rng(0, 0))
        assert len(traj.events) == 0 and list(traj.events) == []
        assert traj.events[:] == []

    def test_events_are_read_only(self):
        events = self.trajectories()[0].events
        with pytest.raises(TypeError):
            events[0] = events[1]
