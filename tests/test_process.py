"""Discrete and continuous trajectory generation, de-Poissonization, RNG rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import DisjointSet
from scipy.stats import chi2

from edgeproc.measure import explicit
from edgeproc.process import (
    component_merges,
    depoissonize,
    new_vertex_counts,
    replica_rng,
    run_continuous,
    run_discrete,
)
from edgeproc.graphstate import replay

from conftest import (
    random_trajectories,
    single_edge_spec,
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

    def test_full_stream_arrival_count_is_poisson(self, two_edges):
        n = 30_000
        T = 3.0
        lam = two_edges.total_mass * T
        counts = np.empty(n)
        for k in range(n):
            counts[k] = len(run_continuous(two_edges, T, replica_rng(9, k),
                                           full_streams=True))
        se_mean = np.sqrt(lam / n)
        assert abs(counts.mean() - lam) < 3 * se_mean
        se_var = np.sqrt(np.mean((counts - counts.mean()) ** 4) / n)
        assert abs(counts.var(ddof=1) - lam) < 3 * se_var

    def test_simple_graph_sufficiency(self):
        # replaying a full-stream trajectory: repeated-edge arrivals must not
        # change any simple-graph statistic
        spec = explicit([((1, 2), 2.0), ((2, 3), 1.5), ((3, 4), 1.0)])
        for k in range(50):
            traj = run_continuous(spec, 5.0, replica_rng(10, k),
                                  full_streams=True)
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


class TestTrajectoryExport:
    def test_csv_columns(self, tmp_path, triangle):
        traj = run_continuous(triangle, 10.0, replica_rng(15, 0))
        out = tmp_path / "traj.csv"
        traj.to_csv(out, header_lines=["seed: 15"])
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed: 15"
        assert lines[1] == "index,time,i,j,new_vertices,new_component"
        assert len(lines) == 2 + len(traj)


class TestNewVertexCounts:
    def test_against_set_bookkeeping(self):
        for traj in random_trajectories(40, 60):
            seen = set()
            want = []
            for i, j in traj.edge_sequence():
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
            assert traj.edge_sequence() == [ev.edge for ev in traj.events]


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

    def test_full_streams(self, tmp_path):
        traj = run_continuous(explicit(GOLDEN_SPEC), 0.6, replica_rng(31, 1),
                              full_streams=True)
        self.check(traj, tmp_path, [
            "1,0.0711029981134065,2,3,2,1",
            "2,0.35199893313803776,2,3,0,0",
            "3,0.3566007166084328,1,2,1,0",
            "4,0.43030387352955535,2,3,0,0",
            "5,0.5217483402049584,3,5,1,0"])

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
