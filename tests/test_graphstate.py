"""Graph state evolution: connectivity, essential completeness, replay."""

import itertools

import numpy as np
import pytest

from edgeproc.graphstate import GraphState, replay, snapshots_to_csv
from edgeproc.measure import explicit
from edgeproc.process import replica_rng, run_continuous

from conftest import random_explicit_spec, random_trajectories


def build(edges):
    state = GraphState()
    results = [state.apply_event(e) for e in edges]
    return state, results


class TestApplyEvent:
    def test_first_edge(self):
        state = GraphState()
        assert state.apply_event((1, 2)) == (2, True)
        assert state.components == 1

    def test_attach_one_new_vertex(self):
        state, _ = build([(1, 2)])
        assert state.apply_event((2, 3)) == (1, False)
        assert state.components == 1

    def test_merge_two_components(self):
        state, _ = build([(1, 2), (3, 4)])
        assert state.components == 2
        assert state.apply_event((2, 3)) == (0, False)
        assert state.components == 1

    def test_repeated_edge_is_noop(self):
        state, _ = build([(1, 2)])
        snap = state.snapshot()
        assert state.apply_event((1, 2)) == (0, False)
        assert state.snapshot() == snap


class TestIsConnected:
    def test_one_edge(self):
        state, _ = build([(1, 2)])
        assert state.is_connected()

    def test_two_components(self):
        state, _ = build([(1, 2), (3, 4)])
        assert not state.is_connected()

    def test_bridged(self):
        state, _ = build([(1, 2), (3, 4), (2, 3)])
        assert state.is_connected()

    def test_empty_graph(self):
        state = GraphState()
        assert state.is_empty
        assert not state.is_connected()


def k_complete(n):
    return list(itertools.combinations(range(1, n + 1), 2))


class TestEssentialCompleteness:
    def test_complete_prefix_plus_attached_vertex(self):
        state, _ = build(k_complete(4) + [(1, 5)])
        flag, sub = state.essential_completeness()
        assert flag and sub == "extra-vertex"

    def test_exact_prefix_subcase(self):
        state, _ = build(k_complete(4))
        flag, sub = state.essential_completeness()
        assert flag and sub == "exact-prefix"

    def test_missing_prefix_edge(self):
        # near-complete graph on {1..5} whose {1..4} prefix misses edge (2,3)
        edges = [e for e in k_complete(5) if e not in [(2, 3), (2, 5)]]
        state, _ = build(edges)
        assert state.is_connected()
        assert not state.is_essentially_complete()

    def test_gap_in_vertex_labels(self):
        # complete on {1..4} plus vertex 6; vertex 5 never arrived
        state, _ = build(k_complete(4) + [(1, 6)])
        assert not state.is_essentially_complete()

    def test_disconnected_never_complete(self):
        state, _ = build([(1, 2), (3, 4)])
        assert not state.is_essentially_complete()

    def test_single_edge_is_complete(self):
        # the whole graph is the complete graph on {1, 2}
        state, _ = build([(1, 2)])
        flag, sub = state.essential_completeness()
        assert flag and sub == "exact-prefix"


class TestReplay:
    def test_single_edge(self):
        traj = run_continuous(explicit([((1, 2), 1.0)]), 100.0,
                              replica_rng(0, 0))
        assert replay(traj) == [(2, 1, 1, 1)]

    def test_two_disjoint_edges(self):
        state, _ = build([(1, 2)])
        snaps = []
        state = GraphState()
        for e in [(1, 2), (3, 4)]:
            state.apply_event(e)
            snaps.append(state.snapshot())
        assert snaps == [(2, 1, 1, 1), (4, 2, 2, 2)]

    def test_bridge_final_snapshot(self):
        state, _ = build([(1, 2), (3, 4), (2, 3)])
        assert state.snapshot() == (4, 3, 1, 2)

    def test_matches_event_by_event_state(self):
        for traj in random_trajectories(42, 60):
            state = GraphState()
            want = []
            for e in traj.edge_sequence():
                state.apply_event(e)
                want.append(state.snapshot())
            assert replay(traj) == want

    def test_snapshots_csv_rows_are_replay_rows(self, tmp_path):
        for n, traj in enumerate(random_trajectories(43, 10)):
            out = tmp_path / f"snap{n}.csv"
            snapshots_to_csv(traj, out, header_lines=["seed: 43"])
            lines = out.read_text().splitlines()
            assert lines[:2] == ["# seed: 43", "index,time,vertices,edges,"
                                 "components,i_events"]
            rows = [tuple(map(int, ln.split(",")[2:])) for ln in lines[2:]]
            assert rows == replay(traj)
            assert [ln.split(",")[:2] for ln in lines[2:]] == [
                [str(k), repr(t)] for k, t in enumerate(traj.time.tolist(), 1)]

    def test_snapshots_csv_golden(self, tmp_path):
        # bytes as written before replay read trajectory columns
        spec = explicit([((1, 2), 1.0), ((3, 4), 1.0), ((5, 6), 1.0),
                         ((2, 3), 0.5), ((4, 5), 0.5), ((1, 6), 0.25)])
        traj = run_continuous(spec, 1.2, replica_rng(34, 1),
                              full_streams=True)
        out = tmp_path / "snap.csv"
        snapshots_to_csv(traj, out, header_lines=["seed: 34"])
        rows = ["index,time,vertices,edges,components,i_events",
                "1,0.009743886206026441,2,1,1,1",
                "2,0.19763429806961502,2,1,1,1",
                "3,0.30631754292323166,3,2,1,1",
                "4,0.5701461989370453,5,3,2,2",
                "5,0.8691969248320486,6,4,2,2",
                "6,1.0076723819582727,6,5,1,2",
                "7,1.0444627644841322,6,5,1,2",
                "8,1.140533798801406,6,5,1,2"]
        assert out.read_bytes() == (
            "# seed: 34\n" + "\r\n".join(rows) + "\r\n").encode()

    def test_empty_trajectory(self):
        traj = run_continuous(explicit([((1, 2), 1e-9)]), 1e-3,
                              replica_rng(0, 0))
        assert len(traj) == 0 and replay(traj) == []

    def test_no_isolated_vertices(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spec = random_explicit_spec(rng)
            traj = run_continuous(spec, 3.0, replica_rng(18, 0))
            for (v, e, _, _) in replay(traj):
                assert v <= 2 * e


def brute_force_components(edges):
    """BFS over the accumulated simple graph."""
    verts = set()
    adj = {}
    for (i, j) in edges:
        verts.update((i, j))
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    seen = set()
    comps = 0
    for v in verts:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x] - seen)
    return comps


class TestUnionFindAgainstBruteForce:
    def test_random_trajectories(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n_events = int(rng.integers(5, 200))
            edges = []
            state = GraphState()
            for _ in range(n_events):
                i = int(rng.integers(1, 20))
                j = int(rng.integers(1, 20))
                if i == j:
                    continue
                e = (min(i, j), max(i, j))
                edges.append(e)
                state.apply_event(e)
                assert state.components == brute_force_components(edges)

    def test_i_event_count_brute_force(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            spec = random_explicit_spec(rng)
            traj = run_continuous(spec, 10.0, replica_rng(21, 0))
            state = GraphState()
            seen = set()
            brute = 0
            for ev in traj.events:
                i, j = ev.edge
                if i not in seen and j not in seen:
                    brute += 1
                seen.update((i, j))
                state.apply_event(ev.edge)
            assert state.i_event_count == brute

    def test_connectivity_breaks_only_on_double_new(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            spec = random_explicit_spec(rng, max_vertex=10)
            traj = run_continuous(spec, 10.0, replica_rng(23, 0))
            state = GraphState()
            was_connected = False
            for ev in traj.events:
                state.apply_event(ev.edge)
                if was_connected and not state.is_connected():
                    assert ev.new_vertices == 2
                was_connected = state.is_connected()
