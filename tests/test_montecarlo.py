"""Replica orchestration: event estimates, growth curves, CLT, de-Poissonization."""

import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from edgeproc import analytic, montecarlo as mc
from edgeproc.measure import (
    double_exp,
    explicit,
    isolated_edges,
    power_law_product,
)
from edgeproc.process import depoissonize, replica_rng, run_continuous
from edgeproc.urns import run_urn

from conftest import random_explicit_spec


class TestEstimateEvent:
    def test_single_edge_certain(self, single_edge):
        rep = mc.estimate_event(single_edge, ("I", (1, 2)), 100.0, 5_000, 0)
        assert rep.estimate == 1.0
        assert rep.target == 1.0

    def test_triangle_within_three_sigma(self, triangle):
        rep = mc.estimate_event(triangle, ("I", (1, 2)), 200.0, 20_000, 1)
        assert abs(rep.z_score) < 3

    def test_path_joint_within_three_sigma(self, path):
        rep = mc.estimate_event(path, ("I_joint", (1, 2), (3, 4)),
                                200.0, 20_000, 2)
        assert rep.target == pytest.approx(1 / 3, rel=1e-14)
        assert abs(rep.z_score) < 3

    def test_sharing_pair_never_joint(self, path):
        rep = mc.estimate_event(path, ("I_joint", (1, 2), (2, 3)),
                                200.0, 5_000, 3)
        assert rep.estimate == 0.0 and rep.target == 0.0

    def test_random_spec_agreement(self):
        rng = np.random.default_rng(70)
        for trial in range(5):
            spec = random_explicit_spec(rng)
            e = spec.edges[0]
            rep = mc.estimate_event(spec, ("I", e), 500.0, 20_000, 71 + trial)
            assert abs(rep.z_score) < 4

    def test_degenerate_estimate_has_null_z(self, triangle):
        # no edge arrives by 1e-9, so p-hat = 0 and the plug-in error is 0;
        # z uses the null error sqrt(p (1 - p) / n) instead
        rep = mc.estimate_event(triangle, ("I", (1, 2)), 1e-9, 100, 5)
        assert rep.estimate == 0.0 and rep.std_error == 0.0
        want = -(1 / 3) / np.sqrt((1 / 3) * (2 / 3) / 100)
        assert rep.z_score == pytest.approx(want, rel=1e-12)
        assert rep.z_score == pytest.approx(-7.07, abs=5e-3)

    def test_certain_target_missed_has_infinite_z(self, two_edges):
        # target 1 has no null error either: an estimate of 0 is infinitely
        # far below it
        rep = mc.estimate_event(two_edges, ("I", (1, 2)), 1e-9, 10, 5)
        assert (rep.estimate, rep.target) == (0.0, 1.0)
        assert rep.z_score == -np.inf

    def test_certain_target_met_has_zero_z(self, single_edge, path):
        rep = mc.estimate_event(single_edge, ("I", (1, 2)), 100.0, 5_000, 0)
        assert rep.z_score == 0.0
        rep = mc.estimate_event(path, ("I_joint", (1, 2), (2, 3)),
                                200.0, 500, 3)
        assert rep.z_score == 0.0

    def test_unknown_event_rejected(self, triangle):
        with pytest.raises(ValueError):
            mc.estimate_event(triangle, ("nope",), 1.0, 10, 0)

    def test_proxy_is_reported(self, triangle):
        rep = mc.estimate_event(triangle, ("connected",), 5.0, 100, 4)
        assert "horizon" in rep.proxy


class TestGrowthCurves:
    def test_single_edge_connected_curve(self, single_edge):
        grid = [0.5, 1.0, 2.0]
        n = 10_000
        curve = mc.connected_frequency_curve(single_edge, grid, n, 5)
        for t, freq in curve:
            p = 1 - np.exp(-t)
            assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_disconnected_support_goes_to_zero(self, two_edges):
        curve = mc.connected_frequency_curve(two_edges, [0.5, 30.0], 2_000, 6)
        assert curve[-1][1] < 0.01

    def test_power_law_curve_increases_toward_one(self):
        spec = power_law_product(2.5, 50)
        curve = mc.connected_frequency_curve(spec, [2.0, 10.0, 40.0], 500, 7)
        freqs = [f for _, f in curve]
        assert freqs[0] <= freqs[1] + 0.05 <= freqs[2] + 0.10
        assert freqs[-1] > 0.9

    def test_scalar_grid_is_a_one_time_grid(self, triangle):
        assert mc.connected_frequency_curve(triangle, 5.0, 100, 1) \
            == mc.connected_frequency_curve(triangle, [5.0], 100, 1)

    def test_single_edge_i_plateau(self, single_edge):
        means = mc.i_event_growth(single_edge, [1.0, 5.0, 20.0, 30.0], 2_000, 8)
        assert means[-1] == pytest.approx(1.0, abs=1e-9)
        assert mc.plateaued([1.0, 5.0, 20.0, 30.0], means)

    def test_plateau_detector(self):
        grid = np.linspace(1, 10, 10)
        assert mc.plateaued(grid, np.ones(10))
        assert not mc.plateaued(grid, np.linspace(1, 2, 10))
        assert mc.plateaued(grid, np.zeros(10))

    def test_plateau_reads_the_grid_in_time_order(self):
        # the growth curves take unsorted grids; the means follow their times
        assert not mc.plateaued([50, 5, 10, 20, 40],
                                [1.0, 0.1, 0.3, 0.6, 0.99])
        assert not mc.plateaued([5, 10, 20, 40, 50],
                                [0.1, 0.3, 0.6, 0.99, 1.0])

    @pytest.mark.parametrize("grid", [[1.0], [5, 5, 5], [np.inf] * 2])
    def test_plateau_needs_two_distinct_times(self, grid):
        with pytest.raises(ValueError, match="one distinct time"):
            mc.plateaued(grid, [0.5] * len(grid))

    @pytest.mark.parametrize("grid, means, match", [
        ([], [], "empty"),
        ([1, 2, 3], [1.0], "1 means for a grid of 3"),
        ([1, 2], [1.0, 1.0, 1.0], "3 means for a grid of 2")])
    def test_plateau_needs_one_mean_per_time(self, grid, means, match):
        with pytest.raises(ValueError, match=match):
            mc.plateaued(grid, means)

    @pytest.mark.parametrize("grid, means, match", [
        ([1, 2, np.inf], [0.1, 0.5, 1.0], "must be finite"),
        ([1, 2, np.nan], [0.1, 0.5, 1.0], "must be finite"),
        ([1, 2, 3], [0.1, np.inf, np.inf], "must be finite"),
        ([1, 2, 3], [0.1, np.nan, np.nan], "must be finite"),
        ([[1, 2, 3]], [[0.1, 0.5, 1.0]], r"1-d, got shapes \(1, 3\)"),
        ([1, 2, 3], [[0.1, 0.5, 1.0]], "1-d")])
    def test_plateau_needs_finite_1d_input(self, grid, means, match):
        # an infinite or NaN time or mean has no relative change to read
        with pytest.raises(ValueError, match=match):
            mc.plateaued(grid, means)


GRID_ESTIMATORS = {
    "vertex_count_samples": mc.vertex_count_samples,
    "urn_count_samples": mc.urn_count_samples,
    "vertex_presence_samples": mc.vertex_presence_samples,
    "connectivity_growth": mc.connectivity_growth,
    "connected_frequency_curve": mc.connected_frequency_curve,
    "i_event_growth": mc.i_event_growth,
}


@pytest.mark.parametrize("name", sorted(GRID_ESTIMATORS))
@pytest.mark.parametrize("grid", [[[1.0, 2.0]], [[1.0]]])
def test_grid_of_more_than_one_dimension_refused(name, grid, triangle):
    # a grid is one axis of times: a nested one is not read as a curve
    with pytest.raises(ValueError, match=r"must be a 1-d grid of times, got "
                                         r"shape \(1, "):
        GRID_ESTIMATORS[name](triangle, grid, 3, 0)


class TestCltDiagnostic:
    def test_isolated_edges_near_normal(self):
        spec = isolated_edges(np.full(200, 1.0))
        rep = mc.clt_diagnostic(spec, 0.7, 2_000, 9)
        assert rep.ks_statistic < 0.08
        assert abs(rep.mean) < 0.1
        assert abs(rep.variance - 1.0) < 0.15
        assert not rep.low_variance_warning

    def test_low_variance_warning(self, single_edge):
        rep = mc.clt_diagnostic(single_edge, 0.5, 200, 11)
        assert rep.low_variance_warning


class TestMomentSamples:
    def test_vertex_count_mean(self):
        spec = random_explicit_spec(np.random.default_rng(72), n_edges=6)
        ts = [0.5, 2.0]
        n = 20_000
        counts = mc.vertex_count_samples(spec, ts, n, 12)
        for row, t in zip(counts, ts):
            target = analytic.expected_vertices(spec, t)
            _, var, _ = analytic.variance_sandwich(spec, t)
            assert abs(row.mean() - target) < 4 * np.sqrt(var / n)

    def test_vertex_count_variance_in_sandwich(self):
        spec = random_explicit_spec(np.random.default_rng(73), n_edges=6)
        t = 1.0
        n = 20_000
        row = mc.vertex_count_samples(spec, [t], n, 13)[0]
        lo, ex, up = analytic.variance_sandwich(spec, t)
        se = mc.variance_standard_error(row)
        v = row.var(ddof=1)
        assert lo - 4 * se <= v <= up + 4 * se
        assert abs(v - ex) < 4 * se

    def test_urn_count_variance(self):
        spec = random_explicit_spec(np.random.default_rng(74), n_edges=6)
        t = 1.0
        n = 20_000
        row = mc.urn_count_samples(spec, [t], n, 14)[0]
        target = analytic.urn_variance(spec, t)
        se = mc.variance_standard_error(row)
        assert abs(row.var(ddof=1) - target) < 4 * se

    @pytest.mark.parametrize("samples, bad", [
        ([1.0, np.inf, 2.0], "inf"), ([1.0, np.nan, 2.0], "nan"),
        ([-np.inf, 1.0], "-inf")])
    def test_variance_standard_error_needs_finite_samples(self, samples,
                                                          bad):
        # a sample that is not finite has no variance to estimate
        with pytest.raises(ValueError, match=f"must be finite, got {bad}$"):
            mc.variance_standard_error(samples)

    def test_presence_probabilities(self):
        spec = random_explicit_spec(np.random.default_rng(75), n_edges=6)
        t = 1.0
        n = 20_000
        pres, verts = mc.vertex_presence_samples(spec, t, n, 15)
        for col, v in enumerate(verts):
            p = 1 - np.exp(-spec.marginals[int(v)] * t)
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(pres[:, col].mean() - p) < 4 * se


class TestDepoissonization:
    def test_single_edge_distance_zero(self, single_edge):
        assert mc.depoissonization_agreement(single_edge, 2, 2_000, 16) == 0.0

    def test_two_edges(self, two_edges):
        d = mc.depoissonization_agreement(two_edges, 2, 100_000, 17)
        assert d < 0.02

    def test_triangle_first_arrival(self, triangle):
        d = mc.depoissonization_agreement(triangle, 1, 100_000, 18)
        assert d < 0.02

    def test_golden_values(self, triangle, two_edges):
        # taken when both routes built their SeedSequence streams by hand;
        # replica streams 0 and 1 are the same streams
        assert (mc.depoissonization_agreement(triangle, 3, 5_000, 21)
                == 0.06680000000000001)
        assert (mc.depoissonization_agreement(two_edges, 2, 3_000, 22)
                == 0.02066666666666664)

    def test_rejects_large_supports(self):
        spec = power_law_product(2.5, 10)
        with pytest.raises(ValueError):
            mc.depoissonization_agreement(spec, 2, 100, 0)

    @pytest.mark.parametrize("n, replicas", [(0, 100), (-1, 100), (2, 0)])
    def test_rejects_degenerate_inputs(self, triangle, n, replicas):
        with pytest.raises(ValueError):
            mc.depoissonization_agreement(triangle, n, replicas, 0)

    @pytest.mark.parametrize("n", [2.0, np.int64(2), 2.5, np.nan, "3"])
    def test_arrival_count_must_equal_an_integer(self, triangle, n):
        if n in (2.0, np.int64(2)):
            assert mc.depoissonization_agreement(triangle, n, 200, 3) \
                == mc.depoissonization_agreement(triangle, 2, 200, 3)
        else:
            with pytest.raises(ValueError, match="n .* not an integer"):
                mc.depoissonization_agreement(triangle, n, 200, 3)


class TestDeterminism:
    def test_estimate_thread_invariant(self, triangle):
        a = mc.estimate_event(triangle, ("I", (1, 2)), 50.0, 4_000, 19,
                              threads=1)
        b = mc.estimate_event(triangle, ("I", (1, 2)), 50.0, 4_000, 19,
                              threads=4)
        assert a == b

    def test_one_row_outputs_do_not_depend_on_the_cpus(self, monkeypatch):
        """One-row blocks go to a thread per usable CPU: the estimators
        that take no thread count give the same bits on 1 and 3 CPUs."""
        spec = power_law_product(2.5, 363)
        assert mc._BLOCK_ELEMENTS // spec.n_edges == 0  # one-row blocks
        grid, pools = [0.5, 2.0, 8.0], []

        class Spy(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", Spy)

        def outputs(cpus):
            monkeypatch.setattr(mc.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
            conn = mc.connectivity_growth(spec, grid, 6, 23)
            ic = mc.i_event_growth(spec, grid, 6, 24)
            return ([a.tobytes() for a in (*conn, ic)],
                    mc.clt_diagnostic(spec, 2.0, 6, 25))
        one = outputs(1)
        assert pools == []
        assert outputs(3) == one and pools == [3, 3, 3]

    def test_vertex_counts_thread_invariant(self, triangle):
        a = mc.vertex_count_samples(triangle, [1.0], 1_000, 21, threads=1)
        b = mc.vertex_count_samples(triangle, [1.0], 1_000, 21, threads=5)
        assert np.array_equal(a, b)


DEGENERATE = {
    "event_no_replicas": (
        lambda s: mc.estimate_event(s, ("I", (1, 2)), 1.0, 0, 0), "replicas"),
    "growth_no_replicas": (
        lambda s: mc.connectivity_growth(s, [1.0], 0, 0), "replicas"),
    "growth_empty_grid": (
        lambda s: mc.connectivity_growth(s, [], 10, 0), "t_grid"),
    "counts_empty_grid": (
        lambda s: mc.vertex_count_samples(s, [], 10, 0), "ts"),
    "urns_empty_grid": (
        lambda s: mc.urn_count_samples(s, [], 10, 0), "ts"),
    "counts_negative_replicas": (
        lambda s: mc.vertex_count_samples(s, [1.0], -1, 0), "replicas"),
    "clt_zero_variance": (
        lambda s: mc.clt_diagnostic(s, 0.0, 100, 0), "variance at t=0"),
    "clt_one_replica": (
        lambda s: mc.clt_diagnostic(s, 1.0, 1, 0), "replicas"),
    "clt_equal_counts": (
        lambda s: mc.clt_diagnostic(s, 1e-6, 20, 0), "20 sampled.*t=1e-06"),
    "event_negative_horizon": (
        lambda s: mc.estimate_event(s, ("I", (1, 2)), -1.0, 100, 0),
        "horizon"),
    "event_zero_horizon": (
        lambda s: mc.estimate_event(s, ("I", (1, 2)), 0.0, 100, 0),
        "horizon"),
    "event_nan_horizon": (
        lambda s: mc.estimate_event(s, ("I", (1, 2)), np.nan, 100, 0),
        "horizon"),
    "counts_nan_time": (
        lambda s: mc.vertex_count_samples(s, [np.nan], 5, 0), "ts must"),
    "counts_negative_time": (
        lambda s: mc.vertex_count_samples(s, [-1.0], 5, 0), "ts must"),
    "urns_nan_time": (
        lambda s: mc.urn_count_samples(s, [np.nan], 5, 0), "ts must"),
    "growth_negative_time": (
        lambda s: mc.connectivity_growth(s, [-5.0, 1.0], 50, 0),
        "t_grid must.*-5"),
    "presence_nan_time": (
        lambda s: mc.vertex_presence_samples(s, np.nan, 4, 0), "^t must"),
    "presence_negative_time": (
        lambda s: mc.vertex_presence_samples(s, -1.0, 4, 0), "^t must"),
    "presence_two_times": (
        lambda s: mc.vertex_presence_samples(s, [1.0, 2.0], 100, 1),
        "^t must be one time, got 2"),
    "event_zero_threads": (
        lambda s: mc.estimate_event(s, ("I", (1, 2)), 1.0, 100, 0, threads=0),
        "threads must be at least 1, got 0"),
    "counts_negative_threads": (
        lambda s: mc.vertex_count_samples(s, [1.0], 100, 0, threads=-2),
        "threads must be at least 1, got -2"),
    # a descriptor must name as many edges as its kind reads, each of two ids
    "event_I_two_edges": (
        lambda s: mc.estimate_event(s, ("I", (1, 2), (1, 3)), 1.0, 10, 0),
        "unknown event descriptor"),
    "event_connected_one_edge": (
        lambda s: mc.estimate_event(s, ("connected", (1, 2)), 1.0, 10, 0),
        "unknown event descriptor"),
    "event_I_joint_one_edge": (
        lambda s: mc.estimate_event(s, ("I_joint", (1, 2)), 1.0, 10, 0),
        "unknown event descriptor"),
    "event_I_no_edge": (
        lambda s: mc.estimate_event(s, ("I",), 1.0, 10, 0),
        "unknown event descriptor"),
    "event_empty": (
        lambda s: mc.estimate_event(s, (), 1.0, 10, 0),
        "unknown event descriptor"),
    "event_I_three_ids": (
        lambda s: mc.estimate_event(s, ("I", (1, 2, 3)), 1.0, 10, 0),
        "unknown event descriptor"),
    "event_I_one_id": (
        lambda s: mc.estimate_event(s, ("I", (1,)), 1.0, 10, 0),
        "unknown event descriptor"),
    "event_I_joint_three_ids": (
        lambda s: mc.estimate_event(s, ("I_joint", (1, 2), (1, 2, 3)), 1.0,
                                    10, 0),
        "unknown event descriptor"),
    "event_I_int_edge": (
        lambda s: mc.estimate_event(s, ("I", 5), 1.0, 10, 0),
        "unknown event descriptor"),
    # an id must be integral: 1.5 is refused, not truncated to 1
    "event_I_float_id": (
        lambda s: mc.estimate_event(s, ("I", (1.5, 2)), 1.0, 10, 0),
        "vertex id 1.5 is not an integer"),
    "variance_se_one_sample": (
        lambda s: mc.variance_standard_error([1.0]), "2 samples, got 1"),
    "variance_se_no_samples": (
        lambda s: mc.variance_standard_error([]), "2 samples, got 0"),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_inputs_name_the_bad_input(name, triangle):
    call, match = DEGENERATE[name]
    with pytest.raises(ValueError, match=match):
        call(triangle)


def test_infinite_times_are_valid(triangle):
    # only NaN and negative times are refused: at t = inf every edge arrived
    assert mc.vertex_count_samples(triangle, [0.0, np.inf], 4, 0)[:, 0] \
        .tolist() == [0, 3]
    assert mc.estimate_event(triangle, ("connected",), np.inf, 4, 0) \
        .estimate == 1.0


def test_samples_of_no_replicas_are_empty(triangle):
    for threads in (1, 2, 3):
        assert mc.vertex_count_samples(triangle, [0.5, 1.0], 0, 0,
                                       threads=threads).shape == (2, 0)
    assert mc.urn_count_samples(triangle, [0.5, 1.0], 0, 0).shape == (2, 0)
    pres, verts = mc.vertex_presence_samples(triangle, 1.0, 0, 0)
    assert pres.shape == (0, 3) and verts.tolist() == [1, 2, 3]


@pytest.mark.parametrize("replicas", [100.0, np.int64(100), 10.5, np.nan, "3"])
def test_replica_count_must_equal_an_integer(triangle, replicas):
    calls = [
        lambda r: mc.estimate_event(triangle, ("I", (1, 2)), 1.0, r, 0),
        lambda r: mc.vertex_count_samples(triangle, [1.0], r, 0)]
    if replicas in (100.0, np.int64(100)):
        rep = calls[0](replicas)
        assert rep == calls[0](100) and type(rep.replicas) is int
        assert calls[1](replicas).tolist() == calls[1](100).tolist()
    else:
        for call in calls:
            with pytest.raises(ValueError, match="replicas .* not an integer"):
                call(replicas)


SUBNORMAL = {
    # masses down to 3e-321 (the pair (5, 6) underflows to 0 at build)
    "double_exp_6": lambda: double_exp(6),
    "explicit_5e-324": lambda: explicit([((1, 2), 5e-324), ((2, 3), 10.0)]),
}
SAMPLERS = {
    "vertex_count_samples": lambda s: mc.vertex_count_samples(s, [1.0], 3, 0),
    "urn_count_samples": lambda s: mc.urn_count_samples(s, [1.0], 3, 0),
    "estimate_event": lambda s: mc.estimate_event(s, ("I", (1, 2)), 1.0,
                                                  3, 0),
    "run_continuous": lambda s: run_continuous(s, 1.0, replica_rng(0, 0)),
    "depoissonize": lambda s: depoissonize(s, 2, replica_rng(0, 0)),
    "run_urn": lambda s: run_urn(s.marginals.M[1:], 1.0, replica_rng(0, 0)),
}


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("name", sorted(SUBNORMAL))
def test_subnormal_masses_sample_without_warnings(name, sampler):
    # a subnormal rate's scale overflows to inf: that edge never arrives
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SAMPLERS[sampler](SUBNORMAL[name]())


def test_subnormal_edge_never_arrives():
    spec = SUBNORMAL["explicit_5e-324"]()
    traj = run_continuous(spec, 1e6, replica_rng(0, 0))
    assert (traj.i.tolist(), traj.j.tolist()) == ([2], [3])
    assert mc.vertex_count_samples(spec, [1e6], 50, 0).max() == 2
