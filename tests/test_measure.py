"""Measure construction, marginals, normalization, sampling, support queries."""

import hashlib
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from edgeproc import analytic, measure, urns
from edgeproc.measure import (
    MeasureSpec,
    edge,
    explicit,
    double_exp,
    factorial_max,
    first_rank,
    isolated_edges,
    load_measure,
    measure_from_dict,
    power_law_product,
)
from edgeproc.montecarlo import vertex_presence_samples
from edgeproc.process import replica_rng

from conftest import random_explicit_spec, triangle_spec


def alias_rel_error(spec):
    """Largest relative gap between the alias table's implied edge
    probabilities and mass / total mass."""
    J, q = spec._alias()
    assert q.min() >= 0.0 and q.max() <= 1.0
    K = len(q)
    implied = (q + np.bincount(J, weights=1 - q, minlength=K)) / K
    probs = spec.w / spec.total_mass
    return float(np.max(np.abs(implied - probs) / probs))


class TestEdgeCanonicalization:
    def test_orders_endpoints(self):
        assert edge(5, 2) == (2, 5)
        assert edge(2, 5) == (2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            edge(3, 3)

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(ValueError):
            edge(0, 1)
        with pytest.raises(ValueError):
            edge(1, -2)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.5), np.nan, np.inf,
                                     -np.inf, "2", None, (1, 2)])
    def test_rejects_non_integral_ids(self, bad):
        # not truncated through int(): 1.5 would otherwise read as vertex 1
        for pair in ((bad, 3), (3, bad)):
            with pytest.raises(ValueError,
                               match=f"vertex id {re.escape(repr(bad))} is "
                                     "not an integer"):
                edge(*pair)

    def test_integral_ids_of_any_numeric_type(self):
        assert edge(2.0, 1) == (1, 2)
        assert edge(np.float64(7.0), np.int32(3)) == (3, 7)
        assert edge(np.int64(4), np.uint8(9)) == (4, 9)
        assert all(type(v) is int for v in edge(np.int64(4), 2.0))
        with pytest.raises(ValueError, match="self-loop"):
            edge(2.0, np.int64(2))

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_always_canonical(self, i, j):
        if i == j:
            with pytest.raises(ValueError):
                edge(i, j)
        else:
            a, b = edge(i, j)
            assert a < b and {a, b} == {i, j}


# every integer argument takes edge()'s rule: a value equal to an integer
# is that integer, any other is refused, not truncated through int()
INTEGER_ARGUMENTS = {
    "window": lambda spec, v: spec.window(v),
    "series_window": lambda spec, v:
        analytic.connectedness_series(spec, v).window,
    "marginal": lambda spec, v: spec.marginals[v],
    "coupling_lambda": lambda spec, v: urns.coupling_lambda(
        urns.CouplingState.empty(spec.n_max), spec, v),
    "rate_audit": lambda spec, v: urns.coupling_rate_audit(
        urns.CouplingState.empty(spec.n_max), spec, v),
    "completeness_blocks": lambda spec, v:
        urns.essential_completeness_product(spec, v).factors,
}


@pytest.mark.parametrize("bad", [3.7, 1.5, 2.5, "3"])
@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_non_integral_arguments_refused(name, bad):
    spec = power_law_product(3.0, 6, normalize=True)
    with pytest.raises(ValueError, match=f"{re.escape(repr(bad))} is not an "
                                         "integer"):
        INTEGER_ARGUMENTS[name](spec, bad)


@pytest.mark.parametrize("good", [3.0, np.int64(3)])
@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integral_arguments_accepted(name, good):
    spec = power_law_product(3.0, 6, normalize=True)
    call = INTEGER_ARGUMENTS[name]
    assert call(spec, good) == call(spec, 3)


class TestMass:
    def test_single_edge_on_support(self):
        spec = explicit([((1, 2), 1.0)])
        assert spec.mass((1, 2)) == 1.0

    def test_single_edge_off_support(self):
        spec = explicit([((1, 2), 1.0)])
        assert spec.mass((3, 4)) == 0.0

    def test_power_law_direct_formula(self):
        spec = power_law_product(2.0, 100)
        assert spec.mass((2, 3)) == pytest.approx((2 * 3) ** -2.0, rel=1e-15)
        assert spec.mass((2, 3)) == pytest.approx(1 / 36, rel=1e-15)

    def test_mass_uses_canonical_order(self):
        spec = explicit([((1, 2), 0.7)])
        assert spec.mass((2, 1)) == 0.7

    def test_malformed_edge_rejected(self):
        spec = explicit([((1, 2), 1.0)])
        with pytest.raises(ValueError):
            spec.mass((2, 2))

    @pytest.mark.parametrize("ei, ej", [
        ([1, 1], [3, 2]),        # unsorted in j
        ([2, 1], [3, 2]),        # unsorted in i
        ([1, 1], [2, 2]),        # repeated
        ([1, 2, 1], [2, 3, 2]),  # repeated after a later edge
    ])
    def test_unsorted_or_repeated_edges_rejected(self, ei, ej):
        from edgeproc.measure import MeasureSpec
        with pytest.raises(ValueError, match="sorted"):
            MeasureSpec("explicit", {}, np.array(ei), np.array(ej),
                        np.ones(len(ei)), 3)

    def test_empty_support_rejected(self):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="empty support"):
            MeasureSpec("explicit", {}, empty, empty, np.array([]), 3)

    def test_non_canonical_edge_rejected(self):
        with pytest.raises(ValueError, match="canonically"):
            MeasureSpec("explicit", {}, np.array([2]), np.array([1]),
                        np.ones(1), 2)

    def test_lookup_builds_no_per_edge_table(self):
        spec = power_law_product(2.5, 500)  # 124,750 edges
        tracemalloc.start()
        try:
            assert spec.mass((3, 400)) == pytest.approx(1200.0**-2.5,
                                                        rel=1e-15)
            assert spec.mass((400, 3)) == spec.mass((3, 400))
            assert spec.mass((499, 501)) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestEdgeMass:
    def test_single_edge(self):
        spec = explicit([((1, 2), 1.0)])
        assert spec.edge_mass((1, 2)) == pytest.approx(1.0)

    def test_triangle_hand_sum(self):
        # M_1 = M_2 = 2/3, so M_e = 2/3 + 2/3 - 1/3 = 1
        spec = triangle_spec()
        assert spec.edge_mass((1, 2)) == pytest.approx(1.0)

    def test_path_hand_sum(self):
        # M_1 = 1/2, M_2 = 1, M_e = 1/2 + 1 - 1/2 = 1
        spec = explicit([((1, 2), 0.5), ((2, 3), 0.5)])
        assert spec.edge_mass((1, 2)) == pytest.approx(1.0)

    def test_edge_mass_dominates_mass(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            spec = random_explicit_spec(rng)
            iso = {(int(a), int(b))
                   for a, b in zip(spec.ei, spec.ej)
                   if spec.marginals[a] + spec.marginals[b]
                   == 2 * spec.mass((a, b))}
            for e in spec.edges:
                me, mu = spec.edge_mass(e), spec.mass(e)
                assert me >= mu
                # equality exactly when e touches nothing else
                assert (me == mu) == (e in iso)


class TestMarginals:
    def test_brute_force_recomputation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = random_explicit_spec(rng)
            for i in range(1, spec.n_max + 1):
                brute = sum(spec.mass((i, j))
                            for j in range(1, spec.n_max + 1) if j != i)
                assert abs(spec.marginals[i] - brute) < 1e-12

    def test_normalized_marginals_sum_to_two(self):
        for spec in (power_law_product(2.5, 50, normalize=True),
                     triangle_spec().normalize(),
                     first_rank([1.0, 0.5, 0.25], normalize=True)):
            assert abs(spec.marginals.total - 2.0) < 1e-10

    def test_marginal_dominates_each_mass(self):
        spec = power_law_product(2.2, 30)
        for (i, j) in spec.edges[:200]:
            assert spec.marginals[i] >= spec.mass((i, j))

    def test_out_of_window_marginal_is_zero(self):
        spec = explicit([((1, 2), 1.0)])
        assert spec.marginals[99] == 0.0

    @pytest.mark.parametrize("vertex", [0, -1, -1.0])
    def test_non_positive_vertex_refused(self, vertex):
        # as in edge(): ids start at 1, while one past the window reads 0.0
        spec = power_law_product(2.5, 6)
        with pytest.raises(ValueError, match="must be positive"):
            spec.marginals[vertex]


class TestNormalization:
    def test_total_mass_one(self):
        spec = power_law_product(2.5, 50).normalize()
        assert abs(spec.total_mass - 1.0) < 1e-12
        assert spec.normalized

    def test_idempotent_bitwise(self):
        spec = power_law_product(2.5, 50)
        once = spec.normalize()
        twice = once.normalize()
        assert twice is once  # no-op, arrays untouched
        assert np.array_equal(once.w, twice.w)

    def test_normalized_flag_validated(self):
        from edgeproc.measure import MeasureSpec
        with pytest.raises(ValueError):
            MeasureSpec("explicit", {}, np.array([1]), np.array([2]),
                        np.array([0.5]), 2, normalized=True)

    def test_off_window_mass_scales(self):
        spec = power_law_product(2.5, 50)
        norm = spec.normalize()
        assert norm.off_window_mass == pytest.approx(
            spec.off_window_mass / spec.total_mass)

    def test_keeps_scale_free_caches(self):
        spec = power_law_product(2.5, 40)
        spec.sample_edge_indices(1, replica_rng(0, 0))
        marg = spec.marginals
        norm = spec.normalize()
        assert norm._cache["alias"] is spec._cache["alias"]
        assert np.array_equal(vertex_presence_samples(norm, 1.0, 2, 0)[1],
                              vertex_presence_samples(spec, 1.0, 2, 0)[1])
        total = spec.total_mass
        assert np.allclose(norm.marginals.M, marg.M / total, rtol=1e-15)
        assert norm.marginals.total == pytest.approx(2.0, rel=1e-12)
        assert np.array_equal(spec.sample_edge_indices(5000, replica_rng(4, 2)),
                              norm.sample_edge_indices(5000, replica_rng(4, 2)))


class TestSampling:
    def test_single_edge_always_drawn(self):
        spec = explicit([((1, 2), 1.0)])
        assert spec.sample_edge_indices(20, replica_rng(0, 0)).tolist() \
            == [0] * 20

    def test_two_edge_frequency(self):
        spec = explicit([((1, 2), 0.5), ((3, 4), 0.5)])
        rng = replica_rng(1, 0)
        n = 10**5
        ks = spec.sample_edge_indices(n, rng)
        freq = np.mean(ks == 0)
        assert abs(freq - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_power_law_chi_square(self):
        spec = power_law_product(2.5, 50)
        rng = replica_rng(2, 0)
        n = 10**5
        ks = spec.sample_edge_indices(n, rng)
        probs = spec.w / spec.total_mass
        # merge tiny-expectation cells into one bucket for a valid chi-square
        expected = probs * n
        big = expected >= 5
        obs = np.bincount(ks, minlength=len(probs))
        obs_cells = np.append(obs[big], obs[~big].sum())
        exp_cells = np.append(expected[big], expected[~big].sum())
        stat = np.sum((obs_cells - exp_cells) ** 2 / exp_cells)
        dof = len(obs_cells) - 1
        assert stat < chi2.ppf(0.999, dof)

    def test_sampling_deterministic_given_seed(self):
        spec = power_law_product(2.5, 20)
        a = spec.sample_edge_indices(1000, replica_rng(3, 5))
        b = spec.sample_edge_indices(1000, replica_rng(3, 5))
        assert np.array_equal(a, b)


class TestAliasTable:
    """The sweep build must reproduce mass / total on every edge."""

    @pytest.mark.parametrize("make", [
        lambda: power_law_product(1.5, 60),
        lambda: power_law_product(2.5, 200),
        lambda: power_law_product(4.0, 30),
        lambda: first_rank(np.arange(1, 101, dtype=float) ** -2),
        lambda: factorial_max(12),
        lambda: double_exp(4),
        lambda: isolated_edges([0.1, 2.0, 0.7, 0.7, 5.0]),
        lambda: triangle_spec(),
        lambda: explicit([((1, 2), 1.0)]),
    ])
    def test_exact_small_windows(self, make):
        assert alias_rel_error(make()) < 1e-12

    def test_exact_random_explicit(self):
        rng = np.random.default_rng(31)
        for k in range(100):
            spec = random_explicit_spec(rng, max_vertex=12,
                                        n_edges=int(rng.integers(1, 40)))
            if k % 2:  # masses over many orders of magnitude
                spec = explicit([(e, float(np.exp(rng.normal(0, 8))))
                                 for e in spec.edges])
            assert alias_rel_error(spec) < 1e-12

    @pytest.mark.parametrize("make", [
        lambda: power_law_product(2.5, 2000),
        lambda: first_rank(np.arange(1, 2001, dtype=float) ** -2),
    ])
    def test_exact_wide_windows(self, make):
        # 2M edges; the smallest power-law probabilities (~8e-17) are below
        # the float spacing near 1
        assert alias_rel_error(make()) < 1e-12

    def test_triangle_table_is_all_ones(self):
        J, q = triangle_spec()._alias()
        assert np.array_equal(q, np.ones(3))


WIDE = {
    "power_law_2.5_2000": lambda: power_law_product(2.5, 2000),
    "first_rank_2000": lambda: first_rank(
        np.arange(1, 2001, dtype=float) ** -2),
}


@pytest.fixture(scope="module", params=sorted(WIDE))
def wide(request):
    """A 1,999,000-edge measure and the sha256 of its masses as built."""
    spec = WIDE[request.param]()
    return request.param, spec, hashlib.sha256(spec.w.tobytes()).hexdigest()


def sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestBoundedScratch:
    """The alias table and the O(E) edge passes give the same bits whatever
    their chunking, and leave the stored masses alone."""

    # sha256 of J and q, and exact values of variance_sandwich at t = 1e6
    # and 5e4 and of the series' partial sum, pinned from whole-array
    # passes: no chunking may change a bit
    GOLDEN = {
        "power_law_2.5_2000": dict(
            J="3cda6a77c2f902fffe49a257fc7d4824a20c9e582347976f5b3aeb44c4d13dd9",
            q="1dc11df30dcf520227d786013b6c4eb4543882ea8cd2ebab0145aa19a8aefe2e",
            sandwich={1e6: ("0x1.f1ded6f4aad96p+6", "0x1.f1ed1543d1146p+6",
                            "0x1.f7d6957bde5c6p+6"),
                      5e4: ("0x1.407370df0d0cap+5", "0x1.40acbd60ab2d4p+5",
                            "0x1.4c62eded7412bp+5")},
            series="0x1.7defa1cce0c16p+0"),
        "first_rank_2000": dict(
            J="4996da27c59b7563c227a48da9d93712a0337be77009b3ba1f2152afc160f329",
            q="22f62e34365bfe390da66ef7ac1df1a0fab71b9038241c4f5ac8dcd145435eae",
            sandwich={1e6: ("0x1.0472e5f5c0fd4p+8", "0x1.048324e65c2fep+8",
                            "0x1.08367f02c7f6ap+8"),
                      5e4: ("0x1.53acc97350452p+7", "0x1.5458e76345c2ep+7",
                            "0x1.5b33fb8d5e37ep+7")},
            series="0x1.e1cc86837cb13p+1"),
    }

    def test_alias_golden(self, wide):
        name, spec, w_sha = wide
        J, q = spec._alias()
        assert J.dtype == np.int64 and q.dtype == np.float64
        assert (sha256(J), sha256(q)) == (self.GOLDEN[name]["J"],
                                          self.GOLDEN[name]["q"])
        assert sha256(spec.w) == w_sha

    def test_variance_sandwich_golden(self, wide):
        name, spec, w_sha = wide
        for t, want in self.GOLDEN[name]["sandwich"].items():
            got = analytic.variance_sandwich(spec, t)
            assert got == tuple(float.fromhex(x) for x in want)
            assert sha256(spec.w) == w_sha

    def test_connectedness_series_golden(self, wide):
        name, spec, w_sha = wide
        got = analytic.connectedness_series(spec).partial_sum
        assert got == float.fromhex(self.GOLDEN[name]["series"])
        assert sha256(spec.w) == w_sha
        # a window short of n_max selects (copies) the masses it sums
        analytic.connectedness_series(spec, 1000)
        assert sha256(spec.w) == w_sha

    def test_support_connected_leaves_masses(self, wide):
        _, spec, w_sha = wide
        assert spec.support_connected() == "connected-on-truncation"
        assert sha256(spec.w) == w_sha

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_size_does_not_change_the_table(self, monkeypatch, chunk):
        # one chunk covers every measure here at the default size, so only
        # a smaller one crosses chunk boundaries
        rng = np.random.default_rng(33)
        specs = [power_law_product(1.5, 60)]
        for _ in range(50):
            spec = random_explicit_spec(rng, max_vertex=14,
                                        n_edges=int(rng.integers(1, 92)))
            specs.append(explicit([(e, float(np.exp(rng.normal(0, 12))))
                                   for e in spec.edges]))
        for spec in specs:
            w = spec.w.copy()
            want = measure._build_alias(spec.w / spec.total_mass)
            with monkeypatch.context() as m:
                m.setattr(measure, "_CHUNK", chunk)
                got = measure._build_alias(spec.w / spec.total_mass)
            assert np.array_equal(got[0], want[0])
            assert got[1].tobytes() == want[1].tobytes()
            assert np.array_equal(spec.w, w)

    @pytest.mark.parametrize("heavy", ["few", "half"])
    def test_alias_build_scratch_is_bounded(self, heavy):
        # the whole-array build peaked at 60 (half) to 72 (few) bytes per
        # edge; J alone is 8, the light and heavy index lists 8 and the
        # two prefix sums 16
        K = 1 << 20
        rng = np.random.default_rng(34)
        w = (np.exp(rng.normal(0, 8, K)) if heavy == "few"
             else rng.random(K))
        probs = w / w.sum()
        del w
        tracemalloc.start()
        try:
            J, q = measure._build_alias(probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * K
        assert q is probs  # built in place

    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_window_family_build_peak(self, name):
        # ei, ej and w store 24 bytes per edge, 48.0 MB here; the whole-array
        # build peaked at 54 (power law) and 64 MB (first rank)
        tracemalloc.start()
        try:
            spec = WIDE[name]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.n_edges == 1_999_000
        assert peak < 50e6

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 7, 60])
    def test_window_pairs_are_the_upper_triangle(self, n_max):
        i, j = measure._window_pairs(n_max)
        want_i, want_j = np.triu_indices(n_max, k=1)
        assert i.dtype == j.dtype == np.int64
        assert np.array_equal(i, want_i + 1)
        assert np.array_equal(j, want_j + 1)

    def test_first_rank_chunks_do_not_change_the_masses(self, monkeypatch):
        sigma = np.random.default_rng(35).random(40)
        want = first_rank(sigma).w.tobytes()
        monkeypatch.setattr(measure, "_CHUNK", 7)
        spec = first_rank(sigma)
        assert spec.w.tobytes() == want
        assert spec.w.tobytes() == (sigma[spec.ei - 1]
                                    * sigma[spec.ej - 1]).tobytes()


class TestSupportConnected:
    def test_single_edge(self):
        assert explicit([((1, 2), 1.0)]).support_connected() \
            == "connected-on-truncation"

    def test_disjoint_pair(self):
        spec = explicit([((1, 2), 0.5), ((3, 4), 0.5)])
        assert spec.support_connected() == "disconnected"

    def test_untouched_window_ids_do_not_count(self):
        spec = explicit([((3, 5), 1.0), ((5, 6), 2.0)], n_max=9)
        assert spec.support_connected() == "connected-on-truncation"

    def test_zero_mass_edge_does_not_connect(self):
        spec = explicit([((1, 2), 1.0), ((2, 3), 0.0), ((3, 4), 1.0)])
        assert spec.support_connected() == "disconnected"

    def test_against_graph_search(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            spec = random_explicit_spec(rng, max_vertex=9,
                                        n_edges=int(rng.integers(1, 12)))
            adj = {}
            for i, j in spec.edges:
                adj.setdefault(i, set()).add(j)
                adj.setdefault(j, set()).add(i)
            stack, seen = [next(iter(adj))], set()
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack.extend(adj[v] - seen)
            want = ("connected-on-truncation" if seen == set(adj)
                    else "disconnected")
            assert spec.support_connected() == want

    @pytest.mark.parametrize("gamma", [1.5, 2.5, 4.0])
    def test_power_law_complete_support(self, gamma):
        assert power_law_product(gamma, 25).support_connected() \
            == "connected-on-truncation"


class TestFamilies:
    def test_first_rank_product_form(self):
        sigma = [0.5, 0.25, 0.125]
        spec = first_rank(sigma)
        assert spec.mass((1, 3)) == pytest.approx(0.5 * 0.125)
        assert spec.mass((2, 3)) == pytest.approx(0.25 * 0.125)

    def test_first_rank_refuses_a_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            first_rank([1.0, -0.5, 0.25])

    def test_factorial_max_masses(self):
        spec = factorial_max(4)
        assert spec.mass((1, 2)) == pytest.approx(2.0**-4)
        assert spec.mass((1, 3)) == pytest.approx(6.0**-4)
        assert spec.mass((2, 3)) == pytest.approx(6.0**-4)
        assert spec.off_window_mass > 0

    def test_double_exp_masses(self):
        spec = double_exp(3)
        assert spec.mass((1, 2)) == pytest.approx(np.exp(-3.0) * np.exp(-9.0))
        assert spec.off_window_mass > 0

    # sha256 of w, ei and ej bytes, and off_window_mass.hex(), as built
    # before the exponent cap
    DOUBLE_EXP_GOLDEN = {
        2: ("44d86e06bc04b6f7", "0x1.a67978660a2a1p-43"),
        3: ("369b37c12c583bd8", "0x1.c3105ffcfa1b3p-121"),
        4: ("275d4da0417a0580", "0x1.127c8df1da8d3p-354"),
        5: ("cc620d314a217b30", "0x0.000000007bb56p-1022"),
        6: ("b783b5e13c3fd98e", "0x0.0p+0"),
        10: ("b783b5e13c3fd98e", "0x0.0p+0"),
        645: ("b783b5e13c3fd98e", "0x0.0p+0"),
    }

    @pytest.mark.parametrize("n_max", sorted(DOUBLE_EXP_GOLDEN))
    def test_double_exp_golden(self, n_max):
        spec = double_exp(n_max)
        digest = hashlib.sha256(spec.w.tobytes() + spec.ei.tobytes()
                                + spec.ej.tobytes()).hexdigest()[:16]
        assert (digest, spec.off_window_mass.hex()) == \
            self.DOUBLE_EXP_GOLDEN[n_max]

    @pytest.mark.parametrize("n_max", [646, 700])
    def test_double_exp_large_window_builds(self, n_max):
        # 3^646 overflowed float64; every vertex >= 7 has mass 0 anyway
        spec = double_exp(n_max)
        assert len(spec.w) == 12 and spec.off_window_mass == 0.0
        assert spec.edges == double_exp(6).edges

    @pytest.mark.parametrize("n_max", range(2, 13))
    def test_double_exp_keeps_the_heaviest_pair(self, n_max):
        # {1, 2} weighs e^-12 on every window, so no window underflows whole
        assert double_exp(n_max).mass((1, 2)) > 0

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_double_exp_window_without_pairs_rejected(self, n_max):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            double_exp(n_max)

    def test_isolated_edges_disjoint_support(self):
        spec = isolated_edges([1.0, 2.0, 3.0])
        assert spec.edges == [(1, 2), (3, 4), (5, 6)]
        seen = set()
        for (i, j) in spec.edges:
            assert i not in seen and j not in seen
            seen.update((i, j))

    def test_power_law_gamma_validation(self):
        with pytest.raises(ValueError):
            power_law_product(1.0, 10)

    def test_explicit_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            explicit([((1, 2), 0.5), ((2, 1), 0.5)])

    def test_power_law_off_window_mass_shrinks(self):
        small = power_law_product(2.5, 20).off_window_mass
        big = power_law_product(2.5, 100).off_window_mass
        assert 0 < big < small


class TestZeroMassEdges:
    """Edges with zero mass, given or underflowed, are dropped on
    construction; every stored mass is positive."""

    @pytest.mark.parametrize("make", [
        lambda: explicit([((1, 2), 1.0), ((2, 3), 0.0), ((3, 4), 1.0)]),
        lambda: first_rank([1.0, 0.0, 0.5, 0.25]),
        lambda: isolated_edges([1.0, 0.0, 2.0]),
        lambda: factorial_max(90),
        lambda: double_exp(8),
    ])
    def test_only_positive_masses_stored(self, make):
        spec = make()
        assert np.all(spec.w > 0)
        assert len(spec.ei) == len(spec.ej) == len(spec.w)

    def test_stripped_edges_leave_the_support(self):
        spec = first_rank([1.0, 0.0, 0.5, 0.25])
        assert all(2 not in e for e in spec.edges)
        assert spec.mass((1, 2)) == 0.0
        assert spec.n_max == 4 and spec.marginals[2] == 0.0

    def test_explicit_window_ends_at_the_last_positive_mass(self):
        items = [((1, 2), 1.0), ((2, 3), 1.0), ((3, 9), 0.0)]
        assert explicit(items).n_max == 3
        assert explicit(items, n_max=9).n_max == 9

    def test_underflowed_family_keeps_its_window(self):
        spec = factorial_max(90)
        assert spec.n_max == 90
        assert spec.n_edges < 90 * 89 // 2

    def test_normalized_copy_keeps_positive_masses(self):
        spec = explicit([((1, 2), 1.0), ((2, 3), 0.0), ((3, 4), 3.0)],
                        normalize=True)
        assert spec.edges == [(1, 2), (3, 4)]
        assert spec.w.tolist() == [0.25, 0.75]

    def test_mass_underflowing_in_normalize_is_dropped_with_caches(self):
        spec = explicit([((1, 2), 5e-324), ((2, 3), 10.0)])
        spec.mass((1, 2))
        spec.sample_edge_indices(1, replica_rng(0, 0))
        assert spec.marginals[1] > 0
        norm = spec.normalize()  # 5e-324 / 10 rounds to 0
        assert norm.edges == [(2, 3)]
        assert norm.mass((2, 3)) == 1.0 and norm.mass((1, 2)) == 0.0
        assert np.all(norm.sample_edge_indices(20, replica_rng(0, 1)) == 0)
        pres, verts = vertex_presence_samples(norm, 1.0, 3, 0)
        assert verts.tolist() == [2, 3] and pres.shape == (3, 2)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="total mass"):
            explicit([((1, 2), 0.0)])


MASS_RULE = "^edge masses must be finite and non-negative$"


class TestMassRule:
    """One rule on construction: every mass is finite and non-negative."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("make", [
        lambda x: explicit([((1, 2), x), ((2, 3), 1.0)]),
        lambda x: first_rank([x, 1.0, 1.0]),
        lambda x: isolated_edges([x, 1.0]),
        lambda x: MeasureSpec("explicit", {}, np.array([1, 2]),
                              np.array([2, 3]), np.array([x, 1.0]), 3),
    ], ids=["explicit", "first_rank", "isolated_edges", "MeasureSpec"])
    def test_infinite_or_nan_mass_rejected(self, make, bad):
        with pytest.raises(ValueError, match=MASS_RULE):
            make(bad)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match=MASS_RULE):
            isolated_edges([-1.0, 1.0])

    @pytest.mark.parametrize("mass", [1e308, 0.6e308])
    def test_overflowing_total_rejected(self, mass):
        # 2e308 overflows the total, 1.2e308 the marginals' sum (twice it)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="total edge mass overflows"):
                explicit([((1, 2), mass), ((2, 3), mass)])


class TestConfigFiles:
    def test_round_trip_all_families(self, tmp_path):
        cfgs = [
            {"family": "power_law_product", "gamma": 2.5, "n_max": 20,
             "normalize": True},
            {"family": "first_rank", "sigma": [1.0, 0.5, 0.25]},
            {"family": "factorial_max", "n_max": 5},
            {"family": "double_exp", "n_max": 4},
            {"family": "isolated_edges", "weights": [0.5, 0.5]},
            {"family": "explicit", "edges": [[1, 2, 0.5], [3, 4, 0.5]]},
        ]
        for k, cfg in enumerate(cfgs):
            p = tmp_path / f"m{k}.json"
            p.write_text(json.dumps(cfg))
            spec = load_measure(p)
            assert spec.family == cfg["family"]
            assert spec.total_mass > 0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            measure_from_dict({"family": "nope"})

    @pytest.mark.parametrize("cfg, key", [
        ({"family": "factorial_max", "n_max": 6, "normalise": True},
         "normalise"),
        ({"family": "double_exp", "n_max": 4, "gamma": 2.5}, "gamma"),
        ({"family": "explicit", "edges": [[1, 2, 1.0]], "weights": [1.0]},
         "weights"),
        ({"family": "first_rank", "sigma": [1.0, 1.0], "edges": []},
         "edges"),
    ])
    def test_unread_key_rejected(self, cfg, key):
        with pytest.raises(ValueError, match=f"reads no key '{key}'"):
            measure_from_dict(cfg)

    @pytest.mark.parametrize("cfg, built", [
        ({"family": "first_rank", "sigma": [1, 2, 3], "n_max": 10}, 3),
        ({"family": "isolated_edges", "weights": [1, 2], "n_max": 9}, 4),
        ({"family": "explicit", "edges": [[1, 2, 1], [2, 5, 1]], "n_max": 3},
         5),
    ])
    def test_n_max_other_than_the_window_built_rejected(self, cfg, built):
        with pytest.raises(ValueError, match=f"n_max is {cfg['n_max']}, "
                           f"but .* has the window 1..{built}$"):
            measure_from_dict(cfg)
        del cfg["n_max"]
        assert measure_from_dict(cfg).n_max == built

    @pytest.mark.parametrize("normalize", [False, True])
    def test_to_dict_round_trip_keeps_the_config_hash(self, normalize):
        specs = [power_law_product(2.5, 20, normalize),
                 first_rank([1.0, 0.5, 0.25], normalize),
                 factorial_max(5, normalize), double_exp(4, normalize),
                 isolated_edges([0.5, 1.5], normalize),
                 explicit([((1, 2), 0.5), ((3, 4), 0.5)], normalize, n_max=6)]
        for spec in specs:
            back = measure_from_dict(spec.to_dict())
            assert back.config_hash() == spec.config_hash(), spec.family
            assert back.n_max == spec.n_max

    def test_config_hash_stable_and_distinct(self):
        a = power_law_product(2.5, 20)
        b = power_law_product(2.5, 20)
        c = power_law_product(2.6, 20)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


def traced_peak(call):
    """call() and the tracemalloc peak of the allocations it made."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedScratch:
    """On a measure of over 2^20 edges the support check, the sampler and
    the alias sweep hold no O(E) array beyond what they return."""

    @pytest.fixture(scope="class")
    def big(self):
        spec = power_law_product(2.5, 1500)  # 1,124,250 edges
        assert spec.n_edges >= 1 << 20
        spec.marginals
        spec.sample_edge_indices(1, replica_rng(0, 0))  # builds the table
        return spec

    def test_support_connected_scratch_is_n_max_and_chunks(self, big):
        # the whole-edge CSR build peaked at 411 chunk items beyond the ids
        got, peak = traced_peak(big.support_connected)
        assert got == "connected-on-truncation"
        assert peak <= 64 * (big.n_max + 1) + 96 * measure._CHUNK

    def test_sampler_scratch_is_its_draws_and_chunks(self, big):
        # k and u take 8 bytes a draw each; np.where took 144 chunk items
        # more
        n = 1 << 20
        kk, peak = traced_peak(
            lambda: big.sample_edge_indices(n, replica_rng(37, 0)))
        assert len(kk) == n
        assert peak <= 16 * n + 48 * measure._CHUNK

    def test_alias_sweep_with_few_heavy_items_holds_j_and_chunks(self):
        # 1,749 heavy items; the whole light list and deficit sums took
        # 432 chunk items beyond J
        K = 1 << 20
        w = np.exp(np.random.default_rng(34).normal(0, 8, K))
        probs = w / w.sum()
        del w
        (J, q), peak = traced_peak(lambda: measure._build_alias(probs))
        assert peak <= 8 * K + 128 * measure._CHUNK
        assert q is probs and len(J) == K

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_support_chunks_give_the_same_verdicts(self, monkeypatch, chunk):
        rng = np.random.default_rng(36)
        specs = [random_explicit_spec(rng, max_vertex=12,
                                      n_edges=int(rng.integers(1, 20)))
                 for _ in range(60)]
        want = [spec.support_connected() for spec in specs]
        assert set(want) == {"connected-on-truncation", "disconnected"}
        monkeypatch.setattr(measure, "_CHUNK", chunk)
        assert [spec.support_connected() for spec in specs] == want

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_sampler_chunks_give_the_same_draws(self, monkeypatch, chunk):
        spec = power_law_product(1.5, 30)
        want = spec.sample_edge_indices(500, replica_rng(38, 0))
        monkeypatch.setattr(measure, "_CHUNK", chunk)
        got = spec.sample_edge_indices(500, replica_rng(38, 0))
        assert got.dtype == want.dtype and np.array_equal(got, want)
