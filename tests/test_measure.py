"""Measure construction, marginals, normalization, sampling, support queries."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from edgeproc.measure import (
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
from edgeproc.montecarlo import _vertex_groups
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

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_always_canonical(self, i, j):
        if i == j:
            with pytest.raises(ValueError):
                edge(i, j)
        else:
            a, b = edge(i, j)
            assert a < b and {a, b} == {i, j}


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
        spec.mass((1, 2))
        _vertex_groups(spec)
        marg = spec.marginals
        norm = spec.normalize()
        for key in ("alias", "index", "vgroups"):
            assert norm._cache[key] is spec._cache[key]
        total = spec.total_mass
        assert np.allclose(norm.marginals.M, marg.M / total, rtol=1e-15)
        assert norm.marginals.total == pytest.approx(2.0, rel=1e-12)
        assert np.array_equal(spec.sample_edge_indices(5000, replica_rng(4, 2)),
                              norm.sample_edge_indices(5000, replica_rng(4, 2)))


class TestSampling:
    def test_single_edge_always_drawn(self):
        spec = explicit([((1, 2), 1.0)])
        rng = replica_rng(0, 0)
        for _ in range(20):
            assert spec.sample_edge(rng) == (1, 2)

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
        _vertex_groups(spec)
        norm = spec.normalize()  # 5e-324 / 10 rounds to 0
        assert norm.edges == [(2, 3)]
        assert norm.mass((2, 3)) == 1.0 and norm.mass((1, 2)) == 0.0
        assert np.all(norm.sample_edge_indices(20, replica_rng(0, 1)) == 0)
        assert len(_vertex_groups(norm)[0]) == 2

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="total mass"):
            explicit([((1, 2), 0.0)])


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

    def test_config_hash_stable_and_distinct(self):
        a = power_law_product(2.5, 20)
        b = power_law_product(2.5, 20)
        c = power_law_product(2.6, 20)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
