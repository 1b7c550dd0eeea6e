"""Closed-form probabilities, series verdicts, moments and inequalities."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeproc import measure
from edgeproc.analytic import (
    check_exp_bound,
    check_ratio_of_sums,
    connectedness_series,
    expected_vertices,
    joint_ratio,
    prob_both_vertices,
    prob_Ie,
    prob_Ie_and_If,
    urn_variance,
    variance_sandwich,
)
from edgeproc.measure import (
    double_exp,
    explicit,
    factorial_max,
    power_law_product,
)
from edgeproc.process import replica_rng

from conftest import (
    JointProbTerms,
    path_spec,
    random_explicit_spec,
    triangle_spec,
)


def joint_ratio_closed_form(spec, e, f):
    """Simplified expression (a_e + a_f + b) / (a_e + a_f + 2b)."""
    t = JointProbTerms.from_spec(spec, e, f)
    return (t.a_e + t.a_f + t.b_ef) / (t.a_e + t.a_f + 2.0 * t.b_ef)


class TestProbIe:
    def test_single_edge(self, single_edge):
        assert prob_Ie(single_edge, (1, 2)) == 1.0

    def test_triangle_symmetry(self, triangle):
        for e in triangle.edges:
            assert prob_Ie(triangle, e) == pytest.approx(1 / 3, rel=1e-14)

    def test_disjoint_pair_no_interference(self, two_edges):
        assert prob_Ie(two_edges, (1, 2)) == 1.0

    def test_undefined_when_neighborhood_mass_zero(self, triangle):
        with pytest.raises(ValueError):
            prob_Ie(triangle, (5, 6))


class TestProbJoint:
    def test_sharing_pair_is_zero(self, path):
        assert prob_Ie_and_If(path, (1, 2), (2, 3)) == 0.0
        assert prob_Ie_and_If(path, (2, 3), (3, 4)) == 0.0

    def test_path_closed_form(self, path):
        # the joint event is tau_{23} largest of three i.i.d. exponentials
        assert prob_Ie_and_If(path, (1, 2), (3, 4)) \
            == pytest.approx(1 / 3, rel=1e-14)

    def test_same_edge_reduces_to_marginal(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            spec = random_explicit_spec(rng)
            for e in spec.edges:
                assert prob_Ie_and_If(spec, e, e) == prob_Ie(spec, e)

    def test_zero_mass_edge_gives_zero(self, two_edges):
        assert prob_Ie_and_If(two_edges, (1, 2), (5, 6)) == 0.0

    def test_independence_when_no_bridge(self, two_edges):
        got = prob_Ie_and_If(two_edges, (1, 2), (3, 4))
        want = prob_Ie(two_edges, (1, 2)) * prob_Ie(two_edges, (3, 4))
        assert abs(got - want) < 1e-12

    def test_dominant_bridge_does_not_cancel(self):
        # b_ef ~ e^-30 dwarfs mu_f = e^-108: the alternating-sign form gave
        # -3.1e-19 here
        spec = double_exp(5)
        e, f = (1, 2), (3, 4)
        joint = prob_Ie_and_If(spec, e, f)
        assert joint > 0
        assert joint == pytest.approx(
            prob_Ie(spec, e) * prob_Ie(spec, f)
            / joint_ratio_closed_form(spec, e, f), rel=1e-12)
        assert 0.5 < joint_ratio(spec, e, f) <= 1.0

    def test_unnormalized_masses_do_not_overflow(self, path):
        big = explicit([((1, 2), 1e300), ((2, 3), 1e300), ((3, 4), 1e300)])
        assert prob_Ie_and_If(big, (1, 2), (3, 4)) \
            == prob_Ie_and_If(path, (1, 2), (3, 4))

    def test_independence_limit_random_specs(self):
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(200):
            spec = random_explicit_spec(rng, max_vertex=12)
            for e in spec.edges:
                for f in spec.edges:
                    if set(e) & set(f):
                        continue
                    t = JointProbTerms.from_spec(spec, e, f)
                    if t.b_ef != 0.0:
                        continue
                    found += 1
                    got = prob_Ie_and_If(spec, e, f)
                    want = prob_Ie(spec, e) * prob_Ie(spec, f)
                    assert abs(got - want) < 1e-12
        assert found > 10

    def test_against_direct_tau_simulation(self):
        # independent oracle: the joint event happens iff each target edge's
        # arrival beats every arrival touching it
        rng = np.random.default_rng(32)
        n = 40_000
        for trial in range(8):
            spec = random_explicit_spec(rng, max_vertex=8)
            pairs = [(e, f) for e in spec.edges for f in spec.edges
                     if e < f and not set(e) & set(f)]
            if not pairs:
                continue
            e, f = pairs[0]
            tau = replica_rng(33, trial).exponential(
                1.0 / spec.w, size=(n, len(spec.w)))
            te = np.array([bool(set(e) & set(g)) for g in spec.edges])
            tf = np.array([bool(set(f) & set(g)) for g in spec.edges])
            ke, kf = spec.edges.index(e), spec.edges.index(f)
            win_e = tau[:, ke] == tau[:, te].min(axis=1)
            win_f = tau[:, kf] == tau[:, tf].min(axis=1)
            freq = np.mean(win_e & win_f)
            target = prob_Ie_and_If(spec, e, f)
            se = np.sqrt(max(target * (1 - target), 1e-12) / n)
            assert abs(freq - target) < 4 * se


class TestJointLawFromMarginals:
    """prob_Ie_and_If reads the joint law off mu_e, mu_f, the endpoint
    marginals and the four cross pairs; the oracle reads it off masks."""

    def test_matches_the_mask_oracle(self):
        rng = np.random.default_rng(1004)
        specs = [random_explicit_spec(rng, max_vertex=8) for _ in range(1000)]
        # double_exp(6)'s subnormal edges {1, 6} and {2, 6} put 12 joint
        # probabilities below the normal range, where they keep few bits
        specs += [double_exp(5), double_exp(6), factorial_max(8),
                  power_law_product(2.5, 30)]
        subnormal = 0
        for spec in specs:
            for e, f in itertools.combinations(spec.edges, 2):
                if set(e) & set(f):
                    continue
                want = JointProbTerms.from_spec(spec, e, f).prob_joint
                got = prob_Ie_and_If(spec, e, f)
                if want < np.finfo(float).tiny:
                    subnormal += 1
                    assert got == pytest.approx(want, rel=0, abs=1e-320)
                else:
                    assert abs(got - want) <= 2e-15 * want
        assert subnormal == 12

    def test_wide_window_allocates_no_edge_length_array(self):
        spec = power_law_product(2.5, 2000)  # 1,999,000 edges
        spec.marginals  # built and cached before tracing
        tracemalloc.start()
        try:
            got = prob_Ie_and_If(spec, (1, 2), (3, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one boolean mask of the support alone takes 2 MB
        assert peak < 64 << 10
        want = JointProbTerms.from_spec(spec, (1, 2), (3, 4)).prob_joint
        assert got == pytest.approx(want, rel=2e-15)


class TestJointTerms:
    def test_path_decomposition(self, path):
        t = JointProbTerms.from_spec(path, (1, 2), (3, 4))
        assert t.b_ef == pytest.approx(1 / 3)
        assert t.r_e == 0.0 and t.r_f == 0.0
        assert t.a_e == pytest.approx(1 / 3)
        assert t.mu_e / t.a_e == pytest.approx(1.0)

    def test_neighborhood_mass_identity(self):
        # M_e = a_e + b_ef for every disjoint pair
        rng = np.random.default_rng(34)
        for _ in range(50):
            spec = random_explicit_spec(rng)
            for e in spec.edges:
                for f in spec.edges:
                    if e >= f or set(e) & set(f):
                        continue
                    t = JointProbTerms.from_spec(spec, e, f)
                    assert abs(spec.edge_mass(e) - (t.a_e + t.b_ef)) < 1e-12
                    assert abs(spec.edge_mass(f) - (t.a_f + t.b_ef)) < 1e-12

    def test_rejects_sharing_pair(self, path):
        with pytest.raises(ValueError):
            JointProbTerms.from_spec(path, (1, 2), (2, 3))


class TestJointRatio:
    def test_no_bridge_gives_one(self, two_edges):
        assert joint_ratio(two_edges, (1, 2), (3, 4)) == 1.0

    def test_path_three_quarters(self, path):
        assert joint_ratio(path, (1, 2), (3, 4)) == pytest.approx(0.75)
        assert joint_ratio_closed_form(path, (1, 2), (3, 4)) \
            == pytest.approx(0.75)

    def test_closed_form_agrees(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            spec = random_explicit_spec(rng)
            for e in spec.edges:
                for f in spec.edges:
                    if e >= f or set(e) & set(f):
                        continue
                    assert joint_ratio(spec, e, f) == pytest.approx(
                        joint_ratio_closed_form(spec, e, f), rel=1e-10)

    def test_sharing_pair_refused(self, path):
        with pytest.raises(ValueError, match="disjoint edges"):
            joint_ratio(path, (1, 2), (2, 3))

    def test_zero_mass_edge_refused(self, two_edges):
        with pytest.raises(ValueError, match="joint probability is zero"):
            joint_ratio(two_edges, (1, 2), (5, 6))

    def test_subnormal_masses_keep_the_half_bound(self):
        # {1, 6} and {2, 6} hold subnormal masses: the joint probability of
        # each of their 12 disjoint pairs reads 0 or 2e-323, yet the ratio
        # is a ratio of sums of normal masses
        spec = double_exp(6)
        pairs = [(e, f) for e, f in itertools.combinations(spec.edges, 2)
                 if not set(e) & set(f)
                 and min(spec.mass(e), spec.mass(f)) < np.finfo(float).tiny]
        assert len(pairs) == 12
        for e, f in pairs:
            assert prob_Ie_and_If(spec, e, f) < 1e-322
            assert 0.5 < joint_ratio(spec, e, f) <= 1.0

    def test_half_bound_random_specs(self):
        rng = np.random.default_rng(36)
        for _ in range(300):
            spec = random_explicit_spec(rng)
            for e in spec.edges:
                for f in spec.edges:
                    if e >= f or set(e) & set(f):
                        continue
                    r = joint_ratio(spec, e, f)
                    assert 0.5 < r <= 1.0


class TestConnectednessSeries:
    def test_single_edge(self, single_edge):
        rep = connectedness_series(single_edge)
        assert rep.partial_sum == pytest.approx(1.0)
        assert rep.verdict == "converges-analytic"

    def test_power_law_verdicts(self):
        assert connectedness_series(power_law_product(2.5, 30)).verdict \
            == "converges-analytic"
        assert connectedness_series(power_law_product(1.5, 30)).verdict \
            == "diverges-analytic"

    def test_divergent_partial_sums_grow_with_window(self):
        s50 = connectedness_series(power_law_product(1.5, 50)).partial_sum
        s100 = connectedness_series(power_law_product(1.5, 100)).partial_sum
        s200 = connectedness_series(power_law_product(1.5, 200)).partial_sum
        assert s50 < s100 < s200
        assert s200 - s50 > 1.0  # no sign of levelling off

    def test_partial_sum_monotone_in_window(self):
        spec = power_law_product(2.5, 100)
        sums = [connectedness_series(spec, window=w).partial_sum
                for w in (20, 40, 80, 100)]
        assert all(a <= b for a, b in zip(sums, sums[1:]))

    def test_unknown_family_is_inconclusive(self):
        from edgeproc.measure import factorial_max
        rep = connectedness_series(factorial_max(6))
        assert rep.verdict == "inconclusive"

    def test_truncation_residue_reported(self):
        rep = connectedness_series(power_law_product(2.5, 30))
        assert rep.truncation_residue > 0

    def test_window_defaults_to_n_max(self):
        spec = power_law_product(2.5, 30)
        assert connectedness_series(spec).window == 30
        assert connectedness_series(spec, window=30) \
            == connectedness_series(spec)

    @pytest.mark.parametrize("window", [0, -3, 31, 10**6])
    def test_window_outside_the_measure_rejected(self, window):
        spec = power_law_product(2.5, 30)
        with pytest.raises(ValueError, match=r"1\.\.30"):
            connectedness_series(spec, window=window)

    def test_windowed_residue_is_the_mass_past_the_window(self):
        # the mass past {1..3}, stored or not, does not depend on n_max
        res = [connectedness_series(power_law_product(2.5, n), window=3)
               .truncation_residue for n in (25, 30, 200)]
        assert res[0] == pytest.approx(0.1290632, abs=1e-7)
        assert res[0] == pytest.approx(res[2], rel=2e-15)
        assert res[1] == pytest.approx(res[2], rel=2e-15)

    def test_full_window_residue_is_the_off_window_mass(self):
        spec = power_law_product(2.5, 30)
        assert (connectedness_series(spec, window=30).truncation_residue
                == spec.off_window_mass)


class TestMoments:
    def test_expected_vertices_zero_at_zero(self, triangle):
        assert expected_vertices(triangle, 0.0) == 0.0

    def test_expected_vertices_single_edge(self, single_edge):
        for t in (0.3, 1.0, 2.5):
            assert expected_vertices(single_edge, t) \
                == pytest.approx(2 * (1 - np.exp(-t)), rel=1e-12)

    def test_expected_vertices_saturates(self):
        rng = np.random.default_rng(37)
        spec = random_explicit_spec(rng)
        active = int(np.sum(spec.marginals.M > 0))
        assert expected_vertices(spec, 1e6) == pytest.approx(active, rel=1e-9)

    def test_urn_variance_zero_at_zero(self, triangle):
        assert urn_variance(triangle, 0.0) == 0.0

    def test_urn_variance_single_edge(self, single_edge):
        t = 0.7
        assert urn_variance(single_edge, t) \
            == pytest.approx(2 * np.exp(-t) * (1 - np.exp(-t)), rel=1e-12)

    def test_urn_variance_peak_at_ln2(self, single_edge):
        # each unit-rate vertex peaks at Bernoulli variance 1/4
        assert urn_variance(single_edge, np.log(2)) == pytest.approx(0.5)
        grid = np.linspace(0.01, 5, 500)
        vals = [urn_variance(single_edge, t) for t in grid]
        assert max(vals) <= 0.5 + 1e-12


class TestPairCovariance:
    """The presence covariance of an edge's endpoints,
    exp(-M_e t)(1 - exp(-mu_e t)), as variance_sandwich and
    check_exp_bound compute it."""

    def test_single_edge_form(self, single_edge):
        # exact - lower counts the one pair twice (ordered pairs)
        t = 1.3
        lo, ex, _ = variance_sandwich(single_edge, t)
        assert ex - lo == pytest.approx(2 * np.exp(-t) * (1 - np.exp(-t)),
                                        rel=1e-12)

    def test_nonnegative_and_below_mass_ratio(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            spec = random_explicit_spec(rng)
            for e in spec.edges:
                peak, ok = check_exp_bound(spec.edge_mass(e), spec.mass(e),
                                           [0.1, 1.0, 10.0])
                assert peak >= 0.0 and ok
                assert peak < spec.mass(e) / spec.edge_mass(e) + 1e-15

    def test_prob_both_vertices_single_edge(self, single_edge):
        t = 0.9
        # both present iff the edge arrived
        assert prob_both_vertices(single_edge, 1, 2, t) \
            == pytest.approx(1 - np.exp(-t), rel=1e-12)


@pytest.mark.parametrize("t", [-1.0, np.nan])
@pytest.mark.parametrize("moment, pair", [
    (expected_vertices, ()), (urn_variance, ()),
    (prob_both_vertices, (1, 2))],
    ids=["expected_vertices", "urn_variance", "prob_both_vertices"])
def test_moments_refuse_unusable_times(triangle, moment, pair, t):
    # at t = -1 the pair probability read -0.177
    with pytest.raises(ValueError, match="t must be non-negative"):
        moment(triangle, *pair, t)


class TestVarianceSandwich:
    def test_single_edge_exact_is_bernoulli(self, single_edge):
        t = 0.8
        lo, ex, up = variance_sandwich(single_edge, t)
        p = 1 - np.exp(-t)
        assert ex == pytest.approx(4 * p * (1 - p), rel=1e-12)
        assert lo <= ex <= up

    def test_t_zero(self, triangle):
        lo, ex, up = variance_sandwich(triangle, 0.0)
        assert lo == 0.0 and ex == 0.0
        assert up == pytest.approx(
            connectedness_series(triangle).partial_sum)

    def test_ordering_power_law(self):
        spec = power_law_product(2.5, 200)
        lo, ex, up = variance_sandwich(spec, 10.0)
        assert lo <= ex <= up

    def test_ordering_random_specs(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            spec = random_explicit_spec(rng)
            for t in (0.2, 1.0, 5.0):
                lo, ex, up = variance_sandwich(spec, t)
                assert lo - 1e-12 <= ex <= up + 1e-12


class TestAuxiliaryInequalities:
    def test_equal_rates_value(self):
        peak, ok = check_exp_bound(1.0, 1.0, [np.log(2)])
        assert peak == pytest.approx(0.25)
        assert ok

    def test_asymmetric_max_from_stationary_point(self):
        # maximizer x* = (1/b) ln((a+b)/a) gives (2/3)^2 * (1/3) = 4/27
        x_star = np.log(3 / 2)
        grid = np.linspace(0, 10, 20001)
        peak, ok = check_exp_bound(2.0, 1.0, np.append(grid, x_star))
        assert peak == pytest.approx(4 / 27, rel=1e-9)
        assert ok and peak <= 0.5

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_exp_bound_refuses_non_positive_rates(self, a, b):
        with pytest.raises(ValueError, match="must be positive"):
            check_exp_bound(a, b, [1.0])

    @pytest.mark.parametrize("a, b, grid, match", [
        (1.0, 1.0, [], "at least one point"),
        (1.0, 1.0, [np.nan], "no NaN"),
        (1.0, 1.0, [0.5, np.nan, 2.0], "no NaN"),
        (np.nan, 1.0, [1.0], "must be positive"),
        (1.0, np.nan, [1.0], "must be positive")])
    def test_exp_bound_refuses_an_empty_or_nan_input(self, a, b, grid, match):
        # an empty grid has no maximum, and a NaN point no value to bound
        with pytest.raises(ValueError, match=match):
            check_exp_bound(a, b, grid)

    @given(st.floats(0.05, 20), st.floats(0.05, 20))
    @settings(max_examples=200, deadline=None)
    def test_exp_bound_property(self, a, b):
        peak, ok = check_exp_bound(a, b, np.linspace(0, 50, 2000))
        assert ok

    def test_ratio_of_sums_example(self):
        lo, ratio, hi, ok = check_ratio_of_sums([1, 2], [1, 1])
        assert (lo, ratio, hi) == (1.0, 1.5, 2.0)
        assert ok

    def test_ratio_of_sums_zero_denominator(self):
        lo, ratio, hi, ok = check_ratio_of_sums([1, 1], [1, 0])
        assert hi == np.inf and ok

    def test_ratio_of_sums_refuses_a_negative_entry(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_ratio_of_sums([1.0, -1.0], [1.0, 1.0])

    @pytest.mark.parametrize("a, b", [
        ([np.nan], [1.0]), ([1.0], [np.nan]), ([np.inf], [np.inf]),
        ([1.0, 2.0], [np.inf, 1.0])])
    def test_ratio_of_sums_refuses_a_non_finite_entry(self, a, b):
        # a NaN or infinite entry has no ratio to bound
        with pytest.raises(ValueError, match="finite and non-negative"):
            check_ratio_of_sums(a, b)

    def test_ratio_of_sums_refuses_two_zero_collections(self):
        with pytest.raises(ValueError, match="both be identically zero"):
            check_ratio_of_sums([0.0, 0.0], [0.0, 0.0])

    def test_ratio_of_sums_overflow_is_silent_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, ratio, hi, ok = check_ratio_of_sums([10.0], [5e-324])
        assert lo == ratio == hi == np.inf and ok

    def test_ratio_of_sums_of_overflowing_sums(self):
        # sums past the largest float are taken scaled by each collection's
        # largest entry, so a ratio in range comes out finite
        assert check_ratio_of_sums([1e308, 1e308], [1.0, 1.0]) == (
            1e308, 1e308, 1e308, True)
        lo, ratio, hi, ok = check_ratio_of_sums([1e308, 1e308, 1.0],
                                                [1e308, 1e308, 4.0])
        assert (lo, hi, ok) == (0.25, 1.0, True)
        assert ratio == pytest.approx(1.0)
        assert check_ratio_of_sums([1e308, 1e308], [1e-300, 1e-300]) == (
            np.inf, np.inf, np.inf, True)

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=8),
           st.lists(st.floats(0, 10), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_ratio_of_sums_property(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if sum(a) == 0 and sum(b) == 0:
            return
        lo, ratio, hi, ok = check_ratio_of_sums(a, b)
        assert ok


class TestEdgePassScratch:
    """The O(E) passes hold one edge-length array and a chunk's scratch,
    and their chunking changes no bit."""

    @pytest.fixture(scope="class")
    def big(self):
        spec = power_law_product(2.5, 1500)  # 1,124,250 edges
        assert spec.n_edges >= 1 << 20
        spec.marginals  # built and cached before tracing
        return spec

    @pytest.mark.parametrize("call", [
        lambda spec: connectedness_series(spec),
        lambda spec: variance_sandwich(spec, 1e6)],
        ids=["connectedness_series", "variance_sandwich"])
    def test_one_edge_length_buffer(self, big, call):
        # M_e, a gather temporary and the ratios took 137 chunk items more
        tracemalloc.start()
        try:
            call(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * big.n_edges + 48 * measure._CHUNK

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunks_change_no_bit(self, monkeypatch, chunk):
        specs = [power_law_product(1.5, 40), factorial_max(9),
                 explicit([((1, 2), 1e-300), ((2, 3), 3.0), ((1, 3), 0.5),
                           ((4, 9), 7.0)])]
        want = [(connectedness_series(s).partial_sum,
                 connectedness_series(s, s.n_max - 1).partial_sum,
                 variance_sandwich(s, 2.5)) for s in specs]
        monkeypatch.setattr(measure, "_CHUNK", chunk)
        got = [(connectedness_series(s).partial_sum,
                connectedness_series(s, s.n_max - 1).partial_sum,
                variance_sandwich(s, 2.5)) for s in specs]
        assert [float.hex(v) for g in got for v in (*g[:2], *g[2])] \
            == [float.hex(v) for w in want for v in (*w[:2], *w[2])]
