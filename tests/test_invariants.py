"""Invariants of the measure and analytic layers over all six families."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeproc import analytic
from edgeproc.measure import (
    double_exp,
    explicit,
    factorial_max,
    first_rank,
    isolated_edges,
    power_law_product,
)

masses = st.floats(min_value=1e-3, max_value=1e3)
pairs = st.tuples(st.integers(1, 8), st.integers(1, 8)).map(
    lambda p: (p[0], p[0] + p[1]))
explicit_items = st.lists(st.tuples(pairs, masses), min_size=1, max_size=15,
                          unique_by=lambda item: item[0])

specs = st.one_of(
    st.builds(power_law_product, st.floats(1.1, 6.0), st.integers(2, 14),
              st.booleans()),
    st.builds(first_rank, st.lists(masses, min_size=2, max_size=10),
              st.booleans()),
    st.builds(factorial_max, st.integers(2, 10), st.booleans()),
    st.builds(double_exp, st.integers(2, 5), st.booleans()),
    st.builds(isolated_edges, st.lists(masses, min_size=1, max_size=6),
              st.booleans()),
    st.builds(explicit, explicit_items, st.booleans()),
)

examples = settings(max_examples=100, deadline=None)


@examples
@given(specs)
def test_marginals_count_every_edge_twice(spec):
    assert spec.marginals.total == pytest.approx(2 * spec.total_mass,
                                                 rel=1e-12)


@examples
@given(specs)
def test_i_event_probability_in_unit_interval(spec):
    for e in spec.edges:
        assert 0.0 < analytic.prob_Ie(spec, e) <= 1.0


@examples
@given(specs, st.floats(0.0, 50.0))
def test_variance_sandwich_is_ordered(spec, t):
    lower, exact, upper = analytic.variance_sandwich(spec, t)
    assert lower <= exact <= upper


@examples
@given(specs, st.data())
def test_joint_ratio_in_half_open_interval(spec, data):
    disjoint = [(e, f) for e, f in itertools.combinations(spec.edges, 2)
                if not set(e) & set(f)]
    if disjoint:
        e, f = data.draw(st.sampled_from(disjoint))
        assert 0.5 < analytic.joint_ratio(spec, e, f) <= 1.0


@examples
@given(specs)
def test_lookup_matches_a_dict_of_the_support(spec):
    ref = dict(zip(zip(spec.ei.tolist(), spec.ej.tolist()), spec.w.tolist()))
    # every ordered pair of ids up to n_max + 2: support pairs both ways,
    # pairs off the support inside the window, and pairs past it
    for i, j in itertools.permutations(range(1, spec.n_max + 3), 2):
        e = (min(i, j), max(i, j))
        assert spec.mass((i, j)) == ref.get(e, 0.0)
        k = spec.edge_index((i, j))
        if e in ref:
            assert (spec.ei[k], spec.ej[k]) == e
        else:
            assert k is None


@examples
@given(explicit_items, st.integers(-60, 60))
def test_power_of_two_scaling_changes_no_bit(items, k):
    # 2^k scales every mass, sum and marginal exactly, and each probability
    # is a ratio of them
    spec = explicit(items)
    scaled = explicit([(e, m * 2.0**k) for e, m in items])
    for e in spec.edges:
        assert analytic.prob_Ie(scaled, e) == analytic.prob_Ie(spec, e)
    for e, f in itertools.combinations(spec.edges, 2):
        if set(e) & set(f):
            continue
        assert (analytic.prob_Ie_and_If(scaled, e, f)
                == analytic.prob_Ie_and_If(spec, e, f))
        assert (analytic.joint_ratio(scaled, e, f)
                == analytic.joint_ratio(spec, e, f))
