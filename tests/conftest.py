"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from edgeproc.measure import explicit
from edgeproc.process import (
    depoissonize,
    replica_rng,
    run_continuous,
    run_discrete,
)


def triangle_spec():
    return explicit([((1, 2), 1 / 3), ((1, 3), 1 / 3), ((2, 3), 1 / 3)])


def path_spec():
    """Three edges 1-2, 2-3, 3-4, mass 1/3 each."""
    return explicit([((1, 2), 1 / 3), ((2, 3), 1 / 3), ((3, 4), 1 / 3)])


def single_edge_spec(mass=1.0):
    return explicit([((1, 2), mass)])


def two_edge_spec():
    return explicit([((1, 2), 0.5), ((3, 4), 0.5)])


def random_explicit_spec(rng, max_vertex=8, n_edges=None, min_mass=0.05):
    """Random small measure: distinct edges on {1..max_vertex}, uniform masses."""
    if n_edges is None:
        n_edges = int(rng.integers(2, 11))
    pairs = [(i, j) for i in range(1, max_vertex + 1)
             for j in range(i + 1, max_vertex + 1)]
    picks = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    items = [(pairs[k], float(rng.uniform(min_mass, 1.0))) for k in picks]
    return explicit(items)


def random_trajectories(seed, count):
    """Discrete, continuous, full-stream and de-Poissonized trajectories on
    random small measures."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        spec = random_explicit_spec(rng, max_vertex=10,
                                    n_edges=int(rng.integers(1, 20)))
        r = replica_rng(seed, k)
        yield run_discrete(spec, int(rng.integers(1, 60)), r)
        yield run_continuous(spec, float(rng.uniform(0.1, 6.0)), r)
        yield run_continuous(spec, float(rng.uniform(0.1, 6.0)), r,
                             full_streams=True)
        yield depoissonize(spec, int(rng.integers(1, 12)), r)


@pytest.fixture
def triangle():
    return triangle_spec()


@pytest.fixture
def path():
    return path_spec()


@pytest.fixture
def single_edge():
    return single_edge_spec()


@pytest.fixture
def two_edges():
    return two_edge_spec()
