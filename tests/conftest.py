"""Shared fixtures and helpers for the test suite."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from scipy.cluster.hierarchy import DisjointSet

from edgeproc.measure import edge, explicit
from edgeproc.process import (
    ArrivalEvent,
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


def subnormal_block_edges():
    """[i, j, mass] entries of a measure on 16 vertices: every pair inside
    1..14, {i, 15} for i <= 13 and {1, 16} at mass 1, {14, 15} at 5e-324.
    Block 15 holds 14 rates, so the default method is the quadrature."""
    return ([[i, j, 1.0] for i, j in combinations(range(1, 15), 2)]
            + [[i, 15, 1.0] for i in range(1, 14)]
            + [[14, 15, 5e-324], [1, 16, 1.0]])


def block_arrivals(tau, t_max):
    """Rows, columns and times of the entries <= t_max of a dense (B, E)
    block, in row-major order: what ``montecarlo._draw_block`` returns for
    the block it draws."""
    arrived = tau <= t_max
    rows, ks = np.nonzero(arrived)
    return rows, ks, tau[arrived]


def sorted_stream_arrivals(times):
    """The first n of each row's arrival times, given as (size, E, n)
    cumulative times of E streams, by a stable sort of the row's E·n times
    (NaN last): (size, n) times and stream indices.  The oracle of
    ``process._merge_streams``, which takes them by a merge."""
    size, E, n = times.shape
    flat = times.reshape(size, -1)
    first = np.argsort(flat, axis=1, kind="stable")[:, :n]
    return np.take_along_axis(flat, first, axis=1), first // n


def event_list(traj):
    """A trajectory's arrivals as a list of ``ArrivalEvent`` records, built
    whole: the oracle of ``Trajectory.events``, which builds them as they
    are read."""
    nv = traj.new_vertices.tolist()
    return list(map(ArrivalEvent._make, zip(
        range(1, len(nv) + 1), traj.time.tolist(),
        zip(traj.i.tolist(), traj.j.tolist()), nv, [v == 2 for v in nv])))


def random_trajectories(seed, count):
    """Discrete, continuous and de-Poissonized trajectories on random small
    measures."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        spec = random_explicit_spec(rng, max_vertex=10,
                                    n_edges=int(rng.integers(1, 20)))
        r = replica_rng(seed, k)
        yield run_discrete(spec, int(rng.integers(1, 60)), r)
        yield run_continuous(spec, float(rng.uniform(0.1, 6.0)), r)
        yield depoissonize(spec, int(rng.integers(1, 12)), r)


# -- the independent oracle: one arrival at a time -----------------------


class GraphState:
    """Simple graph built from an arrival stream, one arrival at a time.

    The state is monotone (vertices and edges only accumulate), so scipy's
    incremental ``DisjointSet`` tracks components exactly.  The package
    reads whole trajectories with the kernels of ``process``; this is the
    independent oracle the tests compare them with.
    """

    def __init__(self):
        self.vertices = set()
        self.simple_edges = set()
        self.dsu = DisjointSet()
        self.components = 0
        self.i_event_count = 0

    def apply_event(self, e):
        """Apply one arrival; returns (new_vertices, new_component)."""
        i, j = edge(*e)
        new = (i not in self.vertices) + (j not in self.vertices)
        self.vertices.add(i)
        self.vertices.add(j)
        self.simple_edges.add((i, j))
        self.dsu.add(i)
        self.dsu.add(j)
        self.dsu.merge(i, j)
        self.components = self.dsu.n_subsets
        new_component = new == 2
        if new_component:
            self.i_event_count += 1
        return new, new_component

    @property
    def is_empty(self):
        return not self.vertices

    def is_connected(self):
        """True iff exactly one component; the empty graph reports False."""
        return self.components == 1

    def essential_completeness(self):
        """(flag, subcase): complete prefix {1..n} plus at most one extra vertex.

        Subcase "extra-vertex" is the strict definition (V = {1..n+1} with
        {1..n} complete); "exact-prefix" is the degenerate moment where
        V = {1..n} itself is complete and vertex n+1 has not yet arrived.
        """
        m = len(self.vertices)
        if m < 2 or not self.is_connected():
            return False, None
        if self.vertices != set(range(1, m + 1)):
            return False, None
        if self._prefix_complete(m):
            return True, "exact-prefix"
        if self._prefix_complete(m - 1):
            return True, "extra-vertex"
        return False, None

    def _prefix_complete(self, n):
        return n >= 1 and all(e in self.simple_edges
                              for e in combinations(range(1, n + 1), 2))

    def is_essentially_complete(self):
        return self.essential_completeness()[0]

    def snapshot(self):
        return (len(self.vertices), len(self.simple_edges), self.components,
                self.i_event_count)


# -- the independent oracle of the joint I-event law ----------------------


@dataclass(frozen=True)
class JointProbTerms:
    """Mass decomposition around a disjoint edge pair e, f, read off
    edge-length masks of the support.

    b_ef sums edges touching both e and f; r_e / r_f sum edges touching only
    e / only f.  {e}, {f} and the three classes partition everything that
    interferes with the two target edges.  ``analytic.prob_Ie_and_If`` reads
    the same law off the marginals and four pair lookups.
    """

    mu_e: float
    mu_f: float
    b_ef: float
    r_e: float
    r_f: float

    @property
    def a_e(self):
        return self.r_e + self.mu_e

    @property
    def a_f(self):
        return self.r_f + self.mu_f

    @property
    def prob_joint(self):
        """P(I_e and I_f) in positive terms; 0.0 when mu_e or mu_f is."""
        if self.mu_e == 0.0 or self.mu_f == 0.0:
            return 0.0
        a, c, b = self.a_e, self.a_f, self.b_ef
        return ((self.mu_e / (a + b)) * (self.mu_f / (c + b))
                * ((a + c + 2.0 * b) / (a + c + b)))

    @classmethod
    def from_spec(cls, spec, e, f):
        e, f = edge(*e), edge(*f)
        if set(e) & set(f):
            raise ValueError("e and f must be vertex-disjoint")
        (te, is_e), (tf, is_f) = _touching(spec, e), _touching(spec, f)
        w = spec.w
        # no edge touches both of two disjoint edges and is one of them
        return cls(mu_e=float(w[is_e].sum()), mu_f=float(w[is_f].sum()),
                   b_ef=float(w[te & tf].sum()),
                   r_e=float(w[te & ~tf & ~is_e].sum()),
                   r_f=float(w[tf & ~te & ~is_f].sum()))


def _touching(spec, e):
    """Masks of the support edges that share a vertex with e, and of e."""
    i0, j1 = spec.ei == e[0], spec.ej == e[1]
    return i0 | j1 | (spec.ei == e[1]) | (spec.ej == e[0]), i0 & j1


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
