"""Evolving simple-graph state: connectivity, counts, new-component events.

The state is monotone (vertices and edges only accumulate), so a union-find
forest with path compression and union by size tracks components exactly;
``replay`` reads whole trajectories with the kernels of ``process`` instead.
"""

from __future__ import annotations

import csv

import numpy as np

from .measure import edge
from .process import component_merges

__all__ = ["UnionFind", "GraphState", "replay", "snapshots_to_csv"]


class UnionFind:
    """Disjoint sets over arbitrary hashable ids; no un-union ever needed."""

    def __init__(self):
        self.parent = {}
        self.size = {}
        self.n_components = 0

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1
            self.n_components += 1

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        """Returns True when two components merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True


class GraphState:
    """Simple graph built from an arrival stream."""

    def __init__(self):
        self.vertices = set()
        self.simple_edges = set()
        self.dsu = UnionFind()
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
        self.dsu.union(i, j)
        self.components = self.dsu.n_components
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
        if n < 1:
            return False
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if (a, b) not in self.simple_edges:
                    return False
        return True

    def is_essentially_complete(self):
        return self.essential_completeness()[0]

    def snapshot(self):
        return (len(self.vertices), len(self.simple_edges), self.components,
                self.i_event_count)


def replay(trajectory):
    """Per-event snapshots (|V|, |E|, components, i_event_count).

    Reads the trajectory's columns: vertex and I-event counts are running
    sums of its new-vertex counts, and components are new vertices less the
    merges made by the first arrival of each simple edge.
    """
    i, j, nv = trajectory.i, trajectory.j, trajectory.new_vertices
    if len(i) == 0:
        return []
    order = np.lexsort((j, i))  # stable: repeats of an edge keep their order
    si, sj = i[order], j[order]
    first = np.empty(len(i), dtype=bool)
    first[order] = np.concatenate(
        ([True], (si[1:] != si[:-1]) | (sj[1:] != sj[:-1])))
    merged = np.zeros(len(i), dtype=bool)
    merged[first] = component_merges(i[first], j[first])
    return list(zip(np.cumsum(nv).tolist(), np.cumsum(first).tolist(),
                    np.cumsum(nv - merged).tolist(),
                    np.cumsum(nv == 2).tolist()))


def snapshots_to_csv(trajectory, path, header_lines=()):
    """Writes ``replay``'s snapshots with each arrival's index and time."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        wr = csv.writer(fh)
        wr.writerow(["index", "time", "vertices", "edges", "components",
                     "i_events"])
        wr.writerows((k, repr(t), *snap) for k, (t, snap) in enumerate(
            zip(trajectory.time.tolist(), replay(trajectory)), start=1))
