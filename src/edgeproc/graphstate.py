"""Simple-graph snapshots of a trajectory: counts, components, I-events.

``replay`` reads a whole trajectory's columns with the kernels of
``process``; ``snapshots_to_csv`` writes its rows.
"""

from __future__ import annotations

import numpy as np

from .process import component_merges, write_table

__all__ = ["replay", "snapshots_to_csv"]


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
    write_table(path, header_lines,
                ["index", "time", "vertices", "edges", "components",
                 "i_events"],
                ((k, repr(t), *snap) for k, (t, snap) in enumerate(
                    zip(trajectory.time.tolist(), replay(trajectory)),
                    start=1)))
