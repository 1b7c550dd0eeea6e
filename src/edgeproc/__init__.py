"""Simulation and verification toolkit for edge-driven random graph processes."""

from . import analytic, graphstate, measure, montecarlo, process, urns
from .measure import (
    MeasureSpec,
    double_exp,
    edge,
    explicit,
    factorial_max,
    first_rank,
    isolated_edges,
    load_measure,
    measure_from_dict,
    power_law_product,
)
from .process import Trajectory, depoissonize, replica_rng, run_continuous, run_discrete
from .graphstate import replay

__version__ = "0.1.0"
