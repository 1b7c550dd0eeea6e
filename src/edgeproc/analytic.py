"""Closed-form probabilities, convergence series and variance bounds.

Everything here is a pure function of an immutable measure; the Monte Carlo
layer provides the independent empirical cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import edge

__all__ = [
    "JointProbTerms",
    "SeriesReport",
    "prob_Ie",
    "prob_Ie_and_If",
    "joint_ratio",
    "connectedness_series",
    "expected_vertices",
    "urn_variance",
    "vertex_pair_cov",
    "prob_both_vertices",
    "variance_sandwich",
    "check_exp_bound",
    "check_ratio_of_sums",
]


@dataclass(frozen=True)
class JointProbTerms:
    """Mass decomposition around a disjoint edge pair e, f.

    b_ef sums edges touching both e and f; r_e / r_f sum edges touching only
    e / only f.  {e}, {f} and the three classes partition everything that
    interferes with the two target edges.
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


def prob_Ie(spec, e):
    """P(edge e arrives before every edge sharing a vertex with it)."""
    e = edge(*e)
    mu = spec.mass(e)
    Me = spec.edge_mass(e)
    if Me <= 0:
        raise ValueError(f"undefined probability: M_e = 0 for {e}")
    return mu / Me


def prob_Ie_and_If(spec, e, f):
    """Joint new-component probability, by overlap case."""
    e, f = edge(*e), edge(*f)
    shared = len(set(e) & set(f))
    if shared == 2:
        return prob_Ie(spec, e)
    if shared == 1:
        return 0.0
    t = JointProbTerms.from_spec(spec, e, f)
    if t.mu_e * t.mu_f == 0.0:
        return 0.0
    a, c, b = t.a_e, t.a_f, t.b_ef
    # (mu_e/a)(mu_f/c)(1 - b/(a+b) - b/(c+b) + b/(a+c+b)) in positive terms;
    # that sum cancels below zero when b dominates.  Each factor is scale-free,
    # so unnormalized masses neither over- nor underflow
    return ((t.mu_e / (a + b)) * (t.mu_f / (c + b))
            * ((a + c + 2.0 * b) / (a + c + b)))


def joint_ratio(spec, e, f):
    """P(I_e)P(I_f) / P(I_e and I_f) for disjoint e, f; always in (1/2, 1]."""
    e, f = edge(*e), edge(*f)
    if set(e) & set(f):
        raise ValueError("joint_ratio requires disjoint edges")
    joint = prob_Ie_and_If(spec, e, f)
    if joint == 0.0:
        raise ValueError("joint probability is zero; ratio undefined")
    ratio = prob_Ie(spec, e) * prob_Ie(spec, f) / joint
    # mathematically <= 1; clamp the last-ulp rounding of the quotient
    return min(ratio, 1.0)


@dataclass(frozen=True)
class SeriesReport:
    partial_sum: float
    terms_used: int
    window: int
    verdict: str          # converges-analytic | diverges-analytic | inconclusive
    verdict_basis: str
    truncation_residue: float = 0.0


_FINITE_FAMILIES = {"explicit", "isolated_edges", "first_rank"}


def _edge_masses(spec, inside=slice(None)):
    """(mu_e, M_e) over the support edges selected by ``inside``."""
    ei, ej, w = spec.ei[inside], spec.ej[inside], spec.w[inside]
    marg = spec.marginals.M
    return w, marg[ei] + marg[ej] - w


def connectedness_series(spec, window=None):
    """Partial sum of mass(e) / M_e over support edges within the window.

    Convergence verdicts are issued only on analytic grounds: finite-support
    families are trivially convergent and the power-law product family has
    the gamma > 2 threshold.  Partial sums alone prove nothing, so other
    families report "inconclusive".  The truncation residue is the mass of
    the edges left out: those past the window, stored or not.
    """
    window = spec.window(window)
    inside, residue = slice(None), spec.off_window_mass
    if window < spec.n_max:
        inside = spec.ej <= window  # ei < ej
        residue += float(spec.w[~inside].sum())
    w, Me = _edge_masses(spec, inside)
    partial = float(np.sum(w / Me))
    if spec.family == "power_law_product":
        gamma = spec.params["gamma"]
        if gamma > 2:
            verdict, basis = "converges-analytic", f"gamma threshold: {gamma} > 2"
        else:
            verdict, basis = "diverges-analytic", f"gamma threshold: {gamma} <= 2"
    elif spec.family in _FINITE_FAMILIES:
        verdict, basis = "converges-analytic", "finite support"
    else:
        verdict, basis = "inconclusive", "no analytic criterion for this family"
    return SeriesReport(partial_sum=partial, terms_used=len(w),
                        window=window, verdict=verdict, verdict_basis=basis,
                        truncation_residue=residue)


def expected_vertices(spec, t):
    """Sum over window vertices of 1 - exp(-M_i t)."""
    if not t >= 0:  # NaN too
        raise ValueError("t must be non-negative")
    M = spec.marginals.M[1:]
    return float(np.sum(-np.expm1(-M[M > 0] * t)))


def urn_variance(spec, t):
    """Variance of the occupied-urn count with rates M_i:
    sum of exp(-M_i t)(1 - exp(-M_i t))."""
    if not t >= 0:  # NaN too
        raise ValueError("t must be non-negative")
    M = spec.marginals.M[1:]
    M = M[M > 0]
    q = np.exp(-M * t)
    return float(np.sum(q * -np.expm1(-M * t)))


def vertex_pair_cov(spec, i, j, t):
    """Covariance of presence indicators: exp(-M_ij t)(1 - exp(-mu_ij t))."""
    i, j = edge(i, j)
    mu = spec.mass((i, j))
    Mij = spec.edge_mass((i, j))
    return float(np.exp(-Mij * t) * -np.expm1(-mu * t))


def prob_both_vertices(spec, i, j, t):
    """P(both i and j present at t): 1 - e^{-M_i t} - e^{-M_j t} + e^{-M_ij t}."""
    i, j = edge(i, j)
    m = spec.marginals
    Mij = spec.edge_mass((i, j))
    return float(1.0 - np.exp(-m[i] * t) - np.exp(-m[j] * t)
                 + np.exp(-Mij * t))


def variance_sandwich(spec, t):
    """(lower, exact, upper) for the variance of the vertex count at t.

    lower is the urn variance; exact adds the pairwise presence covariances
    (ordered pairs i != j, i.e. each support edge twice); upper adds the
    connectedness partial sum instead.
    """
    lower = urn_variance(spec, t)
    w, Mij = _edge_masses(spec)
    cov = np.exp(-Mij * t) * -np.expm1(-w * t)
    exact = lower + 2.0 * float(np.sum(cov))
    upper = lower + float(np.sum(w / Mij))
    return lower, exact, upper


def check_exp_bound(a, b, x_grid):
    """Max of exp(-a x)(1 - exp(-b x)) on the grid; must not exceed b / a."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    x = np.asarray(x_grid, dtype=float)
    vals = np.exp(-a * x) * -np.expm1(-b * x)
    peak = float(vals.max())
    return peak, peak <= b / a


def check_ratio_of_sums(a_list, b_list):
    """(inf ratio, sum ratio, sup ratio) with the convention r/0 = inf.

    Verifies the ratio-of-sums sandwich for non-negative collections.
    """
    a = np.asarray(a_list, dtype=float)
    b = np.asarray(b_list, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("collections must be non-negative")
    if a.sum() == 0 and b.sum() == 0:
        raise ValueError("collections must not both be identically zero")
    keep = ~((a == 0) & (b == 0))
    a, b = a[keep], b[keep]
    with np.errstate(divide="ignore", over="ignore"):
        ratios = np.where(b > 0, a / np.where(b > 0, b, 1.0), np.inf)
        ratio = a.sum() / b.sum() if b.sum() > 0 else np.inf
    lo, hi = float(ratios.min()), float(ratios.max())
    ok = lo <= ratio <= hi
    return lo, float(ratio), hi, ok
