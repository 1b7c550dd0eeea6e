"""Closed-form probabilities, convergence series and variance bounds.

Everything here is a pure function of an immutable measure; the Monte Carlo
layer provides the independent empirical cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import edge

__all__ = [
    "SeriesReport",
    "prob_Ie",
    "prob_Ie_and_If",
    "joint_ratio",
    "connectedness_series",
    "expected_vertices",
    "urn_variance",
    "prob_both_vertices",
    "variance_sandwich",
    "check_exp_bound",
    "check_ratio_of_sums",
]


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
    mu_e, mu_f = spec.mass(e), spec.mass(f)
    # each on its own: the product of two tiny masses underflows
    if mu_e == 0.0 or mu_f == 0.0:
        return 0.0
    o_e, o_f, b = _other_masses(spec, e, f, mu_e, mu_f)
    s = mu_e + o_e + mu_f + o_f
    # (mu_e/a)(mu_f/c)(1 - b/(a+b) - b/(c+b) + b/(a+c+b)), with a + b =
    # mu_e + o_e and c + b = mu_f + o_f, in positive terms: that sum cancels
    # below zero when b dominates.  Each factor is scale-free, so
    # unnormalized masses neither over- nor underflow
    return (mu_e / (mu_e + o_e)) * (mu_f / (mu_f + o_f)) * (s / (s - b))


def _other_masses(spec, e, f, mu_e, mu_f):
    """For disjoint e, f of masses mu_e, mu_f: the mass at e's endpoints
    other than e, the same for f, and the bridge mass b of the edges that
    touch both e and f (counted in both of the first two)."""
    m = spec.marginals
    o_e = (m[e[0]] - mu_e) + (m[e[1]] - mu_e)
    o_f = (m[f[0]] - mu_f) + (m[f[1]] - mu_f)
    return o_e, o_f, sum(spec.mass((x, y)) for x in e for y in f)


def joint_ratio(spec, e, f):
    """P(I_e)P(I_f) / P(I_e and I_f) for disjoint e, f; always in (1/2, 1].

    With the terms of ``prob_Ie_and_If`` the ratio is (s - b) / s, which is
    scale-free: no probability is formed, so none underflows.
    """
    e, f = edge(*e), edge(*f)
    if set(e) & set(f):
        raise ValueError("joint_ratio requires disjoint edges")
    mu_e, mu_f = spec.mass(e), spec.mass(f)
    if mu_e == 0.0 or mu_f == 0.0:
        raise ValueError("joint probability is zero; ratio undefined")
    o_e, o_f, b = _other_masses(spec, e, f, mu_e, mu_f)
    s = mu_e + o_e + mu_f + o_f
    return (s - b) / s


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
    """(mu_e, M_e) over the support edges selected by ``inside``.  M_e is a
    new array the caller may overwrite; mu_e may be a view of ``spec.w``."""
    ei, ej, w = spec.ei[inside], spec.ej[inside], spec.w[inside]
    marg = spec.marginals.M
    Me = marg[ei]
    Me += marg[ej]
    Me -= w
    return w, Me


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
    partial = float(np.sum(np.divide(w, Me, out=Me)))
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


def _check_time(t):
    if not t >= 0:  # NaN too
        raise ValueError("t must be non-negative")


def expected_vertices(spec, t):
    """Sum over window vertices of 1 - exp(-M_i t)."""
    _check_time(t)
    M = spec.marginals.M[1:]
    return float(np.sum(-np.expm1(-M[M > 0] * t)))


def urn_variance(spec, t):
    """Variance of the occupied-urn count with rates M_i:
    sum of exp(-M_i t)(1 - exp(-M_i t))."""
    _check_time(t)
    M = spec.marginals.M[1:]
    M = M[M > 0]
    q = np.exp(-M * t)
    return float(np.sum(q * -np.expm1(-M * t)))


def prob_both_vertices(spec, i, j, t):
    """P(both i and j present at t): 1 - e^{-M_i t} - e^{-M_j t} + e^{-M_ij t}."""
    _check_time(t)
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
    # two edge-length arrays in all, both rewritten in place
    ratio = w / Mij
    upper = lower + float(np.sum(ratio))
    arrived = np.negative(w, out=ratio)  # -expm1(-w t) = P(e arrived)
    arrived *= t
    np.expm1(arrived, out=arrived)
    np.negative(arrived, out=arrived)
    cov = np.negative(Mij, out=Mij)
    cov *= t
    np.exp(cov, out=cov)
    cov *= arrived
    exact = lower + 2.0 * float(np.sum(cov))
    return lower, exact, upper


def check_exp_bound(a, b, x_grid):
    """Max of exp(-a x)(1 - exp(-b x)) on the grid; must not exceed b / a."""
    if not (a > 0 and b > 0):  # NaN too
        raise ValueError("a and b must be positive")
    x = np.asarray(x_grid, dtype=float)
    if x.size == 0 or np.isnan(x).any():
        raise ValueError("x_grid must hold at least one point and no NaN")
    vals = np.exp(-a * x) * -np.expm1(-b * x)
    peak = float(vals.max())
    return peak, peak <= b / a


def check_ratio_of_sums(a_list, b_list):
    """(inf ratio, sum ratio, sup ratio) with the convention r/0 = inf.

    Verifies the ratio-of-sums sandwich for non-negative collections.
    """
    a = np.asarray(a_list, dtype=float)
    b = np.asarray(b_list, dtype=float)
    if not all(np.all((0 <= x) & (x < np.inf)) for x in (a, b)):  # NaN too
        raise ValueError("collections must be finite and non-negative")
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
