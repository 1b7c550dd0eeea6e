"""Edge measures on unordered pairs of distinct positive integers.

A measure assigns non-negative mass to edges {i, j} (canonically stored with
i < j), materialized on the finite vertex window {1, ..., n_max}.  All the
built-in infinite families are truncated to that window; the (bounded)
discarded mass is tracked in ``off_window_mass`` so downstream reports can
state how much the truncation threw away.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import zeta

__all__ = [
    "edge",
    "Marginals",
    "MeasureSpec",
    "power_law_product",
    "first_rank",
    "factorial_max",
    "double_exp",
    "isolated_edges",
    "explicit",
    "load_measure",
    "measure_from_dict",
]

NORMALIZATION_TOL = 1e-12
# caches that do not depend on the total mass, so normalize() keeps them
_SCALE_FREE = ("alias", "index", "vgroups")


def edge(i, j):
    """Canonical unordered pair: returns (min, max), rejects loops and bad ids."""
    i, j = int(i), int(j)
    if i <= 0 or j <= 0:
        raise ValueError(f"vertex ids must be positive, got {{{i},{j}}}")
    if i == j:
        raise ValueError(f"self-loop {{{i},{j}}} is not a valid edge")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Marginals:
    """Per-vertex mass M_i (sum of incident edge masses) over the window."""

    M: np.ndarray  # index 0 unused; M[i] for vertex i
    total: float

    def __getitem__(self, i):
        i = int(i)
        if i < 1 or i >= len(self.M):
            return 0.0
        return float(self.M[i])


@dataclass(frozen=True)
class MeasureSpec:
    """A finitely-truncated edge measure.

    ``ei``/``ej``/``w`` are parallel arrays of the support edges (i < j,
    sorted canonically) and their masses.  Edges given with zero mass never
    arrive and are dropped on construction, so every stored mass is
    positive.  Immutable: sampling tables and marginals are cached on first
    use and the spec can be shared freely across parallel replicas.
    """

    family: str
    params: dict
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    n_max: int
    normalized: bool = False
    off_window_mass: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.ei) == 0:
            raise ValueError("measure has empty support")
        if np.any(self.w < 0):
            raise ValueError("negative edge mass")
        if not np.all(self.ei < self.ej):
            raise ValueError("edges must be stored canonically (i < j)")
        total = float(np.sum(self.w))
        if not (total > 0):
            raise ValueError("total mass over the truncated support must be > 0")
        if self.normalized and abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"normalized flag set but total mass is {total!r}")
        pos = self.w > 0
        if not pos.all():
            for name in ("ei", "ej", "w"):
                object.__setattr__(self, name, getattr(self, name)[pos])
            self._cache.clear()  # tables built for the unstripped arrays

    # -- basic queries ---------------------------------------------------

    @property
    def n_edges(self):
        return len(self.w)

    @property
    def total_mass(self):
        return float(np.sum(self.w))

    @property
    def edges(self):
        """Support edges as a list of canonical (i, j) tuples."""
        return list(zip(self.ei.tolist(), self.ej.tolist()))

    def _index(self):
        idx = self._cache.get("index")
        if idx is None:
            idx = {
                (int(a), int(b)): k
                for k, (a, b) in enumerate(zip(self.ei, self.ej))
            }
            self._cache["index"] = idx
        return idx

    def mass(self, e):
        """Mass of edge e; 0 for pairs off the stored support."""
        e = edge(*e)
        k = self._index().get(e)
        return float(self.w[k]) if k is not None else 0.0

    @property
    def marginals(self):
        marg = self._cache.get("marginals")
        if marg is None:
            M = np.zeros(self.n_max + 1)
            np.add.at(M, self.ei, self.w)
            np.add.at(M, self.ej, self.w)
            marg = Marginals(M=M, total=float(M.sum()))
            self._cache["marginals"] = marg
        return marg

    def edge_mass(self, e):
        """Neighborhood mass M_e = M_i + M_j - mass(e)."""
        i, j = edge(*e)
        m = self.marginals
        return m[i] + m[j] - self.mass((i, j))

    # -- normalization ---------------------------------------------------

    def normalize(self):
        """Scale total truncated mass to 1.  No-op when already normalized.

        The copy inherits the scale-free caches (alias table, edge index,
        vertex groups) and a rescaled copy of cached marginals.
        """
        if self.normalized:
            return self
        total = self.total_mass
        cache = {k: v for k, v in self._cache.items() if k in _SCALE_FREE}
        marg = self._cache.get("marginals")
        if marg is not None:
            cache["marginals"] = Marginals(M=marg.M / total,
                                           total=marg.total / total)
        return MeasureSpec(
            family=self.family,
            params=self.params,
            ei=self.ei,
            ej=self.ej,
            w=self.w / total,
            n_max=self.n_max,
            normalized=True,
            off_window_mass=self.off_window_mass / total,
            _cache=cache,
        )

    # -- sampling --------------------------------------------------------

    def _alias(self):
        tab = self._cache.get("alias")
        if tab is None:
            tab = _build_alias(self.w / self.total_mass)
            self._cache["alias"] = tab
        return tab

    def sample_edge(self, rng):
        """One edge drawn with probability mass / total mass."""
        k = self.sample_edge_indices(1, rng)[0]
        return (int(self.ei[k]), int(self.ej[k]))

    def sample_edge_indices(self, n, rng):
        """n i.i.d. support-edge indices via the alias table."""
        J, q = self._alias()
        K = len(q)
        kk = rng.integers(0, K, size=n)
        accept = rng.random(n) < q[kk]
        return np.where(accept, kk, J[kk])

    # -- support topology ------------------------------------------------

    def support_connected(self):
        """Connectivity verdict over the support edges within the window.

        The verdict is truncation-relative: connectedness of the untruncated
        infinite support cannot be decided from a finite window.
        """
        a, b = self.ei, self.ej
        n = self.n_max + 1
        graph = coo_matrix((np.ones(len(a), dtype=np.int8), (a, b)),
                           shape=(n, n))
        n_comp = connected_components(graph, directed=False)[0]
        touched = np.zeros(n, dtype=bool)
        touched[a] = True
        touched[b] = True
        # every untouched id in 0..n_max is a component of its own
        n_comp -= n - np.count_nonzero(touched)
        return "connected-on-truncation" if n_comp <= 1 else "disconnected"

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        d = {"family": self.family, "n_max": self.n_max,
             "normalize": self.normalized}
        d.update(self.params)
        return d

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _build_alias(probs):
    """Alias table (J, q) for a normalized probability vector, in O(K).

    Sweep construction (Hubschle-Schneider & Sanders, "Parallel Weighted
    Random Sampling", ACM TOMS 48(3), 2022): light items (q < 1) take their
    deficits, in index order, from heavy items (q >= 1) in index order; a
    heavy item left below 1 becomes light and takes its own deficit from
    the next heavy one.  With prefix sums X of heavy excesses and D of
    light deficits, light l goes to the first heavy k with X_k >= D_{l-1},
    and heavy k keeps q = 1 + X_k - D, where D is the deficit handed out up
    to its last light.  Both prefix sums carry their rounding errors
    (``_prefix_sum``), so those comparisons and differences hold to about
    1e-16 absolute however large X grows.  The largest heavy item goes
    last: it absorbs the rounding residue of sum(q) != K.
    """
    K = len(probs)
    q = probs * K
    J = np.arange(K)
    light = np.flatnonzero(q < 1.0)
    heavy = np.flatnonzero(q >= 1.0)
    if len(light) == 0 or len(heavy) == 0:
        q[:] = 1.0  # every item is 1 up to rounding
        return J, q
    top = np.argmax(q[heavy])
    heavy[[top, -1]] = heavy[[-1, top]]
    d_hi, d_lo = _prefix_sum(1.0 - q[light])
    x_hi, x_lo = _prefix_sum(q[heavy] - 1.0)
    # numpy orders complex numbers lexicographically: (hi, lo) pairs compare
    # as the exact sums they stand for
    start = np.zeros(len(light), dtype=complex)
    start.real[1:] = d_hi[:-1]
    start.imag[1:] = d_lo[:-1]
    k = np.searchsorted(x_hi + 1j * x_lo, start)
    del start
    np.minimum(k, len(heavy) - 1, out=k)  # rounding overshoot at the end
    J[light] = heavy[k]
    last = np.searchsorted(k, np.arange(len(heavy)), side="right") - 1
    del k
    left = 1.0 + (x_hi - d_hi[last]) + (x_lo - d_lo[last])
    q[heavy[:-1]] = np.clip(left[:-1], 0.0, 1.0)
    J[heavy[:-1]] = heavy[1:]
    q[heavy[-1]] = 1.0
    return J, q


def _prefix_sum(a):
    """Inclusive prefix sums of a as pairs hi + lo with |lo| <= ulp(hi)/2.

    ``np.cumsum`` adds in sequence; the error of each addition is recovered
    exactly (Knuth's TwoSum) and accumulated separately.
    """
    hi = np.cumsum(a)
    prev = np.zeros_like(hi)
    prev[1:] = hi[:-1]
    b = hi - prev
    lo = np.cumsum((prev - (hi - b)) + (a - b))
    del prev, b
    s = hi + lo
    lo -= s - hi
    return s, lo


def _canonical_arrays(ei, ej, w):
    ei = np.asarray(ei, dtype=np.int64)
    ej = np.asarray(ej, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    order = np.lexsort((ej, ei))
    return ei[order], ej[order], w[order]


def _window_pairs(n_max):
    """All canonical pairs i < j <= n_max as index arrays."""
    i, j = np.triu_indices(n_max, k=1)
    return i + 1, j + 1


# -- families ------------------------------------------------------------


def power_law_product(gamma, n_max, normalize=False):
    """mu_{ij} proportional to (i*j)^(-gamma), i != j, truncated to the window."""
    if gamma <= 1:
        raise ValueError("gamma must exceed 1 for a finite measure")
    ei, ej = _window_pairs(n_max)
    w = (ei.astype(float) * ej.astype(float)) ** (-gamma)
    # exact off-window mass of the full family via zeta sums
    s_win = np.sum(np.arange(1, n_max + 1, dtype=float) ** (-gamma))
    q_win = np.sum(np.arange(1, n_max + 1, dtype=float) ** (-2 * gamma))
    total_full = (zeta(gamma, 1) ** 2 - zeta(2 * gamma, 1)) / 2.0
    window_sum = (s_win**2 - q_win) / 2.0
    off = max(float(total_full - window_sum), 0.0)
    spec = MeasureSpec("power_law_product", {"gamma": gamma}, ei, ej, w,
                       n_max, off_window_mass=off)
    return spec.normalize() if normalize else spec


def first_rank(sigma, normalize=False):
    """mu_{ij} = sigma_i * sigma_j for i != j; diagonal excluded."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise ValueError("sigma weights must be non-negative")
    n_max = len(sigma)
    ei, ej = _window_pairs(n_max)
    w = sigma[ei - 1] * sigma[ej - 1]
    spec = MeasureSpec("first_rank", {"sigma": sigma.tolist()}, ei, ej, w,
                       n_max)
    return spec.normalize() if normalize else spec


def factorial_max(n_max, normalize=False):
    """mu_{ij} proportional to (max(i,j)!)^(-4)."""
    ei, ej = _window_pairs(n_max)
    w = np.exp(-4.0 * np.array([math.lgamma(m + 1) for m in ej]))
    # tail over max(e) = m > n_max: (m-1) * (m!)^(-4), ratio <= 2 (m+1)^(-4)
    m = n_max + 1
    first = m * math.exp(-4.0 * math.lgamma(m + 1))
    ratio = 2.0 * (m + 1) ** (-4)
    off = first / (1.0 - ratio)
    spec = MeasureSpec("factorial_max", {}, ei, ej, w, n_max,
                       off_window_mass=off)
    return spec.normalize() if normalize else spec


def double_exp(n_max, normalize=False):
    """mu_{ij} proportional to exp(-3^i) * exp(-3^j).

    Raw double-exponential masses underflow float64 quickly; windows beyond
    n_max ~ 5 lose edges to underflow.
    """
    if n_max < 2:
        raise ValueError("double_exp needs a window of at least 2 vertices")
    ei, ej = _window_pairs(n_max)
    w = np.exp(-(3.0**ei) - (3.0**ej))
    if not np.any(w > 0):
        raise ValueError("all masses underflow; reduce n_max")
    # tail over max(e) = m > n_max: exp(-3^m) * sum_{i<m} exp(-3^i)
    s = sum(math.exp(-(3.0**i)) for i in range(1, n_max + 1))
    m = n_max + 1
    first = math.exp(-(3.0**m)) * (s + math.exp(-(3.0**m)))
    off = 2.0 * first  # ratio of consecutive tail terms is astronomically small
    spec = MeasureSpec("double_exp", {}, ei, ej, w, n_max,
                       off_window_mass=off)
    return spec.normalize() if normalize else spec


def isolated_edges(weights, normalize=False):
    """Support of pairwise vertex-disjoint edges (2k-1, 2k) with given masses."""
    weights = np.asarray(weights, dtype=np.float64)
    k = np.arange(1, len(weights) + 1)
    ei, ej = 2 * k - 1, 2 * k
    spec = MeasureSpec("isolated_edges", {"weights": weights.tolist()},
                       ei, ej, weights, int(2 * len(weights)))
    return spec.normalize() if normalize else spec


def explicit(items, normalize=False, n_max=None):
    """Measure from a list of ((i, j), mass) entries."""
    seen = {}
    for (i, j), m in items:
        e = edge(i, j)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen[e] = float(m)
    ei = [e[0] for e in seen]
    ej = [e[1] for e in seen]
    w = list(seen.values())
    ei, ej, w = _canonical_arrays(ei, ej, w)
    window = int(max(n_max or 0, ej.max(initial=0, where=w > 0)))
    spec = MeasureSpec(
        "explicit",
        {"edges": [[int(a), int(b), float(m)] for a, b, m in zip(ei, ej, w)]},
        ei, ej, w, window)
    return spec.normalize() if normalize else spec


# -- config files --------------------------------------------------------


def measure_from_dict(cfg):
    """Build a spec from a config mapping (see the measure config format)."""
    cfg = dict(cfg)
    family = cfg.pop("family", None)
    normalize = bool(cfg.pop("normalize", False))
    if family == "power_law_product":
        return power_law_product(cfg["gamma"], cfg["n_max"], normalize)
    if family == "first_rank":
        return first_rank(cfg["sigma"], normalize)
    if family == "factorial_max":
        return factorial_max(cfg["n_max"], normalize)
    if family == "double_exp":
        return double_exp(cfg["n_max"], normalize)
    if family == "isolated_edges":
        return isolated_edges(cfg["weights"], normalize)
    if family == "explicit":
        items = [((int(i), int(j)), float(m)) for i, j, m in cfg["edges"]]
        return explicit(items, normalize, n_max=cfg.get("n_max"))
    raise ValueError(f"unknown measure family: {family!r}")


def load_measure(path):
    with open(path) as fh:
        return measure_from_dict(json.load(fh))
