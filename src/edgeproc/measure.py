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
from scipy.sparse import csr_matrix
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


def edge(i, j):
    """Canonical unordered pair: returns (min, max), rejects loops and bad
    ids.  An id must equal an integer: 2.0 is vertex 2, while 1.5, NaN, inf
    and "2" are refused, not truncated."""
    if type(i) is not int or type(j) is not int:
        i, j = _integer(i, "vertex id"), _integer(j, "vertex id")
    if i <= 0 or j <= 0:
        raise ValueError(f"vertex ids must be positive, got {{{i},{j}}}")
    if i == j:
        raise ValueError(f"self-loop {{{i},{j}}} is not a valid edge")
    return (i, j) if i < j else (j, i)


def _integer(v, name):
    """v as an int, or a ValueError naming the argument unless v equals an
    integer: 3.0 and np.int64(3) are 3, while 3.7, NaN, inf and "3" are
    refused, not truncated."""
    try:
        k = int(v)
        if k == v:
            return k
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} {v!r} is not an integer")


@dataclass(frozen=True)
class Marginals:
    """Per-vertex mass M_i (sum of incident edge masses) over the window;
    a vertex past the window reads 0.0."""

    M: np.ndarray  # index 0 unused; M[i] for vertex i
    total: float

    def __getitem__(self, i):
        if type(i) is not int:
            i = _integer(i, "vertex id")
        if i <= 0:
            raise ValueError(f"vertex ids must be positive, got {i}")
        if i >= len(self.M):
            return 0.0
        return float(self.M[i])


@dataclass(frozen=True)
class MeasureSpec:
    """A finitely-truncated edge measure.

    ``ei``/``ej``/``w`` are parallel arrays of the support edges (i < j,
    sorted by (i, j) without repeats, searched by lookups) and their
    masses, all positive: zero-mass edges never arrive and are dropped on
    construction.  Immutable: sampling tables and marginals are cached on
    first use and the spec can be shared freely across parallel replicas.
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
        a, b, w = self.ei, self.ej, self.w
        if not _holds(lambda s: (w[s] >= 0) & (w[s] < np.inf), len(w)):
            raise ValueError("edge masses must be finite and non-negative")
        if not _holds(lambda s: a[s] < b[s], len(a)):
            raise ValueError("edges must be stored canonically (i < j)")
        a0, a1, b0, b1 = a[:-1], a[1:], b[:-1], b[1:]
        if not _holds(lambda s: (a1[s] > a0[s])
                      | ((a1[s] == a0[s]) & (b1[s] > b0[s])), len(a) - 1):
            raise ValueError("edges must be sorted by (i, j), without repeats")
        with np.errstate(over="ignore"):
            total = float(np.sum(self.w))
        # the marginals sum to twice the total
        if not total < np.finfo(float).max / 2:
            raise ValueError(f"the total edge mass overflows float64: twice "
                             f"it must be finite, got {total!r}")
        if not (total > 0):
            raise ValueError("total mass over the truncated support must be > 0")
        if self.normalized and abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"normalized flag set but total mass is {total!r}")
        if not w.min() > 0:
            pos = w > 0
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

    def edge_index(self, e):
        """Position of edge e in the stored arrays; None off the support."""
        i, j = edge(*e)
        lo, hi = self.ei.searchsorted((i, i + 1))
        k = lo + self.ej[lo:hi].searchsorted(j)
        return int(k) if k < hi and self.ej[k] == j else None

    def mass(self, e):
        """Mass of edge e; 0 for pairs off the stored support."""
        k = self.edge_index(e)
        return float(self.w[k]) if k is not None else 0.0

    def window(self, window=None):
        """The vertex window {1..window} asked for: n_max for None, and a
        ValueError outside 1..n_max."""
        if window is None:
            return self.n_max
        window = _integer(window, "window")
        if not 1 <= window <= self.n_max:
            raise ValueError(f"window must be in 1..{self.n_max}, got {window}")
        return window

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

        The copy inherits the scale-free alias table and a rescaled copy of
        cached marginals.
        """
        if self.normalized:
            return self
        total = self.total_mass
        cache = {k: v for k, v in self._cache.items() if k == "alias"}
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
        infinite support cannot be decided from a finite window.  The
        stored arrays, sorted by (i, j), are the graph's CSR rows as they
        stand: row i holds the j of its edges, found by a binary search of
        ei, and no COO copy is built for csgraph to convert.
        """
        a, b = self.ei, self.ej
        n = self.n_max + 1
        indptr = a.searchsorted(np.arange(n + 1))
        # scipy stores the indices as int32 whenever they fit
        graph = csr_matrix((np.ones(len(a)), b, indptr), shape=(n, n))
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


# edges per chunk of the alias build's passes, which bounds their scratch
_CHUNK = 1 << 16


def _chunks(n):
    """Consecutive slices of at most _CHUNK items covering range(n)."""
    return (slice(a, a + _CHUNK) for a in range(0, n, _CHUNK))


def _holds(test, n):
    """Whether the boolean array test(s) is all true on every chunk slice s
    of range(n): its scratch exists one chunk at a time."""
    return all(np.all(test(s)) for s in _chunks(n))


def _build_alias(q):
    """Alias table (J, q) for a normalized probability vector, in O(K).

    Works in place: the probability vector passed in becomes q.

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

    Besides J and the index lists of light and heavy items, the only O(K)
    arrays are the two prefix sums.  Every pass over them runs in chunks of
    ``_CHUNK`` items, so the lights' search keys, their heavy indices and
    all other scratch exist one chunk at a time.
    """
    K = len(q)
    q *= K
    J = np.arange(K)
    light = np.flatnonzero(q < 1.0)
    heavy = np.flatnonzero(q >= 1.0)
    if len(light) == 0 or len(heavy) == 0:
        q[:] = 1.0  # every item is 1 up to rounding
        return J, q
    top = np.argmax(q[heavy])
    heavy[[top, -1]] = heavy[[-1, top]]
    H = len(heavy)
    # D[l] is the deficit handed out before light l, X[k] the excess up to
    # and including heavy k, each a pair hi + lo
    d_hi = np.zeros(len(light) + 1)
    d_lo = np.zeros(len(light) + 1)
    X = np.empty(H, dtype=complex)
    for s in _chunks(len(light)):
        d_hi[1:][s] = 1.0 - q[light[s]]
    for s in _chunks(H):
        X.real[s] = q[heavy[s]] - 1.0
    _prefix_sum(d_hi[1:], d_lo[1:])
    _prefix_sum(X.real, X.imag)
    count = np.zeros(H, dtype=np.int64)  # lights per heavy
    for s in _chunks(len(light)):
        # numpy orders complex numbers lexicographically: (hi, lo) pairs
        # compare as the exact sums they stand for
        k = X.searchsorted(d_hi[:-1][s] + 1j * d_lo[:-1][s])
        np.minimum(k, H - 1, out=k)  # rounding overshoot at the end
        J[light[s]] = heavy[k]
        count[k[0]:k[-1] + 1] += np.bincount(k - k[0])  # k is sorted
    # the deficit handed out up to heavy k's last light is D[end[k]]
    end = np.cumsum(count, out=count)
    for s in _chunks(H - 1):
        e = end[s]
        left = 1.0 + (X.real[s] - d_hi[e]) + (X.imag[s] - d_lo[e])
        q[heavy[s]] = np.clip(left, 0.0, 1.0)
    J[heavy[:-1]] = heavy[1:]
    q[heavy[-1]] = 1.0
    return J, q


def _prefix_sum(hi, lo):
    """Inclusive prefix sums of hi, in place, as pairs hi + lo with
    |lo| <= ulp(hi)/2; lo is written.

    ``np.cumsum`` adds in sequence; the error of each addition is recovered
    exactly (Knuth's TwoSum) and accumulated separately.  The sums run in
    chunks of ``_CHUNK`` items: each chunk's first addend gets the running
    sum and the raw running error of the chunks before it, so every
    addition rounds as in one pass over the whole array.
    """
    hi0 = lo0 = 0.0  # running sum and raw error after the previous chunk
    for s in _chunks(len(hi)):
        a = hi[s]
        h = a.copy()
        if s.start:
            h[0] += hi0
        np.cumsum(h, out=h)
        prev = np.empty_like(h)
        prev[0] = hi0
        prev[1:] = h[:-1]
        b = h - prev
        e = (prev - (h - b)) + (a - b)
        if s.start:
            e[0] += lo0
        np.cumsum(e, out=e)
        hi0, lo0 = h[-1], e[-1]
        hi[s] = h + e
        lo[s] = e - (hi[s] - h)


def _canonical_arrays(ei, ej, w):
    ei = np.asarray(ei, dtype=np.int64)
    ej = np.asarray(ej, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    order = np.lexsort((ej, ei))
    return ei[order], ej[order], w[order]


def _window_pairs(n_max):
    """All canonical pairs i < j <= n_max as index arrays, in (i, j) order.

    No n_max x n_max array is built: i repeats each id once per larger id,
    and j is the running sum of its steps, which are 1 within a row of i.
    """
    counts = np.arange(n_max - 1, 0, -1)  # pairs of i = 1..n_max-1
    i = np.repeat(np.arange(1, n_max), counts)
    j = np.ones(len(i), dtype=np.int64)
    # row i begins at j = i + 1, a step of i + 1 - n_max after row i - 1
    j[np.cumsum(counts) - counts] = np.arange(2, n_max + 1) - n_max
    j[:1] = 2
    np.cumsum(j, out=j)
    return i, j


# -- families ------------------------------------------------------------


def power_law_product(gamma, n_max, normalize=False):
    """mu_{ij} proportional to (i*j)^(-gamma), i != j, truncated to the window."""
    if gamma <= 1:
        raise ValueError("gamma must exceed 1 for a finite measure")
    ei, ej = _window_pairs(n_max)
    w = ei.astype(float)
    w *= ej
    w **= -gamma
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
    padded = np.concatenate([[0.0], sigma])  # padded[i] is sigma_i
    w = padded[ei]
    for s in _chunks(len(w)):  # no edge-length temporary
        w[s] *= padded[ej[s]]
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
    # exp(-3^7) is 0 in float64, so vertices past 7 weigh exactly what 7
    # does; capping the index keeps 3^i finite on any window
    cap = 7
    ei, ej = _window_pairs(n_max)
    w = np.exp(-(3.0**np.minimum(ei, cap)) - (3.0**np.minimum(ej, cap)))
    # tail over max(e) = m > n_max: exp(-3^m) * sum_{i<m} exp(-3^i)
    s = sum(math.exp(-(3.0**i)) for i in range(1, min(n_max, cap) + 1))
    m = min(n_max + 1, cap)
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


def _explicit_config(edges, normalize=False, n_max=None):
    """``explicit`` from a config's [i, j, mass] rows."""
    return explicit([((int(i), int(j)), float(m)) for i, j, m in edges],
                    normalize, n_max)


# family: (constructor, the config keys it reads besides family and
# normalize, by parameter name); every family takes n_max, because to_dict
# writes it
_FAMILIES = {
    "power_law_product": (power_law_product, ("gamma", "n_max")),
    "first_rank": (first_rank, ("sigma",)),
    "factorial_max": (factorial_max, ("n_max",)),
    "double_exp": (double_exp, ("n_max",)),
    "isolated_edges": (isolated_edges, ("weights",)),
    "explicit": (_explicit_config, ("edges", "n_max")),
}


def measure_from_dict(cfg):
    """Build a spec from a config mapping (see the measure config format).
    A key that the family does not read is refused, and a key it needs but
    the config leaves out is a TypeError.  An n_max other than the window
    built is refused; explicit takes it as its window when it reaches past
    the last vertex."""
    cfg = dict(cfg)
    family = cfg.pop("family", None)
    normalize = bool(cfg.pop("normalize", False))
    if family not in _FAMILIES:
        raise ValueError(f"unknown measure family: {family!r}")
    build, keys = _FAMILIES[family]
    unread = [k for k in cfg if k not in ("n_max",) + keys]
    if unread:
        raise ValueError(f"measure family {family!r} reads no key "
                         + ", ".join(map(repr, unread)))
    spec = build(normalize=normalize, **{k: cfg[k] for k in keys if k in cfg})
    if cfg.get("n_max", spec.n_max) != spec.n_max:
        raise ValueError(f"n_max is {cfg['n_max']!r}, but this {family} "
                         f"measure has the window 1..{spec.n_max}")
    return spec


def load_measure(path):
    with open(path) as fh:
        return measure_from_dict(json.load(fh))
