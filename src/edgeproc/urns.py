"""Direct urn occupancy, the vertex/urn coupling, and in-order fill criteria.

The coupling pairs the vertex process of a normalized measure with an urn
scheme of rates M_i so that both marginals are exact; per-epoch outcomes are
drawn by thresholding a single uniform over an ordered outcome list (urns by
index, then edges canonically, then the null outcome).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import tanhsinh

from .measure import _integer
from .process import exponential_scales, write_table

__all__ = [
    "run_urn",
    "CouplingState",
    "CouplingEngine",
    "coupling_lambda",
    "coupling_step",
    "run_coupling",
    "coupling_rate_audit",
    "prob_urn_without_vertex",
    "prob_double_new_vertices",
    "coupling_trace_to_csv",
    "RespectReport",
    "respect_factor",
    "urns_in_order",
    "essential_completeness_product",
]


# -- direct urn simulation -----------------------------------------------


def run_urn(rates, horizon, rng):
    """First-fill time of each urn of a continuous-time urn scheme with the
    given rates: inf past the horizon or at rate 0."""
    lam = np.asarray(rates, dtype=float)
    if not np.all(lam >= 0):  # NaN too
        raise ValueError("urn intensities must be non-negative")
    if not horizon >= 0:
        raise ValueError("horizon must be non-negative")
    fill = np.full(len(lam), np.inf)
    pos = lam > 0
    fill[pos] = rng.exponential(exponential_scales(lam[pos]))
    fill[fill > horizon] = np.inf
    return fill


# -- the exp(3) vertex/urn coupling --------------------------------------


@dataclass
class CouplingState:
    """Paired vertex set and urn set, as boolean masks over the window."""

    in_v: np.ndarray
    in_u: np.ndarray
    step: int = 0
    clock: float = 0.0
    log: list = field(default_factory=list)

    @classmethod
    def empty(cls, n_max):
        return cls(in_v=np.zeros(n_max + 1, dtype=bool),
                   in_u=np.zeros(n_max + 1, dtype=bool))

    def sets_equal(self):
        return bool(np.array_equal(self.in_v, self.in_u))


# bytes of lambda and urn cumulative sums one engine's table memo may hold
_TABLE_BUDGET = 2 << 20


class _EpochTable:
    """What an epoch reads for one (V, U): lambda, sum(lambda)/3 and, on
    first use, the urn cumulative sum and the log's (|V|, |U|, V == U).
    Once built it never changes: lambda is read-only, and the lazy fields
    are computed from it alone."""

    __slots__ = ("key", "lam", "s3", "_urn_cum", "_counts")

    def __init__(self, key, lam):
        s_lam = float(lam.sum())
        if 2.0 / 3.0 - s_lam / 3.0 < -1e-12:
            raise RuntimeError("null-outcome probability went negative")
        lam.flags.writeable = False
        self.key, self.lam, self.s3 = key, lam, s_lam / 3.0
        self._urn_cum = self._counts = None

    def urn_cum(self):
        if self._urn_cum is None:
            self._urn_cum = np.cumsum(self.lam) / 3.0
        return self._urn_cum

    def counts(self):
        """The log triple, read off the key: the masks are boolean, so each
        of their bytes is 1 exactly where the mask holds."""
        if self._counts is None:
            half = len(self.key) // 2
            v, u = self.key[:half], self.key[half:]
            self._counts = (half - v.count(0), half - u.count(0), v == u)
        return self._counts


class CouplingEngine:
    """Precomputed tables for stepping the coupling on one normalized measure.

    Lambda depends on the state only through (V, U), and every run starts
    from the same empty masks and passes through the same few states, so the
    engine memoizes one epoch table per (V, U) across epochs and runs.  The
    masks are public and may be written directly, which is why a table is
    keyed by their bytes rather than by a step counter.  The memo holds at
    most ``_TABLE_BUDGET`` bytes of lambda and cumulative sums, 16 (n + 1)
    per table, and is emptied when full.  A built table is never changed, so
    threads may share an engine; a race on the memo costs only a rebuild.

    ``step`` and ``run`` share one epoch routine.  ``step`` looks the table
    up on every call, since the masks may have been written since the last
    one; ``run`` owns its state, so it carries the table from epoch to epoch
    and looks it up again only after an urn or edge outcome: a null outcome
    leaves (V, U) as they were.  Edge outcomes are found by a binary search
    of the edge cumulative sum as a list of the same float64 values.
    """

    def __init__(self, spec):
        spec = spec.normalize()
        self.spec = spec
        n = spec.n_max
        mat = np.zeros((n + 1, n + 1))
        mat[spec.ei, spec.ej] = spec.w
        mat[spec.ej, spec.ei] = spec.w
        self.mat = mat
        self._edge_cum3 = (np.cumsum(spec.w) / 3.0).tolist()
        self._e3 = self._edge_cum3[-1]
        self._ei, self._ej = spec.ei.tolist(), spec.ej.tolist()
        self._tables = {}
        self._max_tables = max(1, _TABLE_BUDGET // (16 * (n + 1)))

    def new_state(self):
        return CouplingState.empty(self.spec.n_max)

    def lambda_vector(self, state):
        """Urn-only intensities for every i outside the urn set (else 0)."""
        in_v, in_u = state.in_v, state.in_u
        free = ~(in_v | in_u)  # in neither set
        free[0] = False
        a = self.mat @ free.astype(float)
        b = self.mat @ (in_v > in_u).astype(float)  # in V, not in U
        b *= 0.5
        b += a  # lambda on V
        a *= 0.5  # lambda off V
        np.copyto(a, b, where=in_v)
        a[in_u] = 0.0
        a[0] = 0.0
        return a

    def epoch_table(self, state):
        """The epoch table for the state's current masks (see the class doc)."""
        key = state.in_v.tobytes() + state.in_u.tobytes()
        tab = self._tables.get(key)
        if tab is None:
            if len(self._tables) >= self._max_tables:
                self._tables.clear()
            tab = self._tables[key] = _EpochTable(key,
                                                  self.lambda_vector(state))
        return tab

    def step(self, state, rng, record=False):
        """One exp(3) epoch; mutates and returns the state."""
        wait = rng.exponential(1.0 / 3.0)
        self._epoch(state, self.epoch_table(state), wait, rng, record)
        return state

    def run(self, horizon_t, rng, record=False):
        """Epochs until the next wait would pass the horizon, which must be
        positive and finite."""
        if not 0 < horizon_t < np.inf:
            raise ValueError("horizon must be positive and finite")
        state = self.new_state()
        tab = self.epoch_table(state)
        while True:
            wait = rng.exponential(1.0 / 3.0)
            if state.clock + wait > horizon_t:
                state.clock = horizon_t
                return state
            tab = self._epoch(state, tab, wait, rng, record)
            if tab is None:
                tab = self.epoch_table(state)

    def _epoch(self, state, tab, wait, rng, record):
        """One epoch of the given wait from the state, whose table is tab.
        Returns the table of the state it leaves, or None when an urn or
        edge outcome changed the masks and ``record`` is off: then the next
        table has not been looked up."""
        state.clock += wait
        state.step += 1
        eta = rng.random()
        if eta < tab.s3:
            i = int(tab.urn_cum().searchsorted(eta, side="right"))
            state.in_u[i] = True
            kind, value, color = "urn", str(i), "blue"
        elif eta < tab.s3 + self._e3:
            k = bisect_right(self._edge_cum3, eta - tab.s3)
            i, j = self._ei[k], self._ej[k]
            color = self._apply_edge(state, i, j, rng)
            kind, value = "edge", f"{i}-{j}"
        else:
            if record:
                state.log.append((state.step, state.clock, "null", "", "")
                                 + tab.counts())
            return tab
        if not record:
            return None
        tab = self.epoch_table(state)
        state.log.append((state.step, state.clock, kind, value, color)
                         + tab.counts())
        return tab

    def _apply_edge(self, state, i, j, rng):
        """The full colored branch table for an edge outcome {i, j}; both
        endpoints join V."""
        in_v, in_u = state.in_v, state.in_u
        vi, vj = in_v[i], in_v[j]
        in_v[i] = in_v[j] = True
        if vi != vj:
            # one new vertex x: urn x, or else the old vertex y
            x, y = (j, i) if vi else (i, j)
            if not in_u[x]:
                in_u[x] = True
                return "yellow"
            if not in_u[y]:
                in_u[y] = True
                return "violet"
            return "pass"
        ui, uj = in_u[i], in_u[j]
        if ui and uj:
            return "pass"
        # both endpoints in V or both new: urn the one not yet urned, or a
        # fair coin's pick of the two
        if ui or uj:
            in_u[j if ui else i] = True
            return "green" if vi else "orange"
        in_u[i if rng.random() < 0.5 else j] = True
        return "magenta" if vi else "brown"


def _engine(spec):
    """The one coupling engine of ``spec``, built on first use.

    Its cache key is not one that ``normalize()`` copies, so a normalized copy
    builds its own.
    """
    eng = spec._cache.get("coupling_engine")
    if eng is None:
        eng = spec._cache["coupling_engine"] = CouplingEngine(spec)
    return eng


def _free_vertex(state, spec, i):
    """Vertex id i, checked to be an integer in 1..n_max outside the urn
    set."""
    i = _integer(i, "vertex id")
    if not 1 <= i <= spec.n_max:
        raise ValueError(f"vertex {i} is outside 1..{spec.n_max}")
    if state.in_u[i]:
        raise ValueError(f"vertex {i} is already in the urn set")
    return i


def coupling_lambda(state, spec, i):
    """Urn-only intensity for vertex i; i must be outside the urn set."""
    i = _free_vertex(state, spec, i)
    return float(_engine(spec).epoch_table(state).lam[i])


def coupling_step(state, spec, rng):
    return _engine(spec).step(state, rng)


def run_coupling(spec, horizon_t, rng, record=False):
    return _engine(spec).run(horizon_t, rng, record=record)


def coupling_rate_audit(state, spec, i, engine=None):
    """Branch-enumerated 3p for urn i this epoch; equals M_i for every state.

    Sums, over the urn outcome and every edge outcome containing i, the
    probability that urn i is filled (coin branches count 1/2).
    """
    eng = engine or _engine(spec)
    i = _free_vertex(state, spec, i)
    in_v, in_u = state.in_v, state.in_u
    # chance that edge outcome {i, j} urns i, for every neighbour j at once
    # (the row is 0 off the support, so other entries add nothing)
    if in_v[i]:
        # j urned: green (j in V) or violet (j new); j not urned: magenta's
        # coin (j in V), or yellow urns the new j instead
        p_add = np.where(in_u, 1.0, np.where(in_v, 0.5, 0.0))
    else:
        # j in V: yellow, i is the new vertex; j new: orange if j is urned,
        # else brown's coin
        p_add = np.where(in_v | in_u, 1.0, 0.5)
    blue = float(eng.epoch_table(state).lam[i])
    return blue + float(eng.mat[i] @ p_add)


def prob_urn_without_vertex(state, spec):
    """Per-epoch probability of a blue outcome for an i outside the vertex set."""
    lam = _engine(spec).epoch_table(state).lam
    mask = ~state.in_v
    mask[0] = False
    return float(lam[mask].sum()) / 3.0


def prob_double_new_vertices(state, spec):
    """Per-epoch probability that an edge outcome brings two new vertices."""
    s = _engine(spec).spec
    both_new = (~state.in_v[s.ei]) & (~state.in_v[s.ej])
    return float(s.w[both_new].sum()) / 3.0


def coupling_trace_to_csv(state, path, header_lines=()):
    write_table(path, header_lines,
                ["step", "clock", "chi_kind", "chi_value", "branch_color",
                 "V_size", "U_size", "V_eq_U"],
                ([rec[0], repr(rec[1]), *rec[2:7], int(rec[7])]
                 for rec in state.log))


# -- respect factors and infinite products -------------------------------


@dataclass(frozen=True)
class RespectReport:
    factors: tuple
    partial_product: float
    blocks_used: int
    # per factor: "subset-expansion" (the race recursion), "quadrature"
    # (tanh-sinh) or "closed-form"
    methods: tuple
    verdict: str        # positive-analytic | zero-analytic | inconclusive
    verdict_basis: str


def _default_method(k):
    """The method a block of k rates gets when none is named: the race
    recursion where it is the faster (k <= 12), tanh-sinh above."""
    return "subset-expansion" if k <= 12 else "quadrature"


def respect_factor(block_lambdas, tail_mass, method=None):
    """P(every rate in the block beats an independent Exp(tail_mass) clock).

    ``method="subset-expansion"`` runs the race recursion over the subsets
    of the block, at most 20 rates; ``"quadrature"`` integrates
    prod(1 - e^{-lambda t}) against the tail's exponential density by
    tanh-sinh in log space.  Both are exact to float precision: the
    recursion measured within 1e-15 of rational values and the quadrature
    within 2e-12 of the recursion, relative.  An infinite rate rings at
    time 0, so it is dropped; a zero rate never rings, so the factor is 0.
    """
    lam = np.asarray(block_lambdas, dtype=float)
    if not 0 < tail_mass < np.inf:  # NaN too
        raise ValueError("tail_mass must be positive and finite")
    if not np.all(lam >= 0):
        raise ValueError("block rates must be non-negative")
    if np.any(lam == 0):
        return 0.0
    lam = lam[lam < np.inf]
    if len(lam) == 0:
        return 1.0
    method = method or _default_method(len(lam))
    if method == "subset-expansion":
        return _race_recursion(lam, tail_mass)
    if method == "quadrature":
        return _tanh_sinh(lam, tail_mass)
    raise ValueError(f"unknown method {method!r}")


def _race_recursion(lam, tail):
    """f(S) = sum over i in S of lam_i f(S - {i}) / (tail + lam_S), f({}) = 1:
    of the clocks of S and the tail's, the first to ring is i's with chance
    lam_i / (tail + lam_S).  Every term is positive, so nothing cancels.

    Bit i of a subset's index marks rate i.  The subsets of one size are
    computed at once from those one smaller; f is still 0 on the larger
    ones, so S ^ {i} with i outside S adds nothing.
    """
    k = len(lam)
    if k > 20:
        raise ValueError(f"the subset recursion takes at most 20 rates, "
                         f"got {k}")
    lam_s, size = np.zeros(1), np.zeros(1, dtype=int)
    for x in lam:
        lam_s = np.concatenate([lam_s, lam_s + x])
        size = np.concatenate([size, size + 1])
    bit = 1 << np.arange(k)
    f = np.zeros(1 << k)
    f[0] = 1.0
    for m in range(1, k + 1):
        s = np.flatnonzero(size == m)
        f[s] = f[s[:, None] ^ bit] @ lam / (tail + lam_s[s])
    return float(f[-1])


def _tanh_sinh(lam, tail):
    """The respect integral in u = tail * t, as a log integral:
    log of e^{-u} prod(1 - e^{-(lambda_i / tail) u}), integrated over
    (0, inf) to relative 1e-14.

    The first convergence test comes after level 4, not 2: from level 2 a
    block of 7 rates stopped at level 3 off by 1.1e-9, and evaluating
    levels 0-4 in one call also halves the time.

    A subnormal ratio r keeps only a few bits in u r, which makes its term
    a staircase that tanh-sinh cannot converge on.  At every node such a
    term equals log(u r), so those ratios add n log u + sum log r instead;
    only when there are any, as 0 log 0 is nan at u = 0.  A ratio that
    underflows to 0 bounds the factor below 5e-324, which rounds to 0.
    """
    with np.errstate(over="ignore"):  # an inf ratio rings at once: log 1
        r = lam / tail
    if np.any(r == 0):
        return 0.0
    tiny = r < np.finfo(float).tiny
    n_tiny, log_tiny = np.count_nonzero(tiny), float(np.log(r[tiny]).sum())
    r = r[~tiny]

    def log_integrand(u):
        out = -u + np.log(-np.expm1(-u[..., None] * r)).sum(axis=-1)
        if n_tiny:
            out += n_tiny * np.log(u) + log_tiny
        return out

    res = tanhsinh(log_integrand, 0.0, np.inf, log=True,
                   rtol=np.log(1e-14), minlevel=4)
    if not res.success:
        raise RuntimeError(f"tanh-sinh did not converge (status "
                           f"{int(res.status)}) on rates {lam.tolist()} "
                           f"and tail {tail}")
    return min(float(np.exp(res.integral)), 1.0)


def urns_in_order(lambdas, tail_sum=0.0):
    """Product of lambda_n / (sum of rates from n on) over every listed urn,
    for the event that the urns are filled in index order.

    ``tail_sum`` is the total rate beyond the listed urns (0 for a genuinely
    finite scheme).  Verdicts are issued only with an analytic basis:
    finite schemes are trivially positive; an exactly geometric family with
    consistent tail has constant factors below one (product zero); residuals
    decaying at least geometrically give a convergent sum of (1 - factor)
    (product positive).
    """
    lam = np.asarray(lambdas, dtype=float)
    # NaN fails too; infinite rates all fill at time 0, a tie with no order
    if len(lam) == 0 or not np.all((lam > 0) & (lam < np.inf)):
        raise ValueError("urns_in_order needs at least one rate, all "
                         "positive and finite")
    if not 0 <= tail_sum < np.inf:
        raise ValueError("tail_sum must be non-negative and finite")
    factors = lam / (np.cumsum(lam[::-1])[::-1] + tail_sum)
    verdict, basis = _in_order_verdict(lam, tail_sum, factors)
    return RespectReport(factors=tuple(factors.tolist()),
                         partial_product=float(np.prod(factors)),
                         blocks_used=len(lam),
                         methods=("closed-form",) * len(lam),
                         verdict=verdict, verdict_basis=basis)


def _in_order_verdict(lam, tail_sum, factors):
    if tail_sum == 0.0:
        return ("positive-analytic",
                "finite scheme: finitely many positive factors")
    ratios = lam[1:] / lam[:-1]
    if len(ratios) and np.allclose(ratios, ratios[0], rtol=1e-9, atol=0.0):
        r = float(ratios[0])
        tail_expected = float(lam[-1]) * r / (1.0 - r) if r < 1 else np.inf
        if r < 1 and abs(tail_sum - tail_expected) <= 1e-9 * tail_expected:
            return ("zero-analytic",
                    f"geometric decay: every factor equals {1 - r:.17g} < 1")
    # the tail rate dominates only the final factor, so the geometric
    # domination test runs on the interior residuals with the last one
    # required to be negligible
    resid = 1.0 - factors
    if len(resid) >= 3 and np.all(resid[1:-1] <= 0.5 * resid[:-2]) \
            and resid[-1] < 1e-6:
        return ("positive-analytic",
                "residuals 1 - factor dominated by a geometric series")
    return "inconclusive", "no analytic tail argument on this window"


_COMPLETENESS_SUFFICIENT = {"factorial_max", "double_exp"}
# families whose every pair has positive mass, so a missing pair underflowed
_ALL_PAIRS = _COMPLETENESS_SUFFICIENT | {"power_law_product"}


def essential_completeness_product(spec, blocks_used):
    """Block-by-block respect factors for filling vertices in index order.

    Block n holds the masses of edges {i, n}, i < n; the tail rate is all
    mass on edges whose max endpoint exceeds n (window sum plus the family's
    off-window bound).  Blocks run over n = 2..blocks_used + 1, so they must
    stay inside the window.  A pair of a block missing from the support has
    zero mass, unless the family gives every pair positive mass: then it
    underflowed, the family's verdict stands and the basis names the block.
    """
    blocks_used = _integer(blocks_used, "blocks_used")
    if not 1 <= blocks_used <= spec.n_max - 1:
        raise ValueError(f"blocks_used must be in 1..{spec.n_max - 1} (the "
                         f"window has {spec.n_max} vertices), got {blocks_used}")
    factors, methods, zero_blocks = [], [], []
    for n in range(2, blocks_used + 2):
        # block n is the stored edges {i, n}, i < n: scatter them by i
        lam, at_n = np.zeros(n - 1), spec.ej == n
        lam[spec.ei[at_n] - 1] = spec.w[at_n]
        tail = float(spec.w[spec.ej > n].sum()) + spec.off_window_mass
        if np.any(lam == 0):
            zero_blocks.append(n)
        if tail <= 0:
            factors.append(1.0 if np.all(lam > 0) else 0.0)
            methods.append("closed-form")
            continue
        factors.append(respect_factor(lam, tail))
        methods.append(_default_method(len(lam)))
    product = float(np.prod(factors))
    if zero_blocks and spec.family not in _ALL_PAIRS:
        verdict = "zero-analytic"
        basis = "a block has zero mass; that vertex can never complete in order"
    elif spec.family in _COMPLETENESS_SUFFICIENT:
        verdict = "positive-analytic"
        basis = ("family satisfies the fourth-power decay sufficient "
                 "condition for eventual forever essential completeness")
    elif spec.family == "power_law_product":
        g = spec.params["gamma"]
        verdict = "zero-analytic"
        basis = (f"every factor is at most 1/(1 + 2^-gamma) = "
                 f"{1.0 / (1.0 + 2.0 ** -g):.6g} < 1, since the tail always "
                 "contains the edge {1, n+1}")
    else:
        verdict = "inconclusive"
        basis = "no analytic tail argument for this family"
    if zero_blocks and spec.family in _ALL_PAIRS:
        basis += (f"; pairs {{i, n}} of blocks n = {zero_blocks} underflow "
                  "to 0 in float64, so their factors and the product read 0")
    return RespectReport(factors=tuple(factors), partial_product=product,
                         blocks_used=blocks_used, methods=tuple(methods),
                         verdict=verdict, verdict_basis=basis)
