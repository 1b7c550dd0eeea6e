"""Direct urn fills, the coupled vertex/urn construction, and product criteria."""

import hashlib
import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from edgeproc import analytic, urns
from edgeproc.measure import (
    double_exp,
    explicit,
    factorial_max,
    first_rank,
    power_law_product,
)
from edgeproc.process import replica_rng, run_continuous
from edgeproc.urns import (
    CouplingEngine,
    CouplingState,
    coupling_lambda,
    coupling_rate_audit,
    coupling_step,
    essential_completeness_product,
    prob_double_new_vertices,
    prob_urn_without_vertex,
    respect_factor,
    run_coupling,
    run_urn,
    urns_in_order,
)

from conftest import random_explicit_spec, subnormal_block_edges


def k_n_spec(n):
    """Complete graph on {1..n}, equal masses, normalized."""
    edges = list(itertools.combinations(range(1, n + 1), 2))
    return explicit([(e, 1.0 / len(edges)) for e in edges], normalize=True)


def random_reachable_state(engine, rng, max_steps=30):
    state = engine.new_state()
    for _ in range(int(rng.integers(0, max_steps))):
        engine.step(state, rng)
    return state


class TestUrnScheme:
    """An urn scheme is one non-negative rate per urn."""

    def test_negative_rate_rejected(self):
        # NaN is no rate either: it was drawn as rate 0
        for rates in ((-1.0,), (np.nan, 2.0)):
            with pytest.raises(ValueError, match="intensities"):
                run_urn(rates, 1.0, replica_rng(0, 0))

    @pytest.mark.parametrize("horizon", [-1.0, np.nan])
    def test_unusable_horizon_rejected(self, horizon):
        # NaN cut no fill time at the horizon
        with pytest.raises(ValueError, match="horizon"):
            run_urn([1.0, 2.0], horizon, replica_rng(0, 0))


class TestRunUrn:
    def test_single_urn_occupancy_time(self):
        n = 20_000
        times = np.empty(n)
        for k in range(n):
            fill = run_urn((1.0,), 1e9, replica_rng(50, k))
            assert isinstance(fill, np.ndarray) and fill[0] <= 1e9
            times[k] = fill[0]
        assert abs(times.mean() - 1.0) < 3.0 / np.sqrt(n)

    def test_unfilled_urns_read_inf(self):
        fill = run_urn([0.0, 1e-300, 1e300], 1.0, replica_rng(0, 0))
        assert fill[:2].tolist() == [np.inf, np.inf] and fill[2] <= 1.0

    def test_marginal_rates_match_expected_vertices(self):
        spec = random_explicit_spec(np.random.default_rng(52))
        M = spec.marginals.M[1:]
        rates = M[M > 0]
        t = 1.5
        n = 20_000
        occ = np.empty(n)
        for k in range(n):
            occ[k] = np.sum(run_urn(rates, t, replica_rng(53, k)) <= t)
        target = analytic.expected_vertices(spec, t)
        se = np.sqrt(analytic.urn_variance(spec, t) / n)
        assert abs(occ.mean() - target) < 4 * se


class TestCouplingLambda:
    def test_empty_state_half_marginal(self):
        spec = k_n_spec(5)
        eng = CouplingEngine(spec)
        lam = eng.lambda_vector(eng.new_state())
        M = spec.marginals.M
        for i in range(1, 6):
            assert lam[i] == pytest.approx(M[i] / 2, rel=1e-12)
        assert lam.sum() == pytest.approx(1.0, rel=1e-12)

    def test_single_edge_urned_neighbor(self):
        spec = explicit([((1, 2), 1.0)], normalize=True)
        state = CouplingState.empty(2)
        state.in_v[[1, 2]] = True
        state.in_u[1] = True
        assert coupling_lambda(state, spec, 2) == 0.0

    def test_precondition_i_not_in_urn_set(self):
        spec = explicit([((1, 2), 1.0)], normalize=True)
        state = CouplingState.empty(2)
        state.in_u[1] = True
        with pytest.raises(ValueError):
            coupling_lambda(state, spec, 1)

    def test_in_v_vertex_gets_full_unseen_mass(self):
        # i in V: lambda = half the V∩not-U neighbor mass plus all
        # not-V,not-U neighbor mass
        spec = k_n_spec(4)
        eng = CouplingEngine(spec)
        state = eng.new_state()
        state.in_v[[1, 2]] = True
        mu = spec.mass((1, 2))
        lam1 = 0.5 * mu + spec.mass((1, 3)) + spec.mass((1, 4))
        assert eng.lambda_vector(state)[1] == pytest.approx(lam1, rel=1e-12)


class TestCouplingStep:
    def test_single_edge_epoch_probabilities(self):
        # empty state: P(chi = the edge) = mu/3 = 1/3; on that branch U gains
        # one coin-chosen endpoint and V gains both
        spec = explicit([((1, 2), 1.0)], normalize=True)
        eng = CouplingEngine(spec)
        n = 30_000
        edge_hits = 0
        for k in range(n):
            rng = replica_rng(54, k)
            state = eng.step(eng.new_state(), rng, record=True)
            step, clock, kind, value, color, v, u, eq = state.log[0]
            if kind == "edge":
                edge_hits += 1
                assert v == 2 and u == 1
                assert color == "brown"
            elif kind == "urn":
                assert v == 0 and u == 1
            else:
                assert v == 0 and u == 0
        assert abs(edge_hits / n - 1 / 3) < 3 * np.sqrt((1 / 3) * (2 / 3) / n)

    def test_null_outcome_only_advances_clock(self):
        spec = k_n_spec(4)
        eng = CouplingEngine(spec)
        found = 0
        for k in range(200):
            state = eng.new_state()
            eng.step(state, replica_rng(55, k), record=True)
            if state.log[0][2] == "null":
                found += 1
                assert state.in_v.sum() == 0 and state.in_u.sum() == 0
                assert state.clock > 0
        assert found > 0

    def test_sets_monotone(self):
        spec = power_law_product(3.0, 10, normalize=True)
        eng = CouplingEngine(spec)
        rng = replica_rng(56, 0)
        state = eng.new_state()
        for _ in range(100):
            v_before = state.in_v.copy()
            u_before = state.in_u.copy()
            eng.step(state, rng)
            assert np.all(state.in_v >= v_before)
            assert np.all(state.in_u >= u_before)

    def test_vertices_enter_v_only_via_edges(self):
        spec = k_n_spec(5)
        eng = CouplingEngine(spec)
        rng = replica_rng(57, 1)
        state = eng.new_state()
        for _ in range(150):
            v_before = int(state.in_v.sum())
            eng.step(state, rng, record=True)
            kind = state.log[-1][2]
            if int(state.in_v.sum()) > v_before:
                assert kind == "edge"


class TestRateAudit:
    def test_empty_state(self):
        rng = np.random.default_rng(58)
        for _ in range(10):
            spec = random_explicit_spec(rng).normalize()
            eng = CouplingEngine(spec)
            state = eng.new_state()
            for i in range(1, spec.n_max + 1):
                assert abs(coupling_rate_audit(state, spec, i, engine=eng)
                           - spec.marginals[i]) < 1e-12

    def test_all_v_no_u(self):
        spec = k_n_spec(5)
        eng = CouplingEngine(spec)
        state = eng.new_state()
        state.in_v[1:] = True
        for i in range(1, 6):
            assert abs(coupling_rate_audit(state, spec, i, engine=eng)
                       - spec.marginals[i]) < 1e-12

    def test_single_edge_green_branch(self):
        spec = explicit([((1, 2), 1.0)], normalize=True)
        state = CouplingState.empty(2)
        state.in_v[[1, 2]] = True
        state.in_u[2] = True
        assert abs(coupling_rate_audit(state, spec, 1) - 1.0) < 1e-12

    def test_randomized_reachable_states(self):
        # random explicit windows have gaps: free vertices of M_i = 0, whose
        # audit must read 0 as well
        rng = np.random.default_rng(60)
        cases = [(power_law_product(3.0, 12, normalize=True), 300, 59),
                 (k_n_spec(6), 300, 59)] + [
            (random_explicit_spec(rng, max_vertex=12,
                                  n_edges=int(rng.integers(2, 9))).normalize(),
             30, 61 + n) for n in range(38)]
        audited_zero = 0
        for spec, n_states, seed in cases:
            eng = CouplingEngine(spec)
            M = spec.marginals.M
            for k in range(n_states):
                state = random_reachable_state(eng, replica_rng(seed, k))
                for i in np.flatnonzero(~state.in_u[1:]) + 1:
                    assert abs(coupling_rate_audit(state, spec, i, engine=eng)
                               - M[i]) < 1e-12
                    audited_zero += M[i] == 0
        assert audited_zero > 1000


def coupling_digest(eng, seeds=(1, 2, 3), runs=100):
    """Hash of recorded runs to t = 5 and of a recorded 30-step sequence:
    logs, final masks, clocks and step counts."""
    h = hashlib.sha256()

    def add(state):
        h.update(repr(state.log).encode())
        h.update(state.in_v.tobytes())
        h.update(state.in_u.tobytes())
        h.update(repr((state.clock, state.step)).encode())
    for s in seeds:
        for r in range(runs):
            add(eng.run(5.0, replica_rng(s, r), record=True))
    state, rng = eng.new_state(), replica_rng(9, 0)
    for _ in range(30):
        eng.step(state, rng, record=True)
    add(state)
    return h.hexdigest()


def counting_builds(eng):
    """Record the (V, U) key of every lambda the engine builds from here on."""
    built, build = [], eng.lambda_vector

    def counting(state):
        built.append(state.in_v.tobytes() + state.in_u.tobytes())
        return build(state)
    eng.lambda_vector = counting
    return built


class TestEpochTable:
    # digests of coupling_digest taken before the engine cached lambda
    # between epochs; its cache of tables, of any size, must leave every
    # trajectory bit-identical
    GOLDEN = {
        "K6":
            "f6acf40fb13fbdd6a3975c5985d415cff6d5433b54661eb8b5739c27811e6a9b",
        "power_law_3.0_12":
            "2582a1999853e0494f4997f02cc1fdfc108d860a52d36ccf352c6c1241803bd3",
        "power_law_2.5_200":
            "0dcad061c903b13529607b6007e50dbbf16111855c34557c0c58b4c712b2f631",
    }
    SPECS = {
        "K6": lambda: k_n_spec(6),
        "power_law_3.0_12": lambda: power_law_product(3.0, 12, True),
        "power_law_2.5_200": lambda: power_law_product(2.5, 200, True),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_runs_match_golden(self, name):
        eng = CouplingEngine(self.SPECS[name]())
        assert coupling_digest(eng) == self.GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_runs_match_golden_with_a_three_table_memo(self, name,
                                                       monkeypatch):
        spec = self.SPECS[name]()
        monkeypatch.setattr(urns, "_TABLE_BUDGET", 3 * 16 * (spec.n_max + 1))
        eng = CouplingEngine(spec)
        built = counting_builds(eng)
        assert coupling_digest(eng) == self.GOLDEN[name]
        assert 1 <= eng._table.cache_info().currsize <= 3 < len(built)

    def test_each_state_builds_once_while_the_budget_holds(self):
        eng = CouplingEngine(k_n_spec(6))
        built = counting_builds(eng)
        epochs = sum(len(eng.run(5.0, replica_rng(76, r), record=True).log)
                     for r in range(500))
        assert len(set(built)) == len(built) \
            == eng._table.cache_info().currsize
        assert epochs > 5 * len(built)
        n_built = len(built)
        for r in range(500):  # the same runs again build nothing
            eng.run(5.0, replica_rng(76, r), record=True)
        assert len(built) == n_built

    def test_memo_stays_within_its_byte_budget(self):
        spec = power_law_product(2.5, 200, True)
        eng = CouplingEngine(spec)
        table_bytes = 16 * (spec.n_max + 1)
        tab = eng.epoch_table(eng.new_state())
        assert tab.lam.nbytes + tab.urn_cum.nbytes == table_bytes
        built = counting_builds(eng)
        for r in range(2000):
            eng.run(5.0, replica_rng(77, r))
            assert eng._table.cache_info().currsize * table_bytes \
                <= urns._TABLE_BUDGET
        # more states than the cache holds: some were evicted
        assert len(built) > eng._table.cache_info().maxsize

    def test_cache_evicts_the_least_recently_used_table(self, monkeypatch):
        spec = power_law_product(3.0, 12, True)
        monkeypatch.setattr(urns, "_TABLE_BUDGET", 3 * 16 * (spec.n_max + 1))
        eng = CouplingEngine(spec)
        built = counting_builds(eng)
        states = {}
        for name, vertex in zip("ABCD", (1, 2, 3, 4)):
            states[name] = eng.new_state()
            states[name].in_v[vertex] = True
        for name in "ABCADA":
            eng.epoch_table(states[name])
        # D evicts B, the least recently used; A, looked up again, stays
        assert built == [states[name].in_v.tobytes()
                         + states[name].in_u.tobytes() for name in "ABCD"]

    @pytest.mark.parametrize("tables", [None, 3])
    def test_threads_sharing_an_engine_match_serial_runs(self, tables,
                                                         monkeypatch):
        spec = power_law_product(3.0, 12, True)
        if tables:
            monkeypatch.setattr(urns, "_TABLE_BUDGET",
                                tables * 16 * (spec.n_max + 1))

        def runs(eng, replicas):
            return [eng.run(5.0, replica_rng(78, r), record=True)
                    for r in replicas]
        serial = runs(CouplingEngine(spec), range(400))
        eng, out = CouplingEngine(spec), {}
        starts = range(0, 400, 100)
        barrier = threading.Barrier(len(starts))

        def work(replicas):
            barrier.wait()
            out[replicas.start] = runs(eng, replicas)
        threads = [threading.Thread(target=work, args=(range(a, a + 100),))
                   for a in starts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        shared = [st for a in starts for st in out[a]]
        assert len(shared) == len(serial)
        for a, b in zip(serial, shared):
            assert a.log == b.log
            assert np.array_equal(a.in_v, b.in_v)
            assert np.array_equal(a.in_u, b.in_u)

    RUN_SPECS = dict(SPECS, factorial_max_8=lambda: factorial_max(8, True))

    @pytest.mark.parametrize("tables", [None, 3])
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("name", sorted(RUN_SPECS))
    def test_run_equals_a_loop_of_steps(self, name, record, tables,
                                        monkeypatch):
        # run carries its table between epochs; step looks it up each call
        spec = self.RUN_SPECS[name]()
        if tables:
            monkeypatch.setattr(urns, "_TABLE_BUDGET",
                                tables * 16 * (spec.n_max + 1))

        def by_steps(eng, t, rng):
            # run's stop rule: a wait that would pass t ends the run
            state = eng.new_state()
            while True:
                before = rng.bit_generator.state
                if state.clock + rng.exponential(1.0 / 3.0) > t:
                    state.clock = t
                    return state
                rng.bit_generator.state = before
                eng.step(state, rng, record=record)
        a, b = CouplingEngine(spec), CouplingEngine(spec)
        for r in range(60):
            got = a.run(5.0, replica_rng(79, r), record=record)
            want = by_steps(b, 5.0, replica_rng(79, r))
            assert got.log == want.log
            assert np.array_equal(got.in_v, want.in_v)
            assert np.array_equal(got.in_u, want.in_u)
            assert (got.step, got.clock) == (want.step, want.clock)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("name", sorted(RUN_SPECS))
    def test_run_looks_up_a_table_only_after_a_change(self, name, record):
        # a null outcome leaves (V, U), and so the table, as it was
        eng = CouplingEngine(self.RUN_SPECS[name]())
        lookups, lookup = [], eng.epoch_table

        def spy(state):
            lookups.append(state.step)
            return lookup(state)
        eng.epoch_table = spy
        nulls = 0
        for r in range(100):
            log = eng.run(5.0, replica_rng(80, r), record=True).log
            del lookups[:]
            eng.run(5.0, replica_rng(80, r), record=record)
            changed = sum(rec[2] != "null" for rec in log)
            nulls += len(log) - changed
            assert len(lookups) <= changed + 1
        assert nulls > 0

    def test_direct_mask_writes_between_steps(self):
        # writes to the public masks must reach the next epoch exactly as a
        # fresh state with the same masks on a fresh engine sees them
        spec = power_law_product(3.0, 12, normalize=True)
        eng = CouplingEngine(spec)
        for k in range(200):
            rng = replica_rng(73, k)
            state = random_reachable_state(eng, rng)
            eng.step(state, rng)
            flip = np.random.default_rng(k).random((2, spec.n_max + 1)) < 0.2
            flip[:, 0] = False
            if k % 3 != 1:
                state.in_v[flip[0]] = True
            if k % 3 != 2:
                state.in_u[flip[1]] = True
            twin = CouplingState(in_v=state.in_v.copy(),
                                 in_u=state.in_u.copy(),
                                 step=state.step, clock=state.clock)
            fresh = CouplingEngine(spec)
            for _ in range(3):
                eng.step(state, replica_rng(74, k), record=True)
                fresh.step(twin, replica_rng(74, k), record=True)
            assert state.log == twin.log
            assert np.array_equal(state.in_v, twin.in_v)
            assert np.array_equal(state.in_u, twin.in_u)

    def test_table_matches_lambda_vector(self):
        spec = k_n_spec(6)
        eng = CouplingEngine(spec)
        rng = replica_rng(75, 0)
        state = eng.new_state()
        for _ in range(40):
            eng.step(state, rng)
            tab = eng.epoch_table(state)
            assert np.array_equal(tab.lam, eng.lambda_vector(state))
            assert not tab.lam.flags.writeable

    def test_wrappers_share_one_engine(self, monkeypatch):
        built = []
        init = CouplingEngine.__init__

        def counting(self, spec):
            built.append(spec)
            init(self, spec)
        monkeypatch.setattr(CouplingEngine, "__init__", counting)
        spec = k_n_spec(4)
        state = CouplingState.empty(4)
        assert coupling_lambda(state, spec, 1) == coupling_lambda(state,
                                                                  spec, 2)
        assert len(built) == 1
        run_coupling(spec, 1.0, replica_rng(76, 0))
        coupling_step(state, spec, replica_rng(76, 1))
        free = int(np.nonzero(~state.in_u[1:])[0][0]) + 1
        coupling_rate_audit(state, spec, free)
        prob_urn_without_vertex(state, spec)
        prob_double_new_vertices(state, spec)
        assert len(built) == 1
        # a normalized copy does not inherit the engine of its source
        raw = power_law_product(2.5, 10)
        coupling_lambda(CouplingState.empty(10), raw, 1)
        coupling_lambda(CouplingState.empty(10), raw.normalize(), 1)
        assert len(built) == 3


class TestDomination:
    def test_blue_without_vertex_below_double_new(self):
        # P(urn outcome for i outside V) <= P(edge outcome adding two
        # vertices), state by state
        for spec in (power_law_product(3.0, 10, normalize=True), k_n_spec(5)):
            eng = CouplingEngine(spec)
            for k in range(200):
                state = random_reachable_state(eng, replica_rng(60, k))
                p_blue = prob_urn_without_vertex(state, spec)
                p_double = prob_double_new_vertices(state, spec)
                assert p_blue <= p_double + 1e-12


class TestCouplingMarginals:
    def test_vertex_count_law(self):
        spec = k_n_spec(5)
        eng = CouplingEngine(spec)
        t = 4.0
        n = 8_000
        coupled = np.empty(n)
        direct = np.empty(n)
        for k in range(n):
            coupled[k] = eng.run(t, replica_rng(61, k)).in_v.sum()
        for k in range(n):
            traj = run_continuous(spec, t, replica_rng(62, k))
            direct[k] = len({v for ev in traj.events for v in ev.edge})
        assert ks_2samp(coupled, direct).statistic < 0.05

    def test_urn_count_law(self):
        spec = k_n_spec(5)
        eng = CouplingEngine(spec)
        t = 4.0
        n = 8_000
        coupled = np.empty(n)
        direct = np.empty(n)
        M = spec.marginals.M[1:]
        for k in range(n):
            coupled[k] = eng.run(t, replica_rng(63, k)).in_u.sum()
        for k in range(n):
            direct[k] = np.sum(replica_rng(64, k).exponential(1 / M) <= t)
        assert ks_2samp(coupled, direct).statistic < 0.05

    def test_eventual_equality_increases(self):
        spec = k_n_spec(5)
        eng = CouplingEngine(spec)
        n = 500
        freqs = []
        for t in (2.0, 10.0, 40.0):
            eq = sum(eng.run(t, replica_rng(65, k)).sets_equal()
                     for k in range(n))
            freqs.append(eq / n)
        assert freqs[0] <= freqs[1] <= freqs[2] + 0.02
        assert freqs[-1] > 0.95


def exact_respect(lam, tail):
    """The race recursion in rational arithmetic, subset by subset:
    f(S) = sum over i in S of lam_i f(S - {i}) / (tail + lam_S)."""
    lam, tail = [Fraction(x) for x in lam], Fraction(tail)
    f = {0: Fraction(1)}
    for s in sorted(range(1, 1 << len(lam)), key=lambda s: bin(s).count("1")):
        members = [i for i in range(len(lam)) if s >> i & 1]
        f[s] = sum(lam[i] * f[s ^ 1 << i] for i in members) \
            / (tail + sum(lam[i] for i in members))
    return f[(1 << len(lam)) - 1]


class TestRespectFactor:
    def test_single_rate_closed_form_exact(self):
        for lam, tail in ((1.0, 2.0), (0.3, 0.7), (5.0, 0.1)):
            assert respect_factor([lam], tail) == lam / (tail + lam)

    def test_two_rate_expansion(self):
        a, b, L = 1.0, 1.0, 1.0
        want = 1 - L / (L + a) - L / (L + b) + L / (L + a + b)
        got = respect_factor([a, b], L, method="subset-expansion")
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(1 / 3, rel=1e-14)

    def test_empty_block_is_one(self):
        assert respect_factor([], 1.0) == 1.0

    def test_unknown_method_refused(self):
        with pytest.raises(ValueError, match="unknown method 'simpson'"):
            respect_factor([1.0, 2.0], 1.0, method="simpson")

    def test_zero_rate_kills_factor(self):
        assert respect_factor([1.0, 0.0], 1.0) == 0.0

    def test_expansion_vs_quadrature(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            size = int(rng.integers(1, 9))
            lam = rng.uniform(0.05, 3.0, size)
            tail = float(rng.uniform(0.05, 3.0))
            ex = respect_factor(lam, tail, method="subset-expansion")
            qd = respect_factor(lam, tail, method="quadrature")
            assert abs(ex - qd) < 1e-10

    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=8),
           st.floats(0.01, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_expansion_vs_quadrature_property(self, lam, tail):
        ex = respect_factor(lam, tail, method="subset-expansion")
        qd = respect_factor(lam, tail, method="quadrature")
        assert abs(ex - qd) < 1e-8
        assert 0.0 <= ex <= 1.0

    def test_expansion_vs_quadrature_property_counterexample(self):
        # found by the property test above: the quadrature is 1.17e-8 off
        lam = [4.0, 1.015625, 1.515625, 2.0625, 2.0625, 0.5, 0.490234375]
        tail = 1.5185618768120088
        ex = respect_factor(lam, tail, method="subset-expansion")
        qd = respect_factor(lam, tail, method="quadrature")
        assert abs(ex - qd) < 1e-8

    def test_tail_mass_must_be_positive(self):
        with pytest.raises(ValueError):
            respect_factor([1.0], 0.0)

    @pytest.mark.parametrize("lam, tail, match", [
        ([np.nan, 1.0], 1.0, "rates"),
        ([2.0, 1.0], np.nan, "tail_mass"),
        ([1.0], np.inf, "tail_mass"),
        ([2.0, 1.0], np.inf, "tail_mass"),
        ([0.1] * 21, np.inf, "tail_mass")])
    def test_nan_and_infinite_inputs_rejected(self, lam, tail, match):
        # every method (closed form, expansion, quadrature) refuses them
        # instead of returning nan or warning
        with pytest.raises(ValueError, match=match):
            respect_factor(lam, tail)

    @pytest.mark.parametrize("method, rel", [("subset-expansion", 4e-15),
                                             ("quadrature", 1e-13)])
    def test_methods_match_rational_values(self, method, rel):
        # rates and tails on a 1/64 grid are exact in float64, so the
        # rational recursion gives each factor exactly
        rng = np.random.default_rng(69)
        for _ in range(60):
            lam = rng.integers(1, 64 * 8, int(rng.integers(1, 9))) / 64
            tail = int(rng.integers(1, 64 * 8)) / 64
            want = exact_respect(lam, tail)
            got = respect_factor(lam, tail, method=method)
            assert abs(Fraction(got) - want) <= rel * want

    def test_methods_agree_across_twelve_decades(self):
        rng = np.random.default_rng(70)
        for _ in range(40):
            lam = 10.0 ** rng.uniform(-6, 6, int(rng.integers(1, 17)))
            tail = 10.0 ** rng.uniform(-6, 6)
            ex = respect_factor(lam, tail, method="subset-expansion")
            qd = respect_factor(lam, tail, method="quadrature")
            assert qd == pytest.approx(ex, rel=1e-10, abs=0)

    @pytest.mark.parametrize("k", range(13, 21))
    def test_quadrature_blocks_across_twelve_decades(self, k):
        # the blocks that get the quadrature by default, up to the
        # recursion's cap of 20 rates
        rng = np.random.default_rng([32013, k])
        for _ in range(5):
            lam = 10.0 ** rng.uniform(-6, 6, k)
            tail = 10.0 ** rng.uniform(-6, 6)
            want = urns._race_recursion(lam, tail)
            got = respect_factor(lam, tail, method="quadrature")
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_equal_rate_blocks_past_the_recursion(self):
        # while j equal rates are left, one of them rings before the tail
        # with chance j lam / (j lam + tail), whatever rang before.  Rates
        # and tails within 1e-3..1e3 keep every product in the normal range
        rng = np.random.default_rng(32021)
        for lam, tail in 10.0 ** rng.uniform(-3, 3, (3, 2)):
            for k in range(21, 41):
                want = math.prod(j * lam / (j * lam + tail)
                                 for j in range(1, k + 1))
                assert respect_factor([lam] * k, tail) \
                    == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n, want", [(10, 1.2887e-17), (14, 1.1481e-29),
                                         (18, 4.8132e-43)])
    def test_tiny_power_law_factors(self, n, want):
        # the alternating expansion read these as 0, 7.8e-16 and 1.5e-13
        spec = power_law_product(2.5, 25)
        lam = spec.w[spec.ej == n]
        tail = float(spec.w[spec.ej > n].sum()) + spec.off_window_mass
        ex = respect_factor(lam, tail, method="subset-expansion")
        qd = respect_factor(lam, tail, method="quadrature")
        assert ex == pytest.approx(want, rel=1e-4)
        assert qd == pytest.approx(ex, rel=1e-12, abs=0)

    def test_subset_recursion_takes_at_most_20_rates(self):
        assert 0 < respect_factor([1.0] * 20, 0.5,
                                  method="subset-expansion") < 1
        with pytest.raises(ValueError, match="at most 20"):
            respect_factor([1.0] * 21, 0.5, method="subset-expansion")

    def test_quadrature_raises_when_it_does_not_converge(self, monkeypatch):
        # with levels 0-2 alone the step is 1/4, whose sums are far from
        # agreeing to 1e-14
        monkeypatch.setattr(urns, "_ES_FIRST", 2)
        monkeypatch.setattr(urns, "_ES_LAST", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            respect_factor([1.0, 2.0], 1.0, method="quadrature")

    @pytest.mark.parametrize("lam, tail", [
        ([1e-300, 1.0], 1.0), ([1e-310, 1.0], 1.0), ([1e-315, 1.0], 1.0),
        ([5e-324, 1.0], 1.0), ([1e-10, 1e300], 1e300),
        ([5e-324, 1.0], 10.0), ([1e-320, 1.0], 1e10),
        ([5e-324, 2.5, 1e-320], 1.0), ([5e-324] + [1.0] * 13, 1.0)])
    def test_subnormal_ratios(self, lam, tail):
        # a subnormal ratio r keeps a few bits of u r: tanh-sinh did not
        # converge on that staircase (status -2) while r stayed in the
        # integrand, nor on a ratio that underflows to 0 (status -3).  The
        # recursion rounds to 0 below the normal range.
        want = respect_factor(lam, tail, method="subset-expansion")
        tol = ({"rel": 1e-12, "abs": 0} if want >= np.finfo(float).tiny
               else {"rel": 0, "abs": 1e-320})
        assert respect_factor(lam, tail, method="quadrature") \
            == pytest.approx(want, **tol)

    @pytest.mark.parametrize("method", [None, "subset-expansion",
                                        "quadrature"])
    def test_infinite_rates_ring_first(self, method):
        # an infinite rate's clock rings at 0, before the tail's
        assert respect_factor([np.inf], 1.0, method=method) == 1.0
        assert respect_factor([np.inf, 1.0], 1.0, method=method) \
            == pytest.approx(0.5, rel=1e-13)
        assert respect_factor([np.inf, 0.0], 1.0, method=method) == 0.0
        # so does a finite rate whose ratio to the tail overflows
        assert respect_factor([1e300, 1.0], 1e-300, method=method) == 1.0


class TestUrnsInOrder:
    def test_single_urn(self):
        rep = urns_in_order([1.0])
        assert rep.partial_product == 1.0
        assert rep.verdict == "positive-analytic"

    def test_geometric_rates_exact(self):
        lam = 2.0 ** -np.arange(1, 11)
        rep = urns_in_order(lam, tail_sum=float(lam[-1]))  # tail = 2^-10
        assert rep.partial_product == 2.0 ** -10
        assert all(f == 0.5 for f in rep.factors)
        assert rep.verdict == "zero-analytic"

    def test_triple_exponential_rates_stabilize_positive(self):
        lam = np.exp(-(3.0 ** np.arange(1, 6)))
        tail = float(lam[-1]) * 1e-8  # vanishing beyond the window
        rep = urns_in_order(lam, tail_sum=tail)
        assert rep.verdict == "positive-analytic"
        assert rep.partial_product > 0.99
        # stabilization: the last factors are essentially 1
        assert rep.factors[-1] > 1 - 1e-6

    def test_partial_product_non_increasing(self):
        lam = np.exp(-0.5 * np.arange(1, 12))
        prods = np.cumprod(urns_in_order(lam, tail_sum=0.1).factors)
        assert all(a >= b for a, b in zip(prods, prods[1:]))

    def test_inconclusive_without_tail_argument(self):
        rep = urns_in_order([3.0, 1.0, 2.0], tail_sum=5.0)
        assert rep.verdict == "inconclusive"

    def test_prefix_must_be_positive(self):
        # every rate is read: a zero or NaN anywhere, or no rate at all, is one
        # ValueError, never a division by zero
        for lam, tail in (([1.0, 0.0, 2.0], 0.0), ([1.0, 0.0, 0.5], 0.1),
                          ([0.5, 1.0, 0.0], 0.0), ([], 0.1),
                          ([np.nan, 2.0], 0.0)):
            with pytest.raises(ValueError, match="all positive"):
                urns_in_order(lam, tail_sum=tail)

    @pytest.mark.parametrize("lam", [[np.inf, 1.0], [1.0, np.inf],
                                     [np.inf]])
    def test_infinite_rates_rejected(self, lam):
        # urns of infinite rate all fill at time 0: their order is a tie
        with pytest.raises(ValueError, match="finite"):
            urns_in_order(lam, tail_sum=0.5)

    @pytest.mark.parametrize("tail", [-5.0, np.nan, np.inf])
    def test_unusable_tail_rejected(self, tail):
        # a tail of -5 gave factors below 0
        with pytest.raises(ValueError, match="tail_sum"):
            urns_in_order([1.0, 2.0], tail_sum=tail)

    def test_in_order_monte_carlo(self):
        lam = 2.0 ** -np.arange(1, 13)
        rep = urns_in_order(lam)
        n = 20_000
        tau = replica_rng(67, 0).exponential(1 / lam, size=(n, len(lam)))
        order = np.argsort(tau, axis=1)
        for k in (1, 3, 5):
            prod = float(np.prod(rep.factors[:k]))
            freq = float(np.mean(np.all(order[:, :k] == np.arange(k), axis=1)))
            se = np.sqrt(prod * (1 - prod) / n)
            assert abs(freq - prod) < 3 * se


class TestEssentialCompletenessProduct:
    def test_factorial_max_positive_stabilizing(self):
        spec = factorial_max(8)
        rep = essential_completeness_product(spec, 7)
        assert rep.verdict == "positive-analytic"
        assert rep.partial_product > 0.9
        # stabilization: factors climb toward 1, so the per-block product
        # decrements shrink
        factors = np.asarray(rep.factors)
        assert np.all(np.diff(factors) > 0)
        assert factors[-1] > 0.98

    def test_factorial_max_quadrature_blocks_equal_rate_closed_form(self):
        # blocks 22-24 hold n - 1 equal rates lam, so each factor is
        # prod_{j<n} j lam / (j lam + tail): 0.999713, 0.999744, 0.999761
        spec = factorial_max(24)
        rep = essential_completeness_product(spec, 23)
        for n in (22, 23, 24):
            lam = spec.w[spec.ej == n][0]
            tail = float(spec.w[spec.ej > n].sum()) + spec.off_window_mass
            want = np.prod([j * lam / (j * lam + tail) for j in range(1, n)])
            assert abs(rep.factors[n - 2] - want) < 1e-9

    def test_other_family_is_inconclusive(self):
        rep = essential_completeness_product(
            first_rank([1.0, 0.5, 0.25, 0.125]), 3)
        assert rep.verdict == "inconclusive"
        assert rep.verdict_basis == "no analytic tail argument for this family"

    def test_power_law_decays_to_zero(self):
        spec = power_law_product(2.5, 25)
        prods = [essential_completeness_product(spec, b).partial_product
                 for b in (2, 4, 8, 16)]
        assert all(a > b or a == b == 0.0 for a, b in zip(prods, prods[1:]))
        assert prods[-1] < 1e-12
        assert essential_completeness_product(spec, 4).verdict \
            == "zero-analytic"

    def test_zero_block_gives_zero_product(self):
        # no mass on {1,3}: vertex 3 can never complete the prefix in order
        spec = explicit([((1, 2), 0.5), ((2, 3), 0.5)])
        rep = essential_completeness_product(spec, 2)
        assert rep.partial_product == 0.0
        assert rep.verdict == "zero-analytic"

    def test_zero_block_is_closed_form(self, monkeypatch):
        # block 3 misses {1, 3} while {3, 4} and {1, 4} give it a tail: its
        # factor is 0 without a respect factor run
        spec = explicit([((1, 2), 1.0), ((2, 3), 1.0), ((3, 4), 1.0),
                         ((1, 4), 1.0)])
        calls, factor = [], urns.respect_factor
        monkeypatch.setattr(urns, "respect_factor",
                            lambda *a: calls.append(a) or factor(*a))
        rep = essential_completeness_product(spec, 3)
        assert rep.factors == (0.25, 0.0, 0.0)
        assert rep.methods == ("subset-expansion", "closed-form",
                               "closed-form")
        assert len(calls) == 1

    @pytest.mark.parametrize("blocks", [0, 5, 6])
    def test_blocks_must_stay_in_the_window(self, blocks):
        with pytest.raises(ValueError, match="blocks_used"):
            essential_completeness_product(factorial_max(5), blocks)

    def test_subnormal_pair_in_a_quadrature_block(self):
        spec = explicit([((i, j), m) for i, j, m in subnormal_block_edges()])
        rep = essential_completeness_product(spec, 15)
        assert rep.methods[13] == "quadrature"
        assert rep.factors[13] == 0.0 and rep.partial_product == 0.0
        for n in range(2, 16):
            lam = spec.w[spec.ej == n]
            tail = float(spec.w[spec.ej > n].sum())
            want = respect_factor(lam, tail, method="subset-expansion")
            assert rep.factors[n - 2] == pytest.approx(want, rel=1e-12,
                                                       abs=1e-320)

    def test_underflowed_pairs_keep_the_family_verdict(self):
        # exp(-3^4 - 3^6) and exp(-3^5 - 3^6) underflow, so block 6 misses
        # pairs that the family gives positive mass
        spec = double_exp(6)
        assert spec.mass((5, 6)) == 0.0
        rep = essential_completeness_product(spec, 5)
        assert rep.verdict == "positive-analytic"
        assert "blocks n = [6] underflow" in rep.verdict_basis
        full = essential_completeness_product(factorial_max(5), 4)
        assert full.verdict == "positive-analytic"
        assert "underflow" not in full.verdict_basis
        assert full.partial_product == pytest.approx(0.9385, abs=1e-4)

    def test_chebyshev_ordering_monte_carlo(self):
        # frequency of "first arrivals are exactly the edges with max
        # endpoint <= 3, in block order" must beat the product bound
        spec = factorial_max(5)
        rep = essential_completeness_product(spec, 2)  # blocks n = 2, 3
        n = 4_000
        hits = 0
        k_edges = {(1, 2), (1, 3), (2, 3)}
        i12 = spec.edges.index((1, 2))
        i13 = spec.edges.index((1, 3))
        i23 = spec.edges.index((2, 3))
        for k in range(n):
            tau = replica_rng(68, k).exponential(1.0 / spec.w)
            first = np.argsort(tau)[:3]
            got = {(int(spec.ei[m]), int(spec.ej[m])) for m in first}
            ordered = tau[i12] < min(tau[i13], tau[i23])  # block C_2 first
            hits += got == k_edges and ordered
        bound = rep.partial_product
        se = np.sqrt(bound * (1 - bound) / n)
        assert hits / n >= bound - 3 * se


class _NoDraws:
    """An rng that fails on any draw."""

    def exponential(self, *args, **kwargs):
        raise AssertionError("drew before checking the horizon")


@pytest.mark.parametrize("horizon", [-1.0, 0.0, np.nan, np.inf])
def test_coupling_rejects_unusable_horizon(horizon):
    # the epoch loop needs an end, and a negative one would run the clock
    # backwards
    with pytest.raises(ValueError, match="horizon"):
        run_coupling(k_n_spec(4), horizon, _NoDraws())


class TestCouplingTrace:
    def test_csv_export(self, tmp_path):
        spec = k_n_spec(4)
        state = run_coupling(spec, 5.0, replica_rng(69, 0), record=True)
        out = tmp_path / "trace.csv"
        from edgeproc.urns import coupling_trace_to_csv
        coupling_trace_to_csv(state, out, header_lines=["seed: 69"])
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed: 69"
        assert lines[1].startswith("step,clock,chi_kind")
        assert len(lines) == 2 + len(state.log)


OUT_OF_RANGE = {
    "lambda_negative": (lambda st, s: coupling_lambda(st, s, -1), "1..6"),
    "lambda_zero": (lambda st, s: coupling_lambda(st, s, 0), "1..6"),
    "lambda_past_window": (lambda st, s: coupling_lambda(st, s, 7), "1..6"),
    "audit_negative": (lambda st, s: coupling_rate_audit(st, s, -1), "1..6"),
    "audit_zero": (lambda st, s: coupling_rate_audit(st, s, 0), "1..6"),
    "audit_past_window": (lambda st, s: coupling_rate_audit(st, s, 7),
                          "1..6"),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_ids_and_prefixes_rejected(name):
    # numpy would read a negative id as vertex n_max + 1 + i
    spec = power_law_product(3.0, 6, normalize=True)
    call, match = OUT_OF_RANGE[name]
    with pytest.raises(ValueError, match=match):
        call(CouplingState.empty(spec.n_max), spec)
