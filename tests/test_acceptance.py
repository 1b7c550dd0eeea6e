"""Acceptance gate: twelve end-to-end checks at pinned seeds and tolerances.

Each test prints one pass/fail line (run pytest with -s to see them all).
"""

import itertools

import numpy as np
import pytest
from scipy.stats import ks_2samp

from edgeproc import analytic, montecarlo as mc
from edgeproc.measure import (
    explicit,
    factorial_max,
    isolated_edges,
    power_law_product,
    first_rank,
)
from edgeproc.process import replica_rng
from edgeproc.urns import (
    CouplingEngine,
    coupling_rate_audit,
    essential_completeness_product,
    respect_factor,
    urns_in_order,
)

from conftest import (
    path_spec,
    random_explicit_spec,
    single_edge_spec,
    triangle_spec,
    two_edge_spec,
)

THREADS = 4


def report(number, title, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {number:2d}: {title}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_01_i_event_probability():
    rep = mc.estimate_event(triangle_spec(), ("I", (1, 2)), 200.0, 100_000,
                            1001, threads=THREADS)
    ok = abs(rep.z_score) < 3
    report(1, "triangle P(I_e) within 3 sigma of 1/3", ok,
           f"estimate={rep.estimate:.5f} z={rep.z_score:.2f}")


def test_02_joint_probability():
    path = path_spec()
    rep = mc.estimate_event(path, ("I_joint", (1, 2), (3, 4)), 200.0,
                            100_000, 1002, threads=THREADS)
    sharing = mc.estimate_event(path, ("I_joint", (1, 2), (2, 3)), 200.0,
                                100_000, 1003, threads=THREADS)
    ok = abs(rep.z_score) < 3 and sharing.estimate == 0.0
    report(2, "path joint within 3 sigma of 1/3; sharing pair exactly 0", ok,
           f"z={rep.z_score:.2f} sharing={sharing.estimate}")


def test_03_half_bound():
    rng = np.random.default_rng(1004)
    checked = 0
    worst = 1.0
    ok = True
    for _ in range(1000):
        spec = random_explicit_spec(rng, max_vertex=8)
        for e in spec.edges:
            for f in spec.edges:
                if e >= f or set(e) & set(f):
                    continue
                r = analytic.joint_ratio(spec, e, f)
                checked += 1
                worst = min(worst, r)
                ok = ok and 0.5 < r <= 1.0
    report(3, "joint ratio in (1/2, 1] on 10^3 random specs", ok,
           f"pairs={checked} min ratio={worst:.4f}")


def test_04_connectedness_dichotomy():
    grid = np.arange(5.0, 51.0, 5.0)
    # normalized: puts the convergent case on the unit-mass clock so the
    # horizon covers the interesting range (rescaling mass = rescaling time)
    conv = power_law_product(2.5, 200, normalize=True)
    ic_c, conn = mc.connectivity_growth(conv, grid, 1000, 2005,
                                        threads=THREADS)
    div = power_law_product(1.5, 200)
    ic_d = mc.i_event_growth(div, grid, 1000, 1006, threads=THREADS)
    div2 = power_law_product(1.5, 400)
    ic_d2 = mc.i_event_growth(div2, grid, 1000, 1007, threads=THREADS)
    conv_ok = mc.plateaued(grid, ic_c) and conn[-1] > 0.95
    div_ok = (not mc.plateaued(grid, ic_d)) and ic_d2[-1] > ic_d[-1]
    report(4, "gamma=2.5 plateaus+connects; gamma=1.5 keeps growing",
           conv_ok and div_ok,
           f"conn={conn[-1]:.3f} growth={ic_d[-1]:.2f}->"
           f"{ic_d2[-1]:.2f} at doubled window")


def _moment_check(spec, ts, seed):
    n = 100_000
    vc = mc.vertex_count_samples(spec, ts, n, seed, threads=THREADS)
    uc = mc.urn_count_samples(spec, ts, n, seed + 1, threads=THREADS)
    ok = True
    details = []
    for row_v, row_u, t in zip(vc, uc, ts):
        mean_target = analytic.expected_vertices(spec, t)
        lo, ex, up = analytic.variance_sandwich(spec, t)
        z_mean = (row_v.mean() - mean_target) / np.sqrt(max(ex, 1e-12) / n)
        se_u = mc.variance_standard_error(row_u)
        z_uvar = (row_u.var(ddof=1) - lo) / max(se_u, 1e-12)
        se_v = mc.variance_standard_error(row_v)
        v_var = row_v.var(ddof=1)
        in_sandwich = lo - 4 * se_v <= v_var <= up + 4 * se_v
        ok = ok and abs(z_mean) < 4 and abs(z_uvar) < 4 and in_sandwich
        details.append(f"t={t}: z_mean={z_mean:.2f} z_uvar={z_uvar:.2f}")
    return ok, "; ".join(details)


def test_05_moment_formulas():
    ok1, d1 = _moment_check(single_edge_spec(), [0.3, 1.0, 3.0], 1008)
    rng = np.random.default_rng(1010)
    spec = random_explicit_spec(rng, max_vertex=14, n_edges=20)
    ok2, d2 = _moment_check(spec, [0.3, 1.0, 3.0], 1011)
    report(5, "vertex mean / urn variance / sandwich at 4 sigma", ok1 and ok2,
           f"single[{d1}] random[{d2}]")


def test_06_covariance_identity():
    rng = np.random.default_rng(1012)
    spec = random_explicit_spec(rng, max_vertex=14, n_edges=20)
    t = 1.0
    n = 100_000
    pres, verts = mc.vertex_presence_samples(spec, t, n, 1013)
    joint = (pres.astype(np.float64).T @ pres.astype(np.float64)) / n
    means = pres.mean(axis=0)
    ok = True
    worst_z = 0.0
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            i, j = int(verts[a]), int(verts[b])
            target = analytic.prob_both_vertices(spec, i, j, t)
            se = np.sqrt(max(target * (1 - target), 1e-12) / n)
            z = (joint[a, b] - target) / se
            worst_z = max(worst_z, abs(z))
            ok = ok and abs(z) < 4
            mu = spec.mass((i, j))
            if mu > 0:
                cov = joint[a, b] - means[a] * means[b]
                ok = ok and cov < mu / spec.edge_mass((i, j))
    report(6, "pair presence probabilities and covariance bound", ok,
           f"worst |z|={worst_z:.2f} over {len(verts)} vertices")


def _k_complete_spec(n):
    edges = list(itertools.combinations(range(1, n + 1), 2))
    return explicit([(e, 1.0 / len(edges)) for e in edges], normalize=True)


def test_07_coupling_audit():
    audit_ok = True
    worst = 0.0
    for spec in (power_law_product(3.0, 12, normalize=True),
                 _k_complete_spec(6)):
        eng = CouplingEngine(spec)
        for k in range(500):
            rng = replica_rng(1014, k)
            state = eng.new_state()
            for _ in range(int(rng.integers(0, 30))):
                eng.step(state, rng)
            free = [i for i in range(1, spec.n_max + 1)
                    if not state.in_u[i] and spec.marginals[i] > 0]
            if not free:
                continue
            i = int(rng.choice(free))
            err = abs(coupling_rate_audit(state, spec, i, engine=eng)
                      - spec.marginals[i])
            worst = max(worst, err)
            audit_ok = audit_ok and err < 1e-12

    k6 = _k_complete_spec(6)
    eng = CouplingEngine(k6)
    t = 5.0
    n = 10_000
    coupled = np.empty(n)
    direct = np.empty(n)
    M = k6.marginals.M[1:]
    for k in range(n):
        coupled[k] = eng.run(t, replica_rng(1015, k)).in_u.sum()
    for k in range(n):
        direct[k] = np.sum(replica_rng(1016, k).exponential(1 / M) <= t)
    ks = ks_2samp(coupled, direct).statistic

    eq = sum(eng.run(50.0, replica_rng(1017, k)).sets_equal()
             for k in range(500))
    eq_freq = eq / 500

    ok = audit_ok and ks < 0.05 and eq_freq > 0.95
    report(7, "rate audit 1e-12; urn-law KS < 0.05; V=U freq > 0.95", ok,
           f"max audit err={worst:.1e} ks={ks:.4f} eq={eq_freq:.3f}")


def test_08_clt_diagnostics():
    cases = [
        ("isolated-400", isolated_edges(np.full(400, 1.0)), (0.5, 0.8)),
        ("first-rank-500",
         first_rank(np.arange(1, 501, dtype=float) ** -2), (2e4, 5e4)),
        ("power-law-500", power_law_product(2.5, 500), (1.5e5, 4e5)),
    ]
    ok = True
    details = []
    for name, spec, ts in cases:
        stats = [mc.clt_diagnostic(spec, t, 4000, 7,
                                   threads=THREADS).ks_statistic for t in ts]
        ok = ok and all(s < 0.05 for s in stats) \
            and stats[1] <= stats[0] + 0.01
        details.append(f"{name}: ks={stats[0]:.4f}->{stats[1]:.4f}")
    report(8, "standardized vertex count KS < 0.05, non-increasing in t",
           ok, "; ".join(details))


def test_09_respect_factors():
    rng = np.random.default_rng(1018)
    ok = True
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 9))
        lam = rng.uniform(0.05, 4.0, size)
        tail = float(rng.uniform(0.05, 4.0))
        delta = abs(respect_factor(lam, tail, method="subset-expansion")
                    - respect_factor(lam, tail, method="quadrature"))
        worst = max(worst, delta)
        ok = ok and delta < 1e-10
    for lam, tail in ((1.0, 2.0), (0.125, 0.25), (3.0, 0.5)):
        ok = ok and respect_factor([lam], tail) == lam / (tail + lam)
    report(9, "expansion vs quadrature 1e-10; single-block closed form exact",
           ok, f"max delta={worst:.1e}")


def test_10_in_order_urns():
    lam = 2.0 ** -np.arange(1, 13)
    geo = urns_in_order(lam[:10], tail_sum=float(lam[9]))
    geo_ok = geo.partial_product == 2.0 ** -10 \
        and geo.verdict == "zero-analytic"

    tri = np.exp(-(3.0 ** np.arange(1, 6)))
    pos = urns_in_order(tri, tail_sum=float(tri[-1]) * 1e-8)
    pos_ok = pos.verdict == "positive-analytic" and pos.partial_product > 0.99

    full = urns_in_order(lam)
    n = 20_000
    tau = replica_rng(1019, 0).exponential(1 / lam, size=(n, len(lam)))
    order = np.argsort(tau, axis=1)
    mc_ok = True
    worst_z = 0.0
    for k in range(1, 7):
        prod = float(np.prod(full.factors[:k]))
        freq = float(np.mean(np.all(order[:, :k] == np.arange(k), axis=1)))
        z = (freq - prod) / np.sqrt(prod * (1 - prod) / n)
        worst_z = max(worst_z, abs(z))
        mc_ok = mc_ok and abs(z) < 3
    report(10, "geometric product exact; e^(-3^i) positive; in-order MC 3 sigma",
           geo_ok and pos_ok and mc_ok,
           f"geo={geo.partial_product:.3e} pos={pos.partial_product:.4f} "
           f"worst |z|={worst_z:.2f}")


def test_11_essential_completeness():
    fm = factorial_max(8)
    prod7 = essential_completeness_product(fm, 7)
    factors = np.asarray(prod7.factors)
    fm_prod_ok = prod7.verdict == "positive-analytic" \
        and prod7.partial_product > 0.8 \
        and np.all(np.diff(factors) > 0) and factors[-1] > 0.98
    freq = mc.estimate_event(fm, ("essentially_complete",), 50.0, 1000,
                             1020, threads=THREADS).estimate
    fm_ok = fm_prod_ok and freq >= 0.80

    plp = power_law_product(2.5, 25)
    prods = [essential_completeness_product(plp, b).partial_product
             for b in (2, 4, 8, 16)]
    plp_prod_ok = all(a > b or a == b == 0.0
                      for a, b in zip(prods, prods[1:])) and prods[-1] < 1e-12
    f4 = mc.estimate_event(power_law_product(2.5, 4),
                           ("essentially_complete",), 50.0, 1000, 1021,
                           threads=THREADS).estimate
    f8 = mc.estimate_event(power_law_product(2.5, 8),
                           ("essentially_complete",), 50.0, 1000, 1022,
                           threads=THREADS).estimate
    plp_ok = plp_prod_ok and f8 < f4
    report(11, "factorial-max stays complete; power-law completeness decays",
           fm_ok and plp_ok,
           f"fm product={prod7.partial_product:.4f} freq={freq:.3f}; "
           f"plp freq {f4:.3f}->{f8:.3f}")


def test_12_depoissonization():
    d0 = mc.depoissonization_agreement(single_edge_spec(), 2, 100_000, 1023)
    d2 = mc.depoissonization_agreement(two_edge_spec(), 2, 100_000, 1024)
    d3 = mc.depoissonization_agreement(triangle_spec(), 3, 100_000, 1025)
    ok = d0 == 0.0 and d2 < 0.02 and d3 < 0.02
    report(12, "discrete vs arrival-stopped laws agree (L1 < 0.02)", ok,
           f"single={d0} two-edge={d2:.4f} triangle={d3:.4f}")
