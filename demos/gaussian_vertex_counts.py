"""Gaussian fluctuations of the vertex count |V_t|.

The vertex count behaves like an occupied-urn count with rates M_i; its
standardized law approaches a normal.  Standardization uses the analytic mean
sum(1 - e^{-M_i t}) and the analytic vertex-count variance, never sample
moments.

Run:  python3 demos/gaussian_vertex_counts.py
"""

import numpy as np

from edgeproc import isolated_edges, power_law_product
from edgeproc import analytic
from edgeproc import montecarlo as mc


def main():
    print("=== variance sandwich: V[|U_t|] <= V[|V_t|] <= V[|U_t|] + sum mu/M ===")
    spec = power_law_product(2.5, 100, normalize=True)
    for t in (2.0, 10.0, 40.0):
        lo, ex, up = analytic.variance_sandwich(spec, t)
        print(f"t={t:5.1f}: urn var {lo:.4f} <= exact {ex:.4f} <= upper {up:.4f}")

    print("\n=== CLT diagnostic on isolated edges (vertices = 2x binomial) ===")
    iso = isolated_edges(np.full(200, 1.0))
    for t in (0.3, 0.7):
        rep = mc.clt_diagnostic(iso, t, replicas=3000, seed=2)
        print(f"t={t}: standardized mean {rep.mean:+.3f}, "
              f"variance {rep.variance:.3f}, KS vs N(0,1) = "
              f"{rep.ks_statistic:.4f}")

    print("\n=== CLT in the connected regime (power-law, gamma=2.5) ===")
    plp = power_law_product(2.5, 300)
    for t in (3e4, 3e5):
        rep = mc.clt_diagnostic(plp, t, replicas=2000, seed=3)
        warn = "  [low-variance warning]" if rep.low_variance_warning else ""
        print(f"t={t:8.0f}: analytic variance {rep.normalization[1]:6.1f}, "
              f"KS = {rep.ks_statistic:.4f}{warn}")
    print("(KS shrinks as t grows and the count sums more independent urns)")


if __name__ == "__main__":
    main()
