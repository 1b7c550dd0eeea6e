"""Connectedness of the continuous-time graph process.

The partial sums of mu_e / M_e decide long-run connectivity: when the series
converges (and the support is connected) the graph is eventually forever
connected; when it diverges, new isolated components keep appearing.  For the
power-law product family mu_ij ~ (ij)^-gamma the threshold is gamma = 2.

Run:  python3 demos/connectedness_dichotomy.py
"""

import numpy as np

from edgeproc import power_law_product
from edgeproc.analytic import connectedness_series, prob_Ie
from edgeproc import montecarlo as mc


def main():
    print("=== the analytic criterion: sum of mu_e / M_e ===")
    for gamma in (2.5, 1.5):
        spec = power_law_product(gamma, 100)
        rep = connectedness_series(spec)
        print(f"gamma={gamma}: partial sum {rep.partial_sum:.4f} over "
              f"{rep.terms_used} edges -> {rep.verdict} ({rep.verdict_basis})")

    print("\npartial sums as the window doubles (gamma=1.5 keeps climbing):")
    for w in (50, 100, 200, 400):
        s = connectedness_series(power_law_product(1.5, w)).partial_sum
        print(f"  window {w:4d}: {s:.3f}")

    print("\n=== simulated new-component (I) events and connectivity ===")
    grid = np.arange(5.0, 51.0, 5.0)
    for gamma in (2.5, 1.5):
        spec = power_law_product(gamma, 100, normalize=True)
        ic, conn = mc.connectivity_growth(spec, grid, 400, seed=1)
        tag = "plateaus" if mc.plateaued(grid, ic) else "still growing"
        print(f"gamma={gamma}: mean I-count {ic[0]:.2f} -> {ic[-1]:.2f} "
              f"({tag}); P(connected at t=50) ~ {conn[-1]:.3f}")

    print("\nper-edge I probabilities are exact: P(I_e) = mu_e / M_e")
    spec = power_law_product(2.5, 20)
    for e in [(1, 2), (3, 4), (10, 11)]:
        print(f"  P(I_{e}) = {prob_Ie(spec, e):.5f}")


if __name__ == "__main__":
    main()
