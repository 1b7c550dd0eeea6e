"""Respect factors, in-order urn filling, and essential completeness.

A vertex set is essentially complete when it is a prefix {1, ..., m}, possibly
plus one extra vertex.  Whether the process stays essentially complete forever
comes down to an infinite product of respect factors: per block, the chance
that every rate in the block beats an exponential tail clock.

Run:  python3 demos/essential_completeness.py
"""

import numpy as np

from edgeproc import factorial_max, power_law_product
from edgeproc import montecarlo as mc
from edgeproc.urns import (
    essential_completeness_product,
    respect_factor,
    urns_in_order,
)


def main():
    print("=== respect factors ===")
    print("single rate vs tail: lambda/(tail + lambda) =",
          respect_factor([1.0], 2.0))
    print("block of three equal rates vs tail 0.5:",
          f"{respect_factor([1.0, 1.0, 1.0], 0.5):.6f}")

    print("\n=== urns filled in index order ===")
    lam = 0.5 ** np.arange(1, 11)
    geo = urns_in_order(lam, tail_sum=lam[-1])
    print(f"geometric rates 2^-n: product {geo.partial_product:.3e} "
          f"(exact 2^-10 = {2.0 ** -10:.3e}) -> {geo.verdict}")
    fast = np.exp(-3.0 ** np.arange(1, 6))
    pos = urns_in_order(fast, tail_sum=fast[-1] * 1e-8)
    print(f"rates e^(-3^n):       product {pos.partial_product:.4f} "
          f"-> {pos.verdict}")

    print("\n=== completeness products per family ===")
    fm = factorial_max(8)
    rep = essential_completeness_product(fm, 7)
    print("factorial-max, 7 blocks:")
    print("  factors:", " ".join(f"{f:.4f}" for f in rep.factors))
    print(f"  product {rep.partial_product:.4f} -> {rep.verdict}")
    plp = power_law_product(2.5, 25)
    print("power-law gamma=2.5, growing block counts:")
    for b in (2, 4, 8, 16):
        p = essential_completeness_product(plp, b).partial_product
        print(f"  {b:2d} blocks: product {p:.3e}")

    print("\n=== simulated completeness frequency at t = 50 ===")
    for name, spec in [("factorial-max(8)", fm),
                       ("power-law(2.5, 8)", power_law_product(2.5, 8))]:
        est = mc.estimate_event(spec, ("essentially_complete",), 50.0,
                                400, seed=5)
        print(f"{name:20s} P(essentially complete) ~ {est.estimate:.3f}")


if __name__ == "__main__":
    main()
