"""The exp(3) coupling between the vertex process and an urn scheme.

Each epoch waits an Exp(3) clock, then a single uniform draw picks an outcome
chi: an urn index (rate lambda^(i)/3), an edge (rate mu_e/3), or nothing.  A
colored branch table keeps both marginals exact: the urn set fills at rate
M_i per urn, while the vertex set evolves like the graph process.  In the
connected regime the two sets coincide for all large t.

Run:  python3 demos/coupling_walkthrough.py
"""

import itertools

import numpy as np

from edgeproc import explicit
from edgeproc.process import replica_rng
from edgeproc.urns import CouplingEngine, coupling_rate_audit


def k_complete(n):
    edges = list(itertools.combinations(range(1, n + 1), 2))
    return explicit([(e, 1.0 / len(edges)) for e in edges], normalize=True)


def main():
    spec = k_complete(5)
    eng = CouplingEngine(spec)

    print("=== one recorded run ===")
    state = eng.run(6.0, replica_rng(0, 4), record=True)
    print("step  clock   outcome        branch   |V|  |U|  V==U")
    for step, clock, kind, value, color, v, u, eq in state.log[:15]:
        print(f"{step:4d}  {clock:5.2f}   {kind:5s} {value:8s} {color:8s}"
              f" {v:3d}  {u:3d}  {eq}")
    if len(state.log) > 15:
        print(f"... {len(state.log) - 15} more epochs")
    print("final: V =", np.flatnonzero(state.in_v).tolist(),
          " U =", np.flatnonzero(state.in_u).tolist())

    print("\n=== the rate audit: urn i fills at rate M_i in every state ===")
    for k in (1, 2, 3):
        rng = replica_rng(1, k)
        st = eng.new_state()
        for _ in range(int(rng.integers(0, 10))):
            eng.step(st, rng)
        i = next((i for i in range(1, 6) if not st.in_u[i]), None)
        if i is None:
            st = eng.new_state()
            i = 1
        audited = coupling_rate_audit(st, spec, i, engine=eng)
        print(f"random state {k}: 3p for urn {i} = {audited:.15f}"
              f"  (M_{i} = {spec.marginals[i]:.15f})")

    print("\n=== the sets merge as t grows ===")
    n = 300
    for t in (1.0, 4.0, 16.0, 50.0):
        eq = sum(eng.run(t, replica_rng(2, k)).sets_equal() for k in range(n))
        print(f"t={t:5.1f}: P(V_t == U_t) ~ {eq / n:.3f}")


if __name__ == "__main__":
    main()
