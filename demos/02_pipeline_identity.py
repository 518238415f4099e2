#!/usr/bin/env python3
"""The zero-outcome identity, and what a finite phase register costs.

With an idealized phase register, the probability of reading all zeros on a
uniform mixture over the k-simplices is exactly beta_k / |S_k|.  With t bits
the kernel still reads zero with certainty, but nonzero eigenphases leak into
the zero outcome; the leakage dies off monotonically as t grows.
"""

from bettiq import (PEConfig, betti_exact, build_clique_complex, complement_report, hodge_laplacian,
                    zero_phase_weights)
from bettiq.complexes import InstanceSpec, generate_instance


def p_zero(complex_, k, pe):
    """The zero outcome's weight summed over the complex's block, per k-simplex."""
    op = hodge_laplacian(complex_, k)
    return float(zero_phase_weights(op, pe)[0].sum()) / op.blocks[0].size


print("ideal phase estimation: p0 * |S_k| recovers the Betti number exactly\n")
for name, spec, k in [
    ("4-cycle, k=1", InstanceSpec("cycle", {"n": 4}), 1),
    ("octahedron, k=2", InstanceSpec("octahedron"), 2),
    ("ER(7, 0.6), k=1", InstanceSpec("erdos-renyi", {"n": 7, "p": 0.6}, seed=12), 1),
]:
    c = build_clique_complex(generate_instance(spec), k + 1)
    p0 = p_zero(c, k, PEConfig.ideal())
    s = c.simplex_count(k)
    print(f"{name:22s} p0={p0:.6f}  p0*|S_k|={p0 * s:.6f}  beta={betti_exact(c, k)}")

print("\nfinite register on a path graph (eigenphases pi/3 and pi leak):\n")
c = build_clique_complex(generate_instance(InstanceSpec("cycle", {"n": 5})), 1)
# vertex Laplacian of C5: eigenvalues 2 - 2cos(2 pi j / 5), nothing dyadic
ideal = p_zero(c, 0, PEConfig.ideal())
print(f"{'t':>3s} {'p0(t)':>12s} {'excess over ideal':>18s}")
for t in range(1, 10):
    pt = p_zero(c, 0, PEConfig.bits(t=t))
    print(f"{t:3d} {pt:12.8f} {pt - ideal:18.3e}")
print(f"ideal: {ideal:.8f} (= beta_0 / |S_0| = 1/5)")

print("\nthe off-complex slots always read zero under the restricted convention:")
op = hodge_laplacian(c, 0)
(weights,) = zero_phase_weights(op, PEConfig.bits(t=3))  # restricted: the complex's block alone
off = op.dim - weights.size  # each slot in no block reads zero surely
print(f"p1 trace = {float(off):.1f} over {off} off-complex slots "
      "(none at k=0: every vertex is a simplex)")
c4 = build_clique_complex(generate_instance(InstanceSpec("cycle", {"n": 4})), 2)
rep4 = complement_report(c4, 1, pe=PEConfig.bits(t=3))
print(f"4-cycle, k=1: p1 trace = {rep4['p1_restricted']:.1f} over "
      f"{rep4['complement_slot_count']} slots (the two diagonals), "
      f"per-slot {rep4['p1_restricted_per_slot']:.1f}")
