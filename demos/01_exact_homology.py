#!/usr/bin/env python3
"""Exact homology of small clique complexes.

Builds a handful of named graphs, lists their simplex counts, computes Betti
numbers by exact integer rank, and checks each level's rank kernel count
against the eigenvalues below the spectral threshold.
"""

import numpy as np

from bettiq import (
    InstanceSpec,
    betti_exact,
    build_clique_complex,
    generate_instance,
    hodge_laplacian,
    spectral_summary,
)

INSTANCES = [
    ("4-cycle", InstanceSpec("cycle", {"n": 4}), 2),
    ("6-cycle", InstanceSpec("cycle", {"n": 6}), 2),
    ("complete K5", InstanceSpec("complete", {"n": 5}), 3),
    ("octahedron", InstanceSpec("octahedron"), 3),
    ("ER(8, 0.5)", InstanceSpec("erdos-renyi", {"n": 8, "p": 0.5}, seed=1), 3),
]

for name, spec, max_dim in INSTANCES:
    graph = generate_instance(spec)
    complex_ = build_clique_complex(graph, max_dim)
    bettis = [betti_exact(complex_, k) for k in range(max_dim)]
    print(f"\n=== {name} (n={complex_.n}) ===")
    print(f"simplices per dimension: {list(complex_.counts)}")
    print(f"Betti numbers b_0..b_{max_dim - 1} by integer rank: {bettis}")
    for k in range(max_dim):
        summary = spectral_summary(hodge_laplacian(complex_, k))
        kappa = "undefined" if summary.kappa is None else f"{summary.kappa:.3f}"
        print(f"  Delta_{k}: lambda_max={summary.lambda_max:.3f}, "
              f"kernel_dim={summary.kernel_dim}, kappa={kappa}, "
              f"threshold_agrees={summary.threshold_agrees}")

print("\nA length-scale example: 30 random points on an annulus.")
print(f"{'scale':>6s} {'edges':>6s} {'triangles':>9s} {'b_0':>4s} {'b_1':>4s}")
for scale in (0.4, 0.6, 0.9):
    cloud = generate_instance(InstanceSpec(
        "annulus-cloud", {"n": 30, "inner": 1.0, "outer": 1.3, "length_scale": scale},
        seed=8))
    complex_ = build_clique_complex(cloud, 2)
    counts = complex_.counts
    print(f"{scale:6.1f} {counts[1]:6d} {counts[2]:9d} "
          f"{betti_exact(complex_, 0):4d} {betti_exact(complex_, 1):4d}")
print("(fragments merge as the scale grows; near 0.9 the ring closes into one loop)")
