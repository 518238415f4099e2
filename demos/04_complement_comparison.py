#!/usr/bin/env python3
"""What does the off-complex weight p1 actually measure?

Seen as a trace of the same zero-outcome form, p1 looks like a Betti number
of the complement graph.  Whether it is one depends entirely on how the
Laplacian is extended to off-complex slots, so the comparison below reports
both conventions next to the complement complex's true Betti number and
draws no conclusion.
"""

from bettiq import complement_report
from bettiq.complexes import InstanceSpec, generate_instance

ROWS = [
    ("4-cycle k=1", InstanceSpec("cycle", {"n": 4}), 1),
    ("6-cycle k=1", InstanceSpec("cycle", {"n": 6}), 1),
    ("K4 k=1", InstanceSpec("complete", {"n": 4}), 1),
    ("octahedron k=1", InstanceSpec("octahedron"), 1),
    ("octahedron k=2", InstanceSpec("octahedron"), 2),
    ("ER(7,0.5) k=1", InstanceSpec("erdos-renyi", {"n": 7, "p": 0.5}, seed=0), 1),
    ("ER(8,0.4) k=1", InstanceSpec("erdos-renyi", {"n": 8, "p": 0.4}, seed=1), 1),
]

header = (f"{'instance':16s} {'C-|S|':>6s} {'p1 restr':>9s} {'p1 dual':>8s} "
          f"{'beta(comp)':>10s} {'neither':>8s} {'consistent':>10s}")
print(header)
print("-" * len(header))
for name, spec, k in ROWS:
    rep = complement_report(generate_instance(spec), k)
    print(f"{name:16s} {rep['complement_slot_count']:6d} {rep['p1_restricted']:9.2f} "
          f"{rep['p1_dual']:8.2f} {rep['betti_complement_exact']:10d} "
          f"{rep['neither_complex_slot_count']:8d} "
          f"{str(rep['dual_matches_block_kernel']):>10s}")

print("""
Reading the table:
 * restricted: every off-complex slot is a kernel state, so p1 is always
   C - |S_k| and carries no homology at all;
 * dual: p1 equals the kernel dimension of the off-complex block, i.e. the
   complement complex's Betti number PLUS one per slot that lies in neither
   complex (the 'neither' column) - compare octahedron k=2;
 * only when every off-complex slot belongs to the complement complex (always
   true at k=1) does dual-mode p1 equal the complement's Betti number;
 * under ideal phase estimation (this table) dual p1 is read from the same
   integer-rank pass as 'beta(comp)' and 'neither', so 'consistent' holds by
   construction; complement_report(..., pe=PEConfig.bits()) reads p1 from the
   complement block's spectrum and makes it an independent check.
""")
