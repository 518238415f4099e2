#!/usr/bin/env python3
"""Block encodings, verified the hard way.

The estimators draw the Hadamard-test statistic straight from the zero-phase
weights; the block encodings that a hardware run would use for it are built
here only to be verified.  Every construction is checked against its
contract: U is unitary and its all-zeros-ancilla block equals the target.
Every encoding is held as the factors of its circuit and never multiplied
out.  The tensor product keeps its factors' matrices, and its block and
unitarity come from theirs.  The mixed-state encoding goes through a
purification, a register swap, and the inverse preparation; each preparation
is held as one reflection (a phase and a vector), its unitarity is read from
those, and its encoded block is contracted from both ends of the circuit (the
factors act on the ancilla alone) and checked against the density matrix.  The whole script takes a few seconds and runs in
the test suite (tests/test_demos.py).
"""

import numpy as np

from bettiq import (
    PEConfig,
    block_encode_density,
    block_encode_hermitian,
    block_encode_projector,
    pipeline_context,
    tensor_block_encoding,
)
from bettiq.complexes import InstanceSpec, generate_instance


def show(label, enc):
    rep = enc.verify()
    form = ("dense" if enc.dense is not None else
            f"{len(enc.factors)} factors" if enc.factors else "reflections")
    print(f"{label:42s} dim={enc.dim:7d} ({form:11s}) "
          f"unitarity={rep['unitarity_deviation']:.2e} block={rep['block_deviation']:.2e}")


print("building the observable for the trace estimator on the 4-cycle, k=1:\n")
ctx = pipeline_context(generate_instance(InstanceSpec("cycle", {"n": 4})), 1)
rho = ctx.rho()

proj = block_encode_projector(rho.phase_dim, rho.slot_dim)
show("zero-phase projector |0><0| x I", proj)

flag = block_encode_hermitian(np.diag([0.0, 1.0]))
show("flag observable |1><1| (dilation)", flag)

tens = tensor_block_encoding([proj, flag])
show("tensor product (ancillas regrouped)", tens)

dens = block_encode_density(rho)
show("mixed state via purification + swap", dens)

print("\nthe same factored mixed-state construction on a larger instance:")
ctx_big = pipeline_context(
    generate_instance(InstanceSpec("erdos-renyi", {"n": 8, "p": 0.3}, seed=5)), 1)
dens_big = block_encode_density(ctx_big.rho())
show("ER(8) k=1 mixed state (C=28 slots)", dens_big)

print("\nencoded block vs the density matrix itself (should be identical):")
dev = np.abs(dens.encoded_block() - rho.matrix()).max()
print(f"max entry deviation: {dev:.2e}")
