"""Acceptance suite: one test per criterion, each ending in a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s`.  The exhaustive sweep over
all 32768 labeled 6-vertex graphs dominates the runtime (about half a minute);
the whole module stays within a few minutes.
"""

import json
import math

import numpy as np
import pytest

from bettiq import (
    ObservablePair,
    PEConfig,
    assemble_system,
    betti_exact,
    build_clique_complex,
    cli,
    block_encode_density,
    estimate_betti,
    estimate_normalized_betti,
    dump_instance,
    hoeffding_sample_count,
    inv_norm,
    pipeline_context,
    plan_delta,
    reduced_density,
    resource_estimate,
    solve_system,
    spectral_summary,
    trace_estimate,
    VertexGraph,
)
from bettiq.extraction import _flag_sums
from helpers import (
    complete_graph,
    cycle_graph,
    empty_graph,
    observable_b,
    octahedron_graph,
    path_graph,
    random_graph,
    two_disjoint_cycles,
    two_disjoint_edges,
)

IDEAL = PEConfig.ideal()
PAIR = ObservablePair.default()
PASS = "ACCEPTANCE {num} PASS: {msg}"


def graph_from_bits(n: int, bits: int) -> VertexGraph:
    adj = np.zeros((n, n), dtype=bool)
    e = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits >> e & 1:
                adj[i, j] = adj[j, i] = True
            e += 1
    return VertexGraph(n, adj)


def run_exact_pipeline(complex_, k):
    """One exact-mode pipeline pass; returns everything the criteria inspect."""
    ctx = pipeline_context(complex_, k)
    oracle = betti_exact(complex_, k)
    s_count, slot_count = ctx.op.blocks[0].size, ctx.op.dim
    beta_pe, p1 = _flag_sums(ctx.op, ctx.cfg)
    p0 = beta_pe / s_count
    a = assemble_system(PAIR, slot_count)
    y = (observable_b(PAIR.m1, ctx), observable_b(PAIR.m2, ctx))
    beta_raw, p1_solved = solve_system(a, y)
    return {
        "oracle": oracle,
        "beta_raw": beta_raw,
        "beta_rounded": int(np.floor(max(beta_raw, 0.0) + 0.5)),
        "p0_times_s": p0 * s_count,
        "p1": p1_solved,
        "p1_direct": p1,
        "s_count": s_count,
        "slot_count": slot_count,
        "threshold_agrees": spectral_summary(ctx.op).threshold_agrees,
    }


@pytest.fixture(scope="module")
def sweep6():
    """Exact-mode pipeline vs oracle over all 2^15 labeled graphs on 6 vertices."""
    stats = {
        "checked": 0,
        "skipped_empty": 0,
        "beta_mismatches": 0,
        "max_raw_dev": 0.0,
        "max_p0_dev": 0.0,
        "max_p1_dev": 0.0,
        "threshold_disagreements": 0,
    }
    for bits in range(1 << 15):
        g = graph_from_bits(6, bits)
        c = build_clique_complex(g, 1)
        for k in (0, 1):
            if c.simplex_count(k) == 0:
                stats["skipped_empty"] += 1
                continue
            res = run_exact_pipeline(c, k)
            stats["checked"] += 1
            if res["beta_rounded"] != res["oracle"]:
                stats["beta_mismatches"] += 1
            if not res["threshold_agrees"]:
                stats["threshold_disagreements"] += 1
            stats["max_raw_dev"] = max(stats["max_raw_dev"],
                                       abs(res["beta_raw"] - res["oracle"]))
            stats["max_p0_dev"] = max(stats["max_p0_dev"],
                                      abs(res["p0_times_s"] - res["oracle"]))
            stats["max_p1_dev"] = max(
                stats["max_p1_dev"],
                abs(res["p1"] - (res["slot_count"] - res["s_count"])),
            )
        # exercise the public end-to-end entry point on a subsample
        if bits % 1024 == 7 and c.simplex_count(1) > 0:
            est = estimate_betti(c, 1)
            assert est.beta_rounded == betti_exact(c, 1)
    return stats


@pytest.fixture(scope="module")
def er8_batch():
    """50 seeded ER(8, p in {0.3, 0.5, 0.7}) instances at k in {0, 1, 2}."""
    stats = {
        "checked": 0,
        "skipped_empty": 0,
        "beta_mismatches": 0,
        "max_raw_dev": 0.0,
        "max_p0_dev": 0.0,
        "max_p1_dev": 0.0,
        "threshold_disagreements": 0,
    }
    probabilities = (0.3, 0.5, 0.7)
    for seed in range(50):
        g = random_graph(8, probabilities[seed % 3], seed=seed)
        c = build_clique_complex(g, 2)
        for k in (0, 1, 2):
            if c.simplex_count(k) == 0:
                stats["skipped_empty"] += 1
                continue
            res = run_exact_pipeline(c, k)
            stats["checked"] += 1
            if res["beta_rounded"] != res["oracle"]:
                stats["beta_mismatches"] += 1
            if not res["threshold_agrees"]:
                stats["threshold_disagreements"] += 1
            stats["max_raw_dev"] = max(stats["max_raw_dev"],
                                       abs(res["beta_raw"] - res["oracle"]))
            stats["max_p0_dev"] = max(stats["max_p0_dev"],
                                      abs(res["p0_times_s"] - res["oracle"]))
            stats["max_p1_dev"] = max(
                stats["max_p1_dev"],
                abs(res["p1"] - (res["slot_count"] - res["s_count"])),
            )
    return stats


def test_criterion_01_oracle_equivalence(sweep6, er8_batch):
    assert sweep6["beta_mismatches"] == 0
    assert sweep6["max_raw_dev"] <= 1e-8
    assert er8_batch["beta_mismatches"] == 0
    assert er8_batch["max_raw_dev"] <= 1e-8
    print(PASS.format(
        num=1,
        msg=f"pipeline == oracle on {sweep6['checked']} n=6 runs "
            f"(+{sweep6['skipped_empty']} empty levels skipped) and "
            f"{er8_batch['checked']} ER(8) runs; max |raw - oracle| = "
            f"{max(sweep6['max_raw_dev'], er8_batch['max_raw_dev']):.2e}",
    ))


def test_criterion_02_p0_identity(sweep6, er8_batch):
    assert sweep6["max_p0_dev"] <= 1e-9
    assert er8_batch["max_p0_dev"] <= 1e-9
    print(PASS.format(
        num=2,
        msg=f"p0*|S_k| = beta_k to {max(sweep6['max_p0_dev'], er8_batch['max_p0_dev']):.2e} "
            f"over {sweep6['checked'] + er8_batch['checked']} runs",
    ))


def test_criterion_03_named_spaces():
    c4 = build_clique_complex(cycle_graph(4), 2)
    octa = build_clique_complex(octahedron_graph(), 3)
    rings = build_clique_complex(two_disjoint_cycles(4), 2)
    # exact-rank oracle first
    assert betti_exact(c4, 1) == 1
    assert betti_exact(octa, 2) == 1
    assert betti_exact(rings, 0) == 2
    assert betti_exact(rings, 1) == 2
    # pipeline agrees
    assert estimate_betti(c4, 1).beta_rounded == 1
    assert estimate_betti(octa, 2).beta_rounded == 1
    assert estimate_betti(rings, 0).beta_rounded == 2
    assert estimate_betti(rings, 1).beta_rounded == 2
    norm = estimate_normalized_betti(octa, 2, 0.05)
    assert norm.value == pytest.approx(0.125, abs=1e-10)
    print(PASS.format(num=3, msg="C4 beta1=1; octahedron beta2=1 with beta2/|S2|=0.125; "
                                 "two disjoint 4-cycles beta0=beta1=2"))


def test_criterion_04_block_encoding_verification():
    cases = [
        ("K3 k=1", build_clique_complex(complete_graph(3), 2), 1, IDEAL),
        ("C4 k=0", build_clique_complex(cycle_graph(4), 1), 0, IDEAL),
        ("C4 k=1", build_clique_complex(cycle_graph(4), 2), 1, IDEAL),
        ("C4 k=1 bits t=2", build_clique_complex(cycle_graph(4), 2), 1, PEConfig.bits(t=2)),
        ("two edges k=1", build_clique_complex(two_disjoint_edges(), 2), 1, IDEAL),
        ("octahedron k=2", build_clique_complex(octahedron_graph(), 3), 2, IDEAL),
        ("ER(7,0.4,3) k=1", build_clique_complex(random_graph(7, 0.4, 3), 2), 1, IDEAL),
        ("ER(8,0.3,5) k=1", build_clique_complex(random_graph(8, 0.3, 5), 2), 1, IDEAL),
    ]
    worst_unitarity = worst_block = 0.0
    for name, complex_, k, cfg in cases:
        slot_count = math.comb(complex_.n, k + 1)
        assert slot_count <= 32, name
        ctx = pipeline_context(complex_, k, pe=cfg)
        rho = ctx.rho()
        report = block_encode_density(rho).verify(unitarity_tol=1e-10, block_tol=1e-9)
        worst_unitarity = max(worst_unitarity, report["unitarity_deviation"])
        worst_block = max(worst_block, report["block_deviation"])
        for m in (PAIR.m1, PAIR.m2):
            rep = ctx.observable_encoding(m).verify(unitarity_tol=1e-10, block_tol=1e-9)
            worst_unitarity = max(worst_unitarity, rep["unitarity_deviation"])
            worst_block = max(worst_block, rep["block_deviation"])
    print(PASS.format(
        num=4,
        msg=f"{len(cases)} density + {2 * len(cases)} tensor encodings verified; "
            f"worst unitarity {worst_unitarity:.2e}, worst block {worst_block:.2e}",
    ))


def test_criterion_05_trace_estimation_contract():
    ctx = pipeline_context(cycle_graph(4), 1)
    rho = ctx.rho()
    b = rho.expectation(ctx.observable_encoding(PAIR.m1).target)
    truth = 1 / 6
    delta, confidence = 0.05, 0.95
    covered = 0
    for i in range(200):
        seed = np.random.SeedSequence(entropy=505, spawn_key=(i,))
        est = trace_estimate(b, delta, confidence, seed=seed)
        covered += abs(est.value - truth) <= delta
    assert covered >= 180, f"coverage {covered}/200"

    # error scaling: mean |error| vs sample count on a log-log grid
    deltas = [0.2, 0.1, 0.05, 0.025, 0.0125]
    log_n, log_err = [], []
    for j, d in enumerate(deltas):
        errors = []
        for i in range(120):
            seed = np.random.SeedSequence(entropy=9090, spawn_key=(j, i))
            est = trace_estimate(b, d, confidence, seed=seed)
            errors.append(abs(est.value - truth))
        log_n.append(math.log(est.samples_used))
        log_err.append(math.log(np.mean(errors)))
    slope = np.polyfit(log_n, log_err, 1)[0]
    assert -0.6 <= slope <= -0.4, f"slope {slope:.3f}"
    print(PASS.format(num=5, msg=f"coverage {covered}/200 at delta=0.05; "
                                 f"log-log error slope {slope:.3f}"))


def test_criterion_06_sampled_multiplicative_guarantee():
    eps, confidence = 0.25, 0.95
    outcomes = {}
    for name, graph, k in [("C4", cycle_graph(4), 1), ("octahedron", octahedron_graph(), 2)]:
        within = correct = 0
        for trial in range(100):
            seed = np.random.SeedSequence(entropy=606, spawn_key=(k, trial))
            est = estimate_betti(graph, k, eps, mode="sampled", confidence=confidence,
                                 seed=seed, beta_lower=1.0)
            within += abs(est.beta_estimate - 1.0) <= eps * 1.0
            correct += est.beta_rounded == 1
        outcomes[name] = (within, correct)
        assert within >= 90, f"{name}: within-eps {within}/100"
        assert correct >= 95, f"{name}: rounded correct {correct}/100"
    print(PASS.format(
        num=6,
        msg="; ".join(f"{n}: |err|<=eps*beta in {w}/100, rounded correct in {c}/100"
                      for n, (w, c) in outcomes.items()),
    ))


def test_criterion_07_perturbation_bound():
    rng = np.random.default_rng(77)
    cases = [(cycle_graph(4), 1), (octahedron_graph(), 2), (complete_graph(3), 0)]
    for graph, k in cases:
        ctx = pipeline_context(graph, k)
        a = assemble_system(PAIR, ctx.op.dim)
        y1 = np.array([observable_b(PAIR.m1, ctx), observable_b(PAIR.m2, ctx)])
        x1 = np.linalg.solve(a, y1)
        delta = plan_delta(0.25, 1.0, a)
        shifts = rng.uniform(-delta, delta, size=(10_000, 2))
        x2 = np.linalg.solve(a, (y1 + shifts).T).T
        lhs = np.linalg.norm(x2 - x1, axis=1)
        rhs = inv_norm(a) * np.linalg.norm(shifts, axis=1)
        assert (lhs <= rhs * (1 + 1e-9) + 1e-15).all()
        assert (np.linalg.norm(shifts, axis=1) <= math.sqrt(2) * delta + 1e-15).all()
    print(PASS.format(num=7, msg="10^4 right-hand-side perturbations per instance on "
                                 f"{len(cases)} instances never exceed ||A^-1|| ||dY||; "
                                 "component-bounded shifts stay within sqrt(2)*delta"))


def test_criterion_08_normalized_guarantee():
    delta = 0.05
    truth = 1 / 8
    within = 0
    for trial in range(100):
        seed = np.random.SeedSequence(entropy=808, spawn_key=(trial,))
        est = estimate_normalized_betti(octahedron_graph(), 2, delta, mode="sampled",
                                        seed=seed)
        assert est.eps_measurement == delta * 8 / 20  # the planner identity, exactly
        within += abs(est.value - truth) <= delta
    assert within >= 90, f"normalized coverage {within}/100"
    print(PASS.format(num=8, msg=f"|value - 1/8| <= 0.05 in {within}/100 trials; "
                                 "per-measurement accuracy = delta*|S_k|/C throughout"))


def test_criterion_09_invariance_and_structure(sweep6, er8_batch):
    assert sweep6["threshold_disagreements"] == 0 and er8_batch["threshold_disagreements"] == 0
    assert sweep6["max_p1_dev"] <= 1e-9 and er8_batch["max_p1_dev"] <= 1e-9

    pairs = [
        PAIR,
        ObservablePair(np.eye(2), np.diag([0.0, 1.0])),
        ObservablePair(np.diag([0.5, 1.0]), np.diag([1.0, 0.25])),
    ]
    for graph, k in [(cycle_graph(4), 1), (octahedron_graph(), 2),
                     (random_graph(8, 0.5, seed=2), 1)]:
        estimates = [estimate_betti(graph, k, pair=p) for p in pairs]
        betas = [e.beta_estimate for e in estimates]
        p1s = [e.p1_estimate for e in estimates]
        assert max(betas) - min(betas) <= 1e-8
        assert max(p1s) - min(p1s) <= 1e-8
    print(PASS.format(
        num=9,
        msg=f"rank kernel = threshold count on all "
            f"{sweep6['checked'] + er8_batch['checked']} blocks; solution invariant "
            f"across {len(pairs)} observable pairs; restricted p1 = C - |S_k| to "
            f"{max(sweep6['max_p1_dev'], er8_batch['max_p1_dev']):.2e}",
    ))


def test_criterion_10_resource_formulas():
    # five hand-computed parameter points
    r1 = resource_estimate(4, 1, kappa=2.0, beta=1.0, s_count=4, eps=0.25)
    assert r1.this_method_cost == pytest.approx(288.0)
    assert r1.prior_quantum_cost == pytest.approx((16 * math.sqrt(6) + 8 * 2) / 0.25)
    assert r1.classical_cost == 6.0
    assert r1.depth_this_method == pytest.approx(12.0)
    assert r1.depth_prior_quantum == pytest.approx(16 * math.sqrt(1.5) + 8)

    r2 = resource_estimate(6, 2, kappa=3.0, beta=2.0, s_count=10, eps=0.1)
    assert r2.this_method_cost == pytest.approx(3000.0)
    assert r2.prior_quantum_cost == pytest.approx(
        (36 * math.sqrt(10) + 18 * math.sqrt(5)) / 0.1)
    assert r2.depth_prior_quantum == pytest.approx(36 * math.sqrt(2) + 18)
    assert r2.grover_preparation_cost == pytest.approx(12 * math.sqrt(2))

    r3 = resource_estimate(6, 1, kappa=2.0, beta=1.0, s_count=9, delta=0.05)
    assert r3.normalized_this_method_cost == pytest.approx(600.0)
    assert r3.normalized_prior_cost == pytest.approx((36 * math.sqrt(15 / 9) + 12) / 0.05)

    r4 = resource_estimate(10, 2, kappa=4.0, beta=5.0, s_count=30, eps=0.5)
    assert r4.this_method_cost == pytest.approx(2880.0)
    assert r4.depth_this_method == pytest.approx(60.0)
    assert r4.depth_prior_quantum == pytest.approx(240.0)
    assert r4.grover_preparation_cost == pytest.approx(40.0)

    r5 = resource_estimate(5, 1, kappa=1.0, beta=1.0, s_count=10, eps=1.0)
    assert r5.this_method_cost == pytest.approx(100.0)
    assert r5.prior_quantum_cost == pytest.approx(30 * math.sqrt(10))
    assert r5.depth_prior_quantum == pytest.approx(30.0)
    assert r5.planned_measurement_delta == pytest.approx(1 / (math.sqrt(2) * 10))
    assert r5.sample_cost == hoeffding_sample_count(1 / (math.sqrt(2) * 10), 0.95)
    print(PASS.format(num=10, msg="cost, depth, and preparation formulas reproduce "
                                  "hand-computed values at 5 parameter points"))


def test_criterion_11_complement_experiment(tmp_path):
    instances = [
        ("c4", cycle_graph(4), 1),
        ("k4", complete_graph(4), 1),
        ("p4", path_graph(4), 1),
        ("two-edges", two_disjoint_edges(), 1),
        ("empty4", empty_graph(4), 1),
        ("octa-k1", octahedron_graph(), 1),
        ("octa-k2", octahedron_graph(), 2),
        ("rings", two_disjoint_cycles(4), 1),
        ("k5", complete_graph(5), 1),
        ("c6", cycle_graph(6), 1),
    ]
    for seed in range(12):
        p = (0.3, 0.5, 0.7)[seed % 3]
        n = 6 + seed % 3
        instances.append((f"er{n}-{seed}", random_graph(n, p, seed=seed), 1))
    assert len(instances) >= 20

    keys = {"p1_restricted", "p1_dual", "betti_complement_exact",
            "kernel_dim_complement_block", "dual_matches_block_kernel"}
    for name, graph, k in instances:
        inst_path = tmp_path / f"{name}.json"
        dump_instance(graph, inst_path)
        out_path = tmp_path / f"{name}.report.json"
        code = cli.main(["complement", "--instance", str(inst_path), "--k", str(k),
                         "--out", str(out_path)])
        assert code == 0, name
        res = json.loads(out_path.read_text())["results"]
        assert keys <= set(res), name
        assert res["dual_matches_block_kernel"], name
        assert res["p1_restricted"] == pytest.approx(
            res["slot_count"] - res["s_count"], abs=1e-9), name
    print(PASS.format(num=11, msg=f"complement comparison emitted and internally "
                                  f"consistent on {len(instances)} instances"))
