import itertools
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

from bettiq import (
    InstanceSpec,
    ObservablePair,
    PEConfig,
    PipelineContext,
    SingularSystemError,
    TraceEstimate,
    VertexGraph,
    assemble_system,
    betti_exact,
    block_encode_hermitian,
    block_encode_projector,
    build_clique_complex,
    cli,
    complement_complex,
    complement_report,
    dump_instance,
    estimate_betti,
    estimate_normalized_betti,
    extraction,
    generate_instance,
    homology,
    hodge_laplacian,
    hoeffding_sample_count,
    induced_graph,
    inv_norm,
    pipeline,
    pipeline_context,
    plan_delta,
    resource_estimate,
    slot_rank,
    solve_system,
    spectral_summary,
    tensor_block_encoding,
    trace_estimate,
)
from helpers import (
    census_graph,
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graph_join,
    observable_b,
    octahedron_graph,
    path_graph,
    perturbation_bound,
    random_graph,
    record_decompositions,
    slot_zero_phase_weights,
    small_graphs,
)

FLAG_ONE = np.diag([0.0, 1.0])
FLAG_ZERO = np.diag([1.0, 0.0])


def c4_context(k=1, convention="restricted"):
    return pipeline_context(cycle_graph(4), k, convention)


class TestObservableB:
    def test_c4_flag_projectors(self):
        ctx = c4_context()
        assert observable_b(FLAG_ONE, ctx) == pytest.approx(1 / 6, abs=1e-10)
        assert observable_b(FLAG_ZERO, ctx) == pytest.approx(2 / 6, abs=1e-10)
        assert observable_b(np.eye(2), ctx) == pytest.approx(3 / 6, abs=1e-10)

    def test_exact_matches_density_expectation(self):
        # the sampled estimators draw from this b, so it must equal Tr(A rho)
        # under every phase-estimation mode and convention
        for convention in ("restricted", "dual"):
            for pe in (PEConfig.ideal(), PEConfig.bits(t=2)):
                ctx = pipeline_context(cycle_graph(4), 1, convention, pe)
                for m in (FLAG_ONE, FLAG_ZERO, np.array([[0.5, 0.2], [0.2, 0.75]])):
                    enc = ctx.observable_encoding(m)
                    assert observable_b(m, ctx) == pytest.approx(
                        ctx.rho().expectation(enc.target), abs=1e-10)

    def test_estimates_read_the_simulated_state(self):
        # every 128th labeled 6-vertex graph: each trace an estimate solves from is
        # the expectation of its observable's encoding on the verification state
        pair = ObservablePair.default()
        for i in range(0, 2 ** 15, 128):
            graph = census_graph(i)
            for k, convention, pe in itertools.product(
                    (0, 1), ("restricted", "dual"), (PEConfig.ideal(), PEConfig.bits(t=2))):
                ctx = pipeline_context(graph, k, convention, pe)
                if ctx.op.blocks[0].size == 0:
                    continue
                y = estimate_betti(graph, k, convention=convention, pe=pe).system.y
                rho = ctx.rho()
                for y_m, m in zip(y, (pair.m1, pair.m2)):
                    expected = rho.expectation(ctx.observable_encoding(m).target)
                    assert abs(y_m - expected) <= 1e-12, (i, k, convention, pe)

    def test_sampled_returns_trace_estimate(self):
        ctx = c4_context()
        est = trace_estimate(observable_b(FLAG_ONE, ctx), 0.05, 0.95, seed=5)
        assert isinstance(est, TraceEstimate)
        assert abs(est.value - 1 / 6) <= 0.05

    def test_norm_violation_rejected(self):
        with pytest.raises(ValueError):
            observable_b(np.diag([2.0, 0.0]), c4_context())

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    def test_observable_encoding_takes_no_eigenvectors(self, convention, monkeypatch):
        ctx = pipeline_context(octahedron_graph(), 1, convention, PEConfig.bits(t=2))
        eigh = np.linalg.eigh

        def refuse_blocks(a, *args, **kwargs):
            # the flag observable's own dilation may decompose it; the operator's blocks not
            if any(a is block.matrix for block in ctx.op.blocks):
                raise AssertionError("operator eigenvectors requested")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", refuse_blocks)
        for m in (FLAG_ONE, FLAG_ZERO):
            enc = ctx.observable_encoding(m)
            assert enc.verify()["ok"]
            assert enc.system_dim == 4 * ctx.op.dim * 2  # phase x slot x flag

    @pytest.mark.parametrize("cfg", [PEConfig.ideal(), PEConfig.bits(t=2)])
    def test_observable_encoding_of_a_fixed_register_needs_no_spectrum(self, cfg, monkeypatch):
        decomposed = record_decompositions(monkeypatch)
        ctx = pipeline_context(octahedron_graph(), 1, "dual", cfg)
        ref = pipeline_context(octahedron_graph(), 1, "dual", cfg)
        phase_dim = 2 ** cfg.resolve(ref.op)
        for m in (FLAG_ONE, FLAG_ZERO):
            enc = ctx.observable_encoding(m)
            want = tensor_block_encoding([block_encode_projector(phase_dim, ref.op.dim),
                                          block_encode_hermitian(m)])
            assert np.array_equal(enc.target, want.target)
            assert all(np.array_equal(u, v) for u, v in zip(enc.factors, want.factors, strict=True))
            assert enc.factor_system_dims == want.factor_system_dims
        assert not any(a is block.matrix for _, a in decomposed for block in ctx.op.blocks)

    @pytest.mark.parametrize("cfg", [PEConfig.ideal(), PEConfig.bits(t=2), PEConfig.bits()])
    def test_observables_of_one_context_share_one_read_only_projector(self, cfg, monkeypatch):
        built, build = [], extraction.block_encode_projector

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(extraction, "block_encode_projector", counting)
        ctx = pipeline_context(octahedron_graph(), 1, "dual", cfg)
        pair = ObservablePair.default()
        first, second = (ctx.observable_encoding(m) for m in (pair.m1, pair.m2))
        assert built == [(2 ** cfg.resolve(ctx.op), ctx.op.dim)]
        assert first.factors[0] is second.factors[0]
        with pytest.raises(ValueError, match="read-only"):
            first.factors[0][0, 0] = 0.5
        assert first.verify()["ok"] and second.verify()["ok"]

    def test_each_encoding_factor_is_checked_once(self, monkeypatch):
        """On the criterion-4 case C4 k=1: one Gram of the shared projector, one
        `eigh` and no `eigvalsh` per dilation, and `_reflections` for the states only."""
        ctx = pipeline_context(cycle_graph(4), 1)
        rho = ctx.rho()
        grams, gram = [], pipeline._gram_stats
        reflected, reflect = [], pipeline._reflections
        for module in (pipeline, extraction):
            monkeypatch.setattr(module, "_gram_stats", lambda u: grams.append(u) or gram(u))
        monkeypatch.setattr(pipeline, "_reflections", lambda v: reflected.append(v) or reflect(v))
        decomposed = record_decompositions(monkeypatch)
        pair = ObservablePair.default()
        for m in (pair.m1, pair.m2):
            assert ctx.observable_encoding(m).verify()["ok"]
        projector = ctx._zero_phase_projector.dense
        assert sum(u is projector for u in grams) == 1
        assert [name for name, _ in decomposed] == ["eigh", "eigh"]
        assert pipeline.block_encode_density(rho).verify()["ok"]
        assert len(reflected) == 1 and reflected[0] is rho.vectors

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    @pytest.mark.parametrize("cfg", [PEConfig.ideal(), PEConfig.bits(t=2), PEConfig.bits()])
    def test_state_and_encoding_share_the_resolved_register(self, cfg, convention):
        ctx = pipeline_context(octahedron_graph(), 1, convention, cfg)
        t = cfg.resolve(ctx.op)
        assert ctx.rho().phase_dim == 2 ** t
        for m in (FLAG_ONE, FLAG_ZERO):
            assert ctx.observable_encoding(m).system_dim == 2 ** t * ctx.op.dim * 2

    def test_sampled_estimators_build_no_state_or_encoding(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("estimation built a verification artifact")

        monkeypatch.setattr(PipelineContext, "rho", forbidden)
        monkeypatch.setattr(PipelineContext, "observable_encoding", forbidden)
        est = estimate_betti(cycle_graph(4), 1, 0.25, mode="sampled", seed=7)
        assert est.beta_rounded == 1
        norm = estimate_normalized_betti(cycle_graph(4), 1, 0.1, mode="sampled", seed=7)
        assert abs(norm.value - 0.25) <= 0.1


class TestAssembleSolve:
    def test_default_pair_identity_over_c(self):
        a = assemble_system(ObservablePair.default(), 6)
        assert np.allclose(a, np.eye(2) / 6)

    def test_identity_and_flag_pair(self):
        a = assemble_system(ObservablePair(np.eye(2), FLAG_ONE), 6)
        assert np.allclose(a, np.array([[1.0, 1.0], [1.0, 0.0]]) / 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observable_rejected(self, bad):
        # NaN passes every comparison written with `>`: it must not reach the solve
        m = np.diag([bad, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            ObservablePair(m, FLAG_ZERO)
        with pytest.raises(ValueError, match="non-finite"):
            ObservablePair(FLAG_ONE, m.T)
        with pytest.raises(ValueError, match="non-finite"):
            observable_b(m, c4_context())

    def test_equal_pair_rejected(self):
        with pytest.raises(ValueError):
            ObservablePair(FLAG_ONE, FLAG_ONE)

    def test_default_pair_checked_once_and_frozen(self, monkeypatch):
        calls = []
        check = extraction._check_flag_observable
        monkeypatch.setattr(extraction, "_check_flag_observable",
                            lambda m: calls.append(m) or check(m))
        estimate_betti(cycle_graph(4), 1)  # warm-up
        calls.clear()
        estimate_betti(cycle_graph(4), 1)
        estimate_betti(cycle_graph(4), 1, 0.25, mode="sampled", seed=1)
        assert len(calls) == 0
        pair = ObservablePair.default()
        assert pair is ObservablePair.default()
        with pytest.raises(ValueError):
            pair.m1[0, 0] = 1.0
        m = np.diag([0.5, 1.0]).astype(complex)
        assert not ObservablePair(m, FLAG_ZERO).m1.flags.writeable
        assert m.flags.writeable  # the pair froze a copy, not the caller's array

    def test_solve_c4_ground_truth(self):
        beta, p1 = solve_system(np.eye(2) / 6, (1 / 6, 2 / 6))
        assert beta == pytest.approx(1.0) and p1 == pytest.approx(2.0)

    def test_solve_zero_rhs(self):
        assert solve_system(np.eye(2) / 6, (0.0, 0.0)) == (0.0, 0.0)

    def test_algebraic_identity_pair(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0]]) / 6
        beta, p1 = 3.0, 2.0
        y = a @ np.array([beta, p1])
        assert solve_system(a, y) == (pytest.approx(beta), pytest.approx(p1))

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularSystemError):
            solve_system(np.ones((2, 2)), (1.0, 1.0))

    def test_ill_conditioned_warns(self):
        a = np.array([[1.0, 0.0], [0.0, 1e-12]])
        with pytest.warns(RuntimeWarning):
            solve_system(a, (1.0, 1.0))

    @staticmethod
    def _system(rng, kappa):
        """A random 2x2 matrix with condition number kappa and a random scale."""
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        return 10.0 ** rng.uniform(-3, 3) * u @ np.diag([1.0, 1.0 / kappa]) @ v.T

    def test_closed_form_matches_lapack(self):
        # Cramer's rule is forward stable for 2x2 systems: both solutions lie
        # within a few kappa * eps of the true one
        rng = np.random.default_rng(2024)
        eps = np.finfo(float).eps
        for kappa in np.logspace(0, 8, 33):
            for _ in range(30):
                a = self._system(rng, kappa)
                y = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # kappa = 1e8 is the threshold
                    x = np.array(solve_system(a, y))
                ref = np.linalg.solve(a, y)
                assert np.linalg.norm(x - ref) <= 10 * kappa * eps * np.linalg.norm(ref)

    @pytest.mark.parametrize("kappa,warns", [(1e6, False), (9.9e7, False), (1.01e8, True),
                                             (1e12, True)])
    def test_warning_follows_the_condition_number(self, kappa, warns):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = self._system(rng, kappa)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve_system(a, (1.0, 1.0))
            assert bool(caught) == warns


class TestInvNorm:
    def test_scaled_identity(self):
        assert inv_norm(np.eye(2) / 6) == pytest.approx(6.0)

    def test_diagonal(self):
        assert inv_norm(np.diag([1.0, 0.5])) == pytest.approx(2.0)

    def test_closed_form_symmetric(self):
        # eigenvalues of [[1,1],[1,0]] are (1 +/- sqrt(5))/2; smallest |.| over 6
        a = np.array([[1.0, 1.0], [1.0, 0.0]]) / 6
        expected = 12.0 / (np.sqrt(5.0) - 1.0)
        assert inv_norm(a) == pytest.approx(expected, rel=1e-12)


    def test_default_pair_matches_lapack_bit_for_bit(self):
        # the closed form smin = |h1 - h2| / 2, not |det| / smax, at every slot count
        # the default pair meets: A = I / C for the estimate, I for the normalized one
        pair = ObservablePair.default()
        slot_counts = {comb(n, k + 1) for n in range(1, 41) for k in range(n)}
        for a in [pair.raw_matrix(), *(assemble_system(pair, c) for c in slot_counts)]:
            s = np.linalg.svd(a, compute_uv=False)
            smax, smin = extraction._singular_values(a)
            assert inv_norm(a) == 1.0 / s[-1]
            assert smax / smin == s[0] / s[-1]
        system = estimate_betti(octahedron_graph(), 2).system
        s = np.linalg.svd(system.a, compute_uv=False)
        assert (system.inv_norm, system.kappa_a) == (1.0 / s[-1], s[0] / s[-1])

    def test_random_pairs_match_lapack(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 500:
            a = rng.uniform(-1.0, 1.0, size=(2, 2)) / rng.integers(1, 10_000)
            s = np.linalg.svd(a, compute_uv=False)
            if s[0] / s[-1] > 1e3:
                continue
            smax, smin = extraction._singular_values(a)
            assert inv_norm(a) == pytest.approx(1.0 / s[-1], rel=1e-12, abs=0)
            assert smax / smin == pytest.approx(s[0] / s[-1], rel=1e-12, abs=0)
            checked += 1

    def test_smallest_singular_value_is_nonnegative(self):
        # h1 < h2 here: without the absolute value smin would read negative
        assert extraction._singular_values(np.array([[1.0, 1.0], [1.0, 0.0]]))[1] > 0


class TestReadOut:
    """An estimate's 2x2 system, exact, sampled or normalized, is what the public
    helpers give for its own matrix and traces, bit for bit."""

    def test_estimates_match_the_helpers(self, monkeypatch):
        systems = []
        measure = extraction._measure_and_solve

        def recording(*args):
            result = measure(*args)
            systems.append(result[0])
            return result

        monkeypatch.setattr(extraction, "_measure_and_solve", recording)
        pair = ObservablePair.default()
        cases = [(census_graph(i), k) for i in range(1, 2 ** 15, 2048) for k in (0, 1)]
        cases += [(random_graph(n, 0.5, seed=1), 2) for n in (8, 10)]
        for graph, k in cases:
            for pe in (None, PEConfig.bits(t=2)):
                systems.clear()
                exact = estimate_betti(graph, k, pe=pe)
                sampled = estimate_betti(graph, k, 0.5, pe=pe, mode="sampled", seed=3)
                norm = estimate_normalized_betti(graph, k, 0.2, pe=pe)
                norm_sampled = estimate_normalized_betti(graph, k, 0.2, pe=pe, mode="sampled", seed=3)
                c = exact.slot_count
                assert systems[0] is exact.system and systems[1] is sampled.system
                matrices = [assemble_system(pair, c)] * 2 + [pair.raw_matrix()] * 2
                for system, a in zip(systems, matrices):
                    assert np.array_equal(system.a, a)
                    assert system.x == solve_system(system.a, system.y)
                    smax, smin = extraction._singular_values(system.a)
                    assert (system.inv_norm, system.kappa_a) == (inv_norm(system.a), smax / smin)
                ctx = pipeline_context(graph, k, pe=pe)
                exact_y = (observable_b(pair.m1, ctx), observable_b(pair.m2, ctx))
                assert systems[0].y == exact_y and systems[2].y == exact_y
                assert (exact.beta_estimate, exact.p1_estimate) == exact.system.x
                for est, system in ((norm, systems[2]), (norm_sampled, systems[3])):
                    assert est.raw_value == system.x[0] * c / est.s_count

    def test_ill_conditioned_pair_warns_through_the_estimators(self):
        pair = ObservablePair(FLAG_ONE, np.diag([1e-9, 1.0]))
        smax, smin = extraction._singular_values(pair.raw_matrix())
        assert smax / smin == pytest.approx(2e9, rel=1e-6)
        for estimate in (lambda: estimate_betti(cycle_graph(4), 1, pair=pair),
                         lambda: estimate_normalized_betti(cycle_graph(4), 1, 0.1, pair=pair)):
            with pytest.warns(RuntimeWarning, match=r"condition number 2e\+09 is large"):
                estimate()


class TestOperatorPath:
    """The estimators and `complement_report` read the Hodge operator and its
    blocks, never a `PipelineContext`, and give exactly what that verification
    entry gives.  Calls are counted through the module attributes the
    benchmark's traced run wraps."""

    CASES = [(census_graph(i), k) for i in (7, 1000, 2 ** 15 - 1) for k in (0, 1)]
    CASES += [(random_graph(10, 0.5, seed=1), 2), (octahedron_graph(), 2)]

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {}

        def counting(name, fn):
            def run(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return run

        for module, name in ((extraction, "build_clique_complex"), (extraction, "hodge_laplacian"),
                             (homology, "_laplacian_block"), (np.linalg, "eigvalsh"),
                             (PipelineContext, "__init__")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return calls

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    def test_an_ideal_estimate_pays_for_its_kernels_once(self, calls, convention):
        for graph, k in self.CASES:
            calls.clear()
            estimate_betti(graph, k, convention=convention)
            assert calls == {"build_clique_complex": 1, "hodge_laplacian": 1,
                             "_laplacian_block": 1, "eigvalsh": 1}, (graph.edges(), k)

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    def test_ideal_normalized_estimates_and_reports_decompose_nothing(self, calls, convention):
        for graph, k in self.CASES:
            calls.clear()
            estimate_normalized_betti(graph, k, 0.1, convention=convention)
            complement_report(graph, k)
            assert calls == {"build_clique_complex": 2, "hodge_laplacian": 2}, (graph.edges(), k)

    def test_no_estimator_builds_a_context(self, calls):
        graph = random_graph(8, 0.5, seed=2)
        for pe in (None, PEConfig.bits(t=2), PEConfig.bits()):
            for convention in ("restricted", "dual"):
                estimate_betti(graph, 1, 0.25, convention=convention, pe=pe)
                estimate_betti(graph, 1, 0.5, convention=convention, pe=pe, mode="sampled", seed=3)
                estimate_normalized_betti(graph, 1, 0.1, convention=convention, pe=pe)
                estimate_normalized_betti(graph, 1, 0.2, convention=convention, pe=pe,
                                          mode="sampled", seed=3)
            complement_report(graph, 1, pe=pe)
        assert "__init__" not in calls

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    @pytest.mark.parametrize("pe", [None, PEConfig.bits(t=2), PEConfig.bits()],
                             ids=["ideal", "bits-t2", "bits-auto"])
    def test_estimates_equal_the_verification_entry(self, convention, pe):
        # every 16th labeled 6-vertex graph at k in {0, 1}, and the ER ladder at k = 2
        cases = [(census_graph(i), k) for i in range(0, 2 ** 15, 16) for k in (0, 1)]
        cases += [(random_graph(n, 0.4, seed=1), 2) for n in range(10, 29, 6)]
        pair = ObservablePair.default()
        for graph, k in cases:
            ctx = pipeline_context(graph, k, convention, pe)
            if ctx.op.blocks[0].size == 0:
                continue
            est = estimate_betti(graph, k, convention=convention, pe=pe)
            (beta, p1), c = extraction._flag_sums(ctx.op, ctx.cfg), ctx.op.dim
            y = tuple((beta * w1 + p1 * w0) / c for w1, w0 in pair.raw_matrix().tolist())
            assert (est.beta_estimate, est.p1_estimate) == solve_system(assemble_system(pair, c), y)
            assert est.beta_oracle == ctx.op.blocks[0].kernel_dim
            assert est.kappa_laplacian == extraction._digest(ctx.op, ctx.cfg).kappa


class TestEstimateRecords:
    def test_to_dict_keys_are_unchanged(self):
        est = estimate_betti(cycle_graph(4), 1, 0.25, mode="sampled", seed=1)
        norm = estimate_normalized_betti(cycle_graph(4), 1, 0.1, mode="sampled", seed=1)
        assert set(est.to_dict()) == {
            "instance", "k", "convention", "mode", "pe", "epsilon", "delta", "beta_estimate",
            "beta_rounded", "p1", "samples", "confidence", "inv_norm", "kappa_system",
            "kappa_laplacian", "beta_oracle", "n", "s_count", "slot_count", "resource_report",
            "seed"}
        assert set(norm.to_dict()) == {
            "instance", "k", "convention", "mode", "pe", "delta", "eps_measurement",
            "normalized_betti", "normalized_betti_raw", "samples", "confidence", "oracle_value",
            "n", "s_count", "slot_count", "seed"}


class TestPerturbationBound:
    def test_scaled_identity_budget(self):
        delta = 0.03
        assert perturbation_bound(np.eye(2) / 6, np.sqrt(2) * delta) == \
            pytest.approx(6 * np.sqrt(2) * delta)

    def test_zero_perturbation(self):
        assert perturbation_bound(np.eye(2) / 6, 0.0) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_never_violated(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2))
        while abs(np.linalg.det(a)) < 0.1:
            a = rng.normal(size=(2, 2))
        x1 = np.array([1.3, -0.4])
        y1 = a @ x1
        delta = 0.05
        shifts = rng.uniform(-delta, delta, size=(2000, 2))
        x2 = np.linalg.solve(a, (y1 + shifts).T).T
        lhs = np.linalg.norm(x2 - x1, axis=1)
        rhs = inv_norm(a) * np.linalg.norm(shifts, axis=1)
        assert (lhs <= rhs * (1 + 1e-9) + 1e-15).all()
        assert (np.linalg.norm(shifts, axis=1) <= np.sqrt(2) * delta + 1e-15).all()


class TestPlanDelta:
    def test_arithmetic(self):
        a = np.eye(2) / 6
        assert plan_delta(0.25, 1.0, a) == pytest.approx(0.25 / (np.sqrt(2) * 6))
        assert plan_delta(0.1, 4.0, np.diag([1 / 6, 1 / 6])) == pytest.approx(
            0.1 * 4 / (np.sqrt(2) * 6))

    def test_bad_inputs_rejected(self):
        a = np.eye(2) / 6
        with pytest.raises(ValueError):
            plan_delta(0.25, 0.0, a)
        with pytest.raises(ValueError):
            plan_delta(-0.1, 1.0, a)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_inputs_rejected(self, bad):
        a = np.eye(2) / 6
        with pytest.raises(ValueError, match="eps"):
            plan_delta(bad, 1.0, a)
        with pytest.raises(ValueError, match="beta_lower"):
            plan_delta(0.25, bad, a)

    @pytest.mark.parametrize("eps", [1e-10, 1e-160])
    def test_unplannable_accuracy_rejected(self, eps):
        # the planned delta needs more samples than one binomial draw takes
        with pytest.raises(ValueError, match="delta"):
            estimate_betti(cycle_graph(5), 1, eps, mode="sampled", seed=1)


class TestEstimateBetti:
    def test_c4_exact(self):
        est = estimate_betti(cycle_graph(4), 1)
        assert est.beta_estimate == pytest.approx(1.0, abs=1e-10)
        assert est.beta_rounded == 1
        assert est.p1_estimate == pytest.approx(2.0, abs=1e-9)
        assert est.beta_oracle == 1
        assert est.kappa_laplacian == pytest.approx(2.0)

    def test_octahedron_k2_exact(self):
        est = estimate_betti(octahedron_graph(), 2)
        assert est.beta_rounded == 1 and est.beta_oracle == 1

    def test_sampled_guarantee_smoke(self):
        hits = 0
        for seed in range(10):
            est = estimate_betti(cycle_graph(4), 1, 0.25, mode="sampled", seed=seed)
            assert est.samples_per_observable == hoeffding_sample_count(est.delta, 0.975)
            hits += est.beta_rounded == 1
        assert hits == 10

    def test_sampled_deterministic_replay(self):
        a = estimate_betti(cycle_graph(4), 1, 0.25, mode="sampled", seed=99)
        b = estimate_betti(cycle_graph(4), 1, 0.25, mode="sampled", seed=99)
        assert a.beta_estimate == b.beta_estimate
        assert a.system.y == b.system.y
        # one SeedSequence passed twice replays too: the estimate does not advance it
        graph = random_graph(10, 0.5, seed=3)
        for estimate, accuracy in ((estimate_betti, 0.25), (estimate_normalized_betti, 0.1)):
            ss = np.random.SeedSequence(7)
            runs = [estimate(graph, 2, accuracy, mode="sampled", seed=s) for s in (ss, ss, 7)]
            assert runs[0].to_dict() == runs[1].to_dict() == runs[2].to_dict()
            assert runs[0].seed == {"entropy": 7, "spawn_key": []}

    def test_empty_level_rejected(self):
        with pytest.raises(ValueError):
            estimate_betti(empty_graph(4), 1)

    def test_sampled_needs_eps(self):
        with pytest.raises(ValueError):
            estimate_betti(cycle_graph(4), 1, mode="sampled")

    def test_confidence_outside_unit_interval_rejected(self):
        for confidence in (0.0, 1.0, -0.5, 5.0):
            for mode, eps in (("exact", None), ("sampled", 0.25)):
                with pytest.raises(ValueError, match="confidence"):
                    estimate_betti(cycle_graph(4), 1, eps, mode=mode, confidence=confidence)
                with pytest.raises(ValueError, match="confidence"):
                    estimate_normalized_betti(cycle_graph(4), 1, 0.1, mode=mode,
                                              confidence=confidence)

    def test_pair_invariance_exact(self):
        pairs = [
            ObservablePair.default(),
            ObservablePair(np.eye(2), FLAG_ONE),
            ObservablePair(np.diag([0.5, 1.0]), np.diag([1.0, 0.25])),
        ]
        values = [
            (est.beta_estimate, est.p1_estimate)
            for est in (estimate_betti(cycle_graph(4), 1, pair=p) for p in pairs)
        ]
        for beta, p1 in values:
            assert beta == pytest.approx(values[0][0], abs=1e-8)
            assert p1 == pytest.approx(values[0][1], abs=1e-8)

    def test_report_dict_schema(self):
        est = estimate_betti(cycle_graph(4), 1, 0.25, mode="sampled", seed=1)
        d = est.to_dict(instance={"n": 4})
        for key in ("instance", "k", "convention", "mode", "epsilon", "delta",
                    "beta_estimate", "beta_rounded", "p1", "samples", "inv_norm",
                    "kappa_laplacian", "resource_report", "seed"):
            assert key in d
        assert d["resource_report"]["this_method_cost"] > 0

    def test_system_consistency(self):
        est = estimate_betti(cycle_graph(4), 1)
        recon = est.system.a @ np.array(est.system.x)
        assert np.allclose(recon, est.system.y, atol=1e-12)

    def test_each_block_decomposed_at_most_once(self, monkeypatch):
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        # ER(7,0.5,3) k=1: the complex's block of 11 edges, the complement's of 10
        graph = random_graph(7, 0.5, seed=3)
        for convention in ("restricted", "dual"):
            for cfg in (PEConfig.ideal(), PEConfig.bits(t=2), PEConfig.bits()):
                sizes.clear()
                estimate_betti(graph, 1, 0.25, convention=convention, pe=cfg)
                read_complement = convention == "dual" and cfg.mode == "bits"
                assert sorted(sizes) == ([10, 11] if read_complement else [11]), (convention, cfg)

    def test_auto_t_bounds_the_leakage_on_a_dense_graph(self):
        # |S_2| = 2,418 and kappa = 3.7: sizing the register from kappa alone
        # (t = 4) leaks a raw beta of ~7 into a Betti number of 0
        est = estimate_betti(random_graph(30, 0.85, seed=4), 2, pe=PEConfig.bits())
        assert est.beta_rounded == est.beta_oracle == 0

    def test_half_integer_ties_round_up(self):
        # census graph 32112 at k=1 under PEConfig.bits(t=2) has raw beta 1.5, and the
        # solve may land on either side of it in the last bit
        assert extraction._round_beta(1.5) == 2
        assert extraction._round_beta(np.nextafter(1.5, 0)) == 2
        assert extraction._round_beta(np.nextafter(1.5, 2)) == 2
        assert extraction._round_beta(1.5 - 1e-6) == 1

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    def test_memory_stays_below_the_slot_square(self, convention):
        # C = binom(28, 3) = 3,276: a dense C x C float64 operator alone is 82 MiB
        graph = random_graph(28, 0.4, seed=1)
        tracemalloc.start()
        try:
            est = estimate_betti(graph, 2, convention=convention)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.slot_count == 3276
        assert est.beta_rounded == est.beta_oracle
        assert peak < 32 << 20


    def test_dual_memory_stays_below_the_block_squares(self):
        # the complement block (737 simplices, 4.1 MiB) is never assembled: its kernel
        # count comes from integer ranks, and the complex's block (196) is 0.3 MiB
        graph = random_graph(28, 0.4, seed=1)
        tracemalloc.start()
        try:
            est = estimate_betti(graph, 2, convention="dual")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.beta_rounded == est.beta_oracle
        assert peak < 2 << 20

    def test_dual_estimates_rank_no_slot(self, monkeypatch):
        # both complexes' slots are ranked only when the slots are read
        ranked = []

        def spy(word):
            ranked.append(word)
            return slot_rank(word)

        monkeypatch.setattr(homology, "slot_rank", spy)
        graph = random_graph(12, 0.4, seed=1)
        c = build_clique_complex(graph, 3)
        comp = complement_complex(graph, 3)
        est = estimate_betti(graph, 2, convention="dual")
        assert est.beta_rounded == est.beta_oracle
        estimate_betti(graph, 2, convention="dual", pe=PEConfig.bits(t=2))
        estimate_betti(graph, 2, convention="dual", pe=PEConfig.bits())
        assert ranked == []
        pipeline_context(graph, 2, "dual", PEConfig.bits(t=2)).rho()
        assert sorted(ranked) == sorted(c.words(2) + comp.words(2))


class TestSpectralSums:
    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    @pytest.mark.parametrize("graph,k", [
        (cycle_graph(4), 1),
        (octahedron_graph(), 1),
        (octahedron_graph(), 2),
        (random_graph(7, 0.4, seed=3), 1),
        (random_graph(8, 0.5, seed=2), 2),
        (path_graph(5), 0),
    ])
    def test_traces_equal_the_per_slot_sums(self, graph, k, convention):
        for cfg in (PEConfig.ideal(), PEConfig.bits(t=1), PEConfig.bits(t=2),
                    PEConfig.bits(t=3), PEConfig.bits()):
            ctx = pipeline_context(graph, k, convention, cfg)
            weights = slot_zero_phase_weights(ctx.op, cfg)
            member = np.zeros(ctx.op.dim, dtype=bool)
            member[list(ctx.op.blocks[0].slots)] = True
            beta, p1 = extraction._flag_sums(ctx.op, ctx.cfg)
            assert abs(beta - weights[member].sum()) < 1e-12, cfg
            assert abs(p1 - weights[~member].sum()) < 1e-12, cfg

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    def test_ideal_traces_are_the_kernel_counts(self, convention):
        # every 64th labeled 6-vertex graph at k in {0, 1}, and random graphs at k = 2
        cases = [(census_graph(i), k) for i in range(1, 2 ** 15, 64) for k in (0, 1)]
        cases += [(random_graph(n, 0.5, seed=n), 2) for n in (7, 9, 11)]
        for graph, k in cases:
            ctx = pipeline_context(graph, k, convention)
            sums = [w.sum() for w in pipeline.zero_phase_weights(ctx.op, ctx.cfg)]
            covered = sum(len(b.slots) for b in ctx.op.blocks)
            beta, p1 = extraction._flag_sums(ctx.op, ctx.cfg)
            assert beta == sums[0]
            assert p1 == ctx.op.dim - covered + sum(sums[1:])
            weights = slot_zero_phase_weights(ctx.op, ctx.cfg)
            member = np.zeros(ctx.op.dim, dtype=bool)
            member[list(ctx.op.blocks[0].slots)] = True
            assert abs(beta - weights[member].sum()) < 1e-12
            assert abs(p1 - weights[~member].sum()) < 1e-12

    def test_ideal_estimates_neither_resolve_nor_weigh(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def run(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return run

        monkeypatch.setattr(extraction, "zero_phase_weights",
                            counting("zero_phase_weights", pipeline.zero_phase_weights))
        monkeypatch.setattr(PEConfig, "resolve", counting("resolve", PEConfig.resolve))
        graph = random_graph(8, 0.5, seed=2)
        for convention in ("restricted", "dual"):
            assert estimate_betti(graph, 1, convention=convention).beta_rounded == \
                betti_exact(build_clique_complex(graph, 2), 1)
            estimate_betti(graph, 2, 0.5, convention=convention, mode="sampled", seed=1)
            estimate_normalized_betti(graph, 1, 0.1, convention=convention)
            complement_report(graph, 2)
        assert calls == []
        estimate_betti(graph, 1, pe=PEConfig.bits(t=2))
        assert calls == ["zero_phase_weights", "resolve"]

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    def test_estimators_never_take_eigenvectors(self, convention, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvectors requested")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        graph = random_graph(8, 0.5, seed=2)
        est = estimate_betti(graph, 2, convention=convention, pe=PEConfig.bits())
        assert est.beta_rounded == est.beta_oracle
        estimate_normalized_betti(graph, 2, 0.05, convention=convention)
        estimate_betti(graph, 1, 0.25, convention=convention, mode="sampled", seed=3)
        assert complement_report(graph, 2)["dual_matches_block_kernel"]

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    def test_reduced_density_decomposes_each_block_once(self, convention, monkeypatch):
        seen = []

        def counting(solver):
            def run(block, *args, **kwargs):
                seen.append(id(block))
                return solver(block, *args, **kwargs)
            return run

        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
        c = build_clique_complex(octahedron_graph(), 2)
        op = homology.hodge_laplacian(c, 1, convention)
        pipeline.reduced_density(op, PEConfig.bits(t=2))
        assert sorted(seen) == sorted(id(block.matrix) for block in op.blocks)
        assert len(op.blocks) == (2 if convention == "dual" else 1)

    def test_one_context_at_automatic_t_decomposes_each_block_once_per_solver(self, monkeypatch):
        # blocks of 12 and 3: eigvalsh for the register size, the weights and the
        # summary; eigh for the rows, whose phases never depend on which reader ran first
        ctx = pipeline_context(octahedron_graph(), 1, "dual", PEConfig.bits())
        decomposed = record_decompositions(monkeypatch)
        extraction._flag_sums(ctx.op, ctx.cfg), ctx.rho()
        assert all(ctx.observable_encoding(m).verify()["ok"] for m in (FLAG_ONE, FLAG_ZERO))
        spectral_summary(ctx.op)
        calls = [(name, len(a)) for name, a in decomposed if len(a) > 2]  # not the observables
        assert sorted(calls) == [("eigh", 3), ("eigh", 12), ("eigvalsh", 3), ("eigvalsh", 12)]
        assert tuple(b.size for b in ctx.op.blocks) == (12, 3)


class TestEstimateNormalized:
    def test_c4_exact(self):
        est = estimate_normalized_betti(cycle_graph(4), 1, 0.05)
        assert est.value == pytest.approx(0.25, abs=1e-10)
        assert est.eps_measurement == 0.05 * 4 / 6

    def test_k4_zero(self):
        est = estimate_normalized_betti(complete_graph(4), 1, 0.05)
        assert est.value == pytest.approx(0.0, abs=1e-10)

    def test_dense_level_planner_identity(self):
        # |S_k| = C: the per-measurement accuracy equals delta itself
        est = estimate_normalized_betti(complete_graph(4), 1, 0.07)
        assert est.eps_measurement == 0.07

    def test_sampled_within_budget(self):
        est = estimate_normalized_betti(octahedron_graph(), 2, 0.05, mode="sampled", seed=21)
        assert abs(est.value - 1 / 8) <= 0.05
        assert 0.0 <= est.value <= 1.0

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            estimate_normalized_betti(cycle_graph(4), 1, 0.0)

    @pytest.mark.parametrize("delta", [np.inf, np.nan])
    def test_non_finite_delta_rejected(self, delta):
        for mode in ("exact", "sampled"):
            with pytest.raises(ValueError, match="delta"):
                estimate_normalized_betti(cycle_graph(4), 1, delta, mode=mode, seed=1)

    def test_sampled_beyond_dense_encoding_cap(self):
        # C = binom(14, 3) = 364: a dense observable encoding would exceed 4,608
        est = estimate_normalized_betti(random_graph(14, 0.5, seed=3), 2, 0.1,
                                        mode="sampled", seed=3)
        assert est.slot_count == 364
        assert np.isfinite(est.value)
        assert est.samples_per_observable >= hoeffding_sample_count(est.eps_measurement, 0.975)


class TestExtractionProperties:
    @settings(derandomize=True, database=None, deadline=None)
    @given(graph=small_graphs(max_n=9))
    def test_estimators_agree_with_the_oracle(self, graph):
        perm = np.random.default_rng(graph.n).permutation(graph.n)
        relabelled = VertexGraph(graph.n, graph.adjacency[np.ix_(perm, perm)])
        c = build_clique_complex(graph, graph.n - 1)
        for k in range(graph.n):  # every dimension, the top one k = n-1 included
            s_count = c.simplex_count(k)
            if s_count == 0:
                continue
            beta = betti_exact(c, k)
            assert estimate_betti(c, k, convention="dual").beta_rounded == beta
            est = estimate_betti(c, k)
            assert est.beta_rounded == beta
            assert est.p1_estimate == pytest.approx(est.slot_count - s_count, abs=1e-9)
            norm = estimate_normalized_betti(c, k, 0.1)
            assert norm.value == pytest.approx(beta / s_count, abs=1e-10)
            assert estimate_betti(relabelled, k).beta_rounded == est.beta_rounded


class TestTopDimension:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    def test_full_simplex_has_no_top_homology(self, n, convention):
        # k = n-1: d_n is the zero map out of the empty level n
        k = n - 1
        est = estimate_betti(complete_graph(n), k, convention=convention)
        assert est.beta_rounded == est.beta_oracle == 0
        assert est.slot_count == 1
        assert est.p1_estimate == pytest.approx(0.0, abs=1e-12)
        norm = estimate_normalized_betti(complete_graph(n), k, 0.1, convention=convention)
        assert norm.value == norm.oracle_value == 0.0
        assert norm.slot_count == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_complement_report(self, n):
        rep = complement_report(complete_graph(n), n - 1)
        assert rep["slot_count"] == rep["s_count"] == 1
        assert rep["p1_restricted"] == rep["p1_dual"] == 0.0
        assert rep["betti_complement_exact"] == 0
        assert rep["dual_matches_block_kernel"]

    def test_top_level_of_a_hollow_complex_is_empty(self):
        with pytest.raises(ValueError, match="no k-simplices"):
            estimate_betti(cycle_graph(4), 3)


class TestKnownTopology:
    """Betti numbers at k = 3..5 from mathematics, not from this code: K_{2xm} is
    S^{m-1}, the join of S^a and S^b is S^{a+b+1}, and disjoint unions add."""

    C5 = cycle_graph(5)

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    @pytest.mark.parametrize("graph,k,beta", [
        pytest.param(graph_join(C5, C5), 3, 1, id="C5*C5=S3"),
        pytest.param(cocktail_party_graph(5), 4, 1, id="K2x5=S4"),
        pytest.param(graph_join(C5, cocktail_party_graph(3)), 4, 1, id="C5*K2x3=S4"),
        pytest.param(graph_join(graph_join(C5, C5), C5), 5, 1, id="C5*C5*C5=S5"),
        # its complement is the join of two perfect matchings: a dual block of 16 rows
        pytest.param(disjoint_union(cocktail_party_graph(4), cocktail_party_graph(4)), 3, 2,
                     id="K2x4+K2x4=2S3"),
    ])
    def test_betti_number_of_a_known_space(self, graph, k, beta, convention):
        c = build_clique_complex(graph, k)
        assert betti_exact(c, k) == beta
        assert spectral_summary(hodge_laplacian(c, k, convention)).threshold_agrees
        assert estimate_betti(c, k, convention=convention).beta_rounded == beta
        # automatic t reads 1.003 to 1.022 here (its leakage bias), so only the rounded value
        assert estimate_betti(c, k, convention=convention, pe=PEConfig.bits()).beta_rounded == beta


class TestBuildLevel:
    """A graph is built to level k; a complex built a level higher, as a caller
    may still pass, or a level lower, which is rebuilt from its graph, gives the
    same estimates bit for bit."""

    CASES = ([(census_graph(i), k) for i in range(1, 2 ** 15, 64) for k in (0, 1)]
             + [(random_graph(n, p, seed=1), 2) for n in (8, 16, 24) for p in (0.3, 0.5, 0.7)])

    def test_a_complex_built_above_k_estimates_as_the_graph(self):
        for graph, k in self.CASES:
            # a level above k and, for k >= 1, a level below, rebuilt from its graph
            complexes = [build_clique_complex(graph, level)
                         for level in {min(k + 1, graph.n - 1), max(k - 1, 0)}]
            for source in complexes:
                for pe in (None, PEConfig.bits(t=2)):
                    for convention in ("restricted", "dual"):
                        a, b = (estimate_betti(s, k, convention=convention, pe=pe)
                                for s in (graph, source))
                        assert repr((a.beta_estimate, a.p1_estimate, a.kappa_laplacian)) == \
                            repr((b.beta_estimate, b.p1_estimate, b.kappa_laplacian)), \
                            (graph.edges(), k, source.max_dim, convention, pe)
                    assert complement_report(graph, k, pe) == complement_report(source, k, pe), \
                        (graph.edges(), k, source.max_dim, pe)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_dimension_out_of_range_is_named(self, k):
        for source in (complete_graph(4), build_clique_complex(complete_graph(4), 3)):
            with pytest.raises(ValueError, match=f"dimension k={k} out of range for n=4"):
                pipeline_context(source, k)


class TestIntegerDimension:
    """Every entry point takes k through the one range rule, which reads an
    integer value (1.0, or True) as the plain int its records then hold, and
    names k when 1.5, "1" or None is not one."""

    BAD = (1.5, "1", None)

    @classmethod
    def check(cls, call):
        one = call(1)
        for k in (1.0, True):
            got = call(k)
            assert got == one
            assert type(got["k"]) is int
        for k in cls.BAD:
            with pytest.raises(ValueError, match=f"dimension k must be an integer, got {k!r}"):
                call(k)

    def test_estimate_betti(self):
        for source in (cycle_graph(4), build_clique_complex(cycle_graph(4), 2)):
            self.check(lambda k: estimate_betti(source, k).to_dict())

    def test_estimate_normalized_betti(self):
        self.check(lambda k: estimate_normalized_betti(cycle_graph(4), k, 0.1).to_dict())

    def test_complement_report(self):
        self.check(lambda k: complement_report(cycle_graph(4), k))

    def test_resource_estimate(self):
        self.check(lambda k: resource_estimate(5, k, 2.0, 1, 3).to_dict())


class TestArgumentsCheckedFirst:
    """Every argument an estimator, `complement_report` or `pipeline_context` reads
    is checked before any complex is built, and a missing, non-numeric or
    mistyped one is a ValueError that names it, not a TypeError or AttributeError."""

    CALLS = {
        "sampled-without-eps": (lambda g: estimate_betti(g, 2, mode="sampled"),
                                "sampled mode needs a target multiplicative accuracy eps"),
        "beta-lower-zero": (lambda g: estimate_betti(g, 2, 0.1, mode="sampled", beta_lower=0),
                            "beta_lower must be positive and finite, got 0"),
        "negative-seed": (lambda g: estimate_betti(g, 2, 0.1, mode="sampled", seed=-1),
                          "expected non-negative integer"),
        "string-seed": (lambda g: estimate_betti(g, 2, 0.1, mode="sampled", seed="a"),
                        "seed must be None, a non-negative integer or a sequence of them, got 'a'"),
        "float-seed": (lambda g: estimate_betti(g, 2, 0.1, mode="sampled", seed=1.5),
                       "seed must be None, a non-negative integer or a sequence of them, got 1.5"),
        "normalized-delta-none": (lambda g: estimate_normalized_betti(g, 2, None),
                                  "delta must be positive and finite, got None"),
        "confidence-none": (lambda g: estimate_betti(g, 2, confidence=None),
                            r"confidence must lie in \(0, 1\), got None"),
        "normalized-confidence-none": (
            lambda g: estimate_normalized_betti(g, 2, 0.1, mode="sampled", confidence=None),
            r"confidence must lie in \(0, 1\), got None"),
        "eps-string": (lambda g: estimate_betti(g, 2, "0.1"),
                       "eps must be positive and finite, got 0.1"),
        "convention-typo": (lambda g: estimate_betti(g, 2, convention="dula"),
                            "unknown convention 'dula'"),
        "normalized-convention-typo": (
            lambda g: estimate_normalized_betti(g, 2, 0.1, convention="dula"),
            "unknown convention 'dula'"),
        "context-convention-typo": (lambda g: pipeline_context(g, 2, "dula"),
                                    "unknown convention 'dula'"),
        "pe-string": (lambda g: estimate_betti(g, 2, pe="bits"),
                      "pe must be None or of type PEConfig, got 'bits'"),
        "normalized-pe-string": (lambda g: estimate_normalized_betti(g, 2, 0.1, pe="bits"),
                                 "pe must be None or of type PEConfig, got 'bits'"),
        "complement-pe-string": (lambda g: complement_report(g, 2, pe="ideal"),
                                 "pe must be None or of type PEConfig, got 'ideal'"),
        "context-pe-string": (lambda g: pipeline_context(g, 2, pe="bits"),
                              "pe must be None or of type PEConfig, got 'bits'"),
        "pair-list": (lambda g: estimate_betti(g, 2, pair=[[1, 0], [0, 1]]),
                      r"pair must be None or of type ObservablePair, got \[\[1, 0\], \[0, 1\]\]"),
        "normalized-pair-list": (
            lambda g: estimate_normalized_betti(g, 2, 0.1, pair=[[1, 0], [0, 1]]),
            r"pair must be None or of type ObservablePair, got \[\[1, 0\], \[0, 1\]\]"),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_rejected_before_any_build(self, monkeypatch, name):
        call, message = self.CALLS[name]
        levels = []
        build = extraction.build_clique_complex

        def counting(source, max_dim):
            levels.append(max_dim)
            return build(source, max_dim)

        monkeypatch.setattr(extraction, "build_clique_complex", counting)
        with pytest.raises(ValueError, match=message):
            call(random_graph(12, 0.4, seed=1))
        assert levels == []

    @pytest.mark.parametrize("confidence", [None, "0.9"])
    def test_sample_count_rejects_a_non_numeric_confidence(self, confidence):
        with pytest.raises(ValueError, match=r"confidence must lie in \(0, 1\)"):
            hoeffding_sample_count(0.1, confidence)


class TestComplementReport:
    def test_c4(self):
        rep = complement_report(cycle_graph(4), 1)
        assert rep["p1_restricted"] == pytest.approx(2.0, abs=1e-9)
        assert rep["betti_complement_exact"] == 0
        assert rep["p1_dual"] == pytest.approx(rep["kernel_dim_complement_block"], abs=1e-9)
        assert rep["dual_matches_block_kernel"]

    def test_path4_self_complementary(self):
        g = path_graph(4)
        rep_g = complement_report(g, 1)
        rep_c = complement_report(g.complement(), 1)
        assert rep_g["s_count"] == rep_c["complement_slot_count"]
        assert rep_g["p1_restricted"] == rep_c["p1_restricted"]  # both have 3 edges of 6 slots
        assert rep_g["betti_complement_exact"] == rep_c["betti_complement_exact"] == 0

    def test_empty_graph_all_zero_but_restricted(self):
        rep = complement_report(empty_graph(4), 1)
        assert rep["s_count"] == 0
        assert rep["p1_restricted"] == pytest.approx(6.0, abs=1e-9)
        assert rep["betti_complement_exact"] == 0
        assert rep["p1_dual"] == pytest.approx(0.0, abs=1e-9)

    def test_empty_complex_block_under_automatic_bits(self):
        # the complex's block is empty, so the register is sized for the
        # complement K4's 6-slot edge block: kappa = 1, 2^t >= 2 sqrt(6), t = 3
        rep = complement_report(empty_graph(4), 1, pe=PEConfig.bits())
        assert rep["p1_restricted"] == pytest.approx(6.0, abs=1e-9)
        assert rep["p1_dual"] == pytest.approx(0.0, abs=1e-9)
        op = pipeline_context(empty_graph(4), 1, "dual").op
        assert PEConfig.bits().resolve(op) == 3

    def test_automatic_bits_sized_for_the_largest_block(self):
        # |S_2| = 0: sized for the complex's block alone, t was 3 and p1_dual
        # read 65.90 against the complement block's kernel of 65
        graph = random_graph(10, 0.3, seed=1)
        rep = complement_report(graph, 2, pe=PEConfig.bits())
        assert abs(rep["p1_dual"] - rep["kernel_dim_complement_block"]) <= 0.25
        assert PEConfig.bits().resolve(pipeline_context(graph, 2, "dual").op) == 6

    def test_octahedron_k2_counts_neither_slots(self):
        rep = complement_report(octahedron_graph(), 2)
        # complement = perfect matching: no triangles; all 12 off-complex slots
        # lie in neither complex and are zero rows of the dual operator
        assert rep["neither_complex_slot_count"] == 12
        assert rep["p1_dual"] == pytest.approx(12.0, abs=1e-9)
        assert rep["dual_matches_block_kernel"]

    def test_point_cloud_reads_its_induced_graph(self, tmp_path):
        cloud = generate_instance(InstanceSpec("annulus-cloud", {"n": 9, "length_scale": 0.9}, 1))
        for k in (0, 1, 2):
            for pe in (None, PEConfig.bits(t=2)):
                assert complement_report(cloud, k, pe) == \
                    complement_report(induced_graph(cloud), k, pe), (k, pe)
        path, out = tmp_path / "cloud.json", tmp_path / "report.json"
        dump_instance(cloud, path)
        assert cli.main(["complement", "--instance", str(path), "--k", "1", "--out", str(out)]) == 0

    def test_builds_and_decomposes_each_block_once(self, monkeypatch):
        graph = random_graph(12, 0.4, seed=1)
        expected = tuple(extraction._flag_sums(ctx.op, ctx.cfg)[1] for ctx in
                         (pipeline_context(graph, 2, c) for c in ("restricted", "dual")))
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rep = complement_report(graph, 2)
        assert sizes == []  # every block's kernel count comes from ranks
        assert (rep["p1_restricted"], rep["p1_dual"]) == expected
        assert rep["dual_matches_block_kernel"]

    def test_reads_a_built_complex_without_rebuilding(self, monkeypatch):
        graph = random_graph(12, 0.4, seed=1)
        expected = complement_report(graph, 2)
        built = build_clique_complex(graph, 3)
        levels = []
        build = extraction.build_clique_complex

        def counting(source, max_dim):
            levels.append(max_dim)
            return build(source, max_dim)

        monkeypatch.setattr(extraction, "build_clique_complex", counting)
        assert complement_report(built, 2) == expected
        assert levels == []
        # an under-built complex is rebuilt from its graph to the level it needs
        assert complement_report(build_clique_complex(graph, 1), 2) == expected
        assert levels == [2]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs_consistent(self, seed):
        rep = complement_report(random_graph(7, 0.5, seed=seed), 1)
        assert rep["dual_matches_block_kernel"]
        assert rep["p1_restricted"] == pytest.approx(
            rep["slot_count"] - rep["s_count"], abs=1e-9)


class TestIdealDualRankRoute:
    """Under ideal phase estimation the dual p1 is the complement block's kernel
    count read from integer ranks; the block itself is built only where its
    spectrum is read."""

    @staticmethod
    def cases():
        # every 64th labeled 6-vertex graph at k in {0, 1}, and random graphs at k = 2
        cases = [(census_graph(i), k) for i in range(1, 2 ** 15, 64) for k in (0, 1)]
        cases += [(random_graph(n, p, seed=1), 2) for n in (8, 12, 16, 20, 24, 28)
                  for p in (0.3, 0.5, 0.7)]
        return cases

    def test_p1_is_the_kernel_count_of_the_dual_spectrum(self):
        for graph, k in self.cases():
            ctx = pipeline_context(graph, k, "dual")
            full = hodge_laplacian(ctx.op.complex, k, "dual")
            kernels = tuple(b.kernel_dim for b in full.blocks)
            uncovered = full.dim - sum(len(b.slots) for b in full.blocks)
            p1 = extraction._flag_sums(ctx.op, ctx.cfg)[1]
            assert p1 == uncovered + sum(kernels[1:]), (graph, k)
            if k == 0:
                assert p1 == 0
            if ctx.op.blocks[0].size:
                est = estimate_betti(ctx.op.complex, k, convention="dual")
                norm = estimate_normalized_betti(ctx.op.complex, k, 0.05, convention="dual")
                assert (est.beta_rounded == round(norm.value * ctx.op.blocks[0].size)
                        == kernels[0])

    def test_only_the_complex_block_is_built_and_decomposed(self, monkeypatch, tmp_path):
        graph = random_graph(12, 0.4, seed=1)  # blocks of 10 and 61 at k = 2
        built, decomposed = [], []

        def counting(fn, sizes, size):
            def run(*args, **kwargs):
                out = fn(*args, **kwargs)
                sizes.append(size(args, out))
                return out
            return run

        monkeypatch.setattr(homology, "_laplacian_block",
                            counting(homology._laplacian_block, built, lambda args, out: len(out)))
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name), decomposed,
                                                          lambda args, out: len(args[0])))
        estimate_betti(graph, 2, convention="dual")
        estimate_betti(graph, 2, 0.5, convention="dual", mode="sampled", seed=1)
        estimate_normalized_betti(graph, 2, 0.1, convention="dual")
        assert complement_report(graph, 2)["dual_matches_block_kernel"]
        assert built == [10] * 2  # only the estimate_betti calls read kappa
        assert decomposed == [10, 10]  # kappa, once per estimate_betti

        path, out = tmp_path / "g.json", tmp_path / "out.json"
        dump_instance(graph, path)
        # the paths that read the complement block's spectrum still build it
        for run in (lambda: estimate_betti(graph, 2, convention="dual", pe=PEConfig.bits()),
                    lambda: complement_report(graph, 2, pe=PEConfig.bits()),
                    lambda: pipeline_context(graph, 2, "dual").rho(),
                    lambda: cli.main(["exact", "--instance", str(path), "--k", "2",
                                      "--convention", "dual", "--out", str(out)])):
            built.clear()
            decomposed.clear()
            assert run() is not None
            assert sorted(built) == sorted(set(decomposed)) == [10, 61]

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    def test_ideal_reads_of_sizes_and_kernel_counts_assemble_no_block(self, monkeypatch,
                                                                      convention):
        graph = random_graph(12, 0.4, seed=1)
        built = []
        block = homology._laplacian_block

        def counting(complex_, k):
            built.append(k)
            return block(complex_, k)

        monkeypatch.setattr(homology, "_laplacian_block", counting)
        for k in (0, 1, 2):
            estimate_normalized_betti(graph, k, 0.1, convention=convention)
            estimate_normalized_betti(graph, k, 0.1, convention=convention, mode="sampled",
                                      seed=1)
            assert complement_report(graph, k)["dual_matches_block_kernel"]
        assert built == []

    def test_two_estimates_on_one_graph_pack_its_masks_once(self, monkeypatch):
        graph = random_graph(12, 0.4, seed=1)
        packed = []
        packbits = np.packbits

        def counting(*args, **kwargs):
            packed.append(args[0].shape)
            return packbits(*args, **kwargs)

        monkeypatch.setattr(np, "packbits", counting)
        first = estimate_betti(graph, 1)
        assert estimate_normalized_betti(graph, 1, 0.1).oracle_value == (
            first.beta_oracle / first.s_count)
        assert packed == [(12, 12)]
        masks = graph.adjacency_masks()
        masks.clear()  # each call returns a fresh list
        assert graph.adjacency_masks() == list(build_clique_complex(graph, 0).masks)

    def test_complement_report_builds_and_ranks_the_complement_once(self, monkeypatch):
        graph = random_graph(12, 0.4, seed=1)
        levels, ranked = [], []
        build, rank = homology.complement_complex, homology._betti

        def recording(g, max_dim):
            levels.append(max_dim)
            return build(g, max_dim)

        def ranking(c, k, count):
            ranked.append("complex" if c.graph is graph else "complement")
            return rank(c, k, count)

        monkeypatch.setattr(homology, "complement_complex", recording)
        monkeypatch.setattr(homology, "_betti", ranking)
        for pe in (None, PEConfig.bits()):
            levels.clear()
            ranked.clear()
            rep = complement_report(graph, 2, pe=pe)
            assert levels == [2] and ranked == ["complex", "complement"]
            assert rep["kernel_dim_complement_block"] == \
                rep["betti_complement_exact"] + rep["neither_complex_slot_count"]

    def test_reports_the_complex_block_kappa(self):
        # ER(14, 0.5, 1) k=2: the complex's block has kappa 18.5, the whole dual operator 32.6
        graph = random_graph(14, 0.5, seed=1)
        dual = estimate_betti(graph, 2, 0.25, convention="dual")
        restricted = estimate_betti(graph, 2, 0.25, convention="restricted")
        assert dual.beta_rounded == restricted.beta_rounded == 1
        assert dual.kappa_laplacian == restricted.kappa_laplacian
        assert dual.resource.kappa == restricted.resource.kappa == dual.kappa_laplacian
        whole = spectral_summary(hodge_laplacian(build_clique_complex(graph, 3), 2, "dual")).kappa
        assert whole > 1.5 * dual.kappa_laplacian
        # a t-bit register reads every block, so it reports the whole operator's
        assert estimate_betti(graph, 2, convention="dual", pe=PEConfig.bits()).kappa_laplacian == whole


class TestResourceEstimate:
    def test_reference_point(self):
        rep = resource_estimate(4, 1, kappa=2.0, beta=1.0, s_count=4, eps=0.25)
        assert rep.this_method_cost == pytest.approx(288.0)
        assert rep.classical_cost == 6.0
        assert rep.depth_this_method == pytest.approx(12.0)
        assert rep.depth_prior_quantum == pytest.approx(16 * np.sqrt(6 / 4) + 8)

    def test_normalized_costs(self):
        rep = resource_estimate(6, 1, kappa=2.0, beta=1.0, s_count=9, delta=0.05)
        assert rep.normalized_this_method_cost == pytest.approx((6 + 12) * 15 / (0.05 * 9))
        assert rep.normalized_prior_cost == pytest.approx(
            (36 * np.sqrt(15 / 9) + 12) / 0.05)
        assert rep.this_method_cost is None

    def test_beta_zero_multiplicative_rejected(self):
        with pytest.raises(ValueError):
            resource_estimate(4, 1, kappa=2.0, beta=0.0, s_count=4, eps=0.25)

    def test_more_simplices_than_slots_rejected(self):
        # C = binom(5, 2) = 10 slots hold at most 10 edges
        with pytest.raises(ValueError, match=r"\|S_k\| = 11 exceeds the slot count C = 10"):
            resource_estimate(5, 1, kappa=2.0, beta=1.0, s_count=11, eps=0.1)
        assert resource_estimate(5, 1, kappa=2.0, beta=1.0, s_count=10,
                                 eps=0.1).grover_preparation_cost == 5.0

    def test_pure_function(self):
        a = resource_estimate(5, 1, kappa=1.5, beta=2.0, s_count=7, eps=0.2, delta=0.1)
        b = resource_estimate(5, 1, kappa=1.5, beta=2.0, s_count=7, eps=0.2, delta=0.1)
        assert a == b
