import itertools
import re
import tracemalloc

import numpy as np
import pytest

from bettiq import extraction
from bettiq import (
    BlockEncoding,
    BlockEncodingError,
    HodgeBlock,
    HodgeOperator,
    ObservablePair,
    PEConfig,
    TraceEstimate,
    VertexGraph,
    block_encode_density,
    block_encode_hermitian,
    block_encode_projector,
    block_encode_state_mixture,
    build_clique_complex,
    complement_report,
    estimate_betti,
    grover_prep_cost,
    hodge_laplacian,
    hoeffding_sample_count,
    phase_zero_probability,
    pipeline_context,
    reduced_density,
    slot_rank,
    tensor_block_encoding,
    trace_estimate,
)
from bettiq.pipeline import _row_norms
from helpers import (
    apply_encoding,
    complete_graph,
    contains_word,
    copy_register,
    cycle_graph,
    empty_graph,
    householder_unitary,
    matrix_operator,
    octahedron_graph,
    partial_trace,
    path_graph,
    phase_estimation_unitary,
    prepare_phi,
    random_graph,
    record_decompositions,
    reflection_matrix,
    slot_words,
    slot_zero_phase_weights,
    tensor_unitary,
    validate_density,
    zero_phase_weight,
)

IDEAL = PEConfig.ideal()


def c4_complex(max_dim=2):
    return build_clique_complex(cycle_graph(4), max_dim)


def p_zero(complex_, k, cfg=IDEAL):
    """Zero-outcome probability over the complex's own simplices."""
    op = pipeline_context(complex_, k, pe=cfg).op
    return extraction._flag_sums(op, cfg)[0] / op.blocks[0].size


def flag_one_observable(rho):
    proj = np.zeros((rho.phase_dim * rho.slot_dim,) * 2)
    proj[: rho.slot_dim, : rho.slot_dim] = np.eye(rho.slot_dim)
    return np.kron(proj, np.diag([0.0, 1.0]))


class TestPreparePhi:
    def test_c4_amplitudes_and_flags(self):
        state = prepare_phi(c4_complex(), 1)
        amp = state.amplitudes
        assert amp.shape == (6, 2)
        root = 1 / np.sqrt(6)
        flags = amp[:, 1] > 0
        # membership pattern over the value-ordered slots {01,02,12,03,13,23}
        assert list(flags) == [True, False, True, True, False, True]
        assert np.allclose(amp[amp > 0], root)

    def test_complete_graph_all_flagged(self):
        c = build_clique_complex(complete_graph(4), 3)
        state = prepare_phi(c, 2)
        assert (state.amplitudes[:, 1] > 0).all()
        assert not state.amplitudes[:, 0].any()

    def test_empty_level_all_unflagged(self):
        c = build_clique_complex(empty_graph(3), 1)
        state = prepare_phi(c, 1)
        assert not state.amplitudes[:, 1].any()


class TestCopyRegister:
    def test_norm_preserved(self):
        copied = copy_register(prepare_phi(c4_complex(), 1))
        assert copied.copied
        assert np.linalg.norm(copied.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_double_copy_rejected(self):
        copied = copy_register(prepare_phi(c4_complex(), 1))
        with pytest.raises(ValueError):
            copy_register(copied)

    def test_tracing_copy_dephases_slots(self):
        state = prepare_phi(c4_complex(), 1)
        copied = copy_register(state)
        vec = copied.vector()
        rho = np.outer(vec, vec.conj())
        reduced = partial_trace(rho, [6, 2, 6], keep=[0, 1])
        expected = np.zeros((12, 12))
        for i in range(6):
            f = int(state.amplitudes[i, 1] > 0)
            pos = 2 * i + f
            expected[pos, pos] = 1 / 6
        assert np.allclose(reduced, expected, atol=1e-12)

    def test_tracing_copy_and_flag_gives_uniform_mixture(self):
        copied = copy_register(prepare_phi(c4_complex(), 1))
        vec = copied.vector()
        reduced = partial_trace(np.outer(vec, vec.conj()), [6, 2, 6], keep=[0])
        assert np.allclose(reduced, np.eye(6) / 6, atol=1e-12)


class TestPhaseZeroProbability:
    def test_exact_values(self):
        assert phase_zero_probability(0.0, 3) == 1.0
        assert phase_zero_probability(np.pi, 1) == pytest.approx(0.0, abs=1e-30)
        # t=1: F(phi) = cos^2(phi/2)
        phi = 0.7
        assert phase_zero_probability(phi, 1) == pytest.approx(np.cos(phi / 2) ** 2)

    def test_nonincreasing_in_t(self):
        grid = np.linspace(1e-3, 2 * np.pi - 1e-3, 500)
        prev = phase_zero_probability(grid, 1)
        for t in range(2, 9):
            cur = phase_zero_probability(grid, t)
            assert (cur <= prev + 1e-12).all()
            prev = cur


class TestZeroPhaseWeights:
    def test_kernel_slot_is_exactly_one_any_t(self):
        c = c4_complex()
        op = hodge_laplacian(c, 1, "restricted")
        diag_word = 0b0101  # off-complex slot: a zero row, eigenphase 0
        for cfg in (IDEAL, PEConfig.bits(t=1), PEConfig.bits(t=5)):
            assert zero_phase_weight(op, cfg, diag_word) == 1.0

    def test_eigenphase_pi_one_bit_reads_zero_never(self):
        op = matrix_operator(np.diag([0.0, 2.0]), 1)
        cfg = PEConfig.bits(t=1)  # the automatic tau = pi / lambda_max sends 2 to phase pi
        assert zero_phase_weight(op, cfg, 0b10) == pytest.approx(0.0, abs=1e-15)
        assert zero_phase_weight(op, cfg, 0b01) == 1.0

    def test_c4_edge_kernel_overlap(self):
        c = c4_complex()
        op = hodge_laplacian(c, 1)
        for word in c.words(1):
            assert zero_phase_weight(op, IDEAL, word) == pytest.approx(0.25, abs=1e-10)

    def test_bad_word_rejected(self):
        op = hodge_laplacian(c4_complex(), 1)
        with pytest.raises(ValueError):
            zero_phase_weight(op, IDEAL, 0b0111)

    def test_matches_pe_unitary_columns(self):
        c = c4_complex()
        op = hodge_laplacian(c, 1)
        cfg = PEConfig.bits(t=3)
        u_pe = phase_estimation_unitary(op, cfg)
        weights = slot_zero_phase_weights(op, cfg)
        c_total = op.dim
        for s in range(c_total):
            col = u_pe[:, s]  # input (phase=0, slot=s)
            direct = float((np.abs(col[:c_total]) ** 2).sum())  # phase register reads 0
            assert direct == pytest.approx(weights[s], abs=1e-12)

    def test_auto_t_ignores_eigh_rounding_of_kappa(self):
        # kappa = 4 exactly at k=1; eigh reads it as 4 or 4 + 4e-15 by vertex labelling
        edges = [(0, 1), (1, 3), (1, 4), (2, 5), (3, 4)]
        resolved = set()
        for perm in itertools.permutations(range(6)):
            g = VertexGraph.from_edges(6, [(perm[u], perm[v]) for u, v in edges])
            op = hodge_laplacian(build_clique_complex(g, 2), 1)
            resolved.add(PEConfig.bits().resolve(op))
        assert resolved == {4}


class TestPEConfig:
    @pytest.mark.parametrize("t", [2.5, float("nan"), float("inf"), "3"])
    def test_non_integral_register_size_rejected(self, t):
        # t = 2.5 would run with P = 2^2.5 and read C5 k=1 as 1.03
        with pytest.raises(ValueError, match="phase register size t"):
            PEConfig.bits(t=t)

    @pytest.mark.parametrize("t", [3.0, np.int64(3), np.uint8(3)])
    def test_integral_register_size_stored_as_int(self, t):
        cfg = PEConfig.bits(t=t)
        assert cfg.t == 3 and type(cfg.t) is int
        assert cfg == PEConfig.bits(t=3)

    @pytest.mark.parametrize("t", [1, 3, 3.0])
    def test_register_size_rejected_in_ideal_mode(self, t):
        # the flag bit would ignore it: C5 k=1 would read 1.0 as ideal
        with pytest.raises(ValueError, match="register size t"):
            PEConfig(mode="ideal", t=t)

    @pytest.mark.parametrize("cfg,t,decomposes", [(IDEAL, 1, False), (PEConfig.bits(t=3), 3, False),
                                                  (PEConfig.bits(), 3, True)])
    def test_only_an_automatic_register_size_reads_the_spectrum(self, cfg, t, decomposes,
                                                                 monkeypatch):
        # automatic on C4 k=1: 4 edges, kappa = 2, 2^t >= 2 sqrt(4) / sin(pi / 4) = 5.66
        op = hodge_laplacian(c4_complex(), 1)
        decomposed = record_decompositions(monkeypatch)
        assert cfg.resolve(op) == t
        assert [(name, len(a)) for name, a in decomposed] == [("eigvalsh", 4)] * decomposes


PE_CONFIGS = [IDEAL, PEConfig.bits(t=1), PEConfig.bits(t=2), PEConfig.bits(t=3), PEConfig.bits()]
PE_INSTANCES = [
    pytest.param(cycle_graph(4), 1, id="C4 k=1"),
    pytest.param(complete_graph(3), 1, id="K3 k=1"),
    pytest.param(octahedron_graph(), 2, id="octahedron k=2"),
    pytest.param(random_graph(7, 0.4, seed=3), 1, id="ER(7,0.4,3) k=1"),
    pytest.param(random_graph(8, 0.5, seed=2), 2, id="ER(8,0.5,2) k=2"),
]


class TestZeroPhaseColumns:
    """The phase-estimation columns U_PE |0>|s>, read from the rows of the
    reduced state, which tag each with its slot's membership flag."""

    @pytest.mark.parametrize("convention", ["restricted", "dual"])
    @pytest.mark.parametrize("graph,k", PE_INSTANCES)
    def test_equal_the_unitary_oracle_columns(self, graph, k, convention):
        c = build_clique_complex(graph, k + 1)
        op = hodge_laplacian(c, k, convention)
        slots = np.arange(op.dim)
        flag = np.zeros(op.dim, dtype=np.intp)
        flag[[slot_rank(w) for w in c.words(k)]] = 1
        for cfg in PE_CONFIGS:
            rows = reduced_density(op, cfg).vectors.reshape(op.dim, -1, 2)
            oracle = phase_estimation_unitary(op, cfg)[:, : op.dim]
            assert rows.shape[1] == oracle.shape[0]
            assert np.abs(rows[slots, :, flag] - oracle.T).max() < 1e-12, cfg
            assert not rows[slots, :, 1 - flag].any(), cfg

    def test_reduced_density_holds_only_the_read_columns(self):
        # C = 120, P = 32: the whole unitary would be 3,840^2 complex entries (~236 MB)
        c = build_clique_complex(random_graph(10, 0.5, seed=1), 3)
        op = hodge_laplacian(c, 2)
        op.eig(0)
        tracemalloc.start()
        try:
            rho = reduced_density(op, PEConfig.bits(t=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (rho.phase_dim, rho.slot_dim) == (32, 120)
        assert rho.vectors.shape == (120, 32 * 120 * 2)
        assert peak < 32 << 20


    @pytest.mark.parametrize("convention,cfg", [("dual", PEConfig.bits(t=6)),
                                                ("restricted", PEConfig.bits()),
                                                ("dual", IDEAL)])
    def test_rows_do_not_depend_on_call_order(self, monkeypatch, convention, cfg):
        c = build_clique_complex(random_graph(7, 0.4, 3), 2)
        fresh = reduced_density(hodge_laplacian(c, 1, convention), cfg).vectors
        fresh_estimate = estimate_betti(c, 1, convention=convention, pe=cfg).beta_estimate
        op = hodge_laplacian(c, 1, convention)
        monkeypatch.setattr(extraction, "hodge_laplacian", lambda *args: op)
        decomposed = record_decompositions(monkeypatch)
        assert estimate_betti(c, 1, convention=convention, pe=cfg).beta_estimate == fresh_estimate
        # the estimate decomposed this operator (under ideal, its complex's block) first
        read = [b.size for b in (op.blocks[:1] if cfg.mode == "ideal" else op.blocks)]
        assert [(name, len(a)) for name, a in decomposed] == [("eigvalsh", size) for size in read]
        assert np.array_equal(reduced_density(op, cfg).vectors, fresh)
        # and the other way round: rows first leave the estimate unchanged
        op = hodge_laplacian(c, 1, convention)
        assert np.array_equal(reduced_density(op, cfg).vectors, fresh)
        assert estimate_betti(c, 1, convention=convention, pe=cfg).beta_estimate == fresh_estimate


class TestPhaseEstimationUnitary:
    @pytest.mark.parametrize("cfg", [IDEAL, PEConfig.bits(t=1), PEConfig.bits(t=3)])
    def test_unitarity(self, cfg):
        op = hodge_laplacian(c4_complex(), 1)
        u = phase_estimation_unitary(op, cfg)
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-10

    def test_finite_bits_p0_converges_monotonically(self):
        # path vertex Laplacian has eigenphases {pi/3, pi}: non-dyadic leakage
        c = build_clique_complex(path_graph(3), 1)
        ideal = p_zero(c, 0)
        assert ideal == pytest.approx(1 / 3, abs=1e-10)
        diffs = [p_zero(c, 0, PEConfig.bits(t=t)) - ideal for t in range(1, 9)]
        assert all(d >= -1e-12 for d in diffs)
        assert all(diffs[i + 1] <= diffs[i] + 1e-12 for i in range(len(diffs) - 1))
        assert diffs[-1] < 1e-3


class TestReducedDensity:
    def test_blocks_sharing_a_slot_are_refused(self):
        c = c4_complex()
        op = HodgeOperator("dual", (HodgeBlock(c, 1, 1), HodgeBlock(c, 1, 1)))
        with pytest.raises(AssertionError, match="complement-complex simplices collide"):
            reduced_density(op, IDEAL)

    def test_trace_and_psd(self):
        c = c4_complex()
        op = hodge_laplacian(c, 1)
        for cfg in (IDEAL, PEConfig.bits(t=2)):
            rho = reduced_density(op, cfg)
            report = validate_density(rho)
            assert report["ok"], report

    def test_flagged_zero_phase_expectation(self):
        c = c4_complex()
        op = hodge_laplacian(c, 1)
        rho = reduced_density(op, IDEAL)
        value = rho.expectation(flag_one_observable(rho))
        assert value == pytest.approx(1 / 6, abs=1e-10)
        weights = slot_zero_phase_weights(op, IDEAL)
        member = [slot_rank(w) for w in c.words(1)]
        assert value == pytest.approx(weights[member].sum() / 6, abs=1e-12)

    def test_equals_partial_trace_of_copied_state(self):
        # build the full pure state on phase x slot x flag x copy and trace the copy
        c = build_clique_complex(complete_graph(3), 2)
        k = 1
        op = hodge_laplacian(c, k)
        cfg = PEConfig.bits(t=2)
        rho = reduced_density(op, cfg)
        u_pe = phase_estimation_unitary(op, cfg)
        c_total = op.dim
        p_dim = u_pe.shape[0] // c_total
        full = np.zeros(p_dim * c_total * 2 * c_total, dtype=complex)
        for s, word in enumerate(slot_words(c.n, k)):
            flag = np.zeros(2)
            flag[int(contains_word(c, k, word))] = 1.0
            copy = np.zeros(c_total)
            copy[s] = 1.0
            full += np.kron(np.kron(u_pe[:, s], flag), copy) / np.sqrt(c_total)
        traced = partial_trace(np.outer(full, full.conj()), [p_dim, c_total, 2, c_total],
                               keep=[0, 1, 2])
        assert np.abs(traced - rho.matrix()).max() < 1e-12


class TestPZeroPOne:
    def test_c4(self):
        c = c4_complex()
        assert p_zero(c, 1) == pytest.approx(0.25, abs=1e-10)
        assert extraction._flag_sums(pipeline_context(c, 1).op, IDEAL)[1] == pytest.approx(2.0, abs=1e-9)
        assert complement_report(c, 1)["p1_restricted_per_slot"] == pytest.approx(1.0, abs=1e-9)

    def test_octahedron_k2(self):
        c = build_clique_complex(octahedron_graph(), 3)
        assert p_zero(c, 2) == pytest.approx(1 / 8, abs=1e-10)

    def test_k4_no_holes(self):
        c = build_clique_complex(complete_graph(4), 2)
        assert p_zero(c, 1) == pytest.approx(0.0, abs=1e-10)
        # dense level: no off-complex slots
        assert complement_report(c, 1)["p1_restricted_per_slot"] is None

    def test_c4_dual_p1_by_diagonalization(self):
        c = c4_complex()
        # complement block is the edge Laplacian of two disjoint edges: no kernel
        dual = pipeline_context(c, 1, "dual").op
        assert extraction._flag_sums(dual, IDEAL)[1] == pytest.approx(0.0, abs=1e-10)

    def test_empty_level_rejected(self):
        c = build_clique_complex(empty_graph(3), 2)
        with pytest.raises(ValueError):
            estimate_betti(c, 1)


class TestBlockEncodeProjector:
    def test_action_on_basis(self):
        enc = block_encode_projector(2, 6)
        block = enc.encoded_block()
        for j in range(6):
            e = np.zeros(12)
            e[j] = 1.0
            assert np.allclose(block @ e, e)  # phase 0: preserved
            e2 = np.zeros(12)
            e2[6 + j] = 1.0
            assert np.allclose(block @ e2, 0.0)  # phase 1: annihilated

    def test_idempotent_and_explicit_form(self):
        enc = block_encode_projector(4, 3)
        block = enc.encoded_block()
        assert np.allclose(block @ block, block)
        expected = np.kron(np.diag([1.0, 0, 0, 0]), np.eye(3))
        assert np.allclose(block, expected)
        assert enc.verify()["ok"]

    @pytest.mark.parametrize("phase_dim", [2.0, 2.5])
    def test_sizes_are_read_as_ints(self, phase_dim):
        if not phase_dim.is_integer():
            with pytest.raises(ValueError, match="phase_dim must be an integer, got 2.5"):
                block_encode_projector(phase_dim, 3)
            return
        enc = block_encode_projector(phase_dim, 3.0)
        assert (enc.ancilla_dim, enc.system_dim) == (2, 6)
        assert np.array_equal(enc.encoded_block(), block_encode_projector(2, 3).encoded_block())
        assert enc.verify()["ok"]

    def test_a_changed_block_fails_verify(self):
        enc = block_encode_projector(2, 3)
        assert not np.shares_memory(enc.target, enc.dense)
        enc.dense[[0, 4]] = enc.dense[[4, 0]]  # rows of the top block: still a permutation
        assert enc.unitarity_deviation() == 0.0
        with pytest.raises(BlockEncodingError, match=r"block 1\.000e\+00"):
            enc.verify()

    def test_an_edit_behind_a_read_only_view_fails_verify(self):
        # verify() reads the matrix as it is now, whatever its flags say
        base = block_encode_projector(2, 3)
        view = base.dense[:]
        view.flags.writeable = False
        enc = BlockEncoding(base.ancilla_dim, base.system_dim, base.target, dense=view)
        assert enc.verify()["ok"]
        base.dense[-1, -1] = 0.5  # outside the encoded block
        with pytest.raises(BlockEncodingError, match=r"unitarity 5\.000e-01"):
            enc.verify()
        tensor = tensor_block_encoding([enc, block_encode_hermitian(np.diag([0.0, 1.0]))])
        with pytest.raises(BlockEncodingError, match=r"unitarity 5\.000e-01"):
            tensor.verify()


class TestBlockEncodeHermitian:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_contractions(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(2, 2))
        m = (raw + raw.T) / 2
        m /= 1.1 * np.abs(np.linalg.eigvalsh(m)).max()
        enc = block_encode_hermitian(m)
        assert enc.verify()["ok"]
        assert np.allclose(enc.encoded_block(), m, atol=1e-12)

    def test_norm_above_one_rejected(self):
        with pytest.raises(ValueError):
            block_encode_hermitian(np.diag([1.5, 0.0]))

    @pytest.mark.parametrize("mat,reason", [
        (np.diag([np.nan, 0.5]), "non-finite"),
        (np.diag([np.inf, 0.5]), "non-finite"),
        (np.diag([0.0, 1.0 + 1e-10]), "operator norm <= 1"),  # its dilation would fail verify()
        (np.array([[0.0, 0.5], [0.0, 0.0]]), "Hermitian"),
    ])
    def test_one_contraction_check(self, mat, reason):
        """The dilation and the flag observables reject the same matrices, by one check."""
        with pytest.raises(ValueError, match=reason):
            block_encode_hermitian(mat)
        with pytest.raises(ValueError, match=reason):
            ObservablePair(mat, np.diag([1.0, 0.0]))


class TestTensorBlockEncoding:
    def test_projector_times_flag(self):
        proj = block_encode_projector(2, 6)
        flag = block_encode_hermitian(np.diag([0.0, 1.0]))
        enc = tensor_block_encoding([proj, flag])
        assert enc.verify()["ok"]
        expected = np.kron(proj.target, flag.target)
        assert np.allclose(enc.encoded_block(), expected, atol=1e-12)
        assert enc.ancilla_dim == 4 and enc.system_dim == 24

    def test_identity_targets(self):
        ident = block_encode_hermitian(np.eye(2))
        enc = tensor_block_encoding([ident, ident])
        assert np.allclose(enc.encoded_block(), np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_pairs_match_kron(self, seed):
        rng = np.random.default_rng(100 + seed)
        encs = []
        for _ in range(2):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = (raw + raw.conj().T) / 2
            m /= 1.2 * np.abs(np.linalg.eigvalsh(m)).max()
            encs.append(block_encode_hermitian(m))
        enc = tensor_block_encoding(encs)
        assert enc.verify()["ok"]
        assert np.abs(enc.encoded_block() - np.kron(encs[0].target, encs[1].target)).max() < 1e-9

    def test_factored_input_rejected(self):
        mixture = block_encode_state_mixture(np.eye(2))  # dim 8, well under the dense cap
        with pytest.raises(BlockEncodingError):
            tensor_block_encoding([mixture, block_encode_hermitian(np.eye(2))])

    @staticmethod
    def _random_hermitian(rng, d):
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = (raw + raw.conj().T) / 2
        return block_encode_hermitian(m / (1.2 * np.abs(np.linalg.eigvalsh(m)).max()))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        if seed < 3:
            encs = [block_encode_projector(2, 3 + seed), self._random_hermitian(rng, 2 + seed)]
        else:  # the observable encodings' shapes: P=4, C=6 and P=2, C=20 with a flag projector
            phase_dim, slot_dim, flag = [(4, 6, [0.0, 1.0]), (2, 20, [1.0, 0.0])][seed - 3]
            encs = [block_encode_projector(phase_dim, slot_dim), block_encode_hermitian(np.diag(flag))]
        enc = tensor_block_encoding(encs)
        assert enc.dense is None
        u = tensor_unitary([e.dense for e in encs], [e.system_dim for e in encs])
        assert u.shape == (enc.dim, enc.dim)
        assert np.array_equal(enc.encoded_block(), u[:enc.system_dim, :enc.system_dim])
        dense_dev = np.abs(u.conj().T @ u - np.eye(enc.dim)).max()
        assert abs(enc.unitarity_deviation() - dense_dev) < 1e-15
        x = rng.normal(size=enc.dim)
        assert np.abs(apply_encoding(enc, x) - u @ x).max() < 1e-15

    def test_takes_exactly_two_dense_encodings(self):
        proj, flag = block_encode_projector(2, 2), block_encode_hermitian(np.diag([0.0, 1.0]))
        for count in (0, 1, 3):
            with pytest.raises(ValueError, match=f"need two encodings, got {count}"):
                tensor_block_encoding([proj, flag, flag][:count])
        with pytest.raises(BlockEncodingError, match="is not held densely"):
            tensor_block_encoding([tensor_block_encoding([proj, flag]), flag])

    def test_dense_cap_counts_the_whole_product(self):
        proj, ident = block_encode_projector(2, 25), block_encode_hermitian(np.eye(24))
        with pytest.raises(BlockEncodingError, match="exceeds the dense cap"):
            tensor_block_encoding([proj, ident])  # 100 * 48 > 4608, never formed

    @pytest.mark.parametrize("seed", range(4))
    def test_unitarity_is_the_dense_gram_deviation(self, seed):
        # factors far from unitary; seed 3: G_1 has unit diagonal and off-diagonal
        # 0.8, G_2 = diag(1.5, 1), so the worst entry is 0.8 * 1.5, off the diagonal
        rng = np.random.default_rng(300 + seed)
        if seed == 3:
            dims = [(1, 2), (2, 1), (2, 1)]
            factors = (np.array([[1.0, 0.8], [0.0, 0.6]]), np.diag([np.sqrt(1.5), 1.0]), np.eye(2))
        else:
            dims = [(2, 1 + seed), (2, 2), (3, 1)]
            factors = tuple(rng.normal(size=(a * s, a * s)) * (0.3 if i == seed else 1.0)
                            + np.eye(a * s) for i, (a, s) in enumerate(dims))
        anc, sys_dim = int(np.prod([a for a, _ in dims])), int(np.prod([s for _, s in dims]))
        enc = BlockEncoding(anc, sys_dim, np.zeros((sys_dim, sys_dim)),
                            factors=factors, factor_system_dims=tuple(s for _, s in dims))
        u = tensor_unitary(factors, enc.factor_system_dims)
        expected = np.abs(u.conj().T @ u - np.eye(enc.dim)).max()
        assert enc.unitarity_deviation() == pytest.approx(expected, rel=1e-12)

    def test_nan_factor_gives_nan_deviation(self):
        proj, flag = block_encode_projector(2, 3), block_encode_hermitian(np.diag([0.0, 1.0]))
        enc = tensor_block_encoding([proj, flag])
        bad = enc.factors[1].copy()
        bad[3, 1] = np.nan
        broken = BlockEncoding(enc.ancilla_dim, enc.system_dim, enc.target,
                               factors=(enc.factors[0], bad),
                               factor_system_dims=enc.factor_system_dims)
        assert np.isnan(broken.unitarity_deviation())
        with pytest.raises(BlockEncodingError):
            broken.verify()


class TestBlockEncodeMixture:
    def test_pure_zero_state(self):
        enc = block_encode_state_mixture(np.array([[1.0, 0.0]]))
        assert np.allclose(enc.encoded_block(), np.diag([1.0, 0.0]), atol=1e-12)
        assert enc.verify()["ok"]

    def test_maximally_mixed(self):
        enc = block_encode_state_mixture(np.eye(2))
        assert np.allclose(enc.encoded_block(), np.eye(2) / 2, atol=1e-12)

    def test_pipeline_density_small(self):
        c = build_clique_complex(complete_graph(3), 2)
        op = hodge_laplacian(c, 1)
        rho = reduced_density(op, PEConfig.bits(t=1))
        enc = block_encode_density(rho)
        assert enc.dense is None  # the mixture is kept as its factors at every size
        report = enc.verify()
        assert report["unitarity_deviation"] <= 1e-10
        assert report["block_deviation"] <= 1e-9
        assert np.abs(enc.encoded_block() - rho.matrix()).max() < 1e-9

    def test_structured_matches_dense_path(self):
        c = build_clique_complex(complete_graph(3), 2)
        rho = reduced_density(hodge_laplacian(c, 1), PEConfig.ideal())
        enc = block_encode_density(rho)
        d = enc.system_dim
        cols = np.zeros((enc.dim, d), dtype=complex)
        cols[np.arange(d), np.arange(d)] = 1.0
        structured_block = apply_encoding(enc, cols)[:d]
        full = apply_encoding(enc, np.eye(enc.dim))  # the whole circuit, dim 432, as the reference
        assert np.abs(full.conj().T @ full - np.eye(enc.dim)).max() < 1e-10
        assert np.abs(structured_block - full[:d, :d]).max() < 1e-12

    def test_structured_only_large_mixture(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(4, 40)) + 1j * rng.normal(size=(4, 40))
        states = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        enc = block_encode_state_mixture(states)
        assert enc.dense is None and enc.dim == 4 * 40 * 40
        expected = states.T @ states.conj() / 4
        assert np.abs(enc.encoded_block() - expected).max() < 1e-9
        assert enc.unitarity_deviation() < 1e-12
        # isometry spot check on a random vector
        x = rng.normal(size=enc.dim) + 1j * rng.normal(size=enc.dim)
        assert np.linalg.norm(apply_encoding(enc, x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    @pytest.mark.parametrize("m,d", [(1, 2), (3, 7), (7, 3), (4, 40)])
    def test_contracted_block_matches_whole_circuit(self, m, d):
        rng = np.random.default_rng(10 * m + d)
        raw = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        enc = block_encode_state_mixture(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        cols = np.zeros((enc.dim, d), dtype=complex)
        cols[np.arange(d), np.arange(d)] = 1.0
        assert np.abs(enc.encoded_block() - apply_encoding(enc, cols)[:d]).max() < 1e-12

    def test_contracted_block_matches_whole_circuit_on_pipeline_state(self):
        ctx = pipeline_context(random_graph(7, 0.4, 3), 1, pe=PEConfig.bits(t=2))
        enc = block_encode_density(ctx.rho())
        d = enc.system_dim
        block = enc.encoded_block()
        # the circuit costs m d^3 per column (dim 592,704): a stride over phases, slots and flags
        for c in range(0, d, 13):
            col = np.zeros(enc.dim, dtype=complex)
            col[c] = 1.0
            assert np.abs(block[:, c] - apply_encoding(enc, col)[:d]).max() < 1e-12

    def test_contracted_block_memory(self):
        enc = block_encode_density(pipeline_context(octahedron_graph(), 2).rho())
        assert (enc.ancilla_dim, enc.system_dim) == (1600, 80)
        tracemalloc.start()
        try:
            block = enc.encoded_block()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert np.abs(block - enc.target).max() < 1e-9

    def test_non_finite_state_rejected(self):
        with pytest.raises(ValueError):
            householder_unitary([np.nan, 0.0])
        with pytest.raises(ValueError):
            block_encode_state_mixture(np.array([[1.0, 0.0], [np.nan, 0.0]]))
        rng = np.random.default_rng(37)
        raw = rng.normal(size=(64, 5)) + 1j * rng.normal(size=(64, 5))
        for bad in ("scaled", "nan"):
            states = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            if bad == "scaled":
                states[37] *= 1.0 + 1e-9
            else:
                states[37, 2] = np.nan
            message = f"target norm {np.linalg.norm(states[37])} is not 1"
            with pytest.raises(ValueError, match=re.escape(message)):
                block_encode_state_mixture(states)

    def test_no_norm_call_per_state(self, monkeypatch):
        rng = np.random.default_rng(64)
        raw = rng.normal(size=(64, 6)) + 1j * rng.normal(size=(64, 6))
        states = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append(a) or norm(*a, **kw))
        block_encode_state_mixture(states).verify()
        assert calls == []

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 17, 40, 161])
    def test_batched_numerics_equal_one_row_at_a_time(self, d):
        # the reflections equal the one-vector Householder construction bit for bit
        # only while these hold, so a numpy or BLAS change that breaks one fails here
        rng = np.random.default_rng(d)
        batches = rng.normal(size=(3, 40, d)) + 1j * rng.normal(size=(3, 40, d))
        batches[1] = batches[1].real
        batches[2][rng.random((40, d)) < 0.4] = 0.0
        for rows in batches:
            assert np.array_equal(_row_norms(rows), [np.linalg.norm(row) for row in rows])
            mod = np.hypot(rows.real, rows.imag)
            assert np.array_equal(mod.ravel(), [abs(z) for z in rows.ravel()])
            first = mod[:, 0] > 0
            assert np.array_equal(rows[first, 0] / mod[first, 0],
                                  [z / abs(z) for z in rows[first, 0]])

    def test_nan_factor_fails_unitarity(self):
        good = block_encode_state_mixture(np.eye(3))
        v_phase, v_vec, w_phases, w_vecs = good.reflections
        w_vecs = w_vecs.copy()
        w_vecs[1, 2] = np.nan  # one entry of a middle factor
        enc = BlockEncoding(good.ancilla_dim, good.system_dim, good.target,
                            reflections=(v_phase, v_vec, w_phases, w_vecs))
        assert np.isnan(enc.unitarity_deviation())
        with pytest.raises(BlockEncodingError):
            enc.verify()

    @pytest.mark.parametrize("which", ["nan in w", "|phi| != 1", "|w| != 1"])
    def test_broken_reflection_fails_verify(self, which):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        good = block_encode_state_mixture(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        assert good.verify()["ok"]
        v_phase, v_vec, w_phases, w_vecs = (a.copy() for a in good.reflections)
        if which == "nan in w":
            w_vecs[2, 3] = np.nan
        elif which == "|phi| != 1":
            w_phases[0] *= 1.0 + 1e-6
        else:
            w_vecs[3] *= 1.0 + 1e-6
        enc = BlockEncoding(good.ancilla_dim, good.system_dim, good.target,
                            reflections=(v_phase, v_vec, w_phases, w_vecs))
        dense = [reflection_matrix(p, w) for p, w in zip(w_phases, w_vecs)]
        expected = max(np.abs(u.conj().T @ u - np.eye(6)).max() for u in dense)
        if which == "nan in w":
            assert np.isnan(enc.unitarity_deviation())
        else:  # the unitarity check fails on its own, not only the block
            assert enc.unitarity_deviation() > 1e-10
            assert enc.unitarity_deviation() == pytest.approx(expected, rel=1e-9)
        with pytest.raises(BlockEncodingError):
            enc.verify()

    @pytest.mark.parametrize("seed", range(4))
    def test_reflection_deviation_is_the_dense_gram_deviation(self, seed):
        # arbitrary (phi, w), not only reflections; seed 0 cancels the diagonal
        # of R^dagger R - I for w = (a, a), leaving only its off-diagonal entries
        rng = np.random.default_rng(seed)
        if seed == 0:
            a = 0.6
            phases = np.array([np.sqrt(1.0 / (1.0 + 4 * a * a * (2 * a * a - 1)))], dtype=complex)
            vecs = np.array([[a, a]], dtype=complex)
        else:
            phases = rng.normal(size=3) + 1j * rng.normal(size=3)
            vecs = rng.normal(size=(3, 2 + seed)) + 1j * rng.normal(size=(3, 2 + seed))
        d = vecs.shape[1]
        enc = BlockEncoding(len(phases) * d, d, np.zeros((d, d)),
                            reflections=(np.ones(1, dtype=complex), np.zeros((1, len(phases))),
                                         phases, vecs))
        expected = max(np.abs(u.conj().T @ u - np.eye(d)).max()
                       for u in (reflection_matrix(p, w) for p, w in zip(phases, vecs)))
        assert expected > 0.1
        assert enc.unitarity_deviation() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m,d", [(1, 1), (1, 2), (3, 7), (5, 40), (64, 3), (2, 3), (3, 2),
                                     (4, 3), (6, 2), (7, 3), (20, 2), (21, 3), (100, 2), (300, 2)])
    def test_reflections_match_dense_oracle(self, m, d):
        rng = np.random.default_rng(7 * m + d)
        raw = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        states = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        states[0] = np.eye(d)[-1]  # zero first entry: the phase defaults to 1
        if m == 64:  # one batch also holds a phase times e_0: w = 0
            states[1] = np.exp(0.7j) * np.eye(d)[0]
        enc = block_encode_state_mixture(states)
        v_phase, v_vec, w_phases, w_vecs = enc.reflections
        dense = [reflection_matrix(p, w) for p, w in zip(w_phases, w_vecs)]
        for s in range(m):
            assert np.array_equal(dense[s], householder_unitary(states[s]))
        assert np.array_equal(reflection_matrix(v_phase[0], v_vec[0]),
                              householder_unitary(np.full(m, 1.0 / np.sqrt(m))))
        worst = max(np.abs(u.conj().T @ u - np.eye(d)).max() for u in dense)
        if m < 300:  # at m = 300 the rotation's own rounding, 4.2e-15, exceeds the states'
            assert abs(enc.unitarity_deviation() - worst) < 1e-15
        # the state preparations alone, behind an identity rotation
        states_only = BlockEncoding(m * d, d, enc.target, reflections=(
            np.ones(1, dtype=complex), np.zeros((1, m), dtype=complex), w_phases, w_vecs))
        assert abs(states_only.unitarity_deviation() - worst) < 1e-15


class TestTraceEstimate:
    def test_sample_count_formula(self):
        # +/-1 outcomes span 2: 4 ln(2 / 0.05) / (2 delta^2)
        assert hoeffding_sample_count(0.5, 0.95) == 30
        assert hoeffding_sample_count(0.01, 0.95) == 73778

    @pytest.mark.parametrize("delta", [float("inf"), float("nan"), 0.0, -0.1])
    def test_non_finite_or_nonpositive_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            hoeffding_sample_count(delta, 0.95)

    @pytest.mark.parametrize("delta", [1e-10, 1e-160, 1e-170])
    def test_count_beyond_one_binomial_draw_rejected(self, delta):
        # 7.4e20 samples, more than int64; delta**2 subnormal; delta**2 underflows to 0
        with pytest.raises(ValueError, match="delta"):
            hoeffding_sample_count(delta, 0.95)

    def test_loosest_accuracy_takes_one_sample(self):
        # delta**2 overflows a float; any one +/-1 outcome lies within 2 of the truth
        assert hoeffding_sample_count(1e300, 0.95) == hoeffding_sample_count(1e3, 0.95) == 1

    def test_largest_drawable_count_accepted(self):
        # the count is an int64, the largest n one Generator.binomial draw takes
        count = hoeffding_sample_count(1e-9, 0.95)
        assert count <= np.iinfo(np.int64).max
        np.random.default_rng(0).binomial(count, 0.5)

    def test_invariant_floor_enforced(self):
        with pytest.raises(ValueError):
            TraceEstimate(value=0.0, additive_err=0.05, confidence=0.95,
                          samples_used=10, seed={"entropy": 0, "spawn_key": []})

    def test_floor_is_the_drawn_pm1_count(self):
        # 1000 clears the range-1 floor (738) but not the +/-1 count drawn (2952)
        with pytest.raises(ValueError):
            TraceEstimate(value=0.0, additive_err=0.05, confidence=0.95,
                          samples_used=1000, seed={"entropy": 0, "spawn_key": []})

    def test_draw_holds_no_per_sample_array(self):
        # N ~ 1.84 M outcomes: one float64 per outcome would take ~15 MB
        tracemalloc.start()
        try:
            est = trace_estimate(0.3, 0.002, 0.95, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.samples_used > 1_800_000
        assert peak < 1 << 20

    def test_identity_observable_is_exact(self):
        c = c4_complex()
        rho = reduced_density(hodge_laplacian(c, 1), IDEAL)
        est = trace_estimate(rho.expectation(np.eye(rho.dim)), delta=0.1, confidence=0.95, seed=1)
        assert est.value == 1.0

    def test_deterministic_per_seed(self):
        c = c4_complex()
        rho = reduced_density(hodge_laplacian(c, 1), IDEAL)
        truth = rho.expectation(flag_one_observable(rho))
        a = trace_estimate(truth, 0.05, 0.95, seed=123)
        b = trace_estimate(truth, 0.05, 0.95, seed=123)
        other = trace_estimate(truth, 0.05, 0.95, seed=124)
        assert a.value == b.value
        assert a.value != other.value  # different stream

    @pytest.mark.parametrize("seed", ["a", 1.5])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"got {seed!r}")):
            trace_estimate(0.1, 0.1, seed=seed)

    def test_c4_flag_observable_hits_truth(self):
        c = c4_complex()
        rho = reduced_density(hodge_laplacian(c, 1), IDEAL)
        est = trace_estimate(rho.expectation(flag_one_observable(rho)), delta=0.01,
                             confidence=0.95, seed=0)
        assert est.samples_used == 73778
        assert abs(est.value - 1 / 6) <= 0.01

    def test_norm_above_one_rejected(self):
        c = c4_complex()
        rho = reduced_density(hodge_laplacian(c, 1), IDEAL)
        with pytest.raises(ValueError):
            trace_estimate(rho.expectation(2.0 * np.eye(rho.dim)), 0.1, 0.95, seed=0)

    def test_nan_trace_rejected(self):
        with pytest.raises(ValueError, match=r"trace nan lies outside \[-1, 1\]"):
            trace_estimate(float("nan"), 0.1)


class TestGroverCost:
    def test_values(self):
        assert grover_prep_cost(4, 1, 4) == pytest.approx(4 * np.sqrt(6 / 4))
        assert grover_prep_cost(10, 2, 30) == pytest.approx(40.0)
        assert grover_prep_cost(5, 2, 10) == pytest.approx(5 * 2)  # S_k = C: plain n*k

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grover_prep_cost(4, 1, 0)
