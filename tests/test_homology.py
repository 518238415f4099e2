import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bettiq import (
    PEConfig,
    betti_exact,
    build_clique_complex,
    complement_complex,
    hodge_laplacian,
    pipeline_context,
    slot_rank,
    spectral_summary,
    zero_phase_weights,
)
from bettiq import extraction, homology
from bettiq.homology import _coboundary, _laplacian_block
from helpers import (
    bareiss_rank,
    betti_by_boundary_reduction,
    betti_by_ranks,
    boundary_matrix,
    census_graph,
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    dense_operator,
    dense_zero_phase_weights,
    disjoint_union,
    empty_graph,
    fraction_rank,
    gf2_rank,
    graph_join,
    integer_rank,
    kernel_projector,
    laplacian_by_products,
    matrix_operator,
    octahedron_graph,
    random_graph,
    rp2_subdivision,
    path_graph,
    slot_zero_phase_weights,
    small_graphs,
    summary_oracle,
    two_disjoint_cycles,
    two_disjoint_edges,
)


def manual_operator(matrix):
    """A vertex-level (k=0) operator whose one block covers every slot, its
    kernel counted by integer rank."""
    matrix = np.asarray(matrix, dtype=float)
    return matrix_operator(matrix, matrix.shape[0] - integer_rank(matrix))


@st.composite
def integer_matrices(draw):
    """Up to 8 x 8, mixing small entries with entries far beyond int64; a last
    row combined from the first two keeps some of them below full rank."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


class TestBoundary:
    def test_sign_rule_k3_edge01(self):
        c = build_clique_complex(complete_graph(3), 2)
        b = boundary_matrix(c, 1)
        j = c.words(1).index(0b011)  # edge {0,1}
        assert b[c.words(0).index(0b010), j] == 1  # drop vertex 0 -> face {1}, sign +
        assert b[c.words(0).index(0b001), j] == -1  # drop vertex 1 -> face {0}, sign -

    def test_column_support(self):
        c = build_clique_complex(octahedron_graph(), 3)
        for k in (1, 2):
            b = boundary_matrix(c, k)
            assert (np.abs(b).sum(axis=0) == k + 1).all()

    @pytest.mark.parametrize("graph,max_dim", [
        (cycle_graph(4), 2),
        (complete_graph(4), 3),
        (octahedron_graph(), 3),
        (random_graph(7, 0.6, seed=0), 3),
    ])
    def test_dd_is_zero(self, graph, max_dim):
        c = build_clique_complex(graph, max_dim)
        for k in range(1, max_dim):
            low = boundary_matrix(c, k)
            up = boundary_matrix(c, k + 1)
            assert not (low @ up).any()

    def test_k0_is_empty_rows(self):
        c = build_clique_complex(cycle_graph(4), 1)
        assert boundary_matrix(c, 0).shape == (0, 4)

    def test_c4_rank(self):
        c = build_clique_complex(cycle_graph(4), 1)
        assert integer_rank(boundary_matrix(c, 1)) == 3


class TestIntegerRank:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fraction_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(-3, 4, size=(rng.integers(1, 9), rng.integers(1, 9)))
        assert integer_rank(mat) == fraction_rank(mat)

    def test_big_entries_use_fallback(self):
        # entries whose products overflow int64 must still give the exact answer
        big = 3_000_000_000
        for rank in (integer_rank, bareiss_rank):
            mat = np.array([[big, big], [big, big + 1]], dtype=np.int64)
            assert rank(mat) == 2
            assert rank(np.array([[big, big], [big, big]], dtype=np.int64)) == 1

    def test_zero_and_empty(self):
        assert integer_rank(np.zeros((3, 4), dtype=int)) == 0
        assert integer_rank(np.zeros((0, 5), dtype=int)) == 0

    def test_entries_beyond_int64(self):
        assert integer_rank([[10**20, 1], [1, 1]]) == 2
        assert integer_rank([[2**63, 2**63 + 1], [1, 1]]) == 2

    def test_non_integral_entry_rejected(self):
        with pytest.raises(ValueError):
            integer_rank([[0.5, 1], [1, 2]])
        with pytest.raises(ValueError):
            integer_rank(np.array([[1.0, np.inf]]))
        assert integer_rank(np.array([[2.0, 4.0], [1.0, 2.0]])) == 1

    @pytest.mark.parametrize("matrix", [[1, 2, 3], np.zeros((2, 2, 2), dtype=int)])
    def test_not_two_dimensional_rejected(self, matrix):
        with pytest.raises(ValueError):
            integer_rank(matrix)

    @settings(derandomize=True, database=None, deadline=None)
    @given(matrix=integer_matrices())
    def test_matches_fraction_oracle_beyond_int64(self, matrix):
        assert integer_rank(matrix) == fraction_rank(matrix)


class TestHodge:
    def test_c4_restricted_block_spectrum(self):
        c = build_clique_complex(cycle_graph(4), 2)
        op = hodge_laplacian(c, 1, "restricted")
        full = dense_operator(op)
        idx = list(op.blocks[0].slots)
        block = full[np.ix_(idx, idx)]
        assert np.allclose(np.sort(np.linalg.eigvalsh(block)), [0, 2, 2, 4], atol=1e-9)
        comp = [i for i in range(op.dim) if i not in idx]
        assert not full[comp, :].any()
        assert not full[:, comp].any()

    def test_k3_vertex_laplacian(self):
        c = build_clique_complex(complete_graph(3), 1)
        op = hodge_laplacian(c, 0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(dense_operator(op))), [0, 3, 3], atol=1e-9)

    def test_empty_level_is_zero_matrix(self):
        c = build_clique_complex(empty_graph(4), 2)
        op = hodge_laplacian(c, 1, "restricted")
        assert not dense_operator(op).any()
        assert op.blocks[0].slots == ()

    def test_needs_level_k_built(self):
        with pytest.raises(ValueError):
            hodge_laplacian(build_clique_complex(cycle_graph(4), 0), 1)
        assert len(hodge_laplacian(build_clique_complex(cycle_graph(4), 1), 1).blocks[0].slots) == 4

    def test_unknown_convention(self):
        c = build_clique_complex(cycle_graph(4), 2)
        with pytest.raises(ValueError):
            hodge_laplacian(c, 1, "projected")

    def test_cached_eigenvalues_are_read_only(self):
        # zeros written into them made the next estimate on the operator divide by zero
        op = hodge_laplacian(build_clique_complex(cycle_graph(4), 2), 1)
        with pytest.raises(ValueError, match="read-only"):
            op.eig(0)[:] = 0
        assert np.allclose(op.eig(0), [0, 2, 2, 4])

    def test_block_matrices_are_read_only(self):
        # zeros written into one made the next summary of a t-bit context divide by zero
        ctx = pipeline_context(random_graph(8, 0.5, 2), 1, "dual", PEConfig.bits())
        for block in ctx.op.blocks:
            with pytest.raises(ValueError, match="read-only"):
                block.matrix[:] = 0
        assert (extraction._digest(ctx.op, ctx.cfg)
                == spectral_summary(hodge_laplacian(ctx.op.complex, 1, "dual")))

    @pytest.mark.parametrize("seed", range(3))
    def test_psd(self, seed):
        c = build_clique_complex(random_graph(7, 0.5, seed=seed), 3)
        for k in (0, 1, 2):
            for convention in ("restricted", "dual"):
                op = hodge_laplacian(c, k, convention)
                assert np.linalg.eigvalsh(dense_operator(op)).min() >= -1e-10

    def test_dual_blocks(self):
        c = build_clique_complex(cycle_graph(4), 2)
        op = hodge_laplacian(c, 1, "dual")
        full = dense_operator(op)
        comp = complement_complex(cycle_graph(4), 2)
        comp_idx = [slot_rank(w) for w in comp.words(1)]
        # off-diagonal coupling between complex and complement blocks must vanish
        for i in op.blocks[0].slots:
            for j in comp_idx:
                assert full[i, j] == 0
        # complement block = edge Laplacian of two disjoint edges = 2 I
        sub = full[np.ix_(comp_idx, comp_idx)]
        assert np.allclose(sub, 2 * np.eye(2))

    def test_dual_builds_the_complement_once_at_level_k(self, monkeypatch):
        # once, to level k: its beta_k and its block read only the words up to k and the masks
        from bettiq import homology

        levels = []

        def recording(graph, max_dim):
            levels.append(max_dim)
            return complement_complex(graph, max_dim)

        monkeypatch.setattr(homology, "complement_complex", recording)
        c = build_clique_complex(random_graph(7, 0.5, seed=1), 3)
        for k in (1, 2):
            op = hodge_laplacian(c, k, "dual")
            op.eig(0), op.eig(1)
        assert levels == [1, 2]

    def test_dual_equals_restricted_at_k0(self):
        c = build_clique_complex(random_graph(6, 0.5, seed=5), 1)
        a = dense_operator(hodge_laplacian(c, 0, "restricted"))
        b = dense_operator(hodge_laplacian(c, 0, "dual"))
        assert np.array_equal(a, b)


class TestBettiExact:
    def test_c4(self):
        c = build_clique_complex(cycle_graph(4), 2)
        assert betti_exact(c, 0) == 1
        assert betti_exact(c, 1) == 1

    def test_octahedron_is_a_sphere(self):
        c = build_clique_complex(octahedron_graph(), 3)
        assert [betti_exact(c, k) for k in (0, 1, 2)] == [1, 0, 1]

    def test_two_disjoint_edges(self):
        c = build_clique_complex(two_disjoint_edges(), 2)
        assert betti_exact(c, 0) == 2
        assert betti_exact(c, 1) == 0

    def test_two_disjoint_cycles(self):
        c = build_clique_complex(two_disjoint_cycles(4), 2)
        assert betti_exact(c, 0) == 2
        assert betti_exact(c, 1) == 2

    def test_needs_level_k_built(self):
        with pytest.raises(ValueError):
            betti_exact(build_clique_complex(cycle_graph(4), 0), 1)
        assert betti_exact(build_clique_complex(cycle_graph(4), 1), 1) == 1

    @pytest.mark.parametrize("graph", [complete_graph(3), complete_graph(4), empty_graph(3)])
    def test_top_dimension(self, graph):
        # k = n-1 reads no level above itself: level n is empty on every graph
        k = graph.n - 1
        c = build_clique_complex(graph, k)
        assert betti_exact(c, k) == 0
        op = hodge_laplacian(c, k, "restricted")
        assert op.dim == 1
        assert spectral_summary(op).kernel_dim == 1 - c.simplex_count(k)
        # the one slot holds the full simplex of the graph or of its complement,
        # whose top Laplacian is d_k^T d_k = n
        assert dense_operator(hodge_laplacian(c, k, "dual")).tolist() == [[float(graph.n)]]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fraction_oracle_and_kernel_dim(self, seed):
        g = random_graph(7, 0.45, seed=seed)
        c = build_clique_complex(g, 3)
        for k in (0, 1, 2):
            beta = betti_exact(c, k)
            assert beta == betti_by_ranks(c, k)
            op = hodge_laplacian(c, k, "restricted")
            idx = list(op.blocks[0].slots)
            if idx:
                block = dense_operator(op)[np.ix_(idx, idx)]
                evals = np.linalg.eigvalsh(block)
                assert beta == int((evals < spectral_summary(op).threshold).sum())
            else:
                assert beta == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_dual_complement_block_kernel_is_complement_betti(self, seed):
        g = random_graph(7, 0.5, seed=100 + seed)
        c = build_clique_complex(g, 3)
        for k in (1, 2):
            op = hodge_laplacian(c, k, "dual")
            comp = complement_complex(g, k + 1)
            comp_idx = list(op.blocks[1].slots)
            if comp_idx:
                sub = dense_operator(op)[np.ix_(comp_idx, comp_idx)]
                evals = np.linalg.eigvalsh(sub)
                kernel = int((evals < spectral_summary(op).threshold).sum())
            else:
                kernel = 0
            assert kernel == betti_exact(comp, k)

    @settings(derandomize=True, database=None, deadline=None)
    @given(graph=small_graphs(max_n=9))
    def test_matches_bareiss_on_complex_and_complement(self, graph):
        for c in (build_clique_complex(graph, graph.n - 1),
                  complement_complex(graph, graph.n - 1)):
            for k in range(graph.n):
                if c.simplex_count(k):
                    assert betti_exact(c, k) == betti_by_ranks(c, k, bareiss_rank), k

    def test_er60_pinned(self):
        # agrees with dense int64 Bareiss elimination, which takes ~30 s on this instance
        c = build_clique_complex(random_graph(60, 0.4, seed=1), 3)
        assert betti_exact(c, 2) == 93


class TestKernelProjector:
    def test_c4_traces(self):
        c = build_clique_complex(cycle_graph(4), 2)
        op = hodge_laplacian(c, 1)
        proj = kernel_projector(op)
        idx = list(op.blocks[0].slots)
        comp = [i for i in range(op.dim) if i not in idx]
        assert abs(np.trace(proj[np.ix_(idx, idx)]) - 1.0) < 1e-10
        assert abs(np.trace(proj[np.ix_(comp, comp)]) - 2.0) < 1e-10
        assert np.abs(proj @ proj - proj).max() < 1e-10
        assert np.abs(proj - proj.T).max() < 1e-10

    def test_zero_matrix_gives_identity(self):
        op = manual_operator(np.zeros((3, 3)))
        assert np.allclose(kernel_projector(op), np.eye(3))

    def test_positive_definite_gives_zero(self):
        op = manual_operator(np.diag([1.0, 2.0, 3.0]))
        assert not kernel_projector(op).any()


class TestSpectralSummary:
    def test_c4_kappa(self):
        c = build_clique_complex(cycle_graph(4), 2)
        assert spectral_summary(hodge_laplacian(c, 1)).kappa == pytest.approx(2.0)

    def test_identity_kappa(self):
        assert spectral_summary(manual_operator(np.eye(4))).kappa == pytest.approx(1.0)

    def test_k3_kappa(self):
        c = build_clique_complex(complete_graph(3), 1)
        assert spectral_summary(hodge_laplacian(c, 0)).kappa == pytest.approx(1.0)

    def test_zero_spectrum_reports_none(self):
        summary = spectral_summary(manual_operator(np.zeros((4, 4))))
        assert summary.kappa is None
        assert summary.lambda_min_nonzero is None
        assert summary.kernel_dim == 4

    def test_each_block_decomposed_at_most_once(self, monkeypatch):
        # ER(7,0.4,3) k=1 under dual: blocks of 7 and 14 edges
        op = hodge_laplacian(build_clique_complex(random_graph(7, 0.4, 3), 1), 1, "dual")
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert spectral_summary(op) == spectral_summary(op)
        zero_phase_weights(op, PEConfig.bits())
        assert sorted(sizes) == sorted(len(b.slots) for b in op.blocks) == [7, 14]

    def test_the_rank_decides_and_the_threshold_only_checks(self):
        # lambda_max = 1 puts the cut at 1e-8, so the threshold counts two zeros
        op = matrix_operator(np.diag([0.0, 1e-9, 1.0]), 1)
        with pytest.warns(RuntimeWarning, match="block 0: kernel count 1 by integer rank, 2 "):
            summary = spectral_summary(op)
        assert summary.kernel_dim == 1 and tuple(b.kernel_dim for b in op.blocks) == (1,)
        assert summary.lambda_min_nonzero == 1e-9
        assert summary.kappa == pytest.approx(1e9)
        assert summary.threshold_agrees is False
        assert zero_phase_weights(op, PEConfig.ideal())[0].tolist() == [1.0, 0.0, 0.0]

    def test_counts_add_up(self):
        c = build_clique_complex(random_graph(6, 0.5, seed=8), 2)
        op = hodge_laplacian(c, 1)
        summary = spectral_summary(op)
        nonzero = sum(int((op.eig(i) >= summary.threshold).sum()) for i in range(len(op.blocks)))
        assert summary.kernel_dim + nonzero == op.dim


class TestDigestOracle:
    """Every digest field, from the blocks' recorded spectral ends, equals the
    direct computation over fresh eigenvalue arrays."""

    @staticmethod
    def check(op):
        """The whole operator's digest and the restricted one the ideal estimate reads."""
        assert spectral_summary(op) == summary_oracle(op.blocks, op.dim)
        assert homology._summary(op.blocks[:1], op.dim) == summary_oracle(op.blocks[:1], op.dim)

    def test_census(self):
        for i in range(0, 2 ** 15, 16):
            graph = census_graph(i)
            for k in (0, 1):
                for convention in ("restricted", "dual"):
                    ctx = pipeline_context(graph, k, convention)
                    assert (extraction._digest(ctx.op, ctx.cfg)
                            == summary_oracle(ctx.op.blocks[:1], ctx.op.dim))
                    self.check(ctx.op)

    def test_known_topology(self):
        graphs = [cycle_graph(5), complete_graph(5), octahedron_graph(), rp2_subdivision(),
                  two_disjoint_cycles(), two_disjoint_edges(), path_graph(5), empty_graph(4)]
        cases = [(build_clique_complex(g, min(g.n - 1, 3)), k) for g in graphs for k in range(4)
                 if k < g.n]
        c5 = cycle_graph(5)  # the spheres of the estimators' known-space tests, at their k
        spheres = [(graph_join(c5, c5), 3), (cocktail_party_graph(5), 4),
                   (graph_join(c5, cocktail_party_graph(3)), 4),
                   (graph_join(graph_join(c5, c5), c5), 5),
                   (disjoint_union(cocktail_party_graph(4), cocktail_party_graph(4)), 3)]
        cases += [(build_clique_complex(g, k), k) for g, k in spheres]
        for c, k in cases:
            # the 31-vertex RP^2 subdivision's complement complex is too large to decompose
            for convention in ("restricted", "dual") if c.n < 31 else ("restricted",):
                self.check(hodge_laplacian(c, k, convention))

    def test_all_kernel_block(self):
        op = hodge_laplacian(build_clique_complex(empty_graph(4), 0), 0)
        assert op.blocks[0].size == op.blocks[0].kernel_dim == 4
        assert spectral_summary(op).kappa is None
        self.check(op)

    def test_zero_spectrum_with_uncovered_slots(self):
        # no edges: the k=1 block is empty and all six slots are uncovered zero rows
        op = hodge_laplacian(build_clique_complex(empty_graph(4), 1), 1)
        summary = spectral_summary(op)
        assert (summary.lambda_max, summary.kernel_dim, summary.kappa) == (0.0, 6, None)
        self.check(op)

    def test_smallest_nonzero_eigenvalue_in_the_complement_block(self):
        op = hodge_laplacian(build_clique_complex(census_graph(254), 1), 1, "dual")
        own, comp = (b.lambda_min_nonzero for b in op.blocks)
        assert comp < own
        assert spectral_summary(op).lambda_min_nonzero == comp
        assert homology._summary(op.blocks[:1], op.dim).lambda_min_nonzero == own
        self.check(op)

    def test_threshold_mismatch(self):
        with pytest.warns(RuntimeWarning):
            self.check(matrix_operator(np.diag([0.0, 1e-9, 1.0]), 1))


class TestKernelDecision:
    @settings(derandomize=True, database=None, deadline=None)
    @given(graph=small_graphs(), upper=st.booleans())
    def test_consumers_agree_with_the_oracle(self, graph, upper):
        k = int(upper)  # k in {0, 1}
        c = build_clique_complex(graph, k + 1)
        op = hodge_laplacian(c, k, "restricted")
        kernel_dim = spectral_summary(op).kernel_dim
        assert kernel_dim == betti_exact(c, k) + op.dim - c.simplex_count(k)
        assert np.trace(kernel_projector(op)) == pytest.approx(kernel_dim, abs=1e-9)
        assert slot_zero_phase_weights(op, PEConfig.ideal()).sum() == pytest.approx(kernel_dim, abs=1e-9)

    def test_threshold_agrees_with_the_rank_on_the_benchmark_families(self):
        # every 16th labeled 6-vertex graph at k in {0, 1}, and the ER ladder at k = 2
        cases = [(census_graph(i), k) for i in range(0, 2 ** 15, 16) for k in (0, 1)]
        cases += [(random_graph(n, p, 1), 2) for n in range(8, 25, 4) for p in (0.3, 0.5, 0.7)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for graph, k in cases:
                c = build_clique_complex(graph, k)
                for convention in ("restricted", "dual"):
                    summary = spectral_summary(hodge_laplacian(c, k, convention))
                    assert summary.threshold_agrees, (graph.edges(), k, convention)


class TestBlockAssembly:
    @settings(derandomize=True, database=None, deadline=None)
    @given(graph=small_graphs(max_n=9))
    def test_equals_the_boundary_products(self, graph):
        complexes = (build_clique_complex(graph, graph.n - 1),
                     complement_complex(graph, graph.n - 1))
        for c in complexes:
            for k in range(graph.n):
                if c.simplex_count(k) == 0:
                    continue
                assert np.array_equal(_laplacian_block(c, k), laplacian_by_products(c, k)), k

    def test_er28_complement_block(self):
        comp = complement_complex(random_graph(28, 0.4, seed=1), 3)
        block = _laplacian_block(comp, 2)
        assert block.shape == (737, 737)
        assert np.array_equal(block, laplacian_by_products(comp, 2))


class TestBlockOperator:
    @settings(derandomize=True, database=None, deadline=None)
    @given(graph=small_graphs(max_n=9))
    def test_blocks_agree_with_the_dense_operator_and_the_oracle(self, graph):
        c = build_clique_complex(graph, graph.n - 1)
        comp = complement_complex(graph, graph.n - 1)
        for k in range(graph.n):
            s_count = c.simplex_count(k)
            if s_count == 0:
                continue
            beta = betti_exact(c, k)
            ops = {conv: hodge_laplacian(c, k, conv) for conv in ("restricted", "dual")}
            for op in ops.values():
                for cfg in (PEConfig.ideal(), PEConfig.bits(t=1), PEConfig.bits(t=2),
                            PEConfig.bits(t=3)):
                    diff = slot_zero_phase_weights(op, cfg) - dense_zero_phase_weights(op, cfg)
                    assert np.abs(diff).max() < 1e-12, (k, op.convention, cfg)
            c_total = ops["restricted"].dim
            assert spectral_summary(ops["restricted"]).kernel_dim == beta + c_total - s_count
            if k == 0:
                assert np.array_equal(dense_operator(ops["dual"]), dense_operator(ops["restricted"]))
            else:
                neither = c_total - s_count - comp.simplex_count(k)
                assert (spectral_summary(ops["dual"]).kernel_dim
                        == beta + betti_exact(comp, k) + neither)


CENSUS_INDICES = range(2 ** 15)
# random_graph(n, p, s) at n = 8..28 step 4: the complex and its complement, built to level 3
RANK_LADDER = [(n, p, s) for n in range(8, 29, 4) for p in (0.3, 0.5, 0.7) for s in (0, 1)]


def ladder_complexes():
    for n, p, s in RANK_LADDER:
        g = random_graph(n, p, s)
        yield (n, p, s, "complex"), build_clique_complex(g, 3)
        yield (n, p, s, "complement"), complement_complex(g, 3)


@pytest.fixture(scope="module")
def census_complexes():
    """Every labeled 6-vertex graph's complex, built to level 2."""
    return [build_clique_complex(census_graph(i), 2) for i in CENSUS_INDICES]


class TestCoboundaryPass:
    """The coboundary reduction against the boundary-side reduction it replaced."""

    @pytest.mark.parametrize("graph", [
        census_graph(2 ** 15 - 1),
        census_graph(0b101101110011011),
        census_graph(0b011010001110110),
        octahedron_graph(),
        random_graph(9, 0.6, seed=0),
        random_graph(10, 0.5, seed=3),
    ])
    def test_coboundary_columns_are_the_boundary_transposed(self, graph):
        c = build_clique_complex(graph, graph.n - 1)
        for j in range(c.max_dim):
            rows = {w: i for i, w in enumerate(c.words(j + 1))}
            cob = np.zeros((len(rows), c.simplex_count(j)), dtype=np.int64)
            for col, (word, common) in enumerate(zip(c.words(j), c.common_masks[j])):
                for coface, sign in _coboundary(word, common).items():
                    cob[rows[coface], col] = sign
            assert np.array_equal(cob, boundary_matrix(c, j + 1).T), j
        top = c.max_dim
        assert all(_coboundary(w, m) == {} for w, m in zip(c.words(top), c.common_masks[top]))

    @pytest.mark.parametrize("c,columns,most_built,beta", [
        (build_clique_complex(complete_graph(8), 3), 91, 0, None),
        (complement_complex(random_graph(28, 0.4, seed=1), 2), 737, 737 // 5, None),
        (build_clique_complex(random_graph(40, 0.85, seed=1), 4), 137_901, 368, 0),
    ], ids=["K8", "ER28-complement", "ER40-k4"])
    def test_emergent_pairs_leave_columns_unbuilt(self, monkeypatch, c, columns, most_built,
                                                  beta):
        # a column whose largest row is new takes it without being built: the columns
        # are the simplices each level's reduction does not skip, the built ones its
        # coboundary calls
        counts = {"columns": 0, "built": 0}
        reduce_level, coboundary = homology._reduce_level, homology._coboundary

        def counted_level(words, masks, cleared):
            counts["columns"] += sum(1 for w, m in zip(words, masks) if m and w not in cleared)
            return reduce_level(words, masks, cleared)

        def built(word, common):
            counts["built"] += 1
            return coboundary(word, common)

        monkeypatch.setattr(homology, "_reduce_level", counted_level)
        monkeypatch.setattr(homology, "_coboundary", built)
        k = c.max_dim
        if beta is None:  # the boundary-side referee; ER40's beta_4, pinned, takes it ~15 s
            beta = betti_by_boundary_reduction(build_clique_complex(c.graph, k + 1), k)
        assert betti_exact(c, k) == beta
        assert counts["columns"] == columns
        assert counts["built"] <= most_built

    def test_census_matches_boundary_reduction(self, census_complexes):
        for index, c in zip(CENSUS_INDICES, census_complexes):
            for k in (0, 1):
                assert betti_exact(c, k) == betti_by_boundary_reduction(c, k), (index, k)

    def test_census_euler_bettis_match_boundary_reduction(self, census_complexes):
        # each level below the top, on the complex built only to that level
        for index, c in zip(CENSUS_INDICES, census_complexes):
            for j in range(c.max_dim):
                at_level = build_clique_complex(c.graph, j)
                assert betti_exact(at_level, j) == betti_by_boundary_reduction(c, j), (index, j)

    def test_census_level_0_reads_the_edges_from_the_masks(self, census_complexes):
        # a complex built to level 0 holds no edge words; the oracle reads levels 0 and 1
        for index, c in zip(CENSUS_INDICES, census_complexes):
            vertices_only = build_clique_complex(c.graph, 0)
            assert betti_exact(vertices_only, 0) == betti_by_boundary_reduction(c, 0), index

    def test_census_euler_bettis_below_level_2(self, census_complexes):
        # a complex built to level 1 ranks beta_0 as the one built to level 2 does
        for index, c in zip(CENSUS_INDICES, census_complexes):
            skeleton = build_clique_complex(c.graph, 1)
            for j in range(skeleton.max_dim):
                assert betti_exact(skeleton, j) == betti_by_boundary_reduction(skeleton, j), \
                    (index, j)

    def test_ladder_matches_boundary_reduction(self):
        for case, c in ladder_complexes():
            for j in range(c.max_dim):
                assert betti_exact(c, j) == betti_by_boundary_reduction(c, j), (case, j)

    def test_no_torsion_leaks_in(self):
        # the subdivided RP^2 has Z/2 torsion: a mod-2 rank would read (1, 1, 1)
        c = build_clique_complex(rp2_subdivision(), 3)
        assert c.counts == (31, 90, 60, 0)
        assert [betti_by_ranks(c, k, gf2_rank) for k in range(3)] == [1, 1, 1]
        bettis = [betti_exact(c, k) for k in range(3)]
        assert bettis == [1, 0, 0]
        assert bettis == [betti_by_ranks(c, k, bareiss_rank) for k in range(3)]
        assert bettis == [betti_by_boundary_reduction(c, k) for k in range(c.max_dim)]
