import json
from math import comb

import numpy as np
import pytest

from bettiq import (
    CliqueComplex,
    InstanceSpec,
    PointCloud,
    VertexGraph,
    build_clique_complex,
    complement_complex,
    dump_instance,
    estimate_betti,
    generate_instance,
    hodge_laplacian,
    induced_graph,
    instance_to_dict,
    load_instance,
    slot_rank,
)
from helpers import (
    SimplexWord,
    brute_force_cliques,
    brute_force_levels,
    census_graph,
    cocktail_party_graph,
    complete_graph,
    contains_word,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_slots,
    graph_join,
    membership,
    octahedron_graph,
    path_graph,
    random_graph,
    rp2_subdivision,
    slot_words,
    two_disjoint_cycles,
    two_disjoint_edges,
)


def words_to_sets(words):
    return {frozenset(SimplexWord(w, 12, w.bit_count() - 1).vertices()) for w in words}


class TestSimplexWord:
    def test_roundtrip(self):
        s = SimplexWord.from_vertices([0, 2, 5], 6)
        assert s.bits == 0b100101
        assert s.k == 2
        assert s.vertices() == [0, 2, 5]

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SimplexWord(0b0111, 4, 1)  # weight 3, claimed k+1 = 2

    def test_word_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SimplexWord(0b10001, 4, 1)

    def test_equality_is_word_equality(self):
        assert SimplexWord(0b011, 3, 1) == SimplexWord.from_vertices([0, 1], 3)
        assert SimplexWord(0b011, 3, 1) != SimplexWord(0b101, 3, 1)


class TestSlots:
    def test_n4_k1_order(self):
        assert slot_words(4, 1) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]

    def test_n3_k2(self):
        assert slot_words(3, 2) == [0b111]

    def test_n5_k0(self):
        assert slot_words(5, 0) == [1, 2, 4, 8, 16]

    def test_enumerate_wraps_words(self):
        slots = enumerate_slots(4, 1)
        assert [s.bits for s in slots] == slot_words(4, 1)
        assert all(s.k == 1 and s.n == 4 for s in slots)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            slot_words(4, 4)
        with pytest.raises(ValueError):
            slot_words(4, -1)

    @pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (8, 3), (7, 0)])
    def test_slot_rank_is_position(self, n, k):
        words = slot_words(n, k)
        for i, w in enumerate(words):
            assert slot_rank(w) == i


class TestBuild:
    def test_c4(self):
        c = build_clique_complex(cycle_graph(4), 2)
        assert c.counts == (4, 4, 0)
        expected_edges = {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (0, 3)]}
        assert words_to_sets(c.words(1)) == expected_edges
        assert words_to_sets(c.words(1)) == brute_force_cliques(cycle_graph(4), 2)

    def test_k3_has_one_triangle(self):
        c = build_clique_complex(complete_graph(3), 2)
        assert c.words(2) == (0b111,)

    def test_empty_graph(self):
        c = build_clique_complex(empty_graph(3), 1)
        assert c.counts == (3, 0)

    def test_levels_sorted_strictly(self):
        c = build_clique_complex(random_graph(8, 0.6, seed=1), 3)
        for level in c.simplices:
            assert list(level) == sorted(set(level))

    def test_matches_brute_force(self):
        for seed in range(4):
            g = random_graph(7, 0.5, seed=seed)
            c = build_clique_complex(g, 3)
            for k in range(4):
                assert words_to_sets(c.words(k)) == brute_force_cliques(g, k + 1)

    @staticmethod
    def check_levels(graph, max_dim):
        # every level's words and common masks, in order, as the subset oracle has them
        c = build_clique_complex(graph, max_dim)
        words, masks = brute_force_levels(graph, max_dim)
        assert [list(level) for level in c.simplices] == words, (graph.edges(), max_dim)
        assert [list(level) for level in c.common_masks] == masks, (graph.edges(), max_dim)

    def test_census_levels_match_the_subset_oracle(self):
        for i in range(0, 2 ** 15, 16):
            self.check_levels(census_graph(i), 5)

    def test_er_ladder_levels_match_the_subset_oracle(self):
        for n in range(8, 29, 4):
            for p in (0.3, 0.5, 0.7):
                self.check_levels(random_graph(n, p, 1), 2)

    def test_known_topology_levels_match_the_subset_oracle(self):
        graphs = [cycle_graph(5), complete_graph(5), octahedron_graph(), rp2_subdivision(),
                  two_disjoint_cycles(), two_disjoint_edges(), path_graph(5), empty_graph(4)]
        for g in graphs:
            self.check_levels(g, min(g.n - 1, 3))
        c5 = cycle_graph(5)
        spheres = [(graph_join(c5, c5), 3), (cocktail_party_graph(5), 4),
                   (graph_join(c5, cocktail_party_graph(3)), 4),
                   (graph_join(graph_join(c5, c5), c5), 5),
                   (disjoint_union(cocktail_party_graph(4), cocktail_party_graph(4)), 3)]
        for g, k in spheres:
            self.check_levels(g, k)

    def test_empty_graph_levels_match_the_subset_oracle(self):
        self.check_levels(empty_graph(5), 4)

    def test_words_beyond_64_bits_match_the_subset_oracle(self):
        g = random_graph(70, 0.1, seed=5)
        self.check_levels(g, 2)
        c = build_clique_complex(g, 2)
        assert c.counts[2] > 0 and max(c.words(2)).bit_length() > 64

    def test_downward_closure(self):
        c = build_clique_complex(random_graph(8, 0.55, seed=9), 3)
        for k in range(1, 4):
            for w in c.words(k):
                for v in SimplexWord(w, 8, k).vertices():
                    assert contains_word(c, k - 1, w & ~(1 << v))

    def test_count_bounds_and_density(self):
        c = build_clique_complex(complete_graph(5), 3)
        for k in range(4):
            assert c.simplex_count(k) == comb(5, k + 1)
        c2 = build_clique_complex(random_graph(6, 0.4, seed=2), 2)
        for k in range(3):
            assert 0 <= c2.simplex_count(k) <= comb(6, k + 1)

    def test_bad_max_dim(self):
        with pytest.raises(ValueError):
            build_clique_complex(cycle_graph(4), -1)
        with pytest.raises(ValueError):
            build_clique_complex(cycle_graph(4), 4)


class TestMembership:
    def test_c4_edge_and_diagonal(self):
        c = build_clique_complex(cycle_graph(4), 2)
        assert membership(c, SimplexWord(0b0011, 4, 1)) == 1
        assert membership(c, SimplexWord(0b0101, 4, 1)) == 0

    def test_k3_full_clique(self):
        c = build_clique_complex(complete_graph(3), 2)
        assert membership(c, SimplexWord(0b111, 3, 2)) == 1

    def test_wrong_vertex_count_rejected(self):
        c = build_clique_complex(cycle_graph(4), 2)
        with pytest.raises(ValueError):
            membership(c, SimplexWord(0b011, 3, 1))

    def test_agrees_with_brute_force(self):
        g = random_graph(8, 0.5, seed=4)
        c = build_clique_complex(g, 2)
        for k in range(3):
            truth = brute_force_cliques(g, k + 1)
            for s in enumerate_slots(8, k):
                assert membership(c, s) == (frozenset(s.vertices()) in truth)


class TestComplement:
    def test_c4_complement_is_two_edges(self):
        c = complement_complex(cycle_graph(4), 2)
        assert words_to_sets(c.words(1)) == {frozenset({0, 2}), frozenset({1, 3})}

    def test_complete_complement_is_empty(self):
        c = complement_complex(complete_graph(5), 1)
        assert c.simplex_count(1) == 0

    def test_empty_complement_is_complete(self):
        c = complement_complex(empty_graph(4), 2)
        assert c.simplex_count(1) == 6
        assert c.simplex_count(2) == 4

    def test_double_complement_restores_edges(self):
        g = random_graph(7, 0.5, seed=11)
        direct = build_clique_complex(g, 1)
        twice = build_clique_complex(g.complement().complement(), 1)
        assert direct.words(1) == twice.words(1)


class TestPointCloud:
    def test_ties_count_as_connected(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]), length_scale=1.0)
        g = induced_graph(cloud)
        assert g.adjacency[0, 1] and not g.adjacency[1, 2]

    def test_square_cloud_is_c4(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        g = induced_graph(PointCloud(pts, length_scale=1.0))  # diagonals are sqrt(2) away
        c = build_clique_complex(g, 2)
        assert c.counts == (4, 4, 0)

    def test_ragged_points_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0], [0.0, 1.0]], dtype=object), 1.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 2)), 0.0)


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            VertexGraph(3, adj)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            VertexGraph.from_edges(3, [(1, 1)])

    def test_vertex_count_is_read_as_an_int(self):
        for n in (3, 3.0, np.int64(3)):
            g = VertexGraph(n, np.zeros((3, 3), dtype=bool))
            assert type(g.n) is int and g.n == 3
            assert estimate_betti(g, 0).beta_rounded == 3
        with pytest.raises(ValueError, match="vertex count n must be an integer"):
            VertexGraph(2.5, np.zeros((3, 3), dtype=bool))

    @pytest.mark.parametrize("n", [1, 8, 9, 65])
    def test_adjacency_masks_hold_the_neighbours(self, n):
        g = random_graph(n, 0.5, seed=n)
        for v, mask in enumerate(g.adjacency_masks()):
            assert 0 <= mask < 1 << n
            assert {u for u in range(n) if mask >> u & 1} == set(np.nonzero(g.adjacency[v])[0])

    @pytest.mark.parametrize("graph", [random_graph(9, 0.6, seed=2), complete_graph(6),
                                       empty_graph(4)])
    def test_common_masks_are_the_vertex_masks_anded(self, graph):
        c = build_clique_complex(graph, graph.n - 1)
        masks = graph.adjacency_masks()
        for words, commons in zip(c.simplices, c.common_masks):
            assert len(commons) == len(words)
            for word, common in zip(words, commons):
                expected = -1
                for v in range(graph.n):
                    if word >> v & 1:
                        expected &= masks[v]
                assert common == expected, word

    def test_complex_keeps_its_masks_for_the_laplacian(self, monkeypatch):
        g = random_graph(9, 0.5, seed=4)
        c = build_clique_complex(g, 3)
        assert c.masks == tuple(g.adjacency_masks())

        def refuse(self):
            raise AssertionError("adjacency masks recomputed")

        monkeypatch.setattr(VertexGraph, "adjacency_masks", refuse)
        for k in range(3):
            hodge_laplacian(c, k)


class TestGenerate:
    def test_cycle(self):
        g = generate_instance(InstanceSpec("cycle", {"n": 4}))
        assert {frozenset(e) for e in g.edges()} == {
            frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (0, 3)]
        }

    def test_erdos_renyi_deterministic(self):
        spec = InstanceSpec("erdos-renyi", {"n": 8, "p": 0.5}, seed=7)
        g1, g2 = generate_instance(spec), generate_instance(spec)
        assert np.array_equal(g1.adjacency, g2.adjacency)

    def test_octahedron_structure(self):
        g = generate_instance(InstanceSpec("octahedron"))
        assert np.array_equal(g.adjacency, octahedron_graph().adjacency)
        assert len(g.edges()) == 12

    def test_annulus_cloud(self):
        spec = InstanceSpec("annulus-cloud",
                            {"n": 20, "inner": 1.0, "outer": 1.5, "length_scale": 0.8}, seed=3)
        cloud1, cloud2 = generate_instance(spec), generate_instance(spec)
        assert np.array_equal(cloud1.points, cloud2.points)
        radii = np.linalg.norm(cloud1.points, axis=1)
        assert (radii >= 1.0 - 1e-12).all() and (radii <= 1.5 + 1e-12).all()

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(InstanceSpec("hypercube", {"n": 4}))


class TestInstanceIO:
    def test_graph_roundtrip(self, tmp_path):
        g = cycle_graph(5)
        path = tmp_path / "c5.json"
        dump_instance(g, path, InstanceSpec("cycle", {"n": 5}))
        loaded = load_instance(path)
        assert isinstance(loaded, VertexGraph)
        assert np.array_equal(loaded.adjacency, g.adjacency)

    def test_cloud_roundtrip(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.5, 0.5]]), 0.9)
        path = tmp_path / "cloud.json"
        dump_instance(cloud, path)
        loaded = load_instance(path)
        assert isinstance(loaded, PointCloud)
        assert np.allclose(loaded.points, cloud.points)
        assert loaded.length_scale == 0.9

    def test_generator_spec_file(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"model": "cycle", "params": {"n": 4}}))
        g = load_instance(path)
        assert isinstance(g, VertexGraph) and len(g.edges()) == 4

    @pytest.mark.parametrize("data", [
        {"n": 4.9, "edges": [[0, 1], [2, 3]]},
        {"n": 4, "edges": [[0, 1.5], [2, 3]]},
        {"n": 4, "edges": [[0, 1], [2.7, 3]]},
        {"n": "4", "edges": [[0, 1]]},
        {"n": 4, "edges": [[0, None]]},
    ])
    def test_non_integral_vertex_ids_rejected(self, data):
        with pytest.raises(ValueError, match="must be an integer"):
            load_instance(data)

    def test_integral_floats_accepted(self):
        g = load_instance({"n": 4.0, "edges": [[0.0, 1], [2, 3.0]]})
        assert g.n == 4 and g.edges() == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("vertex", [True, np.int64(1), np.uint8(1), 1.0])
    def test_integral_ids_of_any_type_accepted(self, vertex):
        g = load_instance({"n": np.int32(3), "edges": [[0, vertex], [vertex, 2]]})
        assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("vertex", [4.9, "3", np.float64(1.5)])
    def test_non_integral_ids_of_any_type_rejected(self, vertex):
        with pytest.raises(ValueError, match="vertex id must be an integer"):
            load_instance({"n": 6, "edges": [[0, vertex]]})

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1), (1.5, 2)], "vertex id must be an integer, got 1.5"),
        ([(0, 1), (2, "3")], "vertex id must be an integer, got '3'"),
        ([(0, 1), (2, None)], "vertex id must be an integer, got None"),
        ([(True, True)], "self-loop at vertex 1"),
        ([(0, 1), (-1, 2)], "edge (-1,2) names a vertex outside 0..3"),
        ([(0, 1), (2, 4)], "edge (2,4) names a vertex outside 0..3"),
        ([(0, 1), (2, 2)], "self-loop at vertex 2"),
        ([(0, 1), (1, 2, 3)], "edges must be a list of vertex pairs, got [(0, 1), (1, 2, 3)]"),
        # the first bad edge raises, and within an edge a non-integer id, then a
        # self-loop, then a range; a ragged pair anywhere raises before any id is read
        ([(0, 9), (1.5, 2)], "edge (0,9) names a vertex outside 0..3"),
        ([(1.5, 2), (0, 9)], "vertex id must be an integer, got 1.5"),
        ([(9, 1.5)], "vertex id must be an integer, got 1.5"),
        ([(7, 7)], "self-loop at vertex 7"),
        ([(0, 9), (1,)], "edges must be a list of vertex pairs, got [(0, 9), (1,)]"),
        ([(0, 2 ** 70)], f"edge (0,{2 ** 70}) names a vertex outside 0..3"),
        (np.array([[0, 1], [3, 4]]), "edge (3,4) names a vertex outside 0..3"),
        (5, "edges must be a list of vertex pairs, got 5"),
    ])
    def test_bad_edges_raise_the_first_bad_edges_message(self, edges, message):
        with pytest.raises(ValueError) as info:
            VertexGraph.from_edges(4, edges)
        assert str(info.value) == message

    @pytest.mark.parametrize("edges,expected", [
        ([], []),
        ([(True, 2), (3, False)], [(0, 3), (1, 2)]),
        ([[0.0, 1], (2, np.int64(3))], [(0, 1), (2, 3)]),
        (((i, i + 1) for i in range(3)), [(0, 1), (1, 2), (2, 3)]),
        (np.array([[1, 0], [3, 2], [0, 1]]), [(0, 1), (2, 3)]),
        (np.zeros((0, 2), dtype=int), []),
    ])
    def test_good_edges_of_any_form_are_read(self, edges, expected):
        assert VertexGraph.from_edges(4, edges).edges() == expected

    def test_edge_lists_give_the_adjacency(self):
        # each edge filled both ways, one by one, on the census and the ER ladder
        graphs = [census_graph(i) for i in range(0, 2 ** 15, 7)]
        graphs += [random_graph(n, p, 1) for n in range(8, 29, 4) for p in (0.3, 0.5, 0.7)]
        for g in graphs:
            edges = instance_to_dict(g)["edges"]
            adj = np.zeros((g.n, g.n), dtype=bool)
            for u, v in edges:
                adj[u, v] = adj[v, u] = True
            assert np.array_equal(VertexGraph.from_edges(g.n, edges).adjacency, adj)
            assert np.array_equal(load_instance(instance_to_dict(g)).adjacency, adj)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            load_instance({"foo": 1})
