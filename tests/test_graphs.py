import random
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from indsat.graphs import (Graph, Graph6Error, _k_connected_within, _separator,
                           bull_graph, clique_cover_at_most, colored_fragment_occurs,
                           complement, complete_graph, complete_multipartite,
                           cycle_graph, emit_graph6, empty_graph, enumerate_2cuts,
                           find_induced, icosahedron_complement, is_connected,
                           is_isomorphic, is_k_connected, parse_graph6,
                           path_graph, twins)
from gensmall import graphs_on, graphs_up_to
from oracles_naive import (naive_2cuts, naive_clique_cover_at_most, naive_components,
                           naive_find_induced, naive_is_connected,
                           naive_k_connected, naive_twins, random_graph)


def graphs_of_order(n):
    """Every labeled graph on n vertices (for exhaustive round-trip checks)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs))
                                   if mask >> i & 1])


class TestGraph6:
    def test_named_decodes(self):
        g = parse_graph6("Dr[")
        assert (g.n, g.edge_count()) == (5, 7)
        assert g.degree_sequence() == (3, 3, 3, 3, 2)

        g = parse_graph6("E?qw")
        assert (g.n, g.edge_count()) == (6, 6)
        assert g.degree_sequence() == (4, 3, 2, 1, 1, 1)
        # Triangle plus three pendants.
        triangle = [v for v in range(6) if g.degree(v) >= 2]
        assert sum(g.has_edge(u, v) for u, v in combinations(triangle, 2)) == 3

        g = parse_graph6("@")
        assert (g.n, g.edge_count()) == (1, 0)

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<Dr[") == parse_graph6("Dr[")
        assert parse_graph6(b"Dr[\n") == parse_graph6("Dr[")

    def test_emit_examples(self):
        assert emit_graph6(empty_graph(1)) == "@"
        assert emit_graph6(parse_graph6("Dr[")) == "Dr["

    def test_round_trip_all_n_le_6(self):
        for n in range(7):
            for g in graphs_of_order(n):
                assert parse_graph6(emit_graph6(g)) == g

    def test_errors_carry_offsets(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("D")  # truncated body
        assert exc.value.offset == 1
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("Dr[[")  # trailing garbage
        assert exc.value.offset == 3
        with pytest.raises(Graph6Error):
            parse_graph6("D" + chr(30))  # byte outside range
        for data, offset, message in ((b"Dr\x1e", 2, "outside graph6 range"),
                                      (b"Dr\\", 2, "nonzero padding bits"),
                                      (b"D\x1e\\", 1, "outside graph6 range")):
            with pytest.raises(Graph6Error, match=message) as exc:
                parse_graph6(data)
            assert exc.value.offset == offset
        with pytest.raises(ValueError):
            emit_graph6(empty_graph(63))

    def test_long_form_header(self):
        g = empty_graph(64)
        # 64 = 0b000000_000001_000000 in three 6-bit chunks.
        encoded = chr(126) + chr(63) + chr(64) + chr(63) + "?" * ((64 * 63 // 2 + 5) // 6)
        assert parse_graph6(encoded) == g

    def test_label_round_trip_at_cap(self):
        from indsat.graphs import graph6_label
        rng = random.Random(6464)
        for n in (63, 64, 65, 100, 191):
            g = random_graph(rng, n)
            assert parse_graph6(graph6_label(g)) == g
        assert graph6_label(parse_graph6("Dr[")) == "Dr["
        with pytest.raises(ValueError):  # beyond the four-byte header
            graph6_label(SimpleNamespace(n=258048))

    @given(st.integers(1, 9), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, n, rng):
        g = random_graph(rng, n)
        assert parse_graph6(emit_graph6(g)) == g

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 30, 62, 63, 64, 65, 100])
    def test_agrees_with_networkx(self, n):
        # Short and long headers, empty to complete, against an independent codec.
        nx = pytest.importorskip("networkx")
        from indsat.graphs import graph6_label
        rng = random.Random(n)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            for _ in range(6):
                nxg = nx.gnp_random_graph(n, density, seed=rng.randrange(1 << 32))
                g = Graph.from_edges(n, nxg.edges())
                data = nx.to_graph6_bytes(nxg, header=False).strip()
                assert parse_graph6(data) == g
                assert graph6_label(g).encode("ascii") == data


class TestComplement:
    def test_k5(self):
        assert complement(complete_graph(5)) == empty_graph(5)

    def test_involution_exhaustive(self):
        for g in graphs_up_to(6):
            assert complement(complement(g)) == g

    def test_icosahedron_complement_edges(self):
        assert icosahedron_complement().edge_count() == 36


class TestVertexRange:
    """Row lookups reject vertices outside 0..n-1 instead of reading another
    row (negative index) or a missing bit."""

    @pytest.mark.parametrize("u, v", [(-1, 2), (0, 9), (9, 0)])
    def test_has_edge_rejects_out_of_range_vertex(self, u, v):
        with pytest.raises(ValueError, match="out of range"):
            path_graph(4).has_edge(u, v)

    @pytest.mark.parametrize("v", [-1, 4])
    def test_neighbors_rejects_out_of_range_vertex(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            path_graph(4).neighbors(v)

    @pytest.mark.parametrize("v", [-1, 4])
    def test_degree_rejects_out_of_range_vertex(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            path_graph(4).degree(v)


class TestDerivedGraphs:
    """toggled, induced and complement skip the O(n^2) row checks of
    Graph(...), so their arguments are checked and their results must be
    valid by construction."""

    @pytest.mark.parametrize("vertices, bad", [([-1, 3], -1), ([0, 7], 7)])
    def test_induced_rejects_out_of_range_vertex(self, vertices, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            path_graph(4).induced(vertices)

    @pytest.mark.parametrize("u, v, bad", [(0, 9, 9), (-1, 2, -1)])
    def test_toggled_rejects_out_of_range_vertex(self, u, v, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            path_graph(4).toggled(u, v)

    def test_duplicate_and_self_pair_still_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            path_graph(4).induced([1, 2, 1])
        with pytest.raises(ValueError, match="itself"):
            path_graph(4).toggled(2, 2)

    @given(st.integers(1, 70), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_results_are_valid_and_match_a_naive_rebuild(self, n, rng):
        g = random_graph(rng, n)
        edges = set(g.edges())
        picked = rng.sample(range(n), rng.randint(0, n))
        derived = [(complement(g), g.non_edges()),
                   (g.induced(picked),
                    [(i, j) for i, j in combinations(range(len(picked)), 2)
                     if (min(picked[i], picked[j]), max(picked[i], picked[j])) in edges])]
        if n >= 2:
            u, v = sorted(rng.sample(range(n), 2))
            derived.append((g.toggled(v, u), sorted(edges ^ {(u, v)})))
        for h, expected_edges in derived:
            assert Graph(h.n, list(h.adj)) == h  # passes full validation
            assert h == Graph.from_edges(h.n, expected_edges)


class TestFindInduced:
    def test_p4_in_c5(self):
        emb = find_induced(cycle_graph(5), path_graph(4))
        assert emb is not None
        host = cycle_graph(5)
        p4 = path_graph(4)
        for p, q in combinations(range(4), 2):
            assert p4.has_edge(p, q) == host.has_edge(emb[p], emb[q])

    def test_no_p4_in_torero_window(self):
        from fractions import Fraction

        from indsat.oracles import TORERO_KIND, oracle_window
        vals = [Fraction(1, 5), Fraction(7, 20), Fraction(9, 20),
                Fraction(3, 5), Fraction(17, 20)]
        window, _ = oracle_window(TORERO_KIND, vals)
        assert find_induced(window, path_graph(4)) is None

    def test_no_p5_in_icosahedron_complement(self):
        assert find_induced(icosahedron_complement(), path_graph(5)) is None

    def test_anchor_validation(self):
        host, pattern = cycle_graph(5), path_graph(3)
        with pytest.raises(ValueError):
            find_induced(host, pattern, {0: 0, 1: 0})  # not injective
        with pytest.raises(ValueError):
            find_induced(host, pattern, {0: 0, 1: 2})  # adjacency mismatch

    def test_anchored_extension(self):
        emb = find_induced(cycle_graph(5), path_graph(4), {0: 2})
        assert emb is not None and emb[0] == 2

    @given(st.integers(1, 7), st.integers(1, 5), st.randoms())
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_naive_oracle(self, nh, np_, rng):
        host = random_graph(rng, nh)
        pattern = random_graph(rng, min(np_, nh))
        assert (find_induced(host, pattern) is None) == \
            (naive_find_induced(host, pattern) is None)

    def test_agrees_with_naive_oracle_seeded_sample(self):
        rng = random.Random(314)
        for _ in range(1500):
            host = random_graph(rng, rng.randint(1, 7), rng.choice([0.25, 0.5, 0.75]))
            pattern = random_graph(rng, rng.randint(1, min(5, host.n)),
                                   rng.choice([0.25, 0.5, 0.75]))
            assert (find_induced(host, pattern) is None) == \
                (naive_find_induced(host, pattern) is None)


    def test_anchored_beyond_64_vertices_agrees_with_naive_oracle(self):
        rng = random.Random(6565)
        outcomes = set()
        for _ in range(40):
            host = random_graph(rng, rng.randint(65, 80), rng.choice([0.05, 0.5, 0.95]))
            pattern = random_graph(rng, 4)
            pairs = [(a, b) for a, b in combinations(range(64, host.n), 2)
                     if host.has_edge(a, b) == pattern.has_edge(0, 1)]
            if not pairs:
                continue
            anchors = dict(zip((0, 1), rng.choice(pairs)))
            emb = find_induced(host, pattern, anchors)
            assert (emb is None) == (naive_find_induced(host, pattern, anchors) is None)
            if emb is not None:
                assert (emb[0], emb[1]) == (anchors[0], anchors[1])
                assert all(pattern.has_edge(p, q) == host.has_edge(emb[p], emb[q])
                           for p, q in combinations(range(4), 2))
            outcomes.add(emb is None)
        assert outcomes == {True, False}


class TestColoredFragments:
    def test_single_marked_edge_trivially_occurs(self):
        assert colored_fragment_occurs(cycle_graph(5), (0, 1), path_graph(2), (0, 1))

    def test_status_mismatch_is_false(self):
        # Red pair (0, 2) is a non-edge of C5; the fragment's is an edge.
        assert not colored_fragment_occurs(cycle_graph(5), (0, 2), path_graph(2), (0, 1))

    def test_red_pair_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            colored_fragment_occurs(cycle_graph(5), (0, 2), path_graph(3), (1, 1))

    def test_c5_plus_nonedge_path_fragment(self):
        # Marked pair (0, 2) of C5 with the chord added; fragment is the
        # marked path 0-1-2 through the cut.  Brute force says it occurs.
        c5 = cycle_graph(5)
        host_graph = c5.toggled(0, 2)
        frag_graph = Graph.from_edges(3, [(0, 1), (1, 2)]).toggled(0, 2)
        assert colored_fragment_occurs(host_graph, (0, 2), frag_graph, (0, 2)) == any(
            host_graph.has_edge(0, w) and host_graph.has_edge(2, w)
            for w in range(5) if w not in (0, 2))


class TestConnectivity:
    def test_known_k_connectivity(self):
        assert is_k_connected(complete_multipartite(3, 3), 3)
        assert is_k_connected(complete_multipartite(2, 1, 1, 1), 3)
        assert not is_k_connected(cycle_graph(5), 3)

    def test_exhaustive_vs_naive(self):
        for g in graphs_up_to(6):
            for k in (1, 2, 3):
                assert is_k_connected(g, k) == naive_k_connected(g, k)

    def test_masked_vs_naive_on_induced_subgraph(self):
        rng = random.Random(1010)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.3, 0.5, 0.8]))
            subset = [v for v in range(g.n) if rng.random() < 0.7]
            mask = sum(1 << v for v in subset)
            for k in (1, 2, 3):
                assert _k_connected_within(g, mask, k) == \
                    naive_k_connected(g.induced(subset), k)

    def test_separator_is_small_and_disconnects(self):
        rng = random.Random(1011)
        for _ in range(300):
            g = random_graph(rng, rng.randint(4, 10), rng.choice([0.3, 0.5, 0.8]))
            for k in (1, 2, 3):
                cut = _separator(g, (1 << g.n) - 1, k)
                if cut is None:
                    assert naive_k_connected(g, k)
                else:
                    assert cut.bit_count() < k
                    assert len(naive_components(g, {v for v in range(g.n)
                                                    if cut >> v & 1})) >= 2

    def test_k_connectivity_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in _networkx_sample():
            connectivity = nx.node_connectivity(_to_networkx(nx, g))
            for k in (1, 2, 3):
                assert is_k_connected(g, k) == (g.n >= k + 1 and connectivity >= k), \
                    (emit_graph6(g), k)

    def test_2cuts_agree_with_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in _networkx_sample():
            nxg = _to_networkx(nx, g)
            if g.n < 4 or not nx.is_connected(nxg):
                continue
            expected = {(u, v) for u, v in combinations(range(g.n), 2)
                        if not nx.is_connected(nx.restricted_view(nxg, [u, v], []))}
            assert {pair for pair, _, _ in enumerate_2cuts(g)} == expected, emit_graph6(g)

    def test_2cuts_golden(self):
        cuts = enumerate_2cuts(parse_graph6("Dr["))
        assert len(cuts) == 1
        (pair, is_edge, comps) = cuts[0]
        assert pair == (1, 2) and not is_edge and len(comps) == 2

        assert enumerate_2cuts(complete_graph(4)) == []

    def test_2cuts_vs_naive_p5(self):
        g = path_graph(5)
        assert {pair for pair, _, _ in enumerate_2cuts(g)} == naive_2cuts(g)

    def test_2cuts_vs_naive_exhaustive(self):
        for g in graphs_up_to(6):
            if g.n < 4 or not naive_is_connected(g):
                continue
            assert {p for p, _, _ in enumerate_2cuts(g)} == naive_2cuts(g)

    def test_2cuts_requires_connected(self):
        with pytest.raises(ValueError):
            enumerate_2cuts(empty_graph(4))

    def test_3connected_excludes_cut_structures(self):
        for g in graphs_up_to(6):
            if not is_connected(g) or g.n < 4:
                continue
            has_cut_vertex = any(len(naive_components(g, {v})) >= 2
                                 for v in range(g.n))
            if enumerate_2cuts(g) or has_cut_vertex:
                assert not is_k_connected(g, 3)


def _to_networkx(nx, g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


def _networkx_sample():
    """Every 60th class on at most 8 vertices, then random graphs on up to 16."""
    yield from list(graphs_up_to(8))[::60]
    rng = random.Random(1012)
    for n in range(9, 17):
        for density in (0.2, 0.35, 0.5, 0.7):
            for _ in range(3):
                yield random_graph(rng, n, density)


class TestCliqueCover:
    def test_examples(self):
        c5 = cycle_graph(5)
        assert not clique_cover_at_most(c5, range(5), 2)
        assert clique_cover_at_most(c5, range(5), 3)
        assert clique_cover_at_most(c5, [], 0)
        assert not clique_cover_at_most(c5, [0], 0)

    def test_vs_naive_partition_oracle(self):
        rng = random.Random(777)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.8]))
            vertices = [v for v in range(g.n) if rng.random() < 0.8]
            rng.shuffle(vertices)
            for budget in range(4):
                assert clique_cover_at_most(g, vertices, budget) == \
                    naive_clique_cover_at_most(g, vertices, budget)


class TestTwins:
    def test_p4_has_no_twins(self):
        for v in range(4):
            assert twins(path_graph(4), v) == ([], [])

    def test_k3_true_twins(self):
        tt, ft = twins(complete_graph(3), 0)
        assert sorted(tt) == [1, 2] and ft == []

    def test_exhaustive_vs_naive_and_exclusivity(self):
        rng = random.Random(7)
        for g in graphs_up_to(6):
            for v in range(g.n):
                tt, ft = twins(g, v)
                assert (tt, ft) == naive_twins(g, v)
                # No vertex has both a true and a false twin.
                assert not (tt and ft)
        for _ in range(50):
            g = random_graph(rng, 7)
            for v in range(7):
                tt, ft = twins(g, v)
                assert not (tt and ft)


class TestIsomorphism:
    def test_known_pairs(self):
        assert is_isomorphic(cycle_graph(5), complement(cycle_graph(5)))
        assert is_isomorphic(bull_graph(), complement(bull_graph()))
        assert not is_isomorphic(path_graph(4), cycle_graph(4))

    def test_counts_per_class(self):
        # graphs_on itself def-checks class counts; spot check n = 5.
        assert len(graphs_on(5)) == 34
