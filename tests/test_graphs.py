import random
import re
import string
import sys
import time
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from indsat import classifier, graphs
from indsat.graphs import (Graph, Graph6Error,
                           bull_graph, clique_cover_at_most, colored_fragment_occurs,
                           complement, complete_graph, complete_multipartite,
                           components_within, cycle_graph, emit_graph6, empty_graph,
                           enumerate_2cuts, find_induced, icosahedron_complement,
                           is_isomorphic, is_k_connected, parse_graph6,
                           path_graph, search_order, twins)
from gensmall import graphs_on, graphs_up_to
from oracles_naive import (naive_2cuts, naive_clique_cover_at_most, naive_components,
                           naive_find_induced, naive_first_cut, naive_is_connected,
                           naive_k_connected, naive_shortcut_free, naive_twins,
                           random_graph)


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
        with pytest.raises(Graph6Error, match="non-ASCII") as exc:
            parse_graph6("Dr\u00e9")
        assert exc.value.offset == 2
        # Above 62 vertices the encoder switches to the four-byte header.
        assert emit_graph6(empty_graph(63))[:4] == chr(126) + chr(63) + chr(63) + chr(126)
        assert parse_graph6(emit_graph6(empty_graph(63))) == empty_graph(63)

    def test_offsets_count_from_the_start_of_the_input(self):
        # The dropped whitespace and >>graph6<< header count, as in the text given.
        for text, offset in (("Dr[[", 3), ("  Dr[[", 5), (">>graph6<<Dr[[", 13),
                             (" \t>>graph6<<D", 13), ("\n~~", 1), (" >>graph6<< ", 11)):
            with pytest.raises(Graph6Error) as exc:
                parse_graph6(text)
            assert exc.value.offset == offset, text

    def test_one_whitespace_set(self):
        assert sorted(graphs.ASCII_WHITESPACE) == sorted(string.whitespace)

    def test_ascii_whitespace_around_a_value_is_ignored(self):
        # No graph6 byte (63..126) is ASCII whitespace; other control bytes stay.
        for text in ("Dr[ ", " Dr[", "\tDr[\r\n", "\x0bDr[\x0c", " >>graph6<<Dr[\n"):
            assert parse_graph6(text) == parse_graph6("Dr[")
        with pytest.raises(Graph6Error, match="trailing garbage") as exc:
            parse_graph6("Dr[\x1e")
        assert exc.value.offset == 3
        with pytest.raises(Graph6Error, match="empty"):
            parse_graph6(" \t\r\n")

    @pytest.mark.parametrize("text, offset, message", [
        ("~??", 0, "unsupported or truncated long-form header"),
        ("~~", 0, "unsupported or truncated long-form header"),
        ("  ~~??", 2, "unsupported or truncated long-form header"),
        ("~?!?", 2, "corrupt long-form header byte"),
        (" ~??\x1e", 4, "corrupt long-form header byte")])
    def test_bad_long_form_headers_are_named(self, text, offset, message):
        with pytest.raises(Graph6Error, match=message) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset

    def test_long_form_header(self):
        g = empty_graph(64)
        # 64 = 0b000000_000001_000000 in three 6-bit chunks.
        encoded = chr(126) + chr(63) + chr(64) + chr(63) + "?" * ((64 * 63 // 2 + 5) // 6)
        assert parse_graph6(encoded) == g

    def test_label_round_trip_at_cap(self):
        rng = random.Random(6464)
        for n in (63, 64, 65, 100, 191):
            g = random_graph(rng, n)
            assert parse_graph6(emit_graph6(g)) == g
        assert emit_graph6(parse_graph6("Dr[")) == "Dr["
        with pytest.raises(ValueError):  # beyond the four-byte header
            emit_graph6(SimpleNamespace(n=258048))

    @given(st.integers(1, 9), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, n, rng):
        g = random_graph(rng, n)
        assert parse_graph6(emit_graph6(g)) == g

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 30, 62, 63, 64, 65, 100])
    def test_agrees_with_networkx(self, n):
        # Short and long headers, empty to complete, against an independent codec.
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            for _ in range(6):
                nxg = nx.gnp_random_graph(n, density, seed=rng.randrange(1 << 32))
                g = Graph.from_edges(n, nxg.edges())
                data = nx.to_graph6_bytes(nxg, header=False).strip()
                assert parse_graph6(data) == g
                assert emit_graph6(g).encode("ascii") == data

    def test_repr_is_graph6_up_to_62_vertices(self):
        assert repr(path_graph(4)) == "Graph('Ch')"
        assert repr(empty_graph(0)) == "Graph('?')"
        g = path_graph(62)
        assert repr(g) == f"Graph({emit_graph6(g)!r})"
        assert repr(path_graph(63)) == "Graph(n=63, m=62)"
        assert repr(complete_graph(100)) == "Graph(n=100, m=4950)"


class TestComplement:
    def test_k5(self):
        assert complement(complete_graph(5)) == empty_graph(5)

    def test_involution_exhaustive(self):
        for g in graphs_up_to(6):
            assert complement(complement(g)) == g

    def test_icosahedron_complement_edges(self):
        assert icosahedron_complement().edge_count() == 36


class TestRowConstructor:
    @pytest.mark.parametrize("n, rows, message", [
        (3, [0, 0], "adjacency row count does not match n"),
        (2, [0b100, 0], "vertex 0 has a neighbor bit >= n"),
        (3, [0, 0b010, 0], "self-loop at vertex 1"),
        (3, [0b100, 0, 0], "asymmetric adjacency at pair (0,2)")])
    def test_rejects_bad_rows(self, n, rows, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(n, rows)


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
    """toggled, induced, complement, from_edges and parse_graph6 skip the
    O(n^2) row checks of Graph(...), so their arguments are checked and their
    results must be valid by construction."""

    @given(st.integers(0, 40), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_from_edges_and_parse_graph6_match_the_row_constructor(self, n, rng):
        pairs = list(combinations(range(n), 2))
        edges = [rng.choice(pairs)[::rng.choice((1, -1))]
                 for _ in range(rng.randint(0, 2 * len(pairs)))] if pairs else []
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        g = Graph.from_edges(n, edges)
        assert g == Graph(n, rows)
        assert parse_graph6(emit_graph6(g)) == Graph(n, rows)

    @pytest.mark.parametrize("n, edges, message", [
        (-1, [], "negative vertex count"), (3, [(1, 1)], "self-loop"),
        (3, [(0, 3)], "out of range"), (3, [(-1, 2)], "out of range")])
    def test_from_edges_rejects_bad_input(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(n, edges)

    @pytest.mark.parametrize("vertices, bad", [([-1, 3], -1), ([0, 7], 7)])
    def test_induced_rejects_out_of_range_vertex(self, vertices, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            path_graph(4).induced(vertices)

    @pytest.mark.parametrize("n", [8, 64, 100])
    def test_induced_matches_pairwise_has_edge(self, n):
        # Vertex lists in random order, from empty to every vertex.
        rng = random.Random(n)
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            for k in (0, 1, 2, 5, n // 2, n - 1, n):
                picked = rng.sample(range(n), k)
                h = g.induced(picked)
                assert h.n == k and Graph(k, list(h.adj)) == h
                assert all(h.has_edge(i, j) == g.has_edge(picked[i], picked[j])
                           for i in range(k) for j in range(k) if i != j), (n, p, picked)
        for vertices, message in (([5, n, 5], f"vertex {n} out of range for n={n}"),
                                  ([n - 1, -3], f"vertex -3 out of range for n={n}"),
                                  ([n - 1, 0, 3, n - 1], "duplicate vertices")):
            with pytest.raises(ValueError, match=message):
                g.induced(vertices)

    @pytest.mark.parametrize("u, v, bad", [(0, 9, 9), (-1, 2, -1)])
    def test_toggled_rejects_out_of_range_vertex(self, u, v, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            path_graph(4).toggled(u, v)

    def test_duplicate_and_self_pair_still_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            path_graph(4).induced([1, 2, 1])
        with pytest.raises(ValueError, match=r"ends of pair \(2, 2\) must differ"):
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

    @pytest.mark.parametrize("base", [complete_graph(10), empty_graph(10)])
    def test_equal_order_degree_mismatch_is_quick(self, base):
        # Without the degree check this search tried every bijection (3.4 s).
        start = time.perf_counter()
        assert find_induced(base.toggled(3, 4), base) is None
        assert find_induced(base, base.toggled(3, 4)) is None
        assert time.perf_counter() - start < 0.1

    def test_anchor_validation(self):
        host, pattern = cycle_graph(5), path_graph(3)
        with pytest.raises(ValueError):
            find_induced(host, pattern, {0: 0, 1: 0})  # not injective
        with pytest.raises(ValueError):
            find_induced(host, pattern, {0: 0, 1: 2})  # adjacency mismatch

    @pytest.mark.parametrize("anchors", [{0: 5}, {3: 0}, {0: -1}, {-1: 0}])
    def test_anchor_out_of_range(self, anchors):
        with pytest.raises(ValueError, match="out of range"):
            find_induced(cycle_graph(5), path_graph(3), anchors)

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


    def test_returns_the_first_embedding_in_search_order(self):
        # Each depth tries host vertices lowest first, so the answer is the
        # lexicographically first embedding listed in search order.
        rng = random.Random(2525)
        found = 0
        for _ in range(300):
            host = random_graph(rng, rng.randint(1, 7), rng.choice([0.25, 0.5, 0.75]))
            pattern = random_graph(rng, rng.randint(1, min(4, host.n)),
                                   rng.choice([0.25, 0.5, 0.75]))
            anchors = {0: rng.randrange(host.n)} if rng.random() < 0.3 else {}
            order = search_order(pattern, anchors)
            want = None
            for images in permutations(range(host.n), pattern.n):
                emb = [0] * pattern.n
                for p, v in zip(order, images):
                    emb[p] = v
                if all(emb[p] == v for p, v in anchors.items()) and all(
                        pattern.has_edge(p, q) == host.has_edge(emb[p], emb[q])
                        for p, q in combinations(range(pattern.n), 2)):
                    want = tuple(emb)
                    break
            assert find_induced(host, pattern, anchors) == want
            found += want is not None
        assert 0 < found < 300

    def test_deep_pattern_under_the_default_recursion_limit(self):
        # The search keeps its depth in a loop; a raised limit would hide a
        # search that recursed once per pattern vertex.
        assert sys.getrecursionlimit() == 1000
        assert find_induced(path_graph(3000), path_graph(2999)) == tuple(range(2999))

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


class TestSearchOrderMemo:
    """find_induced plans its own search order through one bounded memo,
    keyed by the pattern's rows and the sorted anchored vertices."""

    @staticmethod
    def seeded_searches():
        rng = random.Random(2727)
        for _ in range(600):
            host = random_graph(rng, rng.randint(1, 9), rng.choice([0.25, 0.5, 0.75]))
            pattern = random_graph(rng, rng.randint(1, min(5, host.n)),
                                   rng.choice([0.25, 0.5, 0.75]))
            anchors = ({rng.randrange(pattern.n): rng.randrange(host.n)}
                       if rng.random() < 0.5 else {})
            yield host, pattern, anchors

    def test_cold_and_warm_memo_give_the_same_embeddings(self):
        sample = list(self.seeded_searches())
        graphs._order.cache_clear()
        cold = [find_induced(host, pattern, anchors) for host, pattern, anchors in sample]
        planned = graphs._order.cache_info().misses
        warm = [find_induced(host, pattern, anchors) for host, pattern, anchors in sample]
        assert cold == warm and planned > 0
        assert graphs._order.cache_info().misses == planned  # the warm pass plans nothing
        assert {emb is None for emb in cold} == {True, False}

    def test_searches_never_hash_a_graph(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Graph.__hash__ called")

        monkeypatch.setattr(Graph, "__hash__", refuse)
        graphs._order.cache_clear()
        c5 = cycle_graph(5)
        assert find_induced(cycle_graph(7), path_graph(4), {1: 3}) is not None
        assert colored_fragment_occurs(c5.toggled(0, 2), (0, 2), path_graph(3).toggled(0, 2),
                                       (0, 2))
        for text in ("Dr[", "Es\\o", "D]o", "E?zw", "Ch"):
            assert classifier.classify(parse_graph6(text)).case
        assert classifier.classify(c5).case

    def test_mutating_a_returned_order_leaves_later_searches_alone(self):
        host, pattern, anchors = cycle_graph(7), path_graph(4), {1: 3}
        graphs._order.cache_clear()
        want, order = find_induced(host, pattern, anchors), search_order(pattern, anchors)
        for planned in (order, graphs._order(pattern.adj, (1,))):
            with pytest.raises(TypeError):
                planned[0], planned[-1] = planned[-1], planned[0]
        assert search_order(pattern, anchors) == order == (1, 2, 0, 3)
        assert find_induced(host, pattern, anchors) == want


class TestColoredFragments:
    def test_single_marked_edge_trivially_occurs(self):
        assert colored_fragment_occurs(cycle_graph(5), (0, 1), path_graph(2), (0, 1))

    def test_status_mismatch_is_false(self):
        # Red pair (0, 2) is a non-edge of C5; the fragment's is an edge.
        assert not colored_fragment_occurs(cycle_graph(5), (0, 2), path_graph(2), (0, 1))

    def test_red_pair_must_be_distinct(self):
        with pytest.raises(ValueError, match=r"ends of pair \(1, 1\) must differ"):
            colored_fragment_occurs(cycle_graph(5), (0, 2), path_graph(3), (1, 1))
        with pytest.raises(ValueError, match=r"ends of pair \(2, 2\) must differ"):
            colored_fragment_occurs(cycle_graph(5), (2, 2), path_graph(3), (0, 1))
        with pytest.raises(ValueError, match="vertex 3 out of range for n=3"):
            colored_fragment_occurs(cycle_graph(5), (0, 2), path_graph(3), (0, 3))

    def test_c5_plus_nonedge_path_fragment(self):
        # Marked pair (0, 2) of C5 with the chord added; fragment is the
        # marked path 0-1-2 through the cut.  Brute force says it occurs.
        c5 = cycle_graph(5)
        host_graph = c5.toggled(0, 2)
        frag_graph = Graph.from_edges(3, [(0, 1), (1, 2)]).toggled(0, 2)
        found = colored_fragment_occurs(host_graph, (0, 2), frag_graph, (0, 2))
        assert (found is not None) == any(
            host_graph.has_edge(0, w) and host_graph.has_edge(2, w)
            for w in range(5) if w not in (0, 2))
        # The embedding is induced and puts the red pair on the red pair.
        assert {found[0], found[2]} == {0, 2}
        assert host_graph.induced(list(found)) == frag_graph


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
                # _cuts expects k + 1 or more vertices, as is_k_connected checks.
                no_cut = next(graphs._cuts(g, mask, k), None) is None
                assert (len(subset) >= k + 1 and no_cut) == naive_k_connected(g.induced(subset), k)

    def test_components_within_vs_naive(self):
        # Masks ordered by lowest vertex, against the definition-first search.
        rng = random.Random(2626)
        samples = [(random_graph(rng, rng.randint(0, 12), rng.choice([0.1, 0.3, 0.6])),
                    0.7) for _ in range(400)]
        samples += [(random_graph(rng, rng.randint(40, 64), rng.choice([0.02, 0.05])), 0.9)
                    for _ in range(8)]
        sizes = set()
        for g, keep in samples:
            allowed = sum(1 << v for v in range(g.n) if rng.random() < keep)
            removed = {v for v in range(g.n) if not allowed >> v & 1}
            want = sorted((sum(1 << v for v in comp) for comp in naive_components(g, removed)),
                          key=lambda mask: mask & -mask)
            assert components_within(g, allowed) == want
            sizes.add(min(len(want), 3))
        assert sizes == {0, 1, 2, 3}

    def test_separator_is_small_and_disconnects(self):
        rng = random.Random(1011)
        for _ in range(300):
            g = random_graph(rng, rng.randint(4, 10), rng.choice([0.3, 0.5, 0.8]))
            for k in (1, 2, 3):
                cut = next(graphs._cuts(g, (1 << g.n) - 1, k), None)
                if cut is None:
                    assert naive_k_connected(g, k)
                else:
                    assert cut.bit_count() < k
                    assert len(naive_components(g, {v for v in range(g.n)
                                                    if cut >> v & 1})) >= 2

    def test_separator_returns_the_first_cut(self):
        # Same mask as the definition: sizes in order, then `combinations` order.
        for g, allowed in _masked_sample():
            _assert_first_cuts(g, allowed)

    @pytest.mark.parametrize("blocks", [1, 3, 13])
    def test_separator_first_cut_with_chunks_across_sizes(self, monkeypatch, blocks):
        # Chunks of `blocks` cuts: at 3 and 13 the chunk at each size boundary
        # holds cuts of two sizes, and the first split block must still win;
        # every later split block of a chunk must still be yielded.
        shortcut_free = [(a_size, missed) for a_size in range(5, 10)
                         for missed in naive_shortcut_free(a_size)]
        bipartite = [classifier._bipartite_graph(a_size, missed)
                     for a_size, missed in random.Random(1017).sample(shortcut_free, 40)]
        for g, allowed in (list(_masked_sample())
                           + [(g, set(range(g.n))) for g in bipartite]
                           + [(g, allowed) for g, allowed in _large_connectivity_sample()
                              if g.n == 12]):
            monkeypatch.setattr(graphs, "_PACK_BITS", blocks * g.n)
            _assert_first_cuts(g, allowed)

    def test_separator_at_large_n_agrees_with_networkx(self):
        # Blocks are g.n bits wide, so cover n = 12..64; a returned cut has
        # exactly node_connectivity vertices, the smallest size that works.
        nx = pytest.importorskip("networkx")
        seen = set()
        for g, allowed in _large_connectivity_sample():
            vertices = sorted(allowed)
            connectivity = nx.node_connectivity(_to_networkx(nx, g.induced(vertices)))
            seen.add(min(connectivity, 3))
            mask = sum(1 << v for v in vertices)
            for k in (1, 2, 3):
                cut = next(graphs._cuts(g, mask, k), None)
                assert (cut is None) == (connectivity >= k), (emit_graph6(g), mask, k)
                if cut is not None:
                    assert cut.bit_count() == connectivity and cut & ~mask == 0
                    outside = {v for v in range(g.n) if not (mask & ~cut) >> v & 1}
                    assert len(naive_components(g, outside)) >= 2
            if g.n <= 12:
                first = naive_first_cut(g, allowed, 3)
                assert next(graphs._cuts(g, mask, 3), None) == (
                    None if first is None else sum(1 << v for v in first))
        assert seen == {0, 1, 2, 3}

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
        # Whole triples, in order: pair, is_edge, components by lowest vertex.
        rng = random.Random(1014)
        sample = [g for g in graphs_up_to(6) if g.n >= 4]
        sample += [random_graph(rng, rng.randint(4, 10), rng.choice([0.3, 0.5, 0.7]))
                   for _ in range(300)]
        checked = 0
        for g in sample:
            if not naive_is_connected(g):
                continue
            expected = []
            for u, v in combinations(range(g.n), 2):
                comps = naive_components(g, {u, v})
                if len(comps) >= 2:
                    expected.append(((u, v), v in g.neighbors(u),
                                     sorted(sorted(comp) for comp in comps)))
            assert enumerate_2cuts(g) == expected, emit_graph6(g)
            checked += 1
        assert checked > 200

    def test_2cuts_requires_connected(self):
        with pytest.raises(ValueError):
            enumerate_2cuts(empty_graph(4))

    def test_2cuts_requires_4_vertices(self):
        with pytest.raises(ValueError, match="n >= 4"):
            enumerate_2cuts(path_graph(3))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_connectivity_needs_positive_k(self, k):
        with pytest.raises(ValueError, match="k must be positive"):
            is_k_connected(cycle_graph(5), k)

    def test_long_cycles_and_paths_pack_narrow_and_stop_early(self, monkeypatch):
        # Cuts go to the packed search in chunks of at most 4,096 bits,
        # and `_cuts` stops at the first chunk that splits: about 420
        # searches here.  One search over all C(600, 2) pairs of a
        # 600-vertex cycle would build ints of about 10^8 bits, and going on
        # past the first split would take about 30,000 chunked searches.
        widths = []
        real = graphs._disconnected

        def recording(g, allowed, cuts):
            widths.append(g.n * len(cuts))
            assert widths[-1] <= 4096 and len(widths) < 1000
            return real(g, allowed, cuts)

        monkeypatch.setattr(graphs, "_disconnected", recording)
        started = time.perf_counter()
        cycle, full = cycle_graph(600), (1 << 600) - 1
        assert next(graphs._cuts(cycle, full, 3), None) == 0b101
        assert is_k_connected(cycle, 2) and not is_k_connected(cycle, 3)
        assert next(graphs._cuts(path_graph(600), full, 3), None) == 0b10
        cuts = enumerate_2cuts(cycle_graph(96))
        assert len(cuts) == 96 * 93 // 2
        assert cuts[0] == ((0, 2), False, [[1], list(range(3, 96))])
        assert time.perf_counter() - started < 20

    def test_3connected_excludes_cut_structures(self):
        for g in graphs_up_to(6):
            if not naive_is_connected(g) or g.n < 4:
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


def _large_connectivity_sample():
    """(graph, allowed vertex set) pairs for n = 12..64: cycles, G(n, p),
    structure12 bipartite graphs, and graphs with a cut vertex, a 2-cut or
    two components, relabelled at random."""
    rng = random.Random(1015)

    def relabel(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])

    def glued(sizes, shared):
        # Random blocks on `sizes` vertices; each next block shares `shared`
        # vertices with the previous one (0 gives separate components).
        edges, offset = [], 0
        for i, size in enumerate(sizes):
            base = offset - (shared if i else 0)
            block = random_graph(rng, size, 0.6)
            edges += [(base + u, base + v) for u, v in block.edges()]
            offset = base + size
        return relabel(Graph.from_edges(offset, edges))

    graphs = []
    for n in (16, 24, 40, 64):
        graphs.append(relabel(cycle_graph(n)))
        graphs += [random_graph(rng, n, p) for p in (0.1, 0.25)]
    for sizes in ((8, 10), (12, 14), (20, 30)):
        graphs += [glued(sizes, shared) for shared in (0, 1, 2)]
    for g in graphs:
        yield g, set(range(g.n))
    for a_size in range(5, 10):
        pairs = list(combinations(range(a_size), 2))
        for _ in range(4):
            g = classifier._bipartite_graph(a_size, [rng.choice(pairs)
                                                     for _ in range(12 - a_size)])
            yield g, set(range(g.n))
            yield g, {v for v in range(g.n) if rng.random() < 0.85} | {0, 1, 2, 3}


def _masked_sample():
    """400 seeded random graphs on 2..10 vertices, each with a random
    allowed vertex set."""
    rng = random.Random(1013)
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.2, 0.35, 0.5, 0.8]))
        yield g, {v for v in range(g.n) if rng.random() < 0.8}


def _assert_first_cuts(g, allowed):
    """The first cut `_cuts` yields is `naive_first_cut`'s, and it goes on to
    yield every other cut of size < k in the same order, so each split block
    of a chunk counts, lowest first."""
    mask = sum(1 << v for v in allowed)
    outside = set(range(g.n)) - set(allowed)
    for k in (1, 2, 3):
        if len(allowed) < k + 1:
            continue
        first = naive_first_cut(g, allowed, k)
        expected = None if first is None else sum(1 << v for v in first)
        assert next(graphs._cuts(g, mask, k), None) == expected, (emit_graph6(g), mask, k)
        assert list(graphs._cuts(g, mask, k)) == [
            sum(1 << v for v in cut) for size in range(k)
            for cut in combinations(sorted(allowed), size)
            if len(naive_components(g, outside | set(cut))) != 1], (emit_graph6(g), mask, k)


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

    def test_vs_brute_force_colouring_of_the_complement(self):
        # The fewest cliques covering g[vertices] is the chromatic number of
        # its complement: the least k with a proper k-colouring, all tried.
        rng = random.Random(2929)
        for _ in range(3000):
            g = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8]))
            vertices = rng.sample(range(g.n), rng.randint(0, g.n))
            edges = complement(g.induced(vertices)).edges()
            fewest = next(k for k in range(len(vertices) + 1) if any(
                all(colour[u] != colour[v] for u, v in edges)
                for colour in product(range(k), repeat=len(vertices))))
            for budget in range(len(vertices) + 2):
                assert clique_cover_at_most(g, vertices, budget) == (budget >= fewest), \
                    (emit_graph6(g), vertices, budget)

    def test_no_recursion_per_vertex(self):
        # One vertex per loop step, not per stack frame: 1,200 vertices pass
        # the default recursion limit of 1,000.
        assert clique_cover_at_most(complete_graph(1200), range(1200), 1)
        assert clique_cover_at_most(empty_graph(1200), range(1200), 1200)
        assert not clique_cover_at_most(empty_graph(1200), range(1200), 1199)


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
        # stream.check pins every class count and the stream's sha256 on each
        # load; spot check n = 5.  Only n = 1..9 have pinned classes.
        assert len(graphs_on(5)) == 34
        with pytest.raises(ValueError, match="no pinned classes"):
            graphs_on(0)

    def test_agrees_with_networkx(self):
        # Random relabellings must match; double-edge swaps keep the degree
        # sequence, so degrees alone cannot tell the swapped graph apart.
        nx = pytest.importorskip("networkx")
        rng = random.Random(1013)
        distinct = 0
        for g in _networkx_sample():
            order = list(range(g.n))
            rng.shuffle(order)
            relabelled = g.induced(order)
            assert is_isomorphic(g, relabelled), emit_graph6(g)
            swapped = g
            for _ in range(3):
                swapped = _double_edge_swap(rng, swapped)
            assert swapped.degree_sequence() == g.degree_sequence()
            want = nx.is_isomorphic(_to_networkx(nx, g), _to_networkx(nx, swapped))
            assert is_isomorphic(g, swapped) == want, (emit_graph6(g), emit_graph6(swapped))
            distinct += not want
        assert distinct >= 50


def _double_edge_swap(rng, g):
    """Replace edges ab, cd by ad, cb when both are non-edges (a random try;
    g itself when the tried pair of edges does not allow it)."""
    edges = g.edges()
    if len(edges) < 2:
        return g
    (a, b), (c, d) = rng.sample(edges, 2)
    if rng.random() < 0.5:
        c, d = d, c
    if len({a, b, c, d}) < 4 or g.has_edge(a, d) or g.has_edge(c, b):
        return g
    return g.toggled(a, b).toggled(c, d).toggled(a, d).toggled(c, b)
