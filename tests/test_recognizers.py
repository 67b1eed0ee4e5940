import hashlib
import json
import random
import sys
from collections import Counter
from itertools import combinations, permutations

import pytest

import gates
import stream

from indsat import recognizers
from indsat.graphs import (Graph, _bits, bull_graph, complement, complete_graph,
                           complete_multipartite, cycle_graph, empty_graph,
                           parse_graph6, path_graph)
from indsat.oracles import UP_RIGHT_KIND, oracle_window
from indsat.recognizers import (PermutationWitness, check_permutation_witness,
                                classify_trivial, close_to_permutation, forest_unique_max,
                                is_3conn_nonclique, is_bull_or_p4,
                                is_permutation_graph, match_k2p_k11p)
from indsat.verifier import sample_window
from gensmall import graphs_on, graphs_up_to
from oracles_naive import (naive_close_to_permutation, naive_has_cycle,
                           naive_is_permutation_graph, naive_permutation_realizer,
                           random_graph, random_tree)


class TestTrivial:
    def test_examples(self):
        assert classify_trivial(complete_graph(5)) == "clique"
        assert classify_trivial(cycle_graph(5)) == "none"
        assert classify_trivial(empty_graph(4)) == "independent"
        assert classify_trivial(empty_graph(1)) == "both"


class TestForestUniqueMax:
    def test_star(self):
        center, d = forest_unique_max(complete_multipartite(1, 4))
        assert d == 4 and complete_multipartite(1, 4).degree(center) == 4

    def test_p4_two_maxima(self):
        assert forest_unique_max(path_graph(4)) is None

    def test_bull_has_cycle(self):
        assert forest_unique_max(bull_graph()) is None

    def test_single_edge_rejected(self):
        # Unique maximum degree must exceed 1.
        assert forest_unique_max(path_graph(2)) is None

    def test_none_on_cyclic_graphs_vs_dfs_oracle(self):
        for g in graphs_up_to(6):
            if naive_has_cycle(g):
                assert forest_unique_max(g) is None

    def test_disconnected_forest(self):
        # Star plus isolated vertices still has the unique center.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3)])
        assert forest_unique_max(g) == (0, 3)


class TestK2pK11p:
    def test_examples(self):
        assert match_k2p_k11p(complete_multipartite(2, 3)) == ("k2p", 3)
        assert match_k2p_k11p(complete_multipartite(1, 1, 2)) == ("k11p", 2)
        assert match_k2p_k11p(cycle_graph(5)) is None

    def test_small_k2p_not_reported(self):
        # K_{2,2} = C4 stays unmatched (threshold p >= 3).
        assert match_k2p_k11p(cycle_graph(4)) is None

    def test_complete_graph_not_matched(self):
        assert match_k2p_k11p(complete_graph(4)) is None

    # networkx is the reference here: the recognizer itself is an
    # `is_isomorphic` test against `complete_multipartite`.
    @staticmethod
    def reference(nx, g):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        p = g.n - 2
        if p >= 3 and nx.is_isomorphic(nxg, nx.complete_multipartite_graph(2, p)):
            return ("k2p", p)
        if p >= 2 and nx.is_isomorphic(nxg, nx.complete_multipartite_graph(1, 1, p)):
            return ("k11p", p)
        return None

    def test_exhaustive_against_construction(self):
        nx = pytest.importorskip("networkx")
        for g in graphs_up_to(7):
            assert match_k2p_k11p(g) == self.reference(nx, g), g

    def test_relabelled_and_near_misses_against_networkx(self):
        # Each K_{2,p} and K_{1,1,p}, p <= 40, relabelled at random, then with
        # one pair toggled, and with one edge swap that keeps every degree.
        nx = pytest.importorskip("networkx")
        rng = random.Random(25)
        found = Counter()
        for p in range(1, 41):
            for sizes, kind in (((2, p), "k2p"), ((1, 1, p), "k11p")):
                base = complete_multipartite(*sizes)
                perm = rng.sample(range(base.n), base.n)
                g = Graph.from_edges(base.n, [(perm[u], perm[v]) for u, v in base.edges()])
                want = (kind, p) if p >= (3 if kind == "k2p" else 2) else None
                assert match_k2p_k11p(g) == want == self.reference(nx, g), (sizes, perm)
                variants = [g.toggled(*rng.sample(range(g.n), 2)) for _ in range(3)]
                (a, b), (c, d) = rng.sample(g.edges(), 2)
                if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
                    variants.append(g.toggled(a, b).toggled(c, d).toggled(a, c).toggled(b, d))
                for h in variants:
                    got = match_k2p_k11p(h)
                    assert got == self.reference(nx, h), (sizes, h.edges())
                    found[got is None] += 1
        assert found[True] > found[False] > 0

    @pytest.mark.parametrize("sizes, case", [((2, 1200), "core_k2p"),
                                             ((1, 1, 1200), "core_k11p")])
    def test_large_cores_classify_under_the_default_recursion_limit(self, sizes, case):
        from indsat.classifier import classify
        assert sys.getrecursionlimit() == 1000
        assert classify(complete_multipartite(*sizes)).case == case


class TestBullP4:
    def test_examples(self):
        assert is_bull_or_p4(path_graph(4))
        assert is_bull_or_p4(bull_graph())
        assert not is_bull_or_p4(cycle_graph(5))


class Test3ConnNonClique:
    def test_examples(self):
        assert is_3conn_nonclique(complete_multipartite(3, 3))
        assert not is_3conn_nonclique(complete_graph(5))
        assert not is_3conn_nonclique(cycle_graph(5))


class TestPermutation:
    def test_p4_and_c5(self):
        w = is_permutation_graph(path_graph(4))
        assert w is not None and check_permutation_witness(path_graph(4), w)
        assert is_permutation_graph(cycle_graph(5)) is None

    def test_graphs_of_random_permutations_14_to_40(self):
        # Vertex i of the realizer is relabelled label[i]; i < j is an edge
        # exactly when pi keeps the pair in order.
        rng = random.Random(1440)
        for n in range(14, 41):
            pi = rng.sample(range(n), n)
            label = rng.sample(range(n), n)
            g = Graph.from_edges(n, [(label[i], label[j]) for i in range(n)
                                     for j in range(i + 1, n) if pi[i] < pi[j]])
            w = is_permutation_graph(g)
            assert w is not None and check_permutation_witness(g, w), n

    def test_witness_checker_rejects_bad_witnesses(self):
        p4 = path_graph(4)
        w = is_permutation_graph(p4)
        # Not a permutation of the vertices, then a pair whose order disagrees.
        for bad in (PermutationWitness(w.ordering[:-1], w.sigma[:-1]),
                    PermutationWitness(w.ordering, w.sigma[:-1] + w.sigma[:1]),
                    PermutationWitness(w.ordering, tuple(reversed(w.sigma)))):
            assert not check_permutation_witness(p4, bad), bad

    def test_long_cycles_rejected(self):
        for k in range(5, 31):
            assert is_permutation_graph(cycle_graph(k)) is None, k

    def test_up_right_windows_11_to_40(self):
        rng = random.Random(1140)
        for size in range(11, 41):
            window, _ = oracle_window(UP_RIGHT_KIND, sample_window(UP_RIGHT_KIND, size, rng))
            w = is_permutation_graph(window)
            assert w is not None and check_permutation_witness(window, w), size

    def test_witness_invariant_holds_when_found(self):
        rng = random.Random(11)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 7))
            w = is_permutation_graph(g)
            if w is not None:
                assert check_permutation_witness(g, w)

    def test_exhaustive_against_definition_n5(self):
        for g in graphs_up_to(5):
            assert (is_permutation_graph(g) is not None) == \
                naive_is_permutation_graph(g)

    def test_backtracking_oracle_against_definition_n5(self):
        for g in graphs_up_to(5):
            assert (naive_permutation_realizer(g.adj) is not None) == \
                naive_is_permutation_graph(g)

    @staticmethod
    def _agrees_with_backtracking(g):
        w = is_permutation_graph(g)
        assert (w is not None) == (naive_permutation_realizer(g.adj) is not None), g.adj
        assert w is None or check_permutation_witness(g, w), g.adj
        return w is not None

    def test_backtracking_oracle_on_every_class_n7_and_complement(self):
        # 1,252 classes on at most 7 vertices, each with its complement.
        found = sum(self._agrees_with_backtracking(x)
                    for h in graphs_up_to(7) for x in (h, complement(h)))
        assert found == 1938

    def test_backtracking_oracle_sampled_n8_n9(self):
        rng = random.Random(89)
        sample = rng.sample(graphs_on(8), 300)
        sample += [random_graph(rng, 9, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
                   for _ in range(300)]
        found = sum(self._agrees_with_backtracking(x)
                    for h in sample for x in (h, complement(h)))
        assert found == 506  # of 1,200

    def test_sampled_against_definition_n6(self):
        rng = random.Random(23)
        sample = list(rng.sample(list(graphs_on(6)), 30))
        sample.append(cycle_graph(6))
        for g in sample:
            assert (is_permutation_graph(g) is not None) == \
                naive_is_permutation_graph(g)


def _within(g, mask) -> bool:
    """Is g[mask] a permutation graph, by `_orientations`?  When it says yes,
    its T and C must be transitive orientations of g[mask] and of its
    complement, with no arc leaving the mask."""
    found = recognizers._orientations(g, mask)
    if found is None:
        return False
    inside = _bits(mask)
    for arcs, edge in zip(found, (True, False)):
        for u, v in combinations(inside, 2):
            assert (arcs[u] >> v & 1) + (arcs[v] >> u & 1) == (g.has_edge(u, v) == edge)
        for u in inside:
            assert arcs[u] & ~mask == 0
            for v in _bits(arcs[u]):
                assert arcs[v] & ~arcs[u] == 0  # u -> v -> w forces u -> w
    return True


class TestPermutationWithinMask:
    """`_orientations(g, mask)` against the recognizer on g.induced(mask's
    vertices) and against the definition."""

    def test_every_mask_of_every_class_up_to_6(self):
        # The definition is memoised by isomorphism class (min over
        # relabellings).  It takes about 24 s over the 156 six-vertex
        # classes, so a full six-vertex mask is checked against the
        # backtracking oracle, which TestPermutation checks against the definition.
        by_class = {}

        def definition(h):
            key = min(tuple(h.has_edge(p[u], p[v]) for u in range(h.n)
                            for v in range(u + 1, h.n))
                      for p in permutations(range(h.n)))
            if key not in by_class:
                by_class[key] = naive_is_permutation_graph(h)
            return by_class[key]

        found = 0
        for g in graphs_up_to(6):
            for mask in range(1 << g.n):
                h = g.induced(_bits(mask))
                got = _within(g, mask)
                assert got == (is_permutation_graph(h) is not None), (g, mask)
                assert got == (definition(h) if h.n <= 5 else
                               naive_permutation_realizer(h.adj) is not None), (g, mask)
                found += got
        assert found == 11265  # of 11,290 masks of 208 classes

    def test_random_masks_of_random_graphs_12_to_40(self):
        # Half the hosts are graphs of random permutations with a few pairs
        # toggled, so that large masks are permutation graphs too.
        rng = random.Random(1240)
        found = tried = 0
        for n in range(12, 41):
            for p in (0.15, 0.5, 0.85):
                pi = rng.sample(range(n), n)
                near = Graph.from_edges(n, [(i, j) for i in range(n)
                                            for j in range(i + 1, n) if pi[i] < pi[j]])
                for _ in range(2):
                    near = near.toggled(*rng.sample(range(n), 2))
                for g in (random_graph(rng, n, p), near):
                    for _ in range(8):
                        mask = sum(1 << v for v in rng.sample(range(n), rng.randint(0, n)))
                        got = _within(g, mask)
                        h = g.induced(_bits(mask))
                        assert got == (is_permutation_graph(h) is not None), (g, mask)
                        found += got
                        tried += 1
        assert (found, tried) == (829, 1392)


class TestCloseToPermutation:
    def test_permutation_graph_returns_none(self):
        assert close_to_permutation(path_graph(4)) is None

    def test_c5(self):
        got = close_to_permutation(cycle_graph(5))
        assert got is not None
        edge, nonedge = got
        c5 = cycle_graph(5)
        assert c5.has_edge(*edge) and not c5.has_edge(*nonedge)
        assert is_permutation_graph(c5.toggled(*edge)) is not None
        assert is_permutation_graph(c5.toggled(*nonedge)) is not None

    def test_k33_minus_perfect_matching(self):
        g = complete_multipartite(3, 3)
        for i in range(3):
            g = g.toggled(i, 3 + i)
        got = close_to_permutation(g)
        # Either outcome is allowed; verify internal consistency.
        if got is not None:
            edge, nonedge = got
            assert is_permutation_graph(g) is None
            assert is_permutation_graph(g.toggled(*edge)) is not None
            assert is_permutation_graph(g.toggled(*nonedge)) is not None

    def test_witnesses_consistent_exhaustive_n6(self):
        for g in graphs_up_to(6):
            got = close_to_permutation(g)
            if got is not None:
                edge, nonedge = got
                assert is_permutation_graph(g) is None
                assert is_permutation_graph(g.toggled(*edge)) is not None
                assert is_permutation_graph(g.toggled(*nonedge)) is not None

    def test_equals_full_scan_exhaustive_n7(self):
        # Every class on at most 7 vertices and its complement (2,504 graphs):
        # the obstruction-local search returns what a scan of every pair does.
        found = 0
        for h in graphs_up_to(7):
            for g in (h, complement(h)):
                got = close_to_permutation(g)
                assert got == naive_close_to_permutation(
                    g, lambda x: is_permutation_graph(x) is not None), g
                found += got is not None
        assert found == 526

    def test_toggles_stay_inside_the_obstruction(self, monkeypatch):
        # C5 on vertices 3..7 with 0, 1 and 2 attached to it.  The breadth-
        # first chain from 0->3 to an arc and its reverse passes through
        # 0, 3, 4, 5, 6 and 7, and every toggle tried has both ends there.
        edges = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3), (0, 3), (1, 3), (1, 4),
                 (2, 5)]
        g = Graph.from_edges(8, edges)
        chain = 0b11111001
        assert recognizers._gamma_chain(g.adj) == chain
        # Before recording: the reference runs the recognizer too.
        expected = naive_close_to_permutation(
            g, lambda x: is_permutation_graph(x) is not None)
        tried = []
        real = recognizers._orientations

        def recording(x, mask):
            tried.append((x, mask))
            return real(x, mask)

        monkeypatch.setattr(recognizers, "_orientations", recording)
        got = close_to_permutation(g)
        assert got == expected == ((3, 7), (5, 7))
        # g itself is tested whole, once; every other test is a toggle of
        # the whole graph with both ends in the chain.
        assert [mask for x, mask in tried if x == g] == [0b11111111]
        toggles = [[v for v in range(8) if x.adj[v] != g.adj[v]]
                   for x, mask in tried if x != g and mask == 0b11111111]
        assert len(toggles) == len(tried) - 1
        assert toggles and all(chain >> u & 1 and chain >> v & 1 for u, v in toggles)

    @staticmethod
    def _counting(monkeypatch):
        calls = [0]
        real = recognizers._orientations

        def counting(x, mask):
            calls[0] += 1
            return real(x, mask)

        monkeypatch.setattr(recognizers, "_orientations", counting)
        return calls

    def test_long_cycle_is_decided_by_its_chain(self, monkeypatch):
        # The chain of C64 is all of C64, a chordless cycle on 64 >= 7
        # vertices: no non-edge can fix it, so nothing is scanned.
        calls = self._counting(monkeypatch)
        assert close_to_permutation(cycle_graph(64)) is None
        assert calls == [1]

    def test_chain_on_a_32_vertex_tree_is_short(self, monkeypatch):
        # A tree is a comparability graph, so the chain is in its complement.
        # Breadth-first it has 8 vertices and the scan tests 7 toggles; a
        # depth-first chain here has 29 vertices and the scan 28 toggles.
        g = random_tree(random.Random(0), 32)
        calls = self._counting(monkeypatch)
        assert close_to_permutation(g) is None
        assert calls == [8]

    def test_chain_is_an_obstruction_on_every_stream_class(self):
        # G[S'] is no permutation graph, by the backtracking oracle, for each
        # of the 6,930 stream classes that are not permutation graphs.  The
        # oracle runs once per distinct adjacency of G[S'].
        lines, _ = stream.load()
        obstructions = Counter()
        for line in lines:
            g = parse_graph6(line)
            full = (1 << g.n) - 1
            if recognizers._orientations(g, full) is not None:
                continue
            mask = recognizers._gamma_chain(g.adj)
            if mask is None:
                mask = recognizers._gamma_chain(
                    [(row ^ full) & ~(1 << v) for v, row in enumerate(g.adj)])
            obstructions[tuple(g.induced(_bits(mask)).adj)] += 1
        assert sum(obstructions.values()) == 6930
        for rows in obstructions:
            assert naive_permutation_realizer(list(rows)) is None, rows

    def test_matches_the_naive_scan_above_8_vertices(self):
        # Seeded G(n, p), random trees, and graphs of random permutations
        # with one and then two pairs toggled; 6 of the 56 have a witness.
        rng = random.Random(1240)
        graphs = [random_graph(rng, n, p) for n in range(12, 41, 4) for p in (0.1, 0.5, 0.9)]
        graphs += [random_tree(rng, n) for n in range(10, 41, 2)]
        for n in range(12, 41, 4):
            pi = rng.sample(range(n), n)
            near = Graph.from_edges(n, [(i, j) for i in range(n)
                                        for j in range(i + 1, n) if pi[i] < pi[j]])
            for _ in range(2):
                near = near.toggled(*rng.sample(range(n), 2))
                graphs.append(near)
        found = 0
        for g in graphs:
            got = close_to_permutation(g)
            assert got == naive_close_to_permutation(
                g, lambda x: is_permutation_graph(x) is not None), g.adj
            found += got is not None
        assert (found, len(graphs)) == (6, 56)

    def test_cycles_match_the_naive_scan(self):
        # C_k, C_k with a pendant and C_k with three isolated vertices.  A
        # chord of C_k, k >= 7, leaves an induced cycle on 5 or more
        # vertices, so no fix exists; C5 and C6 have one.
        for k in range(5, 13):
            ring = [(i, (i + 1) % k) for i in range(k)]
            for g in (cycle_graph(k), Graph.from_edges(k + 1, ring + [(0, k)]),
                      Graph.from_edges(k + 3, ring)):
                got = close_to_permutation(g)
                assert got == naive_close_to_permutation(
                    g, lambda x: is_permutation_graph(x) is not None), (k, g)
                assert (got is None) == (k >= 7), (k, g)

    def test_witness_pin_on_stream_close_to_permutation_classes(self):
        """Pinned witnesses of every 4th stream class lettered `g` (509 of the
        2,033 classes, all uncomplemented).

        Recipe: for each picked line in stream order, feed the sha256
        `json.dumps([line, list(edge), list(nonedge)])` plus a newline, where
        (edge, nonedge) = close_to_permutation(parse_graph6(line)).  The value
        was computed with the scan over every edge and every non-edge, before
        the search was confined to an obstruction."""
        lines, _ = stream.load()
        reference = gates.load_reference(len(lines))
        picked = [line for line, letter in zip(lines, reference) if letter == "g"][::4]
        digest = hashlib.sha256()
        for line in picked:
            edge, nonedge = close_to_permutation(parse_graph6(line))
            digest.update(json.dumps([line, list(edge), list(nonedge)]).encode() + b"\n")
        assert len(picked) == 509
        assert digest.hexdigest() == \
            "54924953d3d4f929b841a60cc460f9feb6ade8e1cb94a3f004ee6b857b8ccc4b"
