import json
import random
from itertools import combinations, combinations_with_replacement

import pytest

from indsat.classifier import (CLOSE_TO_PERMUTATION, CORE_11_BULL_P4, CORE_3CONN,
                               CORE_GATEKEEPER, CORE_K2P, CORE_K11P,
                               FOREST_UNIQUE_MAX, NOT_APPLICABLE_TRIVIAL,
                               SPECIAL_RATIONAL_GEOMETRIC, SPECIAL_Z3,
                               UNCLASSIFIED, classify, replay_certificate,
                               special_table, sweep)
from indsat.graphs import (Graph, bull_graph, complement, complete_graph,
                           complete_multipartite, cycle_graph, emit_graph6,
                           parse_graph6, path_graph)
from gensmall import graphs_up_to
from oracles_naive import naive_has_3conn_subset, random_graph


class TestClassifyExamples:
    def test_p4(self):
        cert = classify(path_graph(4))
        assert cert.case == CORE_11_BULL_P4 and not cert.complemented
        assert cert.witness["shape"] == "p4"

    def test_k5(self):
        assert classify(complete_graph(5)).case == NOT_APPLICABLE_TRIVIAL

    def test_k2_degenerate_note(self):
        cert = classify(path_graph(2))
        assert cert.case == NOT_APPLICABLE_TRIVIAL
        assert cert.witness.get("degenerate") is True

    def test_specials(self):
        assert classify(parse_graph6("E?qw")).case == SPECIAL_RATIONAL_GEOMETRIC
        assert classify(parse_graph6("F?q~w")).case == SPECIAL_Z3
        both = classify(complement(parse_graph6("F?q~w")))
        assert both.case == SPECIAL_Z3 and both.complemented

    def test_zero_vertices_rejected(self):
        from indsat.graphs import empty_graph
        with pytest.raises(ValueError):
            classify(empty_graph(0))

    def test_icosahedron_complement_hits_3conn(self):
        from indsat.graphs import icosahedron_complement
        cert = classify(icosahedron_complement())
        assert cert.case == CORE_3CONN


class TestSpecialTable:
    def test_matches(self):
        assert special_table(parse_graph6("F?S|w"))[1] == SPECIAL_RATIONAL_GEOMETRIC
        key, case, complemented = special_table(complement(parse_graph6("F?q~w")))
        assert case == SPECIAL_Z3 and complemented
        assert special_table(cycle_graph(5)) is None

    def test_alternate_spellings_are_complements(self):
        from indsat.graphs import is_isomorphic
        assert is_isomorphic(parse_graph6("F?q|w"), complement(parse_graph6("F?rLw")))


class TestComplementStability:
    def test_stability_across_complements(self):
        """Classifiability is complement-stable.  When exactly one orientation
        carries a case the flags swap strictly; a case-name mismatch can only
        happen when both orientations hit independently (both flags False)."""
        for g in graphs_up_to(6):
            c1 = classify(g)
            c2 = classify(complement(g))
            assert (c1.case == UNCLASSIFIED) == (c2.case == UNCLASSIFIED)
            if c1.case != c2.case:
                assert (c1.complemented, c2.complemented) == (False, False)
            else:
                assert (c1.complemented, c2.complemented) in (
                    (False, True), (True, False), (False, False))


class TestCertificateReplay:
    def test_replay_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]))
            cert = classify(g)
            assert replay_certificate(cert), (cert.input, cert.case)

    def test_replay_known(self):
        for g in (path_graph(4), cycle_graph(5), bull_graph(),
                  parse_graph6("E?qw"), complete_multipartite(2, 4)):
            assert replay_certificate(classify(g))

    def test_certificate_json_shape(self):
        payload = classify(cycle_graph(5)).to_json()
        assert set(payload) == {"input", "case", "complemented", "witness", "timings"}
        json.dumps(payload)  # serializable


class TestOrderIndependence:
    def test_some_case_fires_regardless_of_order(self):
        """Classified graphs have at least one independently firing check, so
        reordering the checks can only change the label, never classifiedness."""
        from indsat import cores
        from indsat.gatekeeper import has_fixing_operation
        from indsat.recognizers import (close_to_permutation, forest_unique_max,
                                        is_bull_or_p4, is_3conn_nonclique,
                                        match_k2p_k11p)

        def firing_cases(target):
            fired = set()
            if forest_unique_max(target) is not None:
                fired.add(FOREST_UNIQUE_MAX)
            c2 = cores.core(target, cores.TWO)
            match = match_k2p_k11p(c2.graph)
            if match and match[0] == "k2p" and match[1] >= 3:
                fired.add(CORE_K2P)
            if match and match[0] == "k11p" and match[1] >= 2:
                fired.add(CORE_K11P)
            if is_3conn_nonclique(cores.core(target, cores.THREE).graph) or \
                    is_3conn_nonclique(cores.core(target, cores.THREE_STAR).graph):
                fired.add(CORE_3CONN)
            if is_bull_or_p4(cores.core(target, cores.ONE_ONE).graph):
                fired.add(CORE_11_BULL_P4)
            if close_to_permutation(target) is not None:
                fired.add(CLOSE_TO_PERMUTATION)
            for kind in ("two", "three", "two_edge", "two_nonedge"):
                ck = cores.core(target, cores.named_core(kind))
                if has_fixing_operation(ck.graph).both():
                    fired.add(CORE_GATEKEEPER)
                    break
            return fired

        rng = random.Random(5)
        sample = rng.sample(list(graphs_up_to(6)), 60)
        for g in sample:
            cert = classify(g)
            if cert.case in (NOT_APPLICABLE_TRIVIAL, SPECIAL_RATIONAL_GEOMETRIC,
                             SPECIAL_Z3, UNCLASSIFIED):
                continue
            fired = firing_cases(complement(g) if cert.complemented else g)
            assert cert.case in fired
            assert fired


class TestLargeGraphs:
    def test_random_graphs_of_order_12_to_16_all_classify(self):
        # At 12+ vertices one of the first four cases must hit for the graph
        # or its complement; theorem_violation is expected never.
        from indsat.classifier import THEOREM_VIOLATION
        rng = random.Random(1212)
        for _ in range(150):
            n = rng.randint(12, 16)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]))
            cert = classify(g)
            assert cert.case not in (THEOREM_VIOLATION, UNCLASSIFIED), cert.input

    def test_sparse_and_dense_structured_inputs(self):
        big_star = complete_multipartite(1, 30)
        assert classify(big_star).case == FOREST_UNIQUE_MAX
        k2p_big = complete_multipartite(2, 40)
        assert classify(k2p_big).case == CORE_K2P
        assert classify(complement(k2p_big)).case == CORE_K2P
        wheelish = complete_multipartite(3, 3, 3, 3)
        assert classify(wheelish).case == CORE_3CONN

    def test_vertex_cap_inputs(self):
        rng = random.Random(4096)
        g = random_graph(rng, 64, 0.5)
        cert = classify(g)
        assert cert.case not in (UNCLASSIFIED, "theorem_violation")
        assert replay_certificate(cert)
        assert classify(complete_multipartite(2, 62)).witness["p"] == 62
        assert classify(complete_multipartite(1, 63)).case == FOREST_UNIQUE_MAX


class TestSweep:
    def test_small_stream(self):
        lines = [emit_graph6(complete_graph(4))] * 5
        report = sweep(lines, n_max=8)
        assert report.totals == {NOT_APPLICABLE_TRIVIAL: 5}
        assert report.ok()

    def test_malformed_lines_reported_with_numbers(self):
        lines = ["Dr[", "garbage{{{", "", "E?qw"]
        report = sweep(lines, n_max=8)
        assert report.graphs_processed == 2
        assert len(report.errors) == 1 and report.errors[0][0] == 2

    def test_nmax_violations_reported(self):
        lines = [emit_graph6(complete_graph(9))]
        report = sweep(lines, n_max=8)
        assert report.graphs_processed == 0
        assert "exceeds nmax" in report.errors[0][1]

    def test_worker_independence_small(self):
        lines = [emit_graph6(g) for g in graphs_up_to(6)]
        rep1 = sweep(lines, n_max=6, workers=1)
        rep2 = sweep(lines, n_max=6, workers=2)
        assert rep1.to_json() == rep2.to_json()
        assert rep1.ok()

    def test_line_order_invariance(self):
        lines = [emit_graph6(g) for g in graphs_up_to(5)]
        rev = list(reversed(lines))
        assert sweep(lines, n_max=5).totals == sweep(rev, n_max=5).totals


class TestStructure12Pieces:
    def test_slice_9_3(self):
        """The |A| = 9 slice always finds K_{3,3} outright: three missed
        pairs cover at most 6 of 9 vertices."""
        from indsat.classifier import _bipartite_graph
        pairs = list(combinations(range(9), 2))
        rng = random.Random(31)
        for _ in range(200):
            missed = [rng.choice(pairs) for _ in range(3)]
            union = set()
            for p in missed:
                union.update(p)
            assert 9 - len(union) >= 3

    def test_disjoint_missed_pairs_contain_3connected(self):
        from indsat.classifier import _bipartite_graph, _has_3conn_subset
        g = _bipartite_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert _has_3conn_subset(g)

    def test_bipartite_builder(self):
        from indsat.classifier import _bipartite_graph
        g = _bipartite_graph(5, [(0, 1)])
        assert g.n == 6 and g.degree(5) == 3
        assert not g.has_edge(0, 5) and not g.has_edge(1, 5)


def _two_cliques_sharing_an_edge(size):
    """K_size on 0..size-1 and K_size on {0, 1, size..2*size-3}."""
    second = [0, 1] + list(range(size, 2 * size - 2))
    return Graph.from_edges(2 * size - 2, set(combinations(range(size), 2))
                            | set(combinations(second, 2)))


class TestHas3ConnSubset:
    """The 3-core search against the exhaustive subset search.  structure12
    never reaches the separator branch (each 3-core there is 3-connected),
    so these cases are that branch's only coverage."""

    def test_hand_made(self):
        from indsat.classifier import _has_3conn_subset
        # C6 peels to nothing; two K4 sharing an edge split at that edge
        # into two 4-vertex pieces; two K5 sharing an edge split into K5s.
        for g, expected in ((cycle_graph(6), False),
                            (_two_cliques_sharing_an_edge(4), False),
                            (_two_cliques_sharing_an_edge(5), True),
                            (complete_multipartite(3, 3), True)):
            assert _has_3conn_subset(g) == expected == naive_has_3conn_subset(g)

    def test_structure12_sample_vs_naive(self):
        from indsat.classifier import _bipartite_graph, _has_3conn_subset
        configurations = []
        for a_size in range(9, 4, -1):
            pairs = list(combinations(range(a_size), 2))
            for missed in combinations_with_replacement(pairs, 12 - a_size):
                # Only configurations without a K_{3,3} shortcut are searched.
                if all(a_size - len(set(x) | set(y) | set(z)) < 3
                       for x, y, z in combinations(missed, 3)):
                    configurations.append((a_size, missed))
        assert len(configurations) == 6465
        for a_size, missed in random.Random(12).sample(configurations, 300):
            g = _bipartite_graph(a_size, missed)
            assert _has_3conn_subset(g) == naive_has_3conn_subset(g), (a_size, missed)

    def test_random_graphs_vs_naive(self):
        from indsat.classifier import _has_3conn_subset
        rng = random.Random(3)
        for n in range(1, 11):
            for density in (0.3, 0.5, 0.7, 0.9):
                for _ in range(8):
                    g = random_graph(rng, n, density)
                    assert _has_3conn_subset(g) == naive_has_3conn_subset(g), \
                        emit_graph6(g)
