import dataclasses
import json
import os
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from indsat import classifier, graphs
from indsat.classifier import (CLOSE_TO_PERMUTATION, CORE_11_BULL_P4, CORE_3CONN,
                               CORE_GATEKEEPER, CORE_K2P, CORE_K11P,
                               FOREST_UNIQUE_MAX, NOT_APPLICABLE_TRIVIAL,
                               SPECIAL_RATIONAL_GEOMETRIC, SPECIAL_Z3,
                               THEOREM_VIOLATION, UNCLASSIFIED, Certificate,
                               classify, replay_certificate, special_table, sweep)
from indsat.graphs import (Graph, bull_graph, complement, complete_graph,
                           complete_multipartite, cycle_graph, emit_graph6,
                           find_induced, parse_graph6, path_graph)
import certdigest
import gates
import stream
from gensmall import graphs_on, graphs_up_to
from oracles_naive import (naive_classify, naive_has_3conn_subset, naive_shortcut_free,
                           random_graph)


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


class TestLabelInvariance:
    def test_every_tenth_stream_class_relabelled(self):
        # Case and orientation depend only on the isomorphism class.  Witnesses
        # name vertices, so they are not compared.
        rng = random.Random(5)
        lines, _ = stream.load()
        for line in lines[::10]:
            g = parse_graph6(line)
            perm = list(range(g.n))
            rng.shuffle(perm)
            own = classify(g)
            cert = classify(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
            assert (cert.case, cert.complemented) == (own.case, own.complemented), (line, perm)


class TestSpecialTable:
    def test_matches(self):
        assert special_table(parse_graph6("F?S|w"))[1] == SPECIAL_RATIONAL_GEOMETRIC
        # The table answers for the graph itself; the walk over the complement
        # matches the complements.
        assert special_table(complement(parse_graph6("F?q~w"))) is None
        assert special_table(parse_graph6("F?q~w")) == ("F?q~w", SPECIAL_Z3)
        assert special_table(cycle_graph(5)) is None

    def test_alternate_spellings_are_complements(self):
        from indsat.graphs import is_isomorphic
        assert is_isomorphic(parse_graph6("F?q|w"), complement(parse_graph6("F?rLw")))
        # So the F?rLw row, reached on the complement, matches F?q|w: the table
        # needs no row for it.
        assert special_table(parse_graph6("F?q|w")) is None
        assert special_table(complement(parse_graph6("F?q|w"))) == (
            "F?rLw", SPECIAL_RATIONAL_GEOMETRIC)
        cert = classify(parse_graph6("F?q|w"))
        assert (cert.case, cert.complemented, cert.witness) == (
            SPECIAL_RATIONAL_GEOMETRIC, True, {"table_key": "F?rLw"})

    def test_table_holds_no_complement(self):
        from indsat.graphs import is_isomorphic
        stored = [base for _, _, base in classifier._SPECIAL_GRAPHS]
        assert not any(is_isomorphic(a, complement(b)) for a in stored for b in stored)

    def test_special_row_is_the_only_row_that_fires(self):
        # The special row ends each orientation's walk instead of following
        # both walks.  That keeps every certificate only because no earlier row
        # fires on either orientation of a special graph.
        for key, case, base in classifier._SPECIAL_GRAPHS:
            for complemented, target in ((False, base), (True, complement(base))):
                assert classifier._first_case(target, classifier.STEPS[:-1]) is None, key
                cert = classify(target)
                assert (cert.case, cert.complemented, cert.witness) == (
                    case, complemented, {"table_key": key}), key

    def test_first_row_decides_every_trivial_class(self):
        from indsat.recognizers import TRIVIAL_NONE, classify_trivial
        trivial = 0
        for g in graphs_up_to(8):
            hit = classifier._first_case(g, classifier.STEPS[:1])
            if classify_trivial(g) == TRIVIAL_NONE:
                assert hit is None, emit_graph6(g)
                continue
            trivial += 1
            cert = classify(g)
            assert cert.case == NOT_APPLICABLE_TRIVIAL and not cert.complemented
            assert hit == (cert.case, cert.witness)
        assert trivial == 15  # K_n and its complement for n = 2..8, and K_1


class TestNaiveClassify:
    """`classify` against `oracles_naive.naive_classify`, which builds the
    pipeline from definitions (largest rule-free cores, networkx, the naive
    recognizers and gatekeeper) and imports no pipeline code.  Case and
    orientation only: witnesses depend on search order."""

    def test_every_class_up_to_7(self):
        tally = Counter()
        for g in graphs_up_to(7):
            got = naive_classify(g)
            cert = classify(g)
            assert (cert.case, cert.complemented) == got, cert.input
            tally[got] += 1
        # Every case and both orientations of most are exercised.
        assert tally == {
            (CLOSE_TO_PERMUTATION, False): 180, (CORE_11_BULL_P4, False): 16,
            (CORE_3CONN, False): 412, (CORE_3CONN, True): 170,
            (CORE_GATEKEEPER, False): 239, (CORE_GATEKEEPER, True): 42,
            (CORE_K11P, False): 67, (CORE_K11P, True): 22, (CORE_K2P, False): 20,
            (CORE_K2P, True): 11, (FOREST_UNIQUE_MAX, False): 40,
            (FOREST_UNIQUE_MAX, True): 12, (NOT_APPLICABLE_TRIVIAL, False): 13,
            (SPECIAL_RATIONAL_GEOMETRIC, False): 3, (SPECIAL_RATIONAL_GEOMETRIC, True): 3,
            (SPECIAL_Z3, False): 1, (SPECIAL_Z3, True): 1}

    def test_classes_on_8(self):
        # Every 20th stream class (618 graphs, about 11 s); all 12,346 with
        # INDSAT_STRETCH=1 (about 130 s on 2 CPUs).
        step = 1 if os.environ.get("INDSAT_STRETCH") == "1" else 20
        for g in graphs_on(8)[::step]:
            cert = classify(g)
            assert (cert.case, cert.complemented) == naive_classify(g), cert.input


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

    def test_replay_every_tenth_stream_class(self):
        # Every 10th of the 13,598 pinned classes on <= 8 vertices, and every
        # class whose case letter occurs fewer than 20 times (1,410 in all):
        # each certificate names the case of the benchmark's per-graph
        # reference, and replays.  Together they hold every letter.
        lines, _ = stream.load()
        reference = gates.load_reference(len(lines))
        counts = Counter(reference)
        picked = [(line, letter) for i, (line, letter) in enumerate(zip(lines, reference))
                  if i % 10 == 0 or counts[letter] < 20]
        for line, letter in picked:
            cert = classify(parse_graph6(line))
            assert gates.case_letter(cert.case, cert.complemented) == letter, line
            assert replay_certificate(cert), line
        assert len(counts) == 17 and {letter for _, letter in picked} == set(counts)

    def test_certificate_digest_of_the_stream_is_pinned(self):
        # Every certificate of the 13,598 classes on <= 8 vertices, byte for
        # byte without timings (recipe in tests/certdigest.py).
        lines, _ = stream.load()
        assert certdigest.certificate_digest(lines) == \
            "85842c256565eeac0b6d1911fdf9f6ab6f30010c1f54c51d250a40c6a2018ea8"

    def test_certificate_digest_above_8_vertices_is_pinned(self):
        # 177 seeded graphs on 9 to 40 vertices (certdigest.large_lines):
        # cycles, paths, C5 with isolated vertices and G(n, p).  Search
        # orders and vertex masks can matter there and not in the stream.
        assert certdigest.certificate_digest(certdigest.large_lines()) == \
            "e8443b565b8bb35e0bd5ca0b1ae00b29d741296f1ec312d3df9206c946a38eb5"

    def test_gatekeeper_work_counts(self, monkeypatch):
        # Every 10th stream class.  The gatekeeper search runs at most once
        # per distinct core graph in each orientation (per `_first_case` walk).
        # find_induced plans its search orders through one memo keyed by
        # (pattern rows, anchored vertices), so each distinct key that gets
        # past its fast exits is planned exactly once.  Searching every core
        # would make 827 gatekeeper searches.
        from indsat import gatekeeper
        searched = []  # per orientation, the core graphs searched
        fragments_built = []
        keys, planned = set(), []  # keys that reach a search, keys planned
        real_first_case, real_search = classifier._first_case, classifier.has_fixing_operation
        real_fragments = gatekeeper._fragments
        real_find, real_order = graphs.find_induced, graphs.search_order

        def first_case(target):
            searched.append([])
            return real_first_case(target)

        def search(core_graph):
            searched[-1].append(core_graph)
            return real_search(core_graph)

        def fragments(h):
            out = real_fragments(h)
            fragments_built.append(sum(map(len, out.values())))
            return out

        def find(host, pattern, anchors=None):
            if 0 < pattern.n <= host.n and (pattern.n < host.n or
                                            pattern.degree_sequence() == host.degree_sequence()):
                keys.add((pattern.adj, tuple(sorted(anchors or ()))))
            return real_find(host, pattern, anchors)

        def order(pattern, anchored):
            planned.append((pattern.adj, tuple(anchored)))
            return real_order(pattern, anchored)

        monkeypatch.setattr(classifier, "_first_case", first_case)
        monkeypatch.setattr(classifier, "has_fixing_operation", search)
        monkeypatch.setattr(gatekeeper, "_fragments", fragments)
        monkeypatch.setattr(graphs, "find_induced", find)
        monkeypatch.setattr(graphs, "search_order", order)
        graphs._order.cache_clear()
        lines, _ = stream.load()
        for line in lines[::10]:
            classify(parse_graph6(line))
        assert all(len(set(graphs_)) == len(graphs_) for graphs_ in searched)
        assert (sum(map(len, searched)), sum(fragments_built)) == (561, 1546)
        assert sorted(planned) == sorted(keys)

    # One graph per core case: k2p, k11p (with a non-empty trace), 3-conn,
    # (1,1)-core P4 and gatekeeper.
    CORE_CASES = {"D]o": CORE_K2P, "E?zw": CORE_K11P, "Es\\o": CORE_3CONN,
                  "Ch": CORE_11_BULL_P4, "Dr[": CORE_GATEKEEPER}
    FAKE_REMOVAL = {"vertices": [0], "attachment": {"0": []},
                    "internal_edge": False, "rule": "degree"}

    @staticmethod
    def tampered(cert, **changes):
        return dataclasses.replace(cert, witness={**cert.witness, **changes})

    @pytest.mark.parametrize("g6", sorted(CORE_CASES))
    def test_tampered_core_witness_rejected(self, g6):
        cert = classify(parse_graph6(g6))
        assert cert.case == self.CORE_CASES[g6] and replay_certificate(cert)
        trace = [] if cert.witness["trace"] else [self.FAKE_REMOVAL]
        assert not replay_certificate(self.tampered(cert, trace=trace))
        assert not replay_certificate(self.tampered(cert, core_vertices=[99]))
        vertices = cert.witness["core_vertices"]
        assert not replay_certificate(self.tampered(cert, core_vertices=vertices[::-1]))

    def test_tampered_shape_rejected(self):
        cert = classify(path_graph(4))
        assert not replay_certificate(self.tampered(cert, shape="bull"))
        cert = classify(bull_graph())
        assert cert.case == CORE_11_BULL_P4 and replay_certificate(cert)
        assert not replay_certificate(self.tampered(cert, shape="p4"))

    def test_tampered_blowup_modes_rejected(self):
        cert = classify(parse_graph6("Dr["))
        edge_mode, nonedge_mode = cert.witness["edge_mode"], cert.witness["nonedge_mode"]
        assert edge_mode != nonedge_mode
        assert not replay_certificate(self.tampered(cert, edge_mode=nonedge_mode))
        assert not replay_certificate(self.tampered(cert, nonedge_mode=edge_mode))
        assert not replay_certificate(self.tampered(cert, edge_mode=nonedge_mode,
                                                    nonedge_mode=edge_mode))

    def test_tampered_fallthrough_cases_rejected(self):
        # P4 lands in core_11_bull_p4, and a 12-cycle has a structural case.
        assert not replay_certificate(Certificate("Ch", UNCLASSIFIED, False, {}))
        note = {"note": "no structural case fired on either orientation"}
        c12 = emit_graph6(cycle_graph(12))
        assert not replay_certificate(Certificate(c12, THEOREM_VIOLATION, False, note))

    def test_tampered_degenerate_flag_rejected(self):
        # classify marks only graphs on at most two vertices as degenerate.
        cert = classify(parse_graph6("D~{"))
        assert cert.case == NOT_APPLICABLE_TRIVIAL and replay_certificate(cert)
        assert not replay_certificate(self.tampered(cert, degenerate=True))

    def test_tampered_special_orientation_rejected(self):
        cert = classify(parse_graph6("F?q|w"))
        assert cert.case == SPECIAL_RATIONAL_GEOMETRIC and cert.complemented
        assert replay_certificate(cert)
        assert not replay_certificate(dataclasses.replace(cert, complemented=False))

    def test_valid_but_not_first_witness_rejected(self):
        # Deleting (0, 3) from DUW also leaves a permutation graph, but the
        # recognizer reports (0, 2) first; only the first witness replays.
        cert = classify(parse_graph6("DUW"))
        assert cert.case == CLOSE_TO_PERMUTATION and cert.witness["delete_edge"] == [0, 2]
        assert replay_certificate(cert)
        assert not replay_certificate(self.tampered(cert, delete_edge=[0, 3]))

    def test_certificate_json_shape(self):
        payload = classify(cycle_graph(5)).to_json()
        assert set(payload) == {"input", "case", "complemented", "witness", "timings"}
        json.dumps(payload)  # serializable


class TestOrderIndependence:
    def test_some_case_fires_regardless_of_order(self):
        """Classified graphs have at least one independently firing check, so
        reordering the checks can only change the label, never classifiedness."""
        def firing_cases(target):
            # Every step of the table on its own, not stopping at a hit.
            hits = (classifier._first_case(target, (step,)) for step in classifier.STEPS)
            return {hit[0] for hit in hits if hit}

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


class TestSteps:
    # The five steps after the trivial test hold the paper's first four cases:
    # forest, K_{2,p}/K_{1,1,p}, 3-core or 3*-core, and bull/P4 (1,1)-core.
    FOUR_CASES = classifier.STEPS[1:6]

    def four_cases_fire(self, g):
        return any(classifier._first_case(target, self.FOUR_CASES)
                   for target in (g, complement(g)))

    def test_first_four_cases_at_12_to_40_vertices(self):
        # The paper puts every non-trivial graph on at least 12 vertices, or
        # its complement, in one of the first four cases.
        from indsat.recognizers import TRIVIAL_NONE, classify_trivial
        assert [check for _, check in self.FOUR_CASES] == [
            classifier._forest, classifier._k2p_k11p, classifier._3conn,
            classifier._3conn, classifier._bull_p4]
        rng = random.Random(12)
        c5 = [(i, (i + 1) % 5) for i in range(5)]
        graphs = []
        for n in range(12, 41):
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, 5)))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            graphs += [cycle_graph(n), path_graph(n), Graph.from_edges(n, c5),
                       complete_multipartite(*parts)]
            graphs += [random_graph(rng, n, p) for p in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)]
        graphs = [g for g in graphs if classify_trivial(g) == TRIVIAL_NONE]
        assert len(graphs) == 319
        for g in graphs:
            assert self.four_cases_fire(g), emit_graph6(g)

    def test_first_four_cases_miss_on_an_8_vertex_class(self):
        # Below 12 vertices the four cases need not fire: G?Bczk, the first of
        # the 155 such classes on 8 vertices, is certified by a later step.
        g = parse_graph6("G?Bczk")
        assert not self.four_cases_fire(g)
        assert classify(g).case == CLOSE_TO_PERMUTATION

    def test_checks_look_up_layer_functions_when_they_run(self, monkeypatch):
        # A tracer rebinds these module globals; a check holding the function
        # objects it saw at import would go round the rebinding.
        from indsat import cores
        calls = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        names = ("classify_trivial", "is_3conn_nonclique", "close_to_permutation",
                 "has_fixing_operation", "special_table")
        for name in names:
            counted(classifier, name)
        counted(cores, "core")
        inputs = [parse_graph6(g6) for g6 in ("Es\\o", "Dhc", "Dr[", "E?qw")] + [complete_graph(4)]
        assert [classify(g).case for g in inputs] == [
            CORE_3CONN, CLOSE_TO_PERMUTATION, CORE_GATEKEEPER, SPECIAL_RATIONAL_GEOMETRIC,
            NOT_APPLICABLE_TRIVIAL]
        assert set(calls) == {*names, "core"}
        assert all(count > 0 for count in calls.values())


class TestLargeGraphs:
    def test_random_graphs_of_order_12_to_16_all_classify(self):
        # At 12+ vertices the paper has one of the first four cases hit for
        # the graph or its complement.  This checks only the weaker claim that
        # some case or special graph matches (no theorem_violation).
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

    @pytest.mark.parametrize("n", [13, 14, 20, 40])
    def test_c5_plus_isolated_vertices_is_close_to_permutation(self, n):
        # No vertex count skips the close-to-permutation check.
        cert = classify(Graph.from_edges(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        assert (cert.case, cert.complemented) == (CLOSE_TO_PERMUTATION, False)
        assert cert.witness == {"delete_edge": [0, 1], "add_nonedge": [0, 2]}
        assert replay_certificate(cert)

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
        lines = ["Dr[", "garbage{{{", "", "E?qw", "\u00e9"]
        report = sweep(lines, n_max=8)
        assert report.graphs_processed == 2
        assert [lineno for lineno, _ in report.errors] == [2, 5]

    def test_nmax_violations_reported(self):
        lines = [emit_graph6(complete_graph(9))]
        report = sweep(lines, n_max=8)
        assert report.graphs_processed == 0
        assert "exceeds nmax" in report.errors[0][1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_vertex_line_reported_and_sweep_continues(self, workers):
        report = sweep(["?", "A_"], n_max=8, workers=workers)
        assert report.errors == [(1, "graph on 0 vertices")]
        assert report.graphs_processed == 1 and report.ok()

    def test_worker_independence_small(self):
        lines = [emit_graph6(g) for g in graphs_up_to(6)]
        rep1 = sweep(lines, n_max=6, workers=1)
        rep2 = sweep(lines, n_max=6, workers=2)
        assert rep1.to_json() == rep2.to_json()
        assert rep1.ok()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_1_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            sweep(["Dr["], n_max=8, workers=workers)

    def test_line_order_invariance(self):
        lines = [emit_graph6(g) for g in graphs_up_to(5)]
        rev = list(reversed(lines))
        assert sweep(lines, n_max=5).totals == sweep(rev, n_max=5).totals

    def test_worker_case_with_the_shared_table_is_the_classify_case(self, monkeypatch):
        # Every 7th stream class (1,943 graphs), swept at one worker with one
        # table of check outcomes for the whole call; classify afterwards starts
        # afresh.  The certificates built in the sweep are those of lone calls.
        lines = stream.load()[0][::7]
        seen, swept = [], []
        worker, real = classifier._sweep_line, classifier.classify
        monkeypatch.setattr(classifier, "_sweep_line", lambda job: seen.append(worker(job)) or seen[-1])
        monkeypatch.setattr(classifier, "classify", lambda g: swept.append(real(g)) or swept[-1])
        report = sweep(lines, n_max=8)
        assert classifier._sweep_outcomes is None and report.ok()
        assert len(seen) == len(swept) == len(lines)
        for (lineno, status, case, payload), cert in zip(seen, swept):
            assert (status, payload) == ("ok", "")
            alone = real(parse_graph6(lines[lineno - 1]))
            assert case == alone.case, lines[lineno - 1]
            assert cert.to_json(with_timings=False) == alone.to_json(with_timings=False)

    def test_later_sweep_sees_a_rebound_layer_function(self, monkeypatch):
        lines = [emit_graph6(g) for g in graphs_up_to(6)]
        assert sweep(lines, n_max=6).totals[CORE_3CONN] == 51
        monkeypatch.setattr(classifier, "is_3conn_nonclique", lambda g: False)
        expected = Counter(classify(parse_graph6(line)).case for line in lines)
        assert CORE_3CONN not in expected
        assert sweep(lines, n_max=6).totals == expected

    def test_full_table_is_cleared_and_totals_stay(self, monkeypatch):
        lines = [emit_graph6(g) for g in graphs_up_to(6)]
        expected = sweep(lines, n_max=6).to_json()
        sizes = []
        real = classifier._first_case

        def first_case(target, *args):
            sizes.append(len(classifier._sweep_outcomes))
            return real(target, *args)

        monkeypatch.setattr(classifier, "_OUTCOMES_KEPT", 8)
        monkeypatch.setattr(classifier, "_first_case", first_case)
        assert sweep(lines, n_max=6).to_json() == expected
        assert max(sizes) <= 8 and any(b < a for a, b in zip(sizes, sizes[1:]))  # cleared

    def test_one_worker_sweep_checks_each_distinct_core_once(self, monkeypatch):
        # Of the 5,464 gatekeeper searches and 15,907 3-connectivity tests that
        # the classify calls of a one-worker stream sweep would make on their
        # own, 1,917 and 4,595 are on a core graph not checked before.
        calls = Counter()
        for name in ("has_fixing_operation", "is_3conn_nonclique"):
            def counted(g, real=getattr(classifier, name), name=name):
                calls[name] += 1
                return real(g)
            monkeypatch.setattr(classifier, name, counted)
        lines, _ = stream.load()
        assert gates.check_totals(sweep(lines, n_max=8).totals, [], []) == []
        assert calls == {"has_fixing_operation": 1917, "is_3conn_nonclique": 4595}


class TestNoCaseFires:
    """With every layer check answering "no", classify reports a theorem
    violation from 12 vertices on and "unclassified" below, and sweep lists
    both.  The checks look the layer functions up when they run."""

    @pytest.fixture(autouse=True)
    def nothing_fires(self, monkeypatch):
        from indsat.gatekeeper import GatekeeperResult
        from indsat.recognizers import TRIVIAL_NONE
        for name, answer in (("classify_trivial", TRIVIAL_NONE), ("forest_unique_max", None),
                             ("match_k2p_k11p", None), ("is_3conn_nonclique", False),
                             ("is_bull_or_p4", False), ("close_to_permutation", None),
                             ("has_fixing_operation", GatekeeperResult(None, None)),
                             ("special_table", None)):
            monkeypatch.setattr(classifier, name, lambda g, answer=answer: answer)

    def test_classify_verdicts(self):
        small, large = classify(path_graph(5)), classify(cycle_graph(12))
        assert (small.case, small.complemented, small.witness) == (UNCLASSIFIED, False, {})
        assert (large.case, large.complemented) == (THEOREM_VIOLATION, False)
        assert large.witness == {"note": "no structural case fired on either orientation"}

    def test_sweep_lists_both_verdicts(self):
        lines = ["Dr[", emit_graph6(cycle_graph(12)), "", "D??"]
        report = sweep(lines, n_max=12)
        assert report.totals == {UNCLASSIFIED: 2, THEOREM_VIOLATION: 1}
        assert report.unclassified == sorted(["Dr[", emit_graph6(cycle_graph(12)), "D??"])
        assert report.graphs_processed == 3 and not report.ok()


def has_3conn_subset(g):
    """Does g have a 3-connected induced subgraph on at least 5 vertices?"""
    return classifier._3conn_within(g, (1 << g.n) - 1)


class TestStructure12Pieces:
    def test_slice_9_3(self):
        """The |A| = 9 slice always contains K_{3,3}: three missed pairs
        cover at most 6 of 9 A-vertices, and the others see all of B."""
        from indsat.classifier import _bipartite_graph
        pairs = list(combinations(range(9), 2))
        k33 = complete_multipartite(3, 3)
        rng = random.Random(31)
        for _ in range(200):
            missed = [rng.choice(pairs) for _ in range(3)]
            g = _bipartite_graph(9, missed)
            assert find_induced(g, k33) is not None, missed
            assert has_3conn_subset(g), missed

    def test_disjoint_missed_pairs_contain_3connected(self):
        from indsat.classifier import _bipartite_graph
        g = _bipartite_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert has_3conn_subset(g)

    def test_bipartite_builder(self):
        from indsat.classifier import _bipartite_graph
        g = _bipartite_graph(5, [(0, 1)])
        assert g.n == 6 and g.degree(5) == 3
        assert not g.has_edge(0, 5) and not g.has_edge(1, 5)
        missed = [(0, 1), (2, 3), (0, 1), (3, 4)]
        assert _bipartite_graph(5, missed) == Graph.from_edges(
            9, [(a, 5 + i) for i, pair in enumerate(missed) for a in range(5) if a not in pair])

    @staticmethod
    def record_searched(monkeypatch):
        """The list that the (a_size, missed) of every configuration reaching
        the 3-connectivity search will be appended to, in order."""
        seen = []
        build = classifier._bipartite_graph
        monkeypatch.setattr(classifier, "_bipartite_graph", lambda a_size, missed: (
            seen.append((a_size, tuple(map(tuple, missed)))) or build(a_size, missed)))
        return seen

    def test_walk_visits_exactly_the_brute_force_shortcut_free_list(self, monkeypatch):
        seen = self.record_searched(monkeypatch)
        report = classifier.structure_check_12()
        assert seen == [(a_size, missed) for a_size in range(9, 4, -1)
                        for missed in naive_shortcut_free(a_size)]
        for a_size in range(5, 10):
            pairs = combinations(range(a_size), 2)
            assert report.shapes[f"{a_size}x{12 - a_size}"] == sum(
                1 for _ in combinations_with_replacement(pairs, 12 - a_size))
        assert report.subset_searches == len(seen) == 6465
        assert report.k33_shortcuts == report.configurations - 6465 == 136766

    def test_counterexamples_come_in_brute_force_order(self, monkeypatch):
        # A fake 3-connectivity search fails on a seeded set of
        # configurations; each must be reported, in brute-force order.
        configurations = [(a_size, missed) for a_size in range(9, 4, -1)
                          for missed in naive_shortcut_free(a_size)]
        failing = set(random.Random(23).sample(configurations, 40))
        seen = self.record_searched(monkeypatch)
        monkeypatch.setattr(classifier, "_3conn_within",
                            lambda g, allowed: seen[-1] not in failing)
        report = classifier.structure_check_12()
        assert not report.all_passed
        assert report.counterexamples == [
            {"a_size": a_size, "missed": [list(p) for p in missed]}
            for a_size, missed in configurations if (a_size, missed) in failing]

    def test_work_counts(self, monkeypatch):
        # Each shortcut-free configuration's 3-core is 3-connected, so one
        # packed search over all cut sizes settles it: 6,465 in all, where
        # one search per cut size would make 19,395.  The walk counts the
        # completions of 31,191 shortcut prefixes with one `comb` each
        # instead of visiting them.
        searches, prefixes = [], []
        disconnected = graphs._disconnected
        monkeypatch.setattr(graphs, "_disconnected", lambda *args: (
            searches.append(1) or disconnected(*args)))
        monkeypatch.setattr(classifier, "comb", lambda *args: (
            prefixes.append(1) or comb(*args)))
        assert classifier.structure_check_12().all_passed
        assert (len(searches), len(prefixes)) == (6465, 31191)


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
        # C6 peels to nothing; two K4 sharing an edge split at that edge
        # into two 4-vertex pieces; two K5 sharing an edge split into K5s.
        for g, expected in ((cycle_graph(6), False),
                            (_two_cliques_sharing_an_edge(4), False),
                            (_two_cliques_sharing_an_edge(5), True),
                            (complete_multipartite(3, 3), True)):
            assert has_3conn_subset(g) == expected == naive_has_3conn_subset(g)

    def test_structure12_sample_vs_naive(self):
        from indsat.classifier import _bipartite_graph
        # Only configurations without a K_{3,3} shortcut are searched.
        configurations = [(a_size, missed) for a_size in range(9, 4, -1)
                          for missed in naive_shortcut_free(a_size)]
        assert len(configurations) == 6465
        for a_size, missed in random.Random(12).sample(configurations, 300):
            g = _bipartite_graph(a_size, missed)
            assert has_3conn_subset(g) == naive_has_3conn_subset(g), (a_size, missed)

    def test_random_graphs_vs_naive(self):
        rng = random.Random(3)
        for n in range(1, 11):
            for density in (0.3, 0.5, 0.7, 0.9):
                for _ in range(8):
                    g = random_graph(rng, n, density)
                    assert has_3conn_subset(g) == naive_has_3conn_subset(g), \
                        emit_graph6(g)
