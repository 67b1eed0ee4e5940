import random

import pytest

from indsat.gatekeeper import (CLIQUE_MODE, COMPLETE_GRAPH, EDGE, FRAGMENT_FOUND,
                               INDEP_MODE, NONEDGE, NOT_2CONNECTED, blowup_mode,
                               check_gatekeeper, has_fixing_operation)
from indsat.graphs import (Graph, colored_fragment_occurs, complete_graph,
                           cycle_graph, enumerate_2cuts, find_induced,
                           is_k_connected, parse_graph6, path_graph)
from indsat.constructions import glue
from indsat.recognizers import classify_trivial
from gensmall import graphs_up_to
from oracles_naive import naive_gatekeeper, random_graph


def c5_with_pendant() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])


class TestBlowupMode:
    def test_c5_has_clique_mode(self):
        assert blowup_mode(cycle_graph(5), (0, 1)) == CLIQUE_MODE

    def test_k3_falls_back_to_independent(self):
        assert blowup_mode(complete_graph(3), (0, 1)) == INDEP_MODE

    def test_every_nontrivial_graph_has_an_edge_with_a_mode(self):
        for g in graphs_up_to(7):
            if classify_trivial(g) != "none":
                continue
            assert any(blowup_mode(g, e) is not None for e in g.edges())


class TestCheckGatekeeper:
    def test_dr_every_nonedge(self):
        dr = parse_graph6("Dr[")
        assert all(check_gatekeeper(dr, p, NONEDGE) for p in dr.non_edges())

    def test_paths_have_no_edge_gatekeeper_via_has_fixing(self):
        for t in range(4, 8):
            assert has_fixing_operation(path_graph(t)).edge_witness is None

    def test_dr_edge_fragments(self):
        # Dr['s unique 2-cut {1,2} yields two fragments (a cherry and K4 minus
        # an edge, red pair added back).  Neither occurs in the host with the
        # degree-2 vertex's edge removed, making that edge a gatekeeper; the
        # deeper edges all admit the cherry fragment and fail.
        dr = parse_graph6("Dr[")
        fragments = [(dr.induced(comp + [1, 2]), (len(comp), len(comp) + 1))
                     for comp in ([0], [3, 4])]
        for edge in ((0, 1), (0, 2)):
            host = dr.toggled(*edge)
            assert all(not colored_fragment_occurs(host, edge, f, fp)
                       for f, fp in fragments)
            assert check_gatekeeper(dr, edge, EDGE)
        for edge in ((1, 3), (3, 4)):
            host = dr.toggled(*edge)
            assert any(colored_fragment_occurs(host, edge, f, fp)
                       for f, fp in fragments)
            assert not check_gatekeeper(dr, edge, EDGE)

    def test_c5_both_kinds(self):
        c5 = cycle_graph(5)
        assert any(check_gatekeeper(c5, e, EDGE) for e in c5.edges())
        assert any(check_gatekeeper(c5, f, NONEDGE) for f in c5.non_edges())

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_gatekeeper(path_graph(4), (0, 1), EDGE)  # not 2-connected
        with pytest.raises(ValueError):
            check_gatekeeper(complete_graph(4), (0, 1), EDGE)  # complete
        with pytest.raises(ValueError):
            check_gatekeeper(cycle_graph(5), (0, 2), EDGE)  # status mismatch

    def test_matches_naive_definition(self):
        """Every pair of every 2-connected, non-complete graph on <= 6
        vertices; this pins which 2-cuts each kind of candidate meets."""
        verdicts = set()
        for h in graphs_up_to(6):
            if not is_k_connected(h, 2) or h.edge_count() == h.n * (h.n - 1) // 2:
                continue
            for kind, pairs in ((EDGE, h.edges()), (NONEDGE, h.non_edges())):
                for pair in pairs:
                    fast = check_gatekeeper(h, pair, kind)
                    assert fast == naive_gatekeeper(h, pair, kind), (h, pair, kind)
                    verdicts.add((kind, fast))
        assert verdicts == {(EDGE, True), (EDGE, False), (NONEDGE, True), (NONEDGE, False)}

    def test_soundness_random_gluings(self):
        """A reported gatekeeper really keeps random h-free hosts h-free."""
        rng = random.Random(99)
        h = cycle_graph(5)
        res = has_fixing_operation(h)
        e, f = res.edge_witness, res.nonedge_witness
        h_minus_e = h.toggled(*e)
        h_plus_f = h.toggled(*f)
        checked = 0
        while checked < 200:
            g = random_graph(rng, rng.randint(2, 10))
            if find_induced(g, h) is not None:
                continue
            checked += 1
            for x, y in g.non_edges():
                glued = glue(g, h_minus_e, [x, y], list(e))
                assert find_induced(glued, h) is None
            for x, y in g.edges():
                glued = glue(g, h_plus_f, [x, y], list(f))
                assert find_induced(glued, h) is None

    def test_colored_implies_component_condition(self):
        """If the component-only test finds nothing, neither does the
        attachment-aware test (the colored criterion is stronger)."""
        for h in graphs_up_to(6):
            if not is_k_connected(h, 2):
                continue
            if h.edge_count() == h.n * (h.n - 1) // 2:
                continue
            cuts = enumerate_2cuts(h)
            for pair in h.edges():
                host_graph = h.toggled(*pair)
                for (u, v), is_edge, comps in cuts:
                    if is_edge:
                        continue
                    for comp in comps:
                        fragment_core = h.induced(comp)
                        component_found = find_induced(host_graph, fragment_core) is not None
                        frag_graph = h.induced(list(comp) + [u, v])
                        colored_found = colored_fragment_occurs(
                            host_graph, pair, frag_graph, (len(comp), len(comp) + 1))
                        if not component_found:
                            assert not colored_found


class TestHasFixingOperation:
    def test_c5(self):
        res = has_fixing_operation(cycle_graph(5))
        assert res.both()
        assert res.edge_mode == CLIQUE_MODE and res.nonedge_mode == CLIQUE_MODE

    def test_p4_no_witnesses(self):
        res = has_fixing_operation(path_graph(4))
        assert res.edge_witness is None and res.nonedge_witness is None
        assert {d.reason for d in res.diagnostics} == {NOT_2CONNECTED}

    def test_c5_with_pendant_not_2connected_but_core_fixes(self):
        from indsat.cores import TWO, core
        res = has_fixing_operation(c5_with_pendant())
        assert not res.both()
        assert {d.reason for d in res.diagnostics} == {NOT_2CONNECTED}
        core_res = core(c5_with_pendant(), TWO)
        assert has_fixing_operation(core_res.graph).both()

    def test_complete_graph_short_circuits(self):
        res = has_fixing_operation(complete_graph(4))
        assert not res.both()
        assert {d.reason for d in res.diagnostics} == {COMPLETE_GRAPH}

    def test_diagnostics_complete_when_no_witness(self):
        res = has_fixing_operation(path_graph(4))
        assert len(res.diagnostics) == 6  # all pairs of P4

    def test_fragment_diagnostics_carry_cut_and_component(self):
        # C6 has fragment hits for some pairs; find a diagnostic with payload.
        res = has_fixing_operation(cycle_graph(6))
        frag_diags = [d for d in res.diagnostics if d.reason == FRAGMENT_FOUND]
        for d in frag_diags:
            assert d.cut is not None and d.component is not None

    def test_json_round_trip_shape(self):
        payload = has_fixing_operation(cycle_graph(5)).to_json()
        assert set(payload) == {"edge_witness", "nonedge_witness", "edge_mode",
                                "nonedge_mode", "diagnostics"}
