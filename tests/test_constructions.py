from itertools import combinations

import pytest

from indsat.constructions import (CapacityError, K2P_EDGE, K2P_NONEDGE,
                                  PreconditionError, _gatekeeper_fix, _grow,
                                  blowup_graph, fix_pair, initial_state,
                                  priority_position, schedule_fixes)
from indsat.gatekeeper import CLIQUE_MODE, blowup_mode, has_fixing_operation
from indsat.graphs import (Graph, complete_graph, complete_multipartite,
                           cycle_graph, find_induced, is_isomorphic,
                           parse_graph6, path_graph)
from indsat.recognizers import classify_trivial
from indsat.verifier import is_free
from gensmall import graphs_up_to
from oracles_naive import naive_blowup_graph, naive_glue


class TestGlue:
    """The edge-list gluing oracle the gatekeeper tests compare against."""

    def test_two_graphs_glued_on_nonedges(self):
        # Left graph: box with u, v and three more vertices; right graph: path
        # y-z plus the glued pair u', v'.  The merged result has 7 vertices.
        left = Graph.from_edges(5, [(2, 3), (1, 3), (2, 4), (3, 4), (0, 4)])
        # 0=v, 1=u, 2..4 internal; u-v non-adjacent.
        right = Graph.from_edges(4, [(2, 3), (1, 3), (0, 2)])
        # right: 0=v', 1=u', 2=z, 3=y; u'-v' non-adjacent.
        # z and y become vertices 5 and 6.
        glued = naive_glue(left, right, [1, 0], [1, 0])
        assert glued.n == 7
        expected = Graph.from_edges(7, [(2, 3), (1, 3), (2, 4), (3, 4), (0, 4),
                                        (5, 6), (1, 6), (0, 5)])
        assert glued == expected

    def test_empty_interface_is_disjoint_union(self):
        g = naive_glue(path_graph(2), path_graph(2), [], [])
        assert g.n == 4 and g.edge_count() == 2

    def test_single_shared_vertex(self):
        g = naive_glue(path_graph(3), path_graph(3), [2], [0])
        assert g.n == 5 and g.edge_count() == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            naive_glue(path_graph(2), path_graph(2), [0], [0, 1])
        with pytest.raises(ValueError):
            naive_glue(path_graph(2), path_graph(2), [0, 0], [0, 1])

    def test_base_stays_induced(self):
        glued = naive_glue(cycle_graph(5), cycle_graph(4), [0, 1], [0, 1])
        for u in range(5):
            assert glued.adj[u] & 0b11111 == cycle_graph(5).adj[u]


class TestBlowup:
    def test_c5_clique_mode(self):
        c5 = cycle_graph(5)
        g = blowup_graph(c5, (0, 1), CLIQUE_MODE, 3)
        assert g.n == 11
        assert is_free(g, c5)

    def test_m1_is_perturbation(self):
        c5 = cycle_graph(5)
        g = blowup_graph(c5, (0, 1), CLIQUE_MODE, 1)
        assert is_isomorphic(g, c5.toggled(0, 1))

    def test_revert_recreates_pattern_anchored(self):
        # The pair's images are vertices 0 and 1 of the blow-up.
        c5 = cycle_graph(5)
        reverted = blowup_graph(c5, (0, 1), CLIQUE_MODE, 3).toggled(0, 1)
        anchors = {0: 0, 1: 1}
        assert find_induced(reverted, c5, anchors) is not None

    def test_capacity(self):
        with pytest.raises(CapacityError):
            blowup_graph(complete_graph(10), (0, 1), CLIQUE_MODE, 8)

    def test_blowup_shadow_n_le_5(self):
        # Every non-trivial h on <= 5 vertices has an edge whose mode-selected
        # blow-up is h-free (the n = 6 slice lives in the acceptance suite).
        for h in graphs_up_to(5):
            if classify_trivial(h) != "none":
                continue
            assert any(
                blowup_mode(h, e) is not None
                and is_free(blowup_graph(h, e, blowup_mode(h, e), 3), h)
                for e in h.edges())

    def test_every_moded_pair_gives_free_blowup(self):
        # Stronger than the existence claim: whenever blowup_mode
        # accepts a pair (edge or not), the m = 3 blow-up avoids h.
        for h in graphs_up_to(6):
            if classify_trivial(h) != "none":
                continue
            for pair in combinations(range(h.n), 2):
                mode = blowup_mode(h, pair)
                if mode is not None:
                    assert is_free(blowup_graph(h, pair, mode, 3), h), \
                        (h, pair, mode)

    def test_matches_naive_blowup_relabelled_pair_first(self):
        for h in graphs_up_to(5):
            if classify_trivial(h) != "none":
                continue
            for pair in combinations(range(h.n), 2):
                mode = blowup_mode(h, pair)
                if mode is None:
                    continue
                for m in (1, 2, 3):
                    naive, (iu, iv) = naive_blowup_graph(h, pair, mode, m)
                    rest = [w for w in range(naive.n) if w not in (iu, iv)]
                    assert blowup_graph(h, pair, mode, m) == naive.induced([iu, iv] + rest), \
                        (h, pair, m)

    @pytest.mark.parametrize("args", [((0, 0), CLIQUE_MODE, 2), ((0, 1), "x", 2),
                                      ((0, 1), CLIQUE_MODE, 0), ((0, 5), CLIQUE_MODE, 2)])
    def test_bad_arguments(self, args):
        with pytest.raises(ValueError):
            blowup_graph(cycle_graph(5), *args)


class TestGrow:
    def test_new_rows_see_only_earlier_vertices(self):
        g = _grow(path_graph(2), [0b11, 0b101])
        assert g == Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)])

    @pytest.mark.parametrize("rows", [[1 << 2], [0, 1 << 4], [-1]])
    def test_loop_or_later_vertex_rejected(self, rows):
        with pytest.raises(ValueError, match="only see vertices before it"):
            _grow(path_graph(2), rows)


class TestPriorityEnumeration:
    def test_pinned_prefix(self):
        seq = sorted(((i, j) for i in range(1, 6) for j in range(1, 6)),
                     key=lambda ij: priority_position(*ij))
        assert seq[:7] == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]

    def test_enumeration_is_a_bijection(self):
        positions = [priority_position(i, j)
                     for i in range(1, 9) for j in range(1, 9)
                     if max(i, j) <= 8]
        assert sorted(positions) == list(range(64))


class TestFixPair:
    def test_twin_duplicate_edge_gives_c4(self):
        state = initial_state(path_graph(2), m=3)
        nxt = fix_pair(state, (0, 1), "twin", path_graph(4))
        assert is_isomorphic(nxt.graph, cycle_graph(4))
        assert nxt.fixed_ledger[-1].pair == (0, 1)

    def test_gatekeeper_c5_nonedge_fix_stays_free(self):
        # Glue the path gadget onto a non-edge of a C5-free base.
        c5 = cycle_graph(5)
        state = initial_state(path_graph(4), m=1)
        nxt = fix_pair(state, (0, 2), "gatekeeper", c5)
        assert is_free(nxt.graph, c5)
        # m = 1 gluing of the perturbed pattern adds |V(h)| - 2 vertices.
        assert nxt.graph.n == 7
        # Perturbing the fixed pair now creates a C5 through the gadget.
        assert find_induced(nxt.graph.toggled(0, 2), c5) is not None

    def test_gatekeeper_c5_edge_fix_stays_free(self):
        c5 = cycle_graph(5)
        state = initial_state(path_graph(4), m=2)
        nxt = fix_pair(state, (0, 1), "gatekeeper", c5)
        assert is_free(nxt.graph, c5)
        assert find_induced(nxt.graph.toggled(0, 1), c5) is not None

    def test_k2p_edge_fix(self):
        # Gluing K_{1,1,m} onto an edge of a K_{2,3}-free base keeps it free;
        # deleting the fixed edge then re-creates the pattern.
        k23 = complete_multipartite(2, 3)
        state = initial_state(path_graph(4), m=4)
        nxt = fix_pair(state, (1, 2), "k2p", k23)
        assert is_free(nxt.graph, k23)
        assert find_induced(nxt.graph.toggled(1, 2), k23) is not None

    def test_k2p_nonedge_fix(self):
        k23 = complete_multipartite(2, 3)
        state = initial_state(path_graph(4), m=3)
        nxt = fix_pair(state, (0, 2), "k2p", k23)
        assert is_free(nxt.graph, k23)
        assert find_induced(nxt.graph.toggled(0, 2), k23) is not None

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_k2p_needs_m_at_least_p(self, p):
        # With m < p, deleting a fixed edge leaves only an induced K_{2,m}.
        kp = complete_multipartite(2, p)
        for pair in ((1, 2), (0, 2)):
            with pytest.raises(PreconditionError, match=f"m >= p = {p}, got m = {p - 1}"):
                fix_pair(initial_state(path_graph(4), m=p - 1), pair, "k2p", kp)
            fix_pair(initial_state(path_graph(4), m=p), pair, "k2p", kp)

    def test_k11p_edge_fix_p3(self):
        k113 = complete_multipartite(1, 1, 3)
        state = initial_state(path_graph(4), m=2)
        # P4's edge (1,2): empty common neighborhood, coverable by one clique.
        nxt = fix_pair(state, (1, 2), "k11p", k113)
        assert is_free(nxt.graph, k113)
        assert find_induced(nxt.graph.toggled(1, 2), k113) is not None

    def test_k11p_edge_guard_rejects_wide_neighborhoods(self):
        # K4 minus an edge: the edge (0,1) keeps the non-adjacent pair {2,3}
        # as common neighborhood, which two cliques cover but one cannot.
        base = complete_graph(4).toggled(2, 3)
        state = initial_state(base, m=2)
        with pytest.raises(PreconditionError):
            fix_pair(state, (0, 1), "k11p", complete_multipartite(1, 1, 3))

    def test_k11p_p2_requires_disjoint_neighborhoods(self):
        # For p = 2 the endpoints must share no neighbor at all (p - 2 = 0
        # cliques cover only the empty set).
        state = initial_state(complete_graph(3), m=3)
        with pytest.raises(PreconditionError, match=r"common neighbors \[2\] of pair \(0, 1\)"):
            fix_pair(state, (0, 1), "k11p", complete_multipartite(1, 1, 2))
        nxt = fix_pair(initial_state(path_graph(2), m=3), (0, 1), "k11p",
                       complete_multipartite(1, 1, 2))
        assert nxt.graph == complete_graph(5)  # one 3-clique joined to the edge

    def test_k11p_nonedge_fix(self):
        k113 = complete_multipartite(1, 1, 3)
        state = initial_state(path_graph(4), m=4)
        nxt = fix_pair(state, (0, 3), "k11p", k113)
        assert is_free(nxt.graph, k113)
        assert find_induced(nxt.graph.toggled(0, 3), k113) is not None

    def test_pair_status_picks_the_ledger_label(self):
        k23 = complete_multipartite(2, 3)
        state = initial_state(path_graph(4), m=3)
        assert fix_pair(state, (1, 2), "k2p", k23).fixed_ledger[-1].strategy == K2P_EDGE
        assert fix_pair(state, (0, 2), "k2p", k23).fixed_ledger[-1].strategy == K2P_NONEDGE

    def test_pattern_must_match_family(self):
        state = initial_state(path_graph(4), m=2)
        with pytest.raises(PreconditionError, match="K_{2,p}"):
            fix_pair(state, (1, 2), "k2p", complete_multipartite(1, 1, 3))
        with pytest.raises(PreconditionError, match="K_{1,1,p}"):
            fix_pair(state, (1, 2), "k11p", cycle_graph(5))
        with pytest.raises(ValueError, match="unknown strategy family"):
            fix_pair(state, (1, 2), "k2p_edge", complete_multipartite(2, 3))

    def test_gatekeeper_fix_matches_naive_glue(self):
        # The appended blocks equal the naive blow-up at the gatekeeper pair,
        # glued by edge lists onto the pair being fixed.  C5, DVw, D^{ and
        # EQ~o cover both gatekeeper kinds in both modes.
        for label in ["Dhc", "DVw", "D^{", "EQ~o"]:
            h = parse_graph6(label)
            gk = has_fixing_operation(h)
            for g in graphs_up_to(4):
                for x, y in combinations(range(g.n), 2):
                    if g.has_edge(x, y):
                        hpair, mode = gk.nonedge_witness, gk.nonedge_mode
                    else:
                        hpair, mode = gk.edge_witness, gk.edge_mode
                    if hpair is None:
                        continue
                    for m in (1, 2, 3):
                        gadget, (iu, iv) = naive_blowup_graph(h, hpair, mode, m)
                        assert (_gatekeeper_fix(g, (x, y), h, m, gk)
                                == naive_glue(g, gadget, [x, y], [iu, iv])), (g, h, m)


class TestScheduleFixes:
    def test_duplication_bootstrap_sequence(self):
        # Seeding with a single edge: twin duplication yields C4, then the
        # known 6-vertex third stage.
        states = schedule_fixes(path_graph(2), path_graph(4), steps=3, m=4,
                                family="twin")
        assert len(states) == 4
        expected_g3 = Graph.from_edges(6, [(0, 1), (0, 3), (4, 3), (5, 3), (5, 1),
                                           (1, 2), (4, 1), (2, 3), (0, 4), (2, 5)])
        assert is_isomorphic(states[0].graph, path_graph(2))
        assert is_isomorphic(states[1].graph, cycle_graph(4))
        assert is_isomorphic(states[2].graph, expected_g3)

    def test_zero_steps(self):
        states = schedule_fixes(path_graph(2), path_graph(4), steps=0, m=2,
                                family="twin")
        assert len(states) == 1 and states[0].graph == path_graph(2)

    @pytest.mark.parametrize("family", ["twin", "gatekeeper", "k2p", "k11p"])
    @pytest.mark.parametrize("m", [0, -2])
    def test_m_below_1_rejected(self, family, m):
        # m = 0 used to add empty gadgets and record unfixed pairs as fixed.
        with pytest.raises(ValueError, match="m must be at least 1"):
            schedule_fixes(path_graph(3), complete_multipartite(1, 1, 3), steps=2,
                           m=m, family=family)
        with pytest.raises(ValueError, match="m must be at least 1"):
            initial_state(path_graph(2), m)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be non-negative"):
            schedule_fixes(path_graph(2), path_graph(4), steps=-1, m=2, family="twin")

    def test_dequeue_prefix_matches_enumeration(self):
        state = initial_state(complete_graph(4), m=1)  # six pairs in gen 1
        entries = sorted(state.queue, key=lambda e: e.position)
        assert [(e.i, e.j) for e in entries] == [(1, j) for j in range(1, 7)]

    def test_states_nest_as_induced_subgraphs(self):
        states = schedule_fixes(path_graph(4), cycle_graph(5), steps=3, m=1,
                                family="gatekeeper")
        for prev, nxt in zip(states, states[1:]):
            k = prev.graph.n
            for v in range(k):
                assert nxt.graph.adj[v] & ((1 << k) - 1) == prev.graph.adj[v]

    def test_gatekeeper_schedule_stays_free(self):
        c5 = cycle_graph(5)
        states = schedule_fixes(path_graph(4), c5, steps=4, m=1,
                                family="gatekeeper")
        assert len(states) == 5
        for s in states:
            assert is_free(s.graph, c5)

    def test_seed_must_avoid_pattern(self):
        with pytest.raises(PreconditionError):
            schedule_fixes(cycle_graph(5), cycle_graph(5), steps=1, m=1,
                           family="gatekeeper")

    def test_capacity_stops_early_without_error(self):
        states = schedule_fixes(path_graph(4), cycle_graph(5), steps=50, m=4,
                                family="gatekeeper")
        assert len(states) < 51  # hit the 64-vertex cap and stopped
