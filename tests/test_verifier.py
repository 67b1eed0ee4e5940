import random
import tracemalloc
from fractions import Fraction

import pytest

from indsat.constructions import blowup_graph, initial_state, fix_pair, schedule_fixes
from indsat.gatekeeper import CLIQUE_MODE
from indsat.graphs import (bull_graph, complete_graph, cycle_graph,
                           icosahedron_complement, path_graph)
from indsat.oracles import (RATIONAL_GEOMETRIC_KIND, TORERO_KIND,
                            grid_clique, oracle_window)
from indsat.verifier import (induced_saturated, is_free,
                             max_independent_in_neighborhood,
                             neighborhood_two_clique_cover, pair_fixed_check,
                             replay_construction_witnesses, sample_window)
from gensmall import graphs_up_to
from oracles_naive import naive_rg_host


class TestIsFree:
    def test_examples(self):
        assert is_free(icosahedron_complement(), path_graph(5))
        assert not is_free(complete_graph(5), complete_graph(3))


class TestInducedSaturated:
    def test_icosahedron_complement_p5(self):
        verdict, failing = induced_saturated(icosahedron_complement(), path_graph(5))
        assert verdict and failing is None

    def test_p4_free_graphs_fail_with_twin_pair(self):
        from indsat.graphs import twins
        p4 = path_graph(4)
        checked = 0
        for g in graphs_up_to(6):
            if g.n < 2 or not is_free(g, p4):
                continue
            checked += 1
            verdict, failing = induced_saturated(g, p4)
            assert not verdict
            assert failing is not None
            u, v = failing
            tt, ft = twins(g, u)
            assert v in tt or v in ft
        assert checked > 100

    def test_k2_vs_p3(self):
        # Deleting K2's edge leaves 2 vertices: no P3 either way; adding is
        # impossible (no non-edges), so saturation fails on the single pair.
        verdict, failing = induced_saturated(path_graph(2), path_graph(3))
        assert not verdict and failing == (0, 1)

    def test_non_free_graph_reports_none(self):
        verdict, failing = induced_saturated(complete_graph(5), complete_graph(3))
        assert not verdict and failing is None


class TestPairFixedCheck:
    def test_blowup_pair_passes_exhaustive_k2(self):
        c5 = cycle_graph(5)
        res = blowup_graph(c5, (0, 1), CLIQUE_MODE, 4)
        result = pair_fixed_check(res.graph, c5, res.pair_images,
                                  adversary_budget=2, trials=25, seed=3)
        assert result.passed()
        assert result.exhaustive_size == 2

    def test_fresh_duplicate_pairs_fail_with_k0(self):
        # One twin step on an edge gives C4; its unfixed diagonal pairs
        # create no P4 when perturbed.
        state = initial_state(path_graph(2), m=2)
        from indsat.constructions import TWIN_DUPLICATE
        g2 = fix_pair(state, (0, 1), TWIN_DUPLICATE, path_graph(4))
        for pair in ((0, 2), (1, 3)):
            result = pair_fixed_check(g2.graph, path_graph(4), pair)
            assert not result.passed()
            assert result.witness == (pair,)

    def test_trivial_k2(self):
        result = pair_fixed_check(path_graph(2), path_graph(2), (0, 1))
        assert not result.passed()  # deleting the edge kills the only K2

    @pytest.mark.parametrize("budget, trials", [(-3, 0), (1, -1)])
    def test_negative_budget_or_trials_rejected(self, budget, trials):
        with pytest.raises(ValueError, match="non-negative"):
            pair_fixed_check(cycle_graph(4), path_graph(4), (0, 1),
                             adversary_budget=budget, trials=trials)

    def test_budget2_check_stays_small_in_memory(self):
        # 1,127 other pairs: the size-1 sets are exhaustive, the C(1127, 2)
        # size-2 sets exceed EXHAUSTIVE_PAIRSET_LIMIT and fall to the trials.
        p4 = path_graph(4)
        states = schedule_fixes(path_graph(2), p4, steps=200, m=2, family="twin")
        state = next(s for s in states if s.graph.n == 48)
        tracemalloc.start()
        try:
            result = pair_fixed_check(state.graph, p4, state.fixed_ledger[0].pair,
                                      adversary_budget=2, trials=20, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.passed()
        assert result.sets_checked == 1148
        assert result.exhaustive_size == 1
        assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.1f} MB"

    def test_report_shape(self):
        payload = pair_fixed_check(cycle_graph(4), path_graph(3), (0, 1),
                                   adversary_budget=1, trials=5, seed=9).to_json()
        assert payload["adversary_budget"] == 1
        assert payload["seed"] == 9
        assert "evidence" in payload["note"]


class TestSaturationImpliesFree:
    def test_direct_assertion(self):
        for g in graphs_up_to(5):
            verdict, _ = induced_saturated(g, path_graph(4))
            if verdict:
                assert g.n >= 2 and is_free(g, path_graph(4))


class TestJustFixedPairPasses:
    def test_every_strategy_fixes_its_pair_at_k0(self):
        from indsat.constructions import (GATEKEEPER_GLUE, K2P_EDGE, K2P_NONEDGE,
                                          K11P_EDGE, K11P_NONEDGE, TWIN_DUPLICATE)
        from indsat.graphs import complete_multipartite
        cases = [
            (path_graph(2), (0, 1), TWIN_DUPLICATE, path_graph(4)),
            (path_graph(4), (0, 1), GATEKEEPER_GLUE, cycle_graph(5)),
            (path_graph(4), (0, 2), GATEKEEPER_GLUE, cycle_graph(5)),
            (path_graph(4), (1, 2), K2P_EDGE, complete_multipartite(2, 3)),
            (path_graph(4), (0, 2), K2P_NONEDGE, complete_multipartite(2, 3)),
            (path_graph(4), (1, 2), K11P_EDGE, complete_multipartite(1, 1, 3)),
            (path_graph(4), (0, 3), K11P_NONEDGE, complete_multipartite(1, 1, 3)),
        ]
        for seed, pair, strategy, h in cases:
            state = fix_pair(initial_state(seed, m=4), pair, strategy, h)
            result = pair_fixed_check(state.graph, h, pair)
            assert result.passed(), (strategy, result.witness)


class TestLedgerMonotonicity:
    def test_fixed_pairs_stay_fixed_along_schedule(self):
        c5 = cycle_graph(5)
        states = schedule_fixes(path_graph(4), c5, steps=3, m=2,
                                family="gatekeeper")
        for i in range(1, len(states)):
            for rec in states[i].fixed_ledger:
                for later in states[i:]:
                    result = pair_fixed_check(later.graph, c5, rec.pair)
                    assert result.passed()


class TestWindowProperties:
    def test_torero_windows_p4_free(self):
        rng = random.Random(1001)
        p4 = path_graph(4)
        for _ in range(300):
            vals = sample_window(TORERO_KIND, rng.randint(2, 10), rng)
            window, _ = oracle_window(TORERO_KIND, vals)
            assert is_free(window, p4)

    def test_rational_geometric_two_clique_neighborhoods(self):
        from indsat.classifier import special_base_graphs
        rng = random.Random(1002)
        patterns = special_base_graphs("rational_geometric")
        for _ in range(300):
            vals = sample_window(RATIONAL_GEOMETRIC_KIND, rng.randint(2, 10), rng)
            window, _ = oracle_window(RATIONAL_GEOMETRIC_KIND, vals)
            for v in range(window.n):
                assert neighborhood_two_clique_cover(window, v)
            # Two-clique neighborhoods exclude the three special patterns.
            for pattern in patterns.values():
                assert is_free(window, pattern)

    def test_grid_windows_no_three_independent_neighbors(self):
        rng = random.Random(1003)
        kind = grid_clique(2)
        for _ in range(300):
            vals = sample_window(kind, rng.randint(2, 10), rng)
            window, _ = oracle_window(kind, vals)
            for v in range(window.n):
                assert max_independent_in_neighborhood(window, v) <= 2


class TestReplays:
    def test_final_graph_pattern_matches_its_graph6_name(self):
        from indsat.graphs import is_isomorphic, parse_graph6
        from indsat.verifier import final_graph_pattern
        assert is_isomorphic(final_graph_pattern(), parse_graph6("F?q~w"))

    def test_torero_window_from_listed_values(self):
        # Window {1/4, 7/20, 2/5, 7/10, 17/20}: deleting the (7/20, 17/20)
        # edge leaves an induced bull.
        vals = [Fraction(1, 4), Fraction(7, 20), Fraction(2, 5),
                Fraction(7, 10), Fraction(17, 20)]
        window, labels = oracle_window(TORERO_KIND, vals)
        b, x = labels.index(Fraction(7, 20)), labels.index(Fraction(17, 20))
        assert window.has_edge(b, x)
        perturbed = window.toggled(b, x)
        from indsat.graphs import find_induced
        assert find_induced(perturbed, bull_graph()) is not None
        assert find_induced(window, bull_graph()) is None

    @pytest.mark.parametrize("add", [False, True])
    def test_rg_host_matches_per_pair_comparisons(self, add):
        from indsat.verifier import _RG_ADD_SPANS, _RG_DELETE_SPANS, _rg_host
        for r in _RG_ADD_SPANS if add else _RG_DELETE_SPANS:
            pool_vals, host = _rg_host(r)
            want_vals, want_masks = naive_rg_host(r)
            assert pool_vals == want_vals
            assert list(host.adj) == want_masks
            # The perturbed pair {0, r} has the status of the scenario.
            assert host.has_edge(0, 1) == add

    def test_all_witness_replays_pass(self):
        report = replay_construction_witnesses()
        assert report.all_passed(), [s for s in report.scenarios if not s["passed"]]

    def test_report_serializes(self):
        report = replay_construction_witnesses()
        payload = report.to_json()
        assert payload["all_passed"] is True
        assert len(payload["scenarios"]) == 12
