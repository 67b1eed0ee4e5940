import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from indsat import graphs, verifier
from indsat.constructions import blowup_graph, initial_state, fix_pair, schedule_fixes
from indsat.gatekeeper import CLIQUE_MODE
from indsat.graphs import (Graph, bull_graph, complete_graph, complete_multipartite,
                           cycle_graph, empty_graph, find_induced, icosahedron_complement,
                           parse_graph6, path_graph)
from indsat.oracles import (RATIONAL_GEOMETRIC_KIND, TORERO_KIND,
                            grid_clique, oracle_window)
from indsat.verifier import (induced_saturated, is_free,
                             max_independent_in_neighborhood,
                             neighborhood_two_clique_cover, pair_fixed_check,
                             replay_construction_witnesses, sample_window)
from gensmall import graphs_up_to
from oracles_naive import (naive_find_induced, naive_induced_saturated,
                           naive_pair_fixed_check, naive_twins, random_graph)

GOLDEN_PREFIXES = Path(__file__).parent / "golden" / "prefix.json"
GOLDEN_PAIRFIXED = Path(__file__).parent / "golden" / "pairfixed.json"
# Non-ledger pairs of the 47-51-vertex prefixes that pass at budget 0 and
# fail at budget 1, with one extra pair.
BUDGET1_FAILURES = {"Ch": (0, 20), "Dhc": (0, 15), "Dr[": (0, 6), "D}o": (0, 7)}


def pairfixed_records() -> list[dict]:
    """pair_fixed_check on the first 47-51-vertex graph of each golden prefix:
    every ledger pair in range at budget 2 and the BUDGET1_FAILURES pair at
    budget 1, with 20 trials seeded by the case index."""
    records = []
    for case, spec in enumerate(json.loads(GOLDEN_PREFIXES.read_text())):
        h = parse_graph6(spec["h"])
        g = next(g for g in map(parse_graph6, spec["graphs"]) if 47 <= g.n <= 51)
        checks = [(tuple(rec["pair"]), 2) for rec in spec["ledger"] if max(rec["pair"]) < g.n]
        if spec["h"] in BUDGET1_FAILURES:
            checks.append((BUDGET1_FAILURES[spec["h"]], 1))
        records += [{"case": case, "pair": list(pair), "result": pair_fixed_check(
            g, h, pair, adversary_budget=budget, trials=20, seed=case).to_json()}
                    for pair, budget in checks]
    return records


def rational_geometric_keys() -> list[str]:
    """The patterns of the rational-geometric replay rows, in row order."""
    return list(dict.fromkeys(pattern for _, kind, pattern, _, _ in verifier._WINDOW_SCENARIOS
                              if kind == RATIONAL_GEOMETRIC_KIND))


def with_twins(rng: random.Random, g: Graph, count: int) -> Graph:
    """g with `count` vertices appended, each a true or a false twin of a
    random earlier vertex."""
    rows = list(g.adj)
    for _ in range(count):
        v, n = rng.randrange(len(rows)), len(rows)
        row = rows[v] | (1 << v if rng.random() < 0.5 else 0)
        rows = [r | (row >> w & 1) << n for w, r in enumerate(rows)] + [row]
    return Graph(len(rows), rows)


class TestIsFree:
    # (pattern, has true twins, has false twins)
    PATTERNS_BY_TWINS = {
        "P4": (path_graph(4), False, False), "C5": (cycle_graph(5), False, False),
        "bull": (bull_graph(), False, False),
        "C4": (cycle_graph(4), False, True), "K23": (complete_multipartite(2, 3), False, True),
        "2K2": (Graph.from_edges(4, [(0, 1), (2, 3)]), True, False),
        "K113": (complete_multipartite(1, 1, 3), True, True),
    }

    def test_examples(self):
        assert is_free(icosahedron_complement(), path_graph(5))
        assert not is_free(complete_graph(5), complete_graph(3))

    @pytest.mark.parametrize("name", PATTERNS_BY_TWINS)
    def test_twin_injected_hosts_match_naive(self, name):
        h, true_twins, false_twins = self.PATTERNS_BY_TWINS[name]
        assert any(naive_twins(h, v)[0] for v in range(h.n)) == true_twins
        assert any(naive_twins(h, v)[1] for v in range(h.n)) == false_twins
        rng = random.Random(name)
        verdicts = set()
        for trial in range(40):
            # Every fourth host is h itself with twins added, so it contains h.
            base = (h if trial % 4 == 0 else
                    random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7))))
            g = with_twins(rng, base, rng.randint(0, 3))
            verdict = is_free(g, h)
            assert verdict == (naive_find_induced(g, h) is None), (g, name)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_empty_and_one_vertex_patterns(self):
        for g in (empty_graph(0), empty_graph(1), path_graph(2), with_twins(
                random.Random(1), path_graph(3), 4)):
            assert not is_free(g, empty_graph(0))
            assert is_free(g, empty_graph(1)) == (g.n == 0)

    @pytest.mark.parametrize("name", PATTERNS_BY_TWINS)
    def test_hosts_no_larger_than_h(self, name):
        h = self.PATTERNS_BY_TWINS[name][0]
        for g in graphs_up_to(h.n):
            assert is_free(g, h) == (naive_find_induced(g, h) is None), (g, name)

    @pytest.mark.parametrize("case", range(5))
    def test_golden_prefixes_match_the_unreduced_search(self, case):
        # On each prefix, and on each host made from it by toggling one
        # ledger pair inside it, both searches agree on whether h occurs.
        # Toggling a pair fixed in a later generation need not create h.
        spec = json.loads(GOLDEN_PREFIXES.read_text())[case]
        h = parse_graph6(spec["h"])
        ledger = [tuple(rec["pair"]) for rec in spec["ledger"]]
        for text in spec["graphs"]:
            g = parse_graph6(text)
            for host in [g] + [g.toggled(*pair) for pair in ledger if max(pair) < g.n]:
                assert is_free(host, h) == (find_induced(host, h) is None), (text, h)


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
        result = pair_fixed_check(blowup_graph(c5, (0, 1), CLIQUE_MODE, 4), c5, (0, 1),
                                  adversary_budget=2, trials=25, seed=3)
        assert result.passed()
        assert result.exhaustive_size == 2

    def test_fresh_duplicate_pairs_fail_with_k0(self):
        # One twin step on an edge gives C4; its unfixed diagonal pairs
        # create no P4 when perturbed.
        state = initial_state(path_graph(2), m=2)
        g2 = fix_pair(state, (0, 1), "twin", path_graph(4))
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

    def test_large_prefix_reports_match_the_golden(self):
        # The naive oracle is too slow at 50 vertices, so these 77 reports
        # were pinned from the check that searched every adversary set.
        records = pairfixed_records()
        text = "[\n" + ",\n".join(json.dumps(rec, sort_keys=True) for rec in records) + "\n]\n"
        assert text == GOLDEN_PAIRFIXED.read_text()
        assert sum(rec["result"]["status"] == "fail" for rec in records) == 14

    def test_report_shape(self):
        payload = pair_fixed_check(cycle_graph(4), path_graph(3), (0, 1),
                                   adversary_budget=1, trials=5, seed=9).to_json()
        assert payload["adversary_budget"] == 1
        assert payload["seed"] == 9
        assert "evidence" in payload["note"]


def assert_matches_naive(g: Graph, h: Graph, pair, trials: int, seed: int) -> list[bool]:
    """Both checks agree with their whole-graph oracles at budgets 0-3;
    returns the pair_fixed_check verdicts."""
    assert induced_saturated(g, h) == naive_induced_saturated(g, h)
    verdicts = []
    for budget in range(4):
        fast = pair_fixed_check(g, h, pair, budget, trials, seed)
        slow = naive_pair_fixed_check(g, h, pair, budget, trials, seed)
        assert fast.to_json() == slow.to_json(), (g.n, pair, budget)
        verdicts.append(fast.passed())
    return verdicts


class TestLocalSearchMatchesNaive:
    """The anchored searches decide every perturbed graph as a search of the
    whole graph does, so every report is the oracle's."""

    PATTERNS = {"P4": path_graph(4), "C5": cycle_graph(5), "bull": bull_graph(),
                "K23": complete_multipartite(2, 3)}

    @pytest.mark.parametrize("name", PATTERNS)
    @pytest.mark.parametrize("h_free", [True, False])
    def test_random_graphs(self, name, h_free):
        # h_free=False leaves every miss to the whole-graph fallback.
        h = self.PATTERNS[name]
        rng = random.Random(f"{name}-{h_free}")
        verdicts = []
        checked = 0
        while checked < 6:
            g = random_graph(rng, rng.randint(5, 7), rng.choice((0.3, 0.5, 0.7)))
            if is_free(g, h) != h_free:
                continue
            checked += 1
            pair = tuple(rng.sample(range(g.n), 2))
            verdicts += assert_matches_naive(g, h, pair, trials=4,
                                             seed=rng.randrange(1000))
        assert not all(verdicts)

    @pytest.mark.parametrize("case", range(5))
    def test_golden_prefixes(self, case):
        # Both checks agree on each ledger pair inside a prefix of at most 10
        # vertices, including pairs fixed only in a later generation.
        spec = json.loads(GOLDEN_PREFIXES.read_text())[case]
        h = parse_graph6(spec["h"])
        ledger = [tuple(rec["pair"]) for rec in spec["ledger"]]
        for text in spec["graphs"]:
            g = parse_graph6(text)
            if g.n > 10:
                break
            fixed = [pair for pair in ledger if max(pair) < g.n]
            for pair in fixed[1:]:
                assert (pair_fixed_check(g, h, pair).to_json()
                        == naive_pair_fixed_check(g, h, pair).to_json())
            if fixed:
                assert_matches_naive(g, h, fixed[0], trials=5, seed=case)

    def test_pair_anchored_in_both_orientations(self):
        # K_{2,3} with parts {2, 3} and {0, 1, 4}, less the edge (0, 2).
        # Adding it back creates the only K_{2,3}, with the pair's first end
        # on the side of three, so the anchor maps a later pattern vertex to 0.
        k23 = complete_multipartite(2, 3)
        g = Graph.from_edges(5, [(a, b) for a in (2, 3) for b in (0, 1, 4)
                                 if (a, b) != (2, 0)])
        assert pair_fixed_check(g, k23, (0, 2)).passed()
        assert_matches_naive(g, k23, (0, 2), trials=3, seed=7)

    @pytest.mark.parametrize("g, h", [
        (cycle_graph(5), empty_graph(0)),       # h on 0 vertices
        (cycle_graph(5), empty_graph(1)),       # h on 1 vertex
        (cycle_graph(4), cycle_graph(5)),       # h larger than g
        (cycle_graph(5), cycle_graph(5)),       # h equal to g
        (path_graph(4), path_graph(4)),
    ])
    def test_degenerate_patterns(self, g, h):
        assert_matches_naive(g, h, (0, 2), trials=3, seed=7)


class TestLocalSearchMechanism:
    @staticmethod
    def record_searches(monkeypatch) -> list:
        """(host, anchored?) of every find_induced call the verifier makes,
        directly or through the anchored pair search in indsat.graphs."""
        calls = []
        real = graphs.find_induced

        def recording(host, pattern, anchors=None):
            calls.append((host, bool(anchors)))
            return real(host, pattern, anchors)

        monkeypatch.setattr(verifier, "find_induced", recording)
        monkeypatch.setattr(graphs, "find_induced", recording)
        return calls

    def test_passing_check_searches_only_around_the_toggled_pairs(self, monkeypatch):
        calls = self.record_searches(monkeypatch)
        g = parse_graph6("Iltqt\\Xsw")  # the twin prefix of P4 on 10 vertices
        result = pair_fixed_check(g, path_graph(4), (0, 3), adversary_budget=2,
                                  trials=20, seed=5)
        assert result.passed() and result.sets_checked == 1011
        assert all(anchored for _, anchored in calls)
        # Only the sets with a pair inside the empty set's copy of P4 are
        # searched; the copy survives the other sets (the survival lemma).
        assert len(calls) == 223

    def test_failing_check_searches_the_base_graph_once(self, monkeypatch):
        calls = self.record_searches(monkeypatch)
        g = parse_graph6("Iltqt\\Xsw")
        result = pair_fixed_check(g, path_graph(4), (0, 2), adversary_budget=2,
                                  trials=10, seed=1)
        assert not result.passed() and result.sets_checked == 135
        # is_free(g, h) on the first anchored miss, after 134 passing sets.
        # P4 has no twins and g is a cograph, so its twins reduce it to vertex 0.
        assert [host for host, anchored in calls if not anchored] == [g.induced([0])]

    def test_graph_containing_h_is_searched_once(self, monkeypatch):
        # Each anchored miss on a P6 falls back to a whole-graph search of
        # the perturbed graph; is_free(P6, P4) runs on the first miss only.
        calls = self.record_searches(monkeypatch)
        g = path_graph(6)
        result = pair_fixed_check(g, path_graph(4), (0, 1), adversary_budget=1)
        assert not result.passed() and result.sets_checked == 10
        unanchored = [host for host, anchored in calls if not anchored]
        assert unanchored.count(g) == 1 and len(unanchored) == 4

    def test_is_free_searches_the_twin_reduced_host(self, monkeypatch):
        calls = self.record_searches(monkeypatch)
        specs = json.loads(GOLDEN_PREFIXES.read_text())
        twin = parse_graph6(specs[0]["graphs"][-1])  # P2/P4 twin prefix
        k113 = parse_graph6(specs[4]["graphs"][-1])  # K_{1,1,3} has both twin kinds
        assert twin.n == 64 and is_free(twin, path_graph(4))
        assert is_free(k113, complete_multipartite(1, 1, 3))
        assert [host.n for host, _ in calls] == [1, k113.n]
        assert calls[1][0] is k113


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
            (path_graph(2), (0, 1), "twin", TWIN_DUPLICATE, path_graph(4)),
            (path_graph(4), (0, 1), "gatekeeper", GATEKEEPER_GLUE, cycle_graph(5)),
            (path_graph(4), (0, 2), "gatekeeper", GATEKEEPER_GLUE, cycle_graph(5)),
            (path_graph(4), (1, 2), "k2p", K2P_EDGE, complete_multipartite(2, 3)),
            (path_graph(4), (0, 2), "k2p", K2P_NONEDGE, complete_multipartite(2, 3)),
            (path_graph(4), (1, 2), "k11p", K11P_EDGE, complete_multipartite(1, 1, 3)),
            (path_graph(4), (0, 3), "k11p", K11P_NONEDGE, complete_multipartite(1, 1, 3)),
        ]
        for seed, pair, family, strategy, h in cases:
            state = fix_pair(initial_state(seed, m=4), pair, family, h)
            assert state.fixed_ledger[-1].strategy == strategy
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
        from indsat.graphs import parse_graph6
        rng = random.Random(1002)
        patterns = [parse_graph6(key) for key in rational_geometric_keys()]
        for _ in range(300):
            vals = sample_window(RATIONAL_GEOMETRIC_KIND, rng.randint(2, 10), rng)
            window, _ = oracle_window(RATIONAL_GEOMETRIC_KIND, vals)
            for v in range(window.n):
                assert neighborhood_two_clique_cover(window, v)
            # Two-clique neighborhoods exclude the three special patterns.
            for pattern in patterns:
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

    def test_rational_geometric_rows_name_the_special_table_keys(self):
        # The special table stores F?rLw, not its complement F?q|w, because
        # the replay witnesses exist for that orientation.
        from indsat.classifier import _SPECIAL_GRAPHS, SPECIAL_RATIONAL_GEOMETRIC
        special = [key for key, case, _ in _SPECIAL_GRAPHS if case == SPECIAL_RATIONAL_GEOMETRIC]
        assert rational_geometric_keys() == special == ["E?qw", "F?rLw", "F?S|w"]

    def test_all_witness_replays_pass(self):
        report = replay_construction_witnesses()
        assert report.all_passed(), [s for s in report.scenarios if not s["passed"]]

    def test_corrupted_scenario_fails(self):
        # Each stored scenario replays; one moved point or the wrong pair
        # leaves a window that is not the pattern after the perturbation.
        from indsat.graphs import parse_graph6
        from indsat.oracles import Z3_AGREE_KIND
        from indsat.verifier import (_WINDOW_SCENARIOS, _Z3_SCENARIOS, ReplayReport,
                                     _replay, final_graph_pattern)
        name, points, pair = _Z3_SCENARIOS[0]
        cases = [(name, Z3_AGREE_KIND, final_graph_pattern(), points, pair,
                  [((5, 5, 5), 0)] + points[1:], (0, 5))]
        for name, kind, pattern, window, pair in (_WINDOW_SCENARIOS[0], _WINDOW_SCENARIOS[2]):
            values = [Fraction(v) for v in window]
            moved = values[:-1] + [values[-1] + Fraction(1, 3)]
            wrong = (pair[0], next(v for v in range(len(values)) if v not in pair))
            cases.append((name, kind, parse_graph6(pattern), values, pair, moved, wrong))
        for name, kind, pattern, values, pair, moved, wrong in cases:
            report = ReplayReport()
            _replay(report, name, kind, values, pair, pattern)
            _replay(report, "moved_point", kind, moved, pair, pattern)
            _replay(report, "wrong_pair", kind, values, wrong, pattern)
            good, moved_run, wrong_run = report.to_json()["scenarios"]
            assert good["passed"] and good["embedding"] == list(range(pattern.n)), name
            for scenario in (moved_run, wrong_run):
                assert scenario["passed"] is False and scenario["embedding"] is None, name
            assert wrong_run["perturbed_pair"] == list(wrong)
            assert report.all_passed() is False

    def test_replay_searches_no_embedding(self, monkeypatch):
        # The stored windows are checked by comparison alone.
        import indsat.graphs
        import indsat.verifier

        def no_search(*args, **kwargs):
            raise AssertionError("find_induced called")

        monkeypatch.setattr(indsat.graphs, "find_induced", no_search)
        monkeypatch.setattr(indsat.verifier, "find_induced", no_search)
        assert replay_construction_witnesses().all_passed()

    def test_bull_spelling(self):
        from indsat.graphs import parse_graph6
        from indsat.verifier import _BULL
        assert parse_graph6(_BULL) == bull_graph()

    def test_report_serializes(self):
        report = replay_construction_witnesses()
        payload = report.to_json()
        assert payload["all_passed"] is True
        assert len(payload["scenarios"]) == 12
