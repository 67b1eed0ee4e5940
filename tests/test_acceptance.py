"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  Time targets are reported, not
asserted, except where a criterion pins a hard bound.
"""

import multiprocessing
import os
import random
import time

import pytest

from indsat.classifier import structure_check_12, sweep
from indsat.constructions import blowup_graph, priority_position, schedule_fixes
from indsat.gatekeeper import (NONEDGE, blowup_mode, check_gatekeeper,
                               has_fixing_operation)
from indsat.graphs import (Graph, cycle_graph, emit_graph6,
                           enumerate_2cuts, find_induced, icosahedron_complement,
                           is_isomorphic, parse_graph6, path_graph, twins)
from indsat.oracles import (RATIONAL_GEOMETRIC_KIND, TORERO_KIND, UP_RIGHT_KIND,
                            grid_clique, oracle_window)
from indsat.recognizers import classify_trivial, is_permutation_graph
from indsat.verifier import (induced_saturated, is_free,
                             max_independent_in_neighborhood,
                             neighborhood_two_clique_cover,
                             replay_construction_witnesses, sample_window)
import gates
from gensmall import graphs_on, graphs_up_to

WORKERS = max(1, min(8, multiprocessing.cpu_count()))


def report(criterion: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} {detail}".rstrip())
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_icosahedron_complement_regression():
    started = time.perf_counter()
    ico = icosahedron_complement()
    p5 = path_graph(5)
    free = is_free(ico, p5)
    saturated, failing = induced_saturated(ico, p5)
    elapsed = time.perf_counter() - started
    report("1 icosahedron-complement/P5",
           free and saturated and failing is None and elapsed < 1.0,
           f"(66 pairs, {elapsed:.3f}s)")


def test_criterion_2_sweep_completeness_n8():
    started = time.perf_counter()
    lines = [emit_graph6(g) for g in graphs_up_to(8)]
    generated = time.perf_counter() - started
    assert len(lines) == 1 + 2 + 4 + 11 + 34 + 156 + 1044 + 12346

    started = time.perf_counter()
    rep = sweep(lines, n_max=8, workers=WORKERS)
    elapsed = time.perf_counter() - started
    nontrivial = rep.graphs_processed - rep.totals.get("not_applicable_trivial", 0)
    problems = gates.check_totals(rep.totals, rep.unclassified, rep.errors)
    report("2 sweep n<=8",
           rep.ok() and not problems and rep.graphs_processed == len(lines),
           f"({rep.graphs_processed} graphs, {nontrivial} non-trivial, "
           f"{'; '.join(problems) or 'pinned totals, 0 unclassified'}, "
           f"gen {generated:.0f}s + sweep {elapsed:.0f}s at {WORKERS} workers; "
           f"target 300s)")


@pytest.mark.skipif(os.environ.get("INDSAT_STRETCH") != "1",
                    reason="opt-in stretch goal; set INDSAT_STRETCH=1 (about "
                           "12 minutes on 2 CPUs: 6.5 to generate 274,668 "
                           "classes, 6 to sweep them)")
def test_criterion_2_stretch_sweep_n9():
    started = time.perf_counter()
    lines = [emit_graph6(g) for g in graphs_on(9)]
    generated = time.perf_counter() - started
    started = time.perf_counter()
    rep = sweep(lines, n_max=9, workers=WORKERS)
    elapsed = time.perf_counter() - started
    report("2s stretch sweep n=9",
           rep.ok() and not rep.errors and rep.graphs_processed == 274668,
           f"(274668 classes, 0 unclassified, gen {generated:.0f}s + sweep "
           f"{elapsed:.0f}s at {WORKERS} workers; target 3600s)")


def test_criterion_3_gatekeeper_golden_set():
    dr = parse_graph6("Dr[")
    dr_nonedges = all(check_gatekeeper(dr, p, NONEDGE) for p in dr.non_edges())
    dr_no_edge_cuts = all(not is_edge for _, is_edge, _ in enumerate_2cuts(dr))
    paths = all(has_fixing_operation(path_graph(t)).edge_witness is None
                for t in range(4, 8))
    c5 = has_fixing_operation(cycle_graph(5))
    report("3 gatekeeper golden set",
           dr_nonedges and dr_no_edge_cuts and paths and c5.both(),
           f"(Dr[ {len(dr.non_edges())} non-edges, P4..P7, C5 witnesses "
           f"{c5.edge_witness}/{c5.nonedge_witness})")


def test_criterion_4_structure_check_12(capsys):
    started = time.perf_counter()
    rep = structure_check_12(progress=True)
    elapsed = time.perf_counter() - started
    shapes = {"9x3": 8436, "8x4": 31465, "7x5": 53130, "6x6": 38760, "5x7": 11440}
    shapes_ok = rep.shapes == shapes
    # Progress goes to stderr, so `indsat structure12 --progress` keeps
    # stdout pure JSON.
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"structure12: shape {shape} done ({count} configurations)"
        for shape, count in shapes.items()]
    # 6,465 configurations lack a K_{3,3} shortcut and get the full search.
    report("4 structure12",
           rep.all_passed and not rep.counterexamples
           and rep.configurations == 143231 and shapes_ok
           and rep.k33_shortcuts == 136766 and rep.subset_searches == 6465,
           f"({rep.configurations} configurations, {elapsed:.0f}s; target 600s)")


def test_criterion_5_p4_impossibility_shadow():
    p4 = path_graph(4)
    checked = 0
    ok = True
    for g in graphs_up_to(7):
        if g.n < 2 or not is_free(g, p4):
            continue
        checked += 1
        verdict, failing = induced_saturated(g, p4)
        if verdict or failing is None:
            ok = False
            break
        u, v = failing
        tt, ft = twins(g, u)
        if v not in tt and v not in ft:
            ok = False
            break
    report("5 P4 finite-impossibility shadow", ok and checked > 200,
           f"({checked} P4-free graphs on 2..7 vertices)")


def test_criterion_6_oracle_property_suites():
    rng = random.Random(20260809)
    p4 = path_graph(4)
    grid = grid_clique(2)
    failures = []
    for i in range(1000):
        size = rng.randint(2, 10)
        torero, _ = oracle_window(TORERO_KIND, sample_window(TORERO_KIND, size, rng))
        if not is_free(torero, p4):
            failures.append(("torero", i))
        upright, _ = oracle_window(UP_RIGHT_KIND,
                                   sample_window(UP_RIGHT_KIND, size, rng))
        if is_permutation_graph(upright) is None:
            failures.append(("up_right", i))
        rg, _ = oracle_window(RATIONAL_GEOMETRIC_KIND,
                              sample_window(RATIONAL_GEOMETRIC_KIND, size, rng))
        if not all(neighborhood_two_clique_cover(rg, v) for v in range(rg.n)):
            failures.append(("rational_geometric", i))
        gw, _ = oracle_window(grid, sample_window(grid, size, rng))
        if any(max_independent_in_neighborhood(gw, v) > 2 for v in range(gw.n)):
            failures.append(("grid", i))
    report("6 oracle property suites", not failures,
           f"(4 x 1000 seeded windows, size <= 10; failures: {failures[:3]})")


def test_criterion_7_witness_replays():
    rep = replay_construction_witnesses()
    names = {s["scenario"]: s["passed"] for s in rep.scenarios}
    required = ["z3_delete_two_agreements", "torero_delete_edge",
                "rational_geometric_delete_E?qw", "rational_geometric_add_E?qw",
                "rational_geometric_delete_F?rLw", "rational_geometric_add_F?rLw",
                "rational_geometric_delete_F?S|w", "rational_geometric_add_F?S|w"]
    missing = [n for n in required if not names.get(n)]
    report("7 witness replays", rep.all_passed() and not missing,
           f"({len(rep.scenarios)} scenarios; missing: {missing})")


def test_criterion_8_blowup_shadow():
    ok = True
    checked = 0
    for h in graphs_up_to(6):
        if classify_trivial(h) != "none":
            continue
        checked += 1
        witness = None
        for e in h.edges():
            mode = blowup_mode(h, e)
            if mode is None:
                continue
            blowup = blowup_graph(h, e, mode, 3)
            if is_free(blowup, h):
                witness = (e, blowup)
                break
        if witness is None:
            ok = False
            break
        # The pair's images are vertices 0 and 1 of the blow-up.
        e, blowup = witness
        reverted = blowup.toggled(0, 1)
        anchors = {e[0]: 0, e[1]: 1}
        if find_induced(reverted, h, anchors) is None:
            ok = False
            break
    report("8 blow-up shadow", ok and checked == 197,
           f"({checked} non-trivial graphs, m = 3)")


def test_criterion_9_scheduling_determinism():
    states = schedule_fixes(path_graph(2), path_graph(4), steps=3, m=4,
                            family="twin")
    expected_g3 = Graph.from_edges(6, [(0, 1), (0, 3), (4, 3), (5, 3), (5, 1),
                                       (1, 2), (4, 1), (2, 3), (0, 4), (2, 5)])
    sequence_ok = (is_isomorphic(states[0].graph, path_graph(2))
                   and is_isomorphic(states[1].graph, cycle_graph(4))
                   and is_isomorphic(states[2].graph, expected_g3))
    enumeration = sorted(((i, j) for i in range(1, 6) for j in range(1, 6)),
                         key=lambda ij: priority_position(*ij))[:7]
    pinned = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    report("9 scheduling determinism",
           sequence_ok and enumeration == pinned,
           f"(bootstrap sequence reproduced; enumeration prefix {enumeration})")
