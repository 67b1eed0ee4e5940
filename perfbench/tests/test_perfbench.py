"""Tests of the benchmark itself: span arithmetic, correctness gates, the
tracer's transparency, the stream generator and BENCHMARK.json's metric lists.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path
from time import perf_counter_ns

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import indsat  # noqa: E402
import run  # noqa: E402
import stream  # noqa: E402
from speed import NOMINAL_NS, WINDOW, RefClock  # noqa: E402
from tracer import NAMES, Tracer, layer_stats  # noqa: E402


def small_classes(n_max: int = 6) -> list[str]:
    level, lines = [[0]], [stream.graph6(1, [0])]
    for n in range(2, n_max + 1):
        level = stream._next_level(level, n)
        lines += [stream.graph6(n, adj) for adj in level]
    return lines


# -- span arithmetic ---------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # f0 [0,100] holds f1 [10,40] (holding f2 [15,25]) and f1 [50,90]
    # (holding a nested f1 [60,70]).
    func = [0, 1, 2, 1, 1]
    parent = [-1, 0, 1, 0, 3]
    start = [0, 10, 15, 50, 60]
    end = [100, 40, 25, 90, 70]
    stats = layer_stats(func, parent, start, end, 3)
    assert stats[0] == (1, 100, 100 - 30 - 40)
    # f1: self (30-10) + (40-10) + 10; total counts only the outermost f1 spans.
    assert stats[1] == (3, 30 + 40, 20 + 30 + 10)
    assert stats[2] == (1, 10, 10)


def test_self_times_add_up_to_root_duration():
    func = [0, 1, 1, 2]
    parent = [-1, 0, 0, 2]
    start = [0, 5, 20, 22]
    end = [50, 15, 45, 30]
    stats = layer_stats(func, parent, start, end, 3)
    assert sum(own for _, _, own in stats) == 50


# -- the reference-speed clock ----------------------------------------------

def synthetic_clock(took: list[int], gap: int) -> RefClock:
    """Samples taking `took` ns each, with `gap` ns of workload between them."""
    clock = RefClock()
    t = 0
    for duration in took:
        clock.starts.append(t)
        clock.ends.append(t + duration)
        t += duration + gap
    clock.fit()
    return clock


def test_ref_clock_divides_by_slowness_and_leaves_out_samples():
    # The machine runs at half the nominal speed throughout.
    clock = synthetic_clock([2 * NOMINAL_NS] * 20, 10**8)
    assert clock.slowness() == 2.0
    start = clock.ends[3] + 10**7
    end = clock.starts[9] - 10**7       # five samples lie in between
    wall_work = end - start - 5 * 2 * NOMINAL_NS
    assert clock.ref_ns(end) - clock.ref_ns(start) == pytest.approx(wall_work / 2)
    # A reading inside a sample counts as the sample's start.
    assert clock.ref_ns(clock.starts[5] + 1) == clock.ref_ns(clock.ends[5]) \
        == pytest.approx(clock.ref_ns(clock.starts[5]))


def test_ref_clock_follows_a_change_of_speed():
    half = 3 * WINDOW
    clock = synthetic_clock([NOMINAL_NS] * half + [3 * NOMINAL_NS] * half, 10**8)
    fast = clock.ref_ns(clock.starts[2]) - clock.ref_ns(clock.ends[1])
    slow = clock.ref_ns(clock.starts[-2]) - clock.ref_ns(clock.ends[-3])
    assert fast == pytest.approx(10**8)
    assert slow == pytest.approx(10**8 / 3)


def test_ref_clock_samples_while_work_runs():
    clock = RefClock().start()
    try:
        deadline = clock.starts[-1] + 5 * 10**8
        while perf_counter_ns() < deadline:
            sum(i * i for i in range(1000))
    finally:
        clock.stop()
    # start() and stop() take WINDOW samples between them; the timer, about
    # five in half a second.
    assert clock.samples() - WINDOW >= 3
    assert clock.ref_ns(clock.ends[-1]) > 0


# -- correctness gates -------------------------------------------------------

def test_sweep_gate_accepts_pinned_totals_and_rejects_a_wrong_one():
    assert gates.check_totals(dict(gates.SWEEP8_TOTALS), [], []) == []
    wrong = dict(gates.SWEEP8_TOTALS, core_3conn=8869)
    assert gates.check_totals(wrong, [], [])
    assert gates.check_totals(dict(gates.SWEEP8_TOTALS), ["G?????"], [])
    assert gates.check_totals(dict(gates.SWEEP8_TOTALS), [], [(3, "bad line")])


def test_structure_gate_rejects_wrong_counts():
    good = {"configurations": 143231, "k33_shortcuts": 136766, "subset_searches": 6465,
            "shapes": dict(gates.STRUCTURE12["shapes"]), "counterexamples": [],
            "all_passed": True}
    assert gates.check_structure(good) == []
    assert gates.check_structure(dict(good, configurations=143230))
    assert gates.check_structure(dict(good, shapes=dict(good["shapes"], **{"6x6": 1})))
    assert gates.check_structure(dict(good, all_passed=False))
    assert gates.check_structure(dict(good, counterexamples=[{"a_size": 5}]))


def test_replay_gate_rejects_failed_or_missing_scenarios():
    good = {"scenarios": [{"scenario": s, "passed": True} for s in gates.REPLAY_SCENARIOS]}
    assert gates.check_replay(good) == []
    failed = {"scenarios": [dict(s, passed=s["scenario"] != "torero_delete_edge")
                            for s in good["scenarios"]]}
    assert gates.check_replay(failed)
    assert gates.check_replay({"scenarios": good["scenarios"][1:]})


def test_reference_totals_are_the_pinned_totals():
    letters = gates.load_reference(sum(stream.CLASS_COUNTS))
    assert gates.reference_totals(letters) == gates.SWEEP8_TOTALS
    with pytest.raises(ValueError):
        gates.load_reference(sum(stream.CLASS_COUNTS) - 1)


def test_case_letters_distinguish_orientation():
    assert gates.case_letter("core_3conn", False) == "e"
    assert gates.case_letter("core_3conn", True) == "E"
    assert gates.case_letter("unclassified", False) == "?"


# -- the tracer --------------------------------------------------------------

def certificates(lines):
    return [json.dumps(indsat.classify(indsat.parse_graph6(line)).to_json(with_timings=False))
            for line in lines]


def test_wrappers_leave_classify_output_unchanged():
    lines = small_classes(6) + ["E?qw", "F?rLw", "F?S|w", "F?q~w", "F?q|w", "Dr["]
    plain = certificates(lines)
    tracer = Tracer()
    original = indsat.classify
    tracer.install()
    try:
        assert indsat.classify is not original
        assert indsat.classifier.classify is indsat.classify
        assert indsat.find_induced is indsat.graphs.find_induced is indsat.verifier.find_induced
        traced = certificates(lines)
    finally:
        tracer.uninstall()
    assert indsat.classify is original
    assert traced == plain
    metrics = tracer.layer_metrics()
    assert metrics["classifier.classify.calls"] == len(lines)
    assert metrics["graphs.parse_graph6.calls"] >= len(lines)
    assert 0 <= metrics["gatekeeper.has_fixing_operation.repeat_ratio"] < 1


def test_worker_spans_come_back_from_the_pool(tmp_path):
    lines = small_classes(5)
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        report = indsat.sweep(lines, n_max=5, workers=2)
    finally:
        tracer.uninstall()
    assert tracer.absorb_spool() >= 1
    assert report.graphs_processed == len(lines)
    metrics = tracer.layer_metrics()
    assert metrics["classifier.sweep.calls"] == 1
    assert metrics["classifier.classify.calls"] == len(lines)
    assert not list(tmp_path.iterdir())


# -- the stream and the metric lists ------------------------------------------

def test_stream_generator_counts_and_graph6():
    lines = small_classes(6)
    counts = [sum(1 for line in lines if ord(line[0]) - 63 == n) for n in range(1, 7)]
    assert tuple(counts) == stream.CLASS_COUNTS[:6]
    assert all(indsat.emit_graph6(indsat.parse_graph6(line)) == line for line in lines)
    with pytest.raises(stream.StreamError):
        stream.check(lines)


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = set(Tracer().layer_metrics()) | {"trace.overhead_s", "trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert len(NAMES) * 3 + 6 == len(spec["per_layer"])
