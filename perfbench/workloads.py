"""The four workloads, written against the library's public functions.

A workload sets up its inputs (`setup`, timed as part of setup_s together
with the import of indsat) and then yields cycles.  A cycle is a sequence of
steps; a step is a callable that makes library calls through a Meter, which
times every call from outside and counts attempted and failed items.  A
measured run takes whole cycles until its time is up; a traced run takes a
fixed number of cycles (`trace_cycles`), so that a traced and an untraced
pass do the same work.

The library is reached only through attribute lookups on the `indsat`
package and its modules at call time, so the wrappers of a traced run see
every call the benchmark makes.
"""

from __future__ import annotations

import random
from itertools import count, islice
from time import perf_counter, perf_counter_ns
from typing import Callable, Iterable, Iterator

import gates
import stream

N_MAX = 8
SWEEP_WORKERS = 2
TRACE_GRAPHS_PER_SECOND = 300  # graphs per --seconds in a traced sweep run

Step = Callable[["Meter"], None]


class ItemError(Exception):
    """A library call raised; the Meter has already counted its items as failed."""


class Meter:
    """Times library calls and keeps the attempted/failed item counts."""

    MAX_PROBLEMS = 20

    def __init__(self, tracer=None):
        self.tracer = tracer  # when set, spans are tagged with the call number
        self.calls = 0
        self.intervals_ns: list[tuple[int, int]] = []  # perf_counter_ns at start and end
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, items: int, fn: Callable, *args, **kwargs):
        """fn(*args, **kwargs), timed, counting `items` attempted items."""
        self.attempted += items
        if self.tracer is not None:
            self.tracer.current_item = self.calls
        self.calls += 1
        started = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed item, not a crash
            self.fail(items, f"{fn.__name__} raised {type(exc).__name__}: {exc}")
            raise ItemError from exc
        self.intervals_ns.append((started, perf_counter_ns()))
        return result

    def fail(self, items: int, problem: str) -> None:
        self.failed += items
        if len(self.problems) < self.MAX_PROBLEMS:
            self.problems.append(problem)

    def expect(self, ok: bool, problem: str, items: int = 1) -> None:
        if not ok:
            self.fail(items, problem)


def run_cycles(cycles: Iterable[Iterable[Step]], meter: Meter, seconds: float = 0.0) -> float:
    """Run whole cycles until `seconds` have passed or the cycles run out;
    returns the elapsed wall time.  At least one cycle always runs."""
    started = perf_counter()
    for cycle in cycles:
        for step in cycle:
            try:
                step(meter)
            except ItemError:
                pass
        if seconds and perf_counter() - started >= seconds:
            break
    return perf_counter() - started


class Workload:
    name = ""
    item = ""          # what one attempted item is
    uses_stream = False
    warmup_cycles = 0  # untimed cycles before a measured run

    def setup(self, lib) -> object:
        return None

    def cycles(self, lib, inputs, seed: int) -> Iterator[Iterable[Step]]:
        raise NotImplementedError

    def trace_cycles(self, lib, inputs, seed: int, seconds: int) -> Iterator[Iterable[Step]]:
        """The fixed work of a traced run."""
        return islice(self.cycles(lib, inputs, seed), 1)


def _shuffled(n: int, seed: int) -> list[int]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


class Sweep8(Workload):
    """classify on every class with at most 8 vertices, one call per graph,
    in seed-shuffled order.  A cycle is a whole pass over the stream, so every
    run times the same graphs and a completed pass checks the pinned totals."""

    name = "sweep8"
    item = "graph (one classify call)"
    uses_stream = True

    def setup(self, lib):
        lines = stream.read_cached()
        return [lib.parse_graph6(line) for line in lines], gates.load_reference(len(lines))

    @staticmethod
    def _pass(lib, inputs, order, check_totals: bool) -> Iterator[Step]:
        graphs, reference = inputs
        totals: dict[str, int] = {}
        for index in order:
            def classify_one(meter, index=index):
                cert = meter.call(1, lib.classify, graphs[index])
                letter = gates.case_letter(cert.case, cert.complemented)
                meter.expect(letter == reference[index],
                             f"graph {index}: {letter} != {reference[index]}")
                totals[cert.case] = totals.get(cert.case, 0) + 1

            yield classify_one
        if check_totals:
            def pass_totals(meter):
                for problem in gates.check_totals(totals, [], []):
                    meter.fail(0, f"pass totals: {problem}")

            yield pass_totals

    def cycles(self, lib, inputs, seed):
        order = _shuffled(len(inputs[0]), seed)
        while True:
            yield self._pass(lib, inputs, order, True)

    def trace_cycles(self, lib, inputs, seed, seconds):
        order = _shuffled(len(inputs[0]), seed)[:TRACE_GRAPHS_PER_SECOND * seconds]
        return iter([self._pass(lib, inputs, order, len(order) == len(inputs[0]))])


class Sweep8TwoWorkers(Workload):
    """One classifier.sweep call over the whole seed-shuffled stream with 2
    workers.  A run makes exactly one call, whatever --seconds says: a call
    takes about as long as a run, and a second call in some runs only would
    change what the run measures, peak memory included."""

    name = "sweep8-2w"
    item = "graph (one sweep call over the whole stream)"
    uses_stream = True

    def setup(self, lib):
        lines = stream.read_cached()
        return lines, gates.load_reference(len(lines))

    @staticmethod
    def _sweep(lib, lines, expected) -> Step:
        def sweep_all(meter):
            report = meter.call(len(lines), lib.sweep, lines, n_max=N_MAX,
                                workers=SWEEP_WORKERS)
            problems = gates.check_totals(report.totals, report.unclassified,
                                          report.errors, expected)
            if problems:
                # Graphs missing from their expected case, unclassified or in
                # error are the failed items.
                missing = sum(max(0, want - report.totals.get(case, 0))
                              for case, want in expected.items())
                bad = missing + len(report.unclassified) + len(report.errors)
                meter.fail(min(len(lines), bad) or len(lines), "sweep: " + "; ".join(problems))
        return sweep_all

    def cycles(self, lib, inputs, seed):
        lines, _ = inputs
        shuffled = [lines[i] for i in _shuffled(len(lines), seed)]
        yield (self._sweep(lib, shuffled, gates.SWEEP8_TOTALS),)

    def trace_cycles(self, lib, inputs, seed, seconds):
        lines, reference = inputs
        order = _shuffled(len(lines), seed)[:TRACE_GRAPHS_PER_SECOND * seconds]
        expected = gates.reference_totals("".join(reference[i] for i in order))
        return iter([(self._sweep(lib, [lines[i] for i in order], expected),)])


class Structure12(Workload):
    """One structure_check_12() call (143,231 configurations) per run; no
    input, no seed."""

    name = "structure12"
    item = "configuration (one structure_check_12 call)"

    def cycles(self, lib, inputs, seed):
        yield (lambda meter: self._check(lib, meter),)

    @staticmethod
    def _check(lib, meter):
        configurations = gates.STRUCTURE12["configurations"]
        report = meter.call(configurations, lib.structure_check_12).to_json()
        problems = gates.check_structure(report)
        if problems:
            bad = len(report["counterexamples"]) or configurations
            meter.fail(bad, "structure12: " + "; ".join(problems))


# Prefix families for construct-verify: (family, seed graph, pattern H, m).
# m is fixed per family so that each schedule passes a prefix of 47-51
# vertices whose ledger pairs all pass the budget-2 check.
PREFIX_CASES = (
    ("twin", "P2", "P4", 2),
    ("gatekeeper", "P3", "C5", 3),
    ("gatekeeper", "P2", "Dr[", 2),
    ("k2p", "P2", "K23", 4),
    ("k11p", "P3", "K113", 3),
)
PREFIX_STEPS = 200        # more than any family needs to reach the 64-vertex cap
BUDGET2_VERTICES = range(47, 52)
BUDGET2_TRIALS = 20
WINDOW_SIZES = range(2, 11)
WINDOWS_PER_KIND = 56 * len(WINDOW_SIZES)  # every size equally often


class ConstructVerify(Workload):
    """A cycle schedules the five prefixes, then runs in seed-shuffled order:
    is_free on every prefix graph, a budget-0 pair_fixed_check on every
    ledger pair of each final prefix, one budget-2 pair_fixed_check with
    seeded trials per family, the seeded oracle window property checks and
    the witness replays.  Shuffling spreads each kind of check over the
    whole cycle, so its latencies sample the whole run."""

    name = "construct-verify"
    item = "check call"
    # The first cycle in a process runs its large checks about a quarter
    # slower than later ones (the heap is still growing), which moved p99.
    warmup_cycles = 1

    def setup(self, lib):
        g = lib.graphs
        graphs = {"P2": g.path_graph(2), "P3": g.path_graph(3), "P4": g.path_graph(4),
                  "C5": g.cycle_graph(5), "Dr[": lib.parse_graph6("Dr["),
                  "K23": g.complete_multipartite(2, 3),
                  "K113": g.complete_multipartite(1, 1, 3)}
        o, v = lib.oracles, lib.verifier
        p4 = graphs["P4"]
        windows = (
            (o.TORERO_KIND, lambda w: lib.is_free(w, p4)),
            (o.UP_RIGHT_KIND, lambda w: lib.is_permutation_graph(w) is not None),
            (o.RATIONAL_GEOMETRIC_KIND,
             lambda w: all(v.neighborhood_two_clique_cover(w, x) for x in range(w.n))),
            (o.grid_clique(2),
             lambda w: all(v.max_independent_in_neighborhood(w, x) <= 2 for x in range(w.n))),
        )
        return graphs, windows

    def cycles(self, lib, inputs, seed):
        for cycle in count():
            yield self._cycle(lib, inputs, random.Random(seed * 1_000_003 + cycle))

    def trace_cycles(self, lib, inputs, seed, seconds):
        return islice(self.cycles(lib, inputs, seed), min(3, max(1, seconds // 8)))

    @staticmethod
    def _cycle(lib, inputs, rng) -> Iterator[Step]:
        graphs, windows = inputs
        prefixes: dict[str, list] = {}

        def schedule(meter):
            for family, start, pattern, m in PREFIX_CASES:
                prefixes[pattern] = meter.call(1, lib.schedule_fixes, graphs[start],
                                               graphs[pattern], steps=PREFIX_STEPS,
                                               m=m, family=family)

        yield schedule

        def check(fn, args, kwargs, ok, problem) -> Step:
            return lambda meter: meter.expect(ok(meter.call(1, fn, *args, **kwargs)), problem)

        def window_check(kind, prop, vertices):
            window, _ = lib.oracle_window(kind, vertices)
            return prop(window)

        def passed(result):
            return result.passed()

        window_check.__name__ = "oracle_window"
        steps = []
        for _, _, pattern, _ in PREFIX_CASES:
            h = graphs[pattern]
            states = prefixes.get(pattern)
            if not states:
                steps.append(lambda meter, p=pattern: meter.fail(1, f"{p}: no prefix"))
                continue
            steps += [check(lib.is_free, (s.graph, h), {}, bool,
                            f"{pattern}: prefix on {s.graph.n} vertices contains H")
                      for s in states]
            final = states[-1]
            steps += [check(lib.pair_fixed_check, (final.graph, h, rec.pair), {}, passed,
                            f"{pattern}: ledger pair {rec.pair} fails at budget 0")
                      for rec in final.fixed_ledger]
            mid = [s for s in states if s.graph.n in BUDGET2_VERTICES and s.fixed_ledger]
            if not mid:
                steps.append(lambda meter, p=pattern: meter.fail(1, f"{p}: no 47-51 prefix"))
                continue
            # Every cycle and seed checks the same pair, so that cycles are
            # alike whatever their number; the seed draws the trial sets.
            pair = mid[0].fixed_ledger[0].pair
            steps.append(check(lib.pair_fixed_check, (mid[0].graph, h, pair),
                               {"adversary_budget": 2, "trials": BUDGET2_TRIALS,
                                "seed": rng.randrange(1 << 30)},
                               passed, f"{pattern}: pair {pair} fails at budget 2"))
        for kind, prop in windows:
            for i in range(WINDOWS_PER_KIND):
                vertices = lib.verifier.sample_window(kind, WINDOW_SIZES[i % len(WINDOW_SIZES)],
                                                      rng)
                steps.append(check(window_check, (kind, prop, vertices), {}, bool,
                                   f"{kind.tag} window fails its property"))
        steps.append(check(lib.replay_construction_witnesses, (), {},
                           lambda report: not gates.check_replay(report.to_json()),
                           "replay: a scenario failed or is missing"))
        rng.shuffle(steps)
        yield from steps


WORKLOADS = {w.name: w for w in (Sweep8(), Sweep8TwoWorkers(), Structure12(),
                                 ConstructVerify())}
