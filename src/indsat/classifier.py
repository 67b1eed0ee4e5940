"""The decision pipeline: which construction applies to a graph H.

Checks run on H first and then on its complement, in the order of `STEPS`:
the trivial test (clique or independent set); forest with unique maximum
degree; 2-core K_{2,p} / K_{1,1,p}; 3-core or 3*-core 3-connected
non-clique; (1,1)-core bull or P4; close to a permutation graph; gatekeeper
fixing operations on four cores; and an isomorphism match against the
special table.  The first hit wins, which makes certificates deterministic.

Two seven-vertex spellings, F?q|w and F?rLw, circulate for the third
rational-geometric graph.  They are complements of each other, so the
special table stores F?rLw alone and matches by isomorphism; F?q|w, like
every complement of a stored graph, is matched on the walk over the complement.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from . import cores
from .gatekeeper import has_fixing_operation
from .graphs import (ASCII_WHITESPACE, Graph, Graph6Error, _cuts, complement,
                     components_within, emit_graph6, is_isomorphic, parse_graph6)
from .recognizers import (TRIVIAL_NONE, classify_trivial, close_to_permutation,
                          forest_unique_max, is_bull_or_p4, is_3conn_nonclique,
                          match_k2p_k11p)

NOT_APPLICABLE_TRIVIAL = "not_applicable_trivial"
FOREST_UNIQUE_MAX = "forest_unique_max"
CORE_K2P = "core_k2p"
CORE_K11P = "core_k11p"
CORE_3CONN = "core_3conn"
CORE_11_BULL_P4 = "core_11_bull_p4"
CLOSE_TO_PERMUTATION = "close_to_permutation"
CORE_GATEKEEPER = "core_gatekeeper"
SPECIAL_RATIONAL_GEOMETRIC = "special_rational_geometric"
SPECIAL_Z3 = "special_z3"
THEOREM_VIOLATION = "theorem_violation"
UNCLASSIFIED = "unclassified"

# The eight special graphs through four base spellings, as (key, case, graph)
# parsed once at import; the walk over the complement matches the other four.
# F?rLw, not its complement F?q|w, is stored because the replay witnesses
# (verifier._WINDOW_SCENARIOS, matched by a test) exist for that orientation.
_SPECIAL_GRAPHS = tuple((key, case, parse_graph6(key)) for key, case in (
    ("E?qw", SPECIAL_RATIONAL_GEOMETRIC),
    ("F?rLw", SPECIAL_RATIONAL_GEOMETRIC),
    ("F?S|w", SPECIAL_RATIONAL_GEOMETRIC),
    ("F?q~w", SPECIAL_Z3)))


def special_table(h: Graph) -> Optional[tuple[str, str]]:
    """(key, case) if h is isomorphic to one of the four stored graphs."""
    for key, case, base in _SPECIAL_GRAPHS:
        if is_isomorphic(h, base):
            return key, case
    return None


@dataclass(frozen=True)
class Certificate:
    input: str  # graph6 of the classified graph
    case: str
    complemented: bool
    witness: dict
    timings: Optional[dict] = None

    def to_json(self, with_timings: bool = True) -> dict:
        out = {"input": self.input, "case": self.case,
               "complemented": self.complemented, "witness": self.witness}
        if with_timings and self.timings is not None:
            out["timings"] = self.timings
        return out


# Each check is a function of one graph: (case, witness fields) on a hit, else a
# falsy value.  It looks layer functions up when it runs, so rebinding one reaches it.
def _trivial(g: Graph):
    kind = classify_trivial(g)
    witness = {"kind": kind, "degenerate": True} if g.n <= 2 else {"kind": kind}
    return kind != TRIVIAL_NONE and (NOT_APPLICABLE_TRIVIAL, witness)


def _forest(g: Graph):
    hit = forest_unique_max(g)
    return hit and (FOREST_UNIQUE_MAX, {"center": hit[0], "max_degree": hit[1]})


def _k2p_k11p(g: Graph):
    match = match_k2p_k11p(g)
    return match and (CORE_K2P if match[0] == "k2p" else CORE_K11P, {"p": match[1]})


def _3conn(g: Graph):
    return is_3conn_nonclique(g) and (CORE_3CONN, {})


def _bull_p4(g: Graph):
    return is_bull_or_p4(g) and (CORE_11_BULL_P4, {"shape": "p4" if g.n == 4 else "bull"})


def _close_to_permutation(g: Graph):
    ctp = close_to_permutation(g)
    return ctp and (CLOSE_TO_PERMUTATION, {"delete_edge": list(ctp[0]),
                                           "add_nonedge": list(ctp[1])})


def _gatekeeper(g: Graph):
    gk = has_fixing_operation(g)
    return gk.both() and (CORE_GATEKEEPER, {
        "edge_witness": list(gk.edge_witness), "nonedge_witness": list(gk.nonedge_witness),
        "edge_mode": gk.edge_mode, "nonedge_mode": gk.nonedge_mode})


def _special(g: Graph):
    match = special_table(g)
    return match and (match[1], {"table_key": match[0]})


# The checks on one orientation, in order: (core kind, check) runs the check on
# that core of the orientation, or on the orientation itself when the kind is None.
STEPS = ((None, _trivial), (None, _forest), (cores.TWO, _k2p_k11p),
         (cores.THREE, _3conn), (cores.THREE_STAR, _3conn),
         (cores.ONE_ONE, _bull_p4), (None, _close_to_permutation),
         (cores.TWO, _gatekeeper), (cores.THREE, _gatekeeper),
         (cores.TWO_EDGE, _gatekeeper), (cores.TWO_NONEDGE, _gatekeeper),
         (None, _special))


# The table of check outcomes that the classify calls of one process share
# during a sweep (see `sweep`); None outside a sweep.
_sweep_outcomes: Optional[dict] = None
_OUTCOMES_KEPT = 1 << 15  # above the 21,484 keys of a one-worker n <= 8 sweep


def _first_case(target: Graph, steps=STEPS) -> Optional[tuple[str, dict]]:
    """(case, witness) of the first step that fires on one orientation.  Each
    core is peeled once.  A check's answer on a core, hit or miss, is a function
    of the core's rows; it is kept by (check, rows), in the sweep's table or
    else in one of this walk's own, and not computed again."""
    peeled, outcomes = {}, {} if _sweep_outcomes is None else _sweep_outcomes
    for kind, check in steps:
        if kind is None:
            if hit := check(target):
                return hit
            continue
        core = peeled.get(kind)
        if core is None:
            core = peeled[kind] = cores.core(target, kind)
        key = (check, core.graph.adj)  # the rows determine the graph and hash in C
        if key not in outcomes:
            if len(outcomes) >= _OUTCOMES_KEPT:
                outcomes.clear()
            outcomes[key] = check(core.graph)
        if hit := outcomes[key]:
            return hit[0], {"core_kind": cores.core_name(kind), **core.to_json(), **hit[1]}
    return None


def classify(h: Graph) -> Certificate:
    """Certificate naming the first construction that applies to h.

    The paper puts a graph on at least 12 vertices, or its complement, in one
    of the first four cases.  Only less is checked: such a graph that no case
    or special graph matches is reported as a theorem violation.
    """
    if h.n == 0:
        raise ValueError("classify needs at least one vertex")
    started = time.perf_counter()
    for complemented, target in ((False, h), (True, complement(h))):
        hit = _first_case(target)
        if hit is not None:
            break
    else:
        complemented = False
        hit = ((THEOREM_VIOLATION, {"note": "no structural case fired on either orientation"})
               if h.n >= 12 else (UNCLASSIFIED, {}))
    case, witness = hit
    return Certificate(emit_graph6(h), case, complemented, witness,
                       {"seconds": time.perf_counter() - started})


def replay_certificate(cert: Certificate) -> bool:
    """Classify the certificate's graph again; True iff the fresh certificate
    equals the stored one, timings aside.  The first case to fire is the
    only valid one, so a certificate naming any other case is rejected."""
    fresh = classify(parse_graph6(cert.input))
    return fresh.to_json(with_timings=False) == cert.to_json(with_timings=False)


# ---------------------------------------------------------------------------
# Sweep over an externally generated canonical graph6 stream.


@dataclass
class SweepReport:
    n_max: int
    totals: dict = field(default_factory=dict)
    unclassified: list = field(default_factory=list)  # graph6 strings
    errors: list = field(default_factory=list)        # (line number, message)
    graphs_processed: int = 0

    def ok(self) -> bool:
        return not self.unclassified

    def to_json(self) -> dict:
        return {"n_max": self.n_max,
                "totals": dict(sorted(self.totals.items())),
                "unclassified": list(self.unclassified),
                "errors": [[ln, msg] for ln, msg in self.errors],
                "graphs_processed": self.graphs_processed,
                "ok": self.ok()}


def read_graph6_line(line: str) -> tuple[Optional[Graph], str]:
    """(graph, "") for a graph6 line, ASCII whitespace around it ignored as
    `parse_graph6` does; (None, "") for a blank line, which holds only that
    whitespace; (None, why) for a malformed line or the graph on 0 vertices."""
    if not line.strip(ASCII_WHITESPACE):
        return None, ""
    try:
        g = parse_graph6(line)
    except Graph6Error as exc:
        return None, str(exc)
    return (g, "") if g.n else (None, "graph on 0 vertices")


def _sweep_line(job: tuple[int, str, int]) -> tuple[int, str, str, str]:
    """Worker: (lineno, line, n_max) -> (lineno, status, case, payload); the
    payload is the graph6 of an unclassified graph, or why a line is in error."""
    lineno, line, n_max = job
    g, why = read_graph6_line(line)
    if g is None:
        return lineno, "error" if why else "blank", "", why
    if g.n > n_max:
        return lineno, "error", "", f"graph on {g.n} vertices exceeds nmax {n_max}"
    cert = classify(g)
    if cert.case in (UNCLASSIFIED, THEOREM_VIOLATION):
        return lineno, "unclassified", cert.case, cert.input
    return lineno, "ok", cert.case, ""


def sweep(lines: Iterable[str], n_max: int, workers: int = 1) -> SweepReport:
    """Classify every graph6 line; malformed lines and graphs on 0 vertices are
    reported and the sweep continues.  The classify calls of each process share
    one table of check outcomes on core graphs, for this call only, keyed by
    the core's rows and cleared when full, so a core met again is not checked
    again.  An outcome depends on those rows alone, so every certificate is the
    one a lone classify call gives, whichever process or line met a core first:
    the report is invariant under worker count and line order."""
    global _sweep_outcomes
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    jobs = [(lineno, line, n_max) for lineno, line in enumerate(lines, start=1)]
    report = SweepReport(n_max=n_max)
    _sweep_outcomes = {}  # before the pool forks: each worker starts empty
    try:
        if workers == 1:
            results = list(map(_sweep_line, jobs))
        else:
            import multiprocessing

            pool = multiprocessing.Pool(workers)
            try:
                results = pool.map(_sweep_line, jobs, chunksize=64)
            finally:
                pool.close()
                pool.join()
    finally:
        _sweep_outcomes = None
    for lineno, status, case, payload in results:
        if status == "error":
            report.errors.append((lineno, payload))
        if status in ("error", "blank"):
            continue
        report.graphs_processed += 1
        report.totals[case] = report.totals.get(case, 0) + 1
        if status == "unclassified":
            report.unclassified.append(payload)
    report.unclassified.sort()
    return report


# ---------------------------------------------------------------------------
# The 12-vertex bipartite structure check.


@dataclass
class StructureReport:
    configurations: int = 0
    shapes: dict = field(default_factory=dict)  # "|A|x|B|" -> count
    k33_shortcuts: int = 0
    subset_searches: int = 0
    counterexamples: list = field(default_factory=list)
    all_passed: bool = True

    def to_json(self) -> dict:
        return {"configurations": self.configurations,
                "shapes": dict(sorted(self.shapes.items())),
                "k33_shortcuts": self.k33_shortcuts,
                "subset_searches": self.subset_searches,
                "counterexamples": self.counterexamples,
                "all_passed": self.all_passed}


def _bipartite_graph(a_size: int, missed: Sequence[tuple[int, int]]) -> Graph:
    """A-vertices 0..a_size-1; B-vertex i misses exactly missed[i] in A."""
    a_rows = [(1 << len(missed)) - 1 << a_size] * a_size
    for i, pair in enumerate(missed):
        for a in pair:
            a_rows[a] &= ~(1 << a_size + i)
    b_rows = [(1 << a_size) - 1 & ~(1 << u | 1 << v) for u, v in missed]
    return Graph._derived(a_size + len(missed), a_rows + b_rows)


def _3conn_within(g: Graph, allowed: int) -> bool:
    """Does g[allowed] have a 3-connected induced subgraph on at least 5 vertices?

    A 3-connected H has minimum degree >= 3, so H lies in the 3-core of
    g[allowed].  If that core has a separator S of at most 2 vertices, H - S
    is still connected, so H lies in C + S for one component C of core - S;
    each such piece is smaller than the core, so the recursion ends.
    """
    adj = g.adj
    peeled = True
    while peeled:
        peeled = False
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & allowed).bit_count() < 3:
                allowed ^= low
                peeled = True
    if allowed.bit_count() < 5:
        return False
    cut = next(_cuts(g, allowed, 3), None)
    if cut is None:
        return True
    return any(_3conn_within(g, piece | cut) for piece in components_within(g, allowed & ~cut))


def structure_check_12(progress: bool = False) -> StructureReport:
    """Every split |A|+|B| = 12 (|A| >= 5, |B| >= 3) with each B-vertex
    missing exactly two A-vertices, B-side multisets reduced by symmetry,
    must contain a 3-connected induced subgraph on at least 5 vertices.

    Configurations, non-decreasing sequences of |B| of the P = C(|A|, 2) pairs
    of A, are walked depth first in lexicographic order.  Lemma: if the pair
    appended at index i leaves a 3-connected induced K_{3,3} with two earlier
    pairs (all three cover at most |A| - 3 A-vertices), so does every completion:
    all C(P - i + r - 1, r) of them, r B-vertices left, count as shortcuts unvisited.
    """
    report = StructureReport()
    for a_size in range(9, 4, -1):
        b_size = 12 - a_size
        pairs = list(combinations(range(a_size), 2))
        masks = [1 << u | 1 << v for u, v in pairs]
        # shortcut[k]: the unions x | y of two pairs that make a shortcut with pairs[k].
        shortcut = [{x | y for x in masks for y in masks
                     if (x | y | z).bit_count() <= a_size - 3} for z in masks]

        def walk(start: int, chosen: list[int], unions: list[int]) -> None:
            left = b_size - len(chosen) - 1
            for i in range(start, len(pairs)):
                if not shortcut[i].isdisjoint(unions):
                    report.k33_shortcuts += comb(len(pairs) - i + left - 1, left)
                elif left:
                    walk(i, chosen + [i], unions + [masks[i] | masks[j] for j in chosen])
                else:
                    report.subset_searches += 1
                    missed = [pairs[j] for j in chosen + [i]]
                    if not _3conn_within(_bipartite_graph(a_size, missed), (1 << 12) - 1):
                        report.all_passed = False
                        report.counterexamples.append(
                            {"a_size": a_size, "missed": [list(p) for p in missed]})

        walk(0, [], [])
        shape, seen = f"{a_size}x{b_size}", report.k33_shortcuts + report.subset_searches
        report.shapes[shape] = seen - report.configurations
        report.configurations = seen
        if progress:
            print(f"structure12: shape {shape} done ({report.shapes[shape]} configurations)",
                  file=sys.stderr)
    return report
