"""Correctness gates: the pinned numbers every workload's output must match.

Each gate returns a list of failure messages; an empty list means the
output passed.  The per-graph reference for the sweep workloads is
sweep8_cases.txt: one letter per line of the class stream, in stream order,
naming the certificate case (CASES below), upper case when the certificate
is for the complement.  Its letter counts must equal SWEEP8_TOTALS.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

SWEEP8_TOTALS = {
    "not_applicable_trivial": 15, "forest_unique_max": 100, "core_k2p": 85,
    "core_k11p": 243, "core_3conn": 8870, "core_11_bull_p4": 25,
    "close_to_permutation": 2033, "core_gatekeeper": 2219,
    "special_rational_geometric": 6, "special_z3": 2,
}
CASES = tuple(SWEEP8_TOTALS)  # letter "a" + index
REFERENCE_FILE = Path(__file__).resolve().parent / "sweep8_cases.txt"

STRUCTURE12 = {
    "configurations": 143231, "k33_shortcuts": 136766, "subset_searches": 6465,
    "shapes": {"5x7": 11440, "6x6": 38760, "7x5": 53130, "8x4": 31465, "9x3": 8436},
}

REPLAY_SCENARIOS = (
    "z3_delete_two_agreements", "torero_delete_edge",
    "rational_geometric_delete_E?qw", "rational_geometric_add_E?qw",
    "rational_geometric_delete_F?rLw", "rational_geometric_add_F?rLw",
    "rational_geometric_delete_F?S|w", "rational_geometric_add_F?S|w",
)


def case_letter(case: str, complemented: bool) -> str:
    letter = chr(ord("a") + CASES.index(case)) if case in CASES else "?"
    return letter.upper() if complemented else letter


def load_reference(count: int) -> str:
    """The reference letters; raises ValueError unless there are `count` of
    them and their totals are SWEEP8_TOTALS."""
    letters = "".join(REFERENCE_FILE.read_text().split())
    problems = check_totals(reference_totals(letters), [], [])
    if len(letters) != count:
        problems.append(f"reference has {len(letters)} letters for {count} graphs")
    if problems:
        raise ValueError("; ".join(problems))
    return letters


def reference_totals(letters: str) -> dict[str, int]:
    totals = Counter()
    for letter in letters:
        totals[CASES[ord(letter.lower()) - ord("a")]] += 1
    return dict(totals)


def check_totals(totals: dict, unclassified: list, errors: list,
                 expected: dict = SWEEP8_TOTALS) -> list[str]:
    """Sweep totals against the expected ones, with nothing unclassified and
    no errors."""
    problems = []
    for case in sorted(set(totals) | set(expected)):
        if totals.get(case, 0) != expected.get(case, 0):
            problems.append(f"{case}: {totals.get(case, 0)} != {expected.get(case, 0)}")
    if unclassified:
        problems.append(f"{len(unclassified)} unclassified")
    if errors:
        problems.append(f"{len(errors)} errors")
    return problems


def check_structure(report: dict) -> list[str]:
    """A StructureReport.to_json() against the pinned configuration counts."""
    problems = [f"{key}: {report.get(key)} != {want}"
                for key, want in STRUCTURE12.items() if report.get(key) != want]
    if report.get("counterexamples"):
        problems.append(f"{len(report['counterexamples'])} counterexamples")
    if report.get("all_passed") is not True:
        problems.append("all_passed is not true")
    return problems


def check_replay(report: dict) -> list[str]:
    """A ReplayReport.to_json(): every scenario passed, the pinned ones present."""
    passed = {s["scenario"]: s["passed"] for s in report.get("scenarios", [])}
    problems = [f"scenario {name} failed" for name, ok in passed.items() if not ok]
    problems += [f"scenario {name} missing" for name in REPLAY_SCENARIOS
                 if name not in passed]
    return problems
