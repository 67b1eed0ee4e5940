"""Outside-in spans around the library's layer functions.

`Tracer.install` replaces each function named in TRACED by a wrapper that
records a span (function, parent span, item, start, end), both in its
defining module and in every `indsat` module namespace that holds the same
object, so calls between modules are traced too.  `uninstall` restores the
originals.  Nothing here touches the library's source; the wrappers exist
only in a traced run.

Spans stay in memory.  Pool workers forked while the tracer is installed
start with an empty span list and write their spans to `spool_dir` when
they exit; `absorb_spool` merges them into the parent's lists.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Optional

# (module, attribute path) of every traced function.
TRACED = (
    ("graphs", "find_induced"), ("graphs", "is_isomorphic"),
    ("graphs", "colored_fragment_occurs"), ("graphs", "is_k_connected"),
    ("graphs", "enumerate_2cuts"), ("graphs", "parse_graph6"),
    ("graphs", "Graph.induced"),
    ("cores", "core"),
    ("recognizers", "is_permutation_graph"), ("recognizers", "close_to_permutation"),
    ("recognizers", "is_3conn_nonclique"),
    ("gatekeeper", "has_fixing_operation"),
    ("classifier", "classify"), ("classifier", "special_table"),
    ("classifier", "sweep"), ("classifier", "structure_check_12"),
    ("oracles", "oracle_window"), ("oracles", "compare_to_pi"),
    ("constructions", "schedule_fixes"), ("constructions", "fix_pair"),
    ("verifier", "pair_fixed_check"), ("verifier", "is_free"),
    ("verifier", "replay_construction_witnesses"),
)
NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

CLASSIFY = "classifier.classify"
GATEKEEPER = "gatekeeper.has_fixing_operation"
CLOSE_TO_PERM = "recognizers.close_to_permutation"
PERMUTATION = "recognizers.is_permutation_graph"
_CLASSIFY_FID = NAMES.index(CLASSIFY)


class Tracer:
    def __init__(self, spool_dir: Optional[Path] = None):
        self.spool_dir = spool_dir
        self.func = array("q")    # per span: index into NAMES
        self.parent = array("q")  # per span: parent span, or -1
        self.item = array("q")    # per span: benchmark item, or -1
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.current_item = -1
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._scope = -1          # classify span whose gatekeeper cores are in _seen
        self._seen: set = set()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, fid: int, probe: Optional[Callable]) -> Callable:
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tr.start)
            stack = tr.stack
            tr.func.append(fid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.item.append(tr.current_item)
            tr.end.append(0)
            stack.append(sid)
            tr.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[sid] = perf_counter_ns()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return traced

    def count(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def _probe_gatekeeper(self, args, result) -> None:
        # A repeat is a core graph already searched inside the same classify.
        self.count("gatekeeper.hits", result.both())
        scope = next((s for s in reversed(self.stack) if self.func[s] == _CLASSIFY_FID), -1)
        if scope == -1:
            return
        if scope != self._scope:
            self._scope, self._seen = scope, set()
        key = (args[0].n, args[0].adj)
        self.count("gatekeeper.repeats", key in self._seen)
        self._seen.add(key)

    def _probe_close_to_perm(self, args, result) -> None:
        self.count("close_to_permutation.hits", result is not None)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function; indsat must be imported already."""
        probes = {GATEKEEPER: self._probe_gatekeeper,
                  CLOSE_TO_PERM: self._probe_close_to_perm}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "indsat" or name.startswith("indsat.")]
        for fid, (mod, path) in enumerate(TRACED):
            owner = sys.modules[f"indsat.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, fid, probes.get(NAMES[fid]))
            for holder in [owner] if outer else namespaces:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)
        if self.spool_dir is not None:
            multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- pool workers ------------------------------------------------------

    def _after_fork(self) -> None:
        for arr in (self.func, self.parent, self.item, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counters.clear()
        self._scope, self._seen = -1, set()
        multiprocessing.util.Finalize(None, self._write_spool, exitpriority=100)

    def _write_spool(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}.json"
        data = {"func": self.func.tolist(), "parent": self.parent.tolist(),
                "item": self.item.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "counters": self.counters}
        path.write_text(json.dumps(data))

    def absorb_spool(self) -> int:
        """Merge and delete the span files of exited workers; returns how many."""
        files = sorted(self.spool_dir.glob("spans-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            offset = len(self.start)
            self.func.extend(data["func"])
            self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
            self.item.extend(data["item"])
            self.start.extend(data["start"])
            self.end.extend(data["end"])
            for key, value in data["counters"].items():
                self.count(key, value)
            path.unlink()
        return len(files)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """All spans as tab-separated lines: id, parent, item, function,
        start ns, end ns."""
        with path.open("w") as out:
            out.write("span\tparent\titem\tfunction\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                out.write(f"{sid}\t{self.parent[sid]}\t{self.item[sid]}\t"
                          f"{NAMES[self.func[sid]]}\t{self.start[sid]}\t{self.end[sid]}\n")

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per traced function, plus the ratios."""
        stats = layer_stats(self.func, self.parent, self.start, self.end, len(NAMES))
        out: dict[str, float] = {}
        for fid, name in enumerate(NAMES):
            calls, total, own = stats[fid]
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total / 1e9
            out[f"{name}.self_s"] = own / 1e9
        gk_calls = out[f"{GATEKEEPER}.calls"]
        out[f"{GATEKEEPER}.repeat_ratio"] = _ratio(self.counters.get("gatekeeper.repeats", 0), gk_calls)
        out[f"{GATEKEEPER}.hit_ratio"] = _ratio(self.counters.get("gatekeeper.hits", 0), gk_calls)
        out[f"{CLOSE_TO_PERM}.hit_ratio"] = _ratio(
            self.counters.get("close_to_permutation.hits", 0), out[f"{CLOSE_TO_PERM}.calls"])
        out[f"{PERMUTATION}.calls_per_graph"] = _ratio(
            out[f"{PERMUTATION}.calls"], out[f"{CLASSIFY}.calls"])
        return out


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_stats(func, parent, start, end, nfuncs: int) -> list[tuple[int, int, int]]:
    """(calls, total, self) per function index, from spans in entry order.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest, so children never overlap.  Total
    time counts only the outermost span of a function, so a function that
    reaches itself through others is not counted twice.
    """
    n = len(start)
    child_time = [0] * n
    for sid in range(n):
        p = parent[sid]
        if p >= 0:
            child_time[p] += end[sid] - start[sid]
    calls = [0] * nfuncs
    total = [0] * nfuncs
    own = [0] * nfuncs
    for sid in range(n):
        f = func[sid]
        duration = end[sid] - start[sid]
        calls[f] += 1
        own[f] += duration - child_time[sid]
        p = parent[sid]
        while p >= 0 and func[p] != f:
            p = parent[p]
        if p < 0:
            total[f] += duration
    return list(zip(calls, total, own))
