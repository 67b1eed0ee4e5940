"""Print sha256 digests over the certificates of two fixed graph lists, and
over the core traces of the small stream classes.

    PYTHONPATH=src python3 tests/certdigest.py

For each graph, in list order, a digest is fed
`json.dumps(classify(g).to_json(with_timings=False), sort_keys=True)`
followed by a newline.  Two commits whose certificates are byte-identical
print the same digests.  The first list is the pinned stream of 13,598
classes on at most 8 vertices (about one classify pass, 7-9 s on 2 CPUs);
the second, `large_lines()`, is a seeded set on 9 to 40 vertices that the
stream cannot reach, where a search order or vertex mask can matter.  The
third digest, `trace_digest`, is fed `json.dumps(core(g, kind).to_json(),
sort_keys=True)` and a newline for every stream class on at most 7 vertices,
in stream order, under each kind of `TRACE_KINDS`: 8,764 cores, which fire
every removal rule.  The script is not collected by pytest;
`tests/test_classifier.py` pins the first two digests through
`certificate_digest`, and `tests/test_cores.py` pins the third.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import stream  # noqa: E402

from indsat import cores  # noqa: E402
from indsat.classifier import classify  # noqa: E402
from indsat.graphs import Graph, cycle_graph, emit_graph6, parse_graph6, path_graph  # noqa: E402
from oracles_naive import random_graph  # noqa: E402


def certificate_digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        cert = classify(parse_graph6(line)).to_json(with_timings=False)
        digest.update(json.dumps(cert, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


TRACE_KINDS = (cores.TWO, cores.THREE, cores.THREE_STAR, cores.ONE_ONE,
               cores.TWO_EDGE, cores.TWO_NONEDGE, cores.kl_core(2, 1))


def trace_digest(lines) -> str:
    """Digest of every core of every graph on at most 7 vertices in `lines`."""
    digest = hashlib.sha256()
    for line in lines:
        g = parse_graph6(line)
        if g.n > 7:
            continue
        for kind in TRACE_KINDS:
            result = cores.core(g, kind).to_json()
            digest.update(json.dumps(result, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def large_lines() -> list[str]:
    """graph6 of C9..C40, P12..P40, C5 plus 7..35 isolated vertices, then
    G(n, p) for n = 12..40 and p = 0.15, 0.5, 0.85 from one seeded rng."""
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    graphs = ([cycle_graph(k) for k in range(9, 41)]
              + [path_graph(k) for k in range(12, 41)]
              + [Graph.from_edges(5 + k, c5) for k in range(7, 36)])
    rng = random.Random(2425)
    graphs += [random_graph(rng, n, p) for n in range(12, 41) for p in (0.15, 0.5, 0.85)]
    return [emit_graph6(g) for g in graphs]


if __name__ == "__main__":
    lines, _ = stream.load()
    print(certificate_digest(lines))
    print(certificate_digest(large_lines()))
    print(trace_digest(lines))
