"""Test-support access to the small graph classes.

Every class on at most 8 vertices comes from the benchmark's pinned stream
(`perfbench/stream.py`), which is built without the library under test and
checked against its class counts and sha256 whenever it is loaded.  The
9-vertex classes, used only by the opt-in stretch sweep, extend the 8-vertex
level with the same generator.
"""

from __future__ import annotations

from functools import lru_cache

import stream

from indsat.graphs import Graph, parse_graph6


@lru_cache(maxsize=None)
def graphs_on(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on exactly n vertices (1 <= n <= 9), in stream order."""
    if n == len(stream.CLASS_COUNTS) + 1:
        rows = [g.adj for g in graphs_on(n - 1)]
        return tuple(Graph(n, adj) for adj in stream._next_level(rows, n))
    if not 1 <= n <= len(stream.CLASS_COUNTS):
        raise ValueError(f"no pinned classes on {n} vertices")
    lines, _ = stream.load()
    return tuple(parse_graph6(line) for line in lines if ord(line[0]) - 63 == n)


def graphs_up_to(n_max: int):
    for n in range(1, n_max + 1):
        yield from graphs_on(n)
