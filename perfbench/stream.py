"""The graph6 stream of every graph class on at most 8 vertices.

The stream is the benchmark's input for the sweep workloads.  It is built
here, without the library under test, by vertex augmentation: every class on
n - 1 vertices is extended by a new vertex in every possible way, candidates
are bucketed by a colour-refinement invariant, and a candidate joins the
stream only if no earlier candidate in its bucket is isomorphic to it.  Each
level is sorted by its graph6 spelling, so the stream, and its sha256, is
the same on every machine.

Building takes about 15 s on 2 CPUs; the stream is cached inside the benchmark's
directory and checked (class counts and sha256) every time it is loaded.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)  # classes on n = 1..8
STREAM_SHA256 = "29f872774e2df02954de2811b8e5ede60aeb45b9ade38450f81d25509db4e5fe"
CACHE_DIR = Path(__file__).resolve().parent / ".cache"
CACHE_FILE = CACHE_DIR / "classes_le8.g6"


class StreamError(RuntimeError):
    """The class stream does not have the pinned counts or digest."""


def graph6(n: int, adj: list[int]) -> str:
    """graph6 spelling (n <= 62): header n + 63, then the upper triangle read
    column by column in 6-bit groups."""
    out = [chr(n + 63)]
    group = filled = 0
    for v in range(1, n):
        for u in range(v):
            group = group << 1 | (adj[u] >> v & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def _colours(n: int, adj: list[int], rounds: int = 2) -> list:
    """Per-vertex colours after `rounds` of refinement, starting from degree.
    Colours are nested tuples, so they compare across graphs."""
    nbrs = [[w for w in range(n) if adj[v] >> w & 1] for v in range(n)]
    colours: list = [len(nbrs[v]) for v in range(n)]
    for _ in range(rounds):
        colours = [(colours[v], tuple(sorted(colours[w] for w in nbrs[v])))
                   for v in range(n)]
    return colours


def _isomorphic(n: int, a: list[int], ca: list, b: list[int], cb: list) -> bool:
    """Backtracking isomorphism test between graphs with equal invariants;
    vertex v of a may only map to a vertex of b with the same colour."""
    image = [0] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        # Images of v's earlier neighbours, as a bitmask over b's vertices.
        want = 0
        for u in range(v):
            if a[v] >> u & 1:
                want |= 1 << image[u]
        for w in range(n):
            if used >> w & 1 or cb[w] != ca[v]:
                continue
            if b[w] & used != want:
                continue
            image[v] = w
            if extend(v + 1, used | 1 << w):
                return True
        return False

    return extend(0, 0)


def _next_level(level: list[list[int]], n: int) -> list[list[int]]:
    """All classes on n vertices, from the classes on n - 1 vertices."""
    buckets: dict[tuple, list[tuple[list[int], list]]] = {}
    for rows in level:
        for nbhd in range(1 << (n - 1)):
            adj = list(rows) + [nbhd]
            for w in range(n - 1):
                if nbhd >> w & 1:
                    adj[w] |= 1 << (n - 1)
            colours = _colours(n, adj)
            key = (sum(bin(r).count("1") for r in adj), tuple(sorted(colours)))
            bucket = buckets.setdefault(key, [])
            if not any(_isomorphic(n, adj, colours, other, oc) for other, oc in bucket):
                bucket.append((adj, colours))
    reps = [adj for bucket in buckets.values() for adj, _ in bucket]
    reps.sort(key=lambda adj: graph6(n, adj))
    return reps


def generate() -> list[str]:
    """The stream: graph6 lines, grouped by vertex count, each group sorted."""
    level = [[0]]
    lines = [graph6(1, level[0])]
    for n in range(2, len(CLASS_COUNTS) + 1):
        level = _next_level(level, n)
        lines.extend(graph6(n, adj) for adj in level)
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def check(lines: list[str]) -> None:
    """Raise StreamError unless the stream has the pinned counts and digest."""
    counts = [0] * len(CLASS_COUNTS)
    for line in lines:
        n = ord(line[0]) - 63
        if not 1 <= n <= len(CLASS_COUNTS):
            raise StreamError(f"line {line!r} has {n} vertices")
        counts[n - 1] += 1
    if tuple(counts) != CLASS_COUNTS:
        raise StreamError(f"class counts {counts}, expected {list(CLASS_COUNTS)}")
    found = digest(lines)
    if found != STREAM_SHA256:
        raise StreamError(f"stream sha256 {found}, expected {STREAM_SHA256}")


def load() -> tuple[list[str], bool]:
    """(checked stream lines, whether they came from the cache).

    A missing or damaged cache is rebuilt; a rebuilt stream that fails its
    check raises StreamError."""
    if CACHE_FILE.exists():
        lines = CACHE_FILE.read_text().split()
        try:
            check(lines)
            return lines, True
        except StreamError:
            pass
    lines = generate()
    check(lines)
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = CACHE_FILE.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text("".join(line + "\n" for line in lines))
    os.replace(tmp, CACHE_FILE)
    return lines, False


def read_cached() -> list[str]:
    """The cached stream, unchecked; callers have run load() first."""
    return CACHE_FILE.read_text().split()
