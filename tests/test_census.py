"""The small-H saturation census: for each non-trivial H (neither a clique
nor an independent set) on 3 to 5 vertices, how many of the 13,598 classes
on at most 8 vertices are H-induced-saturated.

A count of 0 says only that no host exists on at most 8 vertices; for P4
the paper proves that no finite host exists at all.  H on 3-4 vertices takes
a few seconds; H on 5 vertices runs with INDSAT_STRETCH=1 (about 40 s on
2 CPUs).
"""

from __future__ import annotations

import os
import random
from functools import lru_cache

import pytest
from gensmall import graphs_on, graphs_up_to
from oracles_naive import naive_induced_saturated

from indsat.graphs import complement, emit_graph6, is_isomorphic, parse_graph6, path_graph
from indsat.recognizers import TRIVIAL_NONE, classify_trivial
from indsat.verifier import induced_saturated

# graph6 of H (as the pinned stream spells it) -> hosts on at most 8 vertices.
CENSUS_3_4 = {
    "BO": 17,  # K2+K1
    "BW": 17,  # P3
    "CC": 7,   # K2+2K1
    "C^": 7,   # K4 - e
    "CE": 3,   # P3+K1
    "CV": 3,   # paw
    "CU": 0,   # P4: none on <= 8 vertices (the paper: no finite host)
    "CQ": 0,   # 2K2: none on <= 8 vertices
    "C]": 0,   # C4: none on <= 8 vertices
    "CF": 0,   # claw: none on <= 8 vertices
    "CT": 0,   # K3+K1: none on <= 8 vertices
}
# On 5 vertices only K2+3K1 and K5 - e have a host on at most 8 vertices.
CENSUS_5_WITH_HOSTS = {"D?_": 5, "D^{": 5}


def _nontrivial(n: int) -> list[str]:
    return [emit_graph6(h) for h in graphs_on(n) if classify_trivial(h) == TRIVIAL_NONE]


@lru_cache(maxsize=None)
def _hosts(key: str) -> tuple:
    h = parse_graph6(key)
    return tuple(g for g in graphs_up_to(8) if induced_saturated(g, h)[0])


def _assert_complement_symmetric(keys: list[str]) -> None:
    # G is H-saturated iff its complement is saturated for the complement of
    # H, so each host for H, complemented, is a host for the complement of H.
    for key in keys:
        (co_key,) = [k for k in keys if is_isomorphic(parse_graph6(k),
                                                        complement(parse_graph6(key)))]
        assert len(_hosts(key)) == len(_hosts(co_key)), key
        for g in _hosts(key):
            assert any(is_isomorphic(complement(g), other) for other in _hosts(co_key)), \
                (key, emit_graph6(g))


class TestCensus3To4:
    def test_table_covers_every_nontrivial_h(self):
        assert sorted(CENSUS_3_4) == sorted(_nontrivial(3) + _nontrivial(4))

    def test_host_counts_on_at_most_8_vertices(self):
        assert {key: len(_hosts(key)) for key in CENSUS_3_4} == CENSUS_3_4

    def test_p4_has_no_host_on_at_most_8_vertices(self):
        # The paper's finite-side example, in the range the census covers.
        assert is_isomorphic(parse_graph6("CU"), path_graph(4))
        assert _hosts("CU") == ()

    def test_complement_symmetry(self):
        _assert_complement_symmetric(list(CENSUS_3_4))

    def test_seeded_sample_agrees_with_naive(self):
        rng = random.Random(1601)
        classes = list(graphs_up_to(8))
        keys = list(CENSUS_3_4)
        # Every host, and as many pairs drawn at random (mostly non-hosts).
        pairs = [(g, key) for key in keys for g in _hosts(key)]
        pairs += [(rng.choice(classes), rng.choice(keys)) for _ in range(len(pairs))]
        for g, key in pairs:
            h = parse_graph6(key)
            assert induced_saturated(g, h)[0] == naive_induced_saturated(g, h)[0], \
                (emit_graph6(g), key)


@pytest.mark.skipif(os.environ.get("INDSAT_STRETCH") != "1",
                    reason="opt-in stretch census; set INDSAT_STRETCH=1 (about 40 s on 2 CPUs)")
def test_census_5_vertices():
    keys = _nontrivial(5)
    assert len(keys) == 32
    counts = {key: len(_hosts(key)) for key in keys}
    assert {key: c for key, c in counts.items() if c} == CENSUS_5_WITH_HOSTS
    _assert_complement_symmetric(keys)
