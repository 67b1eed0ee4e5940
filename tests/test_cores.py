from collections import Counter

import pytest

from indsat.classifier import classify
from indsat.cores import (ONE_ONE, THREE, THREE_STAR, TWO, TWO_EDGE, TWO_NONEDGE,
                          CoreKind, core, core_name,
                          kl_core, named_core, rebuild)
from indsat.graphs import (Graph, complement, complete_graph, cycle_graph, emit_graph6,
                           empty_graph, is_isomorphic, parse_graph6, path_graph)
import certdigest
import stream
from gensmall import graphs_up_to

ALL_KINDS = (TWO, THREE, ONE_ONE, THREE_STAR, TWO_EDGE, TWO_NONEDGE)


def c5_with_pendant() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])


class TestCoreExamples:
    def test_c5_pendant_two_core(self):
        result = core(c5_with_pendant(), TWO)
        assert is_isomorphic(result.graph, cycle_graph(5))

    def test_c5_pendant_three_star_core_empty(self):
        assert core(c5_with_pendant(), THREE_STAR).graph.n == 0

    def test_p4_one_one_fixed_point(self):
        result = core(path_graph(4), ONE_ONE)
        assert result.graph == path_graph(4)
        assert result.trace == ()

    def test_k4_three_star_empty(self):
        assert core(complete_graph(4), THREE_STAR).graph.n == 0

    def test_two_edge_core_drops_triangle_hats(self):
        # Degree-2 vertex with adjacent neighbors goes under TWO_EDGE only.
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3),
                                 (2, 4), (0, 4)])
        assert core(g, TWO_EDGE).graph.n == 0
        assert core(g, TWO_NONEDGE).graph.n == 5


class TestFixedPointCheck:
    # A graph is a fixed point exactly when the reduction removes nothing.
    def test_core_output_is_fixed_point_exhaustive(self):
        for g in graphs_up_to(6):
            for kind in ALL_KINDS + (kl_core(2, 1),):
                assert core(core(g, kind).graph, kind).trace == ()

    def test_empty_graph_passes_all(self):
        for kind in ALL_KINDS:
            assert core(empty_graph(0), kind).trace == ()

    def test_c5_degrees(self):
        assert core(cycle_graph(5), TWO).trace == ()
        assert core(cycle_graph(5), THREE).trace != ()


class TestTrace:
    def test_rebuild_exhaustive(self):
        for g in graphs_up_to(6):
            for kind in ALL_KINDS:
                assert rebuild(core(g, kind).to_json(), g.n) == g

    def test_trace_serialization(self):
        result = core(c5_with_pendant(), THREE_STAR)
        payload = result.to_json()["trace"]
        assert all(set(c) == {"vertices", "attachment", "internal_edge", "rule"}
                   for c in payload)

    def test_trace_digest_of_the_small_stream_is_pinned(self):
        # Every core of the 1,252 stream classes on <= 7 vertices under seven
        # kinds, byte for byte (recipe in tests/certdigest.py).
        lines, _ = stream.load()
        assert certdigest.trace_digest(lines) == \
            "2e97718441cdf31308e5297aad88cc8c4b15d101ec5e04b0d02ce7e10151791f"

    def test_the_pinned_traces_fire_every_rule(self):
        lines, _ = stream.load()
        small = [g for g in map(parse_graph6, lines) if g.n <= 7]
        rules = Counter(removal["rule"] for g in small for kind in certdigest.TRACE_KINDS
                        for removal in core(g, kind).to_json()["trace"])
        assert len(small) * len(certdigest.TRACE_KINDS) == 8764
        assert rules == {"degree": 19363, "nondegree": 1368, "triangle": 1101,
                         "open_path": 816, "pair": 174}

    def test_rebuild_checks_certificates(self):
        # Every 7th stream class whose certificate carries a core: its trace
        # rebuilds the classified orientation.
        lines, _ = stream.load()
        checked = 0
        for line in lines[::7]:
            g = parse_graph6(line)
            cert = classify(g)
            if "core_kind" in cert.witness:
                target = complement(g) if cert.complemented else g
                assert rebuild(cert.witness, g.n) == target, line
                checked += 1
        assert checked == 1628

    def test_tampered_traces_are_rejected(self):
        # The trace removes 1, 0, 2, 3, 4, 5, so vertex 5 is replayed first.
        g = c5_with_pendant()
        serialized = core(g, THREE_STAR).to_json()
        trace = serialized["trace"]
        assert [c["vertices"] for c in trace] == [[1], [0], [2], [3], [4], [5]]
        assert rebuild(serialized, g.n) == g
        with pytest.raises(ValueError, match="trace replays vertex 5 twice"):
            rebuild({**serialized, "trace": trace + [trace[-1]]}, g.n)
        absent = {**trace[-1], "attachment": {"5": [1]}}
        with pytest.raises(ValueError, match="attachment 5->1 targets an absent vertex"):
            rebuild({**serialized, "trace": trace[:-1] + [absent]}, g.n)
        with pytest.raises(ValueError, match="trace does not account for all vertices"):
            rebuild({**serialized, "trace": trace[1:]}, g.n)

    @pytest.mark.parametrize("labels, message", [
        ([0, 1, 2, 3, 9], "trace names vertex 9, outside 0..5"),
        ([0, 1, 2, 3, 3], "trace replays vertex 3 twice"),
        ([0, 1, 2, 3], "core_vertices must name each core vertex once")])
    def test_tampered_core_labels_are_rejected(self, labels, message):
        # The 2-core is the C5 on 0..4; the trace removes the pendant 5.
        serialized = core(c5_with_pendant(), TWO).to_json()
        assert serialized["core_vertices"] == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError, match=message):
            rebuild({**serialized, "core_vertices": labels}, 6)


def _all_cores_by_any_order(g: Graph, kind: CoreKind) -> set:
    """Explore every firing order over the state space of present-vertex
    masks; return the set of reachable fixed points (as canonical g6).  The
    moves are every cluster `_removals` lists, the rules `core` runs."""
    from indsat.cores import _removals

    seen = {}

    def explore(present: int) -> set:
        if present in seen:
            return seen[present]
        moves = [present & ~sum(1 << v for v in vertices)
                 for vertices, _ in _removals(g, present, kind)]
        vertices = [v for v in range(g.n) if present >> v & 1]
        if not moves:
            sub = g.induced(vertices)
            seen[present] = {emit_graph6(sub)}
            return seen[present]
        out = set()
        seen[present] = out  # cycle-safe: removals strictly shrink the mask
        for nxt in moves:
            out |= explore(nxt)
        return out

    return explore((1 << g.n) - 1)


class TestConfluence:
    def test_all_firing_orders_agree_up_to_isomorphism(self):
        from indsat.graphs import parse_graph6
        for g in graphs_up_to(6):
            for kind in ALL_KINDS:
                finals = _all_cores_by_any_order(g, kind)
                graphs = [parse_graph6(s) for s in finals]
                assert all(is_isomorphic(graphs[0], other) for other in graphs[1:]), \
                    f"non-confluent: {emit_graph6(g)} under {kind}"

    def test_three_core_inside_two_core(self):
        for g in graphs_up_to(7):
            two = core(g, TWO)
            three = core(g, THREE)
            assert set(three.vertices) <= set(two.vertices)

    def test_three_star_covers_true_twins_of_degree_three(self):
        # Adjacent true twins of degree 3 satisfy the closed-union pair rule.
        for g in graphs_up_to(7):
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if not g.has_edge(u, v):
                        continue
                    if (g.adj[u] | 1 << u) == (g.adj[v] | 1 << v) and g.degree(u) == 3:
                        closed = g.adj[u] | g.adj[v] | 1 << u | 1 << v
                        assert bin(closed).count("1") <= 4


class TestGeneralKL:
    def test_2_1_core_peels_both_directions(self):
        # K4 plus an isolated vertex: the isolated vertex dies by degree,
        # then the clique unravels because every member lacks a non-neighbor.
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        result = core(g, kl_core(2, 1))
        assert result.graph.n == 0
        assert rebuild(result.to_json(), 5) == g

    def test_2_1_core_fixed_point(self):
        # C5 has degree 2 and two non-neighbors everywhere.
        assert core(cycle_graph(5), kl_core(2, 1)).graph == cycle_graph(5)


class TestKindPlumbing:
    def test_names_round_trip(self):
        for kind in ALL_KINDS:
            assert named_core(core_name(kind)) == kind
        assert named_core("kl:4,1") == kl_core(4, 1)

    def test_kinds_are_equal_and_hash_by_value(self):
        assert kl_core(2, 0) == TWO and hash(kl_core(2, 0)) == hash(TWO)
        assert kl_core(2, 0) is not TWO and kl_core(2, 1) != TWO
        assert CoreKind("three_star") == THREE_STAR != TWO_EDGE
        assert named_core("kl:2,0") == TWO and named_core("kl:2,1") == kl_core(2, 1)
        assert core_name(kl_core(2, 0)) == "two" and core_name(kl_core(2, 1)) == "kl:2,1"
        table = {kind: core_name(kind) for kind in ALL_KINDS}
        assert table[kl_core(3, 0)] == "three" and table[CoreKind("two_edge")] == "two_edge"

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            named_core("nope")
        with pytest.raises(ValueError):
            CoreKind("bogus")

    @pytest.mark.parametrize("name", ["kl:a", "kl:1,2,3", "kl:", "kl:1", "kl:-1,0"])
    def test_malformed_kl_name_is_named_with_its_form(self, name):
        with pytest.raises(ValueError, match="is not kl:k,l with integers") as exc:
            named_core(name)
        assert repr(name) in str(exc.value)
