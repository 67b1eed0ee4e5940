"""Command-line surface: classify, sweep, cores, gatekeepers, verify, prefix,
oracle, structure12, replay, docs.

All output is JSON (stdout or --out); all randomness is seeded and echoed.
Exit codes: 0 success, 1 usage or parse error, 2 sweep incompleteness,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import cores as cores_mod
from .classifier import classify, structure_check_12, sweep
from .constructions import FAMILIES, schedule_fixes
from .gatekeeper import has_fixing_operation
from .graphs import (Graph, Graph6Error, bull_graph, complete_graph, cycle_graph,
                     emit_graph6, icosahedron_complement, parse_graph6, path_graph)
from .oracles import kind_from_json, oracle_window, vertex_from_json, vertex_to_json
from .verifier import (induced_saturated, is_free, pair_fixed_check,
                       replay_construction_witnesses)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPLETE = 2
EXIT_VERIFY_FAILED = 3

_NAMED_GRAPHS = {"bull": bull_graph, "icosahedron_complement": icosahedron_complement}


def graph_from_spec(spec: str) -> Graph:
    """Accept a named graph (P5, C6, K4, bull, ...) or a graph6 string."""
    m = re.fullmatch(r"([PCK])(\d+)", spec)
    if m:
        kind, size = m.group(1), int(m.group(2))
        if kind == "P":
            return path_graph(size)
        if kind == "C":
            return cycle_graph(size)
        return complete_graph(size)
    if spec in _NAMED_GRAPHS:
        return _NAMED_GRAPHS[spec]()
    return parse_graph6(spec)


def _emit(payload: dict, out: "str | None") -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _input_graphs(args) -> list[Graph]:
    if args.g6 is not None:
        return [graph_from_spec(args.g6)]
    graphs = []
    lines = Path(args.input).read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                graphs.append(parse_graph6(line))
            except Graph6Error as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return graphs


def _cmd_classify(args) -> int:
    graphs = _input_graphs(args)
    certs = [classify(g) for g in graphs]
    payload = certs[0].to_json() if len(certs) == 1 else {
        "certificates": [c.to_json() for c in certs]}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    lines = Path(args.input).read_text().splitlines()
    report = sweep(lines, n_max=args.nmax, workers=args.workers)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.ok() else EXIT_INCOMPLETE


def _cmd_cores(args) -> int:
    g = graph_from_spec(args.g6)
    kind = cores_mod.named_core(args.kind)
    result = cores_mod.core(g, kind)
    _emit({"input": emit_graph6(g), "kind": cores_mod.core_name(kind),
           "core": emit_graph6(result.graph),
           "core_vertices": list(result.vertices),
           "trace": [c.to_json() for c in result.trace]}, args.out)
    return EXIT_OK


def _cmd_gatekeepers(args) -> int:
    g = graph_from_spec(args.g6)
    result = has_fixing_operation(g)
    _emit({"input": emit_graph6(g), **result.to_json()}, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = graph_from_spec(args.g6)
    h = graph_from_spec(args.h)
    saturated, failing = induced_saturated(g, h)
    # induced_saturated reports a verdict or a failing pair only on an h-free
    # graph, so the freeness search runs again only when it reports neither.
    free = saturated or failing is not None or is_free(g, h)
    payload = {"input": emit_graph6(g), "h": emit_graph6(h), "h_free": free,
               "induced_saturated": saturated,
               "failing_pair": list(failing) if failing else None,
               "pairs_checked": g.n * (g.n - 1) // 2}
    if args.pair is not None:
        u, v = (int(x) for x in args.pair.split(","))
        result = pair_fixed_check(g, h, (u, v), adversary_budget=args.k,
                                  trials=args.trials, seed=args.seed)
        payload["pair_fixed_check"] = result.to_json()
    _emit(payload, args.out)
    return EXIT_OK if saturated else EXIT_VERIFY_FAILED


def _cmd_prefix(args) -> int:
    seed_graph = graph_from_spec(args.g6)
    h = graph_from_spec(args.h)
    states = schedule_fixes(seed_graph, h, steps=args.steps, m=args.m,
                            family=args.strategy)
    payload = {
        "seed": emit_graph6(seed_graph), "h": emit_graph6(h),
        "strategy": args.strategy, "m": args.m, "steps_completed": len(states) - 1,
        "graphs": [emit_graph6(s.graph) for s in states],
        "ledger": [rec.to_json() for rec in states[-1].fixed_ledger],
        "queue_prefix": [[e.i, e.j] for e in sorted(states[-1].queue,
                                                    key=lambda e: e.position)[:10]],
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    # Unlike Path.exists, isfile is False (no error) for a list too long for a name.
    text = args.vertices
    spec = json.loads(Path(text).read_text() if os.path.isfile(text) else text)
    try:
        if isinstance(spec, dict):
            kind = kind_from_json(spec["kind"])
        elif ":" in args.kind:  # e.g. grid_clique:2
            tag, p = args.kind.split(":")
            kind = kind_from_json({"tag": tag, "p": int(p)})
        else:
            kind = kind_from_json({"tag": args.kind})
        raw = spec["vertices"] if isinstance(spec, dict) else spec
        vertices = [vertex_from_json(kind, v) for v in raw]
    except (KeyError, IndexError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"malformed oracle spec: {type(exc).__name__}: {exc}") from exc
    window, labels = oracle_window(kind, vertices)
    _emit({"kind": kind.tag, "graph": emit_graph6(window),
           "labels": [vertex_to_json(kind, v) for v in labels]}, args.out)
    return EXIT_OK


def _cmd_structure12(args) -> int:
    report = structure_check_12(progress=args.progress)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _cmd_replay(args) -> int:
    report = replay_construction_witnesses()
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.all_passed() else EXIT_VERIFY_FAILED


def generate_docs_examples() -> str:
    """Markdown fragment of worked certificates; byte-identical across runs
    (timings are stripped), so it doubles as a documentation drift guard."""
    worked = [("P4", path_graph(4)), ("C5", cycle_graph(5)), ("bull", bull_graph()),
              ("E?qw", parse_graph6("E?qw")), ("F?q~w", parse_graph6("F?q~w")),
              ("icosahedron complement", icosahedron_complement())]
    lines = ["# Worked certificates", ""]
    for name, g in worked:
        cert = classify(g)
        lines.append(f"## {name} (`{cert.input}`)")
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(cert.to_json(with_timings=False),
                                indent=2, sort_keys=True))
        lines.append("```")
        lines.append("")
    ico = icosahedron_complement()
    saturated, _ = induced_saturated(ico, path_graph(5))
    lines.append("## Saturation regression")
    lines.append("")
    lines.append(f"- icosahedron complement is P5-free and induced-saturated "
                 f"for P5 across all 66 pairs: **{saturated}**")
    lines.append("")
    lines.append("The special table stores both `F?q|w` and `F?rLw`: the two "
                 "circulating spellings of the third rational-geometric graph "
                 "are complements of one another, so membership is matched by "
                 "isomorphism with a complemented flag.")
    lines.append("")
    return "\n".join(lines)


def _cmd_docs(args) -> int:
    fragment = generate_docs_examples()
    if args.out:
        Path(args.out).write_text(fragment)
    else:
        print(fragment, end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting with code 2, which the CLI
    reserves for sweep incompleteness; `main` reports them as JSON errors."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="indsat",
        description="Classify finite graphs by saturating construction, build "
                    "finite prefixes, and verify saturation properties.")
    parser.add_argument("--json-schema", action="store_true",
                        help="print the JSON schema for all outputs and exit")
    sub = parser.add_subparsers(dest="command")

    g6_help = "inline graph6 string or named graph"

    def common(p, g6=True):
        p.add_argument("--out", help="write JSON here instead of stdout")
        if g6:
            p.add_argument("--g6", required=True, help=g6_help)

    p = sub.add_parser("classify", help="certificate for one graph or a file of graphs")
    common(p, g6=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--g6", help=g6_help)
    source.add_argument("--input", help="newline-delimited graph6 file")

    p = sub.add_parser("sweep", help="classify a canonical graph6 stream")
    common(p, g6=False)
    p.add_argument("--input", required=True)
    p.add_argument("--nmax", type=int, default=11)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("cores", help="core reduction with removal trace")
    common(p)
    p.add_argument("--kind", default="two",
                   help="two | three | one_one | three_star | two_edge | two_nonedge | kl:k,l")

    p = sub.add_parser("gatekeepers", help="fixing-operation search on one graph")
    common(p)

    p = sub.add_parser("verify", help="freeness and induced saturation")
    common(p)
    p.add_argument("--h", required=True, help="pattern graph (graph6 or name like P5)")
    p.add_argument("--pair", help="also run the bounded fixed-pair check on 'u,v'")
    p.add_argument("--k", type=int, default=0, help="adversary budget")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("prefix", help="scheduled fixing sequence from a seed")
    common(p)
    p.add_argument("--h", required=True)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--strategy", choices=FAMILIES, default="gatekeeper")

    p = sub.add_parser("oracle", help="finite window of an infinite construction")
    common(p, g6=False)
    p.add_argument("--kind", default="torero")
    p.add_argument("--vertices", required=True,
                   help="JSON list of vertices, or file, or {kind:..., vertices:...}")

    p = sub.add_parser("structure12", help="bipartite structure computer check")
    common(p, g6=False)
    p.add_argument("--progress", action="store_true")

    p = sub.add_parser("replay", help="replay the catalogued construction witnesses")
    common(p, g6=False)

    p = sub.add_parser("docs", help="regenerate the worked-examples fragment")
    common(p, g6=False)
    return parser


_HANDLERS = {
    "classify": _cmd_classify, "sweep": _cmd_sweep, "cores": _cmd_cores,
    "gatekeepers": _cmd_gatekeepers, "verify": _cmd_verify, "prefix": _cmd_prefix,
    "oracle": _cmd_oracle, "structure12": _cmd_structure12, "replay": _cmd_replay,
    "docs": _cmd_docs,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.json_schema:
            schema = Path(__file__).with_name("schema.json").read_text()
            print(schema, end="")
            return EXIT_OK
        if not args.command:
            parser.print_help()
            return EXIT_USAGE
        return _HANDLERS[args.command](args)
    except (Graph6Error, ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
