"""Command-line surface: classify, sweep, cores, gatekeepers, verify, prefix,
oracle, structure12, replay, docs, each registered once, with its handler, in
`build_parser`.

Every subcommand except `docs`, which prints Markdown, writes JSON (stdout
or --out); all randomness is seeded and echoed.
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
from .classifier import classify, read_graph6_line, structure_check_12, sweep
from .constructions import FAMILIES, schedule_fixes
from .gatekeeper import has_fixing_operation
from .graphs import (ASCII_WHITESPACE, Graph, bull_graph, complete_graph, cycle_graph,
                     emit_graph6, icosahedron_complement, parse_graph6, path_graph)
from .oracles import (kind_from_flag, kind_from_json, oracle_window, vertex_from_json,
                      vertex_to_json)
from .verifier import (_saturation_scan, induced_saturated, pair_fixed_check,
                       replay_construction_witnesses)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPLETE = 2
EXIT_VERIFY_FAILED = 3

_NAMED_GRAPHS = {"bull": bull_graph, "icosahedron_complement": icosahedron_complement}


def graph_from_spec(spec: str) -> Graph:
    """Accept a named graph (P5, C6, K4, bull, ...) or a graph6 string, padded or not."""
    name = spec.strip(ASCII_WHITESPACE)
    m = re.fullmatch(r"([PCK])(\d+)", name)
    if m:
        family = {"P": path_graph, "C": cycle_graph, "K": complete_graph}[m.group(1)]
        return family(int(m.group(2)))
    if name in _NAMED_GRAPHS:
        return _NAMED_GRAPHS[name]()
    return parse_graph6(spec)


def _vertex_pair(text: str) -> tuple[int, int]:
    """The vertices u, v of a --pair value 'u,v'."""
    u, _, v = text.partition(",")
    try:
        return int(u), int(v)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not u,v with integers u and v") from None


def _emit(payload: dict, out: "str | None") -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _read_lines(path: str) -> list[str]:
    # Only "\n" ends a line; str.splitlines would also end one at \x1c-\x1e.
    return Path(path).read_text().split("\n")


def _cmd_classify(args) -> int:
    if args.g6 is not None:
        _emit(classify(graph_from_spec(args.g6)).to_json(), args.out)
        return EXIT_OK
    read = [(lineno, *read_graph6_line(line))
            for lineno, line in enumerate(_read_lines(args.input), start=1)]
    errors = [f"line {lineno}: {why}" for lineno, _, why in read if why]
    if errors:  # every line sweep would reject, in one JSON error
        raise ValueError("; ".join(errors))
    _emit({"certificates": [classify(g).to_json() for _, g, _ in read if g is not None]},
          args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = sweep(_read_lines(args.input), n_max=args.nmax, workers=args.workers)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.ok() else EXIT_INCOMPLETE


def _cmd_cores(args) -> int:
    g = graph_from_spec(args.g6)
    kind = cores_mod.named_core(args.kind)
    result = cores_mod.core(g, kind)
    _emit({"input": emit_graph6(g), "kind": cores_mod.core_name(kind),
           **result.to_json()}, args.out)
    return EXIT_OK


def _cmd_gatekeepers(args) -> int:
    g = graph_from_spec(args.g6)
    result = has_fixing_operation(g)
    _emit({"input": emit_graph6(g), **result.to_json()}, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # The flags given; pair_fixed_check supplies the defaults of the rest.
    flags = {key: getattr(args, key) for key in ("adversary_budget", "trials", "seed")
             if getattr(args, key) is not None}
    if flags and args.pair is None:
        raise ValueError("--k, --trials and --seed configure the --pair check; give --pair")
    g = graph_from_spec(args.g6)
    h = graph_from_spec(args.h)
    saturated, free, failing, checked = _saturation_scan(g, h)
    payload = {"input": emit_graph6(g), "h": emit_graph6(h), "h_free": free,
               "induced_saturated": saturated,
               "failing_pair": list(failing) if failing else None,
               "pairs_checked": checked}
    if args.pair is not None:
        payload["pair_fixed_check"] = pair_fixed_check(g, h, args.pair, **flags).to_json()
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
        "queue_prefix": [[e.i, e.j] for e in states[-1].queue[:10]],
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    # Unlike Path.exists, isfile is False (no error) for a list too long for a name.
    text = args.vertices
    # JSON floats stay decimal text, so that 0.1 is read as 1/10 exactly.
    spec = json.loads(Path(text).read_text() if os.path.isfile(text) else text,
                      parse_float=str)
    try:
        if isinstance(spec, dict):
            kind, raw = kind_from_json(spec["kind"]), spec["vertices"]
        else:
            kind, raw = kind_from_flag(args.kind), spec
        vertices = [vertex_from_json(kind, v) for v in raw]
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
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
        lines += [f"## {name} (`{cert.input}`)", "", "```json",
                  json.dumps(cert.to_json(with_timings=False), indent=2, sort_keys=True),
                  "```", ""]
    ico = icosahedron_complement()
    saturated, _ = induced_saturated(ico, path_graph(5))
    lines += ["## Saturation regression", "",
              f"- icosahedron complement is P5-free and induced-saturated "
              f"for P5 across all 66 pairs: **{saturated}**", "",
              "The special table stores `F?rLw` alone: `F?q|w`, the other "
              "circulating spelling of the third rational-geometric graph, "
              "is its complement, so membership is matched by isomorphism "
              "with a complemented flag.", ""]
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

    def command(name, run, help, g6=False):
        """Register one subcommand: its handler, --out and, if asked, --g6."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--out", help="write the output here instead of stdout")
        if g6:
            p.add_argument("--g6", required=True, help=g6_help)
        return p

    p = command("classify", _cmd_classify, "certificate for one graph or a file of graphs")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--g6", help=g6_help)
    source.add_argument("--input", help="newline-delimited graph6 file")

    p = command("sweep", _cmd_sweep, "classify a canonical graph6 stream")
    p.add_argument("--input", required=True, help="newline-delimited graph6 file")
    p.add_argument("--nmax", type=int, default=11, help="max vertices; larger graphs are errors")
    p.add_argument("--workers", type=int, default=1, help="worker processes, at least 1")

    p = command("cores", _cmd_cores, "core reduction with removal trace", g6=True)
    p.add_argument("--kind", default="two",
                   help="two | three | one_one | three_star | two_edge | two_nonedge | kl:k,l")

    command("gatekeepers", _cmd_gatekeepers, "fixing-operation search on one graph", g6=True)

    p = command("verify", _cmd_verify, "freeness and induced saturation", g6=True)
    p.add_argument("--h", required=True, help="pattern graph (graph6 or name like P5)")
    p.add_argument("--pair", type=_vertex_pair,
                   help="also run the bounded fixed-pair check on 'u,v'")
    p.add_argument("--k", dest="adversary_budget", type=int,
                   help="adversary budget of the --pair check (default 0)")
    p.add_argument("--trials", type=int, help="random adversary sets to add (default 0)")
    p.add_argument("--seed", type=int, help="seed of the random adversary sets (default 0)")

    p = command("prefix", _cmd_prefix, "scheduled fixing sequence from a seed", g6=True)
    p.add_argument("--h", required=True)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--strategy", choices=FAMILIES, default="gatekeeper")

    p = command("oracle", _cmd_oracle, "finite window of an infinite construction")
    p.add_argument("--kind", default="torero")
    p.add_argument("--vertices", required=True,
                   help="JSON list of vertices, or file, or {kind:..., vertices:...}")

    p = command("structure12", _cmd_structure12, "bipartite structure computer check")
    p.add_argument("--progress", action="store_true")

    command("replay", _cmd_replay, "replay the catalogued construction witnesses")
    command("docs", _cmd_docs, "regenerate the worked-examples fragment")
    return parser


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
        return args.run(args)
    # JSON nested about 1,000 levels deep passes Python's recursion limit.
    except (ValueError, OSError, RecursionError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
