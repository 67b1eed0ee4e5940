import argparse
import json
import time
from pathlib import Path

import jsonschema
import pytest

from indsat.cli import (EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED,
                        generate_docs_examples, graph_from_spec, main)
from indsat.graphs import (bull_graph, complete_graph, cycle_graph, emit_graph6,
                           icosahedron_complement, parse_graph6, path_graph)
from indsat import cli, verifier
from indsat.verifier import pair_fixed_check

SCHEMA = json.loads(Path("src/indsat/schema.json").read_text())
GOLDEN = Path(__file__).with_name("golden")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


class TestGraphSpecs:
    def test_named(self):
        assert graph_from_spec("P5") == path_graph(5)
        assert graph_from_spec("C6") == cycle_graph(6)
        assert graph_from_spec("K4") == complete_graph(4)
        assert graph_from_spec("bull") == bull_graph()

    def test_graph6_fallback(self):
        assert graph_from_spec("Dr[").n == 5


class TestClassifyCommand:
    def test_inline(self, capsys):
        code, payload = run_json(capsys, ["classify", "--g6", "E?qw"])
        assert code == EXIT_OK
        assert payload["case"] == "special_rational_geometric"
        validate(payload)

    def test_file_batch(self, tmp_path, capsys):
        f = tmp_path / "graphs.g6"
        f.write_text("Dr[\nE?qw\n")
        code, payload = run_json(capsys, ["classify", "--input", str(f)])
        assert code == EXIT_OK and len(payload["certificates"]) == 2
        validate(payload)

    def test_bad_input_exit_1(self, capsys):
        code = main(["classify", "--g6", "{{{"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error" in json.loads(err)

    def test_bad_batch_line_is_named(self, tmp_path, capsys):
        f = tmp_path / "graphs.g6"
        f.write_text("Bw\n\nxx!\n")
        code = main(["classify", "--input", str(f)])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "line 3: truncated bit body (byte offset 3)"}

    def test_every_bad_batch_line_is_named(self, tmp_path, capsys):
        f = tmp_path / "graphs.g6"
        f.write_text("Bw\nxx!\n\nCF\n!\n")
        code = main(["classify", "--input", str(f)])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "line 2: truncated bit body (byte offset 3); "
                                            "line 5: header byte outside graph6 range "
                                            "(byte offset 0)"}

    def test_zero_vertex_batch_line_is_named(self, tmp_path, capsys):
        f = tmp_path / "graphs.g6"
        f.write_text("Bw\n?\nxx!\n")
        code = main(["classify", "--input", str(f)])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "line 2: graph on 0 vertices; "
                                            "line 3: truncated bit body (byte offset 3)"}

    def test_classify_and_sweep_read_lines_alike(self, tmp_path, capsys):
        # Both skip blank and whitespace-only lines, ignore whitespace around
        # a line, and reject `?` (0 vertices) and `xx!` with one message each.
        f = tmp_path / "graphs.g6"
        f.write_text("Ch \n Ch\nCh\t\n\n \t\n?\nxx!\n")
        assert main(["classify", "--input", str(f)]) == EXIT_USAGE
        err = capsys.readouterr().err
        code, report = run_json(capsys, ["sweep", "--input", str(f), "--nmax", "8"])
        assert code == EXIT_OK and report["graphs_processed"] == 3
        assert report["errors"] == [[6, "graph on 0 vertices"],
                                    [7, "truncated bit body (byte offset 3)"]]
        assert json.loads(err) == {
            "error": "; ".join(f"line {ln}: {msg}" for ln, msg in report["errors"])}
        f.write_text("Ch \n Ch\nCh\t\n\n \t\n")
        code, payload = run_json(capsys, ["classify", "--input", str(f)])
        assert code == EXIT_OK
        assert [c["input"] for c in payload["certificates"]] == ["Ch"] * 3
        code, report = run_json(capsys, ["sweep", "--input", str(f), "--nmax", "8"])
        assert report["graphs_processed"] == 3 and report["errors"] == []

    @pytest.mark.parametrize("argv", [["classify", "--g6", "Ch "], ["classify", "--g6", " P5"],
                                      ["classify", "--g6", "\tbull\n"],
                                      ["verify", "--g6", " Ch", "--h", "P3"]])
    def test_g6_ignores_whitespace_around_it(self, capsys, argv):
        # As --input does: parse_graph6 drops the ASCII whitespace around a value.
        padded = run_json(capsys, argv)
        plain = run_json(capsys, [arg.strip() for arg in argv])
        assert padded[0] == plain[0] != EXIT_USAGE
        assert padded[1].keys() == plain[1].keys()
        assert padded[1].get("input") == plain[1].get("input")

    def test_batch_readers_reject_a_control_byte_alike(self, tmp_path, capsys):
        # \x1e is no ASCII whitespace, unlike \v and \f: both readers keep it,
        # neither ends a line at it, and both name the same defect.
        f = tmp_path / "graphs.g6"
        f.write_text("Ch\n\x0b\x0c\nCh\x1e\n")
        assert main(["classify", "--input", str(f)]) == EXIT_USAGE
        err = json.loads(capsys.readouterr().err)
        code, report = run_json(capsys, ["sweep", "--input", str(f), "--nmax", "8"])
        assert report["graphs_processed"] == 1
        assert report["errors"] == [[3, "trailing garbage after bit body (byte offset 2)"]]
        assert err == {"error": "line 3: trailing garbage after bit body (byte offset 2)"}

    def test_one_line_file_prints_a_batch(self, tmp_path, capsys):
        # The output shape does not depend on the line count.
        f = tmp_path / "graphs.g6"
        f.write_text("Dr[\n")
        code, payload = run_json(capsys, ["classify", "--input", str(f)])
        assert code == EXIT_OK and len(payload["certificates"]) == 1
        single = run_json(capsys, ["classify", "--g6", "Dr["])[1]
        assert payload["certificates"][0].keys() == single.keys()
        assert payload["certificates"][0]["witness"] == single["witness"]
        validate(payload)


class TestVerifyCommand:
    def test_icosahedron_complement_p5(self, capsys):
        g6 = emit_graph6(icosahedron_complement())
        code, payload = run_json(capsys, ["verify", "--g6", g6, "--h", "P5"])
        assert code == EXIT_OK
        assert payload["h_free"] and payload["induced_saturated"]
        assert payload["pairs_checked"] == 66
        validate(payload)

    def test_failure_exit_3(self, capsys):
        code, payload = run_json(capsys, ["verify", "--g6", "C4", "--h", "P4"])
        assert code == EXIT_VERIFY_FAILED
        validate(payload)

    def test_pairs_checked_stop_at_the_failing_pair(self, capsys):
        # EEh_ has no twins, so pairs come in plain order: toggling (0, 1) or
        # (0, 2) creates a C5 and (0, 3) does not, so the scan stops at 3.
        code, payload = run_json(capsys, ["verify", "--g6", "EEh_", "--h", "C5"])
        assert code == EXIT_VERIFY_FAILED
        assert payload["failing_pair"] == [0, 3] and payload["pairs_checked"] == 3
        validate(payload)

    def test_pair_fixed_check_included(self, capsys):
        code, payload = run_json(
            capsys, ["verify", "--g6", "C4", "--h", "P4", "--pair", "0,2",
                     "--k", "1", "--trials", "3", "--seed", "5"])
        assert payload["pair_fixed_check"]["status"] == "fail"
        validate(payload)

    @pytest.mark.parametrize("flags", [["--k", "-1"], ["--k", "0"], ["--trials", "3"],
                                       ["--seed", "7"], ["--k", "1", "--seed", "2"]])
    def test_pair_flags_without_pair_are_usage_errors(self, capsys, flags):
        # They configure only the --pair check, which does not run without --pair.
        assert main(["verify", "--g6", "C4", "--h", "P4", *flags]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {
            "error": "--k, --trials and --seed configure the --pair check; give --pair"}

    def test_pair_flags_default_to_pair_fixed_check(self, capsys):
        code, payload = run_json(capsys, ["verify", "--g6", "C4", "--h", "P4",
                                          "--pair", "0,2"])
        assert payload["pair_fixed_check"] == pair_fixed_check(
            cycle_graph(4), path_graph(4), (0, 2)).to_json()

    @pytest.mark.parametrize("g6, h, code, h_free, searches", [
        (emit_graph6(icosahedron_complement()), "P5", EXIT_OK, True, 1),  # saturated
        ("C4", "P4", EXIT_VERIFY_FAILED, True, 1),                        # a failing pair
        ("P5", "P4", EXIT_VERIFY_FAILED, False, 1)])                      # contains h
    def test_freeness_search_runs_once(self, capsys, monkeypatch, g6, h, code,
                                       h_free, searches):
        # is_free searches g with its twins deleted (C4 loses two vertices),
        # so count every unanchored search; the others are local searches.
        hosts = []
        real = verifier.find_induced

        def counting(host, pattern, anchors=None):
            if not anchors:
                hosts.append(host)
            return real(host, pattern, anchors)

        monkeypatch.setattr(verifier, "find_induced", counting)
        assert main(["verify", "--g6", g6, "--h", h]) == code
        assert json.loads(capsys.readouterr().out)["h_free"] is h_free
        assert len(hosts) == searches

    def test_host_containing_h_is_searched_once(self, capsys, monkeypatch):
        # The freeness answer, the failing pair and the pair count all come
        # from one scan, so a host that contains h is searched for it once.
        calls = []
        real = verifier.is_free

        def counting(g, h):
            calls.append(g)
            return real(g, h)

        monkeypatch.setattr(verifier, "is_free", counting)
        monkeypatch.setattr(cli, "is_free", counting, raising=False)
        assert main(["verify", "--g6", "P12", "--h", "P4"]) == EXIT_VERIFY_FAILED
        out = json.loads(capsys.readouterr().out)
        assert out["h_free"] is False and out["pairs_checked"] == 0
        assert len(calls) == 1

    def test_equal_order_pattern_is_quick(self, capsys):
        # Every perturbation of K10 keeps 10 vertices but loses degree, so
        # each search fails on the degree check instead of backtracking.
        start = time.perf_counter()
        code, payload = run_json(capsys, ["verify", "--g6", "I~~~~~~~w", "--h", "I~~~~~~~w",
                                          "--pair", "3,4", "--k", "3", "--trials", "3"])
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_VERIFY_FAILED and payload["h_free"] is False
        validate(payload)

    @pytest.mark.parametrize("flag", [["--k", "-3"], ["--k", "1", "--trials", "-1"]])
    def test_negative_budget_exit_1(self, capsys, flag):
        code = main(["verify", "--g6", "C4", "--h", "P4", "--pair", "0,1", *flag])
        assert code == EXIT_USAGE
        assert "non-negative" in json.loads(capsys.readouterr().err)["error"]


class TestSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        f = tmp_path / "in.g6"
        f.write_text("Dr[\nE?qw\nD??\n")
        code, payload = run_json(capsys, ["sweep", "--input", str(f), "--nmax", "8"])
        assert code == EXIT_OK and payload["ok"]
        validate(payload)

    def test_zero_vertex_line_reported(self, tmp_path, capsys):
        f = tmp_path / "in.g6"
        f.write_text("Dr[\n?\nE?qw\n")
        code, payload = run_json(capsys, ["sweep", "--input", str(f), "--nmax", "8"])
        assert code == EXIT_OK and payload["graphs_processed"] == 2
        assert payload["errors"] == [[2, "graph on 0 vertices"]]
        validate(payload)

    def test_workers_below_1_exit_1(self, tmp_path, capsys):
        f = tmp_path / "in.g6"
        f.write_text("Dr[\n")
        code = main(["sweep", "--input", str(f), "--workers", "-3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "workers must be at least 1" in json.loads(captured.err)["error"]

    def test_out_file(self, tmp_path):
        f = tmp_path / "in.g6"
        f.write_text("Dr[\n")
        out = tmp_path / "report.json"
        code = main(["sweep", "--input", str(f), "--nmax", "8",
                     "--out", str(out)])
        assert code == EXIT_OK
        validate(json.loads(out.read_text()))


class TestOtherCommands:
    def test_cores(self, capsys):
        code, payload = run_json(capsys, ["cores", "--g6", "C5", "--kind", "three"])
        assert code == EXIT_OK and payload["core"] == "?"
        validate(payload)

    def test_gatekeepers(self, capsys):
        code, payload = run_json(capsys, ["gatekeepers", "--g6", "C5"])
        assert code == EXIT_OK
        assert payload["edge_witness"] and payload["nonedge_witness"]
        validate(payload)

    def test_prefix(self, capsys):
        code, payload = run_json(capsys, ["prefix", "--g6", "P2", "--h", "P4",
                                          "--steps", "2", "--strategy", "twin"])
        assert code == EXIT_OK
        assert len(payload["graphs"]) == 3
        validate(payload)

    def test_prefix_k2p_needs_m_at_least_p(self, capsys):
        # G??F~w is K_{2,6}: the default m = 4 is a usage error, m = 6 fixes
        # every ledger pair.
        code = main(["prefix", "--g6", "P2", "--h", "G??F~w", "--strategy", "k2p"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "m >= p = 6" in json.loads(captured.err)["error"]
        code, payload = run_json(capsys, ["prefix", "--g6", "P2", "--h", "G??F~w",
                                          "--strategy", "k2p", "--m", "6"])
        assert code == EXIT_OK and payload["ledger"]
        final, h = parse_graph6(payload["graphs"][-1]), parse_graph6("G??F~w")
        for rec in payload["ledger"]:
            assert pair_fixed_check(final, h, tuple(rec["pair"])).passed(), rec

    @pytest.mark.parametrize("argv, message", [
        (["--strategy", "k2p", "--h", "D]o", "--m", "0"], "m must be at least 1"),
        (["--strategy", "k11p", "--h", "D}o", "--m", "0"], "m must be at least 1"),
        (["--strategy", "gatekeeper", "--h", "C5", "--m", "-1"], "m must be at least 1"),
        (["--strategy", "twin", "--h", "P4", "--steps", "-1"], "steps must be non-negative")])
    def test_prefix_bad_count_exit_1(self, capsys, argv, message):
        code = main(["prefix", "--g6", "P3", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert message in json.loads(captured.err)["error"]

    def test_oracle(self, capsys):
        vertices = json.dumps(["1/5", "2/5", "4/5"])
        code, payload = run_json(capsys, ["oracle", "--kind", "torero",
                                          "--vertices", vertices])
        assert code == EXIT_OK
        # 2/5 + 4/5 > 1 is the only edge (1/5 + 4/5 is exactly 1, a non-edge).
        assert payload["graph"] == "BG"
        assert payload["labels"] == ["1/5", "2/5", "4/5"]
        validate(payload)

    def test_oracle_decides_a_fifty_digit_pi_approximation(self, capsys):
        near_pi = "3.14159265358979323846264338327950288419716939937510"
        code, payload = run_json(capsys, ["oracle", "--kind", "rational_geometric",
                                          "--vertices", json.dumps(["0", near_pi])])
        assert code == EXIT_OK
        assert payload["graph"] == "A_"  # the distance is just below pi: an edge
        validate(payload)

    def test_oracle_long_inline_list_and_file(self, capsys, tmp_path):
        # 79 integer vertices spell a 464-character list, longer than a file
        # name may be (255 bytes on common file systems); the same list read
        # from a file gives the same window.
        vertices = json.dumps([str(i) for i in range(79)])
        assert len(vertices) > 255
        code, inline = run_json(capsys, ["oracle", "--kind", "rational_geometric",
                                         "--vertices", vertices])
        assert code == EXIT_OK and len(inline["labels"]) == 79
        spec = tmp_path / "vertices.json"
        spec.write_text(vertices)
        code, from_file = run_json(capsys, ["oracle", "--kind", "rational_geometric",
                                            "--vertices", str(spec)])
        assert code == EXIT_OK and from_file == inline
        validate(inline)

    @pytest.mark.parametrize("spec", [
        '{}', '{"kind":{"tag":"torero"}}', '{"kind":5,"vertices":[]}', '5',
        '[[1]]', '["1/2",[3]]', '["1/0"]', '[1e400]',
        '{"kind":{"tag":"up_right"},"vertices":[[1]]}'])
    def test_oracle_malformed_spec_exit_1(self, capsys, spec):
        code = main(["oracle", "--vertices", spec])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "malformed oracle spec" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "z3_agree", "--vertices", "[[[0.5,0,0],0],[[0,0,0],1.7]]"], "0.5"),
        (["--kind", "z3_agree", "--vertices", "[[[0,0,0],0],[[0,0,0],true]]"], "True"),
        (["--kind", "grid_clique:2", "--vertices", "[[1.5,2],[1.9,2]]"], "1.5"),
        (["--kind", "grid_clique:2", "--vertices", '[["1",2],[3,2]]'], "'1'"),
        (["--kind", "rational_geometric", "--vertices", "[true,false]"], "True"),
        (["--kind", "up_right", "--vertices", '[[0,false],["1/2",1]]'], "False"),
        (["--vertices", '{"kind":{"tag":"grid_clique","p":true},"vertices":[[0],[1]]}'],
         "True")])
    def test_oracle_vertices_are_not_coerced(self, capsys, argv, message):
        # Floats were truncated and booleans read as 0 and 1.
        code = main(["oracle", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert message in json.loads(captured.err)["error"]

    def test_oracle_accepts_exact_json_numbers(self, capsys):
        # Integers stay integers, and a float is read exactly (0.5 is 1/2).
        code, payload = run_json(capsys, ["oracle", "--kind", "torero",
                                          "--vertices", '[0.5, "3/4"]'])
        assert code == EXIT_OK and payload["labels"] == ["1/2", "3/4"]
        code, payload = run_json(capsys, ["oracle", "--kind", "z3_agree", "--vertices",
                                          "[[[0,0,0],0],[[0,0,0],1]]"])
        assert code == EXIT_OK and payload["labels"] == [[[0, 0, 0], 0], [[0, 0, 0], 1]]

    def test_oracle_reads_json_floats_from_their_decimal_text(self, capsys):
        # As binary doubles, 0.1 + 0.9 came out just above 1 and made an edge.
        for vertices in ('[0.1, 0.9]', '["1/10", "9/10"]'):
            code, payload = run_json(capsys, ["oracle", "--kind", "torero",
                                              "--vertices", vertices])
            assert code == EXIT_OK and payload["labels"] == ["1/10", "9/10"]
            assert payload["graph"] == "A?"

    @pytest.mark.parametrize("argv", [
        ["--kind", "rational_geometric", "--vertices", '["1e5","0"]'],
        ["--kind", "rational_geometric", "--vertices", '["1e999999999"]'],
        ["--kind", "torero", "--vertices", '["1/2","25E-2"]'],
        ["--kind", "up_right", "--vertices", '[["0","1"],["1e3","2"]]'],
        ["--kind", "rational_geometric", "--vertices", '[1e400, 0]'],
        ["--kind", "torero", "--vertices", '[0.5, 25E-2]']])
    def test_oracle_rational_exponent_rejected(self, capsys, argv):
        # Fraction would expand "1e999999999" into a billion-digit integer.
        start = time.perf_counter()
        code = main(["oracle", *argv])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE and captured.out == ""
        assert "no exponent" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("argv", [
        ["--kind", "torero", "--vertices", '["5"]'],
        ["--kind", "grid_clique:2", "--vertices", "[[1]]"]])
    def test_oracle_one_vertex_window_checked(self, capsys, argv):
        code = main(["oracle", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "vertex must be" in json.loads(captured.err)["error"]

    def test_replay(self, capsys):
        code, payload = run_json(capsys, ["replay"])
        assert code == EXIT_OK and payload["all_passed"]
        validate(payload)

    def test_json_schema_flag(self, capsys):
        code = main(["--json-schema"])
        assert code == EXIT_OK
        json.loads(capsys.readouterr().out)

    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["verify", "--g6", "C4"], ["classify", "--bogus"],
        ["sweep", "--input", "graphs.g6", "--workers", "x"],
        ["prefix", "--g6", "P2", "--h", "P4", "--depth", "3"],
        ["classify"], ["classify", "--g6", "P4", "--input", "graphs.g6"],
        ["cores"], ["gatekeepers"], ["prefix", "--h", "P4"], ["verify", "--h", "P4"]])
    def test_usage_error_is_json_exit_1(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "error" in json.loads(captured.err)

    def test_deep_pattern_verify_answers(self, capsys):
        # The embedding search holds its depth in a loop, not on the call
        # stack, so a 999-vertex pattern is searched under the default limit.
        code = main(["verify", "--g6", "P1000", "--h", "P999"])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFY_FAILED and captured.err == ""
        out = json.loads(captured.out)
        assert out["h_free"] is False and out["induced_saturated"] is False
        assert out["pairs_checked"] == 0  # no pair is perturbed on a host that holds H

    def test_deep_pattern_prefix_is_precondition_error(self, capsys):
        code = main(["prefix", "--g6", "P1000", "--h", "P999"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "seed must avoid the pattern being fixed against"}

    def test_recursion_limit_is_json_exit_1(self, capsys, tmp_path):
        # json.loads recurses once per nesting level, so this passes
        # Python's default limit.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 20_000 + "]" * 20_000)
        code = main(["oracle", "--kind", "torero", "--vertices", str(deep)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err
        assert "maximum recursion depth" in json.loads(lines[0])["error"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        assert "usage: indsat classify" in capsys.readouterr().out


class TestInputOwners:
    @pytest.mark.parametrize("argv, names", [
        (["verify", "--g6", "P5", "--h", "P4", "--pair", "1"], ["--pair", "'1'", "u,v"]),
        (["verify", "--g6", "P5", "--h", "P4", "--pair", "0,1,2"], ["--pair", "'0,1,2'", "u,v"]),
        (["verify", "--g6", "P5", "--h", "P4", "--pair", "a,b"], ["--pair", "'a,b'", "u,v"]),
        (["cores", "--g6", "P5", "--kind", "kl:a"], ["'kl:a'", "kl:k,l", "integers k, l"]),
        (["cores", "--g6", "P5", "--kind", "kl:1,2,3"], ["'kl:1,2,3'", "kl:k,l"]),
        (["cores", "--g6", "P5", "--kind", "kl:"], ["'kl:'", "kl:k,l"]),
        (["oracle", "--kind", "grid_clique:x", "--vertices", "[[0,0]]"],
         ["'grid_clique:x'", "tag:p"]),
        (["oracle", "--kind", "grid_clique:1:2", "--vertices", "[[0]]"],
         ["'grid_clique:1:2'", "tag:p"])])
    def test_malformed_spelling_is_named(self, capsys, argv, names):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert all(name in error for name in names), error
        assert "unpack" not in error and "invalid literal" not in error

    @pytest.mark.parametrize("pair, error", [
        ("1,1", "the two ends of pair (1, 1) must differ"),
        ("0,9", "vertex 9 out of range for n=5")])
    def test_pair_outside_the_graph_is_named(self, capsys, pair, error):
        code = main(["verify", "--g6", "P5", "--h", "P4", "--pair", pair])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert json.loads(captured.err) == {"error": error}

    @pytest.mark.parametrize("argv", [
        ["oracle", "--kind", "torero:5", "--vertices", '["1/2", "1/3"]'],
        ["oracle", "--vertices", '{"kind": {"tag": "torero", "p": 7}, "vertices": ["1/2"]}']])
    def test_parameter_on_a_plain_oracle_kind_is_refused(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "'torero' takes no parameter" in json.loads(captured.err)["error"]

    def test_pair_flag_spelling_still_reads_u_v(self, capsys):
        code, payload = run_json(capsys, ["verify", "--g6", "P5", "--h", "P4", "--pair", "0,1"])
        assert code == EXIT_VERIFY_FAILED and payload["pair_fixed_check"]["status"] == "pass"

    @pytest.mark.parametrize("kind, vertices, message", [
        ("rational_geometric", "[[1,2]]", "vertex must be a rational, got [1, 2]"),
        ("z3_agree", "[5]", "vertex must be ((i,j,k), clone>=0), got 5"),
        ("z3_agree", "[[[0,0,0]]]", "vertex must be ((i,j,k), clone>=0), got [[0, 0, 0]]"),
        ("z3_agree", "[[[0,0,0],-1]]", "vertex must be ((i,j,k), clone>=0), got ((0, 0, 0), -1)")])
    def test_oracle_vertex_of_the_wrong_shape_names_its_form(self, capsys, kind, vertices,
                                                             message):
        code = main(["oracle", "--kind", kind, "--vertices", vertices])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert message in json.loads(captured.err)["error"]

    def test_oracle_spec_kind_stays_a_json_object(self, capsys):
        # A flag spelling inside the JSON spec is not read as one.
        code = main(["oracle", "--vertices", '{"kind": "torero", "vertices": ["1/2", "1/3"]}'])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "malformed oracle spec" in json.loads(captured.err)["error"]

    def test_oracle_flag_and_spec_forms_agree(self, capsys):
        vertices = "[[0,1],[1,1],[2,3]]"
        flag = run_json(capsys, ["oracle", "--kind", "grid_clique:2", "--vertices", vertices])
        spec = run_json(capsys, ["oracle", "--vertices", json.dumps(
            {"kind": {"tag": "grid_clique", "p": 2}, "vertices": json.loads(vertices)})])
        assert flag == spec and flag[0] == EXIT_OK

    def test_batch_offset_counts_leading_whitespace(self, tmp_path, capsys):
        f = tmp_path / "graphs.g6"
        f.write_text("  Dr[[\n")
        assert main(["classify", "--input", str(f)]) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err) == {
            "error": "line 1: trailing garbage after bit body (byte offset 5)"}

    def test_every_subcommand_dispatches_to_its_handler(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        handlers = {name[len("_cmd_"):] for name in vars(cli) if name.startswith("_cmd_")}
        assert set(sub.choices) == handlers
        for name, subparser in sub.choices.items():
            assert subparser.get_default("run") is getattr(cli, f"_cmd_{name}"), name


class TestDocs:
    def test_fragment_stable_and_complete(self):
        one = generate_docs_examples()
        two = generate_docs_examples()
        assert one == two
        assert "core_11_bull_p4" in one          # the P4 entry
        assert "induced-saturated" in one        # the saturation regression line
        assert "E?qw" in one and "F?q~w" in one
        assert "F?rLw" in one                    # the table discrepancy note

    def test_docs_command(self, tmp_path):
        out = tmp_path / "examples.md"
        assert main(["docs", "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("# Worked certificates")


class TestGolden:
    """The docs fragment, the replay report and the scheduled prefixes of the
    construct-verify benchmark cases, byte for byte as committed."""

    def test_docs_output(self, capsys):
        assert main(["docs"]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / "docs.md").read_text()

    def test_replay_output(self, capsys):
        assert main(["replay"]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / "replay.json").read_text()

    def test_prefix_output(self, capsys):
        outputs = []
        for seed, h, family, m in [("P2", "P4", "twin", "2"), ("P3", "C5", "gatekeeper", "3"),
                                   ("P2", "Dr[", "gatekeeper", "2"), ("P2", "D]o", "k2p", "4"),
                                   ("P3", "D}o", "k11p", "3")]:
            assert main(["prefix", "--steps", "200", "--g6", seed, "--h", h,
                         "--strategy", family, "--m", m]) == EXIT_OK
            outputs.append(capsys.readouterr().out.rstrip("\n"))
        text = "[\n" + ",\n".join(outputs) + "\n]\n"
        assert text == (GOLDEN / "prefix.json").read_text()

    def test_verify_output(self, capsys):
        # A budget-2 pass on a twin prefix of P4 (Ch), failures at exhaustive
        # sizes 0 and 1, and a budget-3 failure that only a seeded trial finds.
        outputs = []
        for g6, h, pair, k, trials, seed in [("Iltqt\\Xsw", "Ch", "0,3", "2", "20", "5"),
                                             ("C4", "P4", "0,2", "1", "5", "0"),
                                             ("Iltqt\\Xsw", "Ch", "0,2", "2", "10", "1"),
                                             ("Gltqt[", "Ch", "0,1", "3", "40", "38")]:
            assert main(["verify", "--g6", g6, "--h", h, "--pair", pair, "--k", k,
                         "--trials", trials, "--seed", seed]) == EXIT_VERIFY_FAILED
            outputs.append(capsys.readouterr().out.rstrip("\n"))
        text = "[\n" + ",\n".join(outputs) + "\n]\n"
        assert text == (GOLDEN / "verify.json").read_text()
