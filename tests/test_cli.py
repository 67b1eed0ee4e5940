import json
from pathlib import Path

import jsonschema
import pytest

from indsat.cli import (EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED,
                        generate_docs_examples, graph_from_spec, main)
from indsat.graphs import (bull_graph, complete_graph, cycle_graph, emit_graph6,
                           icosahedron_complement, parse_graph6, path_graph)
from indsat import verifier
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

    def test_pair_fixed_check_included(self, capsys):
        code, payload = run_json(
            capsys, ["verify", "--g6", "C4", "--h", "P4", "--pair", "0,2",
                     "--k", "1", "--trials", "3", "--seed", "5"])
        assert payload["pair_fixed_check"]["status"] == "fail"
        validate(payload)

    @pytest.mark.parametrize("g6, h, code, h_free, searches", [
        (emit_graph6(icosahedron_complement()), "P5", EXIT_OK, True, 1),  # saturated
        ("C4", "P4", EXIT_VERIFY_FAILED, True, 1),                        # a failing pair
        # induced_saturated reports (False, None) on a graph containing h,
        # which leaves freeness open: one more search settles it.
        ("P5", "P4", EXIT_VERIFY_FAILED, False, 2)])
    def test_freeness_search_runs_once(self, capsys, monkeypatch, g6, h, code,
                                       h_free, searches):
        g = graph_from_spec(g6)
        hosts = []
        real = verifier.find_induced

        def counting(host, pattern):
            hosts.append(host)
            return real(host, pattern)

        monkeypatch.setattr(verifier, "find_induced", counting)
        assert main(["verify", "--g6", g6, "--h", h]) == code
        assert json.loads(capsys.readouterr().out)["h_free"] is h_free
        assert hosts.count(g) == searches

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

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        assert "usage: indsat classify" in capsys.readouterr().out


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
