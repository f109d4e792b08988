"""CLI behavior: subcommands, exit codes, determinism of written artifacts."""

import json

import pytest

from hypersplit.cli import main

TRIANGLE = '{"vertices": ["a", "b", "c"], "hyperedges": [["a","b"], ["b","c"], ["a","c"]]}\n'
TWO_STAR = "s a\ns b\n"
ELEMENT = (
    '{"vertices": ["u","v","p","q"], "edges": [["u","p"],["p","q"],["q","v"]],'
    ' "terminals": ["u","v"]}\n'
)


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(TRIANGLE)
    return path


@pytest.fixture
def two_star(tmp_path):
    path = tmp_path / "star.he"
    path.write_text(TWO_STAR)
    return path


@pytest.fixture
def element_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(ELEMENT)
    return path


class TestConn:
    def test_all_pairs_text(self, triangle, capsys):
        assert main(["conn", str(triangle), "--all-pairs"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "lambda(a, b) = 2",
            "lambda(a, c) = 2",
            "lambda(b, c) = 2",
        ]

    def test_single_pair_json(self, triangle, capsys):
        assert main(["conn", str(triangle), "-u", "a", "-v", "b", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"pairs": [{"u": "a", "v": "b", "value": 2}]}

    def test_unknown_vertex_exits_3(self, triangle, capsys):
        assert main(["conn", str(triangle), "-u", "a", "-v", "zz"]) == 3
        assert "zz" in capsys.readouterr().err

    def test_equal_endpoints_exit_3(self, triangle):
        assert main(["conn", str(triangle), "-u", "a", "-v", "a"]) == 3

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["conn", str(bad), "--all-pairs"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["conn", str(tmp_path / "nope.json"), "--all-pairs"]) == 2

    def test_missing_pair_args_exit_2(self, triangle):
        assert main(["conn", str(triangle)]) == 2

    def test_long_path_ends(self, tmp_path, capsys):
        path = tmp_path / "path.he"
        path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(4999)))
        assert main(["conn", str(path), "-u", "v0", "-v", "v4999"]) == 0
        assert capsys.readouterr().out == "lambda(v0, v4999) = 1\n"


class TestEconn:
    def test_pair(self, element_file, capsys):
        assert main(["econn", str(element_file), "-u", "u", "-v", "v"]) == 0
        assert capsys.readouterr().out == "kappa(u, v) = 1\n"

    def test_non_terminal_endpoint_exits_3(self, element_file):
        assert main(["econn", str(element_file), "-u", "u", "-v", "p"]) == 3


class TestOracleCmd:
    def test_check_agrees(self, triangle, capsys):
        assert main(["oracle", str(triangle), "--all-pairs", "--check"]) == 0
        assert "lambda(a, b) = 2" in capsys.readouterr().out

    def test_element_instance_detected(self, element_file, capsys):
        assert main(["oracle", str(element_file), "--all-pairs", "--check"]) == 0
        assert "kappa(u, v) = 1" in capsys.readouterr().out


class TestReduceCmd:
    def test_writes_instance_and_trace(self, element_file, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        trace = tmp_path / "trace.json"
        assert main(["reduce", str(element_file), "-o", str(out), "--trace-out", str(trace)]) == 0
        assert "reduced: 1 steps (0 deleted, 1 contracted)" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["terminals"] == ["u", "v"]
        assert json.loads(trace.read_text())["steps"][0]["action"] == "contracted"

    def test_stdout_default(self, element_file, capsys):
        assert main(["reduce", str(element_file)]) == 0
        assert json.loads(capsys.readouterr().out)["terminals"] == ["u", "v"]


class TestSplit:
    def test_split_writes_everything(self, two_star, tmp_path, capsys):
        out = tmp_path / "hstar.he"
        log = tmp_path / "log.json"
        rc = main(["split", str(two_star), "-s", "s", "-o", str(out), "--log-out", str(log)])
        assert rc == 0
        report = capsys.readouterr().out
        assert "certificate: PASS" in report
        assert "operations: 2 (1 merge, 1 trim)" in report
        assert out.read_text() == "#vertices: a b s\na b\n"
        payload = json.loads(log.read_text())
        assert payload["s"] == "s"
        assert payload["ops"] == [
            {"op": "merge", "keep": 0, "absorb": 1},
            {"op": "trim", "edge": 0},
        ]

    def test_drop_s(self, two_star, tmp_path, capsys):
        out = tmp_path / "hstar.he"
        assert main(["split", str(two_star), "-s", "s", "-o", str(out), "--drop-s"]) == 0
        assert out.read_text() == "#vertices: a b\na b\n"

    def test_json_summary(self, two_star, capsys):
        assert main(["split", str(two_star), "-s", "s", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] == "pass"
        assert payload["pairs_checked"] == 1
        assert payload["operations"] == {"merge": 1, "trim": 1}

    def test_degree_zero_identity(self, tmp_path, capsys):
        src = tmp_path / "h.he"
        src.write_text("#vertices: s\na b\n")
        out = tmp_path / "out.he"
        assert main(["split", str(src), "-s", "s", "-o", str(out)]) == 0
        assert "operations: 0" in capsys.readouterr().out
        assert out.read_text() == "#vertices: a b s\na b\n"

    def test_unknown_vertex(self, two_star):
        assert main(["split", str(two_star), "-s", "zz"]) == 3

    def test_deterministic_outputs(self, two_star, tmp_path, capsys):
        files = []
        for tag in ("one", "two"):
            out = tmp_path / f"h{tag}.he"
            log = tmp_path / f"l{tag}.json"
            assert main(["split", str(two_star), "-s", "s", "-o", str(out), "--log-out", str(log)]) == 0
            files.append((out.read_bytes(), log.read_bytes(), capsys.readouterr().out))
        assert files[0] == files[1]


class TestReplayVerify:
    def test_round_trip(self, two_star, tmp_path, capsys):
        hstar = tmp_path / "hstar.he"
        log = tmp_path / "log.json"
        main(["split", str(two_star), "-s", "s", "-o", str(hstar), "--log-out", str(log)])
        capsys.readouterr()
        replayed = tmp_path / "replayed.he"
        assert main(["replay", str(two_star), "--log", str(log), "-o", str(replayed)]) == 0
        assert main(["verify", str(hstar), str(replayed)]) == 0
        assert "hypergraphs equal: yes" in capsys.readouterr().out

    def test_tampered_log_exits_5(self, tmp_path, capsys):
        src = tmp_path / "h.he"
        src.write_text("s a c\ns b c\n")  # the two hyperedges share c, merge is illegal
        log = tmp_path / "log.json"
        log.write_text(
            json.dumps(
                {
                    "s": "s",
                    "hyperedges": [["a", "c", "s"], ["b", "c", "s"]],
                    "ops": [{"op": "merge", "keep": 0, "absorb": 1}],
                }
            )
        )
        assert main(["replay", str(src), "--log", str(log)]) == 5
        assert "index 0" in capsys.readouterr().err

    def test_header_mismatch_exits_2(self, two_star, tmp_path):
        log = tmp_path / "log.json"
        log.write_text(
            json.dumps({"s": "s", "hyperedges": [["a", "s"]], "ops": [{"op": "trim", "edge": 0}]})
        )
        assert main(["replay", str(two_star), "--log", str(log)]) == 2

    def test_s_flag_must_match_header(self, two_star, tmp_path):
        log = tmp_path / "log.json"
        log.write_text(json.dumps({"s": "s", "hyperedges": [["a", "s"], ["b", "s"]], "ops": []}))
        assert main(["replay", str(two_star), "--log", str(log), "-s", "a"]) == 2

    def test_verify_mismatch_exits_1(self, triangle, two_star, capsys):
        assert main(["verify", str(triangle), str(two_star)]) == 1
        assert "hypergraphs equal: no" in capsys.readouterr().out

    def test_verify_conn_h_vs_hstar(self, two_star, tmp_path, capsys):
        hstar = tmp_path / "hstar.he"
        main(["split", str(two_star), "-s", "s", "-o", str(hstar), "--drop-s"])
        capsys.readouterr()
        assert main(["verify", str(two_star), str(hstar), "--conn"]) == 0
        out = capsys.readouterr().out
        assert "hypergraphs equal: no" in out
        assert "2 common vertices" in out


class TestExportDot:
    def test_writes_dot(self, triangle, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["export-dot", str(triangle), "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("graph incidence {")
        assert '"a" -- "e0";' in text

    def test_stdout(self, triangle, capsys):
        assert main(["export-dot", str(triangle)]) == 0
        assert "shape=circle" in capsys.readouterr().out
