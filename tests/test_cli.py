"""CLI behavior: subcommands, exit codes, determinism of written artifacts."""

import argparse
import errno
import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from hypersplit import cli
from hypersplit.cli import main
from hypersplit.errors import HypersplitError, ParseError, ReplayError, UnknownVertexError
from conftest import named_hypergraphs, names_for

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

    def test_all_pairs_reads_one_table(self, tmp_path, max_flows, capsys):
        # Five vertices, ten pairs: the flow-equivalent tree needs four flows.
        path = tmp_path / "five.he"
        path.write_text("a b c\nb c d\nc d e\na e\nb d\n")
        assert main(["conn", str(path), "--all-pairs"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10
        assert len(max_flows) == 4

    def test_single_pair_json(self, triangle, capsys):
        assert main(["conn", str(triangle), "-u", "a", "-v", "b", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload == {"pairs": [{"u": "a", "v": "b", "value": 2}]}
        assert out == json.dumps(payload, indent=2) + "\n"

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

    def test_malformed_hyperedge_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ["a", "b"], "hyperedges": [["a", "b"], ["a", null]]}')
        assert main(["conn", str(bad), "-u", "a", "-v", "b"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: hyperedge 1 must be an array of strings\n")

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["conn", str(tmp_path / "nope.json"), "--all-pairs"]) == 2

    def test_missing_pair_args_exit_2(self, triangle):
        assert main(["conn", str(triangle)]) == 2

    def test_long_path_ends(self, tmp_path, capsys):
        path = tmp_path / "path.he"
        path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(4999)))
        assert main(["conn", str(path), "-u", "v0", "-v", "v4999"]) == 0
        assert capsys.readouterr().out == "lambda(v0, v4999) = 1\n"

    @pytest.mark.parametrize("length, query", [(1000, ["-u", "v000", "-v", "v999"]), (300, ["--all-pairs"])])
    def test_path_file_through_the_entry_point(self, tmp_path, length, query):
        # A path hypergraph in the benchmark's JSON shape, run as a program.
        names = [f"v{i:0{len(str(length - 1))}d}" for i in range(length)]
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"vertices": names, "hyperedges": [list(p) for p in zip(names, names[1:])]}))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "hypersplit.cli", "conn", str(path), *query],
                             capture_output=True, text=True, env=env)
        assert (run.returncode, run.stderr) == (0, "")
        lines = run.stdout.splitlines()
        assert len(lines) == (1 if query[0] == "-u" else length * (length - 1) // 2)
        assert all(line.endswith(") = 1") for line in lines)
        assert lines[0] == f"lambda({names[0]}, {names[-1] if query[0] == '-u' else names[1]}) = 1"


class TestUnexpectedErrors:
    def test_crash_exits_4_on_one_line(self, triangle, monkeypatch, capsys):
        def crash(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_conn", crash)
        assert main(["conn", str(triangle), "--all-pairs"]) == 4
        err = capsys.readouterr().err
        assert err == "error: internal error: RuntimeError: boom second line\n"
        assert "Traceback" not in err


class TestClosedStdout:
    """A reader that stops reading makes stdout an unwritable output: exit 2, one line.
    A process with no stdout at all prints nothing, as before."""

    @staticmethod
    def _start(argv, stdout):
        # Block-buffered stdout, the default for a pipe: a short output then
        # fails only when it is flushed.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        return subprocess.Popen([sys.executable, "-m", "hypersplit.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)

    def test_conn_all_pairs_into_a_closed_pipe(self, tmp_path):
        path = tmp_path / "path.he"
        path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(199)))
        # 19,900 rows, far more than a pipe holds, so the writer outlives the reader.
        proc = self._start(["conn", str(path), "--all-pairs"], subprocess.PIPE)
        assert proc.stdout.readline() == "lambda(v0, v1) = 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
        assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    def test_short_output_into_a_pipe_closed_before_it(self, triangle):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._start(["conn", str(triangle), "-u", "a", "-v", "b"], write_end)
        finally:
            os.close(write_end)
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
        assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    def test_split_to_stdout_in_process(self, two_star, tmp_path, monkeypatch, capsys):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        log = tmp_path / "log.json"
        assert main(["split", str(two_star), "-s", "s", "-o", "-", "--log-out", str(log)]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("command", ["conn", "reduce"])
    def test_no_stdout_at_all(self, command, triangle, element_file, monkeypatch, capsys):
        # A process started with fd 1 closed has sys.stdout None; print skips
        # it, and so does a text meant for stdout.
        argv = (["conn", str(triangle), "-u", "a", "-v", "b"] if command == "conn"
                else ["reduce", str(element_file)])
        monkeypatch.setattr(sys, "stdout", None)
        assert main(argv) == 0
        monkeypatch.undo()
        assert capsys.readouterr() == ("", "")


class TestUnwritableStderr:
    """An error message that cannot be written is dropped; the exit code stays."""

    def test_started_without_fd_2(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(["/bin/sh", "-c", 'exec "$0" "$@" 2>&-', sys.executable, "-m", "hypersplit.cli",
                              "conn", str(tmp_path / "missing.he"), "--all-pairs"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stdout) == (2, "")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_stderr_and_stdout_into_one_closed_pipe(self, tmp_path, unbuffered):
        path = tmp_path / "path.he"
        path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(199)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "hypersplit.cli", "conn", str(path), "--all-pairs"],
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
        assert proc.stdout.readline() == "lambda(v0, v1) = 1\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2

    def test_write_fails(self, tmp_path, monkeypatch, capsys):
        class BadDescriptor(io.StringIO):
            def write(self, text):
                raise OSError(9, "Bad file descriptor")

        monkeypatch.setattr(sys, "stderr", BadDescriptor())
        assert main(["conn", str(tmp_path / "missing.he"), "--all-pairs"]) == 2
        monkeypatch.undo()
        assert capsys.readouterr() == ("", "")

    def test_no_stderr_at_all(self, tmp_path, monkeypatch, capsys):
        # print(file=None) would write to stdout instead.
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["conn", str(tmp_path / "missing.he"), "--all-pairs"]) == 2
        monkeypatch.undo()
        assert capsys.readouterr() == ("", "")


class TestGcPaused:
    """``main`` pauses the cyclic GC while the command runs and restores it on every way out."""

    @pytest.mark.parametrize("outcome, code", [
        (lambda: 0, 0),
        (lambda: 1, 1),
        (ParseError("bad input"), 2),
        (UnknownVertexError("unknown vertex x"), 3),
        (RuntimeError("boom"), 4),
        (ReplayError(3, HypersplitError("no such edge")), 5),
    ])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_after_each_exit_code(self, outcome, code, enabled, triangle, monkeypatch, capsys):
        during = []

        def handler(args):
            during.append(gc.isenabled())
            if isinstance(outcome, Exception):
                raise outcome
            return outcome()

        monkeypatch.setattr(cli, "cmd_conn", handler)
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["conn", str(triangle), "--all-pairs"]) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert during == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_after_help(self, enabled, capsys):
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestParserBuiltOnce:
    """``main`` builds its parser once per process and finds its handler at call time."""

    def test_second_call_builds_no_parser(self, triangle, monkeypatch, capsys):
        assert main(["conn", str(triangle), "-u", "a", "-v", "b"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["conn", str(triangle), "-u", "a", "-v", "c"]) == 0
        assert built == []
        assert capsys.readouterr().out == "lambda(a, b) = 2\nlambda(a, c) = 2\n"

    def test_handler_patched_after_the_parser_is_built(self, triangle, monkeypatch, capsys):
        assert main(["conn", str(triangle), "--all-pairs"]) == 0
        monkeypatch.setattr(cli, "cmd_conn", lambda args: 7)
        assert main(["conn", str(triangle), "--all-pairs"]) == 7
        monkeypatch.undo()
        assert main(["conn", str(triangle), "-u", "a", "-v", "b"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "lambda(a, b) = 2"

    def test_help_and_usage_errors_match_a_fresh_parser(self, two_star, monkeypatch, capsys):
        def run(parse, argv):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        invocations = (
            ["-h"],
            ["split", str(two_star)],
            ["no-such-command", str(two_star)],
            ["conn", str(two_star), "--format", "xml"],
        )
        helps = []
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in invocations:
                fresh = run(cli.build_parser.__wrapped__().parse_args, argv)
                assert run(main, argv) == fresh
                assert run(main, argv) == fresh
            helps.append(run(main, ["-h"]))
        # Help is laid out for the width at the time of the call.
        assert helps[0][0] == helps[1][0] == 0
        description = "Hypergraph connectivity, element-connectivity, and splitting-off."
        assert description not in helps[0][1].splitlines()
        assert description in helps[1][1].splitlines()


class TestUnwritableOutput:
    """An output that cannot be written exits 2 with one line, like an unreadable input."""

    @pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
    @pytest.mark.parametrize("site", [
        "split -o", "split --log-out", "reduce -o", "reduce --trace-out", "replay -o", "export-dot -o",
    ])
    def test_exits_2(self, site, where, two_star, element_file, tmp_path, capsys):
        target = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
        command, flag = site.split()
        if command == "replay":
            log = tmp_path / "log.json"
            assert main(["split", str(two_star), "-s", "s", "--log-out", str(log)]) == 0
            capsys.readouterr()
            argv = ["replay", str(two_star), "--log", str(log)]
        elif command == "split":
            argv = ["split", str(two_star), "-s", "s"]
        else:
            argv = [command, str(element_file if command == "reduce" else two_star)]
        assert main([*argv, flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: [Errno ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


def open_fds() -> int:
    """How many descriptors this process has open."""
    return len(os.listdir("/proc/self/fd"))


class TestNoPartialOutput:
    """A usage error about one output leaves every other output file as it was."""

    @pytest.mark.parametrize("existed", [False, True])
    def test_split_log_out_unwritable(self, two_star, tmp_path, existed, capsys):
        out, log = tmp_path / "o.he", tmp_path / "missing" / "log.json"
        if existed:
            out.write_bytes(b"old bytes\n")
        fds = open_fds()
        assert main(["split", str(two_star), "-s", "s", "-o", str(out), "--log-out", str(log)]) == 2
        assert open_fds() == fds
        assert capsys.readouterr().err.startswith(f"error: cannot write {log}: [Errno ")
        assert (out.read_bytes() == b"old bytes\n") if existed else not out.exists()

    @pytest.mark.parametrize("existed", [False, True])
    def test_reduce_out_unwritable(self, element_file, tmp_path, existed, capsys):
        trace, out = tmp_path / "T", tmp_path / "missing" / "x"
        if existed:
            trace.write_bytes(b"old bytes\n")
        assert main(["reduce", str(element_file), "--trace-out", str(trace), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: [Errno ")
        assert captured.out == ""
        assert (trace.read_bytes() == b"old bytes\n") if existed else not trace.exists()

    @pytest.mark.parametrize("command", ["split", "reduce", "replay", "export-dot"])
    def test_existing_outputs_are_replaced_whole(self, command, two_star, element_file, tmp_path, capsys):
        # A file is rewritten in place, so what the old one held past the new
        # end must be cut off: each output reads as if written to a fresh file.
        log = tmp_path / "log.json"
        assert main(["split", str(two_star), "-s", "s", "--log-out", str(log)]) == 0
        argv = {
            "split": ["split", str(two_star), "-s", "s"],
            "reduce": ["reduce", str(element_file)],
            "replay": ["replay", str(two_star), "--log", str(log)],
            "export-dot": ["export-dot", str(two_star)],
        }[command]
        flags = {"split": ["-o", "--log-out"], "reduce": ["-o", "--trace-out"]}.get(command, ["-o"])

        def run(folder, old):
            folder.mkdir()
            outs = [folder / flag.lstrip("-") for flag in flags]
            if old:
                for out in outs:
                    out.write_bytes(old)
            fds = open_fds()
            assert main([*argv, *(arg for flag, out in zip(flags, outs) for arg in (flag, str(out)))]) == 0
            assert open_fds() == fds
            return [out.read_bytes() for out in outs]

        fresh = run(tmp_path / "fresh", None)
        assert run(tmp_path / "old", b"x" * 4096) == fresh
        assert capsys.readouterr().err == ""
        assert all(0 < len(text) < 4096 for text in fresh)

    def test_hard_link_keeps_its_inode_and_mode(self, two_star, tmp_path, capsys):
        fresh = tmp_path / "fresh.he"
        assert main(["split", str(two_star), "-s", "s", "-o", str(fresh)]) == 0
        out, link = tmp_path / "o.he", tmp_path / "link.he"
        out.write_bytes(b"x" * 4096)
        out.chmod(0o640)
        os.link(out, link)
        before = out.stat()
        assert main(["split", str(two_star), "-s", "s", "-o", str(out)]) == 0
        after = out.stat()
        assert out.read_bytes() == link.read_bytes() == fresh.read_bytes()
        assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)

    def test_fifo_is_written_not_cut(self, two_star, tmp_path, capsys):
        # A FIFO has no length to cut: the reader gets the text through the one
        # open the command makes, and the command exits 0.
        fresh = tmp_path / "fresh.dot"
        assert main(["export-dot", str(two_star), "-o", str(fresh)]) == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        # Should the command open the FIFO again after its reader has gone, a
        # reader opened later lets that open return instead of hanging the test.
        rescue = threading.Timer(10, lambda: os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        reader.start()
        rescue.start()
        try:
            assert main(["export-dot", str(two_star), "-o", str(fifo)]) == 0
        finally:
            rescue.cancel()
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [fresh.read_bytes()]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("failing", [0, 1])
    def test_write_failing_part_way(self, failing, two_star, tmp_path, monkeypatch, capsys):
        # The failing write puts 5 bytes down before the disk fills: the file is
        # cut after them, and no byte of the old file follows.
        names = [tmp_path / "o.he", tmp_path / "log.json"]
        argv = ["split", str(two_star), "-s", "s", "-o", str(names[0]), "--log-out", str(names[1])]
        assert main(argv) == 0
        fresh = [name.read_bytes() for name in names]
        for name in names:
            name.write_bytes(b"x" * 4096)
        real_write, calls = os.write, []

        def write(fd, data):
            calls.append(fd)
            if len(calls) == failing + 1:
                return real_write(fd, data[:5])
            if len(calls) == failing + 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data)

        capsys.readouterr()
        fds = open_fds()
        monkeypatch.setattr(os, "write", write)
        assert main(argv) == 2
        monkeypatch.undo()
        assert open_fds() == fds
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {names[failing]}: [Errno 28] No space left on device\n"
        assert names[failing].read_bytes() == fresh[failing][:5]
        assert [name.read_bytes() for name in names[:failing]] == fresh[:failing]
        assert [name.read_bytes() for name in names[failing + 1:]] == [b"x" * 4096] * (1 - failing)

    @pytest.mark.parametrize("second", ["same-name", "same-name-existing", "hard-link"])
    @pytest.mark.parametrize("command", ["split", "reduce"])
    def test_two_outputs_naming_one_file(self, command, second, two_star, element_file, tmp_path, capsys):
        # Each write would replace the other's text, so the run stops before either.
        target = other = tmp_path / "F"
        if second != "same-name":
            target.write_bytes(b"old bytes\n")
        if second == "hard-link":
            other = tmp_path / "G"
            os.link(target, other)
        argv = {
            "split": ["split", str(two_star), "-s", "s", "-o", str(target), "--log-out", str(other)],
            "reduce": ["reduce", str(element_file), "--trace-out", str(target), "-o", str(other)],
        }[command]
        fds = open_fds()
        assert main(argv) == 2
        assert open_fds() == fds
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {other}: ")
        assert captured.err.count("\n") == 1
        assert (target.read_bytes() == b"old bytes\n") if second != "same-name" else not target.exists()

    @pytest.mark.parametrize("command", ["split", "reduce", "export-dot"])
    def test_device_outputs(self, two_star, element_file, command, capsys):
        argv = {
            "split": ["split", str(two_star), "-s", "s", "-o", os.devnull, "--log-out", os.devnull],
            "reduce": ["reduce", str(element_file), "--trace-out", os.devnull, "-o", os.devnull],
            "export-dot": ["export-dot", str(two_star), "-o", os.devnull],
        }[command]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_dash_is_stdout_only_for_o(self, two_star, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["split", str(two_star), "-s", "s", "-o", "-", "--log-out", "-"]) == 0
        assert capsys.readouterr().out.startswith("#vertices: a b s\n")
        assert json.loads((tmp_path / "-").read_text())["s"] == "s"


class TestLoneSurrogateName:
    """A name with no UTF-8 form is rejected while parsing, not when it is printed."""

    @pytest.mark.parametrize("text", [
        '{"vertices": ["\\ud800", "b"], "hyperedges": [["\\ud800", "b"]]}',
        '{"vertices": ["\\ud800", "b"], "edges": [["\\ud800", "b"]], "terminals": ["\\ud800", "b"]}',
    ], ids=["hypergraph", "element"])
    def test_exits_2(self, tmp_path, text, capsys):
        path = tmp_path / "sur.json"
        path.write_text(text)
        command = "conn" if "hyperedges" in text else "econn"
        assert main([command, str(path), "--all-pairs"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: vertex name '\\ud800' holds a lone surrogate\n"
        assert captured.out == ""

    def test_a_pair_written_as_two_escapes_is_one_name(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text('{"vertices": ["\\ud83d\\ude00", "b"], "hyperedges": [["\\ud83d\\ude00", "b"]]}')
        assert main(["conn", str(path), "--all-pairs"]) == 0
        assert capsys.readouterr().out == "lambda(b, \U0001f600) = 1\n"


class TestUnreadableInput:
    """Every command that reads a file exits 2 on one line, with no traceback,
    for a file that is not UTF-8 or JSON nested too deep to decode."""

    READERS = {
        "conn": ["conn", "{bad}", "--all-pairs"],
        "econn": ["econn", "{bad}", "--all-pairs"],
        "oracle": ["oracle", "{bad}", "--all-pairs"],
        "reduce": ["reduce", "{bad}"],
        "split": ["split", "{bad}", "-s", "a"],
        "verify": ["verify", "{good}", "{bad}"],
        "export-dot": ["export-dot", "{bad}"],
        "replay --log": ["replay", "{good}", "--log", "{bad}"],
    }

    @staticmethod
    def run(argv, bad, good, capsys):
        args = [a.format(bad=bad, good=good) for a in argv]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize("suffix", [".he", ".json"])
    @pytest.mark.parametrize("command", READERS)
    def test_non_utf8(self, command, suffix, two_star, tmp_path, capsys):
        bad = tmp_path / f"bad{suffix}"
        bad.write_bytes(b"a b\xff\n")
        err = self.run(self.READERS[command], bad, two_star, capsys)
        assert err == f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 3: invalid start byte\n"

    @pytest.mark.parametrize("command", READERS)
    def test_deep_json(self, command, two_star, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200000 + "\n")
        err = self.run(self.READERS[command], bad, two_star, capsys)
        assert err.startswith("error: invalid JSON: ")

    @pytest.mark.parametrize("content", [b"a b\xff\n", b"[" * 200000], ids=["non-utf8", "deep"])
    def test_through_the_entry_point(self, content, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "hypersplit.cli", "conn", str(bad), "--all-pairs"],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 2 and run.stdout == ""
        assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: ")


class TestEconn:
    def test_pair(self, element_file, capsys):
        assert main(["econn", str(element_file), "-u", "u", "-v", "v"]) == 0
        assert capsys.readouterr().out == "kappa(u, v) = 1\n"

    def test_all_pairs_reads_one_table(self, tmp_path, max_flows, capsys):
        path = tmp_path / "four.json"
        path.write_text(
            '{"vertices": ["a","b","c","d","p"], "edges": [["a","p"],["b","p"],["c","p"],'
            '["d","p"],["a","b"],["c","d"]], "terminals": ["a","b","c","d"]}\n'
        )
        assert main(["econn", str(path), "--all-pairs"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "kappa(a, b) = 2",
            "kappa(a, c) = 1",
            "kappa(a, d) = 1",
            "kappa(b, c) = 1",
            "kappa(b, d) = 1",
            "kappa(c, d) = 2",
        ]
        assert len(max_flows) == 3

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

    def test_dash_out_is_one_json_document(self, element_file, capsys):
        # The step summary goes with a file only, as it would break the document.
        assert main(["reduce", str(element_file)]) == 0
        default = capsys.readouterr().out
        assert main(["reduce", str(element_file), "-o", "-"]) == 0
        out = capsys.readouterr().out
        assert out == default
        assert json.loads(out)["terminals"] == ["u", "v"]


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
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
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

    def test_s_double_dash_is_a_usage_error(self, two_star, capsys):
        # argparse (3.11) strips the value of -s-- and leaves an empty list.
        assert main(["split", str(two_star), "-s--"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: -s needs a vertex name, and '--' cannot be one\n"
        assert captured.out == ""

    def test_certify_flag_changes_no_output_byte(self, tmp_path, capsys):
        # --certify and --no-certify are accepted and do nothing: the end-to-end
        # check runs either way, and so do the same flows.
        from hypersplit import GenParams, random_hypergraph
        from hypersplit.formats import write_hypergraph_text

        src, out, log = tmp_path / "in.he", tmp_path / "out.he", tmp_path / "log.json"
        for n in range(6, 13):
            h = random_hypergraph(GenParams(n, 2 * n + n % 3, 4, seed=n))
            table = names_for(n)
            src.write_text(write_hypergraph_text(h, table), encoding="utf-8")
            for s in (max(sorted(h.vertices), key=h.degree), min(h.vertices)):
                runs = []
                for flag in ([], ["--certify"], ["--no-certify"]):
                    argv = ["split", str(src), "-s", table.name_of(s), *flag]
                    assert main([*argv, "-o", str(out), "--log-out", str(log)]) == 0
                    text = capsys.readouterr().out
                    assert main([*argv, "--json"]) == 0
                    runs.append((out.read_bytes(), log.read_bytes(), text, capsys.readouterr().out))
                assert runs[0] == runs[1] == runs[2], (n, s)

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

    def test_non_integer_id_exits_2(self, two_star, tmp_path, capsys):
        # Python counts true as the int 1; a log id must be a JSON integer.
        log = tmp_path / "log.json"
        log.write_text('{"s": "s", "hyperedges": [["a", "s"], ["b", "s"]], "ops": [{"op": "trim", "edge": true}]}')
        assert main(["replay", str(two_star), "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: op 0 is malformed: 'edge' must be an integer, not true\n"
        assert captured.out == ""

    def test_s_flag_must_match_header(self, two_star, tmp_path):
        log = tmp_path / "log.json"
        log.write_text(json.dumps({"s": "s", "hyperedges": [["a", "s"], ["b", "s"]], "ops": []}))
        assert main(["replay", str(two_star), "--log", str(log), "-s", "a"]) == 2

    def test_s_double_dash_is_a_usage_error(self, two_star, tmp_path, capsys):
        log = tmp_path / "log.json"
        log.write_text(json.dumps({"s": "s", "hyperedges": [["a", "s"], ["b", "s"]], "ops": []}))
        assert main(["replay", str(two_star), "--log", str(log), "-s--"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: -s needs a vertex name, and '--' cannot be one\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("conn", [False, True])
    def test_verify_matches_names_not_file_order(self, tmp_path, conn, capsys):
        # Either file lists the names in its own order; ids follow the sorted
        # names, so the same names are the same vertices.
        a, b, c = tmp_path / "a.json", tmp_path / "b.he", tmp_path / "c.he"
        a.write_text('{"vertices": ["z", "m", "a", "q"], "hyperedges": [["q", "z"], ["m", "z", "a"], ["a", "q"]]}')
        b.write_text("#vertices: q a z m\na q\nz q\na m z\n")
        c.write_text("#vertices: q a z n\na q\nz q\na n z\n")
        flag = ["--conn"] if conn else []
        assert main(["verify", str(a), str(b), *flag]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "hypergraphs equal: yes"
        if conn:
            assert out[1:] == ["connectivity over 4 common vertices (6 pairs): equal"]
        assert main(["verify", str(a), str(c), *flag]) == (0 if conn else 1)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "hypergraphs equal: no"
        if conn:
            assert out[-1] == "connectivity over 3 common vertices (3 pairs): equal"

    def test_verify_conn_reads_one_table_per_file(self, tmp_path, max_flows, capsys):
        # Ten vertices each, 45 common pairs: one flow-equivalent tree of nine
        # flows per file, not two flows per pair.
        ring = "".join(f"v{i} v{(i + 1) % 10}\n" for i in range(10))
        a, b = tmp_path / "ring.he", tmp_path / "chord.he"
        a.write_text(ring)
        b.write_text(ring + "v0 v5\n")
        assert main(["verify", str(a), str(b), "--conn"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "hypergraphs equal: no"
        assert "lambda(v0, v5): 2 != 3" in out
        assert out[-1] == "connectivity over 10 common vertices (45 pairs): DIFFERENT"
        assert len(max_flows) == 18


class TestSplitReplayProperty:
    """The file ``split -o OUT --log-out LOG`` writes is the file ``replay INPUT
    --log LOG`` writes, for .json and .he inputs (derandomized)."""

    def test_replayed_log_rebuilds_the_output(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        from hypersplit.formats import write_hypergraph_json, write_hypergraph_text

        @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
        @hypothesis.given(named_hypergraphs(st))
        def check(drawn):
            h, table, s = drawn
            # argparse (3.11) strips a "--" option value, so no -s can name that vertex.
            hypothesis.assume(table.name_of(s) != "--")
            for suffix, write in ((".json", write_hypergraph_json), (".he", write_hypergraph_text)):
                src, out, log, again = (tmp_path / f"{stem}{suffix}" for stem in ("in", "out", "log", "again"))
                src.write_text(write(h, table), encoding="utf-8")
                # Attached, so that a name such as "-a" is not read as an option.
                split = ["split", str(src), f"-s{table.name_of(s)}", "-o", str(out), "--log-out", str(log)]
                assert main(split) == 0
                assert main(["replay", str(src), "--log", str(log), "-o", str(again)]) == 0
                assert main(["verify", str(out), str(again)]) == 0
                assert out.read_bytes() == again.read_bytes()

        check()


class TestExportDot:
    def test_writes_dot(self, triangle, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["export-dot", str(triangle), "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("graph incidence {")
        assert '"a" -- "#e0";' in text

    def test_stdout(self, triangle, capsys):
        assert main(["export-dot", str(triangle)]) == 0
        assert "shape=circle" in capsys.readouterr().out


class TestBenchmarkTracing:
    def test_tracer_wraps_a_split(self, two_star):
        # The benchmark's per-layer view wraps this package from outside by
        # name; a renamed or removed function or method it looks up fails here.
        path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
        spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        # An untraced call first, so the traced one runs on an already built parser.
        assert cli.main(["split", str(two_star), "-s", "s"]) == 0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = cli.main(["split", str(two_star), "-s", "s"])
        finally:
            tracer.uninstall()
        assert code == 0
        names = {tracer.names[span[0]] for span in tracer.spans}
        assert "splitoff.run_pipeline" in names
        assert "cli.cmd_split" in names
        assert tracer.layer_metrics()["flow.maxflows"][0] > 0
