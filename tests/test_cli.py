import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hypersparse import cli, core, linalg
from hypersparse.core import flatten, init_underlying
from hypersparse.linalg import effective_resistance_exact
from hypersparse.cli import run_command
from hypersparse.hgio import parse_hypergraph, serialize_hypergraph
from hypersparse.hsparse import sample_count

from helpers import brute_st_mincut, edges, random_hypergraph

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    return code, out.getvalue()


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "in.hgr"
    path.write_text("2 3 1\n1.5 1 2 3\n2 1 2\n")
    return str(path)


@pytest.fixture
def random_file(tmp_path):
    H = random_hypergraph(7, n=10, m=40, rank=4)
    path = tmp_path / "rand.hgr"
    serialize_hypergraph(H, str(path))
    return str(path), H


class TestSparsifyVerifyFlow:
    def test_sparsify_then_cut_verify_exits_zero(self, random_file, tmp_path):
        path, _ = random_file
        out_path = str(tmp_path / "out.hgr")
        code, text = run(
            ["sparsify", path, "--epsilon", "0.3", "--seed", "42", "-o", out_path]
        )
        assert code == 0
        assert text.startswith("format=1\n")
        code, text = run(
            ["verify", path, out_path, "--mode", "cut", "--epsilon", "0.3"]
        )
        assert code == 0
        assert "passed=true" in text

    def test_verify_detects_violation(self, sample_file, tmp_path):
        H = parse_hypergraph(sample_file)
        from hypersparse.core import Hypergraph

        bad = Hypergraph(H.n, [(vs, 2.0 * w) for vs, w in edges(H)])
        bad_path = str(tmp_path / "bad.hgr")
        serialize_hypergraph(bad, bad_path)
        code, text = run(
            ["verify", sample_file, bad_path, "--mode", "cut", "--epsilon", "0.25"]
        )
        assert code == 1
        assert "passed=false" in text

    @pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("mode", ["cut", "spectral"])
    def test_bad_epsilon_is_usage_error(self, sample_file, capsys, mode, eps):
        code, text = run(["verify", sample_file, sample_file, "--mode", mode, "--epsilon", eps])
        assert code == 2
        assert text == ""
        assert "epsilon must be finite and nonnegative" in capsys.readouterr().err

    def test_cut_mode_past_its_bound_names_spectral_mode(self, tmp_path, capsys):
        path = tmp_path / "big.hgr"
        path.write_text("2 24 1\n1 1 2\n1 23 24\n")
        code, text = run(["verify", str(path), str(path), "--mode", "cut", "--epsilon", "0.1"])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert "exceeds the exhaustive bound 20" in err
        assert "(CLI: --mode spectral)" in err

    def test_verify_help_states_the_cut_bound(self):
        code, text = run(["verify", "--help"])
        assert code == 0
        help_text = " ".join(text.split())
        assert "exhaustively, for n <= 20" in help_text
        assert "added for n <= 12" in help_text

    def test_spectral_mode_runs(self, sample_file):
        code, text = run(
            ["verify", sample_file, sample_file, "--mode", "spectral", "--epsilon", "0.1"]
        )
        assert code == 0
        assert "max_rel_error=0.0" in text


class TestCutCommands:
    def test_stmincut_matches_brute_force(self, random_file):
        path, H = random_file
        code, text = run(
            ["stmincut", path, "--source", "1", "--sink", "10", "--epsilon", "0"]
        )
        assert code == 0
        value = float(next(l for l in text.splitlines() if l.startswith("value=")).split("=")[1])
        assert value == pytest.approx(brute_st_mincut(H, 0, 9))

    def test_mincut_reports_witness(self, sample_file):
        code, text = run(["mincut", sample_file])
        assert code == 0
        assert "value=1.5" in text
        assert "witness=1 2" in text


class TestResistance:
    def test_single_edge_inverse_conductance(self, tmp_path):
        path = tmp_path / "edge.hgr"
        path.write_text("1 2 1\n4 1 2\n")
        code, text = run(["resistance", str(path), "1", "2"])
        assert code == 0
        value = float(next(l for l in text.splitlines() if l.startswith("value=")).split("=")[1])
        assert value == pytest.approx(0.25, rel=1e-12)

    def test_sketch_mode_runs(self, sample_file):
        code, text = run(["resistance", sample_file, "1", "2", "--sketch-eps", "0.4"])
        assert code == 0
        assert "mode=sketch" in text

    @pytest.mark.parametrize("ids", [("0", "2"), ("4", "2"), ("1", "4")])
    @pytest.mark.parametrize("mode", [[], ["--sketch-eps", "0.4"]], ids=["exact", "sketch"])
    def test_vertex_out_of_range_is_error(self, sample_file, capsys, ids, mode):
        # sample_file has 3 vertices; ids are 1-indexed, so 0 and 4 lie outside.
        code, text = run(["resistance", sample_file, *ids, *mode])
        assert code == 2
        assert text == ""
        assert "outside the graph's 3 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["-0.5", "nan"])
    def test_bad_sketch_eps_is_error(self, sample_file, capsys, eps):
        code, text = run(["resistance", sample_file, "1", "2", "--sketch-eps", eps])
        assert code == 2
        assert text == ""
        assert "eps_sketch must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("lu", [False, True], ids=["dense", "lu"])
    def test_exact_value_over_chunks_is_that_of_the_whole_graph(self, random_file, monkeypatch, lu):
        path, H = random_file
        if lu:
            monkeypatch.setattr(linalg, "DENSE_BYTES", 0)
        monkeypatch.setattr(core, "CHUNK_SLOTS", 7)
        U = init_underlying(H)
        assert len(U.bounds) > 3
        for a, b in ((1, 2), (3, 10), (10, 4)):
            code, text = run(["resistance", path, str(a), str(b)])
            assert code == 0
            expect = effective_resistance_exact(flatten(U), a - 1, b - 1)
            assert f"value={expect!r}" in text.splitlines()

    def test_disconnected_pair_is_error(self, tmp_path):
        path = tmp_path / "two.hgr"
        path.write_text("2 4 1\n1 1 2\n1 3 4\n")
        code, _ = run(["resistance", str(path), "1", "3"])
        assert code == 2


class TestOverestimateCommand:
    def test_emits_score_lines_and_summary(self, sample_file):
        code, text = run(["overestimate", sample_file])
        assert code == 0
        lines = text.splitlines()
        assert "l1_norm=" in text and "mass_bound=" in text
        assert "exact=" not in text
        score_lines = [l for l in lines if l and l[0].isdigit() and " " in l]
        assert len(score_lines) == 2
        assert score_lines[0].split()[0] == "0"

    def test_json_mode(self, sample_file):
        code, text = run(["overestimate", sample_file, "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["format"] == 1
        assert len(payload["z"]) == 2
        assert "exact" not in payload

    def test_exact_is_not_an_option(self, sample_file, capsys):
        code, text = run(["overestimate", sample_file, "--exact"])
        assert code == 2
        assert text == ""
        assert "unrecognized arguments: --exact" in capsys.readouterr().err


class TestErrorsAndDeterminism:
    def test_missing_file_exits_two(self):
        code, _ = run(["mincut", "no-such-file.hgr"])
        assert code == 2

    def test_unknown_flag_exits_two(self, sample_file):
        code, _ = run(["mincut", sample_file, "--bogus"])
        assert code == 2

    def test_graph_oversample_is_not_an_option(self, sample_file, tmp_path):
        out = str(tmp_path / "out.hgr")
        for argv in (["sparsify", sample_file, "--epsilon", "0.3", "-o", out], ["overestimate", sample_file]):
            code, _ = run([*argv, "--graph-oversample", "9"])
            assert code == 2

    def test_overestimate_accuracies_and_rounds_are_not_options(self, sample_file):
        for flag, value in (("--rounds", "2"), ("--graph-eps", "0.2"), ("--sketch-eps", "0.2")):
            code, _ = run(["overestimate", sample_file, flag, value])
            assert code == 2

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 8.0 GiB")])
    def test_out_of_memory_exits_two(self, sample_file, monkeypatch, capsys, exc):
        def exhausted(args):
            raise exc

        monkeypatch.setitem(cli._DISPATCH, "mincut", exhausted)
        code, text = run(["mincut", sample_file])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert str(exc) in err

    @pytest.mark.parametrize("argv", [
        ["sparsify", "--epsilon", "1e-200"],
        ["sparsify", "--epsilon", "inf"],
        ["sparsify", "--epsilon", "0.3", "--sample-constant", "inf"],
        ["mincut", "--epsilon", "1e-200"],
        ["stmincut", "--source", "1", "--sink", "3", "--epsilon", "inf"],
    ])
    def test_non_finite_sample_count_exits_two(self, sample_file, tmp_path, capsys, argv):
        out = ["-o", str(tmp_path / "out.hgr")] if argv[0] == "sparsify" else []
        code, text = run([argv[0], sample_file, *argv[1:], *out])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["sparsify", "--epsilon", "0.5"],
        ["mincut", "--epsilon", "0.5"],
        ["stmincut", "--source", "1", "--sink", "3", "--epsilon", "0.5"],
    ])
    def test_no_positive_weight_exits_two(self, tmp_path, capsys, argv):
        path = tmp_path / "zero.hgr"
        path.write_text("2 3 1\n0 1 2 3\n0 2 3\n")
        out = ["-o", str(tmp_path / "out.hgr")] if argv[0] == "sparsify" else []
        code, text = run([argv[0], str(path), *argv[1:], *out])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: no hyperedge has positive weight, so there is nothing to sample\n"
        if argv[0] != "sparsify":
            # The exact cut is 0, as before.
            code, text = run([argv[0], str(path), *argv[1:-1], "0"])
            assert code == 0 and "value=0.0" in text.splitlines()

    @pytest.mark.parametrize("argv", [
        ["mincut", "--epsilon", "0"],
        ["mincut", "--epsilon", "0.5"],
        ["stmincut", "--source", "1", "--sink", "3", "--epsilon", "0"],
        ["stmincut", "--source", "1", "--sink", "3", "--epsilon", "0.5"],
    ])
    def test_weights_summing_past_float_range_exit_two(self, tmp_path, capsys, argv):
        path = tmp_path / "huge.hgr"
        path.write_text("3 3 1\n1e308 1 2\n1e308 2 3\n1e308 1 3\n")
        code, text = run([argv[0], str(path), *argv[1:]])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == (
            "error: the hyperedge weights sum past the float range, so cut values would overflow\n"
        )

    def test_count_beyond_any_array_exits_two(self, sample_file, tmp_path, capsys):
        code, text = run(["sparsify", sample_file, "--epsilon", "1e-150", "-o", str(tmp_path / "o.hgr")])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: sample count ") and "eps=1e-150" in err

    def test_draw_out_of_memory_names_its_bytes(self, sample_file, tmp_path, capsys, monkeypatch):
        class Exhausted:
            def random(self, size):
                raise MemoryError("Unable to allocate")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Exhausted())
        code, text = run(["sparsify", sample_file, "--epsilon", "0.3", "-o", str(tmp_path / "o.hgr")])
        assert code == 2
        assert text == ""
        count = sample_count(3, 3, 0.3, 4.0)
        err = capsys.readouterr().err
        assert err == f"error: out of memory ({count} sample draws need {8 * count} bytes)\n"

    def test_malformed_file_exits_two(self, tmp_path):
        path = tmp_path / "bad.hgr"
        path.write_text("1 3 1\n1 2 2\n")
        code, _ = run(["mincut", str(path)])
        assert code == 2

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"1 3 1\n1 1 99999999999999999999\n", 2),
            (b"1 99999999999999999999 1\n1 1 2\n", 1),
            (b"% r\xc3\xa9sum\xc3\xa9\n1 3 1\n1 1 2\n", 1),
        ],
    )
    def test_unreadable_input_names_its_line(self, data, line, tmp_path, capsys):
        path = tmp_path / "bad.hgr"
        path.write_bytes(data)
        code, text = run(["mincut", str(path)])
        assert code == 2
        assert text == ""
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line {line}: ")

    def test_module_entry_point(self, sample_file, tmp_path):
        def module_run(*argv):
            cmd = [sys.executable, "-m", "hypersparse.cli", *argv]
            env = {**os.environ, "PYTHONPATH": SRC}
            return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

        out = str(tmp_path / "out.hgr")
        argv = ["sparsify", sample_file, "--epsilon", "0.3", "--seed", "5", "-o", out]
        done = module_run(*argv)
        assert done.returncode == 0
        written = open(out).read()
        assert parse_hypergraph(out).n == 3
        # The same stdout and file as the in-process command.
        assert done.stdout != ""
        assert done.stdout == run(argv)[1]
        assert open(out).read() == written
        bad = tmp_path / "bad.hgr"
        bad.write_text("1 3 1\n1 2 2\n")
        done = module_run("mincut", str(bad))
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")

    def test_byte_identical_repeat_runs(self, random_file, tmp_path):
        path, _ = random_file
        out_a = str(tmp_path / "a.hgr")
        out_b = str(tmp_path / "b.hgr")
        _, first = run(["sparsify", path, "--epsilon", "0.3", "--seed", "9", "-o", out_a])
        _, second = run(["sparsify", path, "--epsilon", "0.3", "--seed", "9", "-o", out_b])
        assert first.replace(out_a, "OUT") == second.replace(out_b, "OUT")
        assert open(out_a).read() == open(out_b).read()
