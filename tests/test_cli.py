import contextlib
import io
import json

import pytest

from hypersparse.cli import run_command
from hypersparse.hgio import parse_hypergraph, serialize_hypergraph

from helpers import brute_st_mincut, edges, random_hypergraph


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

    def test_disconnected_pair_is_error(self, tmp_path):
        path = tmp_path / "two.hgr"
        path.write_text("2 4 1\n1 1 2\n1 3 4\n")
        code, _ = run(["resistance", str(path), "1", "3"])
        assert code == 2


class TestOverestimateCommand:
    def test_emits_score_lines_and_summary(self, sample_file):
        code, text = run(["overestimate", sample_file, "--exact"])
        assert code == 0
        lines = text.splitlines()
        assert "l1_norm=" in text and "mass_bound=" in text
        score_lines = [l for l in lines if l and l[0].isdigit() and " " in l]
        assert len(score_lines) == 2
        assert score_lines[0].split()[0] == "0"

    def test_json_mode(self, sample_file):
        code, text = run(["overestimate", sample_file, "--exact", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["format"] == 1
        assert len(payload["z"]) == 2


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

    def test_malformed_file_exits_two(self, tmp_path):
        path = tmp_path / "bad.hgr"
        path.write_text("1 3 1\n1 2 2\n")
        code, _ = run(["mincut", str(path)])
        assert code == 2

    def test_byte_identical_repeat_runs(self, random_file, tmp_path):
        path, _ = random_file
        out_a = str(tmp_path / "a.hgr")
        out_b = str(tmp_path / "b.hgr")
        _, first = run(["sparsify", path, "--epsilon", "0.3", "--seed", "9", "-o", out_a])
        _, second = run(["sparsify", path, "--epsilon", "0.3", "--seed", "9", "-o", out_b])
        assert first.replace(out_a, "OUT") == second.replace(out_b, "OUT")
        assert open(out_a).read() == open(out_b).read()
