import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersparse.core import Hypergraph
from hypersparse.hgio import (
    HgrFormatError,
    parse_hypergraph,
    parse_hypergraph_text,
    serialize_hypergraph,
    serialize_hypergraph_text,
)


SAMPLE = "2 3 1\n1.5 1 2 3\n2 1 2\n"


class TestParse:
    def test_sample_document(self):
        H = parse_hypergraph_text(SAMPLE)
        assert H.n == 3
        assert H.vertex_sets == ((0, 1, 2), (0, 1))
        np.testing.assert_allclose(H.weights, [1.5, 2.0])

    def test_comments_and_blank_lines_skipped(self):
        text = "% header comment\n\n2 3 1\n% mid comment\n1.5 1 2 3\n\n2 1 2\n"
        assert parse_hypergraph_text(text) == parse_hypergraph_text(SAMPLE)

    def test_zero_weight_edge_accepted(self):
        H = parse_hypergraph_text("1 2 1\n0.0 1 2\n")
        assert H.weights[0] == 0.0

    def test_round_trip_is_identity(self):
        H = parse_hypergraph_text(SAMPLE)
        again = parse_hypergraph_text(serialize_hypergraph_text(H))
        assert again == H

    def test_serialize_is_canonical_fixed_point(self):
        text = serialize_hypergraph_text(parse_hypergraph_text(SAMPLE))
        assert serialize_hypergraph_text(parse_hypergraph_text(text)) == text

    def test_file_round_trip(self, tmp_path):
        H = parse_hypergraph_text(SAMPLE)
        path = tmp_path / "case.hgr"
        serialize_hypergraph(H, path)
        assert parse_hypergraph(path) == H


    def test_parser_and_constructors_agree_on_unsorted_input(self):
        text = "3 6 1\n1.5 4 2 6\n0 3 1\n2.25 5 6 1 2\n"
        raw = [((3, 1, 5), 1.5), ((2, 0), 0.0), ((4, 5, 0, 1), 2.25)]
        H = parse_hypergraph_text(text)
        indptr = [0, 3, 5, 9]
        flat = [v for vs, _ in raw for v in vs]
        assert H == Hypergraph(6, raw) == Hypergraph.from_arrays(6, indptr, flat, [1.5, 0.0, 2.25])
        assert H.vertex_sets == ((1, 3, 5), (0, 2), (0, 1, 4, 5))
        assert serialize_hypergraph_text(H) == "3 6 1\n1.5 2 4 6\n0 1 3\n2.25 1 2 5 6\n"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("2 3\n1 1 2\n1 1 3\n", 1),  # short header
            ("2 3 0\n1 1 2\n1 1 3\n", 1),  # unsupported flag
            ("x 3 1\n1 1 2\n", 1),  # non-integer count
            ("1 3 1\nabc 1 2\n", 2),  # bad weight
            ("1 3 1\n-1 1 2\n", 2),  # negative weight
            ("1 3 1\ninf 1 2\n", 2),  # non-finite weight
            ("1 3 1\n1 1 4\n", 2),  # vertex out of range
            ("1 3 1\n1 0 2\n", 2),  # vertex below 1
            ("1 3 1\n1 2 2\n", 2),  # duplicate vertex
            ("1 3 1\n1 2\n", 2),  # singleton edge
            ("1 3 1\n1 1 2\n1 1 3\n", 3),  # extra line
            ("2 3 1\n1 1 2\n", 2),  # missing line
        ],
    )
    def test_malformed_inputs_report_line(self, text, line):
        with pytest.raises(HgrFormatError) as err:
            parse_hypergraph_text(text)
        assert err.value.line_no == line

    @pytest.mark.parametrize("bad", ["1 2 2", "1 1 4", "1 3", "-2 1 3", "nan 1 2"])
    def test_structural_errors_name_their_own_line(self, bad):
        text = f"3 3 1\n1 1 2\n% comment\n\n2 2 3\n{bad}\n"
        with pytest.raises(HgrFormatError) as err:
            parse_hypergraph_text(text)
        assert err.value.line_no == 6

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_hypergraph(tmp_path / "absent.hgr")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 7),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 97), min_size=2, max_size=4),
            st.floats(0, 100, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_round_trip_random_hypergraphs(n, raw):
    edges = []
    for picks, w in raw:
        vs = sorted({p % n for p in picks})
        if len(vs) < 2:
            vs = [0, 1]
        edges.append((vs, w))
    H = Hypergraph(n, edges)
    assert parse_hypergraph_text(serialize_hypergraph_text(H)) == H
