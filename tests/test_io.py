import functools
import io
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersparse import hgio
from hypersparse.core import Hypergraph
from hypersparse.hgio import (
    HgrFormatError,
    parse_hypergraph,
    parse_hypergraph_text,
    serialize_hypergraph,
    serialize_hypergraph_text,
)

from helpers import loop_parse_hypergraph_text, loop_serialize_hypergraph_text, wide_instance


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

    @pytest.mark.parametrize("token", ["99999999999999999999", "9223372036854775808", "-9223372036854775809"])
    def test_vertex_id_beyond_int64_names_its_line(self, token):
        text = f"2 3 1\n1 1 2\n% comment\n1 1 {token}\n"
        with pytest.raises(HgrFormatError, match="invalid vertex id") as err:
            parse_hypergraph_text(text)
        assert err.value.line_no == 4
        with pytest.raises(OverflowError):
            loop_parse_hypergraph_text(text)

    @pytest.mark.parametrize("header", ["1 99999999999999999999 1", "99999999999999999999 3 1"])
    def test_header_count_beyond_int64_names_the_header(self, header):
        with pytest.raises(HgrFormatError, match="64 bits") as err:
            parse_hypergraph_text(f"% c\n{header}\n1 1 2\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"1 3 1\n1 caf\xc3\xa9 2\n", 2),
            (b"% caf\xc3\xa9\r\n1 3 1\n1 1 2\n", 1),
            (b"1 3 1\r\n\r\n% x\r1 1 2\x0b\xff", 5),
        ],
    )
    def test_non_ascii_byte_names_its_line(self, data, line, tmp_path):
        path = tmp_path / "bad.hgr"
        path.write_bytes(data)
        for parse, arg in ((parse_hypergraph_text, data), (parse_hypergraph, path)):
            with pytest.raises(HgrFormatError, match="non-ASCII") as err:
                parse(arg)
            assert err.value.line_no == line
            assert type(err.value.line_no) is int
        with pytest.raises(HgrFormatError) as err:
            parse_hypergraph_text(data.decode("utf-8", "replace"))
        assert err.value.line_no == line


class TestTokens:
    """Whitespace and line breaks are those of str.split() and
    str.splitlines(), restricted to ASCII."""

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e"])
    def test_line_breaks(self, brk):
        text = brk.join(["% c", "2 3 1", "", "1.5 1 2 3", "2 1 2"])
        assert parse_hypergraph_text(text) == parse_hypergraph_text(SAMPLE)
        with pytest.raises(HgrFormatError) as err:
            parse_hypergraph_text(text + brk + "1 1 3")
        assert err.value.line_no == 6

    @pytest.mark.parametrize("byte", ["\x00", "\x08", "\x0e", "\x1b", "\x7f"])
    def test_other_control_bytes_belong_to_tokens(self, byte):
        with pytest.raises(HgrFormatError, match="invalid vertex id") as err:
            parse_hypergraph_text(f"1 3 1\n1 1{byte}2\n")
        assert err.value.line_no == 2
        with pytest.raises(HgrFormatError, match="invalid weight") as err:
            parse_hypergraph_text(f"1 3 1\n% x\n{byte}1 1 2\n")
        assert err.value.line_no == 3

    def test_ids_that_are_not_plain_digits_go_through_int(self):
        H = parse_hypergraph_text("2 12 1\n1 +3 1_0\n2 0000000000000000000012 007\n")
        assert H.vertex_sets == ((2, 9), (6, 11))

    def test_ids_of_every_digit_count(self):
        # Digit sums must not wrap in a narrow type at any power of ten.
        tokens = [str(v) for k in range(1, 19) for v in (10 ** (k - 1), 3 * 10 ** (k - 1), 10**k - 1)]
        data = " ".join(tokens).encode()
        a = np.frombuffer(data, np.uint8)
        ends = np.cumsum([len(t) + 1 for t in tokens]) - 1
        starts = ends - [len(t) for t in tokens]
        ids, bad = hgio._vertex_ids(data, a, starts, ends)
        assert bad == len(tokens)
        assert ids.tolist() == [int(t) for t in tokens]
        text = "1 70000 1\n1 300 999 1000 9999 25600 65536 70000\n"
        assert parse_hypergraph_text(text) == loop_parse_hypergraph_text(text)
        assert parse_hypergraph_text(text).vertex_sets == ((299, 998, 999, 9998, 25599, 65535, 69999),)

    def test_first_bad_line_wins_and_its_weight_first(self):
        with pytest.raises(HgrFormatError, match="invalid vertex id") as err:
            parse_hypergraph_text("2 3 1\n1 1 x\nbad 1 2\n")
        assert err.value.line_no == 2
        with pytest.raises(HgrFormatError, match="invalid weight 'bad'") as err:
            parse_hypergraph_text("2 3 1\nbad 1 x\n1 1 y\n")
        assert err.value.line_no == 2


def _digit_tokens(rng, count: int) -> np.ndarray:
    """`count` tokens of 1-20 random digits (more of 17 and 18), with leading
    and trailing zero runs, a point anywhere or none, and no sign, '+' or
    '-': rows of 23 bytes, space-padded, each ending in a newline."""
    ndig = rng.choice(np.arange(1, 21), (count, 1), p=np.r_[np.full(16, 0.03), 0.2, 0.2, 0.06, 0.06])
    point = np.where(rng.random((count, 1)) < 0.85, rng.integers(0, ndig + 1), 99)
    used = ndig + (point < 99)
    # Column 0 holds the sign and columns 1 to `used` the digits and point.
    grid = rng.integers(48, 58, (count, 23), dtype=np.uint8)
    cols = np.arange(23)
    leading = 1 + rng.integers(0, 6, (count, 1)) * (rng.random((count, 1)) < 0.3)
    trailing = rng.integers(0, 6, (count, 1)) * (rng.random((count, 1)) < 0.3)
    np.copyto(grid, 48, where=(cols < leading) | (cols > used - trailing))
    np.copyto(grid, 46, where=cols == point + 1)
    np.copyto(grid, 32, where=cols > used)
    grid[:, 0] = rng.choice(np.array([32, 43, 45], np.uint8), count, p=[0.6, 0.1, 0.3])
    grid[:, -1] = 10
    return grid.ravel()


def _midpoint_tokens(rng, count: int) -> list:
    """Decimals at or next to float64 midpoints: 2^53 + 1 and other odd
    multiples of half an ulp written exactly, and for random midpoints mu
    (1 + 2^-53 and 0.5 + 2^-54 among them) the 16- to 20-digit decimals just
    below and just above mu."""
    tokens = ["9007199254740993", "9007199254740995", "4503599627370496.5", "2251799813685248.25"]
    for j in rng.integers(0, 2**40, 50).tolist():
        for t in range(7):
            tokens.append(str((2**53 + 2 * j + 1) << t))
        tokens += [f"{2**52 + j}.5", f"{2**51 + j}.25", f"{2**51 + j}.75"]
    # mu = (2 q + 1) 2^e lies halfway between the doubles q 2^(e+1) and
    # (q + 1) 2^(e+1) for a float64 significand q in [2^52, 2^53).
    mids = [(2 * 2**52 + 1, -53), (2 * 2**52 + 1, -54)]
    mids += [(2 * q + 1, e) for q, e in zip(rng.integers(2**52, 2**53, count).tolist(),
                                             rng.integers(-60, -45, count).tolist())]
    for odd, e in mids:
        for sig in range(16, 21):
            # mu 10^k lies in [10^(sig-1), 10^sig); k >= 0 here.
            k = sig - 1 - math.floor(math.log10(odd) + e * math.log10(2))
            scaled = odd * 10**k
            below = scaled >> -e
            for q in (below - 1, below, below + 1, below + 2):
                text = str(q).rjust(k + 1, "0")
                tokens.append(f"{text[:-k]}.{text[-k:]}" if k else text)
    return tokens


SPECIAL_WEIGHTS = ["0", "-0", "-0.0", "+0.000", "0.", ".0", "5.", ".5", "-.5", "+5.", "007.500",
                   "1_0", "1_000.5", "inf", "-inf", "+Infinity", "nan", "-nan", "1e5", "1E+05", "2.5e-3",
                   "000000000000000000000000001", "1" + "0" * 25, "0." + "0" * 30 + "1"]


@functools.lru_cache(maxsize=1)
def _weight_documents() -> tuple:
    """Seeded documents of one weight token per line, at most about 6 MB
    each: 1.88M digit strings, the repr, .17g and %.{1..20}g forms of
    doubles with decimal exponents -30 to 30, midpoint decimals, and
    special forms."""
    rng = np.random.default_rng(20260)
    docs = [_digit_tokens(rng, 235_000).tobytes() for _ in range(8)]
    x = rng.uniform(1.0, 10.0, 90_000) * 10.0 ** rng.integers(-30, 31, 90_000)
    x[::7] *= -1.0
    formatted = [*map(repr, x[:30_000].tolist()), *map("{:.17g}".format, x[30_000:60_000].tolist())]
    formatted += [f"{v:.{1 + i % 20}g}" for i, v in enumerate(x[60_000:].tolist())]
    formatted += _midpoint_tokens(rng, 3_000) + SPECIAL_WEIGHTS
    docs.append("\n".join(formatted).encode() + b"\n")
    return tuple(docs)


def _read_weights(data: bytes) -> np.ndarray:
    a = np.frombuffer(data, np.uint8)
    starts, ends, _, sizes, _ = hgio._content_tokens(a)
    assert (sizes == 1).all()
    values, bad = hgio._weights(data, a, starts, ends)
    assert bad == len(starts)
    return values


class TestWeightReader:
    """The vectorised weight reader against float(), bit for bit (so -0.0
    counts), on about 2M seeded tokens."""

    def test_matches_float_bitwise(self):
        tokens = 0
        for data in _weight_documents():
            want = np.fromiter(map(float, data.split()), float)
            got = _read_weights(data)
            bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
            assert not len(bad), [data.split()[k] for k in bad[:5]]
            tokens += len(want)
        assert tokens >= 2_000_000

    def test_float_path_alone_gives_the_same_bits(self, monkeypatch):
        data = _weight_documents()[-1]
        fast = _read_weights(data)
        monkeypatch.setattr(hgio, "_EXTENDED", False)
        assert np.array_equal(_read_weights(data).view(np.int64), fast.view(np.int64))

    @pytest.mark.parametrize("token", ["1.86126253225027527", "26.509289971129677", "0.14848422992710196"])
    def test_double_rounding_on_a_midpoint(self, token):
        # In x87's long double the quotient of these decimals is a float64
        # midpoint, which a second rounding resolves to the even neighbour,
        # away from the decimal's side of it.
        whole, _, frac = token.partition(".")
        twice = float(np.longdouble(int(whole + frac)) / hgio._POW10[len(frac)])
        once = float(token)
        if np.finfo(np.longdouble).nmant == 63:
            assert twice != once
        assert _read_weights(token.encode() + b"\n").tolist() == [once]

    @pytest.mark.parametrize("token, fast", [
        ("0.018269203891185619", True),  # 19 digits, 18 significant
        ("-0.000000000000000001", True),
        ("0000000000000000012.5", False),  # a 19-byte digit run
        ("000000000000000012.5", True),
        ("0.0001234567890123456789", False),  # a 22-byte digit run
        ("0.1234567890123456789", False),  # 19 significant digits
        ("123456789.1234567891", False),
        ("123456789.123456789", True),
    ])
    def test_leading_zeros_are_not_significant(self, token, fast):
        if not hgio._EXTENDED:
            pytest.skip("long double is float64 here, so every token goes through float()")
        read = []

        class Data(bytes):
            # The reader slices the text only to hand a token to float().
            def __getitem__(self, key):
                read.append(bytes.__getitem__(self, key))
                return read[-1]

        got = _read_weights(Data(token.encode() + b"\n"))
        assert got.view(np.int64).tolist() == [np.float64(float(token)).view(np.int64)]
        assert read == ([] if fast else [token.encode()])

    @pytest.mark.parametrize("tokens, bad", [
        ([b"1.5", b"2", b"1.2.3", b"x"], 2),
        ([b".", b"1"], 0),
        ([b"1", b"+", b"-"], 1),
        ([b"1", b"2", b"1e"], 2),
        ([b"0.5", b"3"], 2),
    ])
    def test_first_rejected_token(self, tokens, bad):
        data = b"\n".join(tokens) + b"\n"
        a = np.frombuffer(data, np.uint8)
        starts, ends, _, _, _ = hgio._content_tokens(a)
        values, first = hgio._weights(data, a, starts, ends)
        assert first == bad
        for k in range(bad):
            assert values[k] == float(tokens[k])


def test_peak_memory_of_a_wide_file(tmp_path):
    # The shape of the benchmark's wide instance: n = 30, m = 1e5, sizes 2-6.
    n, m = 30, 100_000
    rng = np.random.default_rng(3)
    sizes = rng.integers(2, 7, m)
    order = np.argsort(rng.random((m, n)), axis=1)
    keep = np.arange(n) < sizes[:, None]
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    H = Hypergraph.from_arrays(n, indptr, order[keep], rng.uniform(0.5, 2.0, m))
    path = tmp_path / "wide.hgr"
    serialize_hypergraph(H, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        parsed = parse_hypergraph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == H
    assert peak <= 16 * size


def test_parse_peak_grows_by_at_most_32_bytes_per_pin(tmp_path):
    # Blocks' temporaries stay the same from m to 2m; what grows is the
    # blocks' id, weight and size arrays, their concatenation and the
    # constructor's checks beside the result.
    grown = []
    for m in (50_000, 100_000):
        H = wide_instance(m, seed=5)
        path = tmp_path / f"{m}.hgr"
        serialize_hypergraph(H, path)
        assert path.stat().st_size > hgio.PARSE_BLOCK_BYTES
        tracemalloc.start()
        try:
            parsed = parse_hypergraph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == H
        grown.append((len(H.indices), peak - parsed.indices.nbytes - parsed.indptr.nbytes - parsed.weights.nbytes))
    (pins, above), (pins2, above2) = grown
    assert above2 - above <= 32 * (pins2 - pins)


def test_unsorted_parse_peak_per_pin(tmp_path):
    # Ids listed out of order in every line, as the shape of the benchmark's
    # wide instance: each block's hyperedges are sorted while it is in hand,
    # so no temporary spans the whole id array.
    n, m = 30, 100_000
    rng = np.random.default_rng(9)
    sizes = rng.integers(2, 7, m)
    order = np.argsort(rng.random((m, n)), axis=1)
    flat = order[np.arange(n) < sizes[:, None]]
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    weights = rng.uniform(0.5, 2.0, m)
    lines = np.split(flat + 1, indptr[1:-1])
    path = tmp_path / "unsorted.hgr"
    path.write_text(f"{m} {n} 1\n" + "".join(f"{w!r} {' '.join(map(str, vs.tolist()))}\n" for w, vs in zip(weights.tolist(), lines)))
    del lines
    tracemalloc.start()
    try:
        parsed = parse_hypergraph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == Hypergraph.from_arrays(n, indptr, flat, weights)
    result = parsed.indices.nbytes + parsed.indptr.nbytes + parsed.weights.nbytes
    assert peak - result <= 26 * len(flat)


@pytest.mark.parametrize("n", [2**62, 2**61])
def test_ids_near_int64_sort_within_their_lines(n):
    text = f"5 {n} 1\n1 6 4\n1 8 5\n1 {n} 1\n1 3 {n - 1} 2\n1 {n - 2} 7\n"
    H = parse_hypergraph_text(text)
    assert H.vertex_sets == ((3, 5), (4, 7), (0, n - 1), (1, 2, n - 2), (6, n - 3))
    with pytest.raises(HgrFormatError, match="hyperedge 3: repeats a vertex") as err:
        parse_hypergraph_text(text.replace(f"1 3 {n - 1} 2", f"1 {n - 1} 3 {n - 1}"))
    assert err.value.line_no == 5


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


SPACES = [" ", "  ", "\t", " \t", "\x1f"]
BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]
ODD_IDS = ["0", "-1", "+2", "1_0", "007", "0000000000000000000003", "9223372036854775807",
           "1.0", "x", "1\x00", "\x7f", ""]
ODD_WEIGHTS = ["0", "-0", "1e-3", "+2.5", ".5", "5.", "1_0.5", "1E5", "1e400", "inf", "nan",
               "-1", "0x1p3", "abc", "1,5", "\x01"]


@st.composite
def hgr_documents(draw):
    """A valid .hgr document, then mutated: comments, blank lines, every ASCII
    line break and whitespace, odd ids and weights, a changed header, and
    lines added or dropped. Ids stay within int64; n reaches the thousands so
    that ids of three to five digits occur."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(100, 20_000)))
    m = draw(st.integers(1, 5))
    lines = []
    for _ in range(m):
        picks = draw(st.lists(st.integers(1, n), min_size=min(2, n), max_size=min(4, n), unique=True))
        weight = repr(draw(st.floats(0, 100, allow_nan=False, allow_infinity=False)))
        lines.append([weight, *map(str, picks)])
    header = [str(m), str(n), "1"]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["id", "weight", "header", "extra", "drop", "short"]))
        line = draw(st.sampled_from(lines))
        if kind == "id" and len(line) > 1:
            line[draw(st.integers(1, len(line) - 1))] = draw(st.sampled_from(ODD_IDS))
        elif kind == "weight":
            line[0] = draw(st.sampled_from(ODD_WEIGHTS))
        elif kind == "header":
            header[draw(st.integers(0, 2))] = draw(st.sampled_from(["0", "-1", "2", "x", "1_0", "+1", "1.0"]))
        elif kind == "extra":
            lines.append(["1", "1", "2"])
        elif kind == "drop" and len(lines) > 1:
            lines.pop()
        elif kind == "short":
            line[1:] = []
    rows = [header, *lines]
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from([[], ["%"], ["%", "comment", "1", "2"], ["%1", "2"]]))
        rows.insert(draw(st.integers(0, len(rows))), filler)
    out = []
    for row in rows:
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        out.append(lead + "".join(tok + draw(st.sampled_from(SPACES)) for tok in row[:-1]) + (row[-1] if row else ""))
    text = "".join(line + draw(st.sampled_from(BREAKS)) for line in out)
    return text if draw(st.booleans()) else text.rstrip("\n")


def parse_outcome(parse, document):
    """The parsed hypergraph with its weights' bytes, or the error's class, line and message."""
    try:
        H = parse(document)
    except Exception as err:
        return type(err), getattr(err, "line_no", None), str(err)
    return H, H.weights.tobytes()


@settings(max_examples=300, deadline=None)
@given(hgr_documents())
def test_parser_matches_line_loop(document):
    expected = parse_outcome(loop_parse_hypergraph_text, document)
    assert parse_outcome(parse_hypergraph_text, document) == expected
    assert parse_outcome(parse_hypergraph_text, document.encode("ascii")) == expected


@pytest.mark.parametrize("seed", range(6))
def test_serializer_matches_line_loop(seed):
    # Ids of every digit count up to int64, and weights that format() writes
    # in every style: zero, subnormal, huge, and 17 significant digits.
    rng = np.random.default_rng(seed)
    for n in (2, 9, 10, 11, 99, 100, 1001, 123_456_789, 10**18, 2**63 - 1):
        edges = []
        for _ in range(int(rng.integers(1, 7))):
            vs = {0, n - 1} | {int(v) for v in rng.integers(0, n, int(rng.integers(0, 5)))}
            edges.append((sorted(vs), float(rng.choice([0.0, 5e-324, 1e-300, 1.5, 1 / 3, 1e300, 2.0**60]))))
        H = Hypergraph(n, edges)
        assert serialize_hypergraph_text(H) == loop_serialize_hypergraph_text(H)
        assert parse_hypergraph_text(serialize_hypergraph_text(H)) == H


class ReadOnce:
    """A binary stream that counts the bytes it hands out and refuses to
    seek or tell."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)
        self.bytes_read = 0

    def read(self, size=-1):
        chunk = self._data.read(size)
        self.bytes_read += len(chunk)
        return chunk

    def seek(self, *args):
        raise AssertionError("the parser seeks")

    def tell(self):
        raise AssertionError("the parser asks where it is")


class TestBlocks:
    """Blocks of a few bytes: every line and \\r\\n pair stays whole, and the
    parse and its errors are those of the line loop."""

    @pytest.mark.parametrize("data", [b"", b"a", b"a\r", b"a\r\nb", b"\r\r\n\n", b"1 2\x0b3\x1c\r\n4 5\r", b"ab" * 9])
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 20])
    def test_blocks_end_on_whole_line_breaks(self, monkeypatch, data, block):
        monkeypatch.setattr(hgio, "PARSE_BLOCK_BYTES", block)
        blocks = list(hgio._blocks(io.BytesIO(data)))
        assert b"".join(blocks) == data
        for b, after in zip(blocks, blocks[1:]):
            assert b[-1] in b"\n\r\x0b\x0c\x1c\x1d\x1e"
            assert not (b.endswith(b"\r") and after.startswith(b"\n"))

    DOCUMENTS = [
        "% lead\r\n3 4 1\r\n1 1 2\r\n% mid\r\n\r\n2 2 3 4\r\n0.5 4 1\r\n",
        "3 4 1\n1 1 2\n2 2 3\n0.5 4 3 3\n",  # repeated vertex on line 4
        "3 4 1\r\n1 1 2\r\n%c\r\n2 2 5\r\n1 1 3\r\n",  # vertex out of range on line 4
        "3 4 1\n1 1 2\n% x\nbad 2 3\n1 1 z\n",  # bad weight on line 4, bad id on line 5
        "3 4 1\n1 1 2\n2 2 3\n1 1 z\n1 3 4\n",  # extra line 5 beats the bad id on line 4
        "4 4 1\n1 1 2\n% x\n2 2 3\nbad 1 3\n",  # missing line: line 4 (its last content line)
        "3 4\n1 1 2\n% x\n1 3 4\n",  # bad header
        "2 4 1\n1 1 2\r\r\n1 3\n",  # singleton on line 4, after a lone \r
    ]

    @pytest.mark.parametrize("text", DOCUMENTS)
    def test_every_block_size_matches_line_loop(self, monkeypatch, tmp_path, text):
        expected = parse_outcome(loop_parse_hypergraph_text, text)
        path = tmp_path / "doc.hgr"
        path.write_bytes(text.encode())
        for block in range(1, len(text) + 2):
            monkeypatch.setattr(hgio, "PARSE_BLOCK_BYTES", block)
            assert parse_outcome(parse_hypergraph_text, text) == expected, block
            assert parse_outcome(parse_hypergraph, path) == expected, block

    def test_stream_that_cannot_seek_names_the_line(self, tmp_path):
        fifo = tmp_path / "in.hgr"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("2 3 1\n1 1 2\n% x\n1 2 2\n",))
        writer.start()
        try:
            with pytest.raises(HgrFormatError, match="repeats a vertex") as err:
                parse_hypergraph(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert err.value.line_no == 4

    @pytest.mark.parametrize("last", ["0.5 7 3 7", "0.5 3 0", "-2 1 2", "0.5 4", "1 2 x"])
    def test_each_byte_is_read_once(self, monkeypatch, last):
        # A reader that counts what it hands out and cannot go back: a
        # structural error on the last line still names that line.
        monkeypatch.setattr(hgio, "PARSE_BLOCK_BYTES", 64)
        text = serialize_hypergraph_text(wide_instance(40, seed=2)).replace("40 30 1", "41 30 1", 1)
        good, bad = text + "1 1 2\n", text + "% c\n" + last + "\n"
        reader = ReadOnce(good.encode())
        assert hgio._parse(reader) == parse_hypergraph_text(good)
        assert reader.bytes_read == len(good)
        reader = ReadOnce(bad.encode())
        with pytest.raises(HgrFormatError) as err:
            hgio._parse(reader)
        assert err.value.line_no == 43
        assert str(err.value) == str(pytest.raises(HgrFormatError, loop_parse_hypergraph_text, bad).value)
        assert reader.bytes_read == len(bad)

    def test_pipe_parse_peaks_as_the_file_parse(self, tmp_path):
        # Nothing is buffered whole: a pipe is parsed in the memory of the
        # same file.
        path, fifo = tmp_path / "wide.hgr", tmp_path / "in.hgr"
        serialize_hypergraph(wide_instance(100_000, seed=4), path)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))

        def traced_parse(source):
            tracemalloc.start()
            try:
                assert parse_hypergraph(source).m == 100_000
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        file_peak = traced_parse(path)
        writer.start()
        try:
            pipe_peak = traced_parse(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert pipe_peak <= 1.05 * file_peak

    def test_non_ascii_byte_beats_an_earlier_error(self, monkeypatch):
        text = b"3 4\n1 1 2\n% caf\xc3\xa9\n1 3 4\n"
        for block in (1, 4, 9, 1 << 20):
            monkeypatch.setattr(hgio, "PARSE_BLOCK_BYTES", block)
            with pytest.raises(HgrFormatError, match="non-ASCII") as err:
                parse_hypergraph_text(text)
            assert err.value.line_no == 3

    @settings(max_examples=150, deadline=None)
    @given(hgr_documents(), st.sampled_from([1, 2, 3, 5, 8, 21, 64]))
    def test_random_documents_match_line_loop(self, document, block):
        expected = parse_outcome(loop_parse_hypergraph_text, document)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hgio, "PARSE_BLOCK_BYTES", block)
            assert parse_outcome(parse_hypergraph_text, document) == expected
            assert parse_outcome(parse_hypergraph_text, document.encode("ascii")) == expected
