"""Weighted hypergraph files: header "m n 1", then one line per hyperedge
holding the weight followed by 1-indexed vertex ids. Lines whose first token
starts with '%' are comments. Files are ASCII; tokens and lines are those of
str.split() and str.splitlines(). The parser makes a fixed number of numpy
passes over the bytes and calls float() on the weight tokens only.
Serialization prints weights with 17 significant digits so a
parse/serialize round trip is lossless."""

from __future__ import annotations

import numpy as np

from .core import HyperedgeError, Hypergraph

__all__ = [
    "HgrFormatError",
    "parse_hypergraph",
    "parse_hypergraph_text",
    "serialize_hypergraph",
    "serialize_hypergraph_text",
]


_INT64_MAX = int(np.iinfo(np.int64).max)
# Every decimal of up to 18 digits fits in int64; longer id tokens go to int().
_FAST_DIGITS = 18
# The control bytes (< 32) by role: 0 belongs to a token, 1 is whitespace and
# 2 a line break, as str.split() and str.splitlines() treat them. Space is the
# only other whitespace byte.
_CONTROL = np.zeros(32, np.uint8)
_CONTROL[[9, 31]] = 1
_CONTROL[[10, 11, 12, 13, 28, 29, 30]] = 2


class HgrFormatError(ValueError):
    """Malformed hypergraph file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _line_of(a: np.ndarray, pos: int) -> int:
    """1-based line of byte `pos`, which is not a line break; a \\r\\n pair
    is one break."""
    head = a[:pos]
    breaks = np.count_nonzero(_CONTROL[head[head < 32]] == 2)
    return 1 + int(breaks) - int(np.count_nonzero((head[:-1] == 13) & (head[1:] == 10)))


def _content_tokens(a: np.ndarray) -> tuple:
    """Offsets [starts, ends) of the tokens of str.split() that lie on content
    lines, and the first token and token count of each content line.

    A content line holds a token and its first token does not start with '%'.
    """
    ctl = np.flatnonzero(a < 32)
    kind = _CONTROL[a[ctl]]
    # One whitespace byte of padding at each end makes the changes of class
    # alternate between token starts and token ends.
    white = np.ones(len(a) + 2, bool)
    np.less_equal(a, 32, out=white[1:-1])
    inside = kind == 0
    if inside.any():
        white[ctl[inside] + 1] = False
    bounds = np.flatnonzero(white[1:] != white[:-1])
    del white
    offset = np.int32 if len(a) < 2**31 else np.int64
    starts, ends = bounds[0::2].astype(offset), bounds[1::2].astype(offset)
    del bounds
    # A token opens a line when it is the first token after a line break.
    first = np.zeros(len(starts) + 1, bool)
    first[np.searchsorted(starts, ctl[kind == 2].astype(offset))] = True
    first[0] = first[-1] = True
    line_first = np.flatnonzero(first)
    sizes = line_first[1:] - line_first[:-1]
    line_first = line_first[:-1]
    comment = a[starts[line_first]] == 37
    if comment.any():
        keep = np.repeat(~comment, sizes)
        starts, ends, sizes = starts[keep], ends[keep], sizes[~comment]
        line_first = np.cumsum(sizes) - sizes
    return starts, ends, line_first, sizes


def _floats(tokens: list) -> tuple:
    """float() of every token, and the position of the first one it rejects
    (len(tokens) if none)."""
    try:
        return np.fromiter(map(float, tokens), float, len(tokens)), len(tokens)
    except ValueError:
        for e, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                return None, e


def _vertex_ids(data: bytes, a: np.ndarray, starts, ends) -> tuple:
    """The integer value of every id token [starts, ends), and the position of
    the first one that is not an integer in int64 range (len(starts) if none).

    Tokens of at most 18 decimal digits are summed digit by digit, one
    vectorised pass per digit position counted from the right; any other
    token (a sign, an underscore, more digits) goes through int().
    """
    lengths = ends - starts
    ids = np.zeros(len(starts), np.int64)
    odd = lengths > _FAST_DIGITS
    at = ends - 1
    term = np.empty_like(ids)
    for j in range(min(int(lengths.max(initial=0)), _FAST_DIGITS)):
        digit = a[at] - np.uint8(48)
        if j:
            digit *= lengths > j
        odd |= digit > 9
        # dtype= makes the product int64 under every promotion rule; a uint8
        # product would wrap.
        ids += np.multiply(digit, 10**j, out=term, dtype=np.int64)
        at -= 1
    for k in np.flatnonzero(odd).tolist():
        try:
            value = int(data[starts[k]:ends[k]])
        except ValueError:
            return ids, k
        if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
            return ids, k
        ids[k] = value
    return ids, len(starts)


def parse_hypergraph_text(text: str | bytes) -> Hypergraph:
    """Parse file contents, given as str or as bytes; either must be ASCII.

    Tokens and lines are those of str.split() and str.splitlines() on ASCII
    text. Blank lines and lines whose first token starts with '%' are
    skipped. A non-ASCII byte or character is an error, also in a comment,
    so a str and its bytes parse alike; every error names its 1-based
    line. The structural checks (sizes, vertex range, repeated vertices,
    weights) are those of `Hypergraph.from_arrays`, reported against the
    hyperedge's line.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else bytes(text)
    a = np.frombuffer(data, np.uint8)
    if len(a) and a.max() >= 128:
        raise HgrFormatError(_line_of(a, int(np.argmax(a >= 128))), "non-ASCII byte")
    starts, ends, lead, sizes = _content_tokens(a)
    if len(sizes) == 0:
        raise HgrFormatError(1, "missing header line")
    line_start = starts[lead]

    def line_no(line):
        """Line number of content line `line`; 0 is the header."""
        return _line_of(a, int(line_start[line]))

    if sizes[0] != 3:
        raise HgrFormatError(line_no(0), "header must be 'm n 1'")
    fields = [data[starts[i]:ends[i]] for i in range(3)]
    try:
        m, n = int(fields[0]), int(fields[1])
    except ValueError:
        raise HgrFormatError(line_no(0), "header counts must be integers") from None
    if fields[2] != b"1":
        raise HgrFormatError(line_no(0), "unsupported format flag; expected '1'")
    if m < 1 or n < 1:
        raise HgrFormatError(line_no(0), "counts must be positive")
    if m > _INT64_MAX or n > _INT64_MAX:
        raise HgrFormatError(line_no(0), "counts must fit in 64 bits")

    body = len(sizes) - 1
    if body < m:
        raise HgrFormatError(line_no(body), f"expected {m} hyperedge lines, found {body}")
    if body > m:
        raise HgrFormatError(line_no(m + 1), "unexpected extra line")

    # Each hyperedge line is its weight token followed by its id tokens.
    indptr = np.zeros(m + 1, np.int64)
    np.cumsum(sizes[1:] - 1, out=indptr[1:])
    is_id = np.ones(len(starts), bool)
    is_id[lead] = False
    is_id[:3] = False
    ids, bad_id = _vertex_ids(data, a, starts[is_id], ends[is_id])
    tokens = [data[i:j] for i, j in zip(line_start[1:].tolist(), ends[lead[1:]].tolist())]
    del starts, ends, is_id
    weights, bad_weight = _floats(tokens)
    # The first line with a bad token fails; on it the weight is read first.
    bad_edge = int(np.searchsorted(indptr, bad_id, side="right")) - 1
    if bad_weight <= bad_edge and bad_weight < m:
        raise HgrFormatError(line_no(bad_weight + 1), f"invalid weight {tokens[bad_weight].decode()!r}")
    if bad_edge < m:
        raise HgrFormatError(line_no(bad_edge + 1), "invalid vertex id")
    del tokens
    try:
        return Hypergraph.from_arrays(n, indptr, ids - 1, weights)
    except HyperedgeError as err:
        raise HgrFormatError(line_no(err.edge + 1), str(err)) from None


def parse_hypergraph(path) -> Hypergraph:
    with open(path, "rb") as handle:
        return parse_hypergraph_text(handle.read())


def serialize_hypergraph_text(H: Hypergraph) -> str:
    lines = [f"{H.m} {H.n} 1"]
    ids = [str(v + 1) for v in H.indices.tolist()]
    bounds = H.indptr.tolist()
    for e, w in enumerate(H.weights.tolist()):
        lines.append(f"{w:.17g} " + " ".join(ids[bounds[e]:bounds[e + 1]]))
    return "\n".join(lines) + "\n"


def serialize_hypergraph(H: Hypergraph, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(serialize_hypergraph_text(H))
