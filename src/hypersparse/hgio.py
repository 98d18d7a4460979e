"""Weighted hypergraph files: header "m n 1", then one line per hyperedge
holding the weight followed by 1-indexed vertex ids. Lines whose first token
starts with '%' are comments. Files are ASCII; tokens and lines are those of
str.split() and str.splitlines(). The parser reads line-aligned blocks of
about PARSE_BLOCK_BYTES, makes a fixed number of numpy passes over each
block's bytes, reads ids and plain decimal weights digit position by digit
position (the weights exactly as float() reads them; other tokens go
through int() and float()), checks each block's hyperedges while it is in
hand, and keeps only the blocks' id, weight and size arrays: each byte is
read once. Serialization prints weights with 17 significant digits so a
parse/serialize round trip is lossless."""

from __future__ import annotations

import io

import numpy as np

from .core import HyperedgeError, Hypergraph, check_hyperedges

__all__ = [
    "HgrFormatError",
    "parse_hypergraph",
    "parse_hypergraph_text",
    "serialize_hypergraph",
    "serialize_hypergraph_text",
]


_INT64_MAX = int(np.iinfo(np.int64).max)
# Every decimal of up to 18 digits fits in int64; longer id tokens go to int()
# and longer weight tokens to float().
_FAST_DIGITS = 18
_INT_POW10 = 10 ** np.arange(_FAST_DIGITS + 1, dtype=np.int64)
# Weights are read in long double where it is an IEEE format with a
# significand of at least 64 bits: x87's 80-bit format or binary128, in which
# 10^0 .. 10^18 (= 2^j 5^j, 5^18 < 2^64) and every 18-digit integer are exact
# and each operation rounds once. PowerPC's double-double is not such a format.
_EXTENDED = np.finfo(np.longdouble).nmant in (63, 112)
_POW10 = np.cumprod(np.concatenate([[1], np.full(_FAST_DIGITS, 10)]).astype(np.longdouble))
# The control bytes (< 32) by role: 0 belongs to a token, 1 is whitespace and
# 2 a line break, as str.split() and str.splitlines() treat them. Space is the
# only other whitespace byte.
_CONTROL = np.zeros(32, np.uint8)
_CONTROL[[9, 31]] = 1
_CONTROL[[10, 11, 12, 13, 28, 29, 30]] = 2
# The line breaks other than \r, which may begin a \r\n pair.
_BREAKS = tuple(bytes([c]) for c in (10, 11, 12, 28, 29, 30))
# Bytes the parser reads and tokenizes at once. A block ends after its last
# complete line break, so no line or \r\n pair straddles two blocks.
PARSE_BLOCK_BYTES = 1 << 20


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
    lines, the first token and token count of each content line, and the
    count of line breaks (a \\r\\n pair is one).

    A content line holds a token and its first token does not start with '%'.
    """
    ctl = np.flatnonzero(a < 32)
    kind = _CONTROL[a[ctl]]
    after_cr = ctl[a[ctl] == 13] + 1
    pairs = np.count_nonzero(a[after_cr[after_cr < len(a)]] == 10)
    breaks = int(np.count_nonzero(kind == 2) - pairs)
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
    return starts, ends, line_first, sizes, breaks


def _digit_runs(a: np.ndarray, ends, lengths) -> tuple:
    """The decimal value of each run of `lengths` bytes ending before `ends`,
    and a mask of the runs that hold a byte other than a digit or more than
    _FAST_DIGITS bytes (whose values are then meaningless).

    The digits are summed one vectorised pass per digit position counted
    from the right. A position that some run does not reach reads a byte
    before that run (an index of at least -len(a), as no run is longer than
    a) and masks it, so a run may be empty.
    """
    value = np.zeros(len(ends), np.int64)
    odd = lengths > _FAST_DIGITS
    at = ends - 1
    term = np.empty_like(value)
    shortest = int(lengths.min(initial=0))
    for j in range(min(int(lengths.max(initial=0)), _FAST_DIGITS)):
        digit = a[at] - np.uint8(48)
        if j >= shortest:
            digit *= lengths > j
        odd |= digit > 9
        # dtype= makes the product int64 under every promotion rule; a uint8
        # product would wrap.
        value += np.multiply(digit, 10**j, out=term, dtype=np.int64)
        at -= 1
    return value, odd


def _weights(data: bytes, a: np.ndarray, starts, ends) -> tuple:
    """float() of every weight token [starts, ends), and the position of the
    first one it rejects (len(starts) if none).

    A token of an optional sign and at most _FAST_DIGITS digits, with at
    most one '.', is read as float() reads it: its digits make an integer d,
    and the digits after the point a count f. d / 10^f is divided once in
    long double, where both are exact, and rounded to float64. The second
    rounding can differ from float()'s single one only when the first lands
    on a float64 midpoint. Such a token, every other token, and every token
    where long double is not wide enough (`_EXTENDED`) go through float().
    """
    count = len(starts)
    values = np.empty(count)
    slow = np.ones(count, bool)
    if _EXTENDED and count:
        lead = a[starts]
        signed = (lead == 43) | (lead == 45)
        # Each token's first '.' among its first _FAST_DIGITS + 2 bytes, or
        # its end: a later '.' leaves too many digits or a second point in a
        # run, and the token goes to float().
        point = ends.copy()
        todo = np.arange(count)
        for j in range(_FAST_DIGITS + 2):
            at = starts[todo] + j
            found = a[at] == 46
            point[todo[found]] = at[found]
            todo = todo[~found & (at + 1 < ends[todo])]
            if not len(todo):
                break
        whole_len = point - starts - signed
        frac_len = np.maximum(ends - point - 1, 0)
        whole, bad = _digit_runs(a, point, whole_len)
        frac, bad_frac = _digit_runs(a, ends, frac_len)
        digits = whole_len + frac_len
        fast = ~(bad | bad_frac) & (digits > 0) & (digits <= _FAST_DIGITS)
        shift = np.minimum(frac_len, _FAST_DIGITS)
        quotient = (whole * _INT_POW10[shift] + frac).astype(np.longdouble) / _POW10[shift]
        values = quotient.astype(float)
        # The float64 midpoint between the result and its neighbour on the
        # quotient's side, formed exactly in long double.
        toward = np.where(quotient > values, np.inf, -np.inf)
        half = (values.astype(np.longdouble) + np.nextafter(values, toward)) / 2
        slow = ~fast | (quotient == half)
        np.negative(values, out=values, where=lead == 45)
    for k in np.flatnonzero(slow).tolist():
        try:
            values[k] = float(data[starts[k]:ends[k]])
        except ValueError:
            return values, k
    return values, count


def _vertex_ids(data: bytes, a: np.ndarray, starts, ends) -> tuple:
    """The integer value of every id token [starts, ends), and the position of
    the first one that is not an integer in int64 range (len(starts) if none).

    Tokens of at most 18 decimal digits are read by `_digit_runs`; any other
    token (a sign, an underscore, more digits) goes through int().
    """
    ids, odd = _digit_runs(a, ends, ends - starts)
    for k in np.flatnonzero(odd).tolist():
        try:
            value = int(data[starts[k]:ends[k]])
        except ValueError:
            return ids, k
        if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
            return ids, k
        ids[k] = value
    return ids, len(starts)


def _blocks(handle):
    """The stream's line-aligned blocks of about PARSE_BLOCK_BYTES, the last
    one running to the end of the stream. A \\r that ends a read may begin a
    \\r\\n pair, so it waits for the next."""
    carry = b""
    while True:
        chunk = handle.read(PARSE_BLOCK_BYTES)
        data = carry + chunk
        if not chunk:
            if data:
                yield data
            return
        cut = 1 + max(data.rfind(b"\r", 0, len(data) - 1), *map(data.rfind, _BREAKS))
        if cut:
            yield data[:cut]
        carry = data[cut:]


def _line_numbers(a: np.ndarray, line0: int, line_starts: np.ndarray):
    """Line number of a block's content line j, for a block that starts
    at line line0 and whose content lines start at `line_starts`."""
    return lambda j: line0 - 1 + _line_of(a, int(line_starts[j]))


def _header(data: bytes, starts, ends, size) -> tuple:
    """(m, n) from the header line's tokens, or the message of its error."""
    if size != 3:
        return "header must be 'm n 1'"
    fields = [data[starts[i]:ends[i]] for i in range(3)]
    try:
        m, n = int(fields[0]), int(fields[1])
    except ValueError:
        return "header counts must be integers"
    if fields[2] != b"1":
        return "unsupported format flag; expected '1'"
    if m < 1 or n < 1:
        return "counts must be positive"
    if m > _INT64_MAX or n > _INT64_MAX:
        return "counts must fit in 64 bits"
    return m, n


def _parse(handle) -> Hypergraph:
    """Parse the binary stream block by block, reading each byte once.

    Each block's hyperedges (0-based ids, weights and sizes) are checked
    while the block is in hand, and only those arrays are kept. The first
    error in the order of the checks wins: a non-ASCII byte, a missing or
    bad header, a wrong count of hyperedge lines, the first line with a bad
    token (its weight first), then `check_hyperedges`' lowest failing check.
    """
    # `fatal` (a bad header or an extra line) outranks every later error but
    # a non-ASCII byte, which fails at once. `fault` is the blocks' lowest
    # (rank, line, message), the earliest on a tie; a bad token is rank -1.
    header = fatal = fault = last = None
    line0 = 1  # line number of the block's first line
    body = 0  # hyperedge lines so far
    ids, weights, sizes = [], [], []
    for data in _blocks(handle):
        a = np.frombuffer(data, np.uint8)
        if a.max() >= 128:
            raise HgrFormatError(line0 - 1 + _line_of(a, int(np.argmax(a >= 128))), "non-ASCII byte")
        starts, ends, lead, size, breaks = _content_tokens(a)
        if len(size) and fatal is None:
            line_no = _line_numbers(a, line0, starts[lead])
            first = 0
            if header is None:
                header, first = _header(data, starts, ends, size[0]), 1
                if isinstance(header, str):
                    fatal = (line_no(0), header)
            if isinstance(header, tuple):
                m, k = header[0], len(size) - first
                if body + k > m:
                    fatal = (line_no(first + m - body), "unexpected extra line")
                elif k and (fault is None or fault[0] >= 0):
                    bad = _read_lines(data, a, starts, ends, lead[first:], size[first:], header[1], ids, weights, sizes)
                    if bad is not None and (fault is None or bad[0] < fault[0]):
                        rank, j, message = bad
                        if rank >= 0:
                            message = str(HyperedgeError(body + j, message))
                        fault = (rank, line_no(first + j), message)
                body += k
            last = (line_no, len(size) - 1)
        line0 += breaks
    if fatal is not None:
        raise HgrFormatError(*fatal)
    if header is None:
        raise HgrFormatError(1, "missing header line")
    m, n = header
    if body < m:
        raise HgrFormatError(last[0](last[1]), f"expected {m} hyperedge lines, found {body}")
    if fault is not None:
        raise HgrFormatError(*fault[1:])
    indptr = np.zeros(m + 1, np.int64)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    del sizes
    return Hypergraph.__new__(Hypergraph)._freeze(n, indptr, np.concatenate(ids), np.concatenate(weights))


def _read_lines(data, a, starts, ends, lead, size, n, ids, weights, sizes):
    """Append the ids (0-based, sorted within each line), weights and id
    counts of a block's hyperedge lines (first tokens `lead`, token counts
    `size`) on n vertices to the three lists, or return the block's first
    fault: (-1, line, message) for the first line with a bad token, its
    weight read first, else `check_hyperedges`' fault."""
    id_counts = size - 1
    is_id = np.ones(len(starts), bool)
    is_id[lead] = False
    is_id[:lead[0]] = False
    block_ids, bad_id = _vertex_ids(data, a, starts[is_id], ends[is_id])
    block_weights, bad_weight = _weights(data, a, starts[lead], ends[lead])
    bad_line = int(np.searchsorted(np.cumsum(id_counts), bad_id, side="right"))
    if bad_weight <= bad_line and bad_weight < len(lead):
        token = data[starts[lead[bad_weight]]:ends[lead[bad_weight]]]
        return -1, bad_weight, f"invalid weight {token.decode()!r}"
    if bad_line < len(lead):
        return -1, bad_line, "invalid vertex id"
    block_ids -= 1
    block_ids, bad = check_hyperedges(n, id_counts, block_ids, block_weights)
    if bad is None:
        ids.append(block_ids)
        weights.append(block_weights)
        sizes.append(id_counts)
    return bad


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
    return _parse(io.BytesIO(data))


def parse_hypergraph(path) -> Hypergraph:
    """Parse the file at `path`, reading it once, in blocks, as
    `parse_hypergraph_text` parses its contents; it may be a pipe."""
    with open(path, "rb") as handle:
        return _parse(handle)


def serialize_hypergraph_text(H: Hypergraph) -> str:
    """The header line, then per hyperedge its weight with 17 significant
    digits and its 1-based vertex ids, one space apart, each line ending in
    a newline. format() writes the weights; the ids' digits are laid out in
    one byte buffer by numpy, one pass per digit position."""
    head = f"{H.m} {H.n} 1\n".encode()
    texts = [f"{w:.17g}" for w in H.weights.tolist()]
    weights = np.frombuffer("".join(texts).encode(), np.uint8)
    weight_len = np.fromiter(map(len, texts), np.int64, H.m)
    del texts
    ids = H.indices + 1
    digits = np.ones(len(ids), np.int64)
    power, top = 10, int(ids.max())
    while power <= top:
        digits += ids >= power
        power *= 10
    # Each id is a space and its digits; pin_end is where its text ends when
    # the ids alone are written back to back.
    pin_end = np.cumsum(digits + 1)
    ends = np.concatenate([[0], pin_end])[H.indptr]
    line_len = weight_len + np.diff(ends) + 1
    line_start = len(head) + np.cumsum(line_len) - line_len
    out = np.empty(len(head) + int(line_len.sum()), np.uint8)
    out[:len(head)] = np.frombuffer(head, np.uint8)
    weight_start = np.cumsum(weight_len) - weight_len
    out[np.arange(len(weights)) + np.repeat(line_start - weight_start, weight_len)] = weights
    out[line_start + line_len - 1] = 10
    pin_end += np.repeat(line_start + weight_len - ends[:-1], np.diff(H.indptr))
    out[pin_end - digits - 1] = 32
    for j in range(int(digits.max())):
        live = digits > j
        out[pin_end[live] - 1 - j] = 48 + ids[live] // 10**j % 10
    return out.tobytes().decode("ascii")


def serialize_hypergraph(H: Hypergraph, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(serialize_hypergraph_text(H))
