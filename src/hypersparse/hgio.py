"""Weighted hypergraph files: header "m n 1", then one line per hyperedge
holding the weight followed by 1-indexed vertex ids. Lines starting with '%'
are comments. Serialization prints weights with 17 significant digits so a
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


class HgrFormatError(ValueError):
    """Malformed hypergraph file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_hypergraph_text(text: str) -> Hypergraph:
    """Parse file contents; '%' comment lines and blank lines are skipped.

    Tokens are read here; the structural checks (sizes, vertex range,
    repeated vertices, weights) are those of `Hypergraph.from_arrays`, whose
    errors are reported against the hyperedge's line.
    """
    content = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("%"):
            content.append((i, line))
    if not content:
        raise HgrFormatError(1, "missing header line")

    header_no, header = content[0]
    fields = header.split()
    if len(fields) != 3:
        raise HgrFormatError(header_no, "header must be 'm n 1'")
    try:
        m, n = int(fields[0]), int(fields[1])
    except ValueError:
        raise HgrFormatError(header_no, "header counts must be integers") from None
    if fields[2] != "1":
        raise HgrFormatError(header_no, "unsupported format flag; expected '1'")
    if m < 1 or n < 1:
        raise HgrFormatError(header_no, "counts must be positive")

    body = content[1:]
    if len(body) < m:
        raise HgrFormatError(
            body[-1][0] if body else header_no,
            f"expected {m} hyperedge lines, found {len(body)}",
        )
    if len(body) > m:
        raise HgrFormatError(body[m][0], "unexpected extra line")

    indptr = np.zeros(m + 1, dtype=np.int64)
    ids = []
    weights = np.empty(m)
    for e, (line_no, line) in enumerate(body):
        tokens = line.split()
        try:
            weights[e] = float(tokens[0])
        except ValueError:
            raise HgrFormatError(line_no, f"invalid weight {tokens[0]!r}") from None
        try:
            ids.extend(map(int, tokens[1:]))
        except ValueError:
            raise HgrFormatError(line_no, "invalid vertex id") from None
        indptr[e + 1] = len(ids)
    try:
        return Hypergraph.from_arrays(n, indptr, np.array(ids, dtype=np.int64) - 1, weights)
    except HyperedgeError as err:
        raise HgrFormatError(body[err.edge][0], str(err)) from None


def parse_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="ascii") as handle:
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
