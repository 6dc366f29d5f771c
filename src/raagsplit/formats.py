"""Graph interchange: JSON, edge lists, and a small DOT subset.

The JSON shape is ``{"vertices": [...], "edges": [["a","b"], ...]}``.
Edge lists hold one ``a b`` pair per line; a line with a single token
declares an isolated vertex, which keeps serialize/parse a true round
trip for graphs with isolated vertices.  The DOT subset is undirected
``graph { ... }`` with plain identifiers, ``a -- b`` edge statements,
bare node statements, and no attributes.

Vertex order is always file order (first appearance), never label
collation.  A file that starts with a UTF-8 byte-order mark is refused
in every format, at line 1, column 1.  Semantic problems (duplicate
vertices, unknown endpoints, self-loops) surface as the graph
constructor's errors; only syntax problems raise GraphParseError, which
carries a 1-based line and column where known.

A JSON document is checked for its shape in one plain loop over its
vertices and one over its edges, which also builds the edge pairs.
Each line parser makes one pass over its text: an edge-list line is
split with ``str.split``, and a DOT text, padded with spaces around
``;``, ``{`` and ``}``, is split into chunks the same way.  A chunk that
is not one whole token (``a--b``, ``0abc``) is cut by a regex; clean
files never need it.  The tokens are then walked by the grammar as
plain strings.  Line and column are worked out only when an error is
raised, with line breaks as ``str.splitlines`` counts them.
"""

from __future__ import annotations

import codecs
import json
import re
from dataclasses import dataclass

from .errors import GraphParseError, InvalidArgumentError
from .graphs import Graph

FORMATS = ("json", "edge-list", "dot-subset")

_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph file: format tag plus vertex and edge lists."""

    format: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def to_graph(self) -> Graph:
        return Graph(self.vertices, self.edges)


def sniff_format(data: bytes) -> str:
    head = data.lstrip()[:64]
    if head.startswith(b"{"):
        return "json"
    if re.match(rb"graph\b", head):
        return "dot-subset"
    return "edge-list"


def parse_document(data: bytes, format: str | None = None) -> GraphDocument:
    fmt = sniff_format(data) if format is None else format
    if fmt not in FORMATS:
        raise InvalidArgumentError(
            f"unknown graph format {fmt!r}; known: {', '.join(FORMATS)}"
        )
    if data.startswith(codecs.BOM_UTF8):
        # sniffed past it, it would read as part of the first label
        raise GraphParseError("input starts with a UTF-8 byte-order mark", line=1, column=1)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"input is not valid UTF-8: {exc}") from None
    if fmt == "json":
        return _parse_json(text)
    if fmt == "edge-list":
        return _parse_edge_list(text)
    return _parse_dot(text)


def parse_graph(data: bytes, format: str | None = None) -> Graph:
    """Parse bytes in the given (or sniffed) format.

    >>> parse_graph(b'{"vertices":["a","b"],"edges":[["a","b"]]}').labels
    ('a', 'b')
    >>> parse_graph(b"a b\\nb c").labels
    ('a', 'b', 'c')
    """
    return parse_document(data, format).to_graph()


def _parse_json(text: str) -> GraphDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise GraphParseError("JSON nesting is too deep") from None
    if not isinstance(doc, dict):
        raise GraphParseError("top level must be an object", line=1, column=1)
    vertices = doc.get("vertices")
    edges = doc.get("edges", [])
    # json.loads builds only plain lists and strs, so a class test is
    # an isinstance test here, and cheaper
    if vertices.__class__ is not list:
        raise GraphParseError('"vertices" must be a list of strings')
    for v in vertices:
        if v.__class__ is not str:
            raise GraphParseError('"vertices" must be a list of strings')
    if edges.__class__ is not list:
        raise GraphParseError('"edges" must be a list of two-element label lists')
    pairs = []
    for e in edges:
        if e.__class__ is list and len(e) == 2:
            a, b = e
            if a.__class__ is str and b.__class__ is str:
                pairs.append((a, b))
                continue
        raise GraphParseError('"edges" must be a list of two-element label lists')
    return GraphDocument("json", tuple(vertices), tuple(pairs))


def _parse_edge_list(text: str) -> GraphDocument:
    order: dict[str, None] = {}
    edges: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        # str.split() splits on exactly the characters str.isspace() accepts
        tokens = line.split()
        if len(tokens) == 2:
            a, b = tokens
            order[a] = order[b] = None
            edges.append((a, b))
        elif len(tokens) == 1:
            order[tokens[0]] = None
        elif tokens:
            third = list(re.finditer(r"\S+", line))[2]
            raise GraphParseError(
                "expected at most two labels per line",
                line=lineno,
                column=third.start() + 1,
            )
    return GraphDocument("edge-list", tuple(order), tuple(edges))


# every DOT token, then any other non-space character as a one-character
# token of its own; whitespace is Python's (re's \s is str.isspace, and
# str.split splits on the same characters).  Left to re's cache, and
# used only on a chunk that is not one whole token, so a process that
# reads only clean DOT files never compiles it.
_DOT_TOKEN = "--|[{};]|" + _DOT_ID.pattern + r"|\S"
_DOT_PUNCT = frozenset(("--", "{", "}", ";"))


def _dot_error(text: str, message: str, at: int) -> GraphParseError:
    """The error for token ``at`` of the text, placed at that token's
    line and column (line breaks as ``str.splitlines`` counts them); a
    negative ``at`` counts from the end, and no token at all is line 1,
    column 1."""
    starts = [m.start() for m in re.finditer(_DOT_TOKEN, text)]
    if not starts:
        return GraphParseError(message, line=1, column=1)
    # the token's first character is never a line break
    lines = text[: starts[at] + 1].splitlines()
    return GraphParseError(message, line=len(lines), column=len(lines[-1]))


def _parse_dot(text: str) -> GraphDocument:
    # No token holds whitespace or runs across ";", "{" or "}", so the
    # text padded around those three and split on whitespace is a list
    # of chunks that each hold whole tokens, in the order that
    # re.findall(_DOT_TOKEN, text) finds them.  Only a chunk that is not
    # one token by itself ("a--b", "0abc", "-") is cut by the regex.
    toks = text.replace(";", " ; ").replace("{", " { ").replace("}", " } ").split()
    odd = {c for c in set(toks).difference(_DOT_PUNCT) if not _DOT_ID.fullmatch(c)}
    if odd:
        toks = [t for c in toks for t in (re.findall(_DOT_TOKEN, c) if c in odd else (c,))]
        # a token that is neither punctuation nor an identifier came from \S
        stray = [t for t in set(toks) if t not in _DOT_PUNCT and not _DOT_ID.fullmatch(t)]
        if stray:
            at = min(toks.index(t) for t in stray)
            raise _dot_error(text, f"unexpected character {toks[at]!r}", at)
    end = len(toks)
    if not toks:
        raise _dot_error(text, "unexpected end of input", -1)
    if toks[0] != "graph":
        raise _dot_error(text, "expected 'graph'", 0)
    # an optional graph name: any one token but "{"
    at = 2 if end > 1 and toks[1] != "{" else 1
    if at == end:
        raise _dot_error(text, "unexpected end of input (wanted '{')", -1)
    if toks[at] != "{":
        raise _dot_error(text, f"expected '{{', found {toks[at]!r}", at)
    at += 1

    order: dict[str, None] = {}
    edges: list[tuple[str, str]] = []
    while True:
        if at == end:
            raise _dot_error(text, "unexpected end of input", -1)
        tok = toks[at]
        at += 1
        if tok == "}":
            break
        if tok == ";":
            continue
        if tok in _DOT_PUNCT:
            raise _dot_error(text, f"expected a node identifier, found {tok!r}", at - 1)
        order[tok] = None
        while at < end and toks[at] == "--":
            if at + 1 == end:
                raise _dot_error(text, "unexpected end of input", -1)
            nxt = toks[at + 1]
            if nxt in _DOT_PUNCT:
                raise _dot_error(
                    text, f"expected a node identifier after '--', found {nxt!r}", at + 1
                )
            order[nxt] = None
            edges.append((tok, nxt))
            tok = nxt
            at += 2
    if at < end:
        raise _dot_error(text, f"unexpected {toks[at]!r} after closing brace", at)
    return GraphDocument("dot-subset", tuple(order), tuple(edges))


def serialize_graph(g: Graph, format: str = "json") -> bytes:
    """Render a graph so that parse_graph gives it back exactly.

    Vertices are written up front in graph order for the line formats,
    so vertex order survives the round trip even for isolated vertices.
    """
    labels = g.labels
    pairs = [(labels[i], labels[j]) for i, j in g.edges()]
    if format == "json":
        doc = {"vertices": list(labels), "edges": [list(p) for p in pairs]}
        return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode()
    if format == "edge-list":
        for lab in labels:
            if not lab or re.search(r"\s", lab):
                raise InvalidArgumentError(
                    f"label {lab!r} cannot be written in edge-list format"
                )
        lines = list(labels) + [f"{a} {b}" for a, b in pairs]
        return ("\n".join(lines) + "\n").encode()
    if format == "dot-subset":
        for lab in labels:
            if not _DOT_ID.fullmatch(lab):
                raise InvalidArgumentError(
                    f"label {lab!r} is not a DOT identifier"
                )
        lines = ["graph {"]
        lines += [f"  {lab};" for lab in labels]
        lines += [f"  {a} -- {b};" for a, b in pairs]
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise InvalidArgumentError(
        f"unknown graph format {format!r}; known: {', '.join(FORMATS)}"
    )
