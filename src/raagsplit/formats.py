"""Graph interchange: JSON, edge lists, and a small DOT subset.

The JSON shape is ``{"vertices": [...], "edges": [["a","b"], ...]}``.
Edge lists hold one ``a b`` pair per line; a line with a single token
declares an isolated vertex, which keeps serialize/parse a true round
trip for graphs with isolated vertices.  The DOT subset is undirected
``graph { ... }`` with plain identifiers, ``a -- b`` edge statements,
bare node statements, and no attributes.

Vertex order is always file order (first appearance), never label
collation.  Semantic problems (duplicate vertices, unknown endpoints,
self-loops) surface as the graph constructor's errors; only syntax
problems raise GraphParseError, which carries a 1-based line and
column where known.
"""

from __future__ import annotations

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
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphParseError('"vertices" must be a list of strings')
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
        for e in edges
    ):
        raise GraphParseError('"edges" must be a list of two-element label lists')
    return GraphDocument("json", tuple(vertices), tuple((a, b) for a, b in edges))


def _parse_edge_list(text: str) -> GraphDocument:
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def register(tok: str) -> None:
        if tok not in seen:
            seen.add(tok)
            vertices.append(tok)

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not tokens:
            continue
        if len(tokens) > 2:
            raise GraphParseError(
                "expected at most two labels per line",
                line=lineno,
                column=tokens[2][1],
            )
        for tok, _ in tokens:
            register(tok)
        if len(tokens) == 2:
            edges.append((tokens[0][0], tokens[1][0]))
    return GraphDocument("edge-list", tuple(vertices), tuple(edges))


class _DotTokens:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            pos = 0
            while pos < len(line):
                ch = line[pos]
                if ch.isspace():
                    pos += 1
                    continue
                if line.startswith("--", pos):
                    self.tokens.append(("--", lineno, pos + 1))
                    pos += 2
                    continue
                if ch in "{};":
                    self.tokens.append((ch, lineno, pos + 1))
                    pos += 1
                    continue
                m = _DOT_ID.match(line, pos)
                if m:
                    self.tokens.append((m.group(), lineno, pos + 1))
                    pos = m.end()
                    continue
                raise GraphParseError(
                    f"unexpected character {ch!r}", line=lineno, column=pos + 1
                )
        self.at = 0

    def peek(self):
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def take(self, want: str | None = None):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise GraphParseError(
                f"unexpected end of input (wanted {want!r})" if want else "unexpected end of input",
                line=last[1],
                column=last[2],
            )
        if want is not None and tok[0] != want:
            raise GraphParseError(
                f"expected {want!r}, found {tok[0]!r}", line=tok[1], column=tok[2]
            )
        self.at += 1
        return tok


def _parse_dot(text: str) -> GraphDocument:
    toks = _DotTokens(text)
    kw = toks.take()
    if kw[0] != "graph":
        raise GraphParseError("expected 'graph'", line=kw[1], column=kw[2])
    nxt = toks.peek()
    if nxt is not None and nxt[0] not in "{":
        toks.take()  # optional graph name
    toks.take("{")

    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def register(tok: str) -> None:
        if tok not in seen:
            seen.add(tok)
            vertices.append(tok)

    def is_id(text_: str) -> bool:
        return _DOT_ID.fullmatch(text_) is not None

    while True:
        tok = toks.take()
        if tok[0] == "}":
            break
        if tok[0] == ";":
            continue
        if not is_id(tok[0]):
            raise GraphParseError(
                f"expected a node identifier, found {tok[0]!r}",
                line=tok[1],
                column=tok[2],
            )
        register(tok[0])
        prev = tok[0]
        while toks.peek() is not None and toks.peek()[0] == "--":
            toks.take("--")
            nxt = toks.take()
            if not is_id(nxt[0]):
                raise GraphParseError(
                    f"expected a node identifier after '--', found {nxt[0]!r}",
                    line=nxt[1],
                    column=nxt[2],
                )
            register(nxt[0])
            edges.append((prev, nxt[0]))
            prev = nxt[0]
    trailing = toks.peek()
    if trailing is not None:
        raise GraphParseError(
            f"unexpected {trailing[0]!r} after closing brace",
            line=trailing[1],
            column=trailing[2],
        )
    return GraphDocument("dot-subset", tuple(vertices), tuple(edges))


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
