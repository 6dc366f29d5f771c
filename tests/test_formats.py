"""Graph file formats: parsing, serialization, and error positions."""

from __future__ import annotations

import copy
import json
import random

import pytest

from conftest import (
    DEEP_JSON,
    parse_dot_oracle,
    parse_edge_list_oracle,
    parse_json_oracle,
    random_graph,
)
from raagsplit.errors import (
    GraphParseError,
    InvalidArgumentError,
    InvalidVertexError,
)
from raagsplit.formats import (
    FORMATS,
    GraphDocument,
    parse_document,
    parse_graph,
    serialize_graph,
    sniff_format,
)
from raagsplit.graphs import Graph, path_graph


class TestExamples:
    def test_json_path(self):
        g = parse_graph(b'{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"]]}')
        assert g == path_graph("abc")

    def test_edge_list_path(self):
        assert parse_graph(b"a b\nb c") == path_graph("abc")

    def test_dot_self_loop(self):
        with pytest.raises(InvalidVertexError):
            parse_graph(b"graph { a -- a; }")

    def test_dot_chain_and_bare_nodes(self):
        g = parse_graph(b"graph h { x; a -- b -- c; }")
        assert g.labels == ("x", "a", "b", "c")
        assert g.edges() == [(1, 2), (2, 3)]

    def test_edge_list_bare_vertex_lines(self):
        g = parse_graph(b"solo\na b\n\n  c  \n")
        assert g.labels == ("solo", "a", "b", "c")
        assert g.edges() == [(1, 2)]

    def test_json_edges_default_empty(self):
        g = parse_graph(b'{"vertices":["a"]}')
        assert g.labels == ("a",) and g.edges() == []


class TestSniffing:
    def test_json(self):
        assert sniff_format(b'  {"vertices":[]}') == "json"

    def test_dot(self):
        assert sniff_format(b"\ngraph {\n}") == "dot-subset"

    def test_word_boundary(self):
        # "graphx" is just a vertex label
        assert sniff_format(b"graphx y") == "edge-list"

    def test_fallback(self):
        assert sniff_format(b"a b") == "edge-list"

    def test_unknown_format_name(self):
        with pytest.raises(InvalidArgumentError):
            parse_document(b"a b", "yaml")


class TestRoundTrip:
    def test_path_all_formats(self):
        g = path_graph("abc")
        for fmt in FORMATS:
            assert parse_graph(serialize_graph(g, fmt)) == g

    def test_isolated_vertices_keep_order(self):
        g = Graph(("z", "m", "a"), [("m", "a")])
        for fmt in FORMATS:
            back = parse_graph(serialize_graph(g, fmt))
            assert back == g
            assert back.labels == ("z", "m", "a")

    def test_empty_graph(self):
        g = Graph(())
        for fmt in FORMATS:
            assert parse_graph(serialize_graph(g, fmt)) == g

    def test_unicode_labels_in_json(self):
        g = Graph(("α", "β"), [("α", "β")])
        data = serialize_graph(g, "json")
        assert "α".encode() in data
        assert parse_graph(data) == g

    def test_numeric_dot_identifier(self):
        g = Graph(("42", "x"), [("42", "x")])
        assert parse_graph(serialize_graph(g, "dot-subset")) == g

    def test_serialization_is_stable(self):
        g = Graph(("b", "a", "c"), [("b", "c"), ("a", "c")])
        for fmt in FORMATS:
            assert serialize_graph(g, fmt) == serialize_graph(g, fmt)
            assert serialize_graph(g, fmt).endswith(b"\n")

    def test_random_graphs(self):
        prng = random.Random(41)
        for _ in range(30):
            g = random_graph(prng, prng.randint(0, 9))
            for fmt in FORMATS:
                assert parse_graph(serialize_graph(g, fmt)) == g


class TestErrorPositions:
    def test_json_syntax(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph(b'{"vertices": [}')
        assert err.value.line == 1 and err.value.column == 15
        assert "line 1" in str(err.value) and "column 15" in str(err.value)

    def test_json_top_level(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph(b"[1]", "json")
        assert (err.value.line, err.value.column) == (1, 1)

    def test_json_bad_vertices_field(self):
        with pytest.raises(GraphParseError):
            parse_graph(b'{"vertices": 3}')

    def test_json_bad_edge_shape(self):
        with pytest.raises(GraphParseError):
            parse_graph(b'{"vertices": ["a"], "edges": [["a"]]}')

    def test_json_nesting_too_deep(self):
        with pytest.raises(GraphParseError):
            parse_graph(DEEP_JSON)

    def test_edge_list_three_tokens(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph(b"a b\nx y z")
        assert (err.value.line, err.value.column) == (2, 5)

    def test_edge_list_column_counts_spaces(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph(b"a  b   c")
        assert (err.value.line, err.value.column) == (1, 8)

    def test_dot_unexpected_character(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph(b"graph { a -> b; }")
        assert (err.value.line, err.value.column) == (1, 11)

    def test_dot_unexpected_eof(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph(b"graph { a --")
        assert err.value.line == 1

    def test_dot_trailing_junk(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph(b"graph { a; } b")
        assert (err.value.line, err.value.column) == (1, 14)

    def test_dot_wrong_keyword(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph(b"digraph { }", "dot-subset")
        assert (err.value.line, err.value.column) == (1, 1)

    def test_not_utf8(self):
        with pytest.raises(GraphParseError):
            parse_graph(b"\xff\xfe", "edge-list")

    @pytest.mark.parametrize(
        "text",
        [
            b'{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"]]}',
            b"a b\nb c\n",
            b"graph { a -- b -- c }",
        ],
    )
    @pytest.mark.parametrize("fmt", [None, "json", "edge-list", "dot-subset"])
    def test_byte_order_mark_refused(self, text, fmt):
        # sniffed past it, a JSON file with one would read as an edge
        # list holding a single vertex
        assert parse_graph(text).n == 3
        with pytest.raises(GraphParseError) as err:
            parse_document(b"\xef\xbb\xbf" + text, fmt)
        assert (err.value.line, err.value.column) == (1, 1)


class TestConstructorErrorsSurface:
    def test_edge_list_self_loop(self):
        with pytest.raises(InvalidVertexError):
            parse_graph(b"a a")

    def test_duplicate_edge(self):
        with pytest.raises(InvalidVertexError):
            parse_graph(b"a b\na b")

    def test_json_duplicate_vertex(self):
        with pytest.raises(InvalidVertexError):
            parse_graph(b'{"vertices": ["a", "a"], "edges": []}')


class TestUnrepresentableLabels:
    def test_whitespace_label_edge_list(self):
        with pytest.raises(InvalidArgumentError):
            serialize_graph(Graph(("a b",)), "edge-list")

    def test_non_identifier_dot(self):
        with pytest.raises(InvalidArgumentError):
            serialize_graph(Graph(("a-b",)), "dot-subset")

    def test_unknown_target_format(self):
        with pytest.raises(InvalidArgumentError):
            serialize_graph(path_graph("ab"), "yaml")

    def test_json_accepts_anything(self):
        g = Graph(("a b", "c-d"), [("a b", "c-d")])
        assert parse_graph(serialize_graph(g, "json")) == g


class TestDocument:
    def test_fields(self):
        doc = parse_document(b"a b\nc\n")
        assert doc.format == "edge-list"
        assert doc.vertices == ("a", "b", "c")
        assert doc.edges == (("a", "b"),)
        assert doc.to_graph().labels == ("a", "b", "c")

    def test_document_is_reusable(self):
        doc = GraphDocument("json", ("x",), ())
        assert doc.to_graph() == Graph(("x",))


# pieces of the fuzz corpus: DOT and edge-list syntax, stray hyphens,
# a number run into a name, and every kind of whitespace the two
# parsers must treat alike (Unicode spaces and line breaks, CRLF, tabs)
FUZZ_PIECES = (
    "graph", "graph -- {", "graph g", "{", "}", ";", "--", "-", "---",
    "a--b--c", "0abc", "a", "b", "x_1", "42", "a b", "a b c", "$", "\u00e9",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
    "\xa0", "\u2028", "\u3000",
)


def _fuzz_corpus():
    """Empty and fixed edge cases, then seeded random strings of the
    pieces above, with and without a DOT header and closing brace, then
    the serialised form of random graphs."""
    yield ""
    yield from (
        "-", "---", "a--b--c", "0abc", "graph -- { a }", "graph { a -- b",
        "graph { a } }", "graph { a } b", "graph a b { }", "graph {{ a }",
        "graph\r\n{\ta -- b;\r\n}\r\n", "a b\r\nb\tc\r\n",
        "a\x0bb\x0cc", "a\u2028b c d", "a\x85b\x1cc",
        "graph{a--b;}", "graph {a;b--c}", "graph { a -- b;c }", "graph { x; 0abc -- y; }",
    )
    rng = random.Random(2026_10)
    for k in range(3000):
        text = "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 14)))
        if k % 3 == 0:
            text = "graph {" + text
        if k % 4 == 0:
            text += "}"
        yield text
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 16))
        for fmt in ("edge-list", "dot-subset"):
            yield serialize_graph(g, fmt).decode()


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphParseError as exc:
        return (str(exc), exc.line, exc.column)


class TestParserDifferential:
    """The one-scan parsers against the parsers they replaced: an equal
    document, or an error with an equal message, line and column."""

    @pytest.mark.parametrize(
        "fmt, oracle",
        [("edge-list", parse_edge_list_oracle), ("dot-subset", parse_dot_oracle)],
    )
    def test_matches_oracle(self, fmt, oracle):
        outcomes = set()
        for text in _fuzz_corpus():
            got = _outcome(lambda t: parse_document(t.encode(), fmt), text)
            assert got == _outcome(oracle, text), repr(text)
            outcomes.add(type(got))
        assert outcomes == {GraphDocument, tuple}


# values that break the JSON shape wherever they stand in for a vertex
# list, an edge list, a label or an edge; "ab" unpacks into two labels
# and a two-key object into two keys, so both must be refused as edges
_JSON_JUNK = (
    None, True, 0, 1.5, "", "ab", [], ["a"], ["a", "b"], ["a", "b", "c"],
    [1, "a"], ["a", None], [["a"], "b"], {}, {"a": "b", "c": "d"},
)


def _json_corpus():
    """Fixed syntax and top-level cases, then seeded documents from
    ``serialize_graph``, each as written and then with one to three
    faults: a field dropped or replaced, or junk put into its list."""
    yield from ("[1]", "3", '"x"', "null", "true", "[]", "{}", '{"vertices": [}', "{", "")
    rng = random.Random(2026_18)
    for _ in range(600):
        doc = json.loads(serialize_graph(random_graph(rng, rng.randint(0, 9)), "json"))
        yield json.dumps(doc)
        for _ in range(rng.randint(1, 3)):
            key = rng.choice(("vertices", "edges"))
            kind = rng.randrange(3)
            if kind == 0:
                doc.pop(key, None)
            elif kind == 1 or not isinstance(doc.get(key), list):
                doc[key] = copy.deepcopy(rng.choice(_JSON_JUNK))
            else:
                doc[key].insert(rng.randint(0, len(doc[key])), copy.deepcopy(rng.choice(_JSON_JUNK)))
        yield json.dumps([doc] if rng.random() < 0.05 else doc)


class TestJsonParserDifferential:
    """The one-loop JSON shape checks against the generator expressions
    they replaced: an equal document, or an error with an equal message,
    line and column."""

    def test_matches_oracle(self):
        outcomes = set()
        for text in _json_corpus():
            got = _outcome(lambda t: parse_document(t.encode(), "json"), text)
            assert got == _outcome(parse_json_oracle, text), text
            outcomes.add(got[0] if isinstance(got, tuple) else type(got))
        assert outcomes >= {
            GraphDocument,
            "top level must be an object (line 1, column 1)",
            '"vertices" must be a list of strings',
            '"edges" must be a list of two-element label lists',
        }
