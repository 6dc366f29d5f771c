"""Graph core: construction, cliques, separators."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_graphs,
    connected_graphs,
    graph_init_oracle,
    induced_subgraph_oracle,
    mask_graph,
    mcs_m_madj_oracle,
    minimal_clique_separators_oracle,
    minimal_filter_oracle,
    minimal_separators_enumeration_oracle,
    random_graph,
    separates_oracle,
)
from raagsplit.errors import InvalidArgumentError, InvalidVertexError
from raagsplit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
)


class TestConstruction:
    def test_vertices_keep_file_order(self):
        g = Graph(("z", "a", "m"), [("z", "m")])
        assert g.labels == ("z", "a", "m")
        assert g.edges() == [(0, 2)]

    def test_duplicate_label_rejected(self):
        with pytest.raises(InvalidVertexError):
            Graph(("a", "a"))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InvalidVertexError):
            Graph(("a", "b"), [("a", "c")])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidVertexError):
            Graph(("a",), [("a", "a")])

    @pytest.mark.parametrize("edge", ["ab", ("a",), ("a", "b", "c"), None, 7])
    def test_malformed_edge_rejected(self, edge):
        # a two-character str used to unpack into the edge a -- b
        with pytest.raises(InvalidVertexError, match="an edge must be a pair of labels"):
            Graph(("a", "b", "c"), [edge])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidVertexError):
            Graph(("a", "b"), [("a", "b"), ("b", "a")])

    def test_equality_is_labels_plus_adjacency(self):
        g1 = Graph("ab", [("a", "b")])
        g2 = Graph(("a", "b"), [("b", "a")])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != Graph("ab")
        assert g1 != Graph("ba", [("a", "b")])

    def test_vertex_set_sorts_and_checks(self):
        g = path_graph("abcd")
        assert g.vertex_set([2, 0, 2]) == (0, 2)
        with pytest.raises(InvalidVertexError):
            g.vertex_set([4])
        with pytest.raises(InvalidVertexError):
            g.vertex_set([-1])

    @pytest.mark.parametrize("bad", [[True, 2], [1, True], [1.0], [2, 1.0], ["1"], [None]])
    def test_vertex_set_takes_only_ints(self, bad):
        g = path_graph("abcd")
        with pytest.raises(InvalidVertexError):
            g.vertex_set(bad)
        with pytest.raises(InvalidVertexError):
            g.is_clique(bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph([1, 2.0, True], [(1, 2.0)]),
            lambda: Graph([1, "1"]),
            lambda: Graph(["a", None]),
            lambda: Graph(["a", "b"], [("a", 1)]),
            lambda: Graph(["1", "b"], [(1, "b")]),
            lambda: path_graph([1, 2, 3]),
            lambda: cycle_graph(["a", "b", 3]),
            lambda: complete_graph(True),
            lambda: empty_graph([b"a"]),
        ],
    )
    def test_labels_must_be_strs(self, build):
        with pytest.raises(InvalidVertexError):
            build()

    def test_builders(self):
        assert complete_graph(3).edges() == [(0, 1), (0, 2), (1, 2)]
        assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
        assert cycle_graph(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert empty_graph(3).edges() == []
        rng = random.Random(0xED6E)
        graphs = [g for n in range(6) for g in all_graphs(n)]
        graphs += [random_graph(rng, 64, p) for p in (0.03, 0.1, 0.5, 0.9) for _ in range(3)]
        for g in graphs:
            pairs = itertools.combinations(range(g.n), 2)
            assert g.edges() == [(i, j) for i, j in pairs if g.adjacent(i, j)]
        assert complete_graph(0).n == 0
        with pytest.raises(InvalidArgumentError):
            cycle_graph(2)


class TestStructure:
    def test_induced_subgraph_keeps_labels(self):
        g = path_graph("abcd")
        sub = g.induced_subgraph((1, 2, 3))
        assert sub.labels == ("b", "c", "d")
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_components_ordered_by_lowest_vertex(self):
        g = Graph("abcde", [("d", "e"), ("a", "b")])
        assert g.components() == [(0, 1), (2,), (3, 4)]
        assert not g.is_connected()
        assert path_graph("ab").is_connected()
        assert empty_graph(0).is_connected()

    def test_link_and_star(self):
        g = path_graph("abc")
        assert g.link((1,)) == (0, 2)
        assert g.star((1,)) == (0, 1, 2)
        assert g.link((0, 2)) == (1,)
        # everything is vacuously adjacent to the empty set
        assert g.link(()) == (0, 1, 2)
        assert g.star(()) == (0, 1, 2)

    def test_is_clique_and_separates(self):
        g = path_graph("abc")
        assert g.is_clique(()) and g.is_clique((0,)) and g.is_clique((0, 1))
        assert not g.is_clique((0, 2))
        assert g.separates((1,))
        assert not g.separates((0,))
        assert not g.separates((0, 1))  # leaves a single vertex

    def test_clique_number(self):
        g = Graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        assert g.clique_number() == 3
        assert empty_graph(0).clique_number() == 0
        assert empty_graph(3).clique_number() == 1

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 6), st.integers(0, (1 << 15) - 1))
    def test_clique_number_against_itertools(self, n, mask):
        g = mask_graph(n, mask)
        expect = max(
            (
                size
                for size in range(n + 1)
                for cand in itertools.combinations(range(n), size)
                if g.is_clique(cand)
            ),
            default=0,
        )
        assert g.clique_number() == expect


class TestMinimalCliqueSeparators:
    def test_path(self):
        assert path_graph("abc").minimal_clique_separators() == [(1,)]
        assert path_graph("abcd").minimal_clique_separators() == [(1,), (2,)]

    def test_square_has_none(self):
        assert cycle_graph(4).minimal_clique_separators() == []
        assert cycle_graph(5).minimal_clique_separators() == []

    def test_complete_has_none(self):
        for m in range(1, 6):
            assert complete_graph(m).minimal_clique_separators() == []

    def test_disconnected_is_empty_cut(self):
        assert Graph("ab").minimal_clique_separators() == [()]
        assert empty_graph(3).minimal_clique_separators() == [()]

    def test_triangle_with_pendant(self):
        g = Graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])
        assert g.minimal_clique_separators() == [(0,)]

    def test_exhaustive_up_to_five(self):
        for n in range(6):
            for g in all_graphs(n):
                assert (
                    g.minimal_clique_separators()
                    == minimal_clique_separators_oracle(g)
                ), (g.labels, g.edges())

    def test_random_medium_graphs(self):
        # ccd recursion leans on this up to ten vertices or so
        rng = random.Random(31337)
        for _ in range(150):
            g = random_graph(rng, rng.randint(6, 12))
            assert (
                g.minimal_clique_separators()
                == minimal_clique_separators_oracle(g)
            ), (g.labels, g.edges())

    def test_separates_matches_oracle(self):
        rng = random.Random(99)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 9))
            for _ in range(6):
                cut = tuple(
                    v for v in range(g.n) if rng.random() < 0.3
                )
                assert g.separates(cut) == separates_oracle(g, cut)

    def test_every_reported_separator_is_minimal(self):
        # dropping any vertex of a minimal separator must reconnect
        for g in connected_graphs(5):
            for sep in g.minimal_clique_separators():
                assert g.is_clique(sep)
                assert g.separates(sep)
                for drop in sep:
                    smaller = tuple(v for v in sep if v != drop)
                    assert not g.separates(smaller), (g.edges(), sep)


def chordal_clique_sum(rng: random.Random, pieces: int) -> Graph:
    """Glue ``pieces`` complete graphs one at a time, each along a
    random non-empty, proper when possible, sub-clique of an earlier
    piece."""
    cliques = [list(range(rng.randint(1, 4)))]
    n = len(cliques[0])
    for _ in range(pieces - 1):
        base = rng.choice(cliques)
        shared = rng.sample(base, rng.randint(1, max(1, len(base) - 1)))
        fresh = list(range(n, n + rng.randint(1, 2)))
        n += len(fresh)
        cliques.append(shared + fresh)
    labels = [f"v{i}" for i in range(n)]
    edges = {
        (labels[a], labels[b])
        for c in cliques
        for a, b in itertools.combinations(sorted(c), 2)
    }
    return Graph(labels, sorted(edges))


def _differential_corpus(name):
    if name == "small":
        return [g for n in range(6) for g in all_graphs(n)]
    if name == "random":
        rng = random.Random(20100)
        return [random_graph(rng, rng.randint(6, 11)) for _ in range(2000)]
    if name == "cycles":
        return [cycle_graph(m) for m in range(4, 17)]
    rng = random.Random(2004)
    return [chordal_clique_sum(rng, rng.randint(2, 6)) for _ in range(60)]


class TestMcsMDifferential:
    """MCS-M against the enumeration it replaced and the exhaustive
    oracle."""

    @pytest.mark.parametrize("corpus", ["small", "random", "cycles", "clique-sums"])
    def test_matches_both_oracles(self, corpus):
        for g in _differential_corpus(corpus):
            got = g.minimal_clique_separators()
            assert got == minimal_separators_enumeration_oracle(g), (g.labels, g.edges())
            assert got == minimal_clique_separators_oracle(g), (g.labels, g.edges())

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 9), st.integers(0, (1 << 36) - 1), st.randoms(use_true_random=False))
    def test_relabel_and_reorder_maps_separators(self, n, mask, rnd):
        g = mask_graph(n, mask)
        order = list(range(n))
        rnd.shuffle(order)
        names = [f"u{k}" for k in rnd.sample(range(100), n)]
        # vertex order[i] of g becomes vertex i of h, named names[order[i]]
        h = Graph(
            [names[order[i]] for i in range(n)],
            [(names[a], names[b]) for a, b in g.edges()],
        )
        where = {v: i for i, v in enumerate(order)}
        mapped = sorted(
            tuple(sorted(where[v] for v in sep)) for sep in g.minimal_clique_separators()
        )
        assert h.minimal_clique_separators() == mapped


class TestMcsMLevels:
    """MCS-M with its weight levels kept between steps against the run
    that rebuilt them at every step: the same madj list."""

    @staticmethod
    def check(g):
        madj, order = g._mcs_m_madj()
        assert madj == mcs_m_madj_oracle(g), (g.n, g.edges())
        # a numbering: each vertex once, and madj(v) holds only vertices
        # numbered before v
        assert sorted(order) == list(range(g.n))
        before = 0
        for v in order:
            assert madj[v] & ~before == 0, (g.n, g.edges(), v)
            before |= 1 << v

    def test_every_graph_up_to_six_vertices(self):
        count = 0
        for n in range(7):
            for g in all_graphs(n):
                self.check(g)
                count += 1
        assert count == 1 + 1 + 2 + 8 + 64 + 1024 + 32768

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.35, 0.6, 0.9])
    def test_random_graphs(self, p):
        rng = random.Random(int(p * 100))
        for _ in range(60):
            self.check(random_graph(rng, rng.randint(7, 64), p))

    def test_complete_graphs_have_no_separator(self):
        for m in range(1, 9):
            assert complete_graph(m).minimal_clique_separators() == []


def _filter_corpus():
    """Every connected graph with at most 5 vertices, then seeded graphs
    with 7 to 40 vertices: random trees, clique-sums, and sparse and
    dense G(n, p)."""
    for n in range(1, 6):
        yield from connected_graphs(n)
    rng = random.Random(18_2026)
    for k in range(400):
        n = rng.randint(7, 40)
        labels = [f"v{i}" for i in range(n)]
        if k % 4 == 0:
            yield Graph(labels, [(labels[rng.randrange(i)], labels[i]) for i in range(1, n)])
        elif k % 4 == 1:
            yield chordal_clique_sum(rng, rng.randint(3, 16))
        else:
            yield random_graph(rng, n, 3 / n if k % 4 == 2 else 0.6)


class TestBucketedFilter:
    """The inclusion-minimality filter with candidates kept in buckets by
    their lowest vertex, against the quadratic filter it replaced
    (``minimal_filter_oracle``)."""

    def test_matches_quadratic_filter(self):
        count = dropped = 0
        for g in _filter_corpus():
            got = g.minimal_clique_separators()
            assert got == minimal_filter_oracle(g), (g.labels, g.edges())
            count += 1
            if g.n and g.is_connected():
                dropped += len(got) < len(g._clique_separator_candidates())
        assert count == 1 + 1 + 4 + 38 + 728 + 400
        # the filter is exercised: some candidates hold a smaller one
        assert dropped > 20

    def test_long_path(self):
        assert path_graph(2048).minimal_clique_separators() == [(i,) for i in range(1, 2047)]

    def test_large_random_tree(self):
        rng = random.Random(2048)
        labels = [f"v{i}" for i in range(2048)]
        g = Graph(labels, [(labels[rng.randrange(i)], labels[i]) for i in range(1, 2048)])
        # the cut vertices of a tree are its vertices of degree at least 2
        inner = [(v,) for v, nbrs in enumerate(g.adjacency_masks) if nbrs.bit_count() > 1]
        assert len(inner) > 1000
        assert g.minimal_clique_separators() == inner


_FAULTS = (
    "label type",
    "duplicate label",
    "endpoint type",
    "unknown first",
    "unknown second",
    "self-loop",
    "duplicate edge",
    "reversed duplicate edge",
)


def _init_case(rng: random.Random):
    """Seeded constructor arguments with no, one or two faults, each put
    at a random position so that two faults race on order; returns the
    labels, the edges and the faults applied."""
    n = rng.randint(0, 7)
    labels = [f"v{i}" for i in range(n)]
    edges = [
        (labels[i], labels[j]) if rng.random() < 0.5 else (labels[j], labels[i])
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < 0.5
    ]
    rng.shuffle(edges)
    faults = rng.sample(_FAULTS, rng.choice((0, 1, 1, 2)))
    for fault in faults:
        some = rng.choice(labels) if labels else "v0"
        if fault == "label type":
            labels.insert(rng.randint(0, n), rng.choice((1, None, 2.0, True, b"v0", ("v0",))))
            continue
        if fault == "duplicate label":
            labels.insert(rng.randint(0, len(labels)), some)
            continue
        if fault == "endpoint type":
            bad = rng.choice((0, None, 1.5, b"v1", ["v0"]))
            edge = (some, bad) if rng.random() < 0.5 else (bad, some)
        elif fault == "unknown first":
            edge = ("w", some)
        elif fault == "unknown second":
            edge = (some, "w")
        elif fault == "self-loop":
            edge = (some, some)
        elif edges:
            a, b = rng.choice(edges)
            edge = (a, b) if fault == "duplicate edge" else (b, a)
        else:
            continue
        edges.insert(rng.randint(0, len(edges)), edge)
    return labels, edges, faults


def _built(build, labels, edges):
    try:
        return build(labels, edges)
    except Exception as exc:  # the outcome compared is the error itself
        return type(exc), str(exc)


def _stored(labels, edges):
    g = Graph(labels, edges)
    return g.labels, g.adjacency_masks


class TestConstructorDifferential:
    """``Graph(...)`` against the constructor it replaced, kept in
    conftest as ``graph_init_oracle``: the same labels and masks, or the
    same error type and message."""

    def test_seeded_inputs_with_every_fault(self):
        rng = random.Random(0x6A7)
        single = set()
        errors = 0
        for _ in range(6000):
            labels, edges, faults = _init_case(rng)
            got = _built(_stored, labels, edges)
            assert got == _built(graph_init_oracle, labels, edges), (labels, edges)
            if isinstance(got[0], type):
                errors += 1
                assert got[0] is InvalidVertexError, got
                if len(faults) == 1:
                    single |= set(faults)
        assert single == set(_FAULTS)
        assert 0 < errors < 6000


class TestInducedSubgraphDifferential:
    """``induced_subgraph`` against the pair scan it replaced, kept in
    conftest as ``induced_subgraph_oracle``."""

    def test_every_subset_of_graphs_up_to_five_vertices(self):
        for n in range(6):
            for g in all_graphs(n):
                for bits in range(1 << n):
                    keep = [i for i in range(n) if bits >> i & 1]
                    assert g.induced_subgraph(keep) == induced_subgraph_oracle(g, keep)

    def test_seeded_subsets_and_bad_indices(self):
        rng = random.Random(0x5B6)
        for _ in range(300):
            g = random_graph(rng, rng.randint(6, 40))
            keep = rng.sample(range(g.n), rng.randint(0, g.n))
            got = g.induced_subgraph(keep)
            assert got == induced_subgraph_oracle(g, keep)
            assert got.labels == tuple(g.labels[i] for i in sorted(keep))
            bad = keep + [rng.choice((-1, g.n, True, 1.0))]
            assert _built(Graph.induced_subgraph, g, bad) == _built(
                induced_subgraph_oracle, g, bad
            )
