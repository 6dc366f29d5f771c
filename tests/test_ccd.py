"""Complete-cut decompositions: construction, validation, and the
graph-of-groups read-off."""

from __future__ import annotations

import collections
import itertools
import random
import sys

import pytest

from conftest import (
    all_graphs,
    ccd_recursion_oracle,
    clique_separator_candidates_oracle,
    connected_graphs,
    decompose_oracle,
    full_components_oracle,
    random_connected_graph,
    separates_oracle,
)
from raagsplit import kernels
from raagsplit.ccd import (
    CcdTree,
    _decompose,
    complete_cut_decomposition,
    graph_of_groups,
    validate_ccd,
)
from raagsplit.errors import DisconnectedGraphError, InvalidCcdError
from raagsplit.graphs import Graph, _mask_to_set, complete_graph, cycle_graph, path_graph
from raagsplit.presentations import raag_presentation
from test_graphs import _differential_corpus as _mcs_m_corpus


def tri_pendant():
    return Graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])


class TestDecompose:
    def test_path(self):
        t = complete_cut_decomposition(path_graph("abc"))
        assert t.pieces == ((0, 1), (1, 2))
        assert t.tree_edges == ((0, 1),)
        assert t.cuts == ((1,),)

    def test_complete_graphs_trivial(self):
        for m in range(1, 6):
            t = complete_cut_decomposition(complete_graph(m))
            assert t.pieces == (tuple(range(m)),)
            assert t.tree_edges == () and t.cuts == ()

    def test_square_trivial(self):
        # no complete cut at all, so the whole graph is the only piece
        t = complete_cut_decomposition(cycle_graph(4))
        assert t.pieces == ((0, 1, 2, 3),)

    def test_triangle_with_pendant(self):
        t = complete_cut_decomposition(tri_pendant())
        assert sorted(t.pieces) == [(0, 1, 2), (0, 3)]
        assert t.cuts == ((0,),)
        assert len(t.tree_edges) == 1

    def test_long_path(self):
        g = path_graph("abcde")
        t = complete_cut_decomposition(g)
        assert sorted(t.pieces) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert sorted(t.cuts) == [(1,), (2,), (3,)]

    def test_path_longer_than_the_recursion_limit(self):
        g = path_graph([f"v{i}" for i in range(1100)])
        t = complete_cut_decomposition(g)
        assert len(t.pieces) == 1099
        assert validate_ccd(g, t).passed

    def test_empty_graph_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            complete_cut_decomposition(Graph(()))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            complete_cut_decomposition(Graph("ab"))

    @pytest.mark.parametrize(
        "labels, pieces, cuts",
        [
            ("cxyz", ((0, 1), (0, 2), (0, 3)), ((0,), (0,))),
            ("xcyz", ((0, 1), (1, 2), (1, 3)), ((1,), (1,))),
        ],
    )
    def test_three_leaf_star_chains_its_children(self, labels, pieces, cuts):
        # one cut, three children, walked in order of their lowest
        # vertex; the chain edges come last pair first
        g = Graph(labels, [("c", x) for x in "xyz"])
        t = complete_cut_decomposition(g)
        assert t.pieces == pieces
        assert t.tree_edges == ((1, 2), (0, 1))
        assert t.cuts == cuts

    def test_deterministic(self):
        rng = random.Random(12)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(1, 9))
            assert complete_cut_decomposition(g) == complete_cut_decomposition(g)


class TestTreeStructure:
    def test_no_pieces(self):
        with pytest.raises(InvalidCcdError):
            CcdTree(())

    def test_edge_out_of_range(self):
        with pytest.raises(InvalidCcdError):
            CcdTree(((0,), (1,)), ((0, 2),), ((),))

    def test_self_edge(self):
        with pytest.raises(InvalidCcdError):
            CcdTree(((0,), (1,)), ((1, 1),), ((),))

    @pytest.mark.parametrize("edge", [(0, 1, 1), (0,), None, 3])
    def test_edge_not_a_pair(self, edge):
        with pytest.raises(InvalidCcdError, match="is not a pair of node ids"):
            CcdTree(((0, 1), (1, 2)), (edge,), ((1,),))

    def test_edge_count(self):
        with pytest.raises(InvalidCcdError):
            CcdTree(((0, 1), (1, 2)))

    def test_cycle_is_not_a_tree(self):
        pieces = ((0, 1), (1, 2), (0, 2), (5,))
        edges = ((0, 1), (1, 2), (0, 2))
        cuts = ((1,), (2,), (0,))
        with pytest.raises(InvalidCcdError):
            CcdTree(pieces, edges, cuts)

    def test_cut_must_match_intersection(self):
        with pytest.raises(InvalidCcdError):
            CcdTree(((0, 1), (1, 2)), ((0, 1),), ((0,),))

    def test_cut_count(self):
        with pytest.raises(InvalidCcdError):
            CcdTree(((0, 1), (1, 2)), ((0, 1),), ())

    @pytest.mark.parametrize(
        "pieces, edges, cuts",
        [
            ([(0, 1.7), (1, 2)], [(0, 1)], [(1,)]),
            ([(0, True), (1, 2)], [(0, 1)], [(1,)]),
            ([("0", 1), (1, 2)], [(0, 1)], [(1,)]),
            ([(0, 1), (1, 2)], [(0, 1.0)], [(1,)]),
            ([(0, 1), (1, 2)], [(False, 1)], [(1,)]),
            ([(0, 1), (1, 2)], [(0, 1)], [(1.0,)]),
        ],
    )
    def test_ids_must_be_ints(self, pieces, edges, cuts):
        with pytest.raises(InvalidCcdError):
            CcdTree(pieces, edges, cuts)

    def test_edge_orientation_normalized(self):
        t = CcdTree(((0, 1), (1, 2)), ((1, 0),), ((1,),))
        assert t.tree_edges == ((0, 1),)


class TestValidate:
    def test_k3_whole_graph_passes(self):
        g = complete_graph(3)
        rep = validate_ccd(g, CcdTree((range(3),)))
        assert rep.passed and rep.failures == ()

    def test_undivided_path_fails_only_piece_check(self):
        g = path_graph("abc")
        rep = validate_ccd(g, CcdTree((range(3),)))
        assert rep.covers_edges
        assert not rep.pieces_have_no_complete_cut
        assert rep.cuts_are_proper_complete_cuts
        assert not rep.passed
        assert rep.failures

    def test_missing_edge_detected(self):
        g = tri_pendant()
        # drop the piece containing the pendant edge
        rep = validate_ccd(g, CcdTree(((0, 1, 2), (0,)), ((0, 1),), ((0,),)))
        assert not rep.covers_edges

    def test_nonseparating_cut_detected(self):
        g = complete_graph(3)
        rep = validate_ccd(g, CcdTree(((0, 1), (0, 1, 2)), ((0, 1),), ((0, 1),)))
        assert not rep.cuts_are_proper_complete_cuts

    def test_one_separation_search_per_distinct_cut(self, monkeypatch):
        # every tree edge of a star's decomposition carries the centre
        k = 6
        g = Graph(["h", *"abcdef"], [("h", x) for x in "abcdef"])
        t = complete_cut_decomposition(g)
        assert len(t.pieces) == k and set(t.cuts) == {(0,)}
        calls = []
        original = kernels.is_connected_bits

        def counted(adj, mask):
            calls.append(mask)
            return original(adj, mask)

        monkeypatch.setattr(kernels, "is_connected_bits", counted)
        assert validate_ccd(g, t).passed
        assert calls == [g._full & ~1]

    def test_repeated_nonseparating_cut_faults_every_tree_edge(self):
        g = Graph("cxyz", [("c", "x"), ("c", "y"), ("c", "z"), ("x", "y"), ("y", "z")])
        t = CcdTree([(0, 1), (0, 2), (0, 3)], [(0, 1), (0, 2)], [(0,), (0,)])
        rep = validate_ccd(g, t)
        assert not rep.cuts_are_proper_complete_cuts
        assert rep.failures == (
            "edge (x, y) lies in no piece",
            "edge (y, z) lies in no piece",
            "cut ('c',) on tree edge (0, 1) does not separate the graph",
            "cut ('c',) on tree edge (0, 2) does not separate the graph",
        )

    def test_reports_never_raise_on_foreign_tree(self):
        for g, t in [
            (path_graph("ab"), CcdTree(((5, 6),))),
            (path_graph("abc"), CcdTree([(-1, 0, 1), (1, 2)], [(0, 1)], [(1,)])),
        ]:
            rep = validate_ccd(g, t)
            assert not rep.passed


class TestGraphOfGroups:
    def test_path(self):
        g = path_graph("abc")
        gog = graph_of_groups(g, complete_cut_decomposition(g))
        assert [p.generators for p in gog.vertex_groups] == [("a", "b"), ("b", "c")]
        assert gog.tree_edges == ((0, 1),)
        assert [p.generators for p in gog.edge_groups] == [("b",)]
        assert gog.edge_groups[0].relators == ()
        assert gog.inclusions == (((("b", "b"),), (("b", "b"),)),)

    def test_triangle_with_pendant(self):
        g = tri_pendant()
        gog = graph_of_groups(g, complete_cut_decomposition(g))
        assert sorted(p.generators for p in gog.vertex_groups) == [
            ("a", "b", "c"),
            ("a", "d"),
        ]
        assert [p.generators for p in gog.edge_groups] == [("a",)]

    def test_trivial_tree(self):
        g = complete_graph(2)
        gog = graph_of_groups(g, complete_cut_decomposition(g))
        assert len(gog.vertex_groups) == 1
        assert gog.tree_edges == () and gog.edge_groups == ()

    def test_rejects_invalid_tree(self):
        g = path_graph("abc")
        with pytest.raises(InvalidCcdError):
            graph_of_groups(g, CcdTree((range(3),)))


class TestRandomised:
    def test_random_connected_graphs_validate(self):
        rng = random.Random(990_17)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(1, 10))
            t = complete_cut_decomposition(g)
            rep = validate_ccd(g, t)
            assert rep.passed, (g.edges(), rep.failures)

            covered_vertices = set()
            covered_edges = set()
            for piece in t.pieces:
                covered_vertices |= set(piece)
                covered_edges |= {
                    (u, v)
                    for u, v in g.edges()
                    if u in piece and v in piece
                }
            assert covered_vertices == set(g.vertices())
            assert covered_edges == set(g.edges())

            for cut in t.cuts:
                assert g.is_clique(cut)
                assert separates_oracle(g, cut)

            trivial = len(t.pieces) == 1
            assert trivial == (not g.minimal_clique_separators())


def _differential_corpus():
    """All 772 connected labelled graphs with at most 5 vertices, then
    1,000 seeded connected graphs with 7 to 16 vertices."""
    for n in range(1, 6):
        yield from connected_graphs(n)
    rng = random.Random(7_2026)
    for _ in range(1000):
        yield random_connected_graph(rng, rng.randint(7, 16))


class TestOnePassDifferential:
    def test_matches_recursion_oracle(self):
        count = 0
        for g in _differential_corpus():
            assert complete_cut_decomposition(g) == ccd_recursion_oracle(g), g.edges()
            count += 1
        assert count == 772 + 1000

    def test_groups_match_induced_presentations(self):
        rng = random.Random(31)
        graphs = [g for n in range(1, 6) for g in connected_graphs(n)]
        graphs += [random_connected_graph(rng, rng.randint(7, 16)) for _ in range(200)]
        for g in graphs:
            t = complete_cut_decomposition(g)
            gog = graph_of_groups(g, t)
            assert gog.vertex_groups == tuple(
                raag_presentation(g.induced_subgraph(p)) for p in t.pieces
            )
            assert gog.edge_groups == tuple(
                raag_presentation(g.induced_subgraph(c)) for c in t.cuts
            )

    def test_one_mcs_m_run_per_decomposition(self, monkeypatch):
        calls = []
        original = Graph._mcs_m_madj

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Graph, "_mcs_m_madj", counted)
        g = path_graph([f"v{i}" for i in range(12)])
        t = complete_cut_decomposition(g)
        assert len(t.pieces) == 11
        assert calls == [g]


def clique_sum(rng: random.Random, n: int, max_clique: int, hubs: int | None = None) -> Graph:
    """Chordal graph on n vertices: each new vertex joins a random
    sub-clique of an earlier clique, so every piece of its
    decomposition is a clique of at most ``max_clique`` vertices.  With
    ``hubs``, only the first ``hubs`` cliques are joined, so their
    sub-cliques are cuts with many components."""
    cliques = [[0]]
    edges = set()
    for v in range(1, n):
        base = rng.choice(cliques if hubs is None else cliques[:hubs])
        attach = rng.sample(base, rng.randint(1, min(len(base), max_clique - 1)))
        edges.update((u, v) for u in attach)
        cliques.append(attach + [v])
    labels = [f"v{i}" for i in range(n)]
    return Graph(labels, [(labels[a], labels[b]) for a, b in sorted(edges)])


def _decompose_corpus():
    """Every connected labelled graph with at most 6 vertices, then
    3,000 seeded connected graphs with 7 to 30 vertices: dense, sparse
    tree-like and chordal clique-sums."""
    for n in range(1, 7):
        yield from connected_graphs(n)
    rng = random.Random(11_2026)
    for k in range(3000):
        n = rng.randint(7, 30)
        if k % 3 == 0:
            yield random_connected_graph(rng, n)
        elif k % 3 == 1:
            yield clique_sum(rng, n, rng.randint(2, 6))
        else:
            labels = [f"v{i}" for i in range(n)]
            edges = {(rng.randrange(i), i) for i in range(1, n)}
            edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n // 2))}
            yield Graph(labels, [(labels[a], labels[b]) for a, b in sorted(edges)])


def _candidate_corpus():
    """Every graph with at most 6 vertices, the corpora of the MCS-M
    differential tests, and the 3,000 larger graphs of
    ``_decompose_corpus`` (its small graphs are among the first)."""
    for n in range(7):
        yield from all_graphs(n)
    for name in ("random", "cycles", "clique-sums"):
        yield from _mcs_m_corpus(name)
    yield from itertools.islice(_decompose_corpus(), 1 + 1 + 4 + 38 + 728 + 26704, None)


class TestGeneratorCandidates:
    """Candidates read off the MCS-M+ generators against the filter they
    replaced, which kept every madj set that is a non-empty separating
    clique (``clique_separator_candidates_oracle``)."""

    def test_subset_with_the_same_minimal_sets_and_the_same_trees(self):
        def minimal(masks):
            return {s for s in masks if not any(t != s and t & ~s == 0 for t in masks)}

        count = shrunk = 0
        for g in _candidate_corpus():
            got = g._clique_separator_candidates()
            want = clique_separator_candidates_oracle(g)
            # a subset, in the oracle's order
            assert got == [s for s in want if s in set(got)], g.edges()
            for s in got:
                assert full_components_oracle(g, _mask_to_set(s)) >= 2, (g.edges(), s)
            # a disconnected graph is separated by any set, and its only
            # minimal clique separator is the empty set
            if g.n and g.is_connected():
                assert minimal(got) == minimal(want), g.edges()
                whole = (1 << g.n) - 1
                assert _decompose(g, got, whole) == decompose_oracle(g, want, whole), g.edges()
            count += 1
            shrunk += len(got) < len(want)
        assert count == 33_868 + 2000 + 13 + 60 + 3000
        # the swap does drop candidates: not every separating clique madj
        # set is a minimal separator of the triangulation
        assert shrunk > 0


def _broom(path_first: bool) -> Graph:
    """A 50-vertex path whose last vertex is the centre of 50 leaves;
    the path's vertices come first, or the centre and its leaves."""
    path = [f"p{i}" for i in range(50)]
    leaves = [f"l{i}" for i in range(50)]
    labels = path + leaves if path_first else [path[-1]] + leaves + path[:-1]
    edges = list(zip(path, path[1:])) + [(path[-1], x) for x in leaves]
    return Graph(labels, edges)


def _wide_cut_corpus():
    """Graphs whose cuts have tens to hundreds of components: K_{1,300},
    two brooms and 20 seeded clique-sums with 200 to 400 vertices that
    join only a few early cliques."""
    yield Graph(["c"] + [f"x{i}" for i in range(300)], [("c", f"x{i}") for i in range(300)])
    yield _broom(True)
    yield _broom(False)
    rng = random.Random(27_2026)
    for _ in range(20):
        yield clique_sum(rng, rng.randint(200, 400), rng.randint(2, 5), rng.randint(8, 20))


class TestCandidateHandDown:
    """``_decompose`` cuts a piece into every component of its cut at
    once and hands each child only its own candidates; the walk it
    replaced, which splits in two and rescans all of g's candidates for
    every piece, is kept in conftest as ``decompose_oracle``."""

    def test_matches_full_rescan(self):
        count = 0
        for g in _decompose_corpus():
            cands = g._clique_separator_candidates()
            whole = (1 << g.n) - 1
            assert _decompose(g, cands, whole) == decompose_oracle(g, cands, whole), g.edges()
            count += 1
        assert count == 1 + 1 + 4 + 38 + 728 + 26704 + 3000

    def test_wide_cuts_match_both_oracles(self):
        for k, g in enumerate(_wide_cut_corpus()):
            cands = g._clique_separator_candidates()
            whole = (1 << g.n) - 1
            got = _decompose(g, cands, whole)
            assert got == decompose_oracle(g, cands, whole), g.edges()
            # the recursion oracle builds a subgraph per piece, so it
            # runs on the brooms and the first clique-sums only
            if 1 <= k <= 6:
                assert complete_cut_decomposition(g) == ccd_recursion_oracle(g), g.edges()
            # some cut has at least 30 children, chained by 29 edges
            assert max(collections.Counter(got[2]).values()) >= 29, g.edges()

    def test_connectivity_checks_per_piece_stay_bounded(self, monkeypatch):
        # the full rescan made about 7-8 checks per piece on these graphs,
        # the hand-down about 2.6, candidate filtering included; now a
        # piece is cut into every component of its cut at once, so each
        # candidate gets at most one component pass
        calls, comp_calls = [], []
        original = kernels.is_connected_bits
        original_components = kernels.components_bits

        def counted(adj, mask):
            calls.append(mask)
            return original(adj, mask)

        def counted_components(adj, mask):
            # the candidate _decompose is testing, read off its frame
            comp_calls.append(sys._getframe(1).f_locals["cut"])
            return original_components(adj, mask)

        monkeypatch.setattr(kernels, "is_connected_bits", counted)
        monkeypatch.setattr(kernels, "components_bits", counted_components)
        rng = random.Random(512)
        for _ in range(3):
            g = clique_sum(rng, 512, 5)
            calls.clear()
            comp_calls.clear()
            t = complete_cut_decomposition(g)
            assert len(t.pieces) > 300
            assert len(calls) <= 4 * len(t.pieces), (len(calls), len(t.pieces))
            assert len(calls) + len(comp_calls) <= 4 * len(t.pieces), (
                len(calls), len(comp_calls), len(t.pieces)
            )
            # at most one component pass per distinct cut
            assert len(set(comp_calls)) == len(comp_calls)
            assert set(comp_calls) <= set(g._clique_separator_candidates())
            assert {_mask_to_set(c) for c in comp_calls} >= set(t.cuts)
