"""Complete-cut decompositions: construction, validation, and the
graph-of-groups read-off."""

from __future__ import annotations

import random

import pytest

from conftest import (
    ccd_recursion_oracle,
    connected_graphs,
    random_connected_graph,
    separates_oracle,
)
from raagsplit.ccd import (
    CcdTree,
    complete_cut_decomposition,
    graph_of_groups,
    validate_ccd,
)
from raagsplit.errors import DisconnectedGraphError, InvalidCcdError
from raagsplit.graphs import Graph, complete_graph, cycle_graph, path_graph
from raagsplit.presentations import raag_presentation


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

    def test_empty_graph_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            complete_cut_decomposition(Graph(()))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            complete_cut_decomposition(Graph("ab"))

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
