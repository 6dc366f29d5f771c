"""Decision procedure and witnesses, cross-checked against the
brute-force oracle."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import all_graphs, random_graph
from raagsplit.errors import (
    InternalInvariantError,
    InvalidRankError,
    NotACliqueError,
)
from raagsplit.graphs import Graph, complete_graph, cycle_graph, path_graph
from raagsplit.splitting import (
    DIRECT_AMALGAM,
    HNN_COMPLETE,
    STAR_SPLIT,
    SplittingWitness,
    brute_force_splits,
    extend_clique_to_rank,
    splits_over_rank,
    splitting_spectrum,
)


class TestExtendClique:
    def test_path_center(self):
        g = path_graph("abc")
        assert extend_clique_to_rank(g, (1,), 2) == (0, 1)

    def test_k4_full(self):
        g = complete_graph(4)
        assert extend_clique_to_rank(g, (0,), 4) == (0, 1, 2, 3)

    def test_c4_link_too_small(self):
        g = cycle_graph(4)
        assert extend_clique_to_rank(g, (0,), 3) is None

    def test_same_size_returns_input(self):
        g = path_graph("abc")
        assert extend_clique_to_rank(g, (0, 1), 2) == (0, 1)

    def test_not_a_clique(self):
        with pytest.raises(NotACliqueError):
            extend_clique_to_rank(path_graph("abc"), (0, 2), 2)

    def test_rank_below_size(self):
        with pytest.raises(InvalidRankError):
            extend_clique_to_rank(path_graph("abc"), (0, 1), 1)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None, -1])
    def test_rank_must_be_a_non_negative_int(self, n):
        with pytest.raises(InvalidRankError):
            extend_clique_to_rank(path_graph("abcd"), (1,), n)

    def test_lexicographically_first_extension(self):
        # two extensions of {v2}: {v0,v2} and {v2,v3}; lex order picks v0
        g = Graph("abcd", [("a", "c"), ("c", "d")])
        assert extend_clique_to_rank(g, (2,), 2) == (0, 2)


class TestSplitsOverRank:
    def test_path_rank_two_star_split(self):
        g = path_graph("abc")
        w = splits_over_rank(g, 2)
        assert w is not None
        assert w.kind == STAR_SPLIT
        assert w.clique == (0, 1)
        assert w.separator == (1,)
        assert w.star_vertex == 0
        w.validate(g)

    def test_path_rank_one_direct(self):
        g = path_graph("abc")
        w = splits_over_rank(g, 1)
        assert w.kind == DIRECT_AMALGAM
        assert w.clique == (1,) and w.separator == (1,)
        assert w.sides == ((0, 1), (1, 2))
        w.validate(g)

    def test_complete_hnn(self):
        for m in range(1, 6):
            w = splits_over_rank(complete_graph(m), m - 1)
            assert w is not None and w.kind == HNN_COMPLETE
            assert w.clique == tuple(range(m))
            w.validate(complete_graph(m))

    def test_c4_rank_one_none(self):
        assert splits_over_rank(cycle_graph(4), 1) is None

    def test_single_vertex_rank_zero(self):
        w = splits_over_rank(complete_graph(1), 0)
        assert w is not None and w.kind == HNN_COMPLETE

    def test_negative_rank(self):
        with pytest.raises(InvalidRankError):
            splits_over_rank(path_graph("abc"), -1)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, False, "2", None])
    def test_rank_must_be_an_int(self, n):
        # a bool or float rank must not run as the int it equals
        with pytest.raises(InvalidRankError):
            splits_over_rank(path_graph("abcd"), n)

    def test_relabeling_equivariance(self):
        rng = random.Random(404)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Graph(
                [g.labels[perm[i]] for i in range(g.n)],
                [(g.labels[perm[i]], g.labels[perm[j]])
                 for i in range(g.n) for j in range(i + 1, g.n)
                 if g.adjacent(perm[i], perm[j])],
            )
            for n in range(g.n + 1):
                assert (splits_over_rank(g, n) is not None) == (
                    splits_over_rank(relabeled, n) is not None
                )


class TestSpectrum:
    def test_path(self):
        assert splitting_spectrum(path_graph("abc")) == {1, 2}

    def test_k3(self):
        assert splitting_spectrum(complete_graph(3)) == {2}

    def test_complete_family(self):
        for m in range(1, 8):
            assert splitting_spectrum(complete_graph(m)) == {m - 1}

    def test_two_isolated_vertices(self):
        assert splitting_spectrum(Graph("ab")) == {0, 1}

    def test_squares_empty(self):
        assert splitting_spectrum(cycle_graph(4)) == set()
        assert splitting_spectrum(cycle_graph(5)) == set()

    def test_triangle_with_pendant(self):
        g = Graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])
        assert splitting_spectrum(g) == {1, 2, 3}

    def test_empty_graph(self):
        assert splitting_spectrum(Graph(())) == set()

    def test_bounded_by_clique_number_rule(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 8))
            bound = max(g.clique_number(), g.n - 1, 0)
            assert all(0 <= n <= bound for n in splitting_spectrum(g))

    @staticmethod
    def per_rank_spectrum(g):
        """The spectrum as first computed: one witness search per rank
        up to max(clique number, |V| - 1)."""
        bound = max(g.clique_number(), g.n - 1)
        return {n for n in range(bound + 1) if splits_over_rank(g, n) is not None}

    def test_one_pass_matches_per_rank_small(self):
        for n_verts in range(6):
            for g in all_graphs(n_verts):
                assert splitting_spectrum(g) == self.per_rank_spectrum(g), g.edges()

    def test_one_pass_matches_per_rank_random(self):
        rng = random.Random(1985)
        for _ in range(2000):
            g = random_graph(rng, rng.randint(6, 10))
            assert splitting_spectrum(g) == self.per_rank_spectrum(g), g.edges()

    def test_nonempty_iff_complete_or_cut(self):
        for g in all_graphs(5):
            nonempty = bool(splitting_spectrum(g))
            assert nonempty == (
                g.is_complete() or bool(g.minimal_clique_separators())
            ), g.edges()


class TestBeyondTheRecursionLimit:
    # a clique search that recursed once per clique vertex raised
    # RecursionError on these
    def test_clique_number_of_k1100(self):
        assert complete_graph(1100).clique_number() == 1100

    def test_witness_of_rank_1050(self):
        labels = [f"v{i}" for i in range(1100)]
        h = Graph(labels + ["p"], [*itertools.combinations(labels, 2), ("v0", "p")])
        w = splits_over_rank(h, 1050)
        assert w is not None and w.separator == (0,)
        w.validate(h)


class TestOracle:
    def test_path_true(self):
        assert brute_force_splits(path_graph("abc"), 2)

    def test_c5_false_everywhere(self):
        g = cycle_graph(5)
        assert not any(brute_force_splits(g, n) for n in range(6))

    def test_disconnected_pair_plus_vertex(self):
        g = Graph("abc", [("a", "b")])
        assert brute_force_splits(g, 1)  # S empty, K a single vertex

    @pytest.mark.parametrize("n", [1.5, 2.0, True, "2", None, -1])
    def test_rank_must_be_a_non_negative_int(self, n):
        with pytest.raises(InvalidRankError):
            brute_force_splits(path_graph("abcd"), n)

    def test_exhaustive_equivalence_small(self):
        for n_verts in range(6):
            for g in all_graphs(n_verts):
                for n in range(n_verts + 1):
                    assert (splits_over_rank(g, n) is not None) == brute_force_splits(
                        g, n
                    ), (g.edges(), n)

    def test_random_equivalence_medium(self):
        rng = random.Random(560)
        for _ in range(120):
            g = random_graph(rng, rng.randint(6, 9))
            for n in range(g.n + 1):
                assert (splits_over_rank(g, n) is not None) == brute_force_splits(
                    g, n
                ), (g.edges(), n)


class TestWitnessSoundness:
    def test_all_witnesses_validate(self):
        rng = random.Random(8807)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8))
            for n in range(g.n + 1):
                w = splits_over_rank(g, n)
                if w is not None:
                    w.validate(g)

    def test_validate_rejects_wrong_clique(self):
        g = path_graph("abc")
        bad = SplittingWitness(kind=STAR_SPLIT, rank=2, clique=(0, 2),
                               separator=(1,), star_vertex=0)
        with pytest.raises(InternalInvariantError):
            bad.validate(g)

    def test_validate_rejects_nonseparating_separator(self):
        g = path_graph("abc")
        bad = SplittingWitness(kind=DIRECT_AMALGAM, rank=1, clique=(0,),
                               separator=(0,), sides=((0, 1), (0, 2)))
        with pytest.raises(InternalInvariantError):
            bad.validate(g)
