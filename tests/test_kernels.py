"""The bitmask kernels: edge cases (empty inputs, graphs too wide for a
machine word), and the one clique search, with the size accessor over
it, against the two kernels it replaced, kept in conftest as oracles."""

import itertools
import random

from conftest import all_graphs, first_clique_oracle, max_clique_size_oracle
from raagsplit import kernels


def test_graphs_over_64_vertices():
    # masks are unbounded ints, so a 70-vertex path needs no special case
    n = 70
    adj = [0] * n
    for i in range(n - 1):
        adj[i] |= 1 << (i + 1)
        adj[i + 1] |= 1 << i
    full = (1 << n) - 1
    assert kernels.is_connected_bits(adj, full)
    comps = kernels.components_bits(adj, full)
    assert comps == [full]
    assert kernels.max_clique_size_bits(adj, full) == 2
    assert kernels.first_clique_of_size_bits(adj, full) == 0b11


def test_empty_inputs():
    assert kernels.components_bits([], 0) == []
    assert kernels.is_connected_bits([], 0)
    assert kernels.first_clique_of_size_bits([0, 0], 0b11, 0) == 0
    assert kernels.first_clique_of_size_bits([0, 0], 0b11, 2) is None
    assert kernels.first_clique_of_size_bits([0b10, 0b01], 0b11, 3) is None
    assert kernels.first_clique_of_size_bits([0, 0], 0) == 0
    assert kernels.max_clique_size_bits([0, 0], 0) == 0


def _agrees_with_oracles(adj, cand):
    """The maximum and the first clique of every size from 0 to one past
    the maximum match the replaced kernels, and maximum mode returns the
    first clique of the maximum size; returns the maximum mask."""
    largest = kernels.first_clique_of_size_bits(adj, cand)
    omega = max_clique_size_oracle(adj, cand)
    assert largest == first_clique_oracle(adj, cand, omega), (adj, cand)
    assert kernels.max_clique_size_bits(adj, cand) == omega, (adj, cand)
    for k in range(omega + 2):
        assert kernels.first_clique_of_size_bits(adj, cand, k) == first_clique_oracle(
            adj, cand, k
        ), (adj, cand, k)
    return largest


def test_every_small_graph_matches_the_replaced_kernels():
    # every graph with at most 5 vertices, every size up to n + 1; the
    # maximum is the lexicographically first largest clique
    for n in range(6):
        for g in all_graphs(n):
            adj = g.adjacency_masks
            full = (1 << n) - 1
            largest = _agrees_with_oracles(adj, full)
            for k in range(largest.bit_count() + 2, n + 2):
                assert kernels.first_clique_of_size_bits(adj, full, k) is None
            first = next(
                c
                for c in itertools.combinations(range(n), largest.bit_count())
                if g.is_clique(c)
            )
            assert largest == sum(1 << v for v in first)


def test_seeded_graphs_match_the_replaced_kernels():
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(6, 40)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            adj = [0] * n
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            cand = (1 << n) - 1 if rng.random() < 0.5 else rng.getrandbits(n)
            _agrees_with_oracles(adj, cand)
