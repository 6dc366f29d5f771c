"""Edge cases of the bitmask kernels: empty inputs, and graphs too wide
for a machine word."""

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


def test_empty_inputs():
    assert kernels.components_bits([], 0) == []
    assert kernels.is_connected_bits([], 0)
    assert kernels.first_clique_of_size_bits([0, 0], 0b11, 0) == 0
    assert kernels.first_clique_of_size_bits([0, 0], 0b11, 2) is None
