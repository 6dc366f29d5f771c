"""Bitmask graph kernels.

Graphs are adjacency masks: adj[i] is an int whose set bits are the
neighbors of vertex i.  Vertex subsets are masks over the same bits.
Python ints are unbounded, so every kernel accepts any vertex count.
"""


def component_bits(adj, mask, start_bit):
    """Mask of the component of ``start_bit`` inside ``mask``."""
    comp = start_bit
    frontier = start_bit
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow |= adj[low.bit_length() - 1]
        frontier = grow & mask & ~comp
        comp |= frontier
    return comp


def components_bits(adj, mask):
    """Component masks of the subgraph induced on ``mask``, ascending by
    lowest vertex."""
    out = []
    rest = mask
    while rest:
        comp = component_bits(adj, mask, rest & -rest)
        out.append(comp)
        rest &= ~comp
    return out


def is_connected_bits(adj, mask):
    # 0 or 1 vertices count as connected
    if mask & (mask - 1) == 0:
        return True
    return component_bits(adj, mask, mask & -mask) == mask


def max_clique_size_bits(adj, mask):
    best = 0
    if not mask:
        return 0

    def expand(size, p, x):
        nonlocal best
        if not p and not x:
            if size > best:
                best = size
            return
        if size + p.bit_count() <= best:
            return
        best_v, best_cover = -1, -1
        px = p | x
        while px:
            low = px & -px
            px ^= low
            v = low.bit_length() - 1
            cover = (adj[v] & p).bit_count()
            if cover > best_cover:
                best_v, best_cover = v, cover
        cand = p & ~adj[best_v]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            expand(size + 1, p & adj[v], x & adj[v])
            p &= ~low
            x |= low

    expand(0, mask, 0)
    return best


def first_clique_of_size_bits(adj, candidates, size):
    """Lexicographically first clique of exactly ``size`` vertices inside
    ``candidates``, as a mask; None if there is none.

    Lexicographic order is on the ascending vertex index sequence, so the
    first branch that completes is the answer.
    """
    if size == 0:
        return 0
    if candidates.bit_count() < size:
        return None

    def dfs(chosen, cand, need):
        if need == 0:
            return chosen
        while cand:
            low = cand & -cand
            cand ^= low
            if cand.bit_count() + 1 < need:
                return None
            v = low.bit_length() - 1
            narrowed = cand & adj[v]
            if need == 1 or narrowed.bit_count() >= need - 1:
                got = dfs(chosen | low, narrowed, need - 1)
                if got is not None:
                    return got
        return None

    return dfs(0, candidates, size)
