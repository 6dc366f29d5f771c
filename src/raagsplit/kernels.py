"""Bitmask graph kernels.

Graphs are adjacency masks: adj[i] is an int whose set bits are the
neighbors of vertex i.  Vertex subsets are masks over the same bits.
Python ints are unbounded, so every kernel accepts any vertex count.

There is one clique search, :func:`first_clique_of_size_bits`: a branch
and bound that answers both "the first clique of size k" and "a largest
clique"; :func:`max_clique_size_bits` only reads off the size of the
largest one.  It bounds each node by a greedy colouring of its
candidates, as MCQ does (Tomita and Seki, "An efficient
branch-and-bound algorithm for finding a maximum clique", DMTCS 2003,
LNCS 2731), on bitsets, as BBMC does (San Segundo, Rodriguez-Losada
and Jimenez, "An exact bit-parallel algorithm for the maximum clique
problem", Computers & Operations Research 38(2), 2011).  Unlike both,
it branches in ascending vertex order, so the clique it finds first is
the lexicographically first one, and it keeps its nodes on an explicit
stack.
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


def _class_heads(adj, cand):
    """Highest vertex of each greedy colour class of ``cand``.

    Each class is taken greedily from the highest uncoloured vertex
    down, so the heads descend: the largest colour among the vertices of
    ``cand`` at or above v is the number of heads at or above v.
    """
    heads = []
    while cand:
        heads.append(cand.bit_length() - 1)
        free = cand
        while free:
            top = free.bit_length() - 1
            bit = 1 << top
            cand ^= bit
            free &= ~(adj[top] | bit)
    return heads


def first_clique_of_size_bits(adj, candidates, size=None):
    """Lexicographically first clique of exactly ``size`` vertices inside
    ``candidates``, as a mask; None if there is none.  With ``size=None``,
    the lexicographically first clique of maximum size, as a mask (0 when
    ``candidates`` is empty).

    Lexicographic order is on the ascending vertex index sequence.  The
    search branches on vertices in ascending order, so among cliques of
    one size the first found is the answer.  The target is ``size``, or
    one more than the best clique found so far.  Each node colours its
    candidates once (:func:`_class_heads`); a clique through a vertex v
    holds at most one vertex per colour class that has a member at or
    above v, and that bound only falls as v rises, so the node stops at
    the first vertex whose bound cannot reach the target.  The bound
    cuts only branches that cannot reach the target, so it never changes
    which clique is found first.  Nodes sit on an explicit stack, so a
    clique of any size is found without recursion.
    """
    if size == 0:
        return 0
    if size is None:
        best, found = 0, 0
    else:
        best, found = size - 1, None
    # a frame: chosen clique, its size, the candidates above the last
    # vertex branched on, and the heads of the candidates' colour classes
    stack = [[0, 0, candidates, _class_heads(adj, candidates)]]
    while stack:
        frame = stack[-1]
        chosen, depth, rest, heads = frame
        need = best + 1 - depth
        low = rest & -rest
        if not low or need > len(heads) or low > 1 << heads[need - 1]:
            stack.pop()
            continue
        frame[2] = rest ^ low
        chosen |= low
        depth += 1
        if depth > best:
            if size is not None:
                return chosen
            best, found = depth, chosen
        sub = rest & adj[low.bit_length() - 1]
        if sub.bit_count() > best - depth:
            stack.append([chosen, depth, sub, _class_heads(adj, sub)])
    return found


def max_clique_size_bits(adj, candidates):
    """Size of a largest clique inside ``candidates``; 0 when empty.
    :func:`first_clique_of_size_bits` in maximum mode."""
    return first_clique_of_size_bits(adj, candidates).bit_count()
