"""Shared helpers: small-graph enumerators and independent oracles.

The oracles here deliberately avoid the library's own algorithms so
they can catch systematic mistakes: separator checks run on plain
adjacency sets, lattice distances come from multi-source BFS.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from raagsplit.graphs import Graph


def mask_graph(n: int, mask: int, prefix: str = "v") -> Graph:
    """Graph on n labeled vertices from an edge bitmask over the
    C(n, 2) index pairs in lexicographic order."""
    labels = [f"{prefix}{i}" for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    edges = [
        (labels[i], labels[j]) for k, (i, j) in enumerate(pairs) if mask >> k & 1
    ]
    return Graph(labels, edges)


def all_graphs(n: int):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield mask_graph(n, mask)


def connected_graphs(n: int):
    return (g for g in all_graphs(n) if g.is_connected())


def random_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    if p is None:
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
    labels = [f"v{i}" for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(labels, edges)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    while True:
        g = random_graph(rng, n)
        if g.is_connected():
            return g


def adjacency_sets(g: Graph) -> list[set[int]]:
    adj = [set() for _ in range(g.n)]
    for i, j in g.edges():
        adj[i].add(j)
        adj[j].add(i)
    return adj


def separates_oracle(g: Graph, cut) -> bool:
    """Reference separation check with set-based BFS."""
    adj = adjacency_sets(g)
    cut = set(cut)
    rest = [v for v in range(g.n) if v not in cut]
    if not rest:
        return False
    seen = {rest[0]}
    queue = deque([rest[0]])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in cut and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) < len(rest)


def minimal_clique_separators_oracle(g: Graph):
    """Exhaustive reference: clique subsets that separate, keeping the
    inclusion-minimal ones."""
    if g.n and not g.is_connected():
        return [()]
    seps = []
    verts = range(g.n)
    for size in range(g.n):
        for cand in itertools.combinations(verts, size):
            if not g.is_clique(cand):
                continue
            if not separates_oracle(g, cand):
                continue
            if any(set(s) <= set(cand) for s in seps):
                continue
            seps.append(cand)
    return sorted(seps)



def _component_mask(adj, live: int, start: int) -> int:
    comp = frontier = start
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow |= adj[low.bit_length() - 1]
        frontier = grow & live & ~comp
        comp |= frontier
    return comp


def _neighborhood_mask(adj, comp: int, live: int) -> int:
    grow = 0
    rest = comp
    while rest:
        low = rest & -rest
        rest ^= low
        grow |= adj[low.bit_length() - 1]
    return grow & live & ~comp


def _minimal_separators_masks(adj, full: int) -> set[int]:
    """All minimal a,b-separators over every non-adjacent pair a,b, as
    masks.

    Per pair: start from the neighborhood of b's component beyond the
    closed neighborhood of a, then saturate by pushing past each
    separator vertex (neighborhood-of-component generation).
    """
    found: set[int] = set()
    verts = [v for v in range(len(adj)) if full >> v & 1]
    for ai, a in enumerate(verts):
        for b in verts[ai + 1:]:
            if adj[a] >> b & 1:
                continue
            closed_a = (adj[a] & full) | (1 << a)
            comp_b = _component_mask(adj, full & ~closed_a, 1 << b)
            first = _neighborhood_mask(adj, comp_b, full)
            if not first:
                continue  # a and b already in different components
            queue = [first]
            seen = {first}
            while queue:
                s = queue.pop()
                found.add(s)
                rest = s
                while rest:
                    low = rest & -rest
                    rest ^= low
                    x = low.bit_length() - 1
                    sub2 = full & ~(s | (adj[x] & full) | low)
                    if not sub2 >> b & 1:
                        continue
                    comp2 = _component_mask(adj, sub2, 1 << b)
                    s2 = _neighborhood_mask(adj, comp2, full)
                    if s2 not in seen:
                        seen.add(s2)
                        queue.append(s2)
    return found


def minimal_separators_enumeration_oracle(g: Graph):
    """The enumeration ``Graph.minimal_clique_separators`` used before
    MCS-M: every minimal separator of every non-adjacent pair, keeping
    the inclusion-minimal cliques.  Exponential in the worst case."""
    if not g.is_connected():
        return [()]
    adj = g.adjacency_masks
    full = (1 << g.n) - 1
    cands = {
        s
        for s in _minimal_separators_masks(adj, full)
        if all(s & ~(1 << v) & ~adj[v] == 0 for v in range(g.n) if s >> v & 1)
    }
    out = [
        tuple(v for v in range(g.n) if s >> v & 1)
        for s in cands
        if not any(t != s and t & ~s == 0 for t in cands)
    ]
    return sorted(out)

# lattice reference: multi-source BFS inside the box is exact for the
# ℓ¹ metric because coordinate-monotone paths never leave the box

def box_points(n: int, radius: int):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def bfs_distances(n: int, radius: int, sources) -> dict:
    dist = {p: 0 for p in sources}
    queue = deque(dist)
    while queue:
        p = queue.popleft()
        for axis in range(n):
            for step in (-1, 1):
                q = list(p)
                q[axis] += step
                q = tuple(q)
                if abs(q[axis]) <= radius and q not in dist:
                    dist[q] = dist[p] + 1
                    queue.append(q)
    return dist


def grid_components(points: set):
    comps = []
    left = set(points)
    while left:
        start = left.pop()
        comp = {start}
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for axis in range(len(p)):
                for step in (-1, 1):
                    q = list(p)
                    q[axis] += step
                    q = tuple(q)
                    if q in left:
                        left.remove(q)
                        comp.add(q)
                        queue.append(q)
        comps.append(comp)
    return comps


@pytest.fixture
def rng():
    return random.Random(0xA4A6)
