"""Shared helpers: small-graph enumerators and independent oracles.

The oracles here deliberately avoid the library's own algorithms so
they can catch systematic mistakes: separator checks run on plain
adjacency sets, lattice distances come from multi-source BFS.
``minimal_separators_enumeration_oracle``, ``ccd_recursion_oracle``,
``verify_star_split_oracle``, ``subgroup_points_oracle`` and
``deep_witnesses_oracle`` are instead the code that a rewrite replaced,
kept to test the new code differentially.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import numpy as np
import pytest
from scipy import ndimage

from raagsplit.ccd import CcdTree
from raagsplit.errors import InvalidAmalgamError
from raagsplit.graphs import Graph
from raagsplit.lattice import LatticeScenario, SubgroupSpec, _echelon_basis, _subset_mask
from raagsplit.presentations import (
    SUFFIX_AMBIENT,
    SUFFIX_STAR,
    Amalgam,
    Presentation,
    commutator,
    free_reduce,
    inverse_word,
    raag_presentation,
    syllables,
)

# a graph file nested deeper than json.loads can recurse
DEEP_JSON = b'{"vertices": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"


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


def ccd_recursion_oracle(g: Graph) -> CcdTree:
    """The recursion ``complete_cut_decomposition`` ran before it read
    every cut off the ambient graph's one MCS-M run: build each piece as
    an induced subgraph, run ``minimal_clique_separators`` on it, cut
    along the smallest, and translate local indices back."""

    def decompose(piece):
        sub = g.induced_subgraph(piece)
        seps = sub.minimal_clique_separators()
        if not seps:
            return [piece], [], []
        cut_rel = min(seps, key=lambda s: (len(s), s))
        cut = tuple(piece[i] for i in cut_rel)
        comps = sub.induced_complement_components(cut_rel)
        half1 = sorted(set(cut_rel) | set(comps[0]))
        half2 = sorted(set(cut_rel).union(*comps[1:]))
        pieces, edges, cuts = decompose(tuple(piece[i] for i in half1))
        offset = len(pieces)
        rp, re, rc = decompose(tuple(piece[i] for i in half2))
        pieces += rp
        edges += [(r + offset, s + offset) for r, s in re]
        cuts += rc
        attach = [
            next(i for i in range(lo, hi) if set(cut) < set(pieces[i]))
            for lo, hi in ((0, offset), (offset, len(pieces)))
        ]
        edges.append((attach[0], attach[1]))
        cuts.append(cut)
        return pieces, edges, cuts

    pieces, edges, cuts = decompose(g.vertices())
    return CcdTree(tuple(pieces), tuple(edges), tuple(cuts))


# star-split reference: the replay ``verify_star_split`` ran before
# presentations were built one way, with its own two commutator
# recognisers and its own order-and-swap normalisation


def _commutator_pair(word):
    """The (x, y) of a plain commutator-shaped word, else None."""
    if len(word) != 4:
        return None
    (g0, e0), (g1, e1), (g2, e2), (g3, e3) = word
    if g0 == g2 and g1 == g3 and g0 != g1 and e0 == -e2 and e1 == -e3:
        return (g0, g1)
    return None


def _power_commutator_pair(word):
    """The (x, y) of a word of shape x^p y^q x^-p y^-q, else None."""
    syl = syllables(word)
    if len(syl) != 4:
        return None
    (g0, p0), (g1, p1), (g2, p2), (g3, p3) = syl
    if g0 == g2 and g1 == g3 and g0 != g1 and p0 == -p2 and p1 == -p3:
        return (g0, g1)
    return None


def _substitute(word, table):
    out = []
    for gen, exp in word:
        if gen in table:
            out.extend(table[gen] if exp == 1 else inverse_word(table[gen]))
        else:
            out.append((gen, exp))
    return free_reduce(out)


def _check_amalgam(a: Amalgam) -> None:
    for p in (a.factor1, a.factor2):
        if not isinstance(p, Presentation):
            raise InvalidAmalgamError("factors must be presentations")
    if len(set(a.edge_generators)) != len(a.edge_generators):
        raise InvalidAmalgamError("edge generators must be distinct")
    for name, embed, factor in (
        ("embed1", a.embed1, a.factor1),
        ("embed2", a.embed2, a.factor2),
    ):
        if set(embed) != set(a.edge_generators):
            raise InvalidAmalgamError(f"{name} must be defined exactly on the edge generators")
        scope = set(factor.generators)
        for e, w in embed.items():
            for gen, exp in w:
                if gen not in scope:
                    raise InvalidAmalgamError(
                        f"{name}[{e!r}] uses {gen!r}, not a generator of its factor"
                    )
                if exp not in (1, -1):
                    raise InvalidAmalgamError("embed word exponents must be +1 or -1")


def verify_star_split_oracle(g: Graph, a: Amalgam) -> bool:
    """Reference star-split replay: eliminate the factor-2 copies of
    star generators, drop commutators of powers whose base commutator
    is present, relabel, and compare with ``raag_presentation(g)``."""
    _check_amalgam(a)
    f1gens = a.factor1.generators
    f2gens = a.factor2.generators
    if set(f1gens) & set(f2gens):
        raise InvalidAmalgamError("factor generator names overlap")

    squares = 0
    for e in a.edge_generators:
        w = free_reduce(a.embed1[e])
        if len(w) == 2 and w[0] == w[1] and w[0][1] == 1:
            squares += 1
        elif not (len(w) == 1 and w[0][1] == 1):
            return False
    if squares != 1:
        return False

    targets = {}
    for e in a.edge_generators:
        w = free_reduce(a.embed2[e])
        if len(w) != 1 or w[0][1] != 1:
            return False
        targets[e] = w[0][0]
    if len(set(targets.values())) != len(targets):
        return False

    table = {targets[e]: free_reduce(a.embed1[e]) for e in a.edge_generators}
    combined = list(a.factor1.relators) + [_substitute(w, table) for w in a.factor2.relators]
    survivors = list(f1gens) + [x for x in f2gens if x not in table]

    relabel = {}
    for x in survivors:
        suffix = SUFFIX_STAR if x in set(f1gens) else SUFFIX_AMBIENT
        if not x.endswith(suffix):
            return False
        relabel[x] = x[: -len(suffix)]
    if len(set(relabel.values())) != len(relabel):
        return False

    target = raag_presentation(g)
    if sorted(relabel.values()) != sorted(target.generators):
        return False
    order = {x: i for i, x in enumerate(target.generators)}

    kept = set()
    powers = []
    for w in combined:
        w = free_reduce(tuple((relabel[x], e) for x, e in w))
        if not w:
            continue
        pair = _commutator_pair(w)
        if pair is not None:
            x, y = pair
            if order[x] > order[y]:
                x, y = y, x
            kept.add(commutator(x, y))
            continue
        pair = _power_commutator_pair(w)
        if pair is None:
            return False
        powers.append(pair)

    for x, y in powers:
        if order[x] > order[y]:
            x, y = y, x
        if commutator(x, y) not in kept:
            return False

    return kept == set(target.relators)


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


def subgroup_points_oracle(spec: SubgroupSpec, n: int, radius: int) -> list:
    """All subgroup elements inside [-R, R]ⁿ, the way ``_subgroup_points``
    found them before its whole-array rewrite: a recursive walk over the
    coefficients of the echelon basis, each pinned to the interval that
    keeps its pivot coordinate inside the box."""
    basis = _echelon_basis(spec.generators)
    points = []
    partial = [0] * n

    def walk(level: int, fixed_below: int) -> None:
        if level == len(basis):
            if all(-radius <= x <= radius for x in partial):
                points.append(tuple(partial))
            return
        vec = basis[level]
        pivot_col = next(i for i, x in enumerate(vec) if x)
        # columns before this pivot are final from here on
        if any(not -radius <= partial[i] <= radius for i in range(fixed_below, pivot_col)):
            return
        step = vec[pivot_col]
        # step > 0: ceil((-R - p)/step) and floor((R - p)/step)
        lo = -((radius + partial[pivot_col]) // step)
        hi = (radius - partial[pivot_col]) // step
        for c in range(lo, hi + 1):
            for i in range(pivot_col, n):
                partial[i] += c * vec[i]
            walk(level + 1, pivot_col)
            for i in range(pivot_col, n):
                partial[i] -= c * vec[i]

    walk(0, 0)
    return points


def deep_witnesses_oracle(sc: LatticeScenario) -> tuple[int, tuple]:
    """Total component count and sorted deep witnesses of ``sc``, the way
    ``deep_components`` found them before its single-pass rewrite: the
    subgroup points written into the mask one at a time, then one scan
    of the whole box per deep label and the least of that label's deep
    cells.  Catalog masks come from the library's own ``_subset_mask``."""
    n, R = sc.ambient_rank, sc.box_radius
    if isinstance(sc.subset_spec, SubgroupSpec):
        subset = np.zeros((2 * R + 1,) * n, dtype=bool)
        for p in subgroup_points_oracle(sc.subset_spec, n, R):
            subset[tuple(x + R for x in p)] = True
    else:
        subset = _subset_mask(sc)
    dist = ndimage.distance_transform_cdt(~subset, metric="taxicab")
    keep = dist > sc.thickening
    labels, total = ndimage.label(keep, structure=ndimage.generate_binary_structure(n, 1))
    deep_mask = keep & (dist >= sc.depth)
    witnesses = []
    for lab in np.unique(labels[deep_mask]):
        cells = np.argwhere((labels == lab) & deep_mask)
        first = min(map(tuple, cells))
        witnesses.append(tuple(int(x) - R for x in first))
    return int(total), tuple(sorted(witnesses))


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
