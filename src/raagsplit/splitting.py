"""Deciding whether a right-angled Artin group splits over Z^n.

The group A(g) attached to a graph g has one generator per vertex and a
commuting relation per edge.  It splits over a free abelian subgroup of
rank n exactly when g is a complete graph on n+1 vertices, or g contains
a clique of size n some subset of which separates g.  The decision
procedure takes the minimal clique separators of g, which
:meth:`Graph.minimal_clique_separators` finds in polynomial time from an
MCS-M minimal triangulation (O(nm), at most n - 1 separators), and
extends them to rank-n cliques; :func:`brute_force_splits` re-decides
the same question by raw subset enumeration and is kept free of any
shared shortcut so it can serve as an independent oracle.

Witness selection is deterministic: separators are tried in
lexicographic order and extended with the lexicographically first
clique, so equal inputs always yield equal witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from . import kernels
from .errors import InternalInvariantError, InvalidRankError, NotACliqueError
from .graphs import Graph, VertexSet, _mask_to_set

HNN_COMPLETE = "hnn-complete"
DIRECT_AMALGAM = "direct-amalgam"
STAR_SPLIT = "star-split"


@dataclass(frozen=True)
class SplittingWitness:
    """Certificate that A(g) splits over Z^rank.

    kind is one of ``hnn-complete`` (g itself is complete on rank+1
    vertices), ``direct-amalgam`` (the rank-sized clique separates, or
    sits properly inside the piece its separator cuts off), and
    ``star-split`` (the clique is the full star of ``star_vertex`` and
    does not separate on its own).  ``sides`` documents the two-piece
    decomposition along ``separator`` for direct amalgams: the sides
    intersect exactly in the separator, cover the graph, and one of them
    contains the clique.
    """

    kind: str
    rank: int
    clique: VertexSet
    separator: Optional[VertexSet] = None
    star_vertex: Optional[int] = None
    sides: Optional[tuple[VertexSet, VertexSet]] = None

    def validate(self, g: Graph) -> None:
        """Check the type invariants against ``g``; raises
        InternalInvariantError on the first violation."""

        def need(cond, msg):
            if not cond:
                raise InternalInvariantError(f"witness invariant failed: {msg}")

        need(self.rank >= 0, "rank is non-negative")
        need(g.is_clique(self.clique), "clique field is a clique")
        if self.kind == HNN_COMPLETE:
            need(g.is_complete(), "graph is complete")
            need(g.n == self.rank + 1, "complete graph has rank+1 vertices")
            need(self.clique == g.vertices(), "clique is the whole vertex set")
            need(self.separator is None, "no separator for hnn-complete")
            need(self.sides is None, "no sides for hnn-complete")
            need(self.star_vertex is None, "no star vertex for hnn-complete")
            return
        need(len(self.clique) == self.rank, "clique has exactly rank vertices")
        need(self.separator is not None, "separator present")
        sep = set(self.separator)
        need(sep <= set(self.clique), "separator inside clique")
        need(g.separates(self.separator), "separator separates")
        if self.kind == DIRECT_AMALGAM:
            need(self.sides is not None, "sides present")
            s1, s2 = self.sides
            need(set(s1) | set(s2) == set(g.vertices()), "sides cover the graph")
            need(set(s1) & set(s2) == sep, "sides meet exactly in the separator")
            need(
                set(self.clique) <= set(s1) or set(self.clique) <= set(s2),
                "clique inside one side",
            )
            need(self.star_vertex is None, "no star vertex for direct-amalgam")
            return
        if self.kind == STAR_SPLIT:
            need(self.star_vertex is not None, "star vertex present")
            need(self.star_vertex in self.clique, "star vertex in clique")
            need(g.star((self.star_vertex,)) == self.clique, "clique is the star")
            need(self.clique != g.vertices(), "star is not the whole graph")
            need(self.sides is None, "no sides for star-split")
            return
        raise InternalInvariantError(f"unknown witness kind {self.kind!r}")


def _check_rank(n) -> None:
    """Raise InvalidRankError unless ``n`` is a non-negative int that is
    not a bool."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidRankError(f"rank must be an int, got {n!r}")
    if n < 0:
        raise InvalidRankError(f"rank must be non-negative, got {n}")


def extend_clique_to_rank(g: Graph, s, n: int) -> Optional[VertexSet]:
    """Grow the clique ``s`` to a clique of size ``n`` through its link.

    Returns ``s`` plus the lexicographically first clique of size
    ``n - len(s)`` in the subgraph induced on the link of ``s``, or None
    when the link contains no clique that large.
    """
    s = g.vertex_set(s)
    if not g.is_clique(s):
        raise NotACliqueError(f"{g.labels_of(s)} is not a clique")
    _check_rank(n)
    if n < len(s):
        raise InvalidRankError(f"rank {n} is below the clique size {len(s)}")
    xi = kernels.first_clique_of_size_bits(g.adjacency_masks, g._link_mask(s), n - len(s))
    if xi is None:
        return None
    return g.vertex_set(set(s) | set(_mask_to_set(xi)))


def splits_over_rank(g: Graph, n: int) -> Optional[SplittingWitness]:
    """Witness that A(g) splits over Z^n, or None if it does not.

    Search order: the complete-graph case first, then each minimal
    clique separator in lexicographic order, extended to a rank-n clique
    when possible.  The emitted kind follows the three-way case split on
    how the clique K sits over the separator S: if K separates (in
    particular whenever K = S, and whenever K is properly contained in
    the piece containing it) the witness is a direct amalgam along S;
    otherwise K is exactly one piece, every vertex of K beyond S has
    star K, and the witness is a star split.
    """
    _check_rank(n)
    if g.is_complete() and g.n == n + 1:
        return SplittingWitness(kind=HNN_COMPLETE, rank=n, clique=g.vertices())
    for sep in g.minimal_clique_separators():
        if len(sep) > n:
            continue
        clique = extend_clique_to_rank(g, sep, n)
        if clique is None:
            continue
        return _emit(g, n, sep, clique)
    return None


def _emit(g: Graph, n: int, sep: VertexSet, clique: VertexSet) -> SplittingWitness:
    sepset = set(sep)
    beyond = [v for v in clique if v not in sepset]
    comps = [set(c) for c in g.induced_complement_components(sep)]
    if g.separates(clique):
        # the clique itself cuts the graph: amalgamate directly along sep,
        # with the piece containing the clique as the first side
        if beyond:
            side_comp = next(c for c in comps if beyond[0] in c)
        else:
            side_comp = comps[0]
        rest = set().union(*(c for c in comps if c is not side_comp))
        sides = (
            g.vertex_set(sepset | side_comp),
            g.vertex_set(sepset | rest),
        )
        return SplittingWitness(
            kind=DIRECT_AMALGAM, rank=n, clique=clique, separator=sep, sides=sides
        )
    # K does not separate: K must be sep plus one whole component, and the
    # star of every clique vertex beyond sep is exactly K
    for u in beyond:
        if g.star((u,)) == clique:
            return SplittingWitness(
                kind=STAR_SPLIT, rank=n, clique=clique, separator=sep, star_vertex=u
            )
    raise InternalInvariantError(
        "clique neither separates nor is a full star over its separator"
    )


def splitting_spectrum(g: Graph) -> set[int]:
    """All n >= 0 such that A(g) splits over Z^n.

    One pass over the minimal clique separators: a separator S extends
    to a rank-n clique exactly when the link of S holds a clique of size
    n - |S|, so S contributes every n in [|S|, |S| + clique number of the
    link].  The link's clique number comes from the same branch and
    bound that :func:`extend_clique_to_rank` runs, in maximum mode.  A
    complete non-empty graph adds |V| - 1.  This is the same set as
    asking :func:`splits_over_rank` rank by rank.

    >>> sorted(splitting_spectrum(Graph("abc", [("a", "b"), ("b", "c")])))
    [1, 2]
    """
    out = {g.n - 1} if g.n and g.is_complete() else set()
    adj = g.adjacency_masks
    for sep in g.minimal_clique_separators():
        top = len(sep) + kernels.max_clique_size_bits(adj, g._link_mask(sep))
        out.update(range(len(sep), top + 1))
    return out


def brute_force_splits(g: Graph, n: int) -> bool:
    """Independent oracle for :func:`splits_over_rank`.

    Decides by raw double enumeration: every size-n vertex subset that
    is a clique, and every subset of it as a candidate separator.  Uses
    its own adjacency scans and its own stack-based connectivity search,
    sharing no search shortcut with the witness procedure.
    """
    _check_rank(n)
    adj = g.adjacency_masks
    nv = g.n
    full = (1 << nv) - 1

    if nv == n + 1 and all(adj[i] == full ^ (1 << i) for i in range(nv)):
        return True

    def disconnected_without(removed: int) -> bool:
        live = full & ~removed
        if live == 0:
            return False
        start = (live & -live).bit_length() - 1
        stack = [start]
        seen = 1 << start
        while stack:
            v = stack.pop()
            nbrs = adj[v] & live & ~seen
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                seen |= low
                stack.append(low.bit_length() - 1)
        return seen != live

    for kset in combinations(range(nv), n):
        ok = True
        for a, b in combinations(kset, 2):
            if not adj[a] >> b & 1:
                ok = False
                break
        if not ok:
            continue
        kmask = 0
        for v in kset:
            kmask |= 1 << v
        smask = kmask
        while True:
            if disconnected_without(smask):
                return True
            if smask == 0:
                break
            smask = (smask - 1) & kmask
    return False
