"""Finite simple graphs with labeled vertices and set operations on them.

A :class:`Graph` is immutable: a vertex label sequence plus an
undirected edge set, no self-loops, no multi-edges.  Operations take and
return *vertex sets*, always represented as sorted tuples of vertex
indices into the owning graph.  All list-valued results are
deterministic: sets are sorted ascending and lists of sets are in
lexicographic order.

Internally adjacency lives in bitmasks and the heavy primitives
(components, clique enumeration) are the pure-Python bitset kernels in
:mod:`.kernels`.
Minimal clique separators come from the MCS-M minimal triangulation
(Berry, Blair, Heggernes, Peyton, "Maximum cardinality search for
computing minimal triangulations of graphs", Algorithmica 39, 2004),
which runs in O(nm); the clique minimal separators of a graph are the
minimal separators of that triangulation which are cliques in the graph
(Berry, Pogorelcnik, Simonet, Algorithms 3(2), 2010).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from . import kernels
from .errors import InvalidArgumentError, InvalidVertexError

VertexSet = tuple  # sorted tuple of vertex indices


def _mask_to_set(mask: int) -> VertexSet:
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


class Graph:
    """An undirected simple graph with ordered, labeled vertices.

    >>> g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    >>> g.n
    3
    >>> g.components()
    [(0, 1, 2)]
    >>> g.link((1,))
    (0, 2)
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]] = ()):
        labels = tuple(str(v) for v in vertices)
        if len(set(labels)) != len(labels):
            raise InvalidVertexError("duplicate vertex label")
        index = {v: i for i, v in enumerate(labels)}
        adj = [0] * len(labels)
        seen = set()
        for a, b in edges:
            a, b = str(a), str(b)
            if a not in index:
                raise InvalidVertexError(f"unknown edge endpoint {a!r}")
            if b not in index:
                raise InvalidVertexError(f"unknown edge endpoint {b!r}")
            i, j = index[a], index[b]
            if i == j:
                raise InvalidVertexError(f"self-loop at {a!r}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InvalidVertexError(f"duplicate edge {a!r} -- {b!r}")
            seen.add(key)
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self._labels = labels
        self._index = index
        self._adj = tuple(adj)
        self.n = len(labels)
        self._full = (1 << self.n) - 1
        # memo slots; the graph is immutable so results never go stale
        self._cache: dict[str, object] = {}

    # -- identity ----------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Raw adjacency bitmasks; adjacency_masks[i] has bit j set iff
        vertices i and j are adjacent."""
        return self._adj

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted index pairs, in lexicographic order."""
        out = []
        for i in range(self.n):
            higher = self._adj[i] >> (i + 1)
            j = i + 1
            while higher:
                if higher & 1:
                    out.append((i, j))
                higher >>= 1
                j += 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __hash__(self):
        return hash((self._labels, self._adj))

    def __repr__(self):
        return f"Graph({list(self._labels)!r}, {len(self.edges())} edges)"

    # -- vertex bookkeeping ------------------------------------------------

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidVertexError(f"unknown vertex {label!r}") from None

    def labels_of(self, s: Iterable[int]) -> tuple[str, ...]:
        return tuple(self._labels[i] for i in self.vertex_set(s))

    def vertex_set(self, s: Iterable[int]) -> VertexSet:
        """Normalize an iterable of indices to a sorted, distinct tuple."""
        out = sorted(set(s))
        if out and (out[0] < 0 or out[-1] >= self.n):
            bad = out[0] if out[0] < 0 else out[-1]
            raise InvalidVertexError(f"vertex index {bad} out of range")
        return tuple(out)

    def vertices(self) -> VertexSet:
        return tuple(range(self.n))

    def adjacent(self, i: int, j: int) -> bool:
        self.vertex_set((i, j))
        return bool(self._adj[i] >> j & 1)

    def _mask_of(self, s: Iterable[int]) -> int:
        mask = 0
        for i in self.vertex_set(s):
            mask |= 1 << i
        return mask

    # -- structure ---------------------------------------------------------

    def induced_subgraph(self, s: Iterable[int]) -> "Graph":
        """Subgraph induced on ``s``, keeping original labels and their
        original relative order.

        >>> Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]).induced_subgraph((0, 2)).labels
        ('a', 'c')
        """
        keep = self.vertex_set(s)
        labels = [self._labels[i] for i in keep]
        pos = {i: k for k, i in enumerate(keep)}
        edges = []
        for i in keep:
            both = self._adj[i]
            for j in keep:
                if j > i and both >> j & 1:
                    edges.append((labels[pos[i]], labels[pos[j]]))
        return Graph(labels, edges)

    def components(self) -> list[VertexSet]:
        """Connected components, each a sorted tuple, listed in order of
        their smallest vertex.  The empty graph has no components."""
        return [_mask_to_set(m) for m in kernels.components_bits(self._adj, self._full)]

    def is_connected(self) -> bool:
        """True for graphs with 0 or 1 vertices and for connected graphs."""
        return kernels.is_connected_bits(self._adj, self._full)

    def induced_complement_components(self, s: Iterable[int]) -> list[VertexSet]:
        """Components of the graph after deleting ``s``, each a sorted
        tuple, in order of their smallest vertex."""
        remaining = self._full & ~self._mask_of(s)
        return [_mask_to_set(m) for m in kernels.components_bits(self._adj, remaining)]

    def is_complete(self) -> bool:
        return all(self._adj[i] == self._full ^ (1 << i) for i in range(self.n))

    def link(self, s: Iterable[int]) -> VertexSet:
        """All vertices adjacent to every vertex of ``s``; the link of the
        empty set is the whole vertex set.

        >>> Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]).link((0,))
        (1,)
        """
        mask = self._full
        for i in self.vertex_set(s):
            mask &= self._adj[i]
        return _mask_to_set(mask)

    def star(self, s: Iterable[int]) -> VertexSet:
        """``s`` together with its link."""
        keep = self.vertex_set(s)
        mask = self._full
        for i in keep:
            mask &= self._adj[i]
        for i in keep:
            mask |= 1 << i
        return _mask_to_set(mask)

    def is_clique(self, s: Iterable[int]) -> bool:
        """True iff the vertices of ``s`` are pairwise adjacent; the empty
        set and singletons are cliques."""
        smask = self._mask_of(s)
        return self._is_clique_mask(smask)

    def _is_clique_mask(self, smask: int) -> bool:
        rest = smask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if (smask ^ low) & ~self._adj[v]:
                return False
        return True

    def separates(self, s: Iterable[int]) -> bool:
        """True iff removing ``s`` leaves at least two connected
        components.  Removing everything (or cutting down to one vertex)
        never separates, since graphs with 0 or 1 vertices are connected.
        """
        remaining = self._full & ~self._mask_of(s)
        return not kernels.is_connected_bits(self._adj, remaining)

    def clique_number(self) -> int:
        """Size of a largest clique; 0 for the empty graph."""
        if "cn" not in self._cache:
            self._cache["cn"] = kernels.max_clique_size_bits(self._adj, self._full)
        return self._cache["cn"]

    def maximal_cliques(self) -> list[VertexSet]:
        """All inclusion-maximal cliques, each sorted, in lexicographic
        order.  The empty graph has none.

        >>> Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]).maximal_cliques()
        [(0, 1), (1, 2)]
        """
        if "cliques" not in self._cache:
            masks = kernels.maximal_cliques_bits(self._adj, self._full)
            self._cache["cliques"] = sorted(_mask_to_set(m) for m in masks)
        return list(self._cache["cliques"])

    # -- separators --------------------------------------------------------

    def _mcs_m_madj(self) -> list[int]:
        """MCS-M (Berry, Blair, Heggernes, Peyton 2004) on the adjacency
        masks.  Entry v of the result is madj(v): the neighbours of v in
        the minimal triangulation H that were numbered before v.

        Each step numbers an unnumbered vertex v of maximum weight, then
        raises the weight of, and adds an H-edge from v to, every
        unnumbered u reachable from v along a path whose inner vertices
        all weigh less than u.  The search walks weight levels upward,
        growing the region reachable through lighter vertices.
        """
        adj = self._adj
        weight = [0] * self.n
        madj = [0] * self.n
        unnumbered = self._full
        while unnumbered:
            levels: dict[int, int] = {}
            for u in _mask_to_set(unnumbered):
                levels[weight[u]] = levels.get(weight[u], 0) | 1 << u
            # number the lowest-index vertex of maximum weight
            top = max(levels)
            vbit = levels[top] & -levels[top]
            levels[top] ^= vbit
            unnumbered ^= vbit
            reached, lighter, raised = vbit, 0, 0
            border = adj[vbit.bit_length() - 1]
            for w in sorted(levels):
                grown = kernels.component_bits(adj, reached | lighter, reached)
                for u in _mask_to_set(grown & ~reached):
                    border |= adj[u]
                reached = grown
                raised |= border & levels[w]
                lighter |= levels[w]
            for u in _mask_to_set(raised):
                weight[u] += 1
                madj[u] |= vbit
        return madj

    def _clique_separator_candidates(self) -> list[int]:
        """The madj masks of the graph's one MCS-M run that are non-empty
        cliques and separate the graph, without repeats, ordered by size
        and then by sorted vertex tuple.

        Every clique minimal separator of the graph is among them, and so
        is every clique minimal separator of each piece of a
        decomposition along clique minimal separators, since those do
        not cross (Leimer, "Optimal decomposition by clique separators",
        Discrete Math. 113, 1993; Berry, Pogorelcnik, Simonet 2010).
        """
        if "cands" not in self._cache:
            kept = [
                s
                for s in set(self._mcs_m_madj())
                if s
                and self._is_clique_mask(s)
                and not kernels.is_connected_bits(self._adj, self._full & ~s)
            ]
            kept.sort(key=lambda s: (s.bit_count(), _mask_to_set(s)))
            self._cache["cands"] = kept
        return self._cache["cands"]

    def minimal_clique_separators(self) -> list[VertexSet]:
        """All inclusion-minimal vertex sets that are cliques and separate
        the graph, in lexicographic order.

        The empty set qualifies exactly when the graph is disconnected,
        and is then the only answer.  Otherwise the answers are the clique
        minimal separators: the minimal separators of any minimal
        triangulation H that are cliques in the graph (Berry,
        Pogorelcnik, Simonet, "An introduction to clique minimal
        separator decomposition", Algorithms 3(2), 2010), at most n - 1
        of them.  H comes from MCS-M in O(nm), and every minimal
        separator of H is one of its madj sets; the candidates of
        :meth:`_clique_separator_candidates` are filtered down to the
        inclusion-minimal ones.

        >>> Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]).minimal_clique_separators()
        [(1,)]
        """
        if "mcs" not in self._cache:
            if not self.is_connected():
                self._cache["mcs"] = [()]
            else:
                kept = self._clique_separator_candidates()
                self._cache["mcs"] = sorted(
                    _mask_to_set(s)
                    for s in kept
                    if not any(t != s and t & ~s == 0 for t in kept)
                )
        return list(self._cache["mcs"])


# -- builders --------------------------------------------------------------


def _labels_arg(arg) -> list[str]:
    if isinstance(arg, int):
        return [f"v{i}" for i in range(arg)]
    return [str(v) for v in arg]


def complete_graph(vertices) -> Graph:
    """Complete graph on the given labels (or on ``n`` default labels)."""
    labels = _labels_arg(vertices)
    return Graph(labels, combinations(labels, 2))


def path_graph(vertices) -> Graph:
    labels = _labels_arg(vertices)
    return Graph(labels, zip(labels, labels[1:]))


def cycle_graph(vertices) -> Graph:
    labels = _labels_arg(vertices)
    if len(labels) < 3:
        raise InvalidArgumentError("a cycle needs at least 3 vertices")
    return Graph(labels, list(zip(labels, labels[1:])) + [(labels[-1], labels[0])])


def empty_graph(vertices=()) -> Graph:
    return Graph(_labels_arg(vertices), [])
