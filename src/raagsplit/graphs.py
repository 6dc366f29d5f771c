"""Finite simple graphs with labeled vertices and set operations on them.

A :class:`Graph` is immutable: a vertex label sequence plus an
undirected edge set, no self-loops, no multi-edges.  Operations take and
return *vertex sets*, always represented as sorted tuples of vertex
indices into the owning graph.  All list-valued results are
deterministic: sets are sorted ascending and lists of sets are in
lexicographic order.

Internally adjacency lives in bitmasks and the heavy primitives
(components, clique search) are the pure-Python bitset kernels in
:mod:`.kernels`.  Every clique search, :meth:`Graph.clique_number`
included, is the one colour-bounded branch and bound there, run on an
explicit stack, so a clique of any size is found without recursion.
Minimal clique separators come from the MCS-M minimal triangulation
(Berry, Blair, Heggernes, Peyton, "Maximum cardinality search for
computing minimal triangulations of graphs", Algorithmica 39, 2004),
which runs in O(nm); the clique minimal separators of a graph are the
minimal separators of that triangulation which are cliques in the graph
(Berry, Pogorelcnik, Simonet, Algorithms 3(2), 2010).  The minimal
separators of the triangulation are read off the same MCS-M run, with no
connectivity test: a vertex x numbered right after y is a *generator*
when |madj(x)| <= |madj(y)|, and the minimal separators are exactly the
generators' madj sets (Algorithm MCS-M+ of the same paper).
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

    Every vertex label and edge endpoint must be a str; nothing is
    coerced, so ``Graph([1])`` raises InvalidVertexError.

    >>> g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    >>> g.n
    3
    >>> g.components()
    [(0, 1, 2)]
    >>> g.link((1,))
    (0, 2)
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]] = ()):
        """Check the labels, then each edge in the order given; the first
        fault raises InvalidVertexError.  The labels must be distinct
        strs.  An edge must be a pair (not a str) of strs naming two
        different vertices (first endpoint looked up first) that no
        earlier edge joined, in either orientation; a repeat shows as an
        adjacency bit already set."""
        labels = tuple(vertices)
        for v in labels:
            if not isinstance(v, str):
                raise InvalidVertexError(f"vertex labels must be strings, got {v!r}")
        index = {v: i for i, v in enumerate(labels)}
        if len(index) != len(labels):
            raise InvalidVertexError("duplicate vertex label")
        find = index.get
        adj = [0] * len(labels)
        for e in edges:
            try:
                a, b = e
            except (TypeError, ValueError):
                raise InvalidVertexError(f"an edge must be a pair of labels, got {e!r}") from None
            if not (isinstance(a, str) and isinstance(b, str)):
                raise InvalidVertexError(f"edge endpoints must be strings, got {(a, b)!r}")
            # a two-character str unpacks into two labels; its class is
            # checked, not isinstance, which costs about twice as much
            if e.__class__ is str:
                raise InvalidVertexError(f"an edge must be a pair of labels, got {e!r}")
            i = find(a)
            if i is None:
                raise InvalidVertexError(f"unknown edge endpoint {a!r}")
            j = find(b)
            if j is None:
                raise InvalidVertexError(f"unknown edge endpoint {b!r}")
            if i == j:
                raise InvalidVertexError(f"self-loop at {a!r}")
            if adj[i] >> j & 1:
                raise InvalidVertexError(f"duplicate edge {a!r} -- {b!r}")
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
        for i, nbrs in enumerate(self._adj):
            # the later neighbours of i, lowest set bit first
            later = nbrs & ~((2 << i) - 1)
            while later:
                low = later & -later
                later ^= low
                out.append((i, low.bit_length() - 1))
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
        """Normalize an iterable of indices to a sorted, distinct tuple.
        Every index must be an int and not a bool; nothing is coerced."""
        items = tuple(s)
        for v in items:
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidVertexError(f"vertex index must be an int, got {v!r}")
        out = sorted(set(items))
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
        mask = 0
        for i in keep:
            mask |= 1 << i
        names = self._labels
        edges = []
        for i in keep:
            # the later kept neighbours of i, read off its adjacency mask
            later = self._adj[i] & mask & ~((2 << i) - 1)
            while later:
                low = later & -later
                later ^= low
                edges.append((names[i], names[low.bit_length() - 1]))
        return Graph([names[i] for i in keep], edges)

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
        return _mask_to_set(self._link_mask(self.vertex_set(s)))

    def star(self, s: Iterable[int]) -> VertexSet:
        """``s`` together with its link."""
        keep = self.vertex_set(s)
        mask = self._link_mask(keep)
        for i in keep:
            mask |= 1 << i
        return _mask_to_set(mask)

    def _link_mask(self, keep: VertexSet) -> int:
        """Mask of the link of ``keep``, a checked vertex set."""
        mask = self._full
        for i in keep:
            mask &= self._adj[i]
        return mask

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
        """Size of a largest clique; 0 for the empty graph.  One
        colour-bounded branch and bound on the adjacency masks
        (:func:`.kernels.first_clique_of_size_bits` in maximum mode)."""
        if "cn" not in self._cache:
            self._cache["cn"] = kernels.max_clique_size_bits(self._adj, self._full)
        return self._cache["cn"]

    # -- separators --------------------------------------------------------

    def _mcs_m_madj(self) -> tuple[list[int], list[int]]:
        """MCS-M (Berry, Blair, Heggernes, Peyton 2004) on the adjacency
        masks.  Returns ``(madj, order)``: entry v of ``madj`` is madj(v),
        the neighbours of v in the minimal triangulation H that were
        numbered before v, and ``order`` lists the vertices in the order
        they were numbered.  A vertex's weight when it is numbered is the
        popcount of its madj.

        Each step numbers an unnumbered vertex v of maximum weight, then
        raises the weight of, and adds an H-edge from v to, every
        unnumbered u reachable from v along a path whose inner vertices
        all weigh less than u.  The search walks weight levels upward,
        growing the region reachable through lighter vertices.

        The unnumbered vertices are kept between steps as one mask per
        weight level; a raised vertex moves from its level to the next,
        and empty levels are dropped.  At each level the reached region
        grows only through its border (the neighbours of the vertices
        reached so far) within the lighter levels.

        A vertex x numbered right after y is a *generator* when
        |madj(x)| <= |madj(y)|; the minimal separators of H are exactly
        the madj sets of the generators (Berry, Pogorelcnik, Simonet
        2010, Algorithm MCS-M+).
        """
        adj = self._adj
        madj = [0] * self.n
        order = []
        levels = {0: self._full} if self.n else {}
        while levels:
            # number the lowest-index vertex of maximum weight
            top = max(levels)
            vbit = levels[top] & -levels[top]
            v = vbit.bit_length() - 1
            order.append(v)
            levels[top] ^= vbit
            if not levels[top]:
                del levels[top]
            reached, lighter = vbit, 0
            border = adj[v]
            moves = []
            for w in sorted(levels):
                fresh = border & lighter & ~reached
                while fresh:
                    reached |= fresh
                    while fresh:
                        low = fresh & -fresh
                        fresh ^= low
                        border |= adj[low.bit_length() - 1]
                    fresh = border & lighter & ~reached
                level = levels[w]
                raised = border & level
                if raised:
                    moves.append((w, raised))
                lighter |= level
            for w, raised in moves:
                levels[w] ^= raised
                if not levels[w]:
                    del levels[w]
                levels[w + 1] = levels.get(w + 1, 0) | raised
                while raised:
                    low = raised & -raised
                    raised ^= low
                    madj[low.bit_length() - 1] |= vbit
        return madj, order

    def _clique_separator_candidates(self) -> list[int]:
        """The madj masks of the MCS-M generators (see
        :meth:`_mcs_m_madj`) that are non-empty cliques of the graph,
        without repeats, ordered by size and then by sorted vertex tuple.

        A generator's madj set is a minimal separator of the minimal
        triangulation H, so it separates the graph too, which is a
        subgraph of H; no connectivity check is needed.  The minimal
        separators of H that are cliques of the graph are exactly its
        clique minimal separators, so every one of them is listed, and so
        is every clique minimal separator of each piece of a
        decomposition along clique minimal separators, since those do
        not cross (Leimer, "Optimal decomposition by clique separators",
        Discrete Math. 113, 1993; Berry, Pogorelcnik, Simonet 2010).
        """
        if "cands" not in self._cache:
            madj, order = self._mcs_m_madj()
            kept = set()
            prev = -1
            for x in order:
                s = madj[x]
                weight = s.bit_count()
                if weight <= prev and s and s not in kept and self._is_clique_mask(s):
                    kept.add(s)
                prev = weight
            self._cache["cands"] = sorted(kept, key=lambda s: (s.bit_count(), _mask_to_set(s)))
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
        of them.  H comes from MCS-M in O(nm), and its minimal
        separators are the madj sets of the generators, the vertices
        numbered at a weight no higher than the vertex numbered just
        before them (Algorithm MCS-M+).  Those that are cliques are the
        candidates of :meth:`_clique_separator_candidates`, which are
        filtered down to the inclusion-minimal ones: a clique minimal
        separator can hold a smaller one.  The candidates come sorted by
        size, so a candidate is minimal unless a minimal one kept before
        it lies inside it, and that one's lowest vertex is in the
        candidate.  The kept ones sit in buckets by their lowest vertex,
        and a candidate is tested only against the buckets of its own
        vertices.  Each test is one mask operation, and a vertex's
        bucket holds only minimal separators whose lowest vertex it is,
        so on paths, trees and clique-sums the filter is near-linear in
        the number of candidates, where testing every pair was quadratic.
        A complete graph has none, since
        removing vertices from it leaves a complete graph, which is
        connected; that case is answered from the adjacency masks in
        O(n), before MCS-M runs.

        >>> Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]).minimal_clique_separators()
        [(1,)]
        """
        if "mcs" not in self._cache:
            if self.is_complete():
                self._cache["mcs"] = []
            elif not self.is_connected():
                self._cache["mcs"] = [()]
            else:
                buckets: dict[int, list[int]] = {}
                found = []
                for s in self._clique_separator_candidates():
                    vs = _mask_to_set(s)
                    if not any(t & ~s == 0 for v in vs for t in buckets.get(v, ())):
                        buckets.setdefault(vs[0], []).append(s)
                        found.append(vs)
                self._cache["mcs"] = sorted(found)
        return list(self._cache["mcs"])


# -- builders --------------------------------------------------------------


def _labels_arg(arg) -> list:
    """``v0`` .. ``v{n-1}`` for an int ``n``, else the given labels as
    they are; :class:`Graph` refuses any label that is not a str."""
    if isinstance(arg, bool):
        raise InvalidVertexError(f"expected a vertex count or labels, got {arg!r}")
    if isinstance(arg, int):
        return [f"v{i}" for i in range(arg)]
    return list(arg)


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
