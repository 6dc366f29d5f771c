"""Complete-cut-decompositions and the induced graph-of-groups data.

A complete cut of a graph is a clique whose removal disconnects it.  A
complete-cut-decomposition is a tree whose nodes carry induced
subgraphs (pieces) of the ambient graph such that every edge lives in
some piece, no piece has a complete cut of its own, and the two pieces
at each tree edge overlap in a complete cut of the ambient graph that
sits properly inside both.

The construction here recurses: take the smallest complete cut (fewest
vertices, ties broken lexicographically), split the graph into the cut
plus the first component versus the cut plus everything else, decompose
both halves, and join the subtrees at nodes whose pieces properly
contain the cut.

A note on cut search: every separating subset of a clique is itself a
clique, so a minimum-size complete cut can never contain a smaller
separator, and the minimum-size complete cuts of a piece are minimum-size
clique minimal separators of it.  Clique minimal separators do not
cross, so those of each piece are clique minimal separators of the
ambient graph (Leimer, "Optimal decomposition by clique separators",
Discrete Math. 113, 1993; Berry, Pogorelcnik, Simonet, "An introduction
to clique minimal separator decomposition", Algorithms 3(2), 2010).
The ambient graph's one MCS-M run, in O(nm), therefore lists every cut
the recursion can need among its madj sets: the cut of a piece is the
smallest of those candidates inside it whose removal disconnects it,
and pieces stay vertex masks of the ambient graph throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .errors import DisconnectedGraphError, InternalInvariantError, InvalidCcdError
from .graphs import Graph, VertexSet, _mask_to_set
from .presentations import Presentation, _raag_on
# unused here, but perfbench's tracer test reads ``ccd.raag_presentation``
from .presentations import raag_presentation  # noqa: F401


def _node_id(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidCcdError(f"{what} must be an int, got {x!r}")
    return x


def _vertex_tuple(vs) -> VertexSet:
    return tuple(sorted({_node_id(v, "vertex id") for v in vs}))


@dataclass(frozen=True)
class CcdTree:
    """Tree of pieces with the overlap of each adjacent pair recorded.

    ``tree_edges`` are (r, s) node-index pairs with r < s; ``cuts`` is
    parallel to ``tree_edges`` and each entry must equal the
    intersection of the two incident pieces.
    """

    pieces: tuple[VertexSet, ...]
    tree_edges: tuple[tuple[int, int], ...]
    cuts: tuple[VertexSet, ...]

    def __init__(self, pieces, tree_edges=(), cuts=()):
        pcs = tuple(_vertex_tuple(p) for p in pieces)
        if not pcs:
            raise InvalidCcdError("a decomposition tree needs at least one node")
        edges = []
        for e in tree_edges:
            r, s = (_node_id(x, "tree edge end") for x in e)
            if not (0 <= r < len(pcs) and 0 <= s < len(pcs)) or r == s:
                raise InvalidCcdError(f"tree edge {e!r} is not a pair of distinct node ids")
            edges.append((min(r, s), max(r, s)))
        if len(set(edges)) != len(edges):
            raise InvalidCcdError("duplicate tree edge")
        if len(edges) != len(pcs) - 1:
            raise InvalidCcdError("tree must have exactly one edge fewer than nodes")
        # connected + n-1 edges = tree
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for r, s in edges:
                other = s if r == node else r if s == node else None
                if other is not None and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        if len(seen) != len(pcs):
            raise InvalidCcdError("tree edges do not connect all nodes")
        cts = tuple(_vertex_tuple(c) for c in cuts)
        if len(cts) != len(edges):
            raise InvalidCcdError("need exactly one cut per tree edge")
        for (r, s), cut in zip(edges, cts):
            if tuple(sorted(set(pcs[r]) & set(pcs[s]))) != cut:
                raise InvalidCcdError(
                    f"cut for edge ({r}, {s}) must be the intersection of its pieces"
                )
        object.__setattr__(self, "pieces", pcs)
        object.__setattr__(self, "tree_edges", tuple(edges))
        object.__setattr__(self, "cuts", cts)


@dataclass(frozen=True)
class CcdValidation:
    covers_edges: bool
    pieces_have_no_complete_cut: bool
    cuts_are_proper_complete_cuts: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (
            self.covers_edges
            and self.pieces_have_no_complete_cut
            and self.cuts_are_proper_complete_cuts
        )


@dataclass(frozen=True)
class GraphOfGroups:
    """Presentation-level decomposition data read off a CcdTree.

    ``inclusions`` holds, per tree edge, a pair of generator maps (edge
    group into first and second incident vertex group), each a tuple of
    (source, target) label pairs.
    """

    vertex_groups: tuple[Presentation, ...]
    tree_edges: tuple[tuple[int, int], ...]
    edge_groups: tuple[Presentation, ...]
    inclusions: tuple[
        tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]], ...
    ]


def _decompose(g: Graph, cands: list[int], piece: int):
    """Pieces, tree edges and cuts of the decomposition of g[piece], all
    as vertex masks of g; ``cands`` is g's candidate list."""
    adj = g.adjacency_masks
    cut = next(
        (
            c
            for c in cands
            if c & ~piece == 0 and not kernels.is_connected_bits(adj, piece & ~c)
        ),
        None,
    )
    if cut is None:
        return [piece], [], []
    rest = piece & ~cut
    first = kernels.component_bits(adj, rest, rest & -rest)
    pieces, edges, cuts = _decompose(g, cands, cut | first)
    offset = len(pieces)
    rp, re, rc = _decompose(g, cands, piece & ~first)
    pieces += rp
    edges += [(r + offset, s + offset) for r, s in re]
    cuts += rc

    attach = []
    for lo, hi in ((0, offset), (offset, len(pieces))):
        found = next(
            (i for i in range(lo, hi) if cut & ~pieces[i] == 0 and cut != pieces[i]),
            None,
        )
        if found is None:
            raise InternalInvariantError(
                f"no piece in subtree [{lo}, {hi}) properly contains the cut "
                f"{_mask_to_set(cut)}"
            )
        attach.append(found)
    edges.append((attach[0], attach[1]))
    cuts.append(cut)
    return pieces, edges, cuts


def complete_cut_decomposition(g: Graph) -> CcdTree:
    """Decompose a connected graph along minimum-size complete cuts.

    >>> from .graphs import path_graph
    >>> t = complete_cut_decomposition(path_graph("abc"))
    >>> t.pieces, t.tree_edges, t.cuts
    (((0, 1), (1, 2)), ((0, 1),), ((1,),))
    """
    if g.n == 0 or not g.is_connected():
        raise DisconnectedGraphError(
            "complete-cut-decomposition needs a connected non-empty graph; "
            "decompose free-product factors separately"
        )
    pieces, edges, cuts = _decompose(
        g, g._clique_separator_candidates(), (1 << g.n) - 1
    )
    return CcdTree(
        tuple(_mask_to_set(p) for p in pieces),
        tuple(edges),
        tuple(_mask_to_set(c) for c in cuts),
    )


def validate_ccd(g: Graph, t: CcdTree) -> CcdValidation:
    """Check the three defining properties, reporting failures instead
    of raising."""
    failures = []
    limit = g.n
    for p in t.pieces + t.cuts:
        if any(not 0 <= v < limit for v in p):
            return CcdValidation(
                False, False, False,
                (f"vertex set {p} references vertices outside the graph",),
            )

    covers = True
    piece_sets = [set(p) for p in t.pieces]
    for i, j in g.edges():
        if not any(i in ps and j in ps for ps in piece_sets):
            covers = False
            failures.append(
                f"edge ({g.labels[i]}, {g.labels[j]}) lies in no piece"
            )

    indecomposable = True
    for node, p in enumerate(t.pieces):
        if g.induced_subgraph(p).minimal_clique_separators():
            indecomposable = False
            failures.append(f"piece {node} ({g.labels_of(p)}) has a complete cut")

    cuts_ok = True
    for (r, s), cut in zip(t.tree_edges, t.cuts):
        label = f"cut {g.labels_of(cut)} on tree edge ({r}, {s})"
        if not g.is_clique(cut):
            cuts_ok = False
            failures.append(f"{label} is not a clique")
        if not g.separates(cut):
            cuts_ok = False
            failures.append(f"{label} does not separate the graph")
        if not (set(cut) < piece_sets[r] and set(cut) < piece_sets[s]):
            cuts_ok = False
            failures.append(f"{label} is not a proper subset of both pieces")

    return CcdValidation(covers, indecomposable, cuts_ok, tuple(failures))


def graph_of_groups(g: Graph, t: CcdTree) -> GraphOfGroups:
    """Vertex groups on the pieces, free-abelian edge groups on the
    cuts, label-to-label inclusions.

    >>> from .graphs import path_graph
    >>> g = path_graph("abc")
    >>> gog = graph_of_groups(g, complete_cut_decomposition(g))
    >>> [p.text() for p in gog.vertex_groups]
    ['< a, b | [a,b] >', '< b, c | [b,c] >']
    >>> gog.edge_groups[0].text()
    '< b | >'
    """
    report = validate_ccd(g, t)
    if not report.passed:
        raise InvalidCcdError(
            "tree is not a complete-cut-decomposition of the graph: "
            + "; ".join(report.failures)
        )
    vertex_groups = tuple(_raag_on(g, p) for p in t.pieces)
    edge_groups = tuple(_raag_on(g, c) for c in t.cuts)
    inclusions = tuple(
        (
            tuple((x, x) for x in g.labels_of(c)),
            tuple((x, x) for x in g.labels_of(c)),
        )
        for c in t.cuts
    )
    return GraphOfGroups(vertex_groups, t.tree_edges, edge_groups, inclusions)
