"""Complete-cut-decompositions and the induced graph-of-groups data.

A complete cut of a graph is a clique whose removal disconnects it.  A
complete-cut-decomposition is a tree whose nodes carry induced
subgraphs (pieces) of the ambient graph such that every edge lives in
some piece, no piece has a complete cut of its own, and the two pieces
at each tree edge overlap in a complete cut of the ambient graph that
sits properly inside both.

The construction here recurses: take the smallest complete cut (fewest
vertices, ties broken lexicographically), split the graph into the cut
plus each component of the graph minus the cut, decompose each of
those children, and chain their subtrees, consecutive children joined
at nodes whose pieces properly contain the cut.

A note on cut search: every separating subset of a clique is itself a
clique, so a minimum-size complete cut can never contain a smaller
separator, and the minimum-size complete cuts of a piece are minimum-size
clique minimal separators of it.  Clique minimal separators do not
cross, so those of each piece are clique minimal separators of the
ambient graph (Leimer, "Optimal decomposition by clique separators",
Discrete Math. 113, 1993; Berry, Pogorelcnik, Simonet, "An introduction
to clique minimal separator decomposition", Algorithms 3(2), 2010).
The ambient graph's one MCS-M run, in O(nm), therefore lists every cut
the recursion can need among the madj sets of its generators (see
:mod:`.graphs`) that are cliques: the cut of a piece is the
smallest of those candidates inside it whose removal disconnects it,
and pieces stay vertex masks of the ambient graph throughout.  A
candidate that does not disconnect a piece disconnects none of its
children, so each child searches only the candidates it is handed.

Whether a candidate disconnects a piece is read off the components of
the piece minus the candidate, found with one component pass: it
disconnects the piece iff there are at least two, and the piece is then
cut into the cut plus each of them in one step.  Two facts make that one
step enough (see ``_decompose``): every later candidate lies in exactly
one child, so no candidate is tested twice; and every component of the
cut is full, so every child holds a piece that properly contains the
cut, where its tree edge attaches.  The components of the whole graph
minus the cut would give the same answers, since every piece is bounded
by clique cuts and a path that leaves a piece can be shortcut through
the clique it leaves by; but they cost a pass over the whole graph per
cut, which a tree or a clique-sum, with about one cut per vertex, pays
n times.
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
            try:
                r, s = e
            except (TypeError, ValueError):
                raise InvalidCcdError(f"tree edge {e!r} is not a pair of node ids") from None
            r, s = _node_id(r, "tree edge end"), _node_id(s, "tree edge end")
            if not (0 <= r < len(pcs) and 0 <= s < len(pcs)) or r == s:
                raise InvalidCcdError(f"tree edge {e!r} is not a pair of distinct node ids")
            edges.append((min(r, s), max(r, s)))
        if len(set(edges)) != len(edges):
            raise InvalidCcdError("duplicate tree edge")
        if len(edges) != len(pcs) - 1:
            raise InvalidCcdError("tree must have exactly one edge fewer than nodes")
        # connected + n-1 edges = tree
        near = [[] for _ in pcs]
        for r, s in edges:
            near[r].append(s)
            near[s].append(r)
        seen = {0}
        frontier = [0]
        while frontier:
            for other in near[frontier.pop()]:
                if other not in seen:
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


def _decompose(g: Graph, cands: list[int], whole: int):
    """Pieces, tree edges and cuts of the decomposition of g[whole], all
    as vertex masks of g; ``cands`` is g's candidate list, every entry
    inside ``whole``.

    Each piece is cut at the first of its candidates that disconnects
    it, found with one component pass per candidate tested: a candidate
    disconnects the piece iff the piece minus it has at least two
    components.  The piece then splits at once into the cut plus each
    component, in order of the components' lowest vertices, and each
    child is walked in that order.  The candidates before the cut do
    not disconnect the piece, so they cannot disconnect a child either:
    two components of a child minus a clique c would each have to reach
    the other part of the piece through the cut, hence each hold a
    vertex of the cut outside c, and those vertices are adjacent.  So
    the children share the candidates after the cut, and each of those
    lies in exactly one child, since it is no smaller than the cut and
    differs from it, and its vertices outside the cut form a non-empty
    clique, which one component holds.  Each child takes its own
    candidates from what the children before it left, and the last
    child takes the rest; no candidate is ever tested twice.

    Every component of the cut is full, since the cut is a smallest
    complete cut of the piece: a vertex of the cut with no neighbour in
    a component would leave the rest of the cut, a smaller clique,
    separating that component from the others.  So every child holds a
    piece that properly contains the cut, and the cut's tree edges chain
    the first such piece of each child's subtree, consecutive children
    joined.

    The pieces are listed leaf by leaf, children in order, and a cut's
    chain edges follow all edges of its children's subtrees, last pair
    first.  The walk keeps its own stack, so its depth is not bounded by
    Python's recursion limit.
    """
    adj = g.adjacency_masks
    pieces, edges, cuts = [], [], []
    # a (piece, candidates) pair is a piece still to walk; a (cut, k)
    # pair joins the last k subtrees walked, once they are done
    stack = [(whole, cands)]
    # the index of the first piece of each subtree walked and not yet
    # joined to its siblings
    starts = []
    while stack:
        top = stack.pop()
        if isinstance(top[1], int):
            cut, k = top
            bounds = starts[-k:] + [len(pieces)]
            del starts[-k:]
            attach = []
            for lo, hi in zip(bounds, bounds[1:]):
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
            edges += [(attach[j - 1], attach[j]) for j in range(k - 1, 0, -1)]
            cuts += [cut] * (k - 1)
            continue
        piece, inside = top
        starts.append(len(pieces))
        for at, cut in enumerate(inside):
            comps = kernels.components_bits(adj, piece & ~cut)
            if len(comps) >= 2:
                break
        else:
            pieces.append(piece)
            continue
        rest = inside[at + 1:]
        children = []
        for comp in comps[:-1]:
            child = cut | comp
            children.append((child, [c for c in rest if c & ~child == 0]))
            rest = [c for c in rest if c & ~child]
        children.append((cut | comps[-1], rest))
        stack.append((cut, len(comps)))
        stack += reversed(children)
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

    # covered[v]: the vertices that share a piece with v
    covered = [0] * limit
    piece_masks = []
    for p in t.pieces:
        mask = 0
        for v in p:
            mask |= 1 << v
        piece_masks.append(mask)
        for v in p:
            covered[v] |= mask
    covers = True
    for i, j in g.edges():
        if not covered[i] >> j & 1:
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
    adj, full = g.adjacency_masks, (1 << limit) - 1
    # tree edges that carry the same cut share one separation search
    connected_without: dict[int, bool] = {}
    for (r, s), cut in zip(t.tree_edges, t.cuts):
        mask = 0
        for v in cut:
            mask |= 1 << v
        faults = []
        if not g._is_clique_mask(mask):
            faults.append("is not a clique")
        if mask not in connected_without:
            connected_without[mask] = kernels.is_connected_bits(adj, full & ~mask)
        if connected_without[mask]:
            faults.append("does not separate the graph")
        if not all(mask & ~pm == 0 and mask != pm for pm in (piece_masks[r], piece_masks[s])):
            faults.append("is not a proper subset of both pieces")
        if faults:
            cuts_ok = False
            label = f"cut {g.labels_of(cut)} on tree edge ({r}, {s})"
            failures += [f"{label} {fault}" for fault in faults]

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
