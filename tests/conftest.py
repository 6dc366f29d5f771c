"""Shared helpers: small-graph enumerators and independent oracles.

The oracles here deliberately avoid the library's own algorithms so
they can catch systematic mistakes: separator checks run on plain
adjacency sets, lattice distances come from multi-source BFS.
``minimal_separators_enumeration_oracle``, ``mcs_m_madj_oracle``,
``clique_separator_candidates_oracle``, ``graph_init_oracle``,
``induced_subgraph_oracle``, ``minimal_filter_oracle``,
``parse_json_oracle``, ``parse_edge_list_oracle``, ``parse_dot_oracle``,
``ccd_recursion_oracle``, ``decompose_oracle``,
``verify_star_split_oracle``, ``verify_amalgam_oracle``,
``replay_oracle``, ``replay_star_split_oracle``,
``subgroup_points_oracle``, ``deep_witnesses_oracle``,
``max_clique_size_oracle`` and ``first_clique_oracle`` are instead the
code that a rewrite replaced, kept to test the new code differentially.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from collections import deque
from collections.abc import Mapping

import numpy as np
import pytest
from scipy import ndimage

from raagsplit import kernels
from raagsplit.ccd import CcdTree
from raagsplit.errors import (
    GraphParseError,
    InternalInvariantError,
    InvalidAmalgamError,
    InvalidVertexError,
)
from raagsplit.formats import _DOT_ID, GraphDocument
from raagsplit.graphs import Graph, _mask_to_set
from raagsplit.lattice import LatticeScenario, SubgroupSpec, _echelon_basis, _subset_mask
from raagsplit.presentations import (
    SUFFIX_AMBIENT,
    SUFFIX_STAR,
    Amalgam,
    Presentation,
    Word,
    _check_amalgam as _check_amalgam_strict,
    _code_pair,
    _reduce_codes,
    commutator,
    free_reduce,
    inverse_word,
    raag_presentation,
    syllables,
)

# a graph file nested deeper than json.loads can recurse
DEEP_JSON = b'{"vertices": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"


def graph_init_oracle(vertices, edges=()) -> tuple[tuple, tuple[int, ...]]:
    """``Graph.__init__`` before it found each endpoint with one
    ``dict.get`` and spotted a repeated edge by its adjacency bit: the
    labels and adjacency masks it would store, or the error it raises."""
    labels = tuple(vertices)
    for v in labels:
        if not isinstance(v, str):
            raise InvalidVertexError(f"vertex labels must be strings, got {v!r}")
    if len(set(labels)) != len(labels):
        raise InvalidVertexError("duplicate vertex label")
    index = {v: i for i, v in enumerate(labels)}
    adj = [0] * len(labels)
    seen = set()
    for a, b in edges:
        if not (isinstance(a, str) and isinstance(b, str)):
            raise InvalidVertexError(f"edge endpoints must be strings, got {(a, b)!r}")
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
    return labels, tuple(adj)


def induced_subgraph_oracle(g: Graph, s) -> Graph:
    """``Graph.induced_subgraph`` before it read a piece's edges off the
    adjacency masks: it tests every pair of kept vertices."""
    keep = g.vertex_set(s)
    labels = [g.labels[i] for i in keep]
    pos = {i: k for k, i in enumerate(keep)}
    edges = []
    for i in keep:
        both = g.adjacency_masks[i]
        for j in keep:
            if j > i and both >> j & 1:
                edges.append((labels[pos[i]], labels[pos[j]]))
    return Graph(labels, edges)


def max_clique_size_oracle(adj, mask):
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


def first_clique_oracle(adj, candidates, size):
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
    """``mask_graph(n, mask)`` for every mask, in mask order, with the
    labels and the index pairs built once."""
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i, j in itertools.combinations(range(n), 2)]
    for mask in range(1 << len(pairs)):
        yield Graph(labels, [p for k, p in enumerate(pairs) if mask >> k & 1])


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


def minimal_filter_oracle(g: Graph):
    """``Graph.minimal_clique_separators`` before its candidates were
    kept in buckets by their lowest vertex: every candidate is tested
    against every other, quadratic in their number."""
    if g.is_complete():
        return []
    if not g.is_connected():
        return [()]
    kept = g._clique_separator_candidates()
    return sorted(
        _mask_to_set(s)
        for s in kept
        if not any(t != s and t & ~s == 0 for t in kept)
    )


def mcs_m_madj_oracle(g: Graph) -> list[int]:
    """``Graph._mcs_m_madj`` before its weight levels were kept between
    steps: it rebuilds the level masks from a weight list at every step
    and regrows the reached region from scratch at every level."""
    adj = g._adj
    weight = [0] * g.n
    madj = [0] * g.n
    unnumbered = g._full
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


def clique_separator_candidates_oracle(g: Graph) -> list[int]:
    """``Graph._clique_separator_candidates`` before it read the minimal
    separators of the triangulation off the MCS-M+ generators: every
    madj set of the one MCS-M run that is a non-empty clique and
    separates the graph, checked by a connectivity BFS."""
    kept = [
        s
        for s in set(mcs_m_madj_oracle(g))
        if s
        and g._is_clique_mask(s)
        and not kernels.is_connected_bits(g._adj, g._full & ~s)
    ]
    kept.sort(key=lambda s: (s.bit_count(), _mask_to_set(s)))
    return kept


def full_components_oracle(g: Graph, cut) -> int:
    """How many components of g minus ``cut`` have every vertex of
    ``cut`` as a neighbour, by set-based BFS; a minimal separator has at
    least two."""
    adj = adjacency_sets(g)
    cut = set(cut)
    unseen = set(range(g.n)) - cut
    count = 0
    while unseen:
        start = unseen.pop()
        comp, queue = {start}, deque([start])
        while queue:
            for w in adj[queue.popleft()]:
                if w in unseen:
                    unseen.discard(w)
                    comp.add(w)
                    queue.append(w)
        if cut <= set().union(*(adj[v] for v in comp)):
            count += 1
    return count


def parse_json_oracle(text: str) -> GraphDocument:
    """The JSON parser before its shape checks became one plain loop:
    nested generator expressions, then the edge pairs built apart."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise GraphParseError("JSON nesting is too deep") from None
    if not isinstance(doc, dict):
        raise GraphParseError("top level must be an object", line=1, column=1)
    vertices = doc.get("vertices")
    edges = doc.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphParseError('"vertices" must be a list of strings')
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
        for e in edges
    ):
        raise GraphParseError('"edges" must be a list of two-element label lists')
    return GraphDocument("json", tuple(vertices), tuple((a, b) for a, b in edges))


def parse_edge_list_oracle(text: str) -> GraphDocument:
    """The edge-list parser before it split lines with ``str.split``:
    one ``\\S+`` regex scan per line, every token's column kept."""
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def register(tok: str) -> None:
        if tok not in seen:
            seen.add(tok)
            vertices.append(tok)

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not tokens:
            continue
        if len(tokens) > 2:
            raise GraphParseError(
                "expected at most two labels per line",
                line=lineno,
                column=tokens[2][1],
            )
        for tok, _ in tokens:
            register(tok)
        if len(tokens) == 2:
            edges.append((tokens[0][0], tokens[1][0]))
    return GraphDocument("edge-list", tuple(vertices), tuple(edges))


class _DotTokensOracle:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            pos = 0
            while pos < len(line):
                ch = line[pos]
                if ch.isspace():
                    pos += 1
                    continue
                if line.startswith("--", pos):
                    self.tokens.append(("--", lineno, pos + 1))
                    pos += 2
                    continue
                if ch in "{};":
                    self.tokens.append((ch, lineno, pos + 1))
                    pos += 1
                    continue
                m = _DOT_ID.match(line, pos)
                if m:
                    self.tokens.append((m.group(), lineno, pos + 1))
                    pos = m.end()
                    continue
                raise GraphParseError(
                    f"unexpected character {ch!r}", line=lineno, column=pos + 1
                )
        self.at = 0

    def peek(self):
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def take(self, want: str | None = None):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise GraphParseError(
                f"unexpected end of input (wanted {want!r})" if want else "unexpected end of input",
                line=last[1],
                column=last[2],
            )
        if want is not None and tok[0] != want:
            raise GraphParseError(
                f"expected {want!r}, found {tok[0]!r}", line=tok[1], column=tok[2]
            )
        self.at += 1
        return tok


def parse_dot_oracle(text: str) -> GraphDocument:
    """The DOT parser before its one-pass scan: a per-character
    tokenizer over each line, then a peek/take grammar walk."""
    toks = _DotTokensOracle(text)
    kw = toks.take()
    if kw[0] != "graph":
        raise GraphParseError("expected 'graph'", line=kw[1], column=kw[2])
    nxt = toks.peek()
    if nxt is not None and nxt[0] not in "{":
        toks.take()  # optional graph name
    toks.take("{")

    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def register(tok: str) -> None:
        if tok not in seen:
            seen.add(tok)
            vertices.append(tok)

    def is_id(text_: str) -> bool:
        return _DOT_ID.fullmatch(text_) is not None

    while True:
        tok = toks.take()
        if tok[0] == "}":
            break
        if tok[0] == ";":
            continue
        if not is_id(tok[0]):
            raise GraphParseError(
                f"expected a node identifier, found {tok[0]!r}",
                line=tok[1],
                column=tok[2],
            )
        register(tok[0])
        prev = tok[0]
        while toks.peek() is not None and toks.peek()[0] == "--":
            toks.take("--")
            nxt = toks.take()
            if not is_id(nxt[0]):
                raise GraphParseError(
                    f"expected a node identifier after '--', found {nxt[0]!r}",
                    line=nxt[1],
                    column=nxt[2],
                )
            register(nxt[0])
            edges.append((prev, nxt[0]))
            prev = nxt[0]
    trailing = toks.peek()
    if trailing is not None:
        raise GraphParseError(
            f"unexpected {trailing[0]!r} after closing brace",
            line=trailing[1],
            column=trailing[2],
        )
    return GraphDocument("dot-subset", tuple(vertices), tuple(edges))


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


def decompose_oracle(g: Graph, cands: list[int], whole: int):
    """``ccd._decompose`` before each half was handed its own
    candidates: every piece scans all of g's candidates, keeping those
    inside it, for the first that disconnects it."""
    adj = g.adjacency_masks
    pieces, edges, cuts = [], [], []
    stack = [whole]
    while stack:
        top = stack.pop()
        if isinstance(top, list):
            if len(top) == 2:
                top.append(len(pieces))
                continue
            cut, start, middle = top
            attach = []
            for lo, hi in ((start, middle), (middle, len(pieces))):
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
            continue
        cut = next(
            (
                c
                for c in cands
                if c & ~top == 0 and not kernels.is_connected_bits(adj, top & ~c)
            ),
            None,
        )
        if cut is None:
            pieces.append(top)
            continue
        rest = top & ~cut
        first = kernels.component_bits(adj, rest, rest & -rest)
        record = [cut, len(pieces)]
        stack += [record, top & ~first, record, cut | first]
    return pieces, edges, cuts


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


# amalgam reference: the replay ``verify_amalgam`` ran on labelled words
# before relators were stored as generator codes; it shares only the
# package's structural check of the amalgam


def _is_square(w) -> bool:
    return len(w) == 2 and w[0] == w[1] and w[0][1] == 1


def verify_amalgam_oracle(g: Graph, a: Amalgam) -> bool:
    """Reference amalgam replay on labelled words: eliminate, relabel by
    the shape's suffixes, read every relator as a commutator pair of
    labels, compare the plain pairs with the edges of g."""
    _check_amalgam_strict(a)
    f1gens = a.factor1.generators
    f2gens = a.factor2.generators
    edge_gens = a.edge_generators
    embed1 = {e: free_reduce(a.embed1[e]) for e in edge_gens}
    embed2 = {e: free_reduce(a.embed2[e]) for e in edge_gens}
    shared = set(f1gens) & set(f2gens)
    identity = {e: ((e, 1),) for e in edge_gens}
    if shared == set(edge_gens) and embed1 == identity == embed2:
        suffix1 = suffix2 = ""
    elif shared or sum(map(_is_square, embed1.values())) != 1:
        return False
    else:
        suffix1, suffix2 = SUFFIX_STAR, SUFFIX_AMBIENT

    table = {}
    for e in edge_gens:
        w1, w2 = embed1[e], embed2[e]
        if not (_is_square(w1) or len(w1) == 1 and w1[0][1] == 1):
            return False
        if len(w2) != 1 or w2[0][1] != 1 or w2[0][0] in table:
            return False
        table[w2[0][0]] = w1

    survivors = [(x, suffix1) for x in f1gens] + [(x, suffix2) for x in f2gens if x not in table]
    relabel = {}
    for x, suffix in survivors:
        if not x.endswith(suffix):
            return False
        relabel[x] = x[: len(x) - len(suffix)]
    if sorted(relabel.values()) != sorted(g.labels):
        return False

    plain, powers = set(), set()
    for w in a.factor1.relators + tuple(_substitute(w, table) for w in a.factor2.relators):
        if not w:
            continue
        pair = _power_commutator_pair(w)
        if pair is None:
            return False
        (plain if len(w) == 4 else powers).add(frozenset(relabel[x] for x in pair))
    edges = {frozenset((g.labels[i], g.labels[j])) for i, j in g.edges()}
    return plain == edges and powers <= plain


# coded replay reference: the replay ``verify_amalgam`` and
# ``verify_star_split`` ran before amalgams carried a coded form, moved
# here verbatim.  It re-checks every amalgam with the package's
# structural check, free-reduces the labelled embed words and strips the
# shape's suffixes one generator at a time


def replay_oracle(g: Graph, a: Amalgam) -> bool:
    """``verify_amalgam`` as it was: the structural check, then
    ``_replay`` on the freely reduced embed1 words."""
    _check_amalgam_strict(a)
    return _replay(g, a, {e: free_reduce(a.embed1[e]) for e in a.edge_generators})


def replay_star_split_oracle(g: Graph, a: Amalgam) -> bool:
    """``verify_star_split`` as it was."""
    _check_amalgam_strict(a)
    if set(a.factor1.generators) & set(a.factor2.generators):
        raise InvalidAmalgamError("factor generator names overlap")
    embed1 = {e: free_reduce(a.embed1[e]) for e in a.edge_generators}
    if sum(map(_is_square, embed1.values())) != 1:
        return False
    return _replay(g, a, embed1)


def _replay(g: Graph, a: Amalgam, embed1: Mapping[str, Word]) -> bool:
    """:func:`verify_amalgam` on an amalgam that passed
    :func:`_check_amalgam`, given its embed1 words freely reduced, on
    vertex codes: the plain pairs read off the rewritten relators are
    compared with g's adjacency masks.

    A relator that is a plain commutator (a, b, -a, -b) of two
    generators that each stand for one letter, x and y with x != ±y,
    becomes x y x⁻¹ y⁻¹, which is reduced: its pair is read off that
    shape.  That covers every factor-1 relator of a star split and every
    factor-2 relator away from the squared generator.  Every other
    relator is substituted letter by letter, freely reduced when it
    comes from factor 2, and read by :func:`_code_pair`."""
    f1gens = a.factor1.generators
    f2gens = a.factor2.generators
    edge_gens = a.edge_generators
    embed2 = {e: free_reduce(a.embed2[e]) for e in edge_gens}
    shared = set(f1gens) & set(f2gens)
    if shared == set(edge_gens) and embed1 == {e: ((e, 1),) for e in edge_gens} == embed2:
        suffix1 = suffix2 = ""
    elif shared or sum(map(_is_square, embed1.values())) != 1:
        return False
    else:
        suffix1, suffix2 = SUFFIX_STAR, SUFFIX_AMBIENT

    # Tietze eliminations: each identified factor-2 generator becomes its
    # embed1 word
    table = {}
    for e in edge_gens:
        w1, w2 = embed1[e], embed2[e]
        if not (_is_square(w1) or len(w1) == 1 and w1[0][1] == 1):
            return False
        if len(w2) != 1 or w2[0][1] != 1 or w2[0][0] in table:
            return False
        table[w2[0][0]] = w1

    # each surviving generator becomes its vertex code, vertex index plus
    # one; each eliminated one becomes its embed1 word over those codes
    index = g._index
    code1 = [_vertex_code(index, x, suffix1) for x in f1gens]
    subs = [None if x in table else (_vertex_code(index, x, suffix2),) for x in f2gens]
    found = code1 + [w[0] for w in subs if w is not None]
    if len(found) != g.n or len(set(found) - {0}) != g.n:
        return False
    by_label = dict(zip(f1gens, code1))
    for k, x in enumerate(f2gens):
        if subs[k] is None:
            subs[k] = tuple(e * by_label[y] for y, e in table[x])
    # signed lookups: entry c serves letter c, entry -c its inverse
    look1 = ((), *((c,) for c in code1), *((-c,) for c in reversed(code1)))
    look2 = ((), *subs, *(tuple(-c for c in reversed(w)) for w in reversed(subs)))

    # plain[c]: the codes that share a plain commutator with code c, as
    # bits c - 1, to be compared with g's adjacency masks
    plain = [0] * (g.n + 1)
    powers = []
    for look, codes, reduce in ((look1, a.factor1._codes, False), (look2, a.factor2._codes, True)):
        for w in codes:
            if len(w) == 4 and w[2] == -w[0] and w[3] == -w[1]:
                sx, sy = look[w[0]], look[w[1]]
                if len(sx) == 1 and len(sy) == 1:
                    x, y = abs(sx[0]), abs(sy[0])
                    if x != y:
                        plain[x] |= 1 << y - 1
                        plain[y] |= 1 << x - 1
                        continue
            w = [c for x in w for c in look[x]]
            if reduce:
                w = _reduce_codes(w)
            if not w:
                continue
            pair = _code_pair(w)
            if pair is None:
                return False
            x, y = pair
            if len(w) == 4:
                plain[x] |= 1 << y - 1
                plain[y] |= 1 << x - 1
            else:
                powers.append(pair)
    adj = g.adjacency_masks
    return all(plain[i + 1] == adj[i] for i in range(g.n)) and all(
        plain[x] >> y - 1 & 1 for x, y in powers
    )


def _vertex_code(index: Mapping[str, int], x: str, suffix: str) -> int:
    """Index plus one of the vertex labelled ``x`` without ``suffix``;
    0 when ``x`` lacks the suffix or no vertex has that label."""
    if not x.endswith(suffix):
        return 0
    return index.get(x[: len(x) - len(suffix)], -1) + 1


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
    ``deep_components`` found them before its single-pass rewrite and
    before its numpy kernels: the subgroup points written into the mask
    one at a time, ``scipy.ndimage``'s chamfer distance and labelling,
    then one scan of the whole box per deep label for the least flat
    index of that label's deep cells, which is its least cell because C
    order is lexicographic.  Catalog masks come from the library's own
    ``_subset_mask``."""
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
        first = np.flatnonzero((labels == lab) & deep_mask)[0]
        witnesses.append(tuple(int(x) - R for x in np.unravel_index(first, labels.shape)))
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
