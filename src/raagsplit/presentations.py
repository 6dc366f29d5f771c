"""Presentation-level constructions for right-angled Artin groups.

Words are tuples of ``(generator, exponent)`` letters; every generator
is a str and every exponent is the integer 1 or -1 (not a bool, not a
float); nothing is coerced.  A
:class:`Presentation` checks every letter, keeps its relators freely
reduced and stores every commutator relator in the normal form
``[x, y]`` = x y x⁻¹ y⁻¹ with x before y in generator order, so
presentations built along different routes compare syntactically.

Every presentation of A(g[S]) for a vertex subset S (the whole group,
the factors of both amalgams) comes from one private function that
reads the edges of g inside S and names each generator by its vertex
label plus an optional suffix.

Amalgam constructions:

* :func:`direct_amalgam` splits A(g) along a separating clique; both
  factors keep the original labels and the embeddings are identity on
  labels.
* :func:`star_split` splits A(g) over the star of a vertex ``u`` whose
  star is not the whole graph.  Factor generators carry the fixed
  suffixes ``_1`` (star copy) and ``_2`` (whole-graph copy); the edge
  generator ``u`` maps to ``u_1 u_1`` (a square) on the star side and
  every other edge generator maps to its suffixed copy.  The square is
  what keeps the first embedding non-surjective, hence the splitting
  non-trivial.
* :func:`verify_star_split` replays the rewriting argument for that
  amalgam: eliminate the ``_2`` copies of star generators through the
  identification relators, relabel, bring each relator to the
  presentation normal form, discard each commutator of a power whose
  base commutator is already present, and compare with the canonical
  presentation of A(g).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import (
    InvalidAmalgamError,
    InvalidArgumentError,
    NotSeparatingCliqueError,
    StarCoversGraphError,
)
from .graphs import Graph, VertexSet

Letter = tuple[str, int]
Word = tuple[Letter, ...]

SUFFIX_STAR = "_1"
SUFFIX_AMBIENT = "_2"


def free_reduce(word: Sequence[Letter]) -> Word:
    """Cancel adjacent ``g g^-1`` pairs until none remain.

    >>> free_reduce((("a", 1), ("b", 1), ("b", -1), ("a", 1)))
    (('a', 1), ('a', 1))
    """
    out: list[Letter] = []
    for gen, exp in word:
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def inverse_word(word: Sequence[Letter]) -> Word:
    return tuple((gen, -exp) for gen, exp in reversed(word))


def commutator(x: str, y: str) -> Word:
    return ((x, 1), (y, 1), (x, -1), (y, -1))


def syllables(word: Sequence[Letter]) -> tuple[tuple[str, int], ...]:
    """Merge runs of equal generators into (generator, total exponent)
    pairs."""
    out: list[tuple[str, int]] = []
    for gen, exp in word:
        if out and out[-1][0] == gen:
            out[-1] = (gen, out[-1][1] + exp)
        else:
            out.append((gen, exp))
    return tuple(p for p in out if p[1] != 0)


def _commutator_pair(word: Word) -> Optional[tuple[str, str]]:
    """The (x, y) of a freely reduced word of shape x^p y^q x^-p y^-q,
    else None.  A plain commutator is the case of length 4."""
    syl = syllables(word)
    if len(syl) != 4:
        return None
    (g0, p0), (g1, p1), (g2, p2), (g3, p3) = syl
    if g0 == g2 and g1 == g3 and g0 != g1 and p0 == -p2 and p1 == -p3:
        return (g0, g1)
    return None


def _normalize_relator(word: Sequence[Letter], order: Mapping[str, int]) -> Word:
    reduced = free_reduce(word)
    pair = _commutator_pair(reduced) if len(reduced) == 4 else None
    if pair is not None:
        x, y = pair
        if order[x] > order[y]:
            x, y = y, x
        return commutator(x, y)
    return reduced


def _check_letter(gen, exp, scope, error: type[InvalidArgumentError], where: str) -> None:
    """Raise ``error`` unless ``gen`` is a str in ``scope`` and ``exp`` is
    a non-bool int equal to 1 or -1."""
    if not isinstance(gen, str) or gen not in scope:
        raise error(f"{where} uses {gen!r}, not one of its generators")
    if type(exp) is not int or exp not in (1, -1):
        raise error(f"{where}: letter exponent must be the integer 1 or -1, got {exp!r}")


@dataclass(frozen=True)
class Presentation:
    """A finite presentation with deterministic, normalized relators."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __init__(self, generators, relators=()):
        gens = tuple(generators)
        if not all(isinstance(x, str) for x in gens):
            raise InvalidArgumentError(f"generator names must be strings, got {gens!r}")
        if len(set(gens)) != len(gens):
            raise InvalidArgumentError("duplicate generator name")
        order = {x: i for i, x in enumerate(gens)}
        seen = set()
        normalized = []
        for word in relators:
            w = [(gen, exp) for gen, exp in word]
            for gen, exp in w:
                _check_letter(gen, exp, order, InvalidArgumentError, "relator")
            w = _normalize_relator(w, order)
            if w and w not in seen:
                seen.add(w)
                normalized.append(w)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(normalized))

    def text(self) -> str:
        """Human-readable ``< generators | relators >`` rendering.

        >>> Presentation(("a", "b"), [commutator("a", "b")]).text()
        '< a, b | [a,b] >'
        """
        rels = ", ".join(render_word(w) for w in self.relators)
        body = f"{', '.join(self.generators)} | {rels}" if rels else f"{', '.join(self.generators)} |"
        return f"< {body} >"


def render_word(word: Word) -> str:
    if len(word) == 4 and word == commutator(word[0][0], word[1][0]):
        return f"[{word[0][0]},{word[1][0]}]"
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in word)


@dataclass(frozen=True)
class Amalgam:
    """Two factor presentations glued over shared edge generators.

    ``embed1`` and ``embed2`` send each edge generator to a word over
    factor1 and factor2 respectively; the amalgamated group is the
    quotient of the free product by the identifications
    embed1(e) = embed2(e).
    """

    factor1: Presentation
    factor2: Presentation
    edge_generators: tuple[str, ...]
    embed1: Mapping[str, Word] = field(default_factory=dict)
    embed2: Mapping[str, Word] = field(default_factory=dict)


def _raag_on(g: Graph, keep: VertexSet, suffix: str = "") -> Presentation:
    """Canonical presentation of A(g[keep]) with ``suffix`` appended to
    every generator name: one generator per vertex of the sorted set
    ``keep``, one commutator relator per edge of g inside it, both in
    vertex order.  The edges come from walking each kept vertex's
    adjacency mask restricted to the later kept vertices, so the cost
    follows the size of g[keep], not of g."""
    names = {i: g.labels[i] + suffix for i in keep}
    mask = g._mask_of(keep)
    adj = g.adjacency_masks
    relators = []
    for i in keep:
        later = adj[i] & mask & ~((2 << i) - 1)
        while later:
            low = later & -later
            later ^= low
            relators.append(commutator(names[i], names[low.bit_length() - 1]))
    return Presentation(names.values(), relators)


def raag_presentation(g: Graph) -> Presentation:
    """Canonical presentation of A(g): one generator per vertex, one
    commutator relator per edge, both in vertex order.

    >>> from .graphs import path_graph
    >>> raag_presentation(path_graph("abc")).text()
    '< a, b, c | [a,b], [b,c] >'
    """
    return _raag_on(g, g.vertices())


def normalizer_of_special(g: Graph, s) -> VertexSet:
    """Vertex set generating the normalizer (= commensurator) of the
    special subgroup on ``s``: the star of ``s``."""
    return g.star(s)


def direct_amalgam(g: Graph, s) -> Amalgam:
    """Amalgam of A(g) along the separating clique ``s``.

    Factor 1 covers ``s`` plus the first component of g minus s, factor
    2 covers ``s`` plus the rest; both embeddings are identity on
    labels.  An empty ``s`` on a disconnected graph yields a free
    product with trivial edge group.
    """
    s = g.vertex_set(s)
    if not g.is_clique(s):
        raise NotSeparatingCliqueError(f"{g.labels_of(s)} is not a clique")
    if not g.separates(s):
        raise NotSeparatingCliqueError(f"{g.labels_of(s)} does not separate the graph")
    comps = g.induced_complement_components(s)
    side1 = g.vertex_set(set(s) | set(comps[0]))
    side2 = g.vertex_set(set(s).union(*comps[1:]) if len(comps) > 1 else set(s))
    edge_gens = g.labels_of(s)
    identity = {x: ((x, 1),) for x in edge_gens}
    return Amalgam(
        factor1=_raag_on(g, side1),
        factor2=_raag_on(g, side2),
        edge_generators=edge_gens,
        embed1=identity,
        embed2=dict(identity),
    )


def star_split(g: Graph, u: int) -> Amalgam:
    """Amalgam exhibiting A(g) as a splitting over the star of ``u``.

    Requires star(u) != V(g).  The star-side factor gets suffix ``_1``,
    the whole-graph factor suffix ``_2``; ``u`` embeds as the square
    u_1 u_1 on the star side.
    """
    star = g.star((u,))
    if star == g.vertices():
        raise StarCoversGraphError(
            f"star of {g.labels[u]!r} is the whole graph; no splitting along it"
        )
    star_labels = g.labels_of(star)
    u_label = g.labels[u]
    embed1 = {}
    for x in star_labels:
        if x == u_label:
            embed1[x] = ((x + SUFFIX_STAR, 1), (x + SUFFIX_STAR, 1))
        else:
            embed1[x] = ((x + SUFFIX_STAR, 1),)
    embed2 = {x: ((x + SUFFIX_AMBIENT, 1),) for x in star_labels}
    return Amalgam(
        factor1=_raag_on(g, star, SUFFIX_STAR),
        factor2=_raag_on(g, g.vertices(), SUFFIX_AMBIENT),
        edge_generators=star_labels,
        embed1=embed1,
        embed2=embed2,
    )


def _substitute(word: Word, table: Mapping[str, Word]) -> Word:
    out: list[Letter] = []
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
                _check_letter(gen, exp, scope, InvalidAmalgamError, f"{name}[{e!r}]")


def verify_star_split(g: Graph, a: Amalgam) -> bool:
    """Replay the star-split rewriting and compare with A(g)'s canonical
    presentation.

    Builds the amalgam's full presentation (both factors' relators plus
    the identifications embed1(e) = embed2(e)), eliminates each
    factor-2 copy of a star generator, relabels by stripping the fixed
    suffixes, brings each relator to the :class:`Presentation` normal
    form, drops every commutator of a power whose base commutator is
    present, and returns whether the relator set equals the one of
    :func:`raag_presentation`.

    The rewriting is only the documented one when exactly one edge
    generator embeds as a square of a single factor-1 generator and all
    remaining identification words are single generators; any other
    shape returns False.  Structurally broken amalgams (embeddings off
    their factors, non-unit exponents, colliding names) raise
    InvalidAmalgamError.
    """
    _check_amalgam(a)
    f1gens = a.factor1.generators
    f2gens = a.factor2.generators
    f1set = set(f1gens)
    if f1set & set(f2gens):
        raise InvalidAmalgamError("factor generator names overlap")

    embed1 = {e: free_reduce(a.embed1[e]) for e in a.edge_generators}
    squares = 0
    for w in embed1.values():
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

    # Tietze eliminations: each identified factor-2 generator becomes its
    # embed1 word
    table = {targets[e]: embed1[e] for e in a.edge_generators}
    combined = list(a.factor1.relators) + [_substitute(w, table) for w in a.factor2.relators]
    survivors = list(f1gens) + [x for x in f2gens if x not in table]

    relabel = {}
    for x in survivors:
        suffix = SUFFIX_STAR if x in f1set else SUFFIX_AMBIENT
        if not x.endswith(suffix):
            return False
        relabel[x] = x[: -len(suffix)]
    if len(set(relabel.values())) != len(relabel):
        return False

    target = raag_presentation(g)
    if sorted(relabel.values()) != sorted(target.generators):
        return False
    order = {x: i for i, x in enumerate(target.generators)}

    kept: set[Word] = set()
    powers = []
    for w in combined:
        w = _normalize_relator([(relabel[x], e) for x, e in w], order)
        if not w:
            continue
        pair = _commutator_pair(w)
        if pair is None:
            return False
        if len(w) == 4:
            kept.add(w)
        else:
            powers.append(pair)

    # commutation of a power follows from commutation of the base
    if any(_normalize_relator(commutator(*pair), order) not in kept for pair in powers):
        return False

    return kept == set(target.relators)
