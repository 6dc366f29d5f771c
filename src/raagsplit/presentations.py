"""Presentation-level constructions for right-angled Artin groups.

At the public API words are tuples of ``(generator, exponent)``
letters; every generator is a str and every exponent is the integer 1
or -1 (not a bool, not a float); nothing is coerced.  A
:class:`Presentation` checks every letter it is given, keeps its
relators freely reduced and stores every commutator relator in the
normal form ``[x, y]`` = x y x⁻¹ y⁻¹ with x before y in generator
order, so presentations built along different routes compare
syntactically.

Inside a presentation each relator is stored as a tuple of signed
generator codes: generator k is the letter ``k + 1`` and its inverse
``-(k + 1)``, so ``[x, y]`` on generators 0 and 1 is ``(1, 2, -1, -2)``.
Equality and hashing compare the generators and these codes;
:attr:`Presentation.relators`, :meth:`Presentation.text` and the CLI
decode to labelled words only at that boundary.

Every presentation of A(g[S]) for a vertex subset S (the whole group,
the factors of both amalgams, the groups of a graph of groups) comes
from one private function that reads the edges of g inside S, names
each generator by its vertex label plus an optional suffix, and writes
each edge's commutator already coded and in normal form.

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
* :func:`verify_amalgam` replays the rewriting argument for either
  amalgam: eliminate each identified factor-2 generator through the
  identification relators, relabel (no suffix for a direct amalgam,
  ``_1`` and ``_2`` stripped for a star split), read every relator as
  a commutator pair, and require the plain pairs to be exactly the
  edges of g and every commutator of powers to have its base pair
  among them.  The replay runs on vertex codes: each surviving
  generator becomes its vertex index plus one, each eliminated one its
  coded embed1 word.  :func:`verify_star_split` accepts star splits
  only and runs the same replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    InvalidAmalgamError,
    InvalidArgumentError,
    NotSeparatingCliqueError,
    StarCoversGraphError,
)
from .graphs import Graph, VertexSet, _mask_to_set

Letter = tuple[str, int]
Word = tuple[Letter, ...]
_Code = tuple[int, ...]  # letter k + 1 or -(k + 1) for generator k

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


def _reduce_codes(word: Iterable[int]) -> _Code:
    """:func:`free_reduce` on a coded word: cancel adjacent ``c, -c``."""
    out: list[int] = []
    for c in word:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _code_pair(word: Sequence[int]) -> Optional[tuple[int, int]]:
    """The generator codes (x, y) of a freely reduced coded word of shape
    x^p y^q x^-p y^-q, else None.  A plain commutator is the case of
    length 4, read directly; longer words are read as syllables."""
    if len(word) == 4:
        a, b, c, d = word
        if a == -c and b == -d and a != b and a != -b:
            return abs(a), abs(b)
        return None
    # a reduced word's runs never cancel, so no syllable has exponent 0;
    # c // x is the letter's sign
    syl: list[list[int]] = []
    for c in word:
        x = abs(c)
        if syl and syl[-1][0] == x:
            syl[-1][1] += c // x
        else:
            syl.append([x, c // x])
    if len(syl) != 4:
        return None
    (x0, p0), (x1, p1), (x2, p2), (x3, p3) = syl
    if x0 == x2 and x1 == x3 and x0 != x1 and p0 == -p2 and p1 == -p3:
        return x0, x1
    return None


def _check_letter(letter, scope, error: type[InvalidArgumentError], where: str) -> tuple:
    """The ``(gen, exp)`` of ``letter``; raise ``error`` unless it is a
    pair, ``gen`` is a str in ``scope`` and ``exp`` is a non-bool int
    equal to 1 or -1."""
    try:
        gen, exp = letter
    except (TypeError, ValueError):
        raise error(
            f"{where}: a letter must be a (generator, exponent) pair, got {letter!r}"
        ) from None
    if not isinstance(gen, str) or gen not in scope:
        raise error(f"{where} uses {gen!r}, not one of its generators")
    if type(exp) is not int or exp not in (1, -1):
        raise error(f"{where}: letter exponent must be the integer 1 or -1, got {exp!r}")
    return gen, exp


@dataclass(frozen=True, init=False, repr=False)
class Presentation:
    """A finite presentation with deterministic, normalized relators.

    Relators are stored as coded words (see the module docstring);
    :attr:`relators` decodes them to labelled words.  Two presentations
    are equal when their generators and coded relators are."""

    generators: tuple[str, ...]
    _codes: tuple[_Code, ...]

    def __init__(self, generators, relators=()):
        gens = tuple(generators)
        if not all(isinstance(x, str) for x in gens):
            raise InvalidArgumentError(f"generator names must be strings, got {gens!r}")
        if len(set(gens)) != len(gens):
            raise InvalidArgumentError("duplicate generator name")
        code = {x: i for i, x in enumerate(gens, 1)}
        seen = set()
        normalized = []
        for word in relators:
            w = []
            for letter in word:
                gen, exp = _check_letter(letter, code, InvalidArgumentError, "relator")
                w.append(exp * code[gen])
            w = _reduce_codes(w)
            pair = _code_pair(w) if len(w) == 4 else None
            if pair is not None:
                x, y = sorted(pair)
                w = (x, y, -x, -y)
            if w and w not in seen:
                seen.add(w)
                normalized.append(w)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_codes", tuple(normalized))

    @classmethod
    def _from_codes(cls, generators: tuple[str, ...], codes: tuple[_Code, ...]) -> "Presentation":
        """A presentation from distinct str generators and coded relators
        already in normal form, with no checks."""
        p = object.__new__(cls)
        object.__setattr__(p, "generators", generators)
        object.__setattr__(p, "_codes", codes)
        return p

    @property
    def relators(self) -> tuple[Word, ...]:
        """The relators as labelled words."""
        gens = self.generators
        return tuple(
            tuple((gens[c - 1], 1) if c > 0 else (gens[-c - 1], -1) for c in w)
            for w in self._codes
        )

    def __repr__(self) -> str:
        return f"Presentation(generators={self.generators!r}, relators={self.relators!r})"

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
    every generator name: one generator per vertex of ``keep`` in vertex
    order, one commutator relator per edge of g inside it, in vertex
    order.  The edges come from walking each kept vertex's adjacency
    mask restricted to the later kept vertices, so the cost follows the
    size of g[keep], not of g.  The coded relator of edge (i, j) is
    (a, b, -a, -b), with a < b the codes of i and j: already in normal
    form, so nothing is checked or normalised again.  ``keep`` must be
    a sorted tuple of distinct vertex indices of g, as every caller has
    already made or checked it."""
    code, mask = {}, 0
    for k, i in enumerate(keep, 1):
        code[i] = k
        mask |= 1 << i
    adj = g.adjacency_masks
    relators = []
    for i in keep:
        a = code[i]
        later = adj[i] & mask & ~((2 << i) - 1)
        while later:
            low = later & -later
            later ^= low
            b = code[low.bit_length() - 1]
            relators.append((a, b, -a, -b))
    labels = g.labels
    return Presentation._from_codes(tuple(labels[i] + suffix for i in keep), tuple(relators))


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
    (u,) = g.vertex_set((u,))
    star_mask = g.adjacency_masks[u] | 1 << u
    if star_mask == (1 << g.n) - 1:
        raise StarCoversGraphError(
            f"star of {g.labels[u]!r} is the whole graph; no splitting along it"
        )
    star = _mask_to_set(star_mask)
    labels = g.labels
    star_labels = tuple(labels[i] for i in star)
    embed1 = {x: ((x + SUFFIX_STAR, 1),) for x in star_labels}
    embed1[labels[u]] = embed1[labels[u]] * 2
    embed2 = {x: ((x + SUFFIX_AMBIENT, 1),) for x in star_labels}
    return Amalgam(
        factor1=_raag_on(g, star, SUFFIX_STAR),
        factor2=_raag_on(g, g.vertices(), SUFFIX_AMBIENT),
        edge_generators=star_labels,
        embed1=embed1,
        embed2=embed2,
    )


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
            for letter in w:
                _check_letter(letter, scope, InvalidAmalgamError, f"{name}[{e!r}]")


def _is_square(w: Word) -> bool:
    return len(w) == 2 and w[0] == w[1] and w[0][1] == 1


def verify_amalgam(g: Graph, a: Amalgam) -> bool:
    """Replay the rewriting that turns the amalgam ``a`` into A(g).

    Builds the amalgam's full presentation (both factors' relators plus
    the identifications embed1(e) = embed2(e)), eliminates each
    identified factor-2 generator by substituting its embed1 word, and
    relabels the surviving generators by the amalgam's naming scheme.
    Then every relator must be a commutator x^p y^q x^-p y^-q.  The
    plain ones (p, q = ±1), as unordered label pairs, must be exactly
    the edges of g, and each commutator of powers must have its base
    pair among them, since it follows from that commutator.

    Two shapes are replayed; any other returns False:

    * a direct amalgam (:func:`direct_amalgam`): the factors share
      exactly the edge generators and both embeddings are identity on
      them; names are kept as they are;
    * a star split (:func:`star_split`): the factor names are disjoint,
      exactly one edge generator embeds as a square of a single
      factor-1 generator, the other embed1 words and every embed2 word
      are single generators; the suffixes ``_1`` and ``_2`` are
      stripped.

    Structurally broken amalgams (embeddings off their factors,
    non-unit exponents, repeated edge generators) raise
    InvalidAmalgamError.

    >>> from .graphs import path_graph
    >>> g = path_graph("abc")
    >>> verify_amalgam(g, direct_amalgam(g, (1,))), verify_amalgam(g, star_split(g, 0))
    (True, True)
    """
    _check_amalgam(a)
    return _replay(g, a, {e: free_reduce(a.embed1[e]) for e in a.edge_generators})


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


def verify_star_split(g: Graph, a: Amalgam) -> bool:
    """Replay a star split (:func:`star_split`) with
    :func:`verify_amalgam`.

    Raises InvalidAmalgamError when the factors share a generator name,
    and returns False unless exactly one edge generator embeds as a
    square on the star side, so a direct amalgam never passes as a star
    split.
    """
    _check_amalgam(a)
    if set(a.factor1.generators) & set(a.factor2.generators):
        raise InvalidAmalgamError("factor generator names overlap")
    embed1 = {e: free_reduce(a.embed1[e]) for e in a.edge_generators}
    if sum(map(_is_square, embed1.values())) != 1:
        return False
    return _replay(g, a, embed1)
