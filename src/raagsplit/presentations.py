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
  among them.  :func:`verify_star_split` accepts star splits only and
  runs the same replay.

There is one replay, on integer tables: for each factor, the vertex
index every generator code stands for after the eliminations, and the
factor-2 generator that stands for a square.  It reads both factors'
coded relators through those tables and compares the pairs with g's
adjacency masks.  :func:`direct_amalgam` and :func:`star_split` attach
these tables to the amalgam they build, as a private coded form that
takes no part in equality or repr.  The replay trusts them only for
the graph the amalgam was built on, and only while its ``embed1`` and
``embed2`` dicts still equal the ones built; :func:`dataclasses.replace`
drops the coded form.  Every other amalgam is checked structurally,
raising InvalidAmalgamError when broken, and decoded from its labels
into the same tables.  :func:`star_split` builds the whole-graph factor
once per graph and shares it between the graph's star splits.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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


class _Coded(NamedTuple):
    """What :func:`direct_amalgam` or :func:`star_split` knew when it
    built an amalgam.  Factor-1 generator k is the vertex
    ``vertices1[k - 1]`` and factor-2 generator k the vertex
    ``vertices2[k - 1]``; ``square`` is the index into ``vertices2`` of
    the generator whose embed1 word is a square (None for a direct
    amalgam).  ``embed1`` and ``embed2`` are copies of the embeddings as
    built: the public dicts are mutable, so the replay trusts these
    tables only while they still compare equal."""

    graph: Graph
    vertices1: VertexSet
    vertices2: VertexSet
    square: Optional[int]
    embed1: dict
    embed2: dict


@dataclass(frozen=True)
class Amalgam:
    """Two factor presentations glued over shared edge generators.

    ``embed1`` and ``embed2`` send each edge generator to a word over
    factor1 and factor2 respectively; the amalgamated group is the
    quotient of the free product by the identifications
    embed1(e) = embed2(e).

    An amalgam built by :func:`direct_amalgam` or :func:`star_split`
    also carries its coded form, which takes no part in equality or
    repr; :func:`dataclasses.replace` drops it.
    """

    factor1: Presentation
    factor2: Presentation
    edge_generators: tuple[str, ...]
    embed1: Mapping[str, Word] = field(default_factory=dict)
    embed2: Mapping[str, Word] = field(default_factory=dict)
    _coded: Optional[_Coded] = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def _from_codes(
        cls,
        g: Graph,
        factor1: Presentation,
        factor2: Presentation,
        embed1: dict,
        embed2: dict,
        vertices1: VertexSet,
        vertices2: VertexSet,
        square: Optional[int],
    ) -> "Amalgam":
        """An amalgam a package constructor built, with its coded form
        (see :class:`_Coded`) attached and no checks; the edge generators
        are embed1's keys, in order."""
        a = object.__new__(cls)
        a.__dict__.update(
            factor1=factor1,
            factor2=factor2,
            edge_generators=tuple(embed1),
            embed1=embed1,
            embed2=embed2,
            _coded=_Coded(g, vertices1, vertices2, square, dict(embed1), dict(embed2)),
        )
        return a


def _raag_on(g: Graph, keep: VertexSet, suffix: str = "") -> Presentation:
    """Canonical presentation of A(g[keep]) with ``suffix`` appended to
    every generator name: one generator per vertex of ``keep`` in vertex
    order, one commutator relator per edge of g inside it, in vertex
    order.  The edges come from walking each kept vertex's adjacency
    mask restricted to the later kept vertices, so the cost follows the
    size of g[keep], not of g.  The code of a kept vertex is one plus
    the number of kept vertices before it.  The coded relator of edge
    (i, j) is (a, b, -a, -b), with a < b the codes of i and j: already
    in normal form, so nothing is checked or normalised again.  ``keep``
    must be a sorted tuple of distinct vertex indices of g, as every
    caller has already made or checked it."""
    mask = 0
    for i in keep:
        mask |= 1 << i
    adj = g.adjacency_masks
    relators = []
    for a, i in enumerate(keep, 1):
        later = adj[i] & mask & ~((2 << i) - 1)
        while later:
            low = later & -later
            later ^= low
            b = (mask & (low - 1)).bit_count() + 1
            relators.append((a, b, -a, -b))
    labels = g.labels
    return Presentation._from_codes(tuple([labels[i] + suffix for i in keep]), tuple(relators))


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
    comps = g.induced_complement_components(s)
    if len(comps) < 2:
        raise NotSeparatingCliqueError(f"{g.labels_of(s)} does not separate the graph")
    side1 = g.vertex_set(set(s) | set(comps[0]))
    side2 = g.vertex_set(set(s).union(*comps[1:]))
    edge_gens = g.labels_of(s)
    identity = {x: ((x, 1),) for x in edge_gens}
    return Amalgam._from_codes(
        g, _raag_on(g, side1), _raag_on(g, side2), identity, dict(identity), side1, side2, None
    )


def star_split(g: Graph, u: int) -> Amalgam:
    """Amalgam exhibiting A(g) as a splitting over the star of ``u``.

    Requires star(u) != V(g).  The star-side factor gets suffix ``_1``,
    the whole-graph factor suffix ``_2``; ``u`` embeds as the square
    u_1 u_1 on the star side.  The whole-graph factor is built once per
    graph and shared by its star splits.
    """
    if u.__class__ is not int or not 0 <= u < g.n:
        # vertex_set raises for a bad index, and keeps an int subclass
        (u,) = g.vertex_set((u,))
    star_mask = g.adjacency_masks[u] | 1 << u
    if star_mask == (1 << g.n) - 1:
        raise StarCoversGraphError(
            f"star of {g.labels[u]!r} is the whole graph; no splitting along it"
        )
    star = _mask_to_set(star_mask)
    ambient = g._cache.get("raag_ambient")
    if ambient is None:
        ambient = g._cache["raag_ambient"] = _raag_on(g, g.vertices(), SUFFIX_AMBIENT)
    factor1 = _raag_on(g, star, SUFFIX_STAR)
    # both factors already hold the suffixed names
    labels, names2 = g.labels, ambient.generators
    embed1, embed2 = {}, {}
    for i, x1 in zip(star, factor1.generators):
        embed1[labels[i]] = ((x1, 1),)
        embed2[labels[i]] = ((names2[i], 1),)
    embed1[labels[u]] *= 2
    # the whole-graph factor lists every vertex in order, so u's factor-2
    # generator is the u-th
    return Amalgam._from_codes(g, factor1, ambient, embed1, embed2, star, g.vertices(), u)


def _check_amalgam(a: Amalgam) -> None:
    for p in (a.factor1, a.factor2):
        if not isinstance(p, Presentation):
            raise InvalidAmalgamError("factors must be presentations")
    gens = a.edge_generators
    if (
        isinstance(gens, str)
        or not isinstance(gens, Iterable)
        or not all(isinstance(e, str) for e in gens)
    ):
        raise InvalidAmalgamError(f"edge generators must be a sequence of strs, got {gens!r}")
    edge_gens = tuple(gens)
    if len(set(edge_gens)) != len(edge_gens):
        raise InvalidAmalgamError("edge generators must be distinct")
    for name, embed, factor in (
        ("embed1", a.embed1, a.factor1),
        ("embed2", a.embed2, a.factor2),
    ):
        if not isinstance(embed, Mapping):
            raise InvalidAmalgamError(f"{name} must be a mapping, got {embed!r}")
        if set(embed) != set(edge_gens):
            raise InvalidAmalgamError(f"{name} must be defined exactly on the edge generators")
        scope = set(factor.generators)
        for e, w in embed.items():
            try:
                letters = iter(w)
            except TypeError:
                raise InvalidAmalgamError(f"{name}[{e!r}] must be a word, got {w!r}") from None
            for letter in letters:
                _check_letter(letter, scope, InvalidAmalgamError, f"{name}[{e!r}]")


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

    Structurally broken amalgams (embeddings that are not mappings of
    words over their factors, non-unit exponents, edge generators that
    are not distinct strs) raise InvalidAmalgamError.

    >>> from .graphs import path_graph
    >>> g = path_graph("abc")
    >>> verify_amalgam(g, direct_amalgam(g, (1,))), verify_amalgam(g, star_split(g, 0))
    (True, True)
    """
    return _verify(g, a, star_only=False)


def verify_star_split(g: Graph, a: Amalgam) -> bool:
    """Replay a star split (:func:`star_split`) with
    :func:`verify_amalgam`.

    Raises InvalidAmalgamError when the factors share a generator name,
    and returns False unless exactly one edge generator embeds as a
    square on the star side, so a direct amalgam never passes as a star
    split.
    """
    return _verify(g, a, star_only=True)


def _verify(g: Graph, a: Amalgam, star_only: bool) -> bool:
    """:func:`verify_amalgam`, or with ``star_only``
    :func:`verify_star_split`: the replay's tables, then :func:`_replay`.

    An amalgam that still holds the coded form its constructor attached,
    verified against the graph it was built on with both embeddings
    equal to the ones built, takes its tables from that form.  Any other
    amalgam is checked by :func:`_check_amalgam` and decoded from its
    labels by :func:`_decode`."""
    c = a._coded
    if (
        c is not None
        and (c.square is not None or not star_only)
        and (g is c.graph or g == c.graph)
        and a.embed1 == c.embed1
        and a.embed2 == c.embed2
    ):
        return _replay(g, a, c.vertices1, c.vertices2, c.square)
    _check_amalgam(a)
    tables = _decode(g, a, star_only)
    return tables is not None and _replay(g, a, *tables)


def _decode(
    g: Graph, a: Amalgam, star_only: bool
) -> Optional[tuple[list[int], list[int], Optional[int]]]:
    """The replay's tables for an amalgam that passed
    :func:`_check_amalgam`, read off its labels, in the form of
    :class:`_Coded`: the vertex of each factor-1 generator, the vertex
    each factor-2 generator stands for after the eliminations (its own
    if it survives, its embed1 letter's if it is eliminated), and the
    factor-2 generator whose embed1 word is a square.  None when the
    amalgam has neither shape :func:`verify_amalgam` accepts (with
    ``star_only``, when it is not a star split), or when the surviving
    names do not cover the vertices of g exactly once.  With
    ``star_only``, factors that share a generator name raise
    InvalidAmalgamError.

    Embed words are coded over their factor and freely reduced; a name
    is decoded through a ``{label + suffix: index}`` map, with the
    suffixes of the amalgam's shape."""
    f1gens = a.factor1.generators
    f2gens = a.factor2.generators
    edge_gens = a.edge_generators
    code1 = {x: k for k, x in enumerate(f1gens, 1)}
    code2 = {x: k for k, x in enumerate(f2gens, 1)}
    words1 = [_reduce_codes([exp * code1[x] for x, exp in a.embed1[e]]) for e in edge_gens]
    words2 = [_reduce_codes([exp * code2[x] for x, exp in a.embed2[e]]) for e in edge_gens]
    shared = code1.keys() & code2.keys()
    if star_only and shared:
        raise InvalidAmalgamError("factor generator names overlap")
    if (
        not star_only
        and shared == set(edge_gens)
        and all(w == (code1[e],) for e, w in zip(edge_gens, words1))
        and all(w == (code2[e],) for e, w in zip(edge_gens, words2))
    ):
        names1 = names2 = g._index
    elif shared or sum(len(w) == 2 and w[0] == w[1] > 0 for w in words1) != 1:
        return None
    else:
        names1 = {x + SUFFIX_STAR: i for i, x in enumerate(g.labels)}
        names2 = {x + SUFFIX_AMBIENT: i for i, x in enumerate(g.labels)}

    # Tietze eliminations: each identified factor-2 generator becomes its
    # embed1 word, one factor-1 letter or its square
    table = {}
    for w1, w2 in zip(words1, words2):
        if not (len(w1) == 1 or len(w1) == 2 and w1[0] == w1[1]) or w1[0] < 0:
            return None
        if len(w2) != 1 or w2[0] < 0 or w2[0] in table:
            return None
        table[w2[0]] = w1

    # a name without its shape's suffix, or naming no vertex, decodes to -1
    vertices1 = [names1.get(x, -1) for x in f1gens]
    vertices2 = [names2.get(x, -1) for x in f2gens]
    found = vertices1 + [v for k, v in enumerate(vertices2, 1) if k not in table]
    if len(found) != g.n or len(set(found) - {-1}) != g.n:
        return None
    square = None
    for k, w1 in table.items():
        vertices2[k - 1] = vertices1[w1[0] - 1]
        if len(w1) == 2:
            square = k - 1
    return vertices1, vertices2, square


def _replay(
    g: Graph, a: Amalgam, vertices1: Sequence[int], vertices2: Sequence[int], square: Optional[int]
) -> bool:
    """The rewriting of :func:`verify_amalgam` on integer tables, shaped
    as :class:`_Coded`: factor-1 generator k stands for the vertex
    ``vertices1[k - 1]``, and factor-2 generator k, after the
    eliminations, for the vertex ``vertices2[k - 1]``, or for its square
    when k - 1 is ``square``.  Both factors' coded relators are read
    through these tables, and the plain pairs read off them are compared
    with g's adjacency masks.

    The tables come from the coded form a package constructor attached,
    or from :func:`_decode` for every other amalgam; this is the only
    replay.

    A relator of the plain commutator shape (a, b, -a, -b) becomes
    x^p y^q x^-p y^-q, with x and y the vertices a and b stand for.
    When x = y it reduces to nothing.  That happens only in factor 2,
    where two generators can stand for one vertex: factor-1 generators
    stand for distinct vertices, and a stored relator of this shape
    names two generators.  Otherwise the word is reduced, and its pair
    (x, y) is read off that shape, plain unless a or b is the squared
    generator.  That covers every relator of a package-built amalgam.
    Any other relator is substituted letter by letter, freely reduced
    when it comes from factor 2, and read by :func:`_code_pair`."""
    # the codes of the squared factor-2 generator and of its inverse
    squared2 = () if square is None else (square + 1, -square - 1)
    # plain[x]: the vertices that share a plain commutator with vertex x,
    # as bits, to be compared with g's adjacency masks
    plain = [0] * g.n
    powers = []
    for vertices, codes, squared, reduce in (
        (vertices1, a.factor1._codes, (), False),
        (vertices2, a.factor2._codes, squared2, True),
    ):
        # signed lookup: entries c and -c are the vertex of generator c
        look = (-1, *vertices, *reversed(vertices))
        for w in codes:
            if len(w) == 4:
                p, q, r, s = w
                if r == -p and s == -q:
                    x, y = look[p], look[q]
                    if x == y:
                        continue
                    if p in squared or q in squared:
                        powers.append((x, y))
                    else:
                        plain[x] |= 1 << y
                        plain[y] |= 1 << x
                    continue
            word = []
            for c in w:
                # vertex codes: vertex index plus one, signed
                x = look[c] + 1 if c > 0 else -look[c] - 1
                word += (x, x) if c in squared else (x,)
            if reduce:
                word = _reduce_codes(word)
            if not word:
                continue
            pair = _code_pair(word)
            if pair is None:
                return False
            x, y = pair[0] - 1, pair[1] - 1
            if len(word) == 4:
                plain[x] |= 1 << y
                plain[y] |= 1 << x
            else:
                powers.append((x, y))
    if tuple(plain) != g.adjacency_masks:
        return False
    for x, y in powers:
        if not plain[x] >> y & 1:
            return False
    return True
