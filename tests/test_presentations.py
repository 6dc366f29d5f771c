"""Presentations, amalgams, and the star-split verification."""

from __future__ import annotations

import random
from dataclasses import fields, replace

import pytest

from conftest import (
    connected_graphs,
    random_connected_graph,
    replay_oracle,
    replay_star_split_oracle,
    verify_amalgam_oracle,
    verify_star_split_oracle,
)
from raagsplit import presentations
from raagsplit.errors import (
    InvalidAmalgamError,
    InvalidArgumentError,
    InvalidVertexError,
    NotSeparatingCliqueError,
    StarCoversGraphError,
)
from raagsplit.graphs import Graph, complete_graph, cycle_graph, path_graph
from raagsplit.splitting import DIRECT_AMALGAM, STAR_SPLIT, splits_over_rank
from raagsplit.presentations import (
    SUFFIX_AMBIENT,
    SUFFIX_STAR,
    Amalgam,
    Presentation,
    _raag_on,
    commutator,
    direct_amalgam,
    free_reduce,
    inverse_word,
    normalizer_of_special,
    raag_presentation,
    render_word,
    star_split,
    syllables,
    verify_amalgam,
    verify_star_split,
)


class TestWords:
    def test_free_reduce_cancels(self):
        assert free_reduce((("a", 1), ("a", -1))) == ()

    def test_free_reduce_inner_pair(self):
        w = (("a", 1), ("b", 1), ("b", -1), ("a", 1))
        assert free_reduce(w) == (("a", 1), ("a", 1))

    def test_free_reduce_cascade(self):
        w = (("a", 1), ("b", 1), ("b", -1), ("a", -1))
        assert free_reduce(w) == ()

    def test_inverse_word(self):
        assert inverse_word(commutator("x", "y")) == commutator("y", "x")
        assert free_reduce(commutator("x", "y") + inverse_word(commutator("x", "y"))) == ()

    def test_commutator_shape(self):
        assert commutator("a", "b") == (("a", 1), ("b", 1), ("a", -1), ("b", -1))

    def test_syllables(self):
        w = (("a", 1), ("a", 1), ("b", -1), ("a", 1))
        assert syllables(w) == (("a", 2), ("b", -1), ("a", 1))

    def test_render_word(self):
        assert render_word(commutator("a", "b")) == "[a,b]"
        assert render_word((("a", 1), ("b", -1))) == "a b^-1"


class TestPresentation:
    def test_commutator_reordered_to_generator_order(self):
        p = Presentation(("a", "b"), [commutator("b", "a")])
        assert p.relators == (commutator("a", "b"),)

    def test_duplicate_relators_collapse(self):
        p = Presentation(("a", "b"), [commutator("a", "b"), commutator("b", "a")])
        assert len(p.relators) == 1

    def test_trivial_relator_dropped(self):
        p = Presentation(("a",), [(("a", 1), ("a", -1))])
        assert p.relators == ()

    def test_unknown_generator(self):
        with pytest.raises(InvalidArgumentError):
            Presentation(("a",), [(("b", 1),)])

    def test_bad_exponent(self):
        with pytest.raises(InvalidArgumentError):
            Presentation(("a",), [(("a", 2),)])

    @pytest.mark.parametrize("letter", [("a", 1, 1), ("a",), None, "a"])
    def test_letter_not_a_pair(self, letter):
        with pytest.raises(InvalidArgumentError, match="a letter must be a"):
            Presentation(("a",), [(letter,)])

    def test_duplicate_generator(self):
        with pytest.raises(InvalidArgumentError):
            Presentation(("a", "a"))

    def test_non_integer_exponents_rejected(self):
        # int() used to read this as [a,b]
        with pytest.raises(InvalidArgumentError):
            Presentation(("a", "b"), [(("a", 1.7), ("b", True), ("a", -1.2), ("b", -1))])
        for exp in (True, False, 1.0, -1.0, "1"):
            with pytest.raises(InvalidArgumentError):
                Presentation(("a",), [(("a", exp),)])

    def test_non_string_names_rejected(self):
        # coercing with str() would give < 1, 2.0 | [1,2.0] >
        with pytest.raises(InvalidArgumentError):
            Presentation((1, 2.0), [((1, 1), ("2.0", 1), (1, -1), (2.0, -1))])
        # string generators, but letters that only match them after str()
        with pytest.raises(InvalidArgumentError):
            Presentation(("1", "2.0"), [((1, 1), ("2.0", 1), (1, -1), (2.0, -1))])
        with pytest.raises(InvalidArgumentError):
            Presentation(("a",), [((["a"], 1),)])

    def test_text(self):
        assert Presentation(("a", "b"), [commutator("a", "b")]).text() == "< a, b | [a,b] >"
        assert Presentation(("a", "b")).text() == "< a, b | >"


class TestRaagPresentation:
    def test_path(self):
        p = raag_presentation(path_graph("abc"))
        assert p.generators == ("a", "b", "c")
        assert p.relators == (commutator("a", "b"), commutator("b", "c"))

    def test_free_group(self):
        p = raag_presentation(Graph("xy"))
        assert p.generators == ("x", "y") and p.relators == ()

    def test_one_relator_per_edge(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(1, 8))
            assert len(raag_presentation(g).relators) == len(g.edges())


class TestNormalizer:
    def test_path_center(self):
        assert normalizer_of_special(path_graph("abc"), (1,)) == (0, 1, 2)

    def test_path_end(self):
        assert normalizer_of_special(path_graph("abc"), (0,)) == (0, 1)

    def test_empty_set(self):
        assert normalizer_of_special(path_graph("abc"), ()) == (0, 1, 2)


class TestDirectAmalgam:
    def test_path_over_center(self):
        a = direct_amalgam(path_graph("abc"), (1,))
        assert a.factor1.generators == ("a", "b")
        assert a.factor1.relators == (commutator("a", "b"),)
        assert a.factor2.generators == ("b", "c")
        assert a.edge_generators == ("b",)
        assert a.embed1 == {"b": (("b", 1),)}
        assert a.embed2 == {"b": (("b", 1),)}

    def test_free_product_over_empty_set(self):
        g = Graph("abc", [("a", "b")])
        a = direct_amalgam(g, ())
        assert a.factor1.generators == ("a", "b")
        assert a.factor2.generators == ("c",)
        assert a.edge_generators == ()

    def test_star_collects_all_other_components(self):
        g = Graph("abcd", [("b", "a"), ("b", "c"), ("b", "d")])
        a = direct_amalgam(g, (1,))
        assert a.factor1.generators == ("a", "b")
        assert a.factor2.generators == ("b", "c", "d")

    def test_endpoint_does_not_separate(self):
        with pytest.raises(NotSeparatingCliqueError):
            direct_amalgam(path_graph("abc"), (0,))

    def test_not_a_clique(self):
        with pytest.raises(NotSeparatingCliqueError):
            direct_amalgam(cycle_graph(4), (0, 2))

    def test_relators_union_to_ambient_presentation(self):
        rng = random.Random(71)
        checked = 0
        while checked < 40:
            g = random_connected_graph(rng, rng.randint(3, 9))
            for s in g.minimal_clique_separators():
                a = direct_amalgam(g, s)
                assert set(a.factor1.relators) | set(a.factor2.relators) == set(
                    raag_presentation(g).relators
                )
                checked += 1


class TestStarSplit:
    def test_path_end_vertex(self):
        a = star_split(path_graph("abc"), 0)
        assert a.factor1.generators == ("a_1", "b_1")
        assert a.factor1.relators == (commutator("a_1", "b_1"),)
        assert a.factor2.generators == ("a_2", "b_2", "c_2")
        assert a.edge_generators == ("a", "b")
        assert a.embed1["a"] == (("a_1", 1), ("a_1", 1))
        assert a.embed1["b"] == (("b_1", 1),)
        assert a.embed2["a"] == (("a_2", 1),)
        assert a.embed2["b"] == (("b_2", 1),)

    @pytest.mark.parametrize("u", [True, 1.0])
    def test_vertex_must_be_an_int(self, u):
        with pytest.raises(InvalidVertexError):
            star_split(path_graph("abcd"), u)

    def test_star_covering_graph_rejected(self):
        with pytest.raises(StarCoversGraphError):
            star_split(path_graph("abc"), 1)
        with pytest.raises(StarCoversGraphError):
            star_split(complete_graph(3), 0)


class TestVerifyStarSplit:
    def test_path_fixture(self):
        g = path_graph("abc")
        assert verify_star_split(g, star_split(g, 0))

    def test_all_small_connected_graphs(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                for u in range(n):
                    if g.star((u,)) == g.vertices():
                        continue
                    assert verify_star_split(g, star_split(g, u)), (g.edges(), u)

    def test_tampered_square_flattened(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(a, embed1={**a.embed1, "a": (("a_1", 1),)})
        assert verify_star_split(g, bad) is False

    def test_tampered_second_square(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(a, embed1={**a.embed1, "b": (("b_1", 1), ("b_1", 1))})
        assert verify_star_split(g, bad) is False

    def test_tampered_embed2_collision(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(a, embed2={**a.embed2, "a": (("b_2", 1),)})
        assert verify_star_split(g, bad) is False

    def test_tampered_embed2_long_word(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(a, embed2={**a.embed2, "a": (("a_2", 1), ("b_2", 1))})
        assert verify_star_split(g, bad) is False

    def test_wrong_ambient_graph(self):
        a = star_split(path_graph("abc"), 0)
        triangle = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert verify_star_split(triangle, a) is False
        assert verify_star_split_oracle(triangle, a) is False
        assert verify_amalgam(triangle, a) is False

    def test_missing_embedding_entry(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(a, embed1={"a": a.embed1["a"]})
        with pytest.raises(InvalidAmalgamError):
            verify_star_split(g, bad)

    def test_embedding_off_its_factor(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(a, embed1={**a.embed1, "b": (("c_2", 1),)})
        with pytest.raises(InvalidAmalgamError):
            verify_star_split(g, bad)

    def test_overlapping_factor_names(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(
            a,
            factor2=Presentation(("a_1", "b_2", "c_2")),
            embed2={**a.embed2, "a": (("a_1", 1),)},
        )
        with pytest.raises(InvalidAmalgamError):
            verify_star_split(g, bad)

    def test_bad_embed_exponent(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(a, embed1={**a.embed1, "b": (("b_1", 2),)})
        with pytest.raises(InvalidAmalgamError):
            verify_star_split(g, bad)

    def test_embed_letter_not_a_pair(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(a, embed1={**a.embed1, "b": (("b_1", 1, 1),)})
        with pytest.raises(InvalidAmalgamError, match="a letter must be a"):
            verify_star_split(g, bad)

    @pytest.mark.parametrize("exp", [True, 1.0, -1.0])
    def test_non_integer_embed_exponent(self, exp):
        g = path_graph("abc")
        a = star_split(g, 0)
        bad = replace(a, embed2={**a.embed2, "b": (("b_2", exp),)})
        with pytest.raises(InvalidAmalgamError):
            verify_star_split(g, bad)


def _star_split_corpus():
    for n in range(2, 6):
        for g in connected_graphs(n):
            for u in range(n):
                if g.star((u,)) != g.vertices():
                    yield g, star_split(g, u)


def _outcome(check, g, a):
    try:
        return check(g, a)
    except Exception as exc:  # the error type is part of the outcome
        return type(exc)


def _flip(word, k):
    gen, exp = word[k]
    return word[:k] + ((gen, -exp),) + word[k + 1:]


def _edit_relators(p, edit):
    return Presentation(p.generators, edit(list(p.relators)))


def _single_edit(rng, g, a):
    """One seeded edit of the amalgam ``a`` (or of its ambient graph);
    returns the graph and amalgam to replay, plus the edit's name."""
    kind = rng.choice(("drop", "duplicate", "embed", "flip", "rename", "ambient"))
    which = rng.choice(("factor1", "factor2"))
    factor = getattr(a, which)
    if kind in ("drop", "duplicate") and factor.relators:
        k = rng.randrange(len(factor.relators))
        if kind == "drop":
            edited = _edit_relators(factor, lambda rels: rels[:k] + rels[k + 1:])
        else:
            edited = _edit_relators(factor, lambda rels: rels + [rels[k]])
        return g, replace(a, **{which: edited}), kind
    if kind == "embed":
        name = rng.choice(("embed1", "embed2"))
        # mostly words over the right factor, sometimes over the other one
        pool = (a.factor1 if (name == "embed1") == (rng.random() < 0.8) else a.factor2).generators
        word = tuple((rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randint(1, 3)))
        e = rng.choice(a.edge_generators)
        return g, replace(a, **{name: {**getattr(a, name), e: word}}), kind
    if kind == "flip":
        if rng.random() < 0.5 and factor.relators:
            k = rng.randrange(len(factor.relators))
            edited = _edit_relators(
                factor, lambda rels: rels[:k] + [_flip(rels[k], rng.randrange(4))] + rels[k + 1:]
            )
            return g, replace(a, **{which: edited}), kind
        name = rng.choice(("embed1", "embed2"))
        e = rng.choice(a.edge_generators)
        word = getattr(a, name)[e]
        return g, replace(a, **{name: {**getattr(a, name), e: _flip(word, rng.randrange(len(word)))}}), kind
    if kind == "rename":
        old = rng.choice(factor.generators)
        base = old[: -len(SUFFIX_STAR)]
        new = rng.choice(
            (base, base + SUFFIX_STAR, base + SUFFIX_AMBIENT, rng.choice(g.labels) + SUFFIX_AMBIENT, "z_1", "z_2")
        )
        if new in factor.generators:
            new = new + "x"
        ren = {old: new}

        def word(w):
            return tuple((ren.get(x, x), e) for x, e in w)

        edited = Presentation(
            [ren.get(x, x) for x in factor.generators], [word(w) for w in factor.relators]
        )
        embed = "embed1" if which == "factor1" else "embed2"
        renamed = {e: word(w) for e, w in getattr(a, embed).items()}
        return g, replace(a, **{which: edited, embed: renamed}), kind
    # toggle one pair of the ambient graph
    i, j = sorted(rng.sample(range(g.n), 2))
    edges = set(g.edges()) ^ {(i, j)}
    h = Graph(g.labels, [(g.labels[x], g.labels[y]) for x, y in edges])
    return h, a, "ambient"


class TestVerifyStarSplitDifferential:
    """The replay against the one it replaced, kept in conftest as
    ``verify_star_split_oracle``."""

    def test_small_connected_graphs(self):
        for g, a in _star_split_corpus():
            assert verify_star_split(g, a) is True
            assert verify_star_split_oracle(g, a) is True

    def test_seeded_single_edits(self):
        corpus = list(_star_split_corpus())
        rng = random.Random(0x57A5)
        seen = {}
        for _ in range(3000):
            g, a = rng.choice(corpus)
            h, edited, kind = _single_edit(rng, g, a)
            expect = _outcome(verify_star_split_oracle, h, edited)
            assert _outcome(verify_star_split, h, edited) == expect, (kind, g.edges(), edited)
            assert _outcome(replay_star_split_oracle, h, edited) == expect, (kind, g.edges(), edited)
            as_amalgam = _outcome(verify_amalgam, h, edited)
            assert as_amalgam == _outcome(replay_oracle, h, edited), (kind, g.edges(), edited)
            assert as_amalgam == _outcome(verify_amalgam_oracle, h, edited), (kind, g.edges(), edited)
            seen.setdefault(kind, set()).add(expect if isinstance(expect, bool) else expect.__name__)
        # every edit kind ran, and the edits reach all three outcomes
        assert set(seen) == {"drop", "duplicate", "embed", "flip", "rename", "ambient"}
        assert set().union(*seen.values()) >= {True, False, "InvalidAmalgamError"}


def _emitted_amalgams(max_n):
    """The amalgam of every direct-amalgam and star-split witness that
    ``splits_over_rank`` emits on connected graphs with at most
    ``max_n`` vertices, with the witness kind."""
    for n in range(1, max_n + 1):
        for g in connected_graphs(n):
            for rank in range(n + 1):
                w = splits_over_rank(g, rank)
                if w is not None and w.kind == DIRECT_AMALGAM:
                    yield g, direct_amalgam(g, w.clique), w.kind
                elif w is not None and w.kind == STAR_SPLIT:
                    yield g, star_split(g, w.star_vertex), w.kind


def _direct_edit(rng, g, a):
    """One seeded edit of the direct amalgam ``a`` (or of its ambient
    graph), or None when the drawn edit does not apply to ``a``."""
    kind = rng.choice(("drop", "ambient", "rename", "embed"))
    which = rng.choice(("factor1", "factor2"))
    factor = getattr(a, which)
    if kind == "drop":
        # an edge inside the cut is in both factors, so dropping one copy
        # loses nothing
        own = [
            k for k, w in enumerate(factor.relators)
            if not {w[0][0], w[1][0]} <= set(a.edge_generators)
        ]
        if not own:
            return None
        k = rng.choice(own)
        edited = _edit_relators(factor, lambda rels: rels[:k] + rels[k + 1:])
        return g, replace(a, **{which: edited}), kind
    if kind == "ambient":
        if g.n < 2:
            return None
        i, j = sorted(rng.sample(range(g.n), 2))
        edges = set(g.edges()) ^ {(i, j)}
        return Graph(g.labels, [(g.labels[x], g.labels[y]) for x, y in edges]), a, kind
    embed = "embed1" if which == "factor1" else "embed2"
    if kind == "rename":
        ren = {rng.choice(factor.generators): "z"}

        def word(w):
            return tuple((ren.get(x, x), e) for x, e in w)

        edited = Presentation(
            [ren.get(x, x) for x in factor.generators], [word(w) for w in factor.relators]
        )
        # mostly rename inside the embedding too, sometimes leave it off
        # its factor
        renamed = {e: word(w) for e, w in getattr(a, embed).items()}
        if rng.random() < 0.2:
            renamed = getattr(a, embed)
        return g, replace(a, **{which: edited, embed: renamed}), kind
    if len(a.edge_generators) < 2:
        return None
    e, other = rng.sample(a.edge_generators, 2)
    return g, replace(a, **{embed: {**getattr(a, embed), e: ((other, 1),)}}), kind


class TestVerifyAmalgam:
    def test_path_fixtures(self):
        g = path_graph("abc")
        assert verify_amalgam(g, direct_amalgam(g, (1,))) is True
        assert verify_amalgam(g, star_split(g, 0)) is True

    def test_free_product(self):
        g = Graph("abc", [("a", "b")])
        assert verify_amalgam(g, direct_amalgam(g, ())) is True

    def test_every_emitted_amalgam_small_graphs(self):
        kinds = {DIRECT_AMALGAM: 0, STAR_SPLIT: 0}
        for g, a, kind in _emitted_amalgams(5):
            assert verify_amalgam(g, a) is True, (kind, g.edges(), a.edge_generators)
            kinds[kind] += 1
        assert kinds[DIRECT_AMALGAM] > 1000 and kinds[STAR_SPLIT] > 100, kinds

    def test_star_split_check_refuses_direct_amalgams(self):
        g = path_graph("abc")
        with pytest.raises(InvalidAmalgamError):
            verify_star_split(g, direct_amalgam(g, (1,)))
        free = Graph("abc", [("a", "b")])
        assert verify_star_split(free, direct_amalgam(free, ())) is False

    def test_power_without_base_commutator(self):
        # [a_2, c_2] becomes [a_1 a_1, c] after the elimination: it is
        # not a consequence of the edges of the path, although the plain
        # commutators still match them
        g = path_graph("abc")
        a = star_split(g, 0)
        extra = Presentation(
            a.factor2.generators, a.factor2.relators + (commutator("a_2", "c_2"),)
        )
        bad = replace(a, factor2=extra)
        assert verify_amalgam(g, bad) is False
        assert verify_star_split(g, bad) is False
        assert verify_star_split_oracle(g, bad) is False

    def test_suffixed_names_are_not_a_direct_amalgam(self):
        g = path_graph("abc")
        a = direct_amalgam(g, (1,))

        def suffixed(p, suffix):
            return Presentation(
                [x + suffix for x in p.generators],
                [tuple((x + suffix, e) for x, e in w) for w in p.relators],
            )

        bad = replace(
            a,
            factor1=suffixed(a.factor1, SUFFIX_STAR),
            factor2=suffixed(a.factor2, SUFFIX_AMBIENT),
            embed1={"b": (("b_1", 1),)},
            embed2={"b": (("b_2", 1),)},
        )
        assert verify_amalgam(g, bad) is False

    def test_seeded_direct_edits_never_verify(self):
        corpus = [(g, a) for g, a, kind in _emitted_amalgams(5) if kind == DIRECT_AMALGAM]
        rng = random.Random(0xD1EC7)
        seen, outcomes = {}, set()
        while sum(seen.values()) < 3000:
            g, a = rng.choice(corpus)
            edit = _direct_edit(rng, g, a)
            if edit is None:
                continue
            h, edited, kind = edit
            outcome = _outcome(verify_amalgam, h, edited)
            assert outcome is False or outcome is InvalidAmalgamError, (kind, g.edges(), edited)
            assert outcome == _outcome(replay_oracle, h, edited), (kind, g.edges(), edited)
            assert outcome == _outcome(verify_amalgam_oracle, h, edited), (kind, g.edges(), edited)
            as_star = _outcome(verify_star_split, h, edited)
            assert as_star == _outcome(replay_star_split_oracle, h, edited), (kind, g.edges(), edited)
            seen[kind] = seen.get(kind, 0) + 1
            outcomes.add(outcome)
        assert set(seen) == {"drop", "ambient", "rename", "embed"}
        assert outcomes == {False, InvalidAmalgamError}


class TestCodedWords:
    """Relators are stored as generator codes.  ``_raag_on`` writes them
    without the validating constructor, and the one replay reads them
    through integer tables; both are tied here to the routes they
    replaced: the constructor, ``verify_amalgam_oracle`` and the replay
    on labelled embed words, kept as ``replay_oracle``."""

    def test_raag_on_matches_validating_constructor(self):
        built = 0
        for n in range(1, 6):
            for g in connected_graphs(n):
                edges = g.edges()
                for bits in range(1 << n):
                    keep = tuple(i for i in range(n) if bits >> i & 1)
                    inside = [(i, j) for i, j in edges if bits >> i & 1 and bits >> j & 1]
                    for suffix in ("", SUFFIX_STAR, SUFFIX_AMBIENT):
                        name = {i: g.labels[i] + suffix for i in keep}
                        # every other commutator written backwards, for the
                        # constructor to reorder
                        rels = [
                            commutator(name[i], name[j]) if k % 2 else commutator(name[j], name[i])
                            for k, (i, j) in enumerate(inside)
                        ]
                        fast = _raag_on(g, keep, suffix)
                        slow = Presentation(list(name.values()), rels)
                        assert fast.generators == slow.generators
                        assert fast.relators == slow.relators
                        assert fast.text() == slow.text()
                        assert fast == slow and hash(fast) == hash(slow)
                        built += 1
        # 772 connected graphs, each with all its vertex subsets
        assert built == 3 * sum(2**n * sum(1 for _ in connected_graphs(n)) for n in range(1, 6))

    def test_constructor_round_trip(self):
        ps = [raag_presentation(g) for n in range(1, 5) for g in connected_graphs(n)]
        ps += [p for _, a in _star_split_corpus() for p in (a.factor1, a.factor2)]
        ps.append(
            Presentation(
                ("a", "b", "c"),
                [
                    (("a", 1), ("a", 1)),
                    (("b", -1), ("a", 1), ("b", 1), ("a", -1)),
                    (("c", 1), ("a", 1), ("a", 1), ("c", -1), ("a", -1), ("a", -1)),
                ],
            )
        )
        for p in ps:
            q = Presentation(p.generators, p.relators)
            assert q == p and hash(q) == hash(p)
            assert q.relators == p.relators and q.text() == p.text()

    def test_replay_matches_oracle_on_emitted_amalgams(self, monkeypatch):
        corpus = [(g, a) for g, a, _ in _emitted_amalgams(5)] + list(_star_split_corpus())

        def recheck(a):
            raise AssertionError("a package-built amalgam was checked and decoded")

        # untouched package-built amalgams take the coded tables: neither
        # the structural check nor the decoding runs
        monkeypatch.setattr(presentations, "_check_amalgam", recheck)
        for g, a in corpus:
            assert verify_amalgam(g, a) is True
            # an equal graph built again is the graph the amalgam was built on
            assert verify_amalgam(Graph(g.labels, [g.labels_of(e) for e in g.edges()]), a) is True
            if a._coded.square is not None:
                assert verify_star_split(g, a) is True
        monkeypatch.undo()
        for g, a in corpus:
            assert verify_amalgam_oracle(g, a) is True
            assert replay_oracle(g, a) is True
            as_star = _outcome(verify_star_split, g, a)
            assert as_star == _outcome(replay_star_split_oracle, g, a)
            assert (as_star is True) == (a._coded.square is not None)

    def test_shape_read_agrees_when_letters_collide(self):
        # two edge generators embedded as the same factor-1 letter x turn
        # a factor-2 commutator into x x x⁻¹ x⁻¹, or, written as
        # (a, -b, -a, b) (which only the unchecked constructor stores),
        # into x x⁻¹ x⁻¹ x: shapes the replay must not read as plain
        # commutators
        compared = 0
        for g, a in _star_split_corpus():
            if g.n > 4:
                continue
            singles = [e for e in a.edge_generators if len(a.embed1[e]) == 1]
            inverted = Presentation._from_codes(
                a.factor2.generators, tuple((x, -y, -x, y) for x, y, _, _ in a.factor2._codes)
            )
            one_flip = _edit_relators(a.factor2, lambda rels: [_flip(w, 1) for w in rels])
            for e in singles:
                for f in a.edge_generators:
                    if f == e:
                        continue
                    for factor2 in (a.factor2, inverted, one_flip):
                        edited = replace(a, factor2=factor2, embed1={**a.embed1, f: a.embed1[e]})
                        expect = _outcome(verify_amalgam_oracle, g, edited)
                        assert _outcome(verify_amalgam, g, edited) == expect, (g.edges(), edited)
                        compared += 1
        assert compared > 1000

    def test_replay_matches_oracle_on_seeded_edits(self):
        star = list(_star_split_corpus())
        direct = [(g, a) for g, a, kind in _emitted_amalgams(5) if kind == DIRECT_AMALGAM]
        rng = random.Random(0xC0DE)
        outcomes = set()
        compared = 0
        while compared < 6000:
            if compared < 3000:
                g, a = rng.choice(star)
                edit = _single_edit(rng, g, a)
            else:
                g, a = rng.choice(direct)
                edit = _direct_edit(rng, g, a)
            if edit is None:
                continue
            h, edited, kind = edit
            expect = _outcome(verify_amalgam_oracle, h, edited)
            assert _outcome(verify_amalgam, h, edited) == expect, (kind, g.edges(), edited)
            outcomes.add(expect)
            compared += 1
        assert outcomes == {True, False, InvalidAmalgamError}


class TestMalformedAmalgams:
    """Amalgams broken in their types raise InvalidAmalgamError from
    both verifiers, not a bare TypeError."""

    @pytest.mark.parametrize("verify", [verify_amalgam, verify_star_split])
    @pytest.mark.parametrize("name", ["embed1", "embed2"])
    def test_embedding_not_a_mapping(self, verify, name):
        g = path_graph("abc")
        a = star_split(g, 0)
        with pytest.raises(InvalidAmalgamError, match="must be a mapping"):
            verify(g, replace(a, **{name: None}))

    @pytest.mark.parametrize("verify", [verify_amalgam, verify_star_split])
    def test_embed_word_not_iterable(self, verify):
        g = path_graph("abc")
        a = star_split(g, 0)
        with pytest.raises(InvalidAmalgamError, match="must be a word"):
            verify(g, replace(a, embed1={**a.embed1, "a": 5}))

    @pytest.mark.parametrize("verify", [verify_amalgam, verify_star_split])
    @pytest.mark.parametrize("edge_gens", [(["a"],), ("a", 1), None, "ab"])
    def test_edge_generator_not_a_str(self, verify, edge_gens):
        g = path_graph("abc")
        a = star_split(g, 0)
        with pytest.raises(InvalidAmalgamError, match="edge generators must be"):
            verify(g, replace(a, edge_generators=edge_gens))


class TestCodedForm:
    """``star_split`` and ``direct_amalgam`` attach a coded form that the
    replay trusts only for the graph the amalgam was built on, and only
    while the embeddings are the ones built."""

    def test_public_fields_equality_and_repr_unchanged(self):
        g = path_graph("abc")
        for a in (star_split(g, 0), direct_amalgam(g, (1,))):
            plain = Amalgam(a.factor1, a.factor2, a.edge_generators, dict(a.embed1), dict(a.embed2))
            assert a == plain and repr(a) == repr(plain)
            assert a._coded is not None and plain._coded is None
            assert replace(a)._coded is None and replace(a) == a
        assert [f.name for f in fields(Amalgam) if f.init] == [
            "factor1", "factor2", "edge_generators", "embed1", "embed2",
        ]

    def test_in_place_edit_of_embed1(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        a.embed1["a"] = (("a_1", 1),)
        assert verify_star_split(g, a) is False
        assert verify_amalgam(g, a) is False
        assert verify_star_split_oracle(g, a) is False

    def test_in_place_edit_of_embed2(self):
        g = path_graph("abc")
        a = star_split(g, 0)
        a.embed2["a"] = (("b_2", 1),)
        assert verify_star_split(g, a) is False
        assert verify_amalgam(g, a) is False
        assert verify_star_split_oracle(g, a) is False
        # the structural check runs again too
        a.embed2["a"] = (("a_1", 1),)
        with pytest.raises(InvalidAmalgamError):
            verify_star_split(g, a)

    def test_in_place_edit_of_a_direct_amalgam(self):
        g = path_graph("abc")
        a = direct_amalgam(g, (1,))
        a.embed1["b"] = (("a", 1),)
        assert verify_amalgam(g, a) is False
        assert verify_amalgam_oracle(g, a) is False
        a = direct_amalgam(g, (1,))
        a.embed2["b"] = (("b", 1), ("b", 1))
        assert verify_amalgam(g, a) is False
        assert verify_amalgam_oracle(g, a) is False
        a.embed2["b"] = (("a", 1),)
        with pytest.raises(InvalidAmalgamError):
            verify_amalgam(g, a)

    def test_other_graphs_get_the_oracles_answer(self):
        corpus = [(g, a) for g, a, _ in _emitted_amalgams(4)] + list(_star_split_corpus())
        outcomes = set()
        for g, a in corpus:
            if g.n > 4:
                continue
            others = [Graph(g.labels[::-1], [g.labels_of(e) for e in g.edges()])]
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    edges = set(g.edges()) ^ {(i, j)}
                    others.append(Graph(g.labels, [g.labels_of(e) for e in sorted(edges)]))
            for h in others:
                expect = _outcome(verify_amalgam_oracle, h, a)
                assert _outcome(verify_amalgam, h, a) == expect, (g.edges(), h.edges(), a)
                if a._coded.square is not None:
                    expect = _outcome(verify_star_split_oracle, h, a)
                    assert _outcome(verify_star_split, h, a) == expect, (g.edges(), h.edges(), a)
                outcomes.add(expect)
        # the same labelled graph in reversed vertex order verifies, on
        # tables decoded from the labels
        assert outcomes == {True, False}

    def test_whole_graph_factor_built_once_per_graph(self):
        g = path_graph("abcde")
        twin = path_graph("abcde")
        before = hash(g)
        a, b = star_split(g, 0), star_split(g, 4)
        assert a.factor2 is b.factor2
        assert a.factor2 == presentations._raag_on(g, g.vertices(), SUFFIX_AMBIENT)
        assert star_split(twin, 0).factor2 is not a.factor2
        # the cache entry changes neither equality nor hashing
        assert g == twin and hash(g) == hash(twin) == before
        assert g == path_graph("abcde") and hash(g) == hash(path_graph("abcde"))
