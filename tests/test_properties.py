"""Hypothesis properties: invariance under relabelling and reordering,
and a command line that never raises on arbitrary input bytes."""

from __future__ import annotations

import contextlib
import io
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DEEP_JSON, mask_graph
from raagsplit.ccd import complete_cut_decomposition
from raagsplit.cli import main
from raagsplit.errors import DisconnectedGraphError
from raagsplit.formats import FORMATS
from raagsplit.graphs import Graph
from raagsplit.splitting import splits_over_rank, splitting_spectrum


def _ccd_label_sets(g: Graph):
    """Multisets of the CCD's piece and cut label sets, or the error
    type for graphs the CCD refuses."""
    try:
        t = complete_cut_decomposition(g)
    except DisconnectedGraphError:
        return DisconnectedGraphError
    return (
        Counter(frozenset(g.labels_of(p)) for p in t.pieces),
        Counter(frozenset(g.labels_of(c)) for c in t.cuts),
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10), st.integers(0, (1 << 45) - 1), st.randoms(use_true_random=False))
def test_relabel_and_reorder_keep_decide_spectrum_and_ccd(n, mask, rnd):
    g = mask_graph(n, mask)
    order = list(range(n))
    rnd.shuffle(order)
    names = [f"u{k}" for k in rnd.sample(range(100), n)]
    edges = [(names[a], names[b]) if rnd.random() < 0.5 else (names[b], names[a]) for a, b in g.edges()]
    rnd.shuffle(edges)
    # vertex order[i] of g becomes vertex i of h, named names[order[i]]
    h = Graph([names[order[i]] for i in range(n)], edges)
    back = {names[v]: g.labels[v] for v in range(n)}

    for rank in range(n + 2):
        assert (splits_over_rank(g, rank) is None) == (splits_over_rank(h, rank) is None), rank
    assert splitting_spectrum(g) == splitting_spectrum(h)

    got = _ccd_label_sets(h)
    if got is not DisconnectedGraphError:
        got = tuple(Counter(frozenset(back[x] for x in s) for s in c.elements()) for c in got)
    assert got == _ccd_label_sets(g)


COMMANDS = (["decide", "-n", "1"], ["witness", "-n", "2"], ["spectrum"], ["ccd"], ["present"])

# bytes that look like each format often enough to get past the sniffer
_graphish = st.lists(
    st.sampled_from(["{", "}", "[", "]", '"a"', '"b"', ",", ":", '"vertices"', '"edges"',
                     "graph", "--", ";", "a", "b", "c", " ", "\n", "1", "\x00", "é"]),
    max_size=40,
).map(lambda parts: "".join(parts).encode("utf-8"))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph"


@settings(max_examples=200, deadline=None)
@given(
    fmt=st.sampled_from(FORMATS),
    data=st.one_of(st.binary(max_size=200), _graphish),
    command=st.sampled_from(COMMANDS),
)
@example(fmt="json", data=DEEP_JSON, command=["decide", "-n", "1"])
def test_cli_exit_code_on_fuzzed_bytes(fuzz_file, fmt, data, command):
    fuzz_file.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command + ["--format", fmt, str(fuzz_file)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
