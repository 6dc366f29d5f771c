"""Acceptance gate.

One test per criterion; each prints a single pass/fail line (and the
test outcome itself is that line's verdict under ``pytest -v``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import jsonschema

from conftest import connected_graphs, random_connected_graph, random_graph
from raagsplit.ccd import complete_cut_decomposition, validate_ccd
from raagsplit.cli import main, schema_for
from raagsplit.formats import FORMATS, parse_graph, serialize_graph
from raagsplit.graphs import Graph, complete_graph, cycle_graph, path_graph
from raagsplit.lattice import (
    DOES_NOT_SEPARATE,
    SEPARATES,
    check_rank_separation,
    quasi_density_check,
)
from raagsplit.presentations import star_split, verify_star_split
from raagsplit.splitting import (
    brute_force_splits,
    splits_over_rank,
    splitting_spectrum,
)


def verdict(number: int, label: str, detail: str) -> None:
    print(f"criterion {number} ({label}): PASS, {detail}")


def test_criterion_1_oracle_equivalence():
    checked = 0
    for n_verts in range(1, 7):
        for g in connected_graphs(n_verts):
            for n in range(n_verts + 1):
                assert (splits_over_rank(g, n) is not None) == brute_force_splits(
                    g, n
                ), (g.edges(), n)
                checked += 1
    rng = random.Random(0xC1)
    for _ in range(500):
        g = random_graph(rng, rng.randint(7, 8))
        for n in range(g.n + 1):
            assert (splits_over_rank(g, n) is not None) == brute_force_splits(
                g, n
            ), (g.edges(), n)
            checked += 1
    verdict(1, "oracle equivalence", f"{checked} decisions agree")


def test_criterion_2_fixture_spectra():
    assert splitting_spectrum(path_graph("abc")) == {1, 2}
    for m in range(1, 8):
        assert splitting_spectrum(complete_graph(m)) == {m - 1}
    assert splitting_spectrum(cycle_graph(4)) == set()
    assert splitting_spectrum(cycle_graph(5)) == set()
    verdict(2, "fixture spectra", "path, complete family, both cycles exact")


def test_criterion_3_ccd_validity():
    cases = [complete_graph(m) for m in range(1, 8)]
    cases.append(path_graph("abc"))
    cases.append(Graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")]))
    rng = random.Random(0xC3)
    cases.extend(random_connected_graph(rng, rng.randint(1, 10)) for _ in range(200))
    for g in cases:
        rep = validate_ccd(g, complete_cut_decomposition(g))
        assert rep.covers_edges, g.edges()
        assert rep.pieces_have_no_complete_cut, g.edges()
        assert rep.cuts_are_proper_complete_cuts, g.edges()
        assert rep.passed
    verdict(3, "ccd validity", f"all three checks on {len(cases)} graphs")


def test_criterion_4_star_split_verification():
    verified = 0
    for n_verts in range(2, 7):
        # one graph alive at a time, as in criterion 1: each keeps its
        # star splits' shared factor, and the 26,704 six-vertex graphs
        # kept alive made full collections cost about a second
        for g in connected_graphs(n_verts):
            for u in range(n_verts):
                if g.star((u,)) == g.vertices():
                    continue
                assert verify_star_split(g, star_split(g, u)), (g.edges(), u)
                verified += 1
    g = path_graph("abc")
    a = star_split(g, 0)
    tampered = replace(a, embed1={**a.embed1, "a": (("a_1", 1),)})
    assert verify_star_split(g, tampered) is False
    verdict(4, "star-split verification", f"{verified} rewrites verified, tampered fixture rejected")


def test_criterion_5_lattice_separation():
    for n, k in ((2, 1), (3, 2), (4, 3)):
        assert check_rank_separation(n, k) == SEPARATES, (n, k)
    for n, k in ((2, 2), (3, 1), (4, 1), (4, 2)):
        assert check_rank_separation(n, k) == DOES_NOT_SEPARATE, (n, k)
    assert quasi_density_check(2) == DOES_NOT_SEPARATE
    assert quasi_density_check(3) == DOES_NOT_SEPARATE
    verdict(5, "lattice separation", "7 rank verdicts and 2 quasi-density checks at default boxes")


def test_criterion_6_cli_contract(tmp_path, capsys):
    corpus = {
        "p2.json": '{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"]]}',
        "c4.txt": "a b\nb c\nc d\nd a\n",
        "k4.dot": "graph { a -- b -- c -- d; a -- c; a -- d; b -- d; }\n",
        "parts.txt": "a b\nc\n",
    }
    paths = {}
    for name, content in corpus.items():
        p = tmp_path / name
        p.write_text(content)
        paths[name] = str(p)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        '{"ambient_rank": 2, "subset_spec": {"kind": "subgroup",'
        ' "generators": [[1, 0]]}, "box_radius": 16}'
    )

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    report_schema = schema_for("report")
    payloads = 0

    def checked(argv, schema_name):
        nonlocal payloads
        code, report = run(argv)
        if report is not None:
            jsonschema.validate(report, report_schema)
            jsonschema.validate(report["result"], schema_for(schema_name))
            assert report["command"] == argv
            raw = open(argv[-1], "rb").read()
            assert report["input_sha256"] == hashlib.sha256(raw).hexdigest()
            payloads += 1
        return code, report

    for name, content in corpus.items():
        g = parse_graph(content.encode())
        for fmt in FORMATS:
            assert parse_graph(serialize_graph(g, fmt)) == g

        checked(["present", paths[name]], "present")
        checked(["spectrum", paths[name]], "spectrum")
        for n in range(5):
            dec, _ = checked(["decide", "-n", str(n), paths[name]], "decide")
            orc, _ = checked(["oracle", "-n", str(n), paths[name]], "oracle")
            assert dec == orc, (name, n)
            assert dec in (0, 1)
            checked(["witness", "-n", str(n), paths[name]], "witness")
        if len(g.components()) == 1:
            checked(["ccd", paths[name]], "ccd")
            for u in range(g.n):
                if g.star((u,)) != g.vertices():
                    code, report = checked(
                        ["star-split", "-u", g.labels[u], paths[name]], "star-split"
                    )
                    assert code == 0 and report["result"]["verified"] is True
                    break
    code, report = checked(["lattice", str(scenario)], "lattice")
    assert code == 0 and report["result"]["deep_components"] == 2
    verdict(6, "cli contract", f"{payloads} payloads schema-checked, exits agree, round trips exact")
