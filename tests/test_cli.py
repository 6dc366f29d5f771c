"""End-to-end command line runs, in process."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import raagsplit
from conftest import DEEP_JSON
from raagsplit.cli import main, schema_for

P2_JSON = '{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"]]}'
C4_EDGES = "a b\nb c\nc d\nd a\n"
K4_DOT = "graph { a -- b -- c -- d; a -- c; a -- d; b -- d; }\n"
TWO_PARTS = "a b\nc\n"
SCENARIO = json.dumps(
    {
        "ambient_rank": 2,
        "subset_spec": {"kind": "subgroup", "generators": [[1, 0]]},
        "box_radius": 32,
    }
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in [
        ("p2.json", P2_JSON),
        ("c4.txt", C4_EDGES),
        ("k4.dot", K4_DOT),
        ("parts.txt", TWO_PARTS),
        ("scenario.json", SCENARIO),
    ]:
        p = tmp_path / name
        p.write_text(content)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope(out: str) -> dict:
    report = json.loads(out)
    jsonschema.validate(report, schema_for("report"))
    return report


class TestEnvelope:
    def test_shape_and_digest(self, files, capsys):
        argv = ["decide", "-n", "2", files["p2.json"]]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        report = envelope(out)
        assert set(report) == {"command", "input_sha256", "result", "version", "seed"}
        assert report["command"] == argv
        assert report["input_sha256"] == hashlib.sha256(P2_JSON.encode()).hexdigest()
        assert report["version"] == raagsplit.__version__
        assert report["seed"] is None

    def test_seed_echoed(self, files, capsys):
        code, out, _ = run(capsys, ["spectrum", "--seed", "7", files["p2.json"]])
        assert code == 0
        assert envelope(out)["seed"] == 7

    def test_byte_stable(self, files, capsys):
        argv = ["decide", "-n", "2", files["p2.json"]]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        assert out1.endswith("\n")

    def test_json_file_output(self, files, capsys):
        out_path = files["dir"] / "report.json"
        argv = ["decide", "-n", "2", "--json", str(out_path), files["p2.json"]]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == ""
        report = envelope(out_path.read_text())
        assert report["result"]["answer"] == "yes"

    def test_version_flag(self, files, capsys):
        code, out, err = run(capsys, ["--version"])
        assert code == 0
        assert raagsplit.__version__ in out + err


class TestDecide:
    def test_yes_with_witness(self, files, capsys):
        code, out, _ = run(capsys, ["decide", "-n", "2", files["p2.json"]])
        assert code == 0
        result = envelope(out)["result"]
        jsonschema.validate(result, schema_for("decide"))
        assert result["answer"] == "yes" and result["rank"] == 2
        w = result["witness"]
        assert w["kind"] == "star-split"
        assert w["clique"] == ["a", "b"]
        assert w["separator"] == ["b"]
        assert w["star_vertex"] == "a"
        assert w["sides"] is None

    def test_no(self, files, capsys):
        code, out, _ = run(capsys, ["decide", "-n", "5", files["p2.json"]])
        assert code == 1
        result = envelope(out)["result"]
        jsonschema.validate(result, schema_for("decide"))
        assert result["answer"] == "no" and result["witness"] is None

    def test_free_product_rank_zero(self, files, capsys):
        code, out, _ = run(capsys, ["decide", "-n", "0", files["parts.txt"]])
        assert code == 0
        w = envelope(out)["result"]["witness"]
        assert w["kind"] == "direct-amalgam"
        assert w["separator"] == []
        assert w["sides"] == [["a", "b"], ["c"]]

    def test_negative_rank(self, files, capsys):
        code, _, err = run(capsys, ["decide", "-n", "-1", files["p2.json"]])
        assert code == 2 and err.startswith("error:")


class TestOracleCommand:
    def test_yes_no_exit_codes(self, files, capsys):
        code, out, _ = run(capsys, ["oracle", "-n", "2", files["p2.json"]])
        assert code == 0
        result = envelope(out)["result"]
        jsonschema.validate(result, schema_for("oracle"))
        assert result == {"answer": "yes", "rank": 2}
        code, out, _ = run(capsys, ["oracle", "-n", "5", files["p2.json"]])
        assert code == 1 and envelope(out)["result"]["answer"] == "no"

    def test_exit_agreement_with_decide(self, files, capsys):
        for name in ("p2.json", "c4.txt", "k4.dot", "parts.txt"):
            for n in range(5):
                dec, _, _ = run(capsys, ["decide", "-n", str(n), files[name]])
                orc, _, _ = run(capsys, ["oracle", "-n", str(n), files[name]])
                assert dec == orc, (name, n)


class TestSpectrum:
    def test_path(self, files, capsys):
        code, out, _ = run(capsys, ["spectrum", files["p2.json"]])
        assert code == 0
        result = envelope(out)["result"]
        jsonschema.validate(result, schema_for("spectrum"))
        assert result["spectrum"] == [1, 2]

    def test_square_empty(self, files, capsys):
        code, out, _ = run(capsys, ["spectrum", files["c4.txt"]])
        assert code == 0
        assert envelope(out)["result"]["spectrum"] == []


class TestCcd:
    def test_path_tree(self, files, capsys):
        code, out, _ = run(capsys, ["ccd", files["p2.json"]])
        assert code == 0
        result = envelope(out)["result"]
        jsonschema.validate(result, schema_for("ccd"))
        assert result["pieces"] == [["a", "b"], ["b", "c"]]
        assert result["tree_edges"] == [[0, 1]]
        assert result["cuts"] == [["b"]]
        gog = result["graph_of_groups"]
        assert gog["edge_groups"][0]["generators"] == ["b"]
        assert gog["inclusions"] == [[[["b", "b"]], [["b", "b"]]]]

    def test_dot_report(self, files, capsys):
        dot_path = files["dir"] / "tree.dot"
        code, _, _ = run(capsys, ["ccd", "--dot", str(dot_path), files["p2.json"]])
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("graph ccd {")
        assert 'label="a,b"' in text and 'label="b,c"' in text
        assert '[label="b"]' in text

    def test_dot_escapes_quotes_and_backslashes(self, files, capsys):
        graph = {
            "vertices": ['a"x', "b\\y", "c"],
            "edges": [['a"x', "b\\y"], ["b\\y", "c"]],
        }
        src = files["dir"] / "quoted.json"
        src.write_text(json.dumps(graph))
        dot_path = files["dir"] / "quoted.dot"
        code, _, _ = run(capsys, ["ccd", "--dot", str(dot_path), str(src)])
        assert code == 0
        assert dot_path.read_text().splitlines()[2:5] == [
            '  n0 [label="a\\"x,b\\\\y"];',
            '  n1 [label="b\\\\y,c"];',
            '  n0 -- n1 [label="b\\\\y"];',
        ]

    def test_disconnected_rejected(self, files, capsys):
        code, _, err = run(capsys, ["ccd", files["parts.txt"]])
        assert code == 2 and err.startswith("error:")


class TestWitness:
    def test_star_split_amalgam(self, files, capsys):
        code, out, _ = run(capsys, ["witness", "-n", "2", files["p2.json"]])
        assert code == 0
        result = envelope(out)["result"]
        jsonschema.validate(result, schema_for("witness"))
        amalgam = result["amalgam"]
        assert amalgam["factor1"]["generators"] == ["a_1", "b_1"]
        assert amalgam["embed1"]["a"] == [["a_1", 1], ["a_1", 1]]

    def test_direct_amalgam(self, files, capsys):
        code, out, _ = run(capsys, ["witness", "-n", "1", files["p2.json"]])
        assert code == 0
        amalgam = envelope(out)["result"]["amalgam"]
        assert amalgam["factor1"]["generators"] == ["a", "b"]
        assert amalgam["factor2"]["generators"] == ["b", "c"]

    def test_complete_graph_has_no_amalgam(self, files, capsys):
        code, out, _ = run(capsys, ["witness", "-n", "3", files["k4.dot"]])
        assert code == 0
        result = envelope(out)["result"]
        assert result["witness"]["kind"] == "hnn-complete"
        assert result["amalgam"] is None

    def test_no_witness(self, files, capsys):
        code, out, _ = run(capsys, ["witness", "-n", "1", files["c4.txt"]])
        assert code == 1
        assert envelope(out)["result"]["witness"] is None


class TestPresent:
    def test_path_presentation(self, files, capsys):
        code, out, _ = run(capsys, ["present", files["p2.json"]])
        assert code == 0
        result = envelope(out)["result"]
        jsonschema.validate(result, schema_for("present"))
        assert result["generators"] == ["a", "b", "c"]
        assert result["text"] == "< a, b, c | [a,b], [b,c] >"
        assert result["relators"][0] == [["a", 1], ["b", 1], ["a", -1], ["b", -1]]


class TestStarSplitCommand:
    def test_verified(self, files, capsys):
        code, out, _ = run(capsys, ["star-split", "-u", "a", files["p2.json"]])
        assert code == 0
        result = envelope(out)["result"]
        jsonschema.validate(result, schema_for("star-split"))
        assert result["vertex"] == "a" and result["verified"] is True

    def test_star_covers_graph(self, files, capsys):
        code, _, err = run(capsys, ["star-split", "-u", "b", files["p2.json"]])
        assert code == 2 and err.startswith("error:")

    def test_unknown_vertex(self, files, capsys):
        code, _, err = run(capsys, ["star-split", "-u", "z", files["p2.json"]])
        assert code == 2 and err.startswith("error:")


class TestLattice:
    def test_line_scenario(self, files, capsys):
        code, out, _ = run(capsys, ["lattice", files["scenario.json"]])
        assert code == 0
        result = envelope(out)["result"]
        jsonschema.validate(result, schema_for("lattice"))
        assert result["deep_components"] == 2
        assert result["scenario"]["box_radius"] == 32
        assert result["note"]

    def test_invalid_scenario(self, files, capsys):
        bad = files["dir"] / "bad_scenario.json"
        bad.write_text('{"ambient_rank": 2, "box_radius": 8}')
        code, _, err = run(capsys, ["lattice", str(bad)])
        assert code == 2 and err.startswith("error:")

    def test_scenario_not_json(self, files, capsys):
        code, _, err = run(capsys, ["lattice", files["c4.txt"]])
        assert code == 2 and err.startswith("error:")

    def test_deeply_nested_scenario(self, files, capsys):
        bad = files["dir"] / "deep_scenario.json"
        bad.write_bytes(DEEP_JSON)
        code, out, err = run(capsys, ["lattice", str(bad)])
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ambient_rank", 2.9),
            ("ambient_rank", True),
            ("box_radius", 16.7),
            ("box_radius", "16"),
            ("thickening", False),
            ("thickening", 1.5),
            ("depth", True),
            ("depth", 2.5),
            ("generator", True),
            ("generator", 0.5),
        ],
    )
    def test_non_integer_fields_rejected(self, files, capsys, field, value):
        doc = json.loads(SCENARIO)
        if field == "generator":
            doc["subset_spec"]["generators"] = [[1, value]]
        else:
            doc[field] = value
        bad = files["dir"] / "bad_scenario.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["lattice", str(bad)])
        assert code == 2 and out == "" and err.startswith("error:")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema_for("scenario"))

    def test_rank_one_half_hyperplane_rejected(self, files, capsys):
        # _subset_mask used to index the 1-D box with two indices
        bad = files["dir"] / "half_hyperplane_rank1.json"
        bad.write_text(
            '{"ambient_rank": 1, "subset_spec": {"kind": "catalog", "tag": "half-hyperplane"}, '
            '"box_radius": 8}'
        )
        code, out, err = run(capsys, ["lattice", str(bad)])
        assert code == 2 and out == "" and err.startswith("error:")
        assert "rank >= 2" in err

    def test_integral_float_accepted_like_the_schema(self, files, capsys):
        # JSON Schema's "integer" admits 3.0, so the parser does too
        doc = json.loads(SCENARIO)
        doc.update(box_radius=16.0, depth=3.0)
        doc["subset_spec"]["generators"] = [[1.0, 0]]
        jsonschema.validate(doc, schema_for("scenario"))
        path = files["dir"] / "float_scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["lattice", str(path)])
        assert code == 0
        scenario = envelope(out)["result"]["scenario"]
        assert scenario["box_radius"] == 16 and scenario["depth"] == 3
        assert scenario["subset_spec"]["generators"] == [[1, 0]]
        assert all(isinstance(x, int) for x in (scenario["box_radius"], scenario["depth"]))


COLD_IMPORT = """
import sys

import raagsplit.cli

assert raagsplit.cli.main(["decide", "-n", "1", sys.argv[1]]) == 0
loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
assert not loaded, f"graph command imported {loaded}"

import raagsplit

names = {
    "CatalogSpec",
    "LatticeScenario",
    "SeparationReport",
    "SubgroupSpec",
    "check_rank_separation",
    "deep_components",
    "quasi_density_check",
}
assert names <= set(dir(raagsplit))
scope = {}
exec("from raagsplit import *", scope)
assert names <= set(scope) and names <= set(raagsplit.__all__)
assert raagsplit.LatticeScenario is sys.modules["raagsplit.lattice"].LatticeScenario
print("ok")
"""


class TestColdImport:
    def test_graph_commands_skip_numpy_and_scipy(self, files):
        src = str(Path(raagsplit.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", COLD_IMPORT, files["p2.json"]],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("ok\n")


class TestInputHandling:
    def test_format_override(self, files, capsys):
        # content sniffs as dot (leading "graph") but is really an edge list
        tricky = files["dir"] / "tricky.txt"
        tricky.write_text("graph x\n")
        code, _, err = run(capsys, ["present", str(tricky)])
        assert code == 2
        code, out, _ = run(
            capsys, ["present", "--format", "edge-list", str(tricky)]
        )
        assert code == 0
        assert envelope(out)["result"]["generators"] == ["graph", "x"]

    def test_parse_error_position_reported(self, files, capsys):
        bad = files["dir"] / "bad.json"
        bad.write_text('{"vertices": [}')
        code, _, err = run(capsys, ["decide", "-n", "1", str(bad)])
        assert code == 2
        assert err.startswith("error:") and "line 1" in err
        assert err.count("line 1") == 1

    def test_deeply_nested_graph_file(self, files, capsys):
        # json.loads raises RecursionError here, not JSONDecodeError
        bad = files["dir"] / "deep.json"
        bad.write_bytes(DEEP_JSON)
        code, out, err = run(capsys, ["decide", "-n", "1", str(bad)])
        assert code == 2 and out == "" and err.startswith("error:")
        assert err.count("\n") == 1

    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, ["spectrum", str(files["dir"] / "nope.json")])
        assert code == 2 and err.startswith("error:")

    def test_vertex_cap(self, files, capsys, monkeypatch):
        monkeypatch.setenv("RAAGSPLIT_MAX_VERTICES", "2")
        code, _, err = run(capsys, ["decide", "-n", "1", files["p2.json"]])
        assert code == 2 and "RAAGSPLIT_MAX_VERTICES" in err

    def test_usage_errors(self, files, capsys):
        assert run(capsys, ["frobnicate", files["p2.json"]])[0] == 2
        assert run(capsys, ["decide", files["p2.json"]])[0] == 2
        assert run(capsys, [])[0] == 2
