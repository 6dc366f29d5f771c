"""Command-line front end.

Eight subcommands over the library: decide, spectrum, ccd, witness,
present, star-split, lattice, oracle.  Every run prints a single JSON
run report: the echoed command, a sha256 of the input file, the
command's result payload, the tool version, and the seed if one was
given.  Exit codes: 0 success, 1 well-formed negative answer (decide /
oracle / witness say no), 2 usage or input errors.

Output is deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .ccd import CcdTree, complete_cut_decomposition, graph_of_groups
from .errors import RaagsplitError
from .formats import FORMATS, parse_graph
from .graphs import Graph
from .presentations import (
    Amalgam,
    Presentation,
    direct_amalgam,
    raag_presentation,
    star_split,
    verify_star_split,
)
from .splitting import (
    DIRECT_AMALGAM,
    STAR_SPLIT,
    SplittingWitness,
    brute_force_splits,
    splits_over_rank,
    splitting_spectrum,
)

DEFAULT_MAX_VERTICES = 64


def _max_vertices() -> int:
    raw = os.environ.get("RAAGSPLIT_MAX_VERTICES")
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        return int(raw)
    except ValueError:
        raise RaagsplitError(
            f"RAAGSPLIT_MAX_VERTICES must be an integer, got {raw!r}"
        ) from None


def _word_json(word) -> list:
    return [[gen, exp] for gen, exp in word]


def _presentation_json(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [_word_json(w) for w in p.relators],
        "text": p.text(),
    }


def _amalgam_json(a: Amalgam) -> dict:
    return {
        "factor1": _presentation_json(a.factor1),
        "factor2": _presentation_json(a.factor2),
        "edge_generators": list(a.edge_generators),
        "embed1": {e: _word_json(a.embed1[e]) for e in a.edge_generators},
        "embed2": {e: _word_json(a.embed2[e]) for e in a.edge_generators},
    }


def _witness_json(g: Graph, w: SplittingWitness) -> dict:
    return {
        "kind": w.kind,
        "rank": w.rank,
        "clique": list(g.labels_of(w.clique)),
        "separator": None if w.separator is None else list(g.labels_of(w.separator)),
        "star_vertex": None if w.star_vertex is None else g.labels[w.star_vertex],
        "sides": None
        if w.sides is None
        else [list(g.labels_of(s)) for s in w.sides],
    }


def _witness_amalgam(g: Graph, w: SplittingWitness) -> dict | None:
    if w.kind == DIRECT_AMALGAM:
        return _amalgam_json(direct_amalgam(g, w.clique))
    if w.kind == STAR_SPLIT:
        return _amalgam_json(star_split(g, w.star_vertex))
    return None  # complete graph case splits as an HNN extension, no amalgam


def _ccd_json(g: Graph, t: CcdTree) -> dict:
    gog = graph_of_groups(g, t)
    return {
        "pieces": [list(g.labels_of(p)) for p in t.pieces],
        "tree_edges": [list(e) for e in t.tree_edges],
        "cuts": [list(g.labels_of(c)) for c in t.cuts],
        "graph_of_groups": {
            "vertex_groups": [_presentation_json(p) for p in gog.vertex_groups],
            "tree_edges": [list(e) for e in gog.tree_edges],
            "edge_groups": [_presentation_json(p) for p in gog.edge_groups],
            "inclusions": [
                [[list(pair) for pair in side] for side in inc]
                for inc in gog.inclusions
            ],
        },
    }


def _dot_label(g: Graph, s) -> str:
    """The labels of ``s`` joined by commas, escaped for a quoted DOT
    string."""
    return ",".join(g.labels_of(s)).replace("\\", "\\\\").replace('"', '\\"')


def _ccd_dot(g: Graph, t: CcdTree) -> str:
    lines = ["graph ccd {", "  node [shape=box];"]
    for i, p in enumerate(t.pieces):
        lines.append(f'  n{i} [label="{_dot_label(g, p)}"];')
    for (r, s), cut in zip(t.tree_edges, t.cuts):
        lines.append(f'  n{r} -- n{s} [label="{_dot_label(g, cut)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def schema_for(name: str) -> dict:
    """Load one of the shipped JSON schemas by name (a command name,
    or graph / report / scenario)."""
    path = resources.files("raagsplit").joinpath("schemas", f"{name}.json")
    return json.loads(path.read_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raagsplit",
        description="Splittings of right-angled Artin groups over free abelian subgroups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def graph_command(name: str, help_: str) -> argparse.ArgumentParser:
        c = sub.add_parser(name, help=help_)
        c.add_argument("file", help="graph file")
        c.add_argument("--format", choices=FORMATS, help="input format (default: sniff)")
        c.add_argument("--json", metavar="OUT", help="write the run report here instead of stdout")
        c.add_argument("--seed", type=int, help="seed echoed into the report")
        return c

    c = graph_command("decide", "does the group split over free abelian of the given rank")
    c.add_argument("-n", "--rank", type=int, required=True)
    graph_command("spectrum", "all ranks the group splits over")
    c = graph_command("ccd", "complete-cut-decomposition and its graph of groups")
    c.add_argument("--dot", metavar="OUT", help="write a DOT rendering of the tree")
    c = graph_command("witness", "splitting witness plus the corresponding amalgam")
    c.add_argument("-n", "--rank", type=int, required=True)
    graph_command("present", "canonical presentation of the group")
    c = graph_command("star-split", "amalgam along the star of a vertex, with verification")
    c.add_argument("-u", "--vertex", required=True, help="vertex label")
    c = sub.add_parser("lattice", help="finite-box coarse-separation experiment")
    c.add_argument("file", help="scenario JSON file")
    c.add_argument("--json", metavar="OUT", help="write the run report here instead of stdout")
    c.add_argument("--seed", type=int, help="seed echoed into the report")
    c = graph_command("oracle", "brute-force splitting decision, for cross-checking")
    c.add_argument("-n", "--rank", type=int, required=True)
    return parser


def _load_graph(args, raw: bytes) -> Graph:
    g = parse_graph(raw, args.format)
    cap = _max_vertices()
    if g.n > cap:
        raise RaagsplitError(
            f"graph has {g.n} vertices, over the limit of {cap} "
            "(raise RAAGSPLIT_MAX_VERTICES to override)"
        )
    return g


def _run(args) -> tuple[dict, int]:
    raw = Path(args.file).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()

    if args.command == "lattice":
        # numpy and scipy load here, so graph commands start without them
        from .lattice import deep_components, report_to_dict, scenario_from_dict

        try:
            scenario_doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RaagsplitError(f"scenario file is not valid JSON: {exc}") from None
        except RecursionError:
            raise RaagsplitError("scenario file nests JSON too deeply") from None
        report = deep_components(scenario_from_dict(scenario_doc))
        return {"digest": digest, "result": report_to_dict(report)}, 0

    g = _load_graph(args, raw)

    if args.command in ("decide", "witness"):
        witness = splits_over_rank(g, args.rank)
        result = {
            "answer": "yes" if witness else "no",
            "rank": args.rank,
            "witness": None if witness is None else _witness_json(g, witness),
        }
        if args.command == "witness":
            result["amalgam"] = None if witness is None else _witness_amalgam(g, witness)
        return {"digest": digest, "result": result}, 0 if witness else 1

    if args.command == "oracle":
        answer = brute_force_splits(g, args.rank)
        result = {"answer": "yes" if answer else "no", "rank": args.rank}
        return {"digest": digest, "result": result}, 0 if answer else 1

    if args.command == "spectrum":
        return {"digest": digest, "result": {"spectrum": sorted(splitting_spectrum(g))}}, 0

    if args.command == "ccd":
        tree = complete_cut_decomposition(g)
        if args.dot:
            Path(args.dot).write_text(_ccd_dot(g, tree))
        return {"digest": digest, "result": _ccd_json(g, tree)}, 0

    if args.command == "present":
        return {"digest": digest, "result": _presentation_json(raag_presentation(g))}, 0

    if args.command == "star-split":
        u = g.index_of(args.vertex)
        amalgam = star_split(g, u)
        result = {
            "vertex": args.vertex,
            "amalgam": _amalgam_json(amalgam),
            "verified": verify_star_split(g, amalgam),
        }
        return {"digest": digest, "result": result}, 0

    raise RaagsplitError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        payload, code = _run(args)
    except (RaagsplitError, OSError) as exc:
        # GraphParseError renders its own line/column
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": argv,
        "input_sha256": payload["digest"],
        "result": payload["result"],
        "version": __version__,
        "seed": getattr(args, "seed", None),
    }
    text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    if getattr(args, "json", None):
        Path(args.json).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
