"""Running one op through the library, summarising it, and checking it.

``execute`` is the only code inside the timed region.  It calls the
package's public functions the way a library user would: parse the
graph file's bytes, then ask one question.  Attribute lookups go
through the modules at call time, so the tracer's wrappers are seen.

``summary`` turns a result into plain JSON (labels, not indices) for
the result digest.  ``check`` re-checks a result with the package's
independent checkers and raises ``CheckFailed`` on the first problem.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from math import comb

import raagsplit
from raagsplit import ccd, formats, lattice, presentations, splitting

# brute_force_splits enumerates C(|V|, n) vertex subsets; above this many
# the decision check falls back to validating the witness alone
ORACLE_SUBSETS = 50_000


class CheckFailed(Exception):
    pass


def execute(kind: str, data: bytes, arg):
    if kind == "lattice":
        return lattice.deep_components(lattice.scenario_from_dict(json.loads(data)))
    g = formats.parse_graph(data)
    if kind == "decide":
        return g, splitting.splits_over_rank(g, arg)
    if kind == "spectrum":
        return g, splitting.splitting_spectrum(g)
    if kind == "ccd":
        tree = ccd.complete_cut_decomposition(g)
        return g, (tree, ccd.graph_of_groups(g, tree))
    if kind == "witness":
        w = splitting.splits_over_rank(g, arg)
        return g, (w, _witness_amalgam(g, w))
    if kind == "present":
        return g, presentations.raag_presentation(g)
    if kind == "star-split":
        a = presentations.star_split(g, g.index_of(arg))
        return g, (a, presentations.verify_star_split(g, a))
    if kind == "oracle":
        return g, splitting.brute_force_splits(g, arg)
    raise ValueError(f"unknown op kind {kind!r}")


def _witness_amalgam(g, w):
    if w is None or w.kind == splitting.HNN_COMPLETE:
        return None
    if w.kind == splitting.DIRECT_AMALGAM:
        return presentations.direct_amalgam(g, w.clique)
    return presentations.star_split(g, w.star_vertex)


# -- summaries ----------------------------------------------------------------


def _witness_json(g, w):
    if w is None:
        return None
    return {
        "kind": w.kind,
        "rank": w.rank,
        "clique": g.labels_of(w.clique),
        "separator": None if w.separator is None else g.labels_of(w.separator),
        "star_vertex": None if w.star_vertex is None else g.labels[w.star_vertex],
        "sides": None if w.sides is None else [g.labels_of(s) for s in w.sides],
    }


def _amalgam_json(a):
    if a is None:
        return None
    return {
        "factors": [a.factor1.text(), a.factor2.text()],
        "edge_generators": a.edge_generators,
        "embed1": sorted(a.embed1.items()),
        "embed2": sorted(a.embed2.items()),
    }


def summary(kind: str, result):
    if kind == "lattice":
        return lattice.report_to_dict(result)
    g, value = result
    if kind == "decide":
        return _witness_json(g, value)
    if kind == "spectrum":
        return sorted(value)
    if kind == "ccd":
        tree, gog = value
        return {
            "pieces": [g.labels_of(p) for p in tree.pieces],
            "tree_edges": tree.tree_edges,
            "cuts": [g.labels_of(c) for c in tree.cuts],
            "vertex_groups": [p.text() for p in gog.vertex_groups],
            "edge_groups": [p.text() for p in gog.edge_groups],
            "inclusions": gog.inclusions,
        }
    if kind == "witness":
        w, a = value
        return {"witness": _witness_json(g, w), "amalgam": _amalgam_json(a)}
    if kind == "present":
        return value.text()
    if kind == "star-split":
        a, verified = value
        return {"amalgam": _amalgam_json(a), "verified": verified}
    return value  # oracle: a bool


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- checks -------------------------------------------------------------------


def need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def oracle_affordable(g, n: int) -> bool:
    return 0 <= n <= g.n and comb(g.n, n) <= ORACLE_SUBSETS


def check_decision(g, n: int, w) -> None:
    """A decision agrees with the brute-force oracle when that is
    affordable, and its witness passes ``SplittingWitness.validate``."""
    if oracle_affordable(g, n):
        expected = splitting.brute_force_splits(g, n)
        need((w is not None) == expected, f"rank {n}: decided {w is not None}, oracle {expected}")
    if w is not None:
        need(w.rank == n, f"witness rank {w.rank} for a rank-{n} question")
        try:
            w.validate(g)
        except raagsplit.InternalInvariantError as exc:
            raise CheckFailed(str(exc)) from None


def check_amalgam(g, w, a) -> None:
    if w is None or w.kind == splitting.HNN_COMPLETE:
        need(a is None, "amalgam without a splitting")
        return
    if w.kind == splitting.STAR_SPLIT:
        need(presentations.verify_star_split(g, a) is True, "star-split amalgam fails verification")
        return
    gens1, gens2 = set(a.factor1.generators), set(a.factor2.generators)
    need(gens1 | gens2 == set(g.labels), "amalgam factors do not cover the generators")
    need(gens1 & gens2 == set(a.edge_generators), "factors do not meet in the edge group")
    need(g.separates([g.index_of(x) for x in a.edge_generators]), "edge group does not separate")


def check(kind: str, arg, result) -> None:
    """Raise CheckFailed unless ``result`` is a correct answer to the op."""
    if kind == "lattice":
        check_lattice(result)
        return
    g, value = result
    if kind == "decide":
        check_decision(g, arg, value)
    elif kind == "witness":
        w, a = value
        check_decision(g, arg, w)
        check_amalgam(g, w, a)
    elif kind == "oracle":
        w = splitting.splits_over_rank(g, arg)
        need(value == (w is not None), f"oracle says {value} at rank {arg}, decision disagrees")
    elif kind == "spectrum":
        check_spectrum(g, value)
    elif kind == "ccd":
        tree, _ = value
        report = ccd.validate_ccd(g, tree)
        need(report.passed, "; ".join(report.failures) or "validate_ccd failed")
    elif kind == "present":
        check_presentation(g, value)
    elif kind == "star-split":
        a, verified = value
        need(verified is True, "verify_star_split returned False")
        need(presentations.verify_star_split(g, a) is True, "amalgam fails re-verification")
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def check_spectrum(g, spectrum) -> None:
    omega = g.clique_number()
    complete = g.is_complete()
    for n in range(max(omega, g.n - 1) + 1):
        w = splitting.splits_over_rank(g, n)
        need((n in spectrum) == (w is not None), f"rank {n}: spectrum and decision disagree")
        if n > omega:
            # no n-clique exists, so only the complete-graph case splits
            need((n in spectrum) == (complete and n == g.n - 1), f"rank {n} above the clique number")
        else:
            check_decision(g, n, w)


def check_presentation(g, p) -> None:
    need(tuple(p.generators) == tuple(g.labels), "generators are not the vertices in order")
    pairs = set()
    for word in p.relators:
        need(len(word) == 4, f"relator {word} is not a commutator")
        (x, ex), (y, ey), (x2, ex2), (y2, ey2) = word
        need((x, y, ex, ey, ex2, ey2) == (x2, y2, 1, 1, -1, -1), f"relator {word} is not [x,y]")
        pairs.add(frozenset((x, y)))
    edges = {frozenset((g.labels[i], g.labels[j])) for i, j in combinations(range(g.n), 2)
             if g.adjacent(i, j)}
    need(pairs == edges and len(p.relators) == len(edges), "relators are not the edges")


def expected_verdict(scenario) -> str:
    """Criterion 5: a subgroup separates exactly when its rank is n - 1;
    the full hyperplane separates, the half shapes do not."""
    spec = scenario.subset_spec
    if isinstance(spec, lattice.CatalogSpec):
        return lattice.SEPARATES if spec.tag == "hyperplane" else lattice.DOES_NOT_SEPARATE
    rank = _rank(spec.generators)
    return lattice.SEPARATES if rank == scenario.ambient_rank - 1 else lattice.DOES_NOT_SEPARATE


def _rank(vectors) -> int:
    """Rank over the rationals, by exact fraction-free elimination."""
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[pivot[col] * x - r[col] * y for x, y in zip(r, pivot)] for r in rows]
        rows = [r for r in rows if any(r)]
        rank += 1
    return rank


def check_lattice(report) -> None:
    need(len(report.deep_witnesses) == report.deep_components, "one witness per deep component")
    need(report.deep_components <= report.total_components, "more deep than total components")
    verdict = lattice.SEPARATES if report.deep_components >= 2 else lattice.DOES_NOT_SEPARATE
    expected = expected_verdict(report.scenario)
    need(verdict == expected, f"verdict {verdict}, criterion 5 expects {expected}")
