"""Seeded input generation for the four benchmark workloads.

Everything here is a pure function of the workload name and the seed:
the same pair always gives byte-identical graph files, scenario files
and op lists.  The generators use only ``random.Random`` and write the
file bytes themselves, so the program under test sees nothing but the
files.

Each workload draws its graph shapes and box sizes once, from a fixed
family seed, so every run seed measures the same structural mix.  The
run seed draws everything else: vertex labels, vertex and edge order
(but not the vertex order of the graphs with 32 or more vertices, see
``_Builder.graph``), file format, the ranks asked about, the star
vertices, the coordinate axes and shears of the lattice subgroups.  Drawing fresh shapes per
seed moved the cost of a sep-hard pass by about 20% (coefficient of
variation over six seeds), because the separator count of a sparse
random graph varies by an order of magnitude; no bound could absorb
that.

An op is a plain tuple ``(kind, file_index, arg)``:

* ``kind`` names a library question (``decide``, ``spectrum``, ``ccd``,
  ``witness``, ``present``, ``star-split``, ``oracle``, ``lattice``);
* ``file_index`` points into the corpus' file list;
* ``arg`` is the rank for decide / witness / oracle, the vertex label
  for star-split, and None otherwise.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("sep-hard", "ccd-present", "lattice-box", "cold-cli")


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    files: tuple[tuple[str, bytes], ...]  # (file name, content)
    ops: tuple[tuple, ...]  # one pass; a run repeats whole passes

    def sha256(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps([self.workload, self.seed, self.ops]).encode())
        for name, data in self.files:
            h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        return h.hexdigest()


# -- graph shapes, as (n, edge list over 0..n-1) ------------------------------


def _spanning_tree_plus_gnp(rng: random.Random, n: int, p: float):
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return n, sorted(edges)


def _cycle(n: int):
    return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _random_tree(rng: random.Random, n: int):
    return n, sorted((rng.randrange(i), i) for i in range(1, n))


def _clique_sum(rng: random.Random, n: int, max_clique: int):
    """Chordal graph: each new vertex joins a random sub-clique of an
    existing clique, so every minimal separator is a clique."""
    cliques = [[0]]
    edges = set()
    for v in range(1, n):
        base = rng.choice(cliques)
        k = rng.randint(1, min(len(base), max_clique - 1))
        attach = rng.sample(base, k)
        edges.update((u, v) for u in attach)
        cliques.append(attach + [v])
    return n, sorted(edges)


def _small_connected(rng: random.Random, n: int):
    return _spanning_tree_plus_gnp(rng, n, rng.choice((0.15, 0.3, 0.45)))


# -- serialisation --------------------------------------------------------------


def _labelled(rng: random.Random, order_rng: random.Random, shape, fmt: str) -> tuple[bytes, list[str]]:
    """Write a shape in one of the three graph formats; return the bytes
    and each shape vertex's label.

    ``order_rng`` draws the vertex order, which decides every tie the
    package breaks by vertex index; ``rng`` draws the label names, the
    edge order and the orientation of each edge.
    """
    n, edges = shape
    position = list(range(n))
    order_rng.shuffle(position)
    names = sorted(rng.sample(range(10 * n), n))
    rng.shuffle(names)
    labels = [f"v{names[position[i]]}" for i in range(n)]
    vertices = [labels[i] for i in sorted(range(n), key=lambda i: position[i])]
    pairs = [(labels[a], labels[b]) for a, b in edges]
    pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
    rng.shuffle(pairs)
    if fmt == "json":
        doc = {"vertices": vertices, "edges": [list(p) for p in pairs]}
        return json.dumps(doc).encode(), labels
    if fmt == "edge-list":
        text = "\n".join(vertices + [f"{a} {b}" for a, b in pairs]) + "\n"
        return text.encode(), labels
    body = [f"  {v};" for v in vertices] + [f"  {a} -- {b};" for a, b in pairs]
    return ("graph {\n" + "\n".join(body) + "\n}\n").encode(), labels


def _star_vertices(shape) -> list[int]:
    """Vertices whose closed neighbourhood is not the whole graph."""
    n, edges = shape
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return [v for v in range(n) if deg[v] < n - 1]


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.family = random.Random(f"{workload}:family")
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: list[tuple[str, bytes]] = []
        self.ops: list[tuple] = []

    def graph(self, shape, fixed_order: bool = False) -> tuple[int, list[str]]:
        """Add a graph file; return its index and the shape's labels.

        With ``fixed_order`` the vertex order comes from the family seed:
        the ccd recursion on a large graph splits at the cut that comes
        first in vertex order, and on the 48- and 64-vertex graphs that
        choice alone moves an op's cost by up to 3x.
        """
        fmt = self.rng.choice(("json", "edge-list", "dot-subset"))
        data, labels = _labelled(self.rng, self.family if fixed_order else self.rng, shape, fmt)
        ext = {"json": "json", "edge-list": "txt", "dot-subset": "dot"}[fmt]
        self.files.append((f"g{len(self.files):03d}.{ext}", data))
        return len(self.files) - 1, labels

    def scenario(self, n: int, kind: str, radius: int) -> int:
        doc = _scenario_doc(self.rng, n, kind, radius)
        self.files.append((f"s{len(self.files):03d}.json", json.dumps(doc).encode()))
        return len(self.files) - 1

    def rank(self, top: int = 3) -> int:
        return self.rng.randint(1, top)

    def corpus(self) -> Corpus:
        return Corpus(self.workload, self.seed, tuple(self.files), tuple(self.ops))


def _scenario_doc(rng: random.Random, n: int, kind: str, radius: int) -> dict:
    unit = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    if kind == "coord-n-1":
        gens = rng.sample(unit, n - 1)
        # a unimodular shear keeps the subgroup but changes the generators
        if n >= 3 and rng.random() < 0.5:
            gens[0] = [x + y for x, y in zip(gens[0], gens[1])]
        spec = {"kind": "subgroup", "generators": gens}
    elif kind == "coord-1":
        spec = {"kind": "subgroup", "generators": [rng.choice(unit)]}
    elif kind == "dense":
        spec = {"kind": "subgroup", "generators": [[2 * x for x in v] for v in unit]}
    else:
        spec = {"kind": "catalog", "tag": kind}
    return {"ambient_rank": n, "subset_spec": spec, "box_radius": radius,
            "thickening": 1, "depth": max(2, radius // 4)}


# -- workloads --------------------------------------------------------------------


def _sep_hard(seed: int) -> Corpus:
    """Sparse-to-mid graphs where the separator enumeration dominates.

    Each random graph gets one op.  The cheap sizes hold three graphs
    per op kind in every (n, p) cell, so that the latencies near the
    median come from many distinct graphs; at n = 24 each cell holds
    two graphs, with the op kinds rotating, so that those few graphs do
    not take the whole pass.
    """
    b = _Builder("sep-hard", seed)
    kinds = ("decide", "spectrum", "ccd", "witness")
    for n in (16, 20, 24):
        for j, p in enumerate((0.05, 0.1, 0.2)):
            cell = kinds * 3 if n < 24 else (kinds[2 * j % 4], kinds[(2 * j + 1) % 4])
            for kind in cell:
                i, _ = b.graph(_spanning_tree_plus_gnp(b.family, n, p))
                b.ops.append(_sep_op(b, kind, i))
    for n in (16, 20, 24):
        i, _ = b.graph(_cycle(n))
        b.ops += [_sep_op(b, kind, i) for kind in kinds]
    return b.corpus()


def _sep_op(b: _Builder, kind: str, i: int) -> tuple:
    return (kind, i, b.rank() if kind in ("decide", "witness") else None)


def _ccd_present(seed: int) -> Corpus:
    """Small graphs asked every question, plus chordal clique-sums and
    trees up to the CLI's 64-vertex cap."""
    b = _Builder("ccd-present", seed)
    for _ in range(24):
        shape = _small_connected(b.family, b.family.randint(6, 10))
        i, labels = b.graph(shape)
        for v in _star_vertices(shape):
            b.ops.append(("star-split", i, labels[v]))
        b.ops += [("witness", i, b.rank()), ("present", i, None), ("ccd", i, None),
                  ("decide", i, b.rank()), ("oracle", i, b.rank())]
    for n in (32, 48, 64):
        for shape in (_clique_sum(b.family, n, 5), _random_tree(b.family, n)):
            i, _ = b.graph(shape, fixed_order=True)
            b.ops += [("ccd", i, None), ("spectrum", i, None),
                      ("witness", i, b.rank(4)), ("present", i, None)]
    return b.corpus()


# (ambient rank, box radius, subset kind); rank 3 at R=40 and rank 4 at
# R=12 are 0.5 M and 0.4 M cells
_LATTICE_BOXES = (
    [(3, 30, k) for k in ("coord-n-1", "coord-1", "dense", "hyperplane", "half-hyperplane")]
    + [(3, 40, "coord-n-1"), (3, 40, "half-hyperplane")]
    + [(4, 10, k) for k in ("coord-n-1", "coord-1", "dense", "hyperplane", "half-hyperplane")]
    + [(4, 12, "coord-n-1")]
    + [(2, r, k) for r, k in ((24, "coord-n-1"), (32, "coord-1"), (40, "hyperplane"),
                                (48, "half-hyperplane"))]
)


def _lattice_box(seed: int) -> Corpus:
    """deep_components on rank-2 to rank-4 boxes of every scenario kind."""
    b = _Builder("lattice-box", seed)
    for n, radius, kind in _LATTICE_BOXES:
        b.ops.append(("lattice", b.scenario(n, kind, radius), None))
    return b.corpus()


def _cold_cli(seed: int) -> Corpus:
    """Every CLI command once on small graphs, plus a 64-vertex chordal
    ccd and a small lattice box."""
    b = _Builder("cold-cli", seed)
    small = [_small_connected(b.family, b.family.randint(3, 10)) for _ in range(2)]
    graphs = [b.graph(shape) for shape in small]
    for k, kind in enumerate(("decide", "spectrum", "ccd", "witness", "present", "oracle")):
        i, _ = graphs[k % 2]
        b.ops.append((kind, i, b.rank() if kind in ("decide", "witness", "oracle") else None))
    shape = next(s for s in small if _star_vertices(s))
    i, labels = graphs[small.index(shape)]
    b.ops.append(("star-split", i, labels[b.rng.choice(_star_vertices(shape))]))
    b.ops.append(("ccd", b.graph(_clique_sum(b.family, 64, 5), fixed_order=True)[0], None))
    b.ops.append(("lattice", b.scenario(2, "coord-n-1", 16), None))
    return b.corpus()


_BUILDERS = {
    "sep-hard": _sep_hard,
    "ccd-present": _ccd_present,
    "lattice-box": _lattice_box,
    "cold-cli": _cold_cli,
}


def build(workload: str, seed: int) -> Corpus:
    return _BUILDERS[workload](seed)
