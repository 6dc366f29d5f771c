"""Tests of the benchmark itself: corpus determinism, the checkers, the
tracer and the driver's refusal to run without package sources.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import coldcli  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from raagsplit import lattice, presentations, splitting  # noqa: E402
from raagsplit.graphs import Graph, path_graph  # noqa: E402


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_same_seed_same_inputs(workload):
    a, b = corpus.build(workload, 7), corpus.build(workload, 7)
    assert a.files == b.files and a.ops == b.ops
    assert a.sha256() == b.sha256()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_other_seed_other_inputs(workload):
    a, b = corpus.build(workload, 7), corpus.build(workload, 8)
    assert a.files != b.files
    assert a.sha256() != b.sha256()


def test_generated_graphs_parse_with_the_labels_the_ops_use():
    from raagsplit.formats import parse_graph

    c = corpus.build("ccd-present", 3)
    for kind, fi, arg in c.ops:
        if kind == "star-split":
            g = parse_graph(c.files[fi][1])
            assert g.star((g.index_of(arg),)) != g.vertices()


def _raises_check(kind, arg, result):
    with pytest.raises(ops.CheckFailed):
        ops.check(kind, arg, result)


def test_checker_rejects_tampered_star_split():
    # the criterion-4 fixture: u embeds as a single letter, not a square
    g = path_graph("abc")
    a = presentations.star_split(g, 0)
    ops.check("star-split", "a", (g, (a, True)))
    tampered = replace(a, embed1={**a.embed1, "a": (("a_1", 1),)})
    _raises_check("star-split", "a", (g, (tampered, True)))


def test_checker_rejects_witness_whose_separator_does_not_separate():
    g = path_graph("abc")
    good = splitting.splits_over_rank(g, 2)
    ops.check("decide", 2, (g, good))
    bad = replace(good, separator=(0,))  # {a} does not cut the path
    _raises_check("decide", 2, (g, bad))


def test_checker_rejects_wrong_decision_spectrum_and_lattice_verdict():
    g = path_graph("abc")
    _raises_check("decide", 2, (g, None))
    _raises_check("oracle", 2, (g, False))
    _raises_check("spectrum", None, (g, {1}))
    report = lattice.deep_components(lattice.standard_rank_scenario(2, 1))
    ops.check("lattice", None, report)
    _raises_check("lattice", None, replace(report, deep_components=1, deep_witnesses=report.deep_witnesses[:1]))


def test_checker_rejects_presentation_missing_a_relator():
    g = Graph("abc", [("a", "b"), ("b", "c")])
    p = presentations.raag_presentation(g)
    ops.check("present", None, (g, p))
    _raises_check("present", None, (g, presentations.Presentation(p.generators, p.relators[:1])))


def test_failed_check_and_changed_digest_count_as_failed_ops():
    checker = run.Checker("sep-hard", seed=None)

    def bad():
        raise ops.CheckFailed("tampered")

    rec = run.OpRecord(0, 0.01)
    checker.record(rec, "d0", bad)
    assert rec.error and "tampered" in rec.error

    first, repeat = run.OpRecord(1, 0.01), run.OpRecord(1, 0.01)
    checker.record(first, "d1", lambda: None)
    checker.record(repeat, "d2", lambda: None)
    assert first.error is None and repeat.error == "result differs from the first pass"


def test_budget_interrupts_an_op(monkeypatch):
    import signal

    signal.signal(signal.SIGALRM, run._alarm)
    monkeypatch.setattr(ops, "execute", lambda kind, data, arg: any(x for x in iter(int, 1)))
    latency, result, error = run.run_inprocess(("decide", 0, 1), b"", budget=0.05)
    assert result is None and "budget" in error and latency >= 0.05


def test_tracer_reports_missing_names_and_restores_everything(monkeypatch):
    from raagsplit import ccd, graphs, kernels

    before = (graphs.Graph.minimal_clique_separators, kernels.component_bits, ccd.raag_presentation)
    monkeypatch.setattr(tracing, "COUNTERS", tracing.COUNTERS + (("kernels.gone", "raagsplit.kernels", "gone"),))
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (("nomodule.f", "raagsplit.nomodule", "f"),))
    t = tracing.Tracer()
    t.install()
    try:
        assert kernels.component_bits is not before[1]
        # a name imported into another module is wrapped there too
        assert ccd.raag_presentation is presentations.raag_presentation
        t.active = True
        t.op = 0
        ops.execute("ccd", b"a b\nb c\n", None)
        t.active = False
    finally:
        t.uninstall()
    assert (graphs.Graph.minimal_clique_separators, kernels.component_bits, ccd.raag_presentation) == before
    assert set(t.absent) == {"kernels.gone", "nomodule.f"}
    metrics = tracing.layer_metrics(t)
    assert metrics["ccd.pieces"] == 2
    assert metrics["graphs.minimal_clique_separators.calls"] >= 1
    assert metrics["kernels.component_bits.calls"] >= 1
    # self time never exceeds the span's own duration
    assert 0 <= metrics["ccd.complete_cut_decomposition.self_s"] <= t.total("ccd.complete_cut_decomposition")


def test_import_split_counts_outermost_imports_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       100 |        150 |     scipy",
        "import time:       500 |        950 |   raagsplit.lattice",
        "import time:        50 |       1000 | raagsplit",
        "import time:        10 |         10 | raagsplit.cli",
    ])
    split = coldcli.import_split(text)
    assert split == {"raagsplit": 1010 / 1e6, "numpy_scipy": 450 / 1e6}


def test_tail_has_ten_samples_beyond_or_is_the_maximum():
    xs = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(xs)
    assert (value, beyond) == (89.0, 10) and pct == 90.0
    assert run.tail(xs[:15])[0] == 14.0


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(corpus.WORKLOADS)


def test_digests_cover_every_default_seed_op():
    digests = json.loads(run.DIGESTS.read_text())
    for workload in corpus.WORKLOADS:
        assert len(digests[workload]) == len(corpus.build(workload, run.DEFAULT_SEED).ops)


def test_driver_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sep-hard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
