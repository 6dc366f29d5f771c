"""Benchmark driver for raagsplit.

    python3 perfbench/run.py --workload sep-hard --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, a table of metrics

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, nothing is installed.  One driver
process, one closed loop: each op starts when the previous one has
finished, with no threads.  The in-process workloads call the
library's public functions; ``cold-cli`` runs one CLI process per op,
one at a time.

A run repeats whole passes over the workload's corpus and stops at the
pass boundary nearest ``--seconds`` of op time, after at least three
passes.  Times are scaled to a reference machine speed measured by a
calibration loop between ops (see REFERENCE_CALIBRATION_S).  An op's
latency is the median over its passes; the metrics are taken over
those per-op medians.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  The
last line of stdout is the result object; the full record, provenance
included, goes to ``.perfbench-out/`` in the checkout.  Exit status is
0 when every op passed its checks, 1 when some op failed, 2 on a usage
error or when the checkout has no package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

DRIVER_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 0
SETUP_PROBES = 3
# every op runs at least this often in a run, and its latency is the
# median of its runs, which shrugs off one run hit by a short stall
MIN_PASSES = 3
# Times are reported at a reference machine speed.  The shared 2-vCPU
# machine the benchmark was sized on runs all code up to 1.7x faster or
# slower for tens of seconds at a time, which moved whole-run medians by
# 30% between two sets of runs.  A fixed pure-Python loop, timed between
# ops, measures the current speed; each time is scaled by
# REFERENCE_CALIBRATION_S / (the loop's median time around it).  Over
# 7-second windows this cut the spread of graph ops from 27% to 6% and
# of cold CLI starts from 22% to 6%.
REFERENCE_CALIBRATION_S = 0.025
CALIBRATE_EVERY_S = 0.5
# no run may take longer than this in its timed loop, whatever its speed
HARD_CAP_S = 100.0
# per-op time budget, kept by the driver's own timer
BUDGET_S = {"sep-hard": 15.0, "ccd-present": 10.0, "lattice-box": 15.0, "cold-cli": 30.0}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BudgetExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise BudgetExceeded


# -- one op --------------------------------------------------------------------


class OpRecord:
    __slots__ = ("index", "latency", "error", "digest", "scaled")

    def __init__(self, index, latency, error=None, digest=None):
        self.index, self.latency, self.error, self.digest = index, latency, error, digest
        self.scaled = latency  # latency at the reference machine speed


def calibration_sample() -> float:
    """Wall seconds of a fixed pure-Python loop: the machine's current
    speed for interpreter-bound work."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i
        table[i & 1023] = total
    return time.perf_counter() - start


def run_inprocess(op, data: bytes, budget: float, tracer=None):
    """(latency s, result, error); the budget interrupts the op with
    SIGALRM and records it as failed."""
    import ops

    kind, _, arg = op
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        result = ops.execute(kind, data, arg)
        return time.perf_counter() - start, result, None
    except BudgetExceeded:
        return time.perf_counter() - start, None, f"exceeded the {budget:g} s budget"
    except Exception as exc:  # any library error fails the op, the run goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)


class Checker:
    """Checks each distinct op's first result in full and every repeat
    against the first digest; on the default seed also against the
    digests recorded for this corpus."""

    def __init__(self, workload: str, seed: int | None):
        self.first: dict[int, str] = {}
        self.reference = None
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            self.reference = json.loads(DIGESTS.read_text()).get(workload)

    def record(self, rec: OpRecord, digest: str | None, full_check) -> None:
        if rec.error is not None:
            return
        rec.digest = digest
        if rec.index not in self.first:
            try:
                full_check()
            except Exception as exc:  # a checker that crashes also fails the op
                rec.error = f"check failed: {type(exc).__name__}: {exc}"
                return
            self.first[rec.index] = digest
            if self.reference is not None and self.reference[rec.index] != digest:
                rec.error = "result digest differs from the recorded one"
        elif self.first[rec.index] != digest:
            rec.error = "result differs from the first pass"


# -- workloads -----------------------------------------------------------------


WARMUP_GRAPH = b"a b\nb c\nc d\n"
WARMUP_SCENARIO = json.dumps({"ambient_rank": 2, "box_radius": 4,
                              "subset_spec": {"kind": "subgroup", "generators": [[1, 0]]}}).encode()


class Session:
    """A workload after set-up: its corpus, and for cold-cli the files
    on disk."""

    def __init__(self, workload: str, seed: int):
        import corpus

        self.workload = workload
        self.seed = seed
        self.corpus = corpus.build(workload, seed)
        self.budget = BUDGET_S[workload]
        self.workdir = None
        if workload == "cold-cli":
            self._setup_cold()
        else:
            self._setup_inprocess()

    def _setup_inprocess(self) -> None:
        import ops  # imports the package

        kinds = sorted({op[0] for op in self.corpus.ops})
        for kind in kinds:
            arg = {"decide": 1, "witness": 1, "oracle": 1, "star-split": "a"}.get(kind)
            ops.execute(kind, WARMUP_SCENARIO if kind == "lattice" else WARMUP_GRAPH, arg)

    def _setup_cold(self) -> None:
        import coldcli

        WORK.mkdir(exist_ok=True)
        self.workdir = WORK / f"{self.workload}-{self.seed}-{os.getpid()}"
        self.workdir.mkdir()
        for name, data in self.corpus.files:
            (self.workdir / name).write_bytes(data)
        (self.workdir / "warmup.txt").write_bytes(WARMUP_GRAPH)
        self.env = coldcli.child_env(SRC)
        _, code, _, err = coldcli.run_child(
            coldcli.cli_command("present", "warmup.txt", None), self.workdir, self.env, self.budget)
        if code != 0:
            self.close()
            raise RuntimeError(f"warm-up CLI run failed: {err.decode(errors='replace')}")

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # one op, timed, then checked outside the timed region
    def run_op(self, index: int, checker: Checker, tracer=None, importtime=False):
        kind, fi, arg = op = self.corpus.ops[index]
        name, data = self.corpus.files[fi]
        if self.workload == "cold-cli":
            import coldcli

            argv = coldcli.cli_command(kind, name, arg, importtime)
            latency, code, out, err = coldcli.run_child(argv, self.workdir, self.env, self.budget)
            rec = OpRecord(index, latency)
            if code is None:
                rec.error = f"exceeded the {self.budget:g} s budget"
            elif code not in (0, 1):
                rec.error = f"exit code {code}: {err.decode(errors='replace').strip()}"
            else:
                checker.record(rec, coldcli.output_digest(code, out),
                               lambda: coldcli.check_report(kind, name, arg, data, code, out))
            return rec, err
        import ops

        latency, result, error = run_inprocess(op, data, self.budget, tracer)
        rec = OpRecord(index, latency, error)
        if error is None:
            checker.record(rec, ops.digest(ops.summary(kind, result)),
                           lambda: ops.check(kind, arg, result))
        return rec, None


def timed_passes(session: Session, seconds: float, checker: Checker) -> tuple[list, int, list, float, list]:
    """Whole passes, at least MIN_PASSES, until the op time is within
    half a pass of ``seconds``.

    Calibration samples are taken before each pass, every
    CALIBRATE_EVERY_S between ops, and after it; each op of the pass is
    scaled by their median.  A set-up probe runs after each of the first
    SETUP_PROBES passes, outside the op time, so that the probes sample
    the machine at different moments.  Returns the op records, the number
    of passes, the scaled probe times, the peak RSS in MB over the first
    MIN_PASSES passes, and each pass's calibration median.
    """
    records: list[OpRecord] = []
    probes: list[float] = []
    factors: list[float] = []
    op_time = 0.0
    passes = 0
    rss = 0.0
    hard_stop = time.perf_counter() + HARD_CAP_S
    while time.perf_counter() < hard_stop:
        first = len(records)
        samples = [calibration_sample()]
        last = time.perf_counter()
        for index in range(len(session.corpus.ops)):
            rec, _ = session.run_op(index, checker)
            records.append(rec)
            op_time += rec.latency
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                samples.append(calibration_sample())
                last = time.perf_counter()
            if time.perf_counter() > hard_stop:
                break
        else:
            passes += 1
        samples.append(calibration_sample())
        factor = statistics.median(samples)
        factors.append(factor)
        for rec in records[first:]:
            rec.scaled = rec.latency * REFERENCE_CALIBRATION_S / factor
        if passes <= MIN_PASSES:
            # the same amount of work on every commit: a faster commit
            # runs more passes, and the heap grows by a few MB per pass
            rss = peak_rss_mb(children=session.workload == "cold-cli")
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe(session.workload, session.seed))
        if passes >= MIN_PASSES and op_time >= seconds - op_time / passes / 2:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(session.workload, session.seed))
    return records, passes, probes, rss, factors


# -- metrics --------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    leaves at least ten samples above it.  Below 21 samples that
    percentile would not reach the median, so the maximum stands in."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) >= 21 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh driver process that only sets up and exits,
    scaled to the reference speed by calibration samples around it."""
    before = calibration_sample()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    factor = (before + calibration_sample()) / 2
    return elapsed * REFERENCE_CALIBRATION_S / factor


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "raagsplit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".pyx"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(session: Session, seconds: float, trace: bool) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        from raagsplit import kernels
        backend = kernels.backend_name()
    except (ImportError, AttributeError):
        backend = None
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "workload": session.workload,
        "seed": session.seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "kernels_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "corpus_sha256": session.corpus.sha256(),
        "corpus_ops": len(session.corpus.ops),
    }


def failures(records: list[OpRecord], session: Session) -> list[dict]:
    out = []
    for rec in records:
        if rec.error is not None:
            kind, fi, arg = session.corpus.ops[rec.index]
            out.append({"op": rec.index, "kind": kind, "file": session.corpus.files[fi][0],
                        "arg": arg, "elapsed_s": rec.latency, "error": rec.error})
    return out


def latency_metrics(records: list[OpRecord], attr: str) -> tuple[dict, tuple]:
    """ops_per_s, latency_p50_ms and latency_tail_ms over per-op medians
    of ``attr``; also the tail's (percentile, samples beyond)."""
    by_op: dict[int, list[float]] = {}
    for r in records:
        by_op.setdefault(r.index, []).append(getattr(r, attr))
    latencies = [statistics.median(xs) for xs in by_op.values()]
    tail_value, tail_pct, beyond = tail(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail_value * 1000,
    }, (tail_pct, beyond, len(latencies))


def untraced_run(session: Session, seconds: float) -> tuple[dict, list, dict]:
    checker = Checker(session.workload, session.seed)
    first_op = time.perf_counter()
    records, passes, probes, rss, factors = timed_passes(session, seconds, checker)
    cold = session.workload == "cold-cli"
    scaled, (tail_pct, beyond, samples) = latency_metrics(records, "scaled")
    raw, _ = latency_metrics(records, "latency")
    metrics = {"setup_s": statistics.median(probes), **scaled, "peak_rss_mb": rss}
    details = {
        "passes": passes,
        "op_time_s": sum(r.latency for r in records),
        "driver_setup_s": first_op - DRIVER_START,
        "setup_probes_s": probes,
        "latency_of_an_op": "median over the passes, scaled to the reference speed",
        "calibration_s_per_pass": factors,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "unscaled_wall_metrics": raw,
        "latency_tail_percentile": tail_pct,
        "latency_samples": samples,
        "latency_samples_beyond_tail": beyond,
        "rss_of": "largest CLI child" if cold else "driver process",
    }
    return metrics, records, details


def traced_run(session: Session) -> tuple[dict, list, dict]:
    """One untraced pass, then the same pass traced; returns per-layer
    metrics."""
    import tracing

    checker = Checker(session.workload, session.seed)
    ops_range = range(len(session.corpus.ops))
    records = [session.run_op(i, checker)[0] for i in ops_range]
    untraced_s = sum(r.latency for r in records)
    metrics = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    details: dict = {}
    if session.workload == "cold-cli":
        traced_s = _traced_cold(session, checker, records, metrics)
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for i in ops_range:
                tracer.op = i
                rec, _ = session.run_op(i, checker, tracer=tracer)
                records.append(rec)
        finally:
            tracer.uninstall()
        traced_s = sum(r.latency for r in records[len(ops_range):])
        metrics.update(tracing.layer_metrics(tracer))
        _import_metrics(session, metrics)
        details["absent"] = tracer.absent
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{session.workload}-seed{session.seed}.json"
        path.write_text(json.dumps(dict(tracer.dump(), ops=session.corpus.ops)))
        details["trace_file"] = str(path.relative_to(ROOT))
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return metrics, records, details


def _import_metrics(session: Session, metrics: dict) -> None:
    """Cold import split for the in-process workloads: a bare
    interpreter against ``import raagsplit`` under -X importtime."""
    import coldcli

    env = coldcli.child_env(SRC)
    metrics["import.interpreter_s"] = coldcli.interpreter_baseline(env, ROOT)
    splits = []
    for _ in range(3):
        _, _, _, err = coldcli.run_child(
            [sys.executable, "-X", "importtime", "-c", "import raagsplit"], ROOT, env, 60)
        splits.append(coldcli.import_split(err.decode(errors="replace")))
    metrics["import.raagsplit_s"] = statistics.median(s["raagsplit"] for s in splits)
    metrics["import.numpy_scipy_s"] = statistics.median(s["numpy_scipy"] for s in splits)


def _traced_cold(session: Session, checker: Checker, untraced: list, metrics: dict) -> float:
    import coldcli

    metrics["import.interpreter_s"] = coldcli.interpreter_baseline(session.env, session.workdir)
    raag, numsci, after = [], [], []
    traced_s = 0.0
    for rec in list(untraced):
        traced, err = session.run_op(rec.index, checker, importtime=True)
        untraced.append(traced)
        traced_s += traced.latency
        split = coldcli.import_split(err.decode(errors="replace"))
        raag.append(split["raagsplit"])
        numsci.append(split["numpy_scipy"])
        after.append(rec.latency - metrics["import.interpreter_s"] - split["raagsplit"])
    metrics["import.raagsplit_s"] = statistics.median(raag)
    metrics["import.numpy_scipy_s"] = statistics.median(numsci)
    metrics["cli.after_import_s"] = statistics.median(after)
    return traced_s


# -- entry points ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    session = Session(workload, seed)
    try:
        if trace:
            import tracing

            metrics, records, details = traced_run(session)
            units = tracing.LAYER_METRICS
        else:
            metrics, records, details = untraced_run(session, seconds)
            units = END_TO_END
        prov = provenance(session, seconds, trace)
    finally:
        session.close()
    failed = failures(records, session)
    record = {
        "provenance": prov,
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "details": details,
        "failures": failed,
        "op_latencies_s": [[r.index, r.latency] for r in records],
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"ops {len(records)}  failed {len(failed)}  failed_frac {record['failed_frac']:g}")
    print_metrics(record["metrics"])
    if not trace:
        print(f"  latency_tail_ms is p{details['latency_tail_percentile']:.1f} of "
              f"{details['latency_samples']} samples, {details['latency_samples_beyond_tail']} beyond")
    elif details.get("absent"):
        print(f"  absent from the package: {', '.join(details['absent'])}")
    for f in failed[:10]:
        print(f"  FAILED op {f['op']} {f['kind']} {f['file']} {f['arg']}: {f['error']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"full record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0 if not failed else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own driver process, then one table."""
    import corpus

    rows = []
    status = 0
    for workload in corpus.WORKLOADS:
        for t in ([0, 1] if trace else [0]):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(t)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if not proc.stdout.strip():
                print(f"{workload}: no result (exit {proc.returncode})")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            status = status or proc.returncode
            rows.append((workload, t, result))
    for workload, t, result in rows:
        frac = result["failed"] / result["attempted"]
        print(f"{workload}  trace {t}  attempted {result['attempted']}  "
              f"failed {result['failed']}  failed_frac {frac:g}")
        print_metrics(result["metrics"])
    return status


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    import corpus

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from one default-seed pass of every workload")
    args = parser.parse_args(argv)

    if not (SRC / "raagsplit" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    if args.record_digests:
        return record_digests()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("--workload is required unless --all or --record-digests is given")
    if args.setup_only:
        Session(args.workload, args.seed).close()
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def record_digests() -> int:
    """Write the default seed's per-op result digests for every workload."""
    import corpus

    digests = {}
    for workload in corpus.WORKLOADS:
        session = Session(workload, DEFAULT_SEED)
        try:
            checker = Checker(workload, seed=None)  # no reference: this writes it
            records = [session.run_op(i, checker)[0] for i in range(len(session.corpus.ops))]
        finally:
            session.close()
        bad = [r for r in records if r.error is not None]
        if bad:
            print(f"{workload}: {len(bad)} ops failed, not recording: {bad[0].error}", file=sys.stderr)
            return 1
        digests[workload] = [r.digest for r in records]
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
