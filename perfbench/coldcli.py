"""The cold-cli workload: one ``python -m raagsplit.cli`` process per op.

Children run one at a time, from the directory holding the corpus
files, so each report echoes the same relative path on every run.  The
per-op budget is the child's timeout; a child that exceeds it is killed
and waited for.

The traced run splits a cold start with ``-X importtime`` and a bare
interpreter baseline; ``import_split`` reads that output.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def cli_argv(kind: str, name: str, arg) -> list[str]:
    if kind in ("decide", "witness", "oracle"):
        return [kind, "-n", str(arg), name]
    if kind == "star-split":
        return [kind, "-u", arg, name]
    return [kind, name]


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, env: dict, budget: float):
    """(latency s, exit code or None on timeout, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return time.perf_counter() - start, None, out, err
    return time.perf_counter() - start, proc.returncode, out, err


def cli_command(kind: str, name: str, arg, importtime: bool = False) -> list[str]:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, "-m", "raagsplit.cli", *cli_argv(kind, name, arg)]


def output_digest(code: int, out: bytes) -> str:
    return f"{code}:{hashlib.sha256(out).hexdigest()}"


_schemas: dict[str, dict] = {}


def check_report(kind: str, name: str, arg, data: bytes, code: int, out: bytes) -> None:
    """Schema, echo, input digest and exit code of one CLI report."""
    import jsonschema
    from ops import CheckFailed, need
    from raagsplit import cli, formats, splitting

    for schema in ("report", kind):
        if schema not in _schemas:
            _schemas[schema] = cli.schema_for(schema)
    try:
        report = json.loads(out)
        jsonschema.validate(report, _schemas["report"])
        jsonschema.validate(report["result"], _schemas[kind])
    except (ValueError, jsonschema.ValidationError) as exc:
        raise CheckFailed(f"report does not validate: {exc}") from None
    need(report["command"] == cli_argv(kind, name, arg), "command echo differs")
    need(report["input_sha256"] == hashlib.sha256(data).hexdigest(), "input digest differs")
    expected = 0
    if kind in ("decide", "witness", "oracle"):
        yes = splitting.brute_force_splits(formats.parse_graph(data), arg)
        expected = 0 if yes else 1
        need(report["result"]["answer"] == ("yes" if yes else "no"), "answer disagrees with the oracle")
    need(code == expected, f"exit code {code}, expected {expected}")
    if kind == "star-split":
        need(report["result"]["verified"] is True, "star split not verified")


# -- -X importtime ---------------------------------------------------------------


def _import_tree(stderr: str):
    """(depth, cumulative us, module) per ``-X importtime`` line."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    return rows


def import_split(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the outermost raagsplit imports, and of the
    outermost numpy and scipy imports wherever they happen."""
    rows = _import_tree(stderr)
    out = {"raagsplit": 0, "numpy_scipy": 0}
    # a module's children are printed before it, so walk backwards with
    # the chain of enclosing modules on a stack
    stack: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        enclosing = {n.split(".")[0] for _, n in stack}
        if top == "raagsplit" and "raagsplit" not in enclosing:
            out["raagsplit"] += cumulative
        if top in ("numpy", "scipy") and not enclosing & {"numpy", "scipy"}:
            out["numpy_scipy"] += cumulative
        stack.append((depth, name))
    return {k: v / 1e6 for k, v in out.items()}


def interpreter_baseline(env: dict, cwd: Path, repeats: int = 5) -> float:
    """Median wall seconds of a bare ``python -c pass``."""
    times = [run_child([sys.executable, "-c", "pass"], cwd, env, 30)[0] for _ in range(repeats)]
    return statistics.median(times)
