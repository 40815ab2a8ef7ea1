"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed; ``--trace 1`` runs the workload untraced and then traced (each
for half the time), reports the per-layer metrics from the traced half and
``trace.overhead_ratio`` between the two, and writes the spans to
``.perfbench_work/traces/``.  Every run checks the program's outputs
outside its timed window; a failed check makes the command exit 1.  The
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); ``--workload all`` runs each
workload in a child process of its own (so each reports its own peak RSS)
and prints a table of every workload's metrics instead.  Metric names and units are read from
``BENCHMARK.json``.  See ``perfbench/README.md`` for what each metric
means on each workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "dashboard", "gateway", "dews_season")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _metrics(spec: dict, key: str, measured: dict) -> dict:
    wanted = {entry["name"]: entry["unit"] for entry in spec[key]}
    if key == "per_layer":
        # a layer the workload does not cross did no work: report 0
        measured = {**dict.fromkeys(wanted, 0.0), **measured}
    missing = sorted(set(wanted) - set(measured))
    extra = sorted(set(measured) - set(wanted))
    if missing or extra:
        raise RuntimeError(f"{key} mismatch: missing {missing}, unexpected {extra}")
    return {
        name: {"value": float(measured[name]), "unit": unit}
        for name, unit in wanted.items()
    }


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool):
    module = importlib.import_module(f"wl_{workload}")
    outcome = module.run(seed=seed, seconds=seconds, trace=trace)
    if trace:
        metrics = _metrics(spec, "per_layer", outcome.layers)
    else:
        metrics = _metrics(spec, "end_to_end", outcome.e2e)
    return outcome, metrics


def run_all(args) -> int:
    """Every workload in a child process of its own; a table at the end."""
    rows, correct = [], True
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        for line in lines:
            if line.startswith("# ") and not line.startswith("# host "):
                print(line)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if child.returncode != 0 or result is None:
            print(f"# {workload}: exited with {child.returncode}")
            correct = False
        if result is not None:
            rows.extend((workload, name, entry) for name, entry in result["metrics"].items())
    for workload, name, entry in rows:
        print(f"{workload:12s} {name:40s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({"correct": correct}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"# host cores={os.cpu_count()} git_sha={git_sha()} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)
    spec = _spec()
    from harness import WORK_DIR

    try:
        outcome, metrics = run_one(spec, args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR / "tmp", ignore_errors=True)
    for name, value, unit, note in outcome.named:
        print(f"# {args.workload}: {name} = {value:.4f} {unit}" + (f"  ({note})" if note else ""))
    for line in outcome.report:
        print(f"# {args.workload}: {line}")
    for problem in outcome.problems:
        print(f"# {args.workload}: CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
