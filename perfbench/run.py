"""Repository benchmark: shim-to-storage latency, end to end and per layer.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload portal --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that installs the span recorder for half
of the statements and reports the per-layer metrics, the layers'
coverage of client-observed time and the tracing overhead.  Workloads,
metrics and their bounds are declared in ``BENCHMARK.json``; the layer
to end-to-end mapping and the seed-state findings are in
``perfbench/layers.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(commit, host, versions, seed, every per-run value) is printed before it
and appended to ``perfbench/out/runs.jsonl``; a traced run also writes
its spans to ``perfbench/out/spans-<workload>-<seed>-<pid>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: statements whose accounted layers cover less than this share of the
#: client-observed time fail the traced run
MIN_COVERAGE = 0.90


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _write_spans(tracer, name: str) -> str:
    """Write the traced run's spans, one JSON object a line, under OUT."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({
                "id": s.sid, "name": s.name, "layer": s.layer,
                "statement": s.stmt, "parent": s.parent, "thread": s.thread,
                "start": s.start, "end": s.end, "busy": s.busy, **s.attrs,
            }) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("portal", "scan", "grid_ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import numpy as np

    from metrics import end_to_end, per_layer
    from tracer import Tracer
    import workloads

    tracer = Tracer() if args.trace else None
    work_dir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        if args.workload == "portal":
            outcome = workloads.portal(args.seed, args.seconds, tracer)
        elif args.workload == "scan":
            outcome = workloads.scan(args.seed, args.seconds, tracer)
        else:
            outcome = workloads.grid_ingest(args.seed, args.seconds, tracer, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = outcome.wrong == 0 and outcome.attempted > 0
    detail: dict = {}
    if tracer is None:
        metrics = end_to_end(outcome)
    else:
        metrics, detail = per_layer(tracer, outcome, args.workload == "portal")
        if metrics["trace.coverage"][0] < MIN_COVERAGE:
            correct = False
            detail["problem"] = "accounted layers cover too little of statement time"
        detail["spans_file"] = _write_spans(
            tracer, f"spans-{args.workload}-{args.seed}-{os.getpid()}.jsonl")
    untraced = [ms for _k, ms, traced in outcome.samples if not traced]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "started_at": started,
        "wall_s": time.time() - started,
        "samples": len(untraced),
        "traced_samples": len(outcome.samples) - len(untraced),
        "writes": len(outcome.write_ms),
        "setup_runs_s": outcome.setup_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "refused": outcome.refused,
        "errors": outcome.errors,
        "wrong": outcome.wrong,
        "failed_fraction": outcome.failed / max(1, outcome.attempted),
        "problems": outcome.problems,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
        **detail,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
