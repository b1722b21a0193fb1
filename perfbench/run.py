#!/usr/bin/env python3
"""shiftselect benchmark: one command, every metric by name and unit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-bags --seed 1 --seconds 40 --trace 0

It imports shiftselect from ``src/`` of that checkout, runs the workload in
one process with one caller and one BLAS thread, checks the outputs, writes
``perfbench/runs/<workload>-seed<n>-trace<t>.json`` (run context, metrics,
checks and, when traced, the raw spans) and prints as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The exit code is 0 when every check passes, 1 when a check fails and
2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "runs"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _context(args, numpy_version, source_digest) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_digest": source_digest,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-bags", "online-label"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shiftselect" / "__init__.py").is_file():
        print(f"error: no shiftselect sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy loads: BLAS reads these once
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("SHIFTSELECT_SEED", None)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import shiftselect
    if Path(shiftselect.__file__).resolve().parent != SRC / "shiftselect":
        print(f"error: imported shiftselect from {shiftselect.__file__}",
              file=sys.stderr)
        return 2
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    out = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                             bool(args.trace), workdir)
    correct = all(ok for _, ok, _ in out.checks)
    record = {
        "context": {**_context(args, np.__version__, workloads.source_digest()),
                    "params": out.params},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in out.checks],
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }
    if out.spans is not None:
        record["spans"] = out.spans
    (RUNS / f"{tag}.json").write_text(json.dumps(record))

    ctx = record["context"]
    print(f"# {tag} git={ctx['git_sha'][:12]} src={ctx['source_digest']} "
          f"python={ctx['python']} numpy={ctx['numpy']} nproc={ctx['nproc']} "
          f"blas_threads={BLAS_THREADS} params={json.dumps(out.params)}")
    for name, ok, detail in out.checks:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} {detail}")
    for name, (value, unit) in out.metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
