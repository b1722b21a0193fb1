#!/usr/bin/env python3
"""Rewrite the golden runs that tests/test_golden.py checks.

Each golden is a directory tests/data/golden/<name>/ that holds the run's
config.json, which is its manifest.json's `config` record, and the
results.csv it wrote. Run from the repository root:

    PYTHONPATH=src python scripts/regen_goldens.py

A change that regenerates a golden says why in CHANGES.md, with the largest
est_acc move and every changed pick.
"""

import json
import shutil
import tempfile
from pathlib import Path

from shiftselect.evalcli import config_from_dict, emit_report, run_experiment
from shiftselect.selection import write_json

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden"

GOLDENS = {
    # the default config at a small r
    "default": {"r": 20},
    # classify-and-count, where degenerate models win TMS-All on some bags
    "cc": {"quantifier": "CC", "seed": 1, "r": 20},
    # every TMS scope against IMS-All and the oracle, on 4 classes in 3 dims
    "scopes": {"r": 20,
               "dataset": {"kind": "synthetic", "n_classes": 4, "dims": 3,
                           "class_separation": 1.0},
               "strategies": ["IMS-All", "TMS-All", "TMS-LR", "TMS-KNN",
                              "TMS-MLP", "oracle"]},
}


def main():
    for name, raw in GOLDENS.items():
        golden = GOLDEN_DIR / name
        with tempfile.TemporaryDirectory() as outdir:
            emit_report(run_experiment(config_from_dict(
                {**raw, "outdir": outdir})), outdir)
            manifest = json.loads(Path(outdir, "manifest.json").read_text())
            write_json(golden, "config.json", manifest["config"])
            shutil.copyfile(Path(outdir, "results.csv"),
                            golden / "results.csv")
        print(f"wrote {golden}")


if __name__ == "__main__":
    main()
