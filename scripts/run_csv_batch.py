#!/usr/bin/env python3
"""Offline batch driver: run the full experiment on every CSV in a directory.

Point it at a folder of datasets exported as CSV (one label column each) and
a base config; each dataset gets its own output subdirectory. Not part of the
test suite -- multi-dataset replications run offline.

    python scripts/run_csv_batch.py --data-dir csvs/ --label-column class \
        --outdir runs/batch [--config base_config.json]
"""

import argparse
import json
import sys
from pathlib import Path

from shiftselect.evalcli import config_from_dict, emit_report, run_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--label-column", default="class")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--config", default=None,
                        help="base config JSON; its dataset/outdir are ignored")
    args = parser.parse_args(argv)

    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
        base.pop("dataset", None)
        base.pop("outdir", None)
    else:
        base = {}

    csv_paths = sorted(Path(args.data_dir).glob("*.csv"))
    if not csv_paths:
        print(f"no CSV files under {args.data_dir}", file=sys.stderr)
        return 1

    failures = 0
    for path in csv_paths:
        raw = dict(base)
        raw["dataset"] = {"kind": "csv", "path": str(path),
                          "label_column": args.label_column,
                          "name": path.stem}
        raw["outdir"] = str(Path(args.outdir) / path.stem)
        config = config_from_dict(raw)
        print(f"=== {path.stem} ===")
        try:
            table = run_experiment(config)
            emit_report(table, config.outdir)
        except Exception as exc:   # keep going: one bad dataset must not kill the batch
            print(f"{path.stem} failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        for name, agg in table.aggregates.items():
            print(f"  {name:<14} {agg['mean']:.4f} +- {agg['std']:.4f}")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
