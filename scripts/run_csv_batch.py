#!/usr/bin/env python3
"""Offline batch driver: run the full experiment on every CSV in a directory.

Point it at a folder of datasets exported as CSV (one label column each) and
a base config; each dataset gets its own output subdirectory. Not part of the
test suite -- multi-dataset replications run offline.

    python scripts/run_csv_batch.py --data-dir csvs/ --label-column class \
        --outdir runs/batch [--config base_config.json]
"""

import argparse
import sys
from pathlib import Path

from shiftselect.evalcli import (ConfigError, accuracy_matrix, claims,
                                 config_from_dict, emit_report, read_config,
                                 run_experiment, summarize)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--label-column", default="class")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--config", default=None,
                        help="base config JSON; its dataset/outdir are ignored")
    args = parser.parse_args(argv)

    csv_paths = sorted(Path(args.data_dir).glob("*.csv"))
    if not csv_paths:
        print(f"no CSV files under {args.data_dir}", file=sys.stderr)
        return 1

    # every dataset's config is checked before any dataset runs
    try:
        base = read_config(args.config) if args.config else {}
        configs = [(path.stem, config_from_dict({
            **base,
            "dataset": {"kind": "csv", "path": str(path),
                        "label_column": args.label_column, "name": path.stem},
            "outdir": str(Path(args.outdir) / path.stem)}))
            for path in csv_paths]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    failures = 0
    for name, config in configs:
        print(f"=== {name} ===")
        try:
            table = run_experiment(config)
            emit_report(table, config.outdir)
        except Exception as exc:   # keep going: one bad dataset must not kill the batch
            print(f"{name} failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        strategies, _, acc = accuracy_matrix(table.rows)
        for strat, _, mean, std, *_ in summarize(strategies, acc, config.alpha):
            print(f"  {strat:<14} {mean:.4f} +- {std:.4f}")
        for claim in claims(strategies, acc):
            print(f"  {claim}")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
