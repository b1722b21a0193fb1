"""Reruns of the golden runs under tests/data/golden (see its README.md and
scripts/regen_goldens.py). Each golden's config.json is a manifest's
`config` record, and its run must write the checked-in results.csv: every
column identical, except `est_acc`, which may move by at most 1e-12."""

import csv
import math
from pathlib import Path

import pytest

from shiftselect.evalcli import (config_from_dict, emit_report, read_config,
                                 run_experiment)

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
EST_ACC_TOL = 1e-12


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()
                                         if p.is_dir()))
def test_a_golden_config_reruns_to_its_results(name, tmp_path):
    golden = GOLDEN_DIR / name
    config = config_from_dict({**read_config(golden / "config.json"),
                               "outdir": str(tmp_path)})
    emit_report(run_experiment(config), tmp_path)
    want = read_rows(golden / "results.csv")
    got = read_rows(tmp_path / "results.csv")
    assert len(got) == len(want)
    for a, b in zip(got, want):
        ea, eb = a.pop("est_acc"), b.pop("est_acc")
        assert a == b
        assert (ea, eb) == ("", "") or \
            math.fabs(float(ea) - float(eb)) <= EST_ACC_TOL, (a, ea, eb)
