"""The command line end to end on two generated CSVs. The module trains,
retrains, runs and reruns ``three.csv`` once (300 rows of three classes, a
categorical column, a 90-row test set with ragged BLAS panels) and shares
the outputs between its tests."""

import contextlib
import io
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from shiftselect.evalcli import main
from shiftselect.selection import load_registry
from test_evalcli import REPO, REPORT_FILES, csv_batch_script


def cli(*argv):
    """Run ``shiftselect`` here, require exit 0, and return its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return out.getvalue()


def write_csv(path, seed, header, line):
    """`header`, then 300 rows `line(x, c)`: class c = i % 3, x around 2c."""
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for i in range(300):
            c = i % 3
            fh.write(line(rng.normal(loc=2.0 * c, size=2), c) + "\n")


def write_config(path, **raw):
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def differing(a, b):
    """The report files whose bytes differ between output directories."""
    return [name for name in REPORT_FILES
            if (a / name).read_bytes() != (b / name).read_bytes()]


def registry_bytes(outdir):
    return (outdir / "registry" / "manifest.json").read_bytes()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    (root / "data").mkdir()
    three = root / "data" / "three.csv"
    write_csv(three, 0, "x1,x2,colour,label\n",
              lambda x, c: f"{x[0]:.6f},{x[1]:.6f},"
                           f"{'red' if x[0] > c else 'blue'},c{c}")
    write_csv(root / "headerless.csv", 1, "",
              lambda x, c: f" {x[0]:.6f},c{c},{x[1]:.6f} ,"
                           f"{' red' if x[1] > c else 'blue'}")
    config = write_config(root / "three.json", r=3, dataset={
        "kind": "csv", "path": str(three), "label_column": "label"})
    printed = cli("train", "--config", config, "--outdir", root / "train")
    cli("train", "--config", config, "--outdir", root / "retrain")
    for out in ("run", "rerun"):
        cli("run", "--config", config, "--outdir", root / out)
    return SimpleNamespace(root=root, config=config, printed=printed)


def test_csv_batch_runs_every_csv_of_a_directory(smoke, tmp_path):
    base = write_config(tmp_path / "base.json", r=3)
    assert csv_batch_script().main([
        "--data-dir", str(smoke.root / "data"), "--label-column", "label",
        "--outdir", str(tmp_path / "out"), "--config", str(base)]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "out" / "three" / name).stat().st_size > 0, name


def test_train_writes_one_registry_document_the_same_on_a_retrain(smoke):
    registry_dir = smoke.root / "train" / "registry"
    assert os.listdir(registry_dir) == ["manifest.json"]
    assert len(load_registry(registry_dir)) == int(smoke.printed.split()[1])
    assert registry_bytes(smoke.root / "train") == \
        registry_bytes(smoke.root / "retrain")
    # Newton-CG converges on every LR grid point, one-hot column included
    entries = json.loads(registry_bytes(smoke.root / "train"))["entries"]
    lr = [e for e in entries if e["model"]["family"] == "LR"]
    stopped = [e["model_id"] for e in lr if not e["model"]["meta"]["converged"]]
    assert lr and not stopped, stopped


def test_a_rerun_over_three_families_and_90_test_rows_writes_the_same_bytes(
        smoke):
    manifest = json.loads((smoke.root / "run" / "manifest.json").read_bytes())
    assert (manifest["splits"]["test"], manifest["grid_sizes"]) == (
        90, {"LR": 25, "KNN": 10, "MLP": 10})
    assert differing(smoke.root / "run", smoke.root / "rerun") == []


def test_the_run_warns_of_a_pick_whose_rate_matrix_is_rank_deficient(smoke):
    # model 15 predicts one class for every row: its rate matrix has rank 1,
    # and TMS-All picks it on two of the three bags
    summary = (smoke.root / "run" / "summary.txt").read_text(encoding="utf-8")
    warned = [line for line in summary.splitlines()
              if "rank-deficient" in line]
    assert len(warned) == 1, warned
    assert warned[0].startswith(
        "warning: TMS-All picked model 15 on 2 of 3 bags, whose rate matrix "
        "is rank-deficient")


def test_a_relative_csv_path_reruns_from_its_own_working_directory_only(
        smoke, tmp_path, monkeypatch, capsys):
    # the manifest keeps the path as written, which the run id hashes; from
    # another directory the rerun fails and names the file it tried
    monkeypatch.chdir(smoke.root / "data")
    config = write_config(tmp_path / "relative.json", r=3, dataset={
        "kind": "csv", "path": "three.csv", "label_column": "label"})
    cli("run", "--config", config, "--outdir", tmp_path / "first")
    record = json.loads((tmp_path / "first" / "manifest.json").read_bytes())[
        "config"]
    assert record["dataset"]["path"] == "three.csv"
    rerun = write_config(tmp_path / "rerun.json",
                         **{**record, "outdir": str(tmp_path / "again")})
    cli("run", "--config", rerun)
    assert differing(tmp_path / "first", tmp_path / "again") == []
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["run", "--config", str(rerun)]) == 2
    err = capsys.readouterr().err
    assert "stage 'dataset' failed: no CSV file at " \
        f"{os.path.join(os.getcwd(), 'three.csv')} " in err
    assert "a relative CSV path is read from the working directory" in err


def test_a_headerless_csv_labelled_by_index_runs_and_reruns_the_same(
        smoke, tmp_path):
    config = write_config(tmp_path / "headerless.json", r=3, dataset={
        "kind": "csv", "path": str(smoke.root / "headerless.csv"),
        "label_column": 1, "header": False})
    for out in ("run", "rerun"):
        cli("run", "--config", config, "--outdir", tmp_path / out)
    assert differing(tmp_path / "run", tmp_path / "rerun") == []
    # the padded numbers parse as one feature each and " red" is a
    # category of its own: two numbers and two one-hot columns
    dataset = json.loads((tmp_path / "run" / "manifest.json").read_bytes())[
        "dataset"]
    assert (dataset["n_features"], dataset["class_map"]) == (
        4, {"c0": 0, "c1": 1, "c2": 2}), dataset


def test_report_from_truncated_results_writes_a_summary(smoke, tmp_path):
    # a failed run flushes the rows it has, strategy by strategy: cut the
    # last strategy's rows, one per bag, from 3 to 1 and to none
    lines = (smoke.root / "run" / "results.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    for cut in (2, 3):
        partial = tmp_path / f"partial-{cut}.csv"
        partial.write_text("".join(lines[:-cut]), encoding="utf-8")
        cli("report", "--results", partial, "--outdir", tmp_path / str(cut))
        assert (tmp_path / str(cut) / "summary.csv").stat().st_size > 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_one_usable_cpu_trains_and_runs_in_one_process_to_the_same_bytes(
        smoke, tmp_path):
    # each command in a child process pinned to one CPU, so that
    # parallel._usable_cpus reads the affinity mask unpatched
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    for command in ("train", "run"):
        subprocess.run(
            [sys.executable, "-m", "shiftselect.evalcli", command, "--config",
             str(smoke.config), "--outdir", str(tmp_path / command)],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        timings = json.loads(
            (tmp_path / command / "timings.json").read_bytes())
        assert timings["mlp"]["workers"] == 1, command
    splits = json.loads((tmp_path / "run" / "manifest.json").read_bytes())[
        "splits"]
    two_cpus = json.loads((smoke.root / "run" / "timings.json").read_bytes())
    assert timings["evaluate"] == {   # the run's
        "workers": 1,
        "kde_kernel_values": two_cpus["evaluate"]["kde_kernel_values"]}
    assert 0 < timings["evaluate"]["kde_kernel_values"] <= \
        splits["test"] * splits["validation"] * 45
    assert registry_bytes(tmp_path / "train") == \
        registry_bytes(smoke.root / "train")
    assert differing(smoke.root / "run", tmp_path / "run") == []
