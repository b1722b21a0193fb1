import csv
import filecmp
import hashlib
import importlib.util
import json
import multiprocessing
import os
import threading
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from shiftselect import evalcli, parallel
from shiftselect.classifiers import (MLP_MAX_EPOCHS, argmax_rows,
                                    predict_posteriors_batch)
from shiftselect.evalcli import (ConfigError, ResultRow, ResultTable, RunConfig,
                                 StageError, accuracy_matrix, claims,
                                 config_from_dict, _prepare, emit_report,
                                 load_config,
                                 read_results_csv, run_experiment, summarize,
                                 wilcoxon_signed_rank, main)
from shiftselect.protocol import (app_generate, bin_by_shift, l1_shift,
                                  reveal_labels)
from shiftselect.selection import (default_select, ims_select, load_registry,
                                   tms_select)


REPO = Path(__file__).resolve().parents[1]
SMALL_DATASET = {"kind": "synthetic", "n_classes": 2, "dims": 2, "n": 400,
                 "class_separation": 2.5, "prevalence": [0.6, 0.4]}
CSV_SPEC = {"kind": "csv", "path": "data.csv", "label_column": "y"}
# the files a rerun must write byte for byte: all a run writes but timings.json
REPORT_FILES = ("manifest.json", "results.csv", "summary.csv",
                "shift_curve.csv", "summary.txt")


def small_config(outdir, **overrides):
    kwargs = dict(
        dataset=dict(SMALL_DATASET),
        r=10, s=50, seed=5,
        families=("KNN",),
        strategies=("default-KNN", "IMS-KNN", "TMS-All", "oracle"),
        outdir=str(outdir),
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_defaults_match_protocol_constants():
    config = RunConfig()
    assert config.r == 1000
    assert config.s == 100
    assert config.train_fraction == 0.7
    assert config.proper_fraction == 0.5
    assert config.n_bins == 10
    assert config.quantifier == "KDEyML"
    config.validate()


def test_readme_config_example_names_every_field():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    after = readme.split("A config is a JSON object; every key has a default:")[1]
    example = json.loads(after.split("```json")[1].split("```")[0])
    assert set(example) == {f.name for f in fields(RunConfig)}
    config_from_dict(example)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"r": 10, "bogus": 1})


@pytest.mark.parametrize("patch", [
    {"train_fraction": 0.0}, {"train_fraction": 1.0},
    {"proper_fraction": 1.5}, {"r": 0}, {"s": 0}, {"n_bins": 0},
    {"bandwidth": -0.1}, {"cap_weight": 0.0},
    {"families": ("LR", "SVM")}, {"quantifier": "PACC"},
    {"strategies": ("IMS-SVM",)}, {"strategies": ("bogus",)},
    {"dataset": {"kind": "parquet"}},
    {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": 2.0}, {"alpha": -1},
    {"dataset": {"kind": "synthetic", "n_classes": 1}},
    {"seed": -1}, {"dataset": {"kind": "synthetic", "seed": -3}},
    {"strategies": []}, {"dataset": {"kind": "synthetic", "name": {"a": 1}}},
    {"dataset": {"kind": "synthetic", "dims": 0}},
    {"dataset": {"kind": "synthetic", "n": -5}},
])
def test_config_validation_rejects(patch):
    raw = dict(patch)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize("patch, name", [
    ({"seed": -1}, "seed"),
    ({"dataset": {"kind": "synthetic", "seed": -3}}, "dataset.seed"),
])
def test_config_negative_seed_names_its_field(patch, name):
    with pytest.raises(ConfigError, match=f"^{name} must be non-negative"):
        config_from_dict(patch)


@pytest.mark.parametrize("key, value", [("dims", 0), ("n", -5), ("n", 2)])
def test_config_synthetic_sizes_name_their_field(key, value, tmp_path):
    # n must cover the default three classes
    dataset = {"kind": "synthetic", key: value}
    with pytest.raises(ConfigError, match=rf"^dataset\.{key} must be at least"):
        config_from_dict({"dataset": dataset})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": dataset}), encoding="utf-8")
    assert main(["run", "--config", str(path), "--outdir", str(tmp_path)]) == 1


@pytest.mark.parametrize("patch", [
    {"r": 2.5}, {"r": "5"}, {"r": True}, {"s": 100.0}, {"seed": "0"},
    {"seed": None}, {"n_bins": 2.5}, {"n_bins": False},
    {"train_fraction": "0.7"}, {"proper_fraction": None},
    {"bandwidth": "0.1"}, {"bandwidth": True}, {"bandwidth": float("nan")},
    {"cap_weight": [1.0]}, {"cap_weight": float("inf")},
    {"smoothing": "0"}, {"alpha": "0.05"},
    {"standardize": "no"}, {"standardize": 1}, {"standardize": None},
    {"outdir": 5}, {"quantifier": ["CC"]}, {"dataset": "synthetic"},
    {"dataset": None}, {"strategies": [5]}, {"strategies": "oracle"},
    {"families": ["LR", None]}, {"families": 3},
])
def test_config_rejects_mistyped_numbers(patch, tmp_path):
    name = next(iter(patch))
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        config_from_dict(patch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(patch), encoding="utf-8")
    code = main(["run", "--config", str(path), "--outdir", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("name, value", [
    ("n_classes", "x"), ("n_classes", "3"), ("n_classes", True),
    ("dims", "two"), ("dims", 2.0), ("n", 2.5), ("n", None), ("seed", "1"),
    ("class_separation", "2"), ("class_separation", float("nan")),
    ("class_separation", False),
    ("path", 5), ("path", None), ("label_column", ["y"]),
    ("label_column", True), ("header", "no"), ("name", {"a": 1}),
])
def test_config_rejects_mistyped_dataset_fields(name, value, tmp_path):
    if name in ("path", "label_column", "header"):
        dataset = {"kind": "csv", "path": "data.csv", "label_column": "y"}
    else:
        dataset = {"kind": "synthetic"}
    dataset[name] = value
    with pytest.raises(ConfigError, match=rf"^dataset\.{name} must be"):
        config_from_dict({"dataset": dataset})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": dataset}), encoding="utf-8")
    for command in ("train", "run"):
        code = main([command, "--config", str(path), "--outdir", str(tmp_path)])
        assert code == 1


@pytest.mark.parametrize("dataset, message", [
    ({"kind": "synthetic", "n_clases": 5},
     r"unknown keys for a synthetic dataset: \['n_clases'\]"),
    ({**CSV_SPEC, "hedaer": False},
     r"unknown keys for a csv dataset: \['hedaer'\]"),
    ({**CSV_SPEC, "prevalence": [0.5, 0.5]},
     r"unknown keys for a csv dataset: \['prevalence'\]"),
    ({"kind": "synthetic", "prevalence": [0.5, 0.5]},
     "dataset.prevalence: prevalence has 2 entries, expected 3"),
    ({"kind": "synthetic", "n_classes": 2, "prevalence": [0.5, 0.6]},
     "dataset.prevalence: prevalence sums to"),
    ({"kind": "synthetic", "prevalence": ["a", "b", "c"]},
     "dataset.prevalence: could not convert"),
], ids=["misspelt synthetic key", "misspelt csv key", "csv prevalence",
        "prevalence length", "prevalence sum", "prevalence entries"])
def test_config_rejects_unknown_dataset_keys_and_a_misfit_prevalence(
        dataset, message, tmp_path):
    with pytest.raises(ConfigError, match=message):
        config_from_dict({"dataset": dataset})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": dataset}), encoding="utf-8")
    for command in ("train", "run"):
        code = main([command, "--config", str(path), "--outdir",
                     str(tmp_path / command)])
        assert code == 1
        assert not (tmp_path / command).exists()


def test_config_accepts_a_name_and_a_fitting_prevalence():
    config = config_from_dict({"dataset": {
        "kind": "synthetic", "name": "toy", "prevalence": [0.2, 0.3, 0.5]}})
    assert config.dataset["name"] == "toy"
    config_from_dict({"dataset": {**CSV_SPEC, "name": "toy", "header": True}})


def test_config_accepts_a_csv_label_column_index():
    config = config_from_dict({"dataset": {"kind": "csv", "path": "data.csv",
                                           "label_column": 0}})
    assert config.dataset["label_column"] == 0


@pytest.mark.parametrize("patch", [
    {"strategies": ["IMS-All", "TMS-All", "TMS-All", "oracle"]},
    {"families": ["KNN", "KNN"], "strategies": ["TMS-All"]},
])
def test_config_rejects_duplicate_names(patch):
    key = "strategies" if len(patch) == 1 else "families"
    with pytest.raises(ConfigError, match=f"duplicate {key}"):
        config_from_dict(patch)


def test_config_accepts_numpy_numbers(tmp_path):
    config_from_dict({"r": np.int64(10), "bandwidth": np.float64(0.2),
                      "alpha": 0.05, "smoothing": 0})
    # numpy numbers, in the config and in its dataset spec, run as the
    # Python numbers they hold: the same run id and the same files
    plain = small_config(tmp_path / "plain", r=3)
    numbers = config_from_dict({
        **asdict(plain), "r": np.int64(3), "s": np.int64(50),
        "seed": np.int64(5), "bandwidth": np.float64(0.1),
        "cap_weight": np.float32(1.0),
        "outdir": str(tmp_path / "numpy"),
        "dataset": {**SMALL_DATASET, "n_classes": np.int64(2),
                    "n": np.int64(400),
                    "prevalence": np.array([0.6, 0.4])}})
    for config in (plain, numbers):
        emit_report(run_experiment(config), config.outdir)
    for name in REPORT_FILES:
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "numpy" / name).read_bytes(), name


def test_strategy_parsing():
    from shiftselect.evalcli import _parse_strategy
    assert _parse_strategy("oracle", ("LR",)) == ("oracle", "All")
    assert _parse_strategy("IMS-All", ("LR",)) == ("IMS", "All")
    assert _parse_strategy("TMS-LR", ("LR",)) == ("TMS", "LR")
    with pytest.raises(ConfigError):
        _parse_strategy("default-All", ("LR",))


# ---------------------------------------------------------------------------
# wilcoxon signed-rank
# ---------------------------------------------------------------------------

def test_wilcoxon_rejects_all_zero_differences():
    a = np.arange(8.0)
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(a, a)


def test_wilcoxon_six_positive_differences_exact_p():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = a - np.array([0.5, 0.3, 0.8, 0.2, 0.9, 0.4])
    res = wilcoxon_signed_rank(a, b)
    assert res.method == "exact"
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(2.0 / 2 ** 6)
    assert res.p_value == pytest.approx(0.03125)


def test_wilcoxon_exact_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(6, 13))
        a = rng.normal(size=n)
        b = a + rng.normal(size=n)
        ours = wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, method="exact")
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_normal_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(13, 60))
        a = rng.normal(size=n)
        b = a + rng.normal(size=n)
        ours = wilcoxon_signed_rank(a, b)
        assert ours.method == "normal"
        ref = scipy.stats.wilcoxon(a, b, method="approx", correction=True)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)
    # far in the tail, where 1 + erf(z / sqrt 2) would cancel to 0.0
    a, b = np.zeros(100), np.arange(1, 101) * 0.01
    ours = wilcoxon_signed_rank(a, b)
    ref = scipy.stats.wilcoxon(a, b, method="approx", correction=True)
    assert 0.0 < ours.p_value < 1e-17
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)


def test_wilcoxon_exact_close_to_normal_at_boundary():
    rng = np.random.default_rng(2)
    for _ in range(40):
        a = rng.normal(size=12)
        b = a + rng.normal(size=12)
        d = a - b
        d = d[d != 0]
        if d.size != 12:
            continue
        exact = wilcoxon_signed_rank(a, b)
        # force the approximation path by widening the exact cutoff
        import shiftselect.evalcli as mod
        old = mod.WILCOXON_EXACT_MAX
        mod.WILCOXON_EXACT_MAX = 0
        try:
            approx = wilcoxon_signed_rank(a, b)
        finally:
            mod.WILCOXON_EXACT_MAX = old
        assert abs(exact.p_value - approx.p_value) <= 0.02


def test_wilcoxon_drops_zeros_then_requires_five():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = np.array([1.0, 2.0, 3.1, 4.1, 5.1, 6.1])   # only 4 nonzero
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(a, b)


def test_average_ranks_equal_scipy_rankdata_under_ties():
    rng = np.random.default_rng(5)
    for decimals in (1, 2, 3, 17):
        x = np.round(rng.random(500), decimals)
        assert np.array_equal(evalcli._average_ranks(x),
                              scipy.stats.rankdata(x))


def test_wilcoxon_significance_flag():
    a = np.arange(1.0, 21.0)
    res = wilcoxon_signed_rank(a, a - 1.0, alpha=0.01)
    assert res.significant
    # a perfectly symmetric difference pattern is never significant
    sym = np.array([0.5, -0.5, 0.4, -0.4, 0.3, -0.3, 0.2, -0.2, 0.1, -0.1])
    res2 = wilcoxon_signed_rank(sym, np.zeros(10), alpha=0.01)
    assert not res2.significant


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run")
    config = small_config(outdir)
    table = run_experiment(config)
    return config, table


def test_run_row_counts(small_run):
    config, table = small_run
    assert len(table.rows) == config.r * len(config.strategies)
    for strat in config.strategies:
        assert sum(1 for r in table.rows if r.strategy == strat) == config.r


def summary_means(table):
    """Each strategy's mean true accuracy, from summary.csv's rows."""
    strategies, _, acc = accuracy_matrix(table.rows)
    return {strat: mean for strat, _, mean, *_ in summarize(strategies, acc)}


def test_run_oracle_dominates_aggregate(small_run):
    _, table = small_run
    means = summary_means(table)
    for name, mean in means.items():
        assert means["oracle"] >= mean - 1e-12


def test_run_estimates_present_where_expected(small_run):
    _, table = small_run
    ims_rows = [r for r in table.rows if r.strategy == "IMS-KNN"]
    ims_ests = {r.est_acc for r in ims_rows}
    assert len(ims_ests) == 1   # IMS estimate is its fixed validation accuracy
    for row in table.rows:
        if row.strategy == "oracle":
            assert row.est_acc is None
        else:
            assert 0.0 <= row.est_acc <= 1.0


def test_run_writes_manifest(small_run):
    config, _ = small_run
    with open(os.path.join(config.outdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["r"] == config.r
    assert manifest["config"]["s"] == config.s
    assert manifest["splits"]["proper_train"] == manifest["splits"]["validation"]
    assert manifest["grid_sizes"] == {"KNN": 10}
    # the config is recorded once, under "config"; the rest is derived
    assert set(manifest["config"]) == {f.name for f in fields(RunConfig)} \
        - {"outdir"}
    assert set(manifest) == {"run_id", "config", "dataset", "scaler",
                             "splits", "grid_sizes", "derived_seeds"}
    assert set(manifest["splits"]) == {"labelled", "proper_train",
                                       "validation", "test"}


def test_a_run_reruns_from_its_manifest_config(tmp_path):
    config = small_config(tmp_path / "first", r=5)
    emit_report(run_experiment(config), config.outdir)
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_bytes())
    blob = json.dumps(manifest["config"], sort_keys=True).encode()
    assert manifest["run_id"] == hashlib.sha256(blob).hexdigest()[:12]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**manifest["config"],
                                "outdir": str(tmp_path / "second")}),
                    encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "first" / name).read_bytes() == \
            (tmp_path / "second" / name).read_bytes(), name


def test_default_manifest_constants(tmp_path):
    manifest = _prepare(RunConfig(outdir=str(tmp_path)))[-1]
    assert manifest["config"]["r"] == 1000
    assert manifest["config"]["s"] == 100
    assert manifest["config"]["train_fraction"] == 0.7
    total = manifest["dataset"]["n_instances"]
    labelled = manifest["splits"]["labelled"]
    assert labelled == round(0.7 * total)
    assert manifest["splits"]["proper_train"] == manifest["splits"]["validation"]


def test_partial_synthetic_dataset_takes_default_keys(tmp_path):
    config = config_from_dict({"dataset": {"kind": "synthetic", "n": 500},
                               "outdir": str(tmp_path)})
    manifest = _prepare(config)[-1]
    assert manifest["dataset"]["n_instances"] == 500
    assert manifest["dataset"]["n_classes"] == 3


def test_run_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    table1 = run_experiment(small_config(out1, r=6))
    emit_report(table1, out1)
    table2 = run_experiment(small_config(out2, r=6))
    emit_report(table2, out2)
    for name in REPORT_FILES:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, name


def test_run_with_counting_quantifier(tmp_path):
    config = small_config(tmp_path, quantifier="CC", r=4)
    table = run_experiment(config)
    assert len(table.rows) == 4 * len(config.strategies)
    means = summary_means(table)
    assert means["oracle"] >= means["TMS-All"] - 1e-12


def test_run_from_csv_dataset(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["f1,f2,color,label"]
    for _ in range(120):
        cls = int(rng.random() < 0.4)
        x = rng.normal(3.0 * cls, 1.0, size=2)
        color = "red" if rng.random() < 0.5 else "blue"
        lines.append(f"{x[0]:.6f},{x[1]:.6f},{color},c{cls}")
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = small_config(
        tmp_path / "out", r=3, s=20,
        dataset={"kind": "csv", "path": str(csv_path), "label_column": "label"})
    table = run_experiment(config)
    assert len(table.rows) == 3 * len(config.strategies)
    with open(tmp_path / "out" / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["dataset"]["n_features"] == 4     # 2 numeric + one-hot color
    assert manifest["dataset"]["class_map"] == {"c0": 0, "c1": 1} or \
        manifest["dataset"]["class_map"] == {"c1": 0, "c0": 1}
    assert manifest["scaler"] is not None


def test_run_stage_error_names_the_stage(tmp_path):
    config = small_config(tmp_path, dataset={"kind": "csv",
                                             "path": str(tmp_path / "nope.csv"),
                                             "label_column": "y"})
    with pytest.raises(StageError) as err:
        run_experiment(config)
    assert err.value.stage == "dataset"


def test_run_flushes_partial_rows_on_failure(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = evalcli.tms_select

    def explode_later(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 3:
            raise RuntimeError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(evalcli, "tms_select", explode_later)
    config = small_config(tmp_path)
    with pytest.raises(StageError) as err:
        run_experiment(config)
    assert err.value.stage == "evaluate"
    with open(os.path.join(config.outdir, "results.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert 0 < len(rows) < config.r * len(config.strategies)


def test_run_reports_solver_nonconvergence_once_per_model(tmp_path,
                                                          strangle,
                                                          monkeypatch):
    from shiftselect import cap
    config = small_config(tmp_path)
    _, proper, validation, _, manifest = evalcli._prepare(config)
    registry = evalcli._train_registry(config, proper, validation, manifest)
    # TMS-All solves one batch over every entry: stop models 2 and 5 early
    strangle(cap, "leap_solve_batch", [i for i, e in enumerate(
        registry.entries) if e.model_id in (2, 5)], max_iter=1)
    for cpus in (1, 2):     # forked workers inherit the wrapped solver
        monkeypatch.setattr(parallel, "_usable_cpus", lambda cpus=cpus: cpus)
        table = run_experiment(config, registry=registry)
        assert table.meta["timings"]["evaluate"]["workers"] == cpus
        assert table.meta["warnings"] == [
            f"model {mid}: accuracy solver did not converge on 10 of 10 bags"
            for mid in (2, 5)]
        emit_report(table, config.outdir)
        summary = (tmp_path / "summary.txt").read_text()
        assert summary.count("did not converge") == 2
        assert "warning: model 5: accuracy solver did not converge" in summary


def test_run_counts_solver_warnings_by_bag_across_tms_scopes(tmp_path,
                                                              strangle,
                                                              monkeypatch):
    from shiftselect import cap
    # on a KNN registry both scopes hold every entry; each bag's one solve,
    # on "All", flags model 3 once, and the warning counts bags
    config = small_config(tmp_path, strategies=("TMS-All", "TMS-KNN"))
    _, proper, validation, _, manifest = evalcli._prepare(config)
    registry = evalcli._train_registry(config, proper, validation, manifest)
    strangle(cap, "leap_solve_batch", [i for i, e in enumerate(
        registry.entries) if e.model_id == 3], max_iter=1)
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda cpus=cpus: cpus)
        table = run_experiment(config, registry=registry)
        assert table.meta["timings"]["evaluate"]["workers"] == cpus
        assert table.meta["warnings"] == [
            "model 3: accuracy solver did not converge on 10 of 10 bags"]
        emit_report(table, config.outdir)
        summary = (tmp_path / "summary.txt").read_text()
        assert "warning: model 3: accuracy solver did not converge on 10 " \
            "of 10 bags" in summary
        assert "of 20 bags" not in summary


def reference_rows(config, registry, proper, test):
    """(strategy, bag id) -> (model id, true_acc, est_acc, l1_shift) by a
    plain loop over bags and strategies: the selection functions on slices
    of the test-set caches, and for the oracle the lowest-id argmax of the
    bag's true-accuracy vector."""
    _, _, _, _, manifest = _prepare(config)
    bags = app_generate(test, config.r, config.s,
                        manifest["derived_seeds"]["protocol"])
    posteriors = predict_posteriors_batch([e.model for e in registry.entries],
                                          test.X)
    rows, labels = registry.caps.rows(posteriors), argmax_rows(posteriors)
    ids = [e.model_id for e in registry.entries]
    expected = {}
    for bag_id, bag in enumerate(bags):
        truth = reveal_labels(bag)
        true = [float((np.argmax(P[bag.indices], axis=1) == truth).mean())
                for P in posteriors]
        shift = l1_shift(proper.prevalence(), bag.realized_prevalence)
        for strat in config.strategies:
            kind, _, scope = strat.partition("-")
            est = None
            if kind == "oracle":
                mid = max(ids, key=lambda i: (true[ids.index(i)], -i))
            elif kind == "TMS":
                outcome = tms_select(registry, scope, bag,
                                     labels=labels[:, bag.indices],
                                     rows=rows[:, bag.indices])
                mid, est = outcome.model_id, outcome.estimated_accuracy
            else:
                select = default_select if kind == "default" else ims_select
                mid = select(registry, scope)
                est = registry.entry(mid).val_accuracy
            expected[strat, bag_id] = (mid, true[ids.index(mid)], est, shift)
    return expected


def test_run_rows_equal_a_per_bag_reference_loop(tmp_path):
    config = small_config(tmp_path, families=("LR", "KNN"), strategies=(
        "default-LR", "default-KNN", "IMS-KNN", "IMS-All", "TMS-All",
        "TMS-LR", "oracle"))
    _, proper, validation, test, manifest = _prepare(config)
    registry = evalcli._train_registry(config, proper, validation, manifest)
    table = run_experiment(config, registry=registry)
    got = {(r.strategy, r.bag_id): (r.model_id, r.true_acc, r.est_acc,
                                    r.l1_shift) for r in table.rows}
    assert len(got) == len(table.rows) == config.r * len(config.strategies)
    assert got == reference_rows(config, registry, proper, test)


THREE_FAMILIES = ("LR", "KNN", "MLP")


@pytest.fixture(scope="module")
def three_family_registry(tmp_path_factory):
    config = small_config(tmp_path_factory.mktemp("three"),
                          families=THREE_FAMILIES)
    _, proper, validation, _, manifest = _prepare(config)
    return evalcli._train_registry(config, proper, validation, manifest)


@pytest.mark.parametrize("strategies", [
    evalcli.DEFAULT_STRATEGIES,
    ("IMS-All", "TMS-All", "TMS-LR", "TMS-KNN", "TMS-MLP", "oracle")])
def test_run_gives_the_same_outputs_on_one_or_two_workers(
        strategies, three_family_registry, tmp_path, monkeypatch):
    # 11 bags: the caller labels 6 of them and the worker 5
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda cpus=cpus: cpus)
        config = small_config(tmp_path / str(cpus), r=11,
                              families=THREE_FAMILIES, strategies=strategies)
        table = run_experiment(config, registry=three_family_registry)
        assert table.meta["timings"]["evaluate"]["workers"] == cpus
        emit_report(table, config.outdir)
        outputs.append((table.rows, table.meta["warnings"],
                        [(tmp_path / str(cpus) / name).read_bytes()
                         for name in REPORT_FILES]))
    assert outputs[0] == outputs[1]
    assert multiprocessing.active_children() == []


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends its positional arguments
    to the returned list."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("strategies, scope", [
    (("IMS-All", "TMS-All", "TMS-LR", "TMS-KNN", "TMS-MLP", "oracle"), "All"),
    (("TMS-LR", "TMS-KNN"), "All"),
    (("TMS-KNN", "oracle"), "All"),
    (("IMS-All", "oracle"), None)])
def test_run_solves_each_bag_once_in_one_fork_map_call(
        strategies, scope, three_family_registry, tmp_path, monkeypatch):
    # one process, so that every tms_select call is made and counted here
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    selects = count_calls(monkeypatch, evalcli, "tms_select")
    forks = count_calls(monkeypatch, evalcli, "fork_map")
    config = small_config(tmp_path, families=THREE_FAMILIES,
                          strategies=strategies)
    table = run_experiment(config, registry=three_family_registry)
    assert len(table.rows) == config.r * len(strategies)
    forked = int(scope is not None)
    assert [args[1] for args in selects] == [scope] * config.r * forked
    assert len(forks) == forked
    assert table.meta["timings"]["evaluate"]["workers"] == forked


def test_run_rows_of_family_scopes_without_tms_all_equal_their_own_solves(
        three_family_registry, tmp_path):
    # two family scopes, and one family scope as the roster's only TMS scope
    for strategies in (("TMS-LR", "TMS-KNN"), ("TMS-KNN", "oracle")):
        config = small_config(tmp_path / strategies[0], families=THREE_FAMILIES,
                              strategies=strategies)
        _, proper, _, test, _ = _prepare(config)
        table = run_experiment(config, registry=three_family_registry)
        got = {(r.strategy, r.bag_id): (r.model_id, r.true_acc, r.est_acc,
                                        r.l1_shift) for r in table.rows}
        assert len(got) == len(table.rows) == config.r * len(strategies)
        assert got == reference_rows(config, three_family_registry, proper,
                                     test)


def test_run_warns_only_of_models_in_a_tms_scope_of_the_roster(
        three_family_registry, tmp_path, strangle, monkeypatch):
    from shiftselect import cap
    registry = three_family_registry
    config = small_config(tmp_path, families=THREE_FAMILIES,
                          strategies=("TMS-LR", "TMS-KNN"))
    # the roster's two scopes are solved as one "All" batch over every
    # entry: stop an MLP model, outside both scopes, and an LR model early
    family = {e.model_id: e.model.family for e in registry.entries}
    mlp, lr = (min(m for m, f in family.items() if f == name)
               for name in ("MLP", "LR"))
    strangle(cap, "leap_solve_batch", [i for i, e in enumerate(
        registry.entries) if e.model_id in (mlp, lr)], max_iter=1)
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda cpus=cpus: cpus)
        table = run_experiment(config, registry=registry)
        assert table.meta["timings"]["evaluate"]["workers"] == cpus
        assert table.meta["warnings"] == [
            f"model {lr}: accuracy solver did not converge on 10 of 10 bags"]


@pytest.mark.parametrize("where", ["caller", "worker", "worker exits"])
def test_run_evaluate_failure_in_any_process_is_a_stage_error(
        where, tmp_path, monkeypatch, deadline):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    config = small_config(tmp_path)
    caller, real = os.getpid(), evalcli.tms_select

    def failing(*args, **kwargs):
        if (os.getpid() == caller) == (where == "caller"):
            if where == "worker exits":
                os._exit(3)
            raise RuntimeError(f"failure in the {where}")
        return real(*args, **kwargs)
    monkeypatch.setattr(evalcli, "tms_select", failing)
    with pytest.raises(StageError) as err, deadline(60):
        run_experiment(config)
    assert err.value.stage == "evaluate"
    assert ("exited with code 3" if where == "worker exits"
            else f"failure in the {where}") in str(err.value)
    assert multiprocessing.active_children() == []
    # the strategies before TMS-All were flushed, and none after it
    with open(tmp_path / "results.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(Counter(r["strategy"] for r in rows).items()) == [
        ("IMS-KNN", config.r), ("default-KNN", config.r)]


def test_run_forks_no_worker_beside_other_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    config = small_config(tmp_path, families=("KNN", "MLP"),
                          strategies=("TMS-All", "TMS-MLP", "oracle"))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        timings = run_experiment(config).meta["timings"]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert timings["mlp"]["workers"] == 1
    assert timings["evaluate"]["workers"] == 1


def test_run_rejects_a_registry_trained_on_other_data(tmp_path):
    config = small_config(tmp_path)
    other = small_config(tmp_path, seed=6)
    _, proper, validation, _, manifest = evalcli._prepare(other)
    foreign = evalcli._train_registry(other, proper, validation, manifest)
    with pytest.raises(StageError) as err:
        run_experiment(config, registry=foreign)
    assert err.value.stage == "registry"
    assert "other data" in str(err.value)
    _, proper, validation, _, manifest = evalcli._prepare(config)
    own = evalcli._train_registry(config, proper, validation, manifest)
    assert len(run_experiment(config, registry=own).rows) == \
        config.r * len(config.strategies)


@pytest.mark.parametrize("field, value", [
    ("families", ("KNN", "LR")), ("quantifier", "CC"), ("bandwidth", 0.5),
    ("cap_weight", 2.0), ("smoothing", 0.5)])
def test_run_rejects_a_registry_trained_under_another_config(field, value,
                                                             tmp_path):
    config = small_config(tmp_path, strategies=("TMS-All", "oracle"))
    _, proper, validation, _, manifest = evalcli._prepare(config)
    registry = evalcli._train_registry(config, proper, validation, manifest)
    other = small_config(tmp_path, strategies=("TMS-All", "oracle"),
                         **{field: value})
    with pytest.raises(StageError) as err:
        run_experiment(other, registry=registry)
    assert err.value.stage == "registry"
    assert f"registry {field} " in str(err.value)
    assert "under another config" in str(err.value)
    assert not (tmp_path / "results.csv").exists()


def test_a_registry_without_its_smoothing_record_is_refused(tmp_path):
    # a saved document whose meta lacks the smoothing (as registries saved
    # before the meta recorded it do) is refused at load, with the advice to
    # retrain; an in-memory registry without it fails the registry stage
    config = small_config(tmp_path, strategies=("TMS-All", "oracle"))
    _, proper, validation, _, manifest = evalcli._prepare(config)
    regdir = tmp_path / "registry"
    registry = evalcli._train_registry(config, proper, validation, manifest,
                                       out_dir=regdir)
    doc = json.loads((regdir / "manifest.json").read_text())
    del doc["meta"]["smoothing"]
    (regdir / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="retrain") as err:
        load_registry(regdir)
    assert "meta keys" in str(err.value)
    del registry.meta["smoothing"]
    with pytest.raises(StageError) as err:
        run_experiment(config, registry=registry)
    assert err.value.stage == "registry"
    assert "registry smoothing None does not match" in str(err.value)


def test_run_reports_mixture_nonconvergence_once_per_model(tmp_path,
                                                           strangle,
                                                           monkeypatch):
    from shiftselect import quantifiers
    config = small_config(tmp_path)
    _, proper, validation, _, manifest = evalcli._prepare(config)
    registry = evalcli._train_registry(config, proper, validation, manifest)
    # TMS-All reduces one stack over every entry: stop models 1 and 4 early
    strangle(quantifiers, "em_weights_batch", [i for i, e in enumerate(
        registry.entries) if e.model_id in (1, 4)], max_iter=2)
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda cpus=cpus: cpus)
        table = run_experiment(config, registry=registry)
        assert table.meta["timings"]["evaluate"]["workers"] == cpus
        assert table.meta["warnings"] == [
            f"model {mid}: mixture solver did not converge on 10 of 10 bags"
            for mid in (1, 4)]
        emit_report(table, config.outdir)
        summary = (tmp_path / "summary.txt").read_text()
        assert summary.count("did not converge") == 2
        assert "warning: model 4: mixture solver did not converge" in summary


def test_run_at_a_small_bandwidth_needs_no_warning(tmp_path):
    # at bandwidth 1e-3 many KDE densities underflow as floats; as log
    # densities every mixture problem still converges
    config = small_config(tmp_path, bandwidth=1e-3)
    table = run_experiment(config)
    assert table.meta["warnings"] == []
    assert all(0.0 <= r.est_acc <= 1.0 for r in table.rows
               if r.est_acc is not None)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_reports_headers_only_for_empty_table(tmp_path):
    emit_report(ResultTable([]), tmp_path)
    for name, header in (
        ("results.csv", "run_id,dataset,strategy,bag_id,l1_shift,true_acc,est_acc,model_id"),
        ("summary.csv", "strategy,n_bags,mean_true_acc,std_true_acc,best,not_sig_diff_from_best,p_vs_best"),
        ("shift_curve.csv", "bin_index,bin_lo,bin_hi,n_bags,strategy,mean_true_acc"),
    ):
        lines = (tmp_path / name).read_text(encoding="utf-8").strip().splitlines()
        assert lines == [header]


def test_summary_matches_hand_computed_means(small_run, tmp_path):
    _, table = small_run
    emit_report(table, tmp_path)
    with open(tmp_path / "results.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    by_strategy = {}
    for row in rows:
        by_strategy.setdefault(row["strategy"], []).append(float(row["true_acc"]))
    with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            assert float(rec["mean_true_acc"]) == pytest.approx(
                np.mean(by_strategy[rec["strategy"]]), abs=1e-12)
            assert int(rec["n_bags"]) == len(by_strategy[rec["strategy"]])


def test_summary_flags_best_strategy(small_run, tmp_path):
    _, table = small_run
    emit_report(table, tmp_path)
    with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
        recs = list(csv.DictReader(fh))
    bests = [r for r in recs if r["best"] == "1"]
    assert len(bests) == 1
    best_mean = float(bests[0]["mean_true_acc"])
    assert best_mean == max(float(r["mean_true_acc"]) for r in recs)
    assert bests[0]["strategy"] == "oracle"


def test_summary_dagger_semantics(tmp_path):
    # 'strong' beats 'weak' on every bag (clearly significant); 'close' trades
    # wins with 'strong' symmetrically (clearly not significant)
    rng = np.random.default_rng(4)
    rows = []
    for bag_id in range(40):
        strong = 0.8 + 0.05 * rng.random()
        rows.append(ResultRow("rid", "ds", "strong", bag_id, 0.1, strong, None, 0))
        rows.append(ResultRow("rid", "ds", "weak", bag_id, 0.1, strong - 0.2, None, 1))
        wobble = 0.01 if bag_id % 2 == 0 else -0.01
        rows.append(ResultRow("rid", "ds", "close", bag_id, 0.1, strong + wobble, None, 2))
    emit_report(ResultTable(rows), tmp_path)
    with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
        recs = {r["strategy"]: r for r in csv.DictReader(fh)}
    assert recs["strong"]["best"] == "1"
    assert recs["weak"]["not_sig_diff_from_best"] == "0"
    assert float(recs["weak"]["p_vs_best"]) < 0.01
    assert recs["close"]["not_sig_diff_from_best"] == "1"
    assert float(recs["close"]["p_vs_best"]) >= 0.01


def test_shift_curve_matches_bin_by_shift(small_run, tmp_path):
    config, table = small_run
    emit_report(table, tmp_path)
    _, shifts, _ = accuracy_matrix(table.rows)
    bins, width = bin_by_shift(shifts, n_bins=config.n_bins)
    # brute-force group-by of the rows on their bag's bin
    bin_of = dict(zip(sorted({r.bag_id for r in table.rows}), bins.tolist()))
    groups = {}
    for row in table.rows:
        groups.setdefault((bin_of[row.bag_id], row.strategy), []).append(
            row.true_acc)
    expected = {key: (np.count_nonzero(bins == key[0]), np.mean(accs))
                for key, accs in groups.items()}
    with open(tmp_path / "shift_curve.csv", encoding="utf-8") as fh:
        recs = list(csv.DictReader(fh))
    assert len(recs) == len(expected)
    for rec in recs:
        index = int(rec["bin_index"])
        count, mean = expected[(index, rec["strategy"])]
        assert int(rec["n_bags"]) == count
        assert float(rec["mean_true_acc"]) == pytest.approx(mean, abs=1e-12)
        assert (float(rec["bin_lo"]), float(rec["bin_hi"])) == (
            index * width, (index + 1) * width)


def test_summary_and_curve_pair_ragged_results_by_bag(tmp_path):
    # an incomplete run: "best" lacks bag 0 and "other" lacks bag 29; on the
    # 28 bags both have, "other" is 0.01 below "best", which a test pairing
    # by position (bag k of one against bag k + 1 of the other) misses
    rng = np.random.default_rng(3)
    acc = rng.uniform(0.6, 0.9, size=30)
    acc[0], acc[29] = 0.6, 0.9
    rows = [ResultRow("rid", "ds", "best", bag_id, 0.1, acc[bag_id], None, 0)
            for bag_id in range(1, 30)]
    rows += [ResultRow("rid", "ds", "other", bag_id, 0.1, acc[bag_id] - 0.01,
                       None, 1) for bag_id in range(29)]
    strategies, shifts, matrix = accuracy_matrix(rows)
    assert strategies == ["best", "other"]
    assert shifts.tolist() == [0.1] * 30
    assert np.isnan(matrix[0, 0]) and np.isnan(matrix[1, 29])
    emit_report(ResultTable(rows), tmp_path)
    with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
        recs = {r["strategy"]: r for r in csv.DictReader(fh)}
    assert recs["best"]["best"] == "1"
    assert recs["other"]["n_bags"] == "29"
    paired = wilcoxon_signed_rank(acc[1:29] - 0.01, acc[1:29])
    assert paired.significant
    assert float(recs["other"]["p_vs_best"]) == paired.p_value
    assert recs["other"]["not_sig_diff_from_best"] == "0"
    # one shift bin; each strategy's mean is over the bags it has
    with open(tmp_path / "shift_curve.csv", encoding="utf-8") as fh:
        curve = {r["strategy"]: r for r in csv.DictReader(fh)}
    assert [r["n_bags"] for r in curve.values()] == ["30", "30"]
    assert float(curve["best"]["mean_true_acc"]) == np.mean(acc[1:])
    assert float(curve["other"]["mean_true_acc"]) == np.mean(acc[:29] - 0.01)


def test_summary_states_tms_against_ims_of_each_scope(tmp_path):
    # the paper's claim, one line per scope with both strategies: TMS-All
    # against IMS-All over the 29 bags both have (IMS-All lacks bag 0),
    # TMS-KNN against IMS-KNN with 3 nonzero differences (p n/a), and no
    # line for TMS-LR, whose IMS strategy is not in the roster
    rng = np.random.default_rng(8)
    ims, knn = rng.uniform(0.6, 0.9, size=(2, 30))
    tms = ims + rng.choice([-0.02, 0.0, 0.03], size=30)
    knn_tms = knn.copy()
    knn_tms[:3] += 0.01
    acc = {"IMS-All": ims, "TMS-All": tms, "IMS-KNN": knn,
           "TMS-KNN": knn_tms, "TMS-LR": tms}
    rows = [ResultRow("rid", "ds", strat, bag_id, 0.1, a[bag_id], None, 0)
            for strat, a in acc.items() for bag_id in range(30)
            if (strat, bag_id) != ("IMS-All", 0)]
    strategies, _, matrix = accuracy_matrix(rows)
    found = claims(strategies, matrix)
    assert [(c.tms, c.ims) for c in found] == [("TMS-All", "IMS-All"),
                                                ("TMS-KNN", "IMS-KNN")]
    full, knn_claim = found
    d = tms[1:] - ims[1:]
    assert full.wins + full.ties + full.losses == 29
    assert (full.wins, full.ties, full.losses) == (
        (d > 0).sum(), (d == 0).sum(), (d < 0).sum())
    assert full.ties > 0 and full.mean_diff == d.mean()
    assert full.p_value == wilcoxon_signed_rank(tms[1:], ims[1:]).p_value
    assert (knn_claim.wins, knn_claim.ties, knn_claim.losses,
            knn_claim.p_value) == (3, 27, 0, None)
    assert str(knn_claim).endswith("p n/a")
    emit_report(ResultTable(rows), tmp_path)
    lines = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if " vs " in line] == [str(full),
                                                          str(knn_claim)]


def test_results_csv_round_trip(small_run, tmp_path):
    _, table = small_run
    emit_report(table, tmp_path)
    loaded = read_results_csv(tmp_path / "results.csv")
    assert len(loaded.rows) == len(table.rows)
    key = lambda r: (r.strategy, r.bag_id)
    for orig, redo in zip(sorted(table.rows, key=key), sorted(loaded.rows, key=key)):
        assert orig.strategy == redo.strategy
        assert orig.bag_id == redo.bag_id
        assert orig.true_acc == redo.true_acc
        assert orig.model_id == redo.model_id
        assert (orig.est_acc is None) == (redo.est_acc is None)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def write_config(tmp_path, **overrides):
    raw = {
        "dataset": dict(SMALL_DATASET),
        "r": 5, "s": 40, "seed": 2,
        "families": ["KNN"],
        "strategies": ["default-KNN", "IMS-KNN", "TMS-All", "oracle"],
        "outdir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_cli_run_and_report(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    outdir = tmp_path / "out"
    assert (outdir / "results.csv").exists()
    assert (outdir / "summary.csv").exists()
    assert (outdir / "shift_curve.csv").exists()
    assert (outdir / "summary.txt").exists()
    assert main(["report", "--results", str(outdir / "results.csv"),
                 "--outdir", str(tmp_path / "re")]) == 0
    assert (tmp_path / "re" / "shift_curve.csv").exists()
    # a report from the run's results re-emits its tables byte for byte
    for name in ("results.csv", "summary.csv", "shift_curve.csv"):
        assert filecmp.cmp(outdir / name, tmp_path / "re" / name,
                           shallow=False), name


@pytest.mark.parametrize("alpha", ["2.0", "-1", "0", "1"])
def test_cli_report_rejects_alpha_outside_the_unit_interval(alpha, tmp_path,
                                                            capsys):
    results = tmp_path / "results.csv"
    emit_report(ResultTable([]), tmp_path)
    assert main(["report", "--results", str(results), "--outdir",
                 str(tmp_path / "re"), f"--alpha={alpha}"]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "re").exists()


def test_cli_report_rejects_a_repeated_strategy_bag_row(small_run, tmp_path,
                                                      capsys):
    _, table = small_run
    emit_report(table, tmp_path)
    lines = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines(
        keepends=True)
    results = tmp_path / "repeated.csv"
    results.write_text("".join(lines + [lines[1]]), encoding="utf-8")
    assert main(["report", "--results", str(results), "--outdir",
                 str(tmp_path / "re")]) == 2
    assert "more than one row" in capsys.readouterr().err
    assert not (tmp_path / "re").exists()


@pytest.mark.parametrize("columns", [
    (), tuple(c for c in evalcli.RESULTS_COLUMNS if c != "true_acc")],
    ids=["empty file", "no true_acc"])
def test_cli_report_rejects_a_file_without_the_results_header(
        columns, small_run, tmp_path, capsys):
    # an empty run writes the header alone, and that reports
    emit_report(ResultTable([]), tmp_path / "empty")
    assert main(["report", "--results", str(tmp_path / "empty" / "results.csv"),
                 "--outdir", str(tmp_path / "empty-re")]) == 0
    _, table = small_run
    results = tmp_path / "results.csv"
    with open(results, "w", newline="", encoding="utf-8") as fh:
        if columns:
            writer = csv.DictWriter(fh, columns, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(asdict(r) for r in table.rows)
    assert main(["report", "--results", str(results), "--outdir",
                 str(tmp_path / "re")]) == 2
    missing = [c for c in evalcli.RESULTS_COLUMNS if c not in columns]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(
        "missing columns: " + ", ".join(missing) + "\n"), err
    assert not (tmp_path / "re").exists()


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_cli_report_rejects_fewer_than_one_bin_before_writing(bins, tmp_path,
                                                              capsys):
    results = tmp_path / "results.csv"
    emit_report(ResultTable([]), tmp_path)
    assert main(["report", "--results", str(results), "--outdir",
                 str(tmp_path / "re"), f"--bins={bins}"]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "re").exists()


def test_cli_train_persists_registry(tmp_path):
    config_path = write_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == 0
    regdir = tmp_path / "out" / "registry"
    # the registry is one document
    assert os.listdir(regdir) == ["manifest.json"]
    assert len(load_registry(regdir)) == 10


def test_cli_train_warns_of_each_lr_model_stopped_at_the_cap(tmp_path, capsys,
                                                             monkeypatch):
    from shiftselect import classifiers
    monkeypatch.setattr(classifiers, "LR_MAX_ITER", 1)
    config_path = write_config(
        tmp_path, families=["LR"],
        strategies=["default-LR", "IMS-LR", "TMS-All", "oracle"])
    assert main(["train", "--config", str(config_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "registry" / "manifest.json")
                          .read_text(encoding="utf-8"))
    stopped = [e["model_id"] for e in manifest["entries"]
               if not e["model"]["meta"]["converged"]]
    assert len(stopped) == len(manifest["entries"]) == 30
    warned = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning: ")]
    assert warned == [line for line in warned if "after 1 Newton steps" in line]
    assert [int(line.split()[2]) for line in warned] == stopped
    # the registry's warnings are the entries that failed and were skipped
    assert manifest["warnings"] == []


def test_cli_train_and_run_write_timings(tmp_path):
    config_path = write_config(
        tmp_path, families=["LR", "KNN", "MLP"],
        strategies=["IMS-LR", "IMS-KNN", "TMS-All", "oracle"])
    for command in ("train", "run"):
        outdir = tmp_path / command
        assert main([command, "--config", str(config_path),
                     "--outdir", str(outdir)]) == 0
        timings = json.loads((outdir / "timings.json").read_text(encoding="utf-8"))
        assert set(timings["train_grid_s"]) == {"LR", "KNN", "MLP"}
        lr = timings["lr"]
        assert lr["models"] == 30 and lr["unconverged"] == 0
        assert lr["cg_steps"] >= lr["newton_steps"] >= 30
        # the MLP block sums the epochs that the registry's meta records
        registry = json.loads((tmp_path / "train" / "registry" / "manifest.json")
                              .read_text(encoding="utf-8"))
        epochs = [e["model"]["meta"]["epochs"] for e in registry["entries"]
                  if e["model"]["family"] == "MLP"]
        # and counts the processes the grid trained in, one per usable CPU
        assert timings["mlp"] == {
            "models": len(epochs), "epochs": sum(epochs),
            "stopped_early": sum(e < MLP_MAX_EPOCHS for e in epochs),
            "workers": parallel.worker_count(10)}
        assert len(epochs) == 10
        assert 1 <= timings["mlp"]["workers"] <= len(epochs)
        stages = {"dataset", "split", "registry"}
        if command == "run":
            stages |= {"protocol", "evaluate", "report"}
        assert set(timings["stage_s"]) == stages
        assert all(t >= 0 for t in timings["stage_s"].values())
        if command == "run":
            inside = timings["evaluate_s"]
            assert set(inside) == {"test_posteriors", "quantifier_rows", "bags"}
            assert all(t >= 0 for t in inside.values())
            assert sum(inside.values()) <= timings["stage_s"]["evaluate"]
            # the processes the bags' TMS solves ran in, one per usable CPU,
            # and the KDE's kernel values: test rows times support rows (the
            # validation rows) for each KDEy-ML predictor
            splits = json.loads((outdir / "manifest.json")
                                .read_text(encoding="utf-8"))["splits"]
            assert timings["evaluate"] == {
                "workers": parallel.worker_count(5),
                "kde_kernel_values": splits["test"] * splits["validation"]
                * len(registry["entries"])}
            assert timings["evaluate"]["kde_kernel_values"] > 0
        else:
            assert "evaluate_s" not in timings
            assert "evaluate" not in timings
    assert not (tmp_path / "train" / "registry" / "timings.json").exists()


def test_cli_train_and_run_write_identical_manifests(tmp_path):
    config_path = write_config(tmp_path)
    assert main(["train", "--config", str(config_path),
                 "--outdir", str(tmp_path / "train")]) == 0
    assert main(["run", "--config", str(config_path),
                 "--outdir", str(tmp_path / "run")]) == 0
    trained = (tmp_path / "train" / "manifest.json").read_bytes()
    assert trained == (tmp_path / "run" / "manifest.json").read_bytes()


@pytest.mark.parametrize("quantifier", ["KDEyML", "CC"])
def test_run_on_a_loaded_registry_equals_the_cli_run(quantifier, tmp_path):
    # the benchmark's grid-bags path: `shiftselect train`, `load_registry`,
    # then run_experiment on the loaded registry
    config_path = write_config(tmp_path, families=list(THREE_FAMILIES),
                               quantifier=quantifier)
    assert main(["train", "--config", str(config_path),
                 "--outdir", str(tmp_path / "train")]) == 0
    assert main(["run", "--config", str(config_path),
                 "--outdir", str(tmp_path / "run")]) == 0
    config = load_config(config_path)
    config.outdir = str(tmp_path / "loaded")
    registry = load_registry(tmp_path / "train" / "registry")
    table = run_experiment(config, registry=registry)
    emit_report(table, config.outdir)
    # a prebuilt registry trains nothing, and CC evaluates no kernel
    timings = table.meta["timings"]
    assert timings["train_grid_s"] == {} and timings["mlp"]["workers"] == 0
    assert (timings["evaluate"]["kde_kernel_values"] == 0) == \
        (quantifier == "CC")
    for name in REPORT_FILES:
        assert filecmp.cmp(tmp_path / "run" / name, tmp_path / "loaded" / name,
                           shallow=False), name


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"r": 0}), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing)]) == 1


@pytest.mark.parametrize("raw", [{"dataset": {"kind": "csv"}},
                                 {"smoothing": -0.5}, {"alpha": 2.0},
                                 {"dataset": {"kind": "synthetic",
                                              "n_classes": 1}},
                                 {"dataset": {"kind": "synthetic",
                                              "n_clases": 5}},
                                 {"dataset": {**CSV_SPEC, "hedaer": False}},
                                 {"dataset": {**CSV_SPEC,
                                              "prevalence": [0.5, 0.5]}},
                                 {"dataset": {"kind": "synthetic",
                                              "prevalence": [0.5, 0.5]}},
                                 {"families": [], "strategies": ["oracle"]},
                                 # not a JSON object
                                 5, None, [{"r": 1}], "abc"])
def test_cli_config_error_before_any_stage(raw, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(path),
                 "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_cli_runtime_error_exit_code(tmp_path):
    config_path = write_config(
        tmp_path, dataset={"kind": "csv", "path": str(tmp_path / "nope.csv"),
                           "label_column": "y"})
    assert main(["run", "--config", str(config_path)]) == 2


def csv_batch_script():
    """scripts/run_csv_batch.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(
        "run_csv_batch", REPO / "scripts" / "run_csv_batch.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def assert_csv_batch_rejects_base_config(config, tmp_path, capsys):
    """scripts/run_csv_batch.py with base config file `config` exits 1 with
    one `config error:` line, before any dataset runs."""
    script = csv_batch_script()
    data = tmp_path / "data"
    data.mkdir()
    (data / "one.csv").write_text("x,label\n0.5,a\n", encoding="utf-8")
    assert script.main(["--data-dir", str(data), "--label-column", "label",
                        "--outdir", str(tmp_path / "out"),
                        "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("base", [5, {"r": 0}])
def test_csv_batch_rejects_a_bad_base_config_before_any_dataset(base, tmp_path,
                                                               capsys):
    config = tmp_path / "base.json"
    config.write_text(json.dumps(base), encoding="utf-8")
    assert_csv_batch_rejects_base_config(config, tmp_path, capsys)


@pytest.mark.parametrize("text", ['{"r": 3', None],
                         ids=["truncated", "missing"])
def test_csv_batch_reports_an_unreadable_base_config(text, tmp_path, capsys):
    config = tmp_path / "base.json"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    assert_csv_batch_rejects_base_config(config, tmp_path, capsys)
