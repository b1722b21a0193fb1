"""Experiment runner, statistical testing, report emission, and the CLI.

A run is fully described by a :class:`RunConfig` (JSON on disk): dataset
source, split fractions, protocol parameters, the classifier families, the
quantifier, the accuracy-predictor knobs, and the strategy roster. Given the
same config and seed, a run produces byte-identical output files:

* ``manifest.json``  the run's config record (see :func:`config_record`),
  which reruns the run, and what the run derives from it: the dataset's
  fingerprint and sizes, the scaler, split and grid sizes, derived seeds;
* ``results.csv``    one row per (strategy, bag);
* ``summary.csv``    per-strategy mean/std plus significance vs the best,
  paired by bag;
* ``shift_curve.csv``  per-shift-bin mean accuracy per strategy;
* ``summary.txt``    human-readable digest, with one line per TMS scope
  against the IMS strategy of the same scope (the paper's claim, see
  :func:`claims`) and one warning line per model whose accuracy solver or
  KDEy-ML mixture solver stopped early.

The last three reduce one strategies × bags :func:`accuracy_matrix`.

Selection never sees true labels. Every strategy is one model position per bag,
its ``true_acc`` that entry of a models × bags matrix of true accuracies,
computed from the test-set label cache before any strategy runs. The
oracle, an evaluation upper bound, is the argmax of each bag's column, and
each TMS scope the argmax of its rows of a models × bags matrix of
estimated accuracies, from one :func:`selection.tms_select` solve per bag.
A bag's solve depends on that bag alone, so the bags are solved on every
usable CPU (:func:`parallel.fork_map`, the helper that also trains the MLP
grid), with the same output on any number of CPUs. ``shiftselect train``
writes the run's manifest.json and ``registry/manifest.json``, the whole
registry in one document (see :func:`selection.save_registry`). Both
``train`` and ``run`` also write ``timings.json`` next to manifest.json:
wall times per stage and per family's training (for ``run``, also inside
evaluate: test-set posteriors, quantifier rows and the strategies), the LR
solver's step counts, the MLP epochs, the number of processes the MLP grid
trained in and, for ``run``, the number the bags' TMS solves ran in and the
KDE kernel values of the quantifier rows (see :func:`_timings`).
It is the one output that differs between reruns. ``train`` prints a
warning line for each LR model whose training stopped unconverged.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import numbers
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .dataspace import (Dataset, apply_scaler, as_prevalence, fit_scaler,
                        load_csv, stratified_split, synth_gaussian_pps,
                        uniform_prevalence, LabelledSet)
from .classifiers import FAMILIES, MLP_MAX_EPOCHS, argmax_rows, build_grid
from .parallel import fork_map
from .protocol import (app_generate, bin_by_shift, l1_shift, reveal_labels,
                       DEFAULT_SHIFT_BINS)
from .cap import RANK_TOL, check_fit_settings
from .selection import (ModelRegistry, best_position, build_registry,
                        default_select, fingerprint, ims_select, tms_select,
                        write_json)

WILCOXON_EXACT_MAX = 12

DEFAULT_STRATEGIES = (
    "default-LR", "default-KNN", "default-MLP",
    "IMS-LR", "IMS-KNN", "IMS-MLP", "IMS-All",
    "TMS-All", "oracle",
)

DEFAULT_DATASET = {
    "kind": "synthetic",
    "n_classes": 3,
    "dims": 2,
    "n": 2000,
    "class_separation": 2.0,
    "prevalence": None,
}


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 1)."""


class StageError(RuntimeError):
    """A pipeline stage failed (CLI exit code 2)."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


FIELD_KINDS = {"int": ("an integer", numbers.Integral),
               "float": ("a finite number", numbers.Real),
               "bool": ("true or false", bool),
               "str": ("a string", str),
               "dict": ("an object", dict),
               "tuple": ("a list of strings", tuple)}


def _plain(value):
    """`value` with each numpy number or array in it, in dicts and lists
    too, as the Python number or list that a JSON config would hold."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, np.ndarray)):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.number) else value


def _of_kind(value, kind: str) -> bool:
    """Whether `value` suits a config field annotated `kind`: an int or float
    field holds a finite number that is not a bool, a tuple field only
    strings."""
    if not isinstance(value, FIELD_KINDS[kind][1]):
        return False
    if kind in ("int", "float"):
        return not isinstance(value, bool) and -math.inf < value < math.inf
    if kind == "tuple":
        return all(isinstance(x, str) for x in value)
    return True


# the kinds (keys of FIELD_KINDS) each field of a dataset spec may take; a
# synthetic field left out takes DEFAULT_DATASET's value, and of the fields
# with no default only these may be left out: the `name` (the generator's or
# the file's), the synthetic `seed` (the run seed is used) and the csv
# `header` (true)
DATASET_FIELDS = {
    "synthetic": {"n_classes": ("int",), "dims": ("int",), "n": ("int",),
                  "class_separation": ("float",), "seed": ("int",),
                  "name": ("str",)},
    "csv": {"path": ("str",), "label_column": ("str", "int"),
            "header": ("bool",), "name": ("str",)},
}
OPTIONAL_DATASET_FIELDS = ("name", "seed", "header")


@dataclass
class RunConfig:
    dataset: dict = field(default_factory=lambda: dict(DEFAULT_DATASET))
    train_fraction: float = 0.7
    proper_fraction: float = 0.5
    r: int = 1000
    s: int = 100
    seed: int = 0
    n_bins: int = DEFAULT_SHIFT_BINS
    families: tuple = FAMILIES
    quantifier: str = "KDEyML"
    bandwidth: float = 0.1
    cap_weight: float = 1.0
    smoothing: float = 0.0
    strategies: tuple = DEFAULT_STRATEGIES
    standardize: bool = True
    alpha: float = 0.01
    outdir: str = "runs/out"

    def validate(self):
        for f in fields(self):
            value = _plain(getattr(self, f.name))
            setattr(self, f.name, value)
            if not _of_kind(value, f.type):
                raise ConfigError(
                    f"{f.name} must be {FIELD_KINDS[f.type][0]}, got {value!r}")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(f"train_fraction {self.train_fraction} not in (0,1)")
        if not (0.0 < self.proper_fraction < 1.0):
            raise ConfigError(f"proper_fraction {self.proper_fraction} not in (0,1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.r < 1 or self.s < 1:
            raise ConfigError("r and s must be at least 1")
        if self.n_bins < 1:
            raise ConfigError("n_bins must be at least 1")
        try:
            check_fit_settings(**_fit_settings(self))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        check_alpha(self.alpha)
        for key, item in (("families", "family"), ("strategies", "strategy")):
            if not getattr(self, key):
                raise ConfigError(f"{key} must name at least one {item}")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown family {fam!r}")
        kind = self.dataset.get("kind")
        if kind not in DATASET_FIELDS:
            raise ConfigError(f"dataset.kind must be 'synthetic' or 'csv', got {kind!r}")
        unknown = set(self.dataset) - {"kind", *DATASET_FIELDS[kind]} \
            - ({"prevalence"} if kind == "synthetic" else set())
        if unknown:
            raise ConfigError(f"unknown keys for a {kind} dataset: {sorted(unknown)}")
        spec = {**DEFAULT_DATASET, **self.dataset} if kind == "synthetic" \
            else self.dataset
        for key, kinds in DATASET_FIELDS[kind].items():
            if key not in spec:
                if key in OPTIONAL_DATASET_FIELDS:
                    continue
                raise ConfigError(f"csv dataset needs dataset.{key}")
            if not any(_of_kind(spec[key], k) for k in kinds):
                raise ConfigError(
                    f"dataset.{key} must be "
                    f"{' or '.join(FIELD_KINDS[k][0] for k in kinds)}, "
                    f"got {spec[key]!r}")
        if kind == "synthetic":
            if spec.get("seed", 0) < 0:
                raise ConfigError(
                    f"dataset.seed must be non-negative, got {spec['seed']}")
            for key, least in (("n_classes", 2), ("dims", 1),
                               ("n", spec["n_classes"])):
                if spec[key] < least:
                    raise ConfigError(f"dataset.{key} must be at least "
                                      f"{least}, got {spec[key]}")
            if spec["prevalence"] is not None:
                try:
                    as_prevalence(spec["prevalence"], spec["n_classes"])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"dataset.prevalence: {exc}") from exc
        for strat in self.strategies:
            _parse_strategy(strat, self.families)
        for key in ("families", "strategies"):
            repeated = [x for x, c in Counter(getattr(self, key)).items() if c > 1]
            if repeated:
                raise ConfigError(f"duplicate {key}: {repeated}")


def check_alpha(alpha: float):
    """The Wilcoxon significance level must lie in (0, 1); raises
    ConfigError."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha {alpha} not in (0,1)")


def _parse_strategy(name: str, families):
    """Split a strategy name into (kind, scope); raises ConfigError."""
    if name == "oracle":
        return "oracle", "All"
    for prefix, kind in (("default-", "default"), ("IMS-", "IMS"), ("TMS-", "TMS")):
        if name.startswith(prefix):
            scope = name[len(prefix):]
            if scope == "All" and kind != "default":
                return kind, "All"
            if scope in families:
                return kind, scope
            raise ConfigError(f"strategy {name!r} references unknown scope {scope!r}")
    raise ConfigError(f"unknown strategy {name!r}")


def read_config(path) -> dict:
    """The JSON object in a config file, or a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a JSON object, got {raw!r}")
    return raw


def load_config(path) -> RunConfig:
    """Read a JSON config file and apply defaults."""
    return config_from_dict(read_config(path))


def config_from_dict(raw: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(raw)
    for key in ("families", "strategies"):
        if isinstance(kwargs.get(key), list):
            kwargs[key] = tuple(kwargs[key])
    config = RunConfig(**kwargs)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    significant: bool
    n: int
    method: str


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of `x`; tied values share the mean of their ranks, which
    for a group ending at rank `last` is `last - (count - 1) / 2`."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def wilcoxon_signed_rank(a, b, alpha: float = 0.01) -> WilcoxonResult:
    """Two-sided paired signed-rank test.

    Zero differences are dropped; ties get averaged ranks. The null
    distribution is enumerated exactly for up to 12 nonzero pairs and
    approximated by a continuity-corrected normal beyond that.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two paired vectors of equal length")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n < 5:
        raise ValueError(f"only {n} nonzero differences; need at least 5")

    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)

    if n <= WILCOXON_EXACT_MAX:
        masks = np.arange(1 << n, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1
        totals = bits @ ranks
        p = 2.0 * float((totals <= w + 1e-12).mean())
        method = "exact"
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        var -= (tie_counts ** 3 - tie_counts).sum() / 48.0
        z = (w - mean + 0.5) / math.sqrt(var)
        p = math.erfc(-z / math.sqrt(2.0))
        method = "normal"
    p = min(p, 1.0)
    return WilcoxonResult(statistic=w, p_value=p, significant=p < alpha,
                          n=n, method=method)


# ---------------------------------------------------------------------------
# Result table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    run_id: str
    dataset: str
    strategy: str
    bag_id: int
    l1_shift: float
    true_acc: float
    est_acc: float    # None when the strategy produces no estimate (oracle)
    model_id: int


# results.csv's header, which `shiftselect report` requires
RESULTS_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class ResultTable:
    rows: list
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@contextmanager
def _stage(name, seconds=None):
    """Run one pipeline stage: a failure becomes a StageError that names it,
    and with a `seconds` dict its wall time is recorded there under `name`."""
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    if seconds is not None:
        seconds[name] = time.perf_counter() - start


def _load_dataset(config: RunConfig) -> Dataset:
    """The dataset of a spec that :meth:`RunConfig.validate` has checked."""
    spec = config.dataset
    if spec["kind"] == "csv":
        try:
            return load_csv(spec["path"], spec["label_column"],
                            header=spec.get("header", True), name=spec.get("name"))
        except FileNotFoundError as exc:
            raise FileNotFoundError(
                f"no CSV file at {os.path.abspath(spec['path'])} (a relative "
                "CSV path is read from the working directory)") from exc
    spec = {**DEFAULT_DATASET, **spec}
    prevalence = spec["prevalence"]
    if prevalence is None:
        prevalence = uniform_prevalence(spec["n_classes"])
    return synth_gaussian_pps(spec["n_classes"], spec["dims"], prevalence,
                              spec["n"], spec["class_separation"],
                              spec.get("seed", config.seed),
                              name=spec.get("name"))


def _derived_seeds(seed: int) -> dict:
    names = ("split_outer", "split_inner", "registry", "protocol")
    state = np.random.SeedSequence(seed).generate_state(len(names))
    return {name: int(s) for name, s in zip(names, state)}


def config_record(config: RunConfig) -> dict:
    """The config as manifest.json records it and the run id hashes it:
    every field but `outdir`, which is not part of the experiment, so the
    same config run into two directories writes byte-identical files. The
    record with an `outdir` added is a config that reruns the run."""
    record = asdict(config)
    del record["outdir"]
    return record


def _prepare(config: RunConfig, outdir=None, seconds=None):
    """Load data, split, standardize, and assemble the manifest; with an
    `outdir`, also write it there as manifest.json. `seconds` collects the
    stages' wall times (see :func:`_stage`)."""
    config.validate()
    seeds = _derived_seeds(config.seed)
    with _stage("dataset", seconds):
        ds = _load_dataset(config)
    scaler = None
    with _stage("split", seconds):
        everything = ds.all_instances()
        labelled, test = stratified_split(everything, config.train_fraction,
                                          seeds["split_outer"])
        proper, validation = stratified_split(labelled, config.proper_fraction,
                                              seeds["split_inner"])
        if config.standardize:
            scaler = fit_scaler(proper)
            scaled = Dataset(apply_scaler(scaler, ds.features), ds.labels,
                             ds.n_classes, ds.name, ds.class_map,
                             require_all_classes=ds.require_all_classes)
            test = LabelledSet(scaled, test.indices)
            proper = LabelledSet(scaled, proper.indices)
            validation = LabelledSet(scaled, validation.indices)

    record = config_record(config)
    manifest = {
        "run_id": hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()).hexdigest()[:12],
        "config": record,
        "dataset": {
            "name": ds.name,
            "fingerprint": fingerprint(ds.features, ds.labels),
            "n_instances": len(ds),
            "n_features": ds.n_features,
            "n_classes": ds.n_classes,
            "class_map": dict(ds.class_map),
        },
        "scaler": None if scaler is None else {
            "mean": scaler.mean_.tolist(),
            "std": scaler.std_.tolist(),
        },
        "splits": {
            "labelled": len(labelled),
            "proper_train": len(proper),
            "validation": len(validation),
            "test": len(test),
        },
        "grid_sizes": {fam: len(build_grid(fam, ds.n_classes))
                       for fam in config.families},
        "derived_seeds": seeds,
    }
    if outdir is not None:
        write_json(outdir, "manifest.json", manifest)
    return ds, proper, validation, test, manifest


def _fit_settings(config: RunConfig) -> dict:
    """The predictors' fit settings, as build_registry takes them and the
    registry's meta records them."""
    return {key: getattr(config, key)
            for key in ("quantifier", "bandwidth", "cap_weight", "smoothing")}


def _train_registry(config: RunConfig, proper, validation, manifest,
                    seconds=None, **kwargs) -> ModelRegistry:
    """Build the config's registry (`kwargs`, such as `out_dir`, go to
    build_registry), which fails when no configuration trains."""
    with _stage("registry", seconds):
        return build_registry(
            config.families, proper, validation,
            seed=manifest["derived_seeds"]["registry"],
            run_id=manifest["run_id"], **kwargs, **_fit_settings(config))


def run_experiment(config: RunConfig, registry: ModelRegistry = None) -> ResultTable:
    """Execute the full pipeline and return one row per (strategy, bag)
    (see :func:`_evaluate`).

    Pass a prebuilt `registry` (say, one `load_registry` read back from
    `shiftselect train`) to skip training; its meta must record this
    config's proper-train and validation data, families and
    :func:`_fit_settings`, or the "registry" stage fails.
    Partial rows are flushed to results.csv if a later stage fails. The
    table's meta holds the run's timings (see :func:`_timings`) and a
    warning per model and solver that stopped early, counting bags.
    """
    outdir = config.outdir
    seconds, train_s, workers = {}, {}, {}
    ds, proper, validation, test, manifest = _prepare(config, outdir, seconds)
    if registry is None:
        registry = _train_registry(config, proper, validation, manifest,
                                   seconds, train_s=train_s, workers=workers)
    else:
        with _stage("registry", seconds):
            expected = {"data_fingerprint": fingerprint(
                            proper.X, proper.y, validation.X, validation.y),
                        "families": list(config.families),
                        **_fit_settings(config)}
            for key, want in expected.items():
                found = registry.meta.get(key)
                if found != want:
                    raise ValueError(
                        f"registry {key} {found!r} does not match this "
                        f"config's {want!r}: it was trained on other data "
                        "or under another config")

    with _stage("protocol", seconds):
        bags = app_generate(test, config.r, config.s,
                            manifest["derived_seeds"]["protocol"])

    run_id = manifest["run_id"]
    rows = []
    warnings = list(registry.warnings)
    evaluated = {}
    try:
        with _stage("evaluate", seconds):
            for row in _evaluate(config, registry, test, bags,
                                 proper.prevalence(), run_id, ds.name,
                                 warnings, evaluated):
                rows.append(row)
    except StageError:
        _write_results_csv(rows, os.path.join(outdir, "results.csv"))
        raise

    meta = {"run_id": run_id, "dataset": ds.name, "n_bins": config.n_bins,
            "alpha": config.alpha, "warnings": warnings,
            "timings": {**_timings(seconds, registry, train_s, workers), **evaluated}}
    return ResultTable(rows, meta)


def _timings(seconds, registry, train_s, workers) -> dict:
    """What timings.json holds: the wall seconds of each pipeline stage and
    of each family's train_grid call (`train_s`; empty for a prebuilt
    registry), the LR models' Newton steps and conjugate-gradient steps
    (Hessian-vector products), and the MLP models' epochs and how many
    stopped before MLP_MAX_EPOCHS, all read from the models' meta, and the
    number of processes the MLP grid trained in (`mlp.workers`, as
    :func:`parallel.fork_map` reported it into `workers`; 0 when the run
    trained no MLP grid). A run adds the `evaluate_s` and `evaluate` blocks
    (see :func:`_evaluate`)."""
    lr = [e.model.meta for e in registry.entries if e.model.family == "LR"]
    epochs = [e.model.meta["epochs"] for e in registry.entries
              if e.model.family == "MLP"]
    return {"stage_s": seconds, "train_grid_s": train_s,
            "lr": {"models": len(lr),
                   "newton_steps": sum(m.get("iterations", 0) for m in lr),
                   "cg_steps": sum(m.get("cg_iterations", 0) for m in lr),
                   "unconverged": sum(not m.get("converged", True)
                                      for m in lr)},
            "mlp": {"models": len(epochs), "epochs": sum(epochs),
                    "stopped_early": sum(n < MLP_MAX_EPOCHS
                                         for n in epochs),
                    "workers": workers.get("MLP", 0)}}


def _evaluate(config, registry, test, bags, train_prevalence, run_id,
              dataset_name, warnings, timings):
    """Yield one ResultRow per (strategy, bag), strategy by strategy, so
    that partial progress survives a mid-run failure.

    Each strategy is one model position per bag: a default or IMS model
    resolved once, and for the oracle and each TMS scope the argmax
    (:func:`selection.best_position`) of its rows of the true and of the
    estimated (models, bags) matrix. The estimates are one
    :func:`tms_select` call per bag on ``"All"``, on slices of the test-set
    caches, made when the roster reaches its first TMS strategy through one
    :func:`parallel.fork_map` call; a worker sends back each bag's estimates
    and the two solvers' convergence flags, which are stacked the same way.
    `warnings` receives one line per model of some TMS scope of the roster
    and solver that stopped early, and one per TMS strategy and pick whose
    rate matrix is rank-deficient (smallest singular value below
    :data:`cap.RANK_TOL`), each counting bags. The `timings` dict
    receives timings.json's `evaluate_s` block (the seconds of the test-set
    posteriors, the quantifier rows and the bags) and `evaluate` block
    (`workers`: the solves' processes, or 0; `kde_kernel_values`: the
    kernel values the KDE evaluated for the test set's quantifier rows, as
    :meth:`cap.CapStack.rows` counts them)."""
    seconds = timings["evaluate_s"] = {}
    evaluate = timings["evaluate"] = {"workers": 0, "kde_kernel_values": 0}
    # Predicted labels and quantifier rows (the KDE log densities) over the
    # whole test set are computed once per model and stacked along
    # registry.entries; a bag's are then slices, which keeps TMS cheap.
    start = time.perf_counter()
    posteriors_test = registry.models.posteriors(test.X)
    seconds["test_posteriors"] = time.perf_counter() - start
    start = time.perf_counter()
    rows_test = registry.caps.rows(posteriors_test, stats=evaluate)
    seconds["quantifier_rows"] = time.perf_counter() - start
    start = time.perf_counter()
    labels_test = argmax_rows(posteriors_test)
    true = np.stack([(labels_test[:, bag.indices] == reveal_labels(bag))
                     .mean(axis=1) for bag in bags], axis=1)
    shifts = [l1_shift(train_prevalence, bag.realized_prevalence)
              for bag in bags]
    ids = [e.model_id for e in registry.entries]
    scopes = [scope for kind, scope in (_parse_strategy(strat, config.families)
              for strat in config.strategies) if kind == "TMS"]
    estimated = None

    def solve(part):
        out = []
        for bag_id in part:
            bag = bags[bag_id]
            outcome = tms_select(registry, "All", bag,
                                 labels=labels_test[:, bag.indices],
                                 rows=rows_test[:, bag.indices])
            out.append((outcome.estimates, outcome.converged,
                        outcome.em_converged))
        return out

    for strat in config.strategies:
        kind, scope = _parse_strategy(strat, config.families)
        if kind == "TMS":
            if estimated is None:
                solves, evaluate["workers"] = fork_map(solve, len(bags))
                estimated, converged, em_converged = (
                    np.stack(column, axis=1) for column in zip(*solves))
                sigma_min = np.linalg.svd(registry.caps.M,
                                          compute_uv=False)[:, -1]
                in_scope = np.unique(np.concatenate(
                    [registry.scope_positions(s) for s in scopes]))
                warnings.extend(
                    f"model {ids[i]}: {what} did not converge on {count} of "
                    f"{len(bags)} bags"
                    for what, flags in (("accuracy solver", converged),
                                        ("mixture solver", em_converged))
                    for i, count in zip(in_scope,
                                        (~flags[in_scope]).sum(axis=1))
                    if count)
            at = registry.scope_positions(scope)
            at = at[best_position(estimated[at], f"scope {scope!r} on a bag")]
            picked, count = np.unique(at, return_counts=True)
            warnings.extend(
                f"{strat} picked model {ids[i]} on {n} of {len(bags)} bags, "
                f"whose rate matrix is rank-deficient (smallest singular "
                f"value {sigma_min[i]:.3g} < {RANK_TOL:g}), so its "
                "estimate rests on its own qhat"
                for i, n in zip(picked, count) if sigma_min[i] < RANK_TOL)
            picks = zip(at, estimated[at, range(len(bags))].tolist())
        elif kind == "oracle":
            picks = zip(best_position(true, "a bag"), [None] * len(bags))
        else:
            select = default_select if kind == "default" else ims_select
            at = ids.index(select(registry, scope))
            picks = [(at, registry.entries[at].val_accuracy)] * len(bags)
        for bag_id, (at, est) in enumerate(picks):
            yield ResultRow(run_id, dataset_name, strat, bag_id,
                            shifts[bag_id], float(true[at, bag_id]), est,
                            ids[at])
    seconds["bags"] = time.perf_counter() - start


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows):
    """csv.writer writes None as an empty field and a float, numpy's too, as
    its shortest round-trip repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_results_csv(rows, path):
    ordered = sorted(rows, key=lambda r: (r.strategy, r.bag_id))
    _write_csv(path, RESULTS_COLUMNS,
               [(r.run_id, r.dataset, r.strategy, r.bag_id, r.l1_shift,
                 r.true_acc, r.est_acc, r.model_id) for r in ordered])


def accuracy_matrix(rows):
    """The one view of a run that the reports reduce: the strategies,
    sorted; each bag's L1 shift, in bag-id order; and a (strategies, bags)
    matrix of true accuracies, NaN where a strategy has no row for a bag.
    A second row for one (strategy, bag) raises ValueError."""
    repeated = [key for key, c in Counter((r.strategy, r.bag_id)
                                          for r in rows).items() if c > 1]
    if repeated:
        raise ValueError(f"more than one row for (strategy, bag) {repeated[0]}")
    strategies, i = np.unique([r.strategy for r in rows], return_inverse=True)
    bag_ids, first, j = np.unique([r.bag_id for r in rows], return_index=True,
                                  return_inverse=True)
    acc = np.full((strategies.size, bag_ids.size), np.nan)
    acc[i, j] = [r.true_acc for r in rows]
    return strategies.tolist(), np.array([rows[k].l1_shift for k in first]), acc


def summarize(strategies, acc, alpha: float = 0.01) -> list:
    """summary.csv's rows from :func:`accuracy_matrix`'s strategies and
    matrix: per strategy, the count, mean and population std of its
    accuracies over the bags it has, and a two-sided Wilcoxon signed-rank
    test against the best (the max of (mean, name)), paired on the bags both
    strategies have."""
    has = ~np.isnan(acc)
    own = [a[h] for a, h in zip(acc, has)]
    means = [float(np.mean(a)) for a in own]
    best = max(range(len(strategies)), key=lambda i: (means[i], strategies[i]),
               default=None)
    summary_rows = []
    for i, strat in enumerate(strategies):
        dagger, p_val = 0, None
        if i != best:
            both = has[i] & has[best]
            try:
                res = wilcoxon_signed_rank(acc[i, both], acc[best, both],
                                           alpha=alpha)
                dagger, p_val = int(not res.significant), res.p_value
            except ValueError:
                # degenerate pairing (near-identical scores): not distinguishable
                dagger = 1
        summary_rows.append((strat, own[i].size, means[i], float(np.std(own[i])),
                             int(i == best), dagger, p_val))
    return summary_rows


@dataclass(frozen=True)
class Claim:
    """The paper's claim on one scope: TMS against IMS, paired by bag over
    the bags both strategies have. `mean_diff` is the mean of TMS's accuracy
    minus IMS's; a win is a bag where TMS is more accurate. `p_value` is
    :func:`wilcoxon_signed_rank`'s, None when fewer than 5 differences are
    nonzero."""
    tms: str
    ims: str
    mean_diff: float
    wins: int
    ties: int
    losses: int
    p_value: float | None

    def __str__(self):
        p = "n/a" if self.p_value is None else f"{self.p_value:.2g}"
        return (f"{self.tms} vs {self.ims}: mean diff {self.mean_diff:+.4f}, "
                f"wins/ties/losses {self.wins}/{self.ties}/{self.losses}, "
                f"p {p}")


def claims(strategies, acc) -> list:
    """One :class:`Claim` per TMS scope whose IMS strategy of the same scope
    is in `strategies` and shares a bag with it, from
    :func:`accuracy_matrix`'s strategies and matrix."""
    out = []
    for i, tms in enumerate(strategies):
        ims = "IMS-" + tms[len("TMS-"):]
        if not tms.startswith("TMS-") or ims not in strategies:
            continue
        a, b = acc[i], acc[strategies.index(ims)]
        both = ~np.isnan(a) & ~np.isnan(b)
        if not both.any():
            continue
        d = a[both] - b[both]
        try:
            p = wilcoxon_signed_rank(a[both], b[both]).p_value
        except ValueError:   # fewer than 5 nonzero differences
            p = None
        out.append(Claim(tms, ims, float(d.mean()), int((d > 0).sum()),
                         int((d == 0).sum()), int((d < 0).sum()), p))
    return out


def emit_report(table: ResultTable, outdir, n_bins=None, alpha=None):
    """Write results.csv, summary.csv, shift_curve.csv, and summary.txt.

    The last three reduce one :func:`accuracy_matrix`, built before any file
    is written; a shift curve row is a strategy's mean over the bags it has
    in one populated shift bin (see :func:`protocol.bin_by_shift`), and
    summary.txt states each of the run's :func:`claims` on one line.
    """
    n_bins = n_bins if n_bins is not None else table.meta.get("n_bins", DEFAULT_SHIFT_BINS)
    alpha = alpha if alpha is not None else table.meta.get("alpha", 0.01)
    strategies, shifts, acc = accuracy_matrix(table.rows)
    summary_rows = summarize(strategies, acc, alpha)
    bins, width = bin_by_shift(shifts, n_bins)
    curve_rows = []
    for b in sorted(set(bins.tolist())):
        in_bin = acc[:, bins == b]
        for strat, accs in zip(strategies, in_bin):
            accs = accs[~np.isnan(accs)]
            if accs.size:
                curve_rows.append((b, b * width, (b + 1) * width,
                                   in_bin.shape[1], strat, float(np.mean(accs))))

    os.makedirs(outdir, exist_ok=True)
    _write_results_csv(table.rows, os.path.join(outdir, "results.csv"))
    _write_csv(os.path.join(outdir, "summary.csv"),
               ["strategy", "n_bags", "mean_true_acc", "std_true_acc",
                "best", "not_sig_diff_from_best", "p_vs_best"],
               summary_rows)
    _write_csv(os.path.join(outdir, "shift_curve.csv"),
               ["bin_index", "bin_lo", "bin_hi", "n_bags", "strategy",
                "mean_true_acc"],
               curve_rows)

    lines = [
        f"run {table.meta.get('run_id', '?')} on {table.meta.get('dataset', '?')}",
        f"significance: two-sided Wilcoxon signed-rank at alpha={alpha}, "
        "paired on per-bag accuracies within this dataset",
        "",
        f"{'strategy':<16} {'mean':>8} {'std':>8}  flags",
    ]
    for strat, n, mean, std, flag_best, dagger, _ in summary_rows:
        marks = ("best" if flag_best else "") + ("+" if dagger and not flag_best else "")
        lines.append(f"{strat:<16} {mean:8.4f} {std:8.4f}  {marks}")
    lines.extend(map(str, claims(strategies, acc)))
    for warning in table.meta.get("warnings", []):
        lines.append(f"warning: {warning}")
    with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_results_csv(path) -> ResultTable:
    """The table a results.csv holds; a file that does not start with
    :data:`RESULTS_COLUMNS` as its header raises ValueError."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if header != list(RESULTS_COLUMNS):
            missing = [c for c in RESULTS_COLUMNS if c not in header]
            raise ValueError(
                f"{path} does not have results.csv's header "
                f"{','.join(RESULTS_COLUMNS)}; missing columns: "
                f"{', '.join(missing) or 'none'}")
        for rec in reader:
            rows.append(ResultRow(
                run_id=rec["run_id"],
                dataset=rec["dataset"],
                strategy=rec["strategy"],
                bag_id=int(rec["bag_id"]),
                l1_shift=float(rec["l1_shift"]),
                true_acc=float(rec["true_acc"]),
                est_acc=float(rec["est_acc"]) if rec["est_acc"] else None,
                model_id=int(rec["model_id"]),
            ))
    meta = {"run_id": rows[0].run_id, "dataset": rows[0].dataset} if rows else {}
    return ResultTable(rows, meta)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    config = load_config(args.config)
    if args.outdir:
        config.outdir = args.outdir
    seconds, train_s, workers = {}, {}, {}
    _, proper, validation, _, manifest = _prepare(config, config.outdir,
                                                  seconds)
    registry_dir = os.path.join(config.outdir, "registry")
    registry = _train_registry(config, proper, validation, manifest, seconds,
                               out_dir=registry_dir, train_s=train_s, workers=workers)
    write_json(config.outdir, "timings.json", _timings(seconds, registry, train_s, workers))
    print(f"trained {len(registry)} models into {registry_dir}")
    for warning in registry.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for e in registry.entries:
        model = e.model
        if model.family == "LR" and not model.meta["converged"]:
            print(f"warning: model {e.model_id} ({model.hyperparams.label()}): "
                  f"LR training stopped unconverged after "
                  f"{model.meta['iterations']} Newton steps", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.outdir:
        config.outdir = args.outdir
    table = run_experiment(config)
    timings = table.meta["timings"]
    with _stage("report", timings["stage_s"]):
        emit_report(table, config.outdir)
    write_json(config.outdir, "timings.json", timings)
    print(f"wrote results for {len(table.rows)} (strategy, bag) pairs "
          f"to {config.outdir}")
    return 0


def _cmd_report(args) -> int:
    check_alpha(args.alpha)
    if args.bins < 1:
        raise ConfigError(f"--bins {args.bins} must be at least 1")
    table = read_results_csv(args.results)
    emit_report(table, args.outdir, n_bins=args.bins, alpha=args.alpha)
    print(f"re-emitted reports to {args.outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftselect",
        description="Transductive model selection under prior probability shift.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="build and persist the model registry")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--outdir", default=None)
    p_train.set_defaults(func=_cmd_train)

    p_run = sub.add_parser("run", help="run the full experiment from a config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--outdir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="re-emit reports from a results.csv")
    p_rep.add_argument("--results", required=True)
    p_rep.add_argument("--outdir", required=True)
    p_rep.add_argument("--bins", type=int, default=DEFAULT_SHIFT_BINS)
    p_rep.add_argument("--alpha", type=float, default=0.01)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
