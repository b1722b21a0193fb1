"""Model-selection strategies over a shared registry of trained classifiers.

* inductive (IMS): pick the model with the best accuracy on labelled
  validation data, once, and apply it to every bag;
* transductive (TMS): per bag, pick the model whose *predicted* accuracy on
  that specific bag is highest, and return its labels for the bag;
* defaults: the fixed default configuration of each family.

IMS is bag-independent by construction; TMS may pick a different model for
every bag. Each is an argmax under :func:`best_position`: a NaN value never
wins, and a tie goes to the first position, which is the lowest model id, as
a :class:`ModelRegistry` holds its entries sorted by id. A scope is a family
name or ``"All"``, and the models in it are the positions
:meth:`ModelRegistry.scope_positions` gives in the registry's entries. The
registry stacks every entry's accuracy predictor once
(:attr:`ModelRegistry.caps`; a registry is immutable, so the stack never
goes stale). TMS predicts the accuracy of every entry's model on the bag
over that stack, whatever the scope, from each model's predicted labels and
quantifier rows for the bag, which it takes precomputed (stacked along
``registry.entries``) or computes from the bag's features. The scope
restricts only the argmax and the solver warnings to its rows. No function
here takes true labels: the harness (:mod:`evalcli`) takes each TMS scope
and the oracle, an evaluation upper bound, as argmaxes over models × bags
matrices of estimated and of true accuracies.

A registry is saved as one document, ``manifest.json``: its format version,
its meta (the one record of the class count and of the settings every
predictor was fitted under), its training warnings, and per entry the model
id, the validation accuracy, the model record
(:func:`classifiers.model_to_record`) and the accuracy-predictor record (the
rate matrix and, for KDEy-ML, the KDE supports).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataspace import LabelledSet
from .classifiers import (TrainedModel, TrainingError, argmax_rows,
                          build_grid, decode_array, default_model,
                          encode_array, model_from_record, model_to_record,
                          predict_posteriors_batch, train_grid)
from .quantifiers import QUANTIFIERS, ClassDensities
from .cap import CapPredictor, CapStack, check_weight, fit_cap, stack_caps

FORMAT_VERSION = 2      # of the saved registry document
META_KEYS = {"run_id", "seed", "families", "quantifier", "bandwidth",
             "cap_weight", "smoothing", "n_classes", "data_fingerprint"}


@dataclass(frozen=True)
class RegistryEntry:
    model_id: int
    model: TrainedModel
    val_accuracy: float
    cap: CapPredictor


@dataclass(frozen=True)
class ModelRegistry:
    """Trained entries, held as a tuple sorted by model id (a repeated id
    raises ValueError), training warnings and meta (by default, a LEAP
    weight of 1 only)."""
    entries: tuple
    warnings: list = field(default_factory=list)
    meta: dict = field(default_factory=lambda: {"cap_weight": 1.0})

    def __post_init__(self):
        entries = tuple(sorted(self.entries, key=lambda e: e.model_id))
        for a, b in zip(entries, entries[1:]):
            if a.model_id == b.model_id:
                raise ValueError(f"model id {a.model_id} is repeated")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def entry(self, model_id: int) -> RegistryEntry:
        for e in self.entries:
            if e.model_id == model_id:
                return e
        raise KeyError(f"no model with id {model_id}")

    def scope_positions(self, scope) -> np.ndarray:
        """Positions in `entries` of the models in scope, as an int array;
        a scope without models raises ValueError."""
        positions = np.array([i for i, e in enumerate(self.entries)
                              if scope == "All" or e.model.family == scope],
                             dtype=int)
        if not positions.size:
            raise ValueError(f"no models in scope {scope!r}")
        return positions

    @cached_property
    def caps(self) -> CapStack:
        """Every entry's accuracy predictor, stacked (:func:`cap.stack_caps`)
        under the meta's `cap_weight` on first use; neither saved nor compared."""
        return stack_caps([e.cap for e in self.entries], self.meta["cap_weight"])


@dataclass
class SelectionOutcome:
    model_id: int
    predicted_labels: np.ndarray
    estimated_accuracy: float
    # in registry.entries order: every entry's estimated accuracy, and
    # whether its accuracy solver and its mixture solver converged
    estimates: np.ndarray
    converged: np.ndarray
    em_converged: np.ndarray
    # one line per in-scope model whose accuracy solver or mixture solver
    # stopped early on this bag
    warnings: tuple


def _entry_seed(seed: int, model_id: int) -> int:
    return int(np.random.SeedSequence([seed, model_id]).generate_state(1)[0])


def fingerprint(*arrays) -> str:
    """First 12 hex digits of the sha256 over the arrays' raw bytes."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()[:12]


def build_registry(families, Ltr: LabelledSet, Lva: LabelledSet,
                   quantifier: str = "KDEyML", seed: int = 0,
                   bandwidth: float = 0.1, cap_weight: float = 1.0,
                   smoothing: float = 0.0, run_id=None, out_dir=None,
                   train_s=None, workers=None) -> ModelRegistry:
    """Train every grid point of every family, score it on validation data,
    and fit its accuracy predictor on the same validation data.

    Each family's grid is trained by one :func:`classifiers.train_grid` call
    (the MLP grid as one stack). A configuration that fails with a
    `TrainingError`, or whose accuracy predictor cannot be fitted (a
    `ValueError`, such as a `DataError` from the rate estimate or a
    `LinAlgError`), is recorded as a warning and skipped; the rest of the run
    continues. Model ids follow grid enumeration order and stay
    stable even when entries fail. Every trained model's validation
    posteriors are computed once, in one batch, and feed its validation
    accuracy, rate matrix and quantifier. `meta` (keys META_KEYS) records
    the class count and the four fit settings under their keywords' names; a
    bad `cap_weight` fails before any training. Pass `out_dir` to persist
    the registry. `train_s` and `workers` dicts receive each family's
    training seconds and process count.
    """
    check_weight(cap_weight)
    n_classes = Ltr.n_classes
    trained, warnings = [], []
    model_id = 0
    for family in families:
        grid = build_grid(family, n_classes)
        ids = range(model_id, model_id + len(grid))
        start = time.perf_counter()
        results = train_grid(family, grid, Ltr,
                             [_entry_seed(seed, i) for i in ids],
                             workers=workers)
        if train_s is not None:
            train_s[family] = time.perf_counter() - start
        for i, hp, result in zip(ids, grid, results):
            if isinstance(result, TrainingError):
                warnings.append(f"model {i} ({hp.label()}) failed: {result}")
            else:
                trained.append((i, hp, result))
        model_id += len(grid)
    entries = []
    if trained:
        posteriors = predict_posteriors_batch([t[-1] for t in trained], Lva.X)
        for (model_id, hp, model), P in zip(trained, posteriors):
            val_acc = float((np.argmax(P, axis=1) == Lva.y).mean())
            try:
                cap = fit_cap(P, Lva, quantifier_kind=quantifier,
                              bandwidth=bandwidth, smoothing=smoothing)
            except ValueError as exc:   # DataError and LinAlgError among them
                warnings.append(f"model {model_id} ({hp.label()}) failed: {exc}")
                continue
            entries.append(RegistryEntry(model_id, model, val_acc, cap))
    meta = {
        "run_id": run_id,
        "seed": seed,
        "families": list(families),
        "quantifier": quantifier,
        "bandwidth": bandwidth,
        "cap_weight": cap_weight,
        "smoothing": smoothing,
        "n_classes": n_classes,
        "data_fingerprint": fingerprint(Ltr.X, Ltr.y, Lva.X, Lva.y),
    }
    registry = ModelRegistry(entries, warnings, meta)
    if out_dir is not None:
        save_registry(registry, out_dir)
    return registry


def best_position(values, where: str):
    """First position along the first axis that holds the highest non-NaN
    value: an int for a vector, one per column for a (models, bags) matrix.
    Over a registry's entries the first position is the lowest model id.
    `where` names the scope (and bag) for the error raised when every value
    (of some column) is NaN."""
    values = np.asarray(values, dtype=float)
    valid = ~np.isnan(values)
    if not valid.any(axis=0).all():
        raise ValueError(f"every accuracy in {where} is NaN")
    top = values.max(axis=0, where=valid, initial=-np.inf)
    return np.argmax(values == top, axis=0)


def ims_select(registry: ModelRegistry, scope) -> int:
    """Id of the in-scope model with the best validation accuracy."""
    positions = registry.scope_positions(scope)
    best = best_position([registry.entries[i].val_accuracy for i in positions],
                         f"scope {scope!r}")
    return registry.entries[positions[best]].model_id


def tms_select(registry: ModelRegistry, scope, bag, labels=None,
               rows=None) -> SelectionOutcome:
    """Pick the in-scope model with the highest predicted accuracy on this
    bag and label the bag with it. Every entry's accuracy is predicted over
    ``registry.caps`` (:meth:`cap.CapStack.prevalences`, then
    :meth:`cap.CapStack.accuracies`); the scope restricts the argmax and the
    warnings to its rows, ``scope_positions(scope)``.

    `labels` may supply the bag's predicted labels under every entry's model,
    shape (len(registry.entries), m), and `rows` their quantifier rows
    (:meth:`cap.CapStack.rows`); the evaluation harness slices both from
    test-set caches. What is not supplied is computed from the bag's
    features; an empty bag raises DataError.
    """
    positions = registry.scope_positions(scope)
    if labels is None or rows is None:
        posteriors = predict_posteriors_batch(
            [e.model for e in registry.entries], bag.features)
        labels = argmax_rows(posteriors) if labels is None else labels
        rows = registry.caps.rows(posteriors) if rows is None else rows
    qhat, _, em_converged = registry.caps.prevalences(rows)
    estimates, _, _, converged = registry.caps.accuracies(labels, qhat)
    best = positions[best_position(
        estimates[positions],
        f"scope {scope!r} on a bag of {bag.size} instances")]
    return SelectionOutcome(
        model_id=registry.entries[best].model_id,
        predicted_labels=labels[best],
        estimated_accuracy=float(estimates[best]),
        estimates=estimates, converged=converged, em_converged=em_converged,
        warnings=tuple(
            f"model {registry.entries[i].model_id}: {what} did not converge"
            for what, flags in (("accuracy solver", converged),
                                ("mixture solver", em_converged))
            for i in positions[~flags[positions]]))


def default_select(registry: ModelRegistry, family: str) -> int:
    """Id of the registry entry holding the family's default configuration."""
    target = default_model(family)
    for e in registry.entries:
        if e.model.family == family and e.model.hyperparams == target:
            return e.model_id
    raise ValueError(f"default {family} configuration not in registry")


# ---------------------------------------------------------------------------
# Persistence: one manifest holds the whole registry
# ---------------------------------------------------------------------------

def write_json(out_dir, name: str, doc: dict) -> None:
    """Write `doc` as out_dir/name (sorted keys, one-space indent), creating
    the directory if needed. Every JSON file of a run goes through here."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _check_meta_keys(meta) -> None:
    if set(meta) != META_KEYS:
        raise ValueError(f"meta keys {sorted(meta)}, not {sorted(META_KEYS)}")


def save_registry(registry: ModelRegistry, out_dir) -> None:
    """Write the registry as out_dir/manifest.json, its only file; the format
    version, the fit settings and the class count are saved once each. Meta
    keys other than META_KEYS (a hand-built registry's) raise ValueError."""
    _check_meta_keys(registry.meta)
    entries = []
    for e in registry.entries:
        cap = {"rate_matrix": encode_array(e.cap.rates)}
        if isinstance(e.cap.quantifier, ClassDensities):
            cap["support"] = [encode_array(S) for S in e.cap.quantifier.support]
        entries.append({"model_id": e.model_id, "val_accuracy": e.val_accuracy,
                        "model": model_to_record(e.model), "cap": cap})
    write_json(out_dir, "manifest.json", {
        "format_version": FORMAT_VERSION, "meta": registry.meta,
        "warnings": registry.warnings, "entries": entries})


def load_registry(out_dir) -> ModelRegistry:
    """Read a registry that :func:`save_registry` wrote, building every
    predictor under `meta`'s quantifier and bandwidth, and their stack under
    its solver weight. A document of another format version (so any saved
    before version 2), with missing or mistyped keys, meta keys other than
    META_KEYS, warnings that are not a list of strings, a bad solver weight, no
    entries, an unknown quantifier or entries that do not fit it, model arrays
    that do not fit each other or the registry's class count, a rate matrix or
    KDE supports of another class count, models of different feature counts, an
    array of a dtype that :func:`classifiers.encode_array` does not write, a
    model record with another family's parameters, a model id that is not an
    int or a validation accuracy that is not a number in [0, 1], or that is not
    JSON, raises a ValueError that says to retrain it."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        text = fh.read()
    try:
        manifest = json.loads(text)   # a JSONDecodeError is a ValueError
        if manifest["format_version"] != FORMAT_VERSION:
            raise ValueError(f"format version {manifest['format_version']!r}")
        meta, warnings = manifest["meta"], manifest["warnings"]
        _check_meta_keys(meta)
        if type(warnings) is not list or {type(w) for w in warnings} - {str}:
            raise ValueError(f"warnings {warnings!r}: not a list of strings")
        n_classes = meta["n_classes"]
        quantifier = QUANTIFIERS[meta["quantifier"]]
        entries = []
        for rec in manifest["entries"]:
            model_id, val_accuracy = rec["model_id"], rec["val_accuracy"]
            # the registry sorts by id, and IMS takes an argmax of accuracies
            if type(model_id) is not int:
                raise ValueError(f"model id {model_id!r} is not an int")
            if not (type(val_accuracy) in (int, float)
                    and 0 <= val_accuracy <= 1):
                raise ValueError(f"model {model_id}: validation accuracy "
                                 f"{val_accuracy!r} is not in [0, 1]")
            model, cap = model_from_record(rec["model"], n_classes), rec["cap"]
            # a KDEy-ML record's densities; a CC quantifier takes no fields
            kde = {"support": tuple(decode_array(S) for S in cap["support"]),
                   "bandwidth": meta["bandwidth"]} if "support" in cap else {}
            predictor = CapPredictor(decode_array(cap["rate_matrix"]),
                                     quantifier(**kde))
            if not (len(predictor.rates) == n_classes
                    == len(kde.get("support", predictor.rates))):
                raise ValueError(f"model {model_id}: rate matrix or KDE "
                                 f"supports not of {n_classes} classes")
            entries.append(RegistryEntry(model_id, model, val_accuracy,
                                         predictor))
        features = sorted({e.model.n_features for e in entries})
        if len(features) > 1:
            raise ValueError(f"models take {features} features, not one count")
        registry = ModelRegistry(entries, warnings, meta)
        registry.caps   # so that a bad saved weight fails here
        return registry
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{out_dir} does not hold a registry in the current format "
            f"({type(exc).__name__}: {exc}); retrain it with `shiftselect "
            "train`") from exc
