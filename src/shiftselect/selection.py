"""Model-selection strategies over a shared registry of trained classifiers.

* inductive (IMS): pick the model with the best accuracy on labelled
  validation data, once, and apply it to every bag;
* transductive (TMS): per bag, pick the model whose *predicted* accuracy on
  that specific bag is highest, and return its labels for the bag;
* oracle: per bag, the model with the highest true accuracy (upper bound);
* defaults: the fixed default configuration of each family.

IMS is bag-independent by construction; TMS may pick a different model for
every bag. TMS predicts the accuracy of every in-scope model on the bag in one
batched pass (:func:`cap.predict_batch`) and takes the argmax of that vector;
the oracle takes the argmax of the true accuracies. Both accept the bag's
per-model posteriors (and, for TMS, the quantifier rows that
:func:`quantifiers.estimate_batch` reduces) precomputed, stacked along a model
axis aligned with ``registry.entries``; without them they compute them from
the bag's features. A NaN estimate never wins, and ties always break toward
the lowest model id.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .dataspace import LabelledSet
from .classifiers import (HyperParams, TrainedModel, TrainingError, build_grid,
                          decode_array, default_model, encode_array,
                          hyperparams_from_dict, hyperparams_to_dict,
                          load_model, predict_posteriors_batch, save_model,
                          train_grid)
from .quantifiers import QUANTIFIERS, ClassDensities
from .cap import CapPredictor, RateMatrix, fit_cap, predict_batch


@dataclass(frozen=True)
class RegistryEntry:
    model_id: int
    family: str
    hyperparams: HyperParams
    model: TrainedModel
    val_accuracy: float
    cap: CapPredictor


@dataclass
class ModelRegistry:
    entries: list
    warnings: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.entries)

    def entry(self, model_id: int) -> RegistryEntry:
        for e in self.entries:
            if e.model_id == model_id:
                return e
        raise KeyError(f"no model with id {model_id}")

    def in_scope(self, scope) -> list:
        return [self.entries[i] for i in self.scope_positions(scope)]

    def scope_positions(self, scope) -> list:
        """Positions in `entries` of the models in scope."""
        return [i for i, e in enumerate(self.entries)
                if scope in (None, "All") or e.family == scope]


@dataclass
class SelectionOutcome:
    strategy: str
    model_id: int
    predicted_labels: np.ndarray = None
    estimated_accuracy: float = None
    true_accuracy: float = None
    warnings: tuple = ()
    # ids of models whose accuracy solver / mixture solver stopped early
    nonconverged: tuple = ()
    em_nonconverged: tuple = ()


def _entry_seed(seed: int, model_id: int) -> int:
    return int(np.random.SeedSequence([seed, model_id]).generate_state(1)[0])


def fingerprint(*arrays) -> str:
    """First 12 hex digits of the sha256 over the arrays' raw bytes."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()[:12]


def build_registry(families, Ltr: LabelledSet, Lva: LabelledSet,
                   quantifier_kind: str = "KDEyML", seed: int = 0,
                   bandwidth: float = 0.1, cap_weight: float = 1.0,
                   smoothing: float = 0.0, run_id=None,
                   out_dir=None) -> ModelRegistry:
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
    accuracy, rate matrix and quantifier. Pass `out_dir` to persist the
    registry.
    """
    n_classes = Ltr.n_classes
    trained, warnings = [], []
    model_id = 0
    for family in families:
        grid = build_grid(family, n_classes)
        ids = range(model_id, model_id + len(grid))
        results = train_grid(family, grid, Ltr,
                             [_entry_seed(seed, i) for i in ids])
        for i, hp, result in zip(ids, grid, results):
            if isinstance(result, TrainingError):
                warnings.append(f"model {i} ({hp.label()}) failed: {result}")
            else:
                trained.append((i, family, hp, result))
        model_id += len(grid)
    entries = []
    if trained:
        posteriors = predict_posteriors_batch([t[-1] for t in trained], Lva.X)
        for (model_id, family, hp, model), P in zip(trained, posteriors):
            val_acc = float((np.argmax(P, axis=1) == Lva.y).mean())
            try:
                cap = fit_cap(model, Lva, quantifier_kind=quantifier_kind,
                              bandwidth=bandwidth, weight=cap_weight,
                              smoothing=smoothing, posteriors=P)
            except ValueError as exc:   # DataError and LinAlgError among them
                warnings.append(f"model {model_id} ({hp.label()}) failed: {exc}")
                continue
            entries.append(RegistryEntry(model_id, family, hp, model,
                                         val_acc, cap))
    meta = {
        "run_id": run_id,
        "seed": seed,
        "families": list(families),
        "grid_sizes": {fam: len(build_grid(fam, n_classes)) for fam in families},
        "quantifier": quantifier_kind,
        "bandwidth": bandwidth,
        "cap_weight": cap_weight,
        "n_classes": n_classes,
        "data_fingerprint": fingerprint(Ltr.X, Ltr.y, Lva.X, Lva.y),
    }
    registry = ModelRegistry(entries, warnings, meta)
    if out_dir is not None:
        save_registry(registry, out_dir)
    return registry


def _best(values, entries, where: str) -> int:
    """Position of the highest value; NaN never wins, ties go to the lowest
    model id. `where` names the scope (and bag) for the error raised when
    every value is NaN."""
    values = np.asarray(values, dtype=float)
    valid = ~np.isnan(values)
    if not valid.any():
        raise ValueError(f"every accuracy in {where} is NaN")
    ties = np.flatnonzero(values == values[valid].max())
    return min(ties, key=lambda i: entries[i].model_id)


def _scope_name(scope) -> str:
    return scope if scope not in (None, "All") else "All"


def ims_select(registry: ModelRegistry, scope=None) -> int:
    """Id of the in-scope model with the best validation accuracy."""
    entries = registry.in_scope(scope)
    if not entries:
        raise ValueError(f"no models in scope {scope!r}")
    best = _best([e.val_accuracy for e in entries], entries,
                 f"scope {scope!r}")
    return entries[best].model_id


def _scope_rows(registry: ModelRegistry, scope, bag, posteriors):
    """In-scope entries, their positions, and their posterior rows for the
    bag, shape (k, m, n): sliced from `posteriors` (stacked over
    registry.entries) or computed from the bag's features."""
    positions = registry.scope_positions(scope)
    if not positions:
        raise ValueError(f"no models in scope {scope!r}")
    if bag.size == 0:
        raise ValueError("empty bag")
    entries = [registry.entries[i] for i in positions]
    if posteriors is None:
        posteriors = predict_posteriors_batch([e.model for e in entries],
                                              bag.features)
    else:
        posteriors = np.asarray(posteriors)[positions]
    return entries, positions, posteriors


def tms_select(registry: ModelRegistry, scope, bag, posteriors=None,
               densities=None) -> SelectionOutcome:
    """Pick the model with the highest predicted accuracy on this bag and
    label the bag with it.

    `posteriors` may supply the bag's posterior rows under every registry
    entry's model, shape (len(registry.entries), m, n), and `densities` the
    matching quantifier rows (``q.rows(...)``: the KDE class log densities for
    KDEy-ML); the evaluation harness slices both from test-set caches.
    """
    entries, positions, P = _scope_rows(registry, scope, bag, posteriors)
    rows = None if densities is None else np.asarray(densities)[positions]
    batch = predict_batch([e.cap for e in entries], P, rows)
    best = _best(batch.accuracy, entries,
                 f"scope {scope!r} on a bag of {bag.size} instances")
    nonconverged, em_nonconverged = (
        tuple(e.model_id for e, ok in zip(entries, flags) if not ok)
        for flags in (batch.converged, batch.em_converged))
    return SelectionOutcome(
        strategy=f"TMS-{_scope_name(scope)}",
        model_id=entries[best].model_id,
        predicted_labels=np.argmax(P[best], axis=1),
        estimated_accuracy=float(batch.accuracy[best]),
        warnings=tuple(f"model {mid}: {what} did not converge"
                       for what, ids in (("accuracy solver", nonconverged),
                                         ("mixture solver", em_nonconverged))
                       for mid in ids),
        nonconverged=nonconverged,
        em_nonconverged=em_nonconverged)


def oracle_select(registry: ModelRegistry, scope, bag, true_labels,
                  posteriors=None) -> SelectionOutcome:
    """Pick the model with the highest *true* accuracy on the bag (requires
    the evaluation-only label view). `posteriors` is as for
    :func:`tms_select`."""
    entries, _, P = _scope_rows(registry, scope, bag, posteriors)
    labels = np.argmax(P, axis=2)
    accuracy = (labels == np.asarray(true_labels)).mean(axis=1)
    best = _best(accuracy, entries,
                 f"scope {scope!r} on a bag of {bag.size} instances")
    scope_name = _scope_name(scope)
    return SelectionOutcome(strategy=f"oracle-{scope_name}" if scope_name != "All" else "oracle",
                            model_id=entries[best].model_id,
                            predicted_labels=labels[best],
                            true_accuracy=float(accuracy[best]))


def default_select(registry: ModelRegistry, family: str) -> int:
    """Id of the registry entry holding the family's default configuration."""
    target = default_model(family)
    for e in registry.entries:
        if e.family == family and e.hyperparams == target:
            return e.model_id
    raise ValueError(f"default {family} configuration not in registry")


# ---------------------------------------------------------------------------
# Persistence: manifest + one model record + one accuracy-predictor sidecar
# per entry
# ---------------------------------------------------------------------------

def write_manifest(out_dir, manifest: dict) -> None:
    """Write `manifest` as out_dir/manifest.json (sorted keys, one-space
    indent), creating the directory if needed."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def save_registry(registry: ModelRegistry, out_dir) -> None:
    write_manifest(out_dir, {
        "meta": registry.meta,
        "warnings": registry.warnings,
        "entries": [
            {
                "model_id": e.model_id,
                "family": e.family,
                "hyperparams": hyperparams_to_dict(e.hyperparams),
                "val_accuracy": e.val_accuracy,
            }
            for e in registry.entries
        ],
    })
    for e in registry.entries:
        save_model(e.model, os.path.join(out_dir, f"model_{e.model_id:04d}.json"))
        cap = e.cap
        sidecar = {
            "rate_matrix": encode_array(cap.rates.m),
            "quantifier_kind": cap.quantifier.kind,
            "weight": cap.weight,
            "solver_tol": cap.solver_tol,
            "solver_max_iter": cap.solver_max_iter,
        }
        densities = getattr(cap.quantifier, "densities", None)
        if densities is not None:
            sidecar["bandwidth"] = densities.bandwidth
            sidecar["support"] = [encode_array(S) for S in densities.support]
        with open(os.path.join(out_dir, f"cap_{e.model_id:04d}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(sidecar, fh)


def load_registry(out_dir) -> ModelRegistry:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    entries = []
    for rec in manifest["entries"]:
        model_id = rec["model_id"]
        model = load_model(os.path.join(out_dir, f"model_{model_id:04d}.json"))
        with open(os.path.join(out_dir, f"cap_{model_id:04d}.json"),
                  encoding="utf-8") as fh:
            sidecar = json.load(fh)
        rates = RateMatrix(decode_array(sidecar["rate_matrix"]))
        make_quantifier = QUANTIFIERS[sidecar["quantifier_kind"]]
        if "support" in sidecar:
            support = tuple(decode_array(S) for S in sidecar["support"])
            densities = ClassDensities(support, sidecar["bandwidth"],
                                       model.n_classes)
            quantifier = make_quantifier(densities)
        else:
            quantifier = make_quantifier()
        cap = CapPredictor(rates, quantifier, weight=sidecar["weight"],
                           solver_tol=sidecar["solver_tol"],
                           solver_max_iter=sidecar["solver_max_iter"])
        entries.append(RegistryEntry(
            model_id, rec["family"], hyperparams_from_dict(rec["hyperparams"]),
            model, rec["val_accuracy"], cap))
    return ModelRegistry(entries, manifest.get("warnings", []),
                         manifest.get("meta", {}))
