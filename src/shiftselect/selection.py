"""Model-selection strategies over a shared registry of trained classifiers.

* inductive (IMS): pick the model with the best accuracy on labelled
  validation data, once, and apply it to every bag;
* transductive (TMS): per bag, pick the model whose *predicted* accuracy on
  that specific bag is highest, and return its labels for the bag;
* oracle: per bag, the model with the highest true accuracy (upper bound);
* defaults: the fixed default configuration of each family.

IMS is bag-independent by construction; TMS may pick a different model for
every bag. Ties always break toward the lowest model id.
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
                          load_model, save_model, train)
from .quantifiers import QUANTIFIERS, ClassDensities
from .cap import CapPredictor, RateMatrix, cap_predict, fit_cap


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
        if scope is None or scope == "All":
            return list(self.entries)
        return [e for e in self.entries if e.family == scope]


@dataclass
class SelectionOutcome:
    strategy: str
    model_id: int
    predicted_labels: np.ndarray = None
    estimated_accuracy: float = None
    true_accuracy: float = None
    warnings: tuple = ()


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

    A failing configuration is recorded as a warning and skipped; the rest of
    the run continues. Model ids follow grid enumeration order and stay
    stable even when entries fail. Pass `out_dir` to persist the registry.
    """
    n_classes = Ltr.n_classes
    entries, warnings = [], []
    model_id = 0
    for family in families:
        for hp in build_grid(family, n_classes):
            try:
                model = train(family, hp, Ltr, _entry_seed(seed, model_id))
                val_acc = float((model.predict_labels(Lva.X) == Lva.y).mean())
                cap = fit_cap(model, Lva, quantifier_kind=quantifier_kind,
                              bandwidth=bandwidth, weight=cap_weight,
                              smoothing=smoothing)
                entries.append(RegistryEntry(model_id, family, hp, model,
                                             val_acc, cap))
            except TrainingError as exc:
                warnings.append(f"model {model_id} ({hp.label()}) failed: {exc}")
            model_id += 1
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


def ims_select(registry: ModelRegistry, scope=None) -> int:
    """Id of the in-scope model with the best validation accuracy."""
    entries = registry.in_scope(scope)
    if not entries:
        raise ValueError(f"no models in scope {scope!r}")
    best = entries[0]
    for e in entries[1:]:
        if e.val_accuracy > best.val_accuracy:
            best = e
    return best.model_id


def tms_select(registry: ModelRegistry, scope, bag,
               posterior_fn=None) -> SelectionOutcome:
    """Pick the model with the highest predicted accuracy on this bag and
    label the bag with it.

    `posterior_fn(entry)` may supply precomputed posterior rows for the bag
    under each entry's model (the evaluation harness uses this to reuse
    test-set predictions across bags).
    """
    entries = registry.in_scope(scope)
    if not entries:
        raise ValueError(f"no models in scope {scope!r}")
    if bag.size == 0:
        raise ValueError("empty bag")

    warnings = []
    best_entry, best_acc, best_posteriors = None, -np.inf, None
    for e in entries:
        posteriors = posterior_fn(e) if posterior_fn is not None else \
            e.model.predict_posteriors(bag.features)
        pred = cap_predict(e.cap, bag, posteriors=posteriors)
        if not pred.converged:
            warnings.append(f"model {e.model_id}: accuracy solver did not converge")
        if pred.accuracy > best_acc:
            best_entry, best_acc, best_posteriors = e, pred.accuracy, posteriors
    labels = np.argmax(best_posteriors, axis=1)
    scope_name = scope if scope not in (None, "All") else "All"
    return SelectionOutcome(strategy=f"TMS-{scope_name}",
                            model_id=best_entry.model_id,
                            predicted_labels=labels,
                            estimated_accuracy=float(best_acc),
                            warnings=tuple(warnings))


def oracle_select(registry: ModelRegistry, scope, bag, true_labels,
                  posterior_fn=None) -> SelectionOutcome:
    """Pick the model with the highest *true* accuracy on the bag (requires
    the evaluation-only label view)."""
    entries = registry.in_scope(scope)
    if not entries:
        raise ValueError(f"no models in scope {scope!r}")
    true_labels = np.asarray(true_labels)
    best_entry, best_acc, best_labels = None, -np.inf, None
    for e in entries:
        posteriors = posterior_fn(e) if posterior_fn is not None else \
            e.model.predict_posteriors(bag.features)
        labels = np.argmax(posteriors, axis=1)
        acc = float((labels == true_labels).mean())
        if acc > best_acc:
            best_entry, best_acc, best_labels = e, acc, labels
    scope_name = scope if scope not in (None, "All") else "All"
    return SelectionOutcome(strategy=f"oracle-{scope_name}" if scope_name != "All" else "oracle",
                            model_id=best_entry.model_id,
                            predicted_labels=best_labels,
                            true_accuracy=best_acc)


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
            quantifier = make_quantifier(model, densities)
        else:
            quantifier = make_quantifier(model)
        cap = CapPredictor(rates, quantifier, model, weight=sidecar["weight"],
                           solver_tol=sidecar["solver_tol"],
                           solver_max_iter=sidecar["solver_max_iter"])
        entries.append(RegistryEntry(
            model_id, rec["family"], hyperparams_from_dict(rec["hyperparams"]),
            model, rec["val_accuracy"], cap))
    return ModelRegistry(entries, manifest.get("warnings", []),
                         manifest.get("meta", {}))
