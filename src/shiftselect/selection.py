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
goes stale), and a scope's predictors are the rows at its positions
(:meth:`cap.CapStack.take`), taken once per scope
(:meth:`ModelRegistry.scope_stack`). TMS predicts the accuracy of every
in-scope model on the bag in one batched pass (:func:`cap.predict_batch`).
It accepts the bag's per-model posteriors and quantifier rows precomputed,
stacked along a model axis aligned with ``registry.entries``; without them
it computes both from the bag's features. No function here takes labels: the
oracle, an evaluation upper bound, is the argmax of a models × bags matrix
of true accuracies in the harness (:mod:`evalcli`).

A registry is saved as one document, ``manifest.json``: its meta, its
training warnings, and per entry the model id, the validation accuracy, the
model record (:func:`classifiers.model_to_record`) and the accuracy-predictor
record (rate matrix, quantifier and solver weight).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataspace import LabelledSet, _frozen
from .classifiers import (HyperParams, TrainedModel, TrainingError, build_grid,
                          decode_array, default_model, encode_array,
                          model_from_record, model_to_record,
                          predict_posteriors_batch, train_grid)
from .quantifiers import QUANTIFIERS, ClassDensities
from .cap import (CapPredictor, CapStack, RateMatrix, fit_cap, predict_batch,
                  stack_caps)


@dataclass(frozen=True)
class RegistryEntry:
    model_id: int
    family: str
    hyperparams: HyperParams
    model: TrainedModel
    val_accuracy: float
    cap: CapPredictor


@dataclass(frozen=True)
class ModelRegistry:
    """Trained entries, held as a tuple sorted by model id; a repeated id
    raises ValueError."""
    entries: tuple
    warnings: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    # wall seconds of each family's train_grid call, and the processes it
    # ran in; not saved
    train_s: dict = field(default_factory=dict)
    train_workers: dict = field(default_factory=dict)

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
                              if scope == "All" or e.family == scope],
                             dtype=int)
        if not positions.size:
            raise ValueError(f"no models in scope {scope!r}")
        return positions

    @cached_property
    def caps(self) -> CapStack:
        """Every entry's accuracy predictor, stacked (:func:`cap.stack_caps`)
        on first use; neither saved nor compared."""
        return stack_caps([e.cap for e in self.entries])

    @cached_property
    def _scopes(self) -> dict:
        return {}

    def scope_stack(self, scope) -> tuple:
        """The scope's :meth:`scope_positions` and the predictors at them
        (``caps.take``), resolved on the scope's first use and kept."""
        if scope not in self._scopes:
            positions = self.scope_positions(scope)
            self._scopes[scope] = _frozen(positions), self.caps.take(positions)
        return self._scopes[scope]


# each solver flag of a SelectionOutcome, and the solver it names
SOLVER_FLAGS = {"nonconverged": "accuracy solver",
                "em_nonconverged": "mixture solver"}


@dataclass
class SelectionOutcome:
    strategy: str
    model_id: int
    predicted_labels: np.ndarray
    estimated_accuracy: float
    # ids of models whose accuracy solver / mixture solver stopped early
    nonconverged: tuple = ()
    em_nonconverged: tuple = ()

    @property
    def warnings(self) -> tuple:
        """One line per model whose accuracy solver or mixture solver
        stopped early on this bag."""
        return tuple(f"model {mid}: {what} did not converge"
                     for name, what in SOLVER_FLAGS.items()
                     for mid in getattr(self, name))


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
    registry. Each family's training time is kept in `train_s`, and the
    number of processes it trained in in `train_workers`.
    """
    n_classes = Ltr.n_classes
    trained, warnings, train_s, train_workers = [], [], {}, {}
    model_id = 0
    for family in families:
        grid = build_grid(family, n_classes)
        ids = range(model_id, model_id + len(grid))
        start = time.perf_counter()
        results = train_grid(family, grid, Ltr,
                             [_entry_seed(seed, i) for i in ids],
                             workers=train_workers)
        train_s[family] = time.perf_counter() - start
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
                cap = fit_cap(P, Lva, quantifier_kind=quantifier_kind,
                              bandwidth=bandwidth, weight=cap_weight,
                              smoothing=smoothing)
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
    registry = ModelRegistry(entries, warnings, meta, train_s, train_workers)
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


def tms_select(registry: ModelRegistry, scope, bag, posteriors=None,
               rows=None) -> SelectionOutcome:
    """Pick the model with the highest predicted accuracy on this bag and
    label the bag with it.

    `posteriors` may supply the bag's posterior rows under every registry
    entry's model, shape (len(registry.entries), m, n), and `rows` the
    matching quantifier rows (:meth:`cap.CapStack.rows` of
    ``registry.caps``); the evaluation harness slices both from test-set
    caches. Without them the in-scope models' posteriors and rows are
    computed from the bag's features; an empty bag raises DataError.
    """
    positions, caps = registry.scope_stack(scope)
    entries = [registry.entries[i] for i in positions]
    if posteriors is None:
        P = predict_posteriors_batch([e.model for e in entries], bag.features)
    else:
        P = np.asarray(posteriors)[positions]
    rows = caps.rows(P) if rows is None else np.asarray(rows)[positions]
    batch = predict_batch(caps, P, rows)
    best = best_position(batch.accuracy,
                         f"scope {scope!r} on a bag of {bag.size} instances")
    nonconverged, em_nonconverged = (
        tuple(entries[i].model_id for i in np.flatnonzero(~flags))
        for flags in (batch.converged, batch.em_converged))
    return SelectionOutcome(
        strategy=f"TMS-{scope}",
        model_id=entries[best].model_id,
        predicted_labels=np.argmax(P[best], axis=1),
        estimated_accuracy=float(batch.accuracy[best]),
        nonconverged=nonconverged,
        em_nonconverged=em_nonconverged)


def default_select(registry: ModelRegistry, family: str) -> int:
    """Id of the registry entry holding the family's default configuration."""
    target = default_model(family)
    for e in registry.entries:
        if e.family == family and e.hyperparams == target:
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


def save_registry(registry: ModelRegistry, out_dir) -> None:
    """Write the registry as out_dir/manifest.json, its only file."""
    entries = []
    for e in registry.entries:
        cap = {
            "rate_matrix": encode_array(e.cap.rates.m),
            "quantifier_kind": e.cap.quantifier.kind,
            "weight": e.cap.weight,
        }
        q = e.cap.quantifier
        if isinstance(q, ClassDensities):
            cap["bandwidth"] = q.bandwidth
            cap["support"] = [encode_array(S) for S in q.support]
        entries.append({"model_id": e.model_id, "val_accuracy": e.val_accuracy,
                        "model": model_to_record(e.model), "cap": cap})
    write_json(out_dir, "manifest.json", {"meta": registry.meta,
                                          "warnings": registry.warnings,
                                          "entries": entries})


def load_registry(out_dir) -> ModelRegistry:
    """Read a registry that :func:`save_registry` wrote. A manifest in an
    older layout, with missing or mistyped keys, whose entries mix quantifier
    kinds or hold a model or rate matrix of another class count than the
    registry's, or that is not JSON, raises a ValueError that says to retrain
    it."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        text = fh.read()
    try:
        manifest = json.loads(text)   # a JSONDecodeError is a ValueError
        n_classes = manifest["meta"]["n_classes"]
        entries = []
        for rec in manifest["entries"]:
            model, cap = model_from_record(rec["model"]), rec["cap"]
            # a KDEy-ML record's densities; a CC quantifier takes no fields
            kde = {"support": tuple(decode_array(S) for S in cap["support"]),
                   "bandwidth": cap["bandwidth"],
                   "n_classes": model.n_classes} if "support" in cap else {}
            predictor = CapPredictor(
                RateMatrix(decode_array(cap["rate_matrix"])),
                QUANTIFIERS[cap["quantifier_kind"]](**kde),
                weight=cap["weight"])
            if not model.n_classes == predictor.rates.n_classes == n_classes:
                raise ValueError(f"model {rec['model_id']} or its rate matrix "
                                 f"does not have the registry's {n_classes} "
                                 "classes")
            entries.append(RegistryEntry(
                rec["model_id"], model.family, model.hyperparams, model,
                rec["val_accuracy"], predictor))
        kinds = {e.cap.quantifier.kind for e in entries}
        if len(kinds) > 1:
            raise ValueError(f"entries mix quantifier kinds {sorted(kinds)}")
        return ModelRegistry(entries, manifest["warnings"], manifest["meta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{out_dir} does not hold a registry in the current format "
            f"({type(exc).__name__}: {exc}); retrain it with `shiftselect "
            "train`") from exc
