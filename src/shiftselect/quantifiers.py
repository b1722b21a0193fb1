"""Class-prevalence estimation on unlabelled bags.

Two quantifier types, each bound to the trained classifier whose posterior
outputs feed it and each answering ``estimate(bag, posteriors=None)``:

* :class:`CCQuantifier` (classify-and-count): the empirical distribution of
  predicted labels;
* :class:`KDEyMLQuantifier` (KDEy-ML): per-class Gaussian KDEs fitted on the
  posterior vectors of validation instances, with mixture weights chosen to
  maximize the likelihood of the bag's posteriors via EM (multiplicative
  updates). :func:`kdey_ml_estimate` returns the prevalence; callers that want
  the EM diagnostics call :func:`em_mixture_weights` on
  ``q.densities.evaluate(posteriors)`` directly.

:data:`QUANTIFIERS` maps each kind name to its type and is the only list of
valid kinds; :func:`fit_quantifier` fits one by name.

The EM objective L(a) = sum_x log sum_j a_j f_j(s(x)) is concave in the
mixture weights, every EM iterate stays on the simplex, and the likelihood is
non-decreasing across iterations, so the updates reach the global optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataspace import DataError, LabelledSet, as_prevalence
from .classifiers import TrainedModel

DENSITY_FLOOR = 1e-300
DEFAULT_BANDWIDTH = 0.1
EM_TOL = 1e-6
EM_MAX_ITER = 1000


@dataclass(frozen=True)
class ClassDensities:
    """Per-class KDE support points (posterior rows) and a shared bandwidth."""

    support: tuple          # one (m_j, n_classes) array per class
    bandwidth: float
    n_classes: int

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if len(self.support) != self.n_classes:
            raise ValueError("one support set per class required")
        for j, S in enumerate(self.support):
            if S.ndim != 2 or S.shape[0] == 0 or S.shape[1] != self.n_classes:
                raise ValueError(f"class {j} has invalid support shape {S.shape}")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Density of each class's KDE at each query row; shape (m, n_classes)."""
        P = np.asarray(points, dtype=float)
        h2 = self.bandwidth ** 2
        d = self.n_classes
        norm = (2.0 * np.pi * h2) ** (-d / 2.0)
        out = np.empty((P.shape[0], d))
        pp = (P * P).sum(axis=1)[:, None]
        for j, S in enumerate(self.support):
            d2 = pp + (S * S).sum(axis=1)[None, :] - 2.0 * P @ S.T
            np.maximum(d2, 0.0, out=d2)
            out[:, j] = norm * np.exp(-d2 / (2.0 * h2)).mean(axis=1)
        return out


@dataclass(frozen=True)
class CCQuantifier:
    """Classify-and-count bound to the classifier that feeds it."""

    model: TrainedModel
    kind: ClassVar[str] = "CC"

    def estimate(self, bag, posteriors=None) -> np.ndarray:
        return classify_and_count(self.model, bag, posteriors=posteriors)


@dataclass(frozen=True)
class KDEyMLQuantifier:
    """KDE mixture over the posteriors of the classifier that feeds it."""

    model: TrainedModel
    densities: ClassDensities
    kind: ClassVar[str] = "KDEyML"

    def estimate(self, bag, posteriors=None) -> np.ndarray:
        return kdey_ml_estimate(self, bag, posteriors=posteriors)


QUANTIFIERS = {q.kind: q for q in (KDEyMLQuantifier, CCQuantifier)}


def fit_quantifier(kind: str, model: TrainedModel, validation: LabelledSet,
                   bandwidth: float):
    """Fit the quantifier named `kind` (a key of QUANTIFIERS) for `model`."""
    if kind == CCQuantifier.kind:
        return fit_cc(model)
    if kind == KDEyMLQuantifier.kind:
        return fit_kdey(model, validation, bandwidth=bandwidth)
    raise ValueError(f"unknown quantifier kind {kind!r}")


def fit_kdey(model: TrainedModel, validation: LabelledSet,
             bandwidth: float = DEFAULT_BANDWIDTH) -> KDEyMLQuantifier:
    """Fit per-class KDEs over the model's posteriors on validation data."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    posteriors = model.predict_posteriors(validation.X)
    y = validation.y
    support = []
    for j in range(validation.n_classes):
        S = posteriors[y == j]
        if S.shape[0] == 0:
            raise DataError(f"class {j} missing from validation data")
        support.append(S)
    densities = ClassDensities(tuple(support), float(bandwidth), validation.n_classes)
    return KDEyMLQuantifier(model, densities)


def fit_cc(model: TrainedModel) -> CCQuantifier:
    return CCQuantifier(model)


def mixture_log_likelihood(F: np.ndarray, alpha: np.ndarray) -> float:
    return float(np.log(F @ alpha).sum())


def em_mixture_weights(F: np.ndarray, tol: float = EM_TOL,
                       max_iter: int = EM_MAX_ITER):
    """Maximize sum_x log sum_j a_j F[x, j] over the simplex by EM.

    Starts uniform; stops when the L1 change falls below `tol` or after
    `max_iter` iterations. Densities are floored at 1e-300 before use; a
    `floored` flag reports whether the floor was ever active.

    Returns (alpha, info) with info holding the log-likelihood trace (one
    value per iterate, the start included), iteration count, and the floor
    flag.
    """
    F = np.asarray(F, dtype=float)
    floored = bool((F < DENSITY_FLOOR).any())
    F = np.maximum(F, DENSITY_FLOOR)
    m, n = F.shape
    alpha = np.full(n, 1.0 / n)
    trace = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mix = F @ alpha
        trace.append(float(np.log(mix).sum()))
        resp = F * (alpha / mix[:, None])
        new_alpha = resp.mean(axis=0)
        new_alpha /= new_alpha.sum()
        delta = np.abs(new_alpha - alpha).sum()
        alpha = new_alpha
        if delta < tol:
            break
    trace.append(mixture_log_likelihood(F, alpha))
    info = {"iterations": iterations, "loglik": trace, "floored": floored}
    return as_prevalence(alpha), info


def kdey_ml_estimate(q: KDEyMLQuantifier, bag, posteriors=None) -> np.ndarray:
    """Maximum-likelihood prevalence of `bag` under the fitted KDE mixture.

    `posteriors` optionally supplies precomputed posterior rows for the bag's
    instances (they must come from the same model the quantifier holds).
    """
    if posteriors is None:
        posteriors = q.model.predict_posteriors(bag.features)
    if posteriors.shape[0] == 0:
        raise DataError("empty bag")
    alpha, _ = em_mixture_weights(q.densities.evaluate(posteriors))
    return alpha


def classify_and_count(model: TrainedModel, bag, posteriors=None) -> np.ndarray:
    """Empirical distribution of the model's predicted labels over the bag."""
    if posteriors is None:
        labels = model.predict_labels(bag.features)
    else:
        labels = np.argmax(posteriors, axis=1)
    if labels.size == 0:
        raise DataError("empty bag")
    counts = np.bincount(labels, minlength=model.n_classes)
    return as_prevalence(counts / labels.size)
