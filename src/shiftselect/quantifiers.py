"""Class-prevalence estimation on unlabelled bags.

Two quantifier types, each fed by the posterior outputs of one trained
classifier:

* :class:`CCQuantifier` (classify-and-count): the empirical distribution of
  predicted labels;
* :class:`KDEyMLQuantifier` (KDEy-ML): per-class Gaussian KDEs fitted on the
  posterior vectors of validation instances, with mixture weights chosen to
  maximize the likelihood of the bag's posteriors via EM (multiplicative
  updates).

Model selection estimates every model's prevalence on one bag at once, so each
type splits its estimate in two: ``rows(posteriors)`` gives the per-instance
rows it reduces (the KDE class densities for KDEy-ML, the posteriors
themselves for CC), and ``reduce(rows)`` turns a ``(k, m, n)`` stack of them
into ``k`` prevalences at once (batched EM, or label counts). Rows depend on
the instances only, so a caller that labels many bags drawn from one test set
evaluates them once per model over the whole set and slices out each bag.
:func:`estimate_batch` runs this for a list of quantifiers, and
:func:`em_weights_batch` is the one EM implementation; one quantifier or one
density matrix is the k=1 case of the same calls.

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

from .dataspace import DataError, LabelledSet
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
    """Classify-and-count over the posteriors of the classifier that feeds it."""

    kind: ClassVar[str] = "CC"

    def rows(self, posteriors: np.ndarray) -> np.ndarray:
        return posteriors

    @staticmethod
    def reduce(rows: np.ndarray):
        """(prevalences (k, n), floored (k,)) from a (k, m, n) posterior stack."""
        return (label_shares(np.argmax(rows, axis=2), rows.shape[2]),
                np.zeros(rows.shape[0], dtype=bool))


@dataclass(frozen=True)
class KDEyMLQuantifier:
    """KDE mixture over the posteriors of the classifier that feeds it."""

    densities: ClassDensities
    kind: ClassVar[str] = "KDEyML"

    def rows(self, posteriors: np.ndarray) -> np.ndarray:
        return self.densities.evaluate(posteriors)

    @staticmethod
    def reduce(rows: np.ndarray):
        """(prevalences (k, n), floored (k,)) from a (k, m, n) density stack."""
        alpha, _, floored, _ = em_weights_batch(rows)
        return alpha, floored


QUANTIFIERS = {q.kind: q for q in (KDEyMLQuantifier, CCQuantifier)}


def fit_quantifier(kind: str, model: TrainedModel, validation: LabelledSet,
                   bandwidth: float, posteriors=None):
    """Fit the quantifier named `kind` (a key of QUANTIFIERS) for `model`;
    `posteriors` is as for :func:`fit_kdey`."""
    if kind == CCQuantifier.kind:
        return CCQuantifier()
    if kind == KDEyMLQuantifier.kind:
        return fit_kdey(model, validation, bandwidth=bandwidth,
                        posteriors=posteriors)
    raise ValueError(f"unknown quantifier kind {kind!r}")


def fit_kdey(model: TrainedModel, validation: LabelledSet,
             bandwidth: float = DEFAULT_BANDWIDTH,
             posteriors=None) -> KDEyMLQuantifier:
    """Fit per-class KDEs over the model's posteriors on validation data;
    `posteriors` optionally supplies those rows precomputed."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if posteriors is None:
        posteriors = model.predict_posteriors(validation.X)
    y = validation.y
    support = []
    for j in range(validation.n_classes):
        S = posteriors[y == j]
        if S.shape[0] == 0:
            raise DataError(f"class {j} missing from validation data")
        support.append(S)
    densities = ClassDensities(tuple(support), float(bandwidth), validation.n_classes)
    return KDEyMLQuantifier(densities)


def em_weights_batch(F: np.ndarray, tol: float = EM_TOL,
                     max_iter: int = EM_MAX_ITER, loglik: bool = False):
    """Maximize sum_x log sum_j a_j F[i, x, j] over the simplex by EM, for
    each of the k density matrices of the (k, m, n) stack F at once.

    Each problem starts uniform and stops on its own when the L1 change of its
    weights falls below `tol`, or after `max_iter` iterations; a stopped
    problem leaves the active set, so the others run on without it and every
    problem gets the iterates a single-matrix run would give. Densities are
    floored at 1e-300 before use.

    Returns (alpha (k, n), iterations (k,), floored (k,), trace): `floored`
    says whether the floor was active for that problem, and `trace` is None
    unless `loglik` is set, when it holds one log-likelihood list per problem
    (one value per iterate, the start included).
    """
    F = np.asarray(F, dtype=float)
    floored = (F < DENSITY_FLOOR).any(axis=(1, 2))
    F = np.maximum(F, DENSITY_FLOOR)
    k, _, n = F.shape
    alpha = np.full((k, n), 1.0 / n)
    iterations = np.full(k, max(max_iter, 0))
    trace = [[] for _ in range(k)] if loglik else None
    active, Fa, a = np.arange(k), F, alpha.copy()
    for it in range(1, max_iter + 1):
        mix = np.matmul(Fa, a[:, :, None])[:, :, 0]
        if loglik:
            for i, value in zip(active, np.log(mix).sum(axis=1)):
                trace[i].append(float(value))
        new = (Fa * (a[:, None, :] / mix[:, :, None])).mean(axis=1)
        new /= new.sum(axis=1, keepdims=True)
        done = np.abs(new - a).sum(axis=1) < tol
        a = new
        if done.any():
            alpha[active[done]] = a[done]
            iterations[active[done]] = it
            active, Fa, a = active[~done], Fa[~done], a[~done]
            if not active.size:
                break
    alpha[active] = a
    if loglik:
        final = np.log(np.matmul(F, alpha[:, :, None])[:, :, 0]).sum(axis=1)
        for i, value in enumerate(final):
            trace[i].append(float(value))
    return alpha, iterations, floored, trace


def estimate_batch(quantifiers, posteriors: np.ndarray, rows=None):
    """Prevalence estimates of k quantifiers on one bag, as (prevalences
    (k, n), floored (k,)).

    `posteriors` stacks each quantifier's model posteriors for the bag's
    instances, shape (k, m, n). `rows` optionally stacks the matching
    ``q.rows(...)`` (the caller may have sliced them from a test-set cache);
    without it they are computed here. Quantifiers of one type are reduced
    together.
    """
    k, m, n = posteriors.shape
    if m == 0:
        raise DataError("empty bag")
    qhat = np.empty((k, n))
    floored = np.zeros(k, dtype=bool)
    groups = {}
    for i, q in enumerate(quantifiers):
        groups.setdefault(type(q), []).append(i)
    for kind, idx in groups.items():
        stack = rows[idx] if rows is not None else \
            np.stack([quantifiers[i].rows(posteriors[i]) for i in idx])
        qhat[idx], floored[idx] = kind.reduce(stack)
    return qhat, floored


def label_shares(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Share of each class among the labels along the last axis; shape
    (..., n_classes)."""
    counts = (labels[..., None] == np.arange(n_classes)).sum(axis=-2)
    return counts / labels.shape[-1]
