"""Classifier accuracy prediction on unlabelled bags under prior probability
shift.

The conditional rates P(predicted=i | true=j) are invariant under this kind of
shift, so they can be estimated once on labelled validation data. For a new
bag, the unknown class distribution theta is recovered by reconciling two
noisy views of it: the distribution of predicted labels rho (tied to theta by
the rate matrix M) and a quantifier's direct estimate qhat. The solver
minimizes ||M theta - rho||^2 + weight * ||theta - qhat||^2 over the simplex,
and the estimated contingency table c[i][j] = m[i][j] * theta_j then yields
any accuracy measure; vanilla accuracy is its trace.

:func:`fit_cap` fits a :class:`CapPredictor` (rate matrix plus quantifier) on
validation data, and :func:`cap_predict` runs the whole per-bag pipeline,
returning a :class:`CapPrediction` that holds the accuracy together with the
solved table, rho and qhat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataspace import DataError, LabelledSet, as_prevalence
from .classifiers import TrainedModel
from .quantifiers import fit_quantifier

SOLVER_TOL = 1e-8
SOLVER_MAX_ITER = 10_000
AUTO_SMOOTHING = 1e-6


@dataclass(frozen=True)
class RateMatrix:
    """Estimated conditional rates m[i][j] = P(predicted=i | true=j); columns
    are points on the simplex."""

    m: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.m, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"rate matrix must be square, got {M.shape}")
        if (M < 0).any():
            raise ValueError("rate matrix has negative entries")
        if not np.allclose(M.sum(axis=0), 1.0, atol=1e-9):
            raise ValueError("rate matrix columns must sum to 1")
        M = M.copy()
        M.flags.writeable = False
        object.__setattr__(self, "m", M)

    @property
    def n_classes(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class ContingencyTable:
    """Estimated joint distribution c[i][j] of (predicted, true) labels on a
    bag; entries are nonnegative and sum to one."""

    c: np.ndarray
    theta: np.ndarray = None
    converged: bool = True
    iterations: int = 0

    def __post_init__(self):
        C = np.asarray(self.c, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValueError(f"contingency table must be square, got {C.shape}")
        if (C < -1e-12).any():
            raise ValueError("contingency table has negative entries")
        if abs(C.sum() - 1.0) > 1e-9:
            raise ValueError(f"contingency table sums to {C.sum()!r}, not 1")
        C = C.copy()
        C.flags.writeable = False
        object.__setattr__(self, "c", C)


def estimate_rate_matrix(model: TrainedModel, validation: LabelledSet,
                         smoothing: float = 0.0) -> RateMatrix:
    """Estimate the conditional rate matrix from validation predictions.

    m[i][j] = (count(pred=i, true=j) + smoothing) / (count(true=j) + n*smoothing).
    With smoothing 0, a class the model never predicts would leave an all-zero
    row (a rank-deficient matrix); in that case smoothing falls back to 1e-6.
    """
    y = validation.y
    n = validation.n_classes
    counts = np.bincount(y, minlength=n)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        raise DataError(f"classes {missing.tolist()} missing from validation data")
    pred = model.predict_labels(validation.X)
    joint = np.zeros((n, n))
    np.add.at(joint, (pred, y), 1.0)
    if smoothing == 0.0 and (joint.sum(axis=1) == 0).any():
        smoothing = AUTO_SMOOTHING
    M = (joint + smoothing) / (counts[None, :] + n * smoothing)
    return RateMatrix(M)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, v.size + 1) > 0)[0][-1]
    tau = (css[rho] - 1.0) / (rho + 1)
    return np.maximum(v - tau, 0.0)


def leap_solve(m: RateMatrix, rho, qhat, weight: float = 1.0,
               tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER) -> ContingencyTable:
    """Estimate the bag's contingency table from the two equation blocks.

    Solves min_theta ||M theta - rho||^2 + weight * ||theta - qhat||^2 over
    the simplex by projected gradient with the step set from the Lipschitz
    bound, stopping when the gradient-map norm drops below `tol`. The table is
    c[i][j] = m[i][j] * theta_j. Non-convergence returns the last iterate with
    `converged=False`.
    """
    if weight <= 0:
        raise ValueError("weight must be positive")
    M = m.m
    rho = as_prevalence(rho, m.n_classes)
    qhat = as_prevalence(qhat, m.n_classes)

    MtM = M.T @ M
    Mtrho = M.T @ rho
    lipschitz = 2.0 * (float(np.linalg.eigvalsh(MtM)[-1]) + weight)
    step = 1.0 / lipschitz

    theta = qhat.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = 2.0 * (MtM @ theta - Mtrho) + 2.0 * weight * (theta - qhat)
        new_theta = project_to_simplex(theta - step * grad)
        gradient_map = np.linalg.norm(theta - new_theta) / step
        theta = new_theta
        if gradient_map < tol:
            converged = True
            break
    table = M * theta[None, :]
    return ContingencyTable(table, theta=theta, converged=converged,
                            iterations=iterations)


def accuracy_from_table(table: ContingencyTable) -> float:
    """Vanilla accuracy: the probability mass where prediction equals truth."""
    return float(np.trace(table.c))


@dataclass(frozen=True)
class CapPrediction:
    accuracy: float
    table: ContingencyTable
    rho: np.ndarray
    qhat: np.ndarray

    @property
    def converged(self) -> bool:
        return self.table.converged


@dataclass(frozen=True)
class CapPredictor:
    """Per-model accuracy estimator: rate matrix plus quantifier, both fitted
    on the same validation data as the model's accuracy reference. The
    quantifier is any object with `estimate(bag, posteriors=None)`."""

    rates: RateMatrix
    quantifier: object
    model: TrainedModel
    weight: float = 1.0
    solver_tol: float = SOLVER_TOL
    solver_max_iter: int = SOLVER_MAX_ITER


def fit_cap(model: TrainedModel, validation: LabelledSet,
            quantifier_kind: str = "KDEyML", bandwidth: float = 0.1,
            smoothing: float = 0.0, weight: float = 1.0) -> CapPredictor:
    """Fit the rate matrix and the quantifier on the same validation set."""
    rates = estimate_rate_matrix(model, validation, smoothing=smoothing)
    quantifier = fit_quantifier(quantifier_kind, model, validation,
                                bandwidth=bandwidth)
    return CapPredictor(rates, quantifier, model, weight=weight)


def cap_predict(psi: CapPredictor, bag, posteriors=None) -> CapPrediction:
    """Predicted accuracy of psi's model on the (unlabelled) bag, with the
    solved contingency table and the two prevalence views behind it."""
    if posteriors is None:
        posteriors = psi.model.predict_posteriors(bag.features)
    if posteriors.shape[0] == 0:
        raise DataError("empty bag")
    pred = np.argmax(posteriors, axis=1)
    rho = as_prevalence(np.bincount(pred, minlength=psi.rates.n_classes) / pred.size)
    qhat = psi.quantifier.estimate(bag, posteriors=posteriors)
    table = leap_solve(psi.rates, rho, qhat, weight=psi.weight,
                       tol=psi.solver_tol, max_iter=psi.solver_max_iter)
    return CapPrediction(accuracy_from_table(table), table, rho, qhat)


def pps_accuracy_identity(tpr: float, tnr: float, p: float, q: float):
    """Binary accuracy under two class priors with shared conditional rates.

    Returns (tpr*p + tnr*(1-p), tpr*q + tnr*(1-q)): the accuracies on the
    labelled-data distribution (positive prior p) and the deployment
    distribution (positive prior q). They coincide for all priors iff
    tpr == tnr, which is why a validation estimate does not transfer under
    prior shift.
    """
    for name, val in (("tpr", tpr), ("tnr", tnr), ("p", p), ("q", q)):
        if not (0.0 <= val <= 1.0):
            raise ValueError(f"{name}={val} outside [0, 1]")
    acc_p = tpr * p + tnr * (1.0 - p)
    acc_q = tpr * q + tnr * (1.0 - q)
    return acc_p, acc_q
