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
a model's validation posteriors. :func:`stack_caps` stacks k predictors whose
quantifiers share one type into a :class:`CapStack` under one weight, and
:meth:`CapStack.rows` turns the k models' posteriors into the quantifiers'
stacked rows. :func:`predict_batch` then predicts the accuracy of all k on
one bag in one pass: label counts, one ``reduce`` of the rows, then one
batched LEAP solve (:func:`leap_solve_batch`, the active-set Newton steps of
the KDEy-ML mixture solver over a (k, n) stack of thetas, each leaving the
batch once it converges). Every problem has the same tolerance and iteration
cap, SOLVER_TOL and SOLVER_MAX_ITER. One predictor or one problem is the k=1
case of the same calls.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .classifiers import argmax_rows
from .dataspace import DataError, LabelledSet, _frozen, as_prevalence
from .quantifiers import (_newton_direction, _simplex_step, fit_quantifier,
                          label_shares)

SOLVER_TOL = 1e-8
SOLVER_MAX_ITER = 10_000
AUTO_SMOOTHING = 1e-6


def estimate_rate_matrix(posteriors: np.ndarray, validation: LabelledSet,
                         smoothing: float = 0.0) -> np.ndarray:
    """Estimate the conditional rate matrix from a model's posterior rows
    `posteriors` for the validation instances.

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
    pred = np.argmax(posteriors, axis=1)
    joint = np.zeros((n, n))
    np.add.at(joint, (pred, y), 1.0)
    if smoothing == 0.0 and (joint.sum(axis=1) == 0).any():
        smoothing = AUTO_SMOOTHING
    return (joint + smoothing) / (counts[None, :] + n * smoothing)


def leap_solve_batch(stack, rho, qhat, tol: float = SOLVER_TOL,
                     max_iter: int = SOLVER_MAX_ITER):
    """Solve the k LEAP problems of a :class:`CapStack` at once.

    Problem i minimizes ||M_i theta - rho_i||^2 + w * ||theta - qhat_i||^2
    over the simplex (w the stack's weight), a strictly convex quadratic
    with Hessian 2Q, Q = M^T M + w I. From theta = qhat_i, each iteration
    takes the Newton direction d on the active face (see
    quantifiers._newton_direction) and steps to its end or to the simplex
    boundary, pinning the blocking weight to 0, so the method ends at the
    exact optimum. A problem stops when ||d||_1 < tol (converged) or after
    max_iter iterations; with max_iter 0 every problem returns qhat
    unconverged. `rho` and `qhat` are (k, n). A stopped problem leaves the
    active set, so every problem gets the iterates a single-problem run would give.

    Returns (theta (k, n), iterations (k,), converged (k,)).
    """
    k = len(stack)
    b = np.matmul(rho[:, None, :], stack.M)[:, 0, :] \
        + stack.weight * qhat
    theta = np.array(qhat, dtype=float)
    iterations = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    # the active problems' rows of every per-problem array, compacted
    # whenever some problem stops
    idx, x, A, c = np.arange(k), theta, stack.Q, b
    for it in range(1, max_iter + 1):
        # half the negative gradient; theta . g is the KKT multiplier
        g = c - np.matmul(A, x[:, :, None])[:, :, 0]
        d = _newton_direction(A, g, x, (x * g).sum(axis=1, keepdims=True))
        x, _ = _simplex_step(x, d)
        done = np.abs(d).sum(axis=1) < tol
        stop = done | (it >= max_iter)
        if stop.any():
            theta[idx[stop]] = x[stop]
            iterations[idx[stop]] = it
            converged[idx[stop]] = done[stop]
            idx, x, A, c = idx[~stop], x[~stop], A[~stop], c[~stop]
            if not idx.size:
                break
    return theta, iterations, converged


@dataclass(frozen=True)
class CapPredictor:
    """Per-model accuracy estimator: rate matrix (read-only, (n, n), m[i][j] =
    P(predicted=i | true=j), columns on the simplex) plus quantifier, both
    fitted on the same validation data as the model's accuracy reference. The
    quantifier is any object with `rows(posteriors)` and a `reduce(rows)` over
    a stack of them (see :func:`predict_batch`)."""

    rates: np.ndarray
    quantifier: object

    def __post_init__(self):
        M = np.asarray(self.rates, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"rate matrix must be square, got {M.shape}")
        try:
            as_prevalence(M.T, M.shape[0], stacked=True)
        except DataError as exc:
            raise DataError(f"rate matrix columns: {exc}") from exc
        object.__setattr__(self, "rates", _frozen(M.copy()))


def check_weight(weight) -> None:
    """Raise ValueError unless the solver weight is a positive finite number."""
    if not (isinstance(weight, numbers.Real) and 0 < weight < np.inf):
        raise ValueError("weight must be a positive finite number, got "
                         f"{weight!r}")


def fit_cap(posteriors: np.ndarray, validation: LabelledSet,
            quantifier_kind: str = "KDEyML", bandwidth: float = 0.1,
            smoothing: float = 0.0) -> CapPredictor:
    """Fit the rate matrix and the quantifier on the same validation set,
    from a model's posterior rows `posteriors` for its instances."""
    rates = estimate_rate_matrix(posteriors, validation, smoothing=smoothing)
    quantifier = fit_quantifier(quantifier_kind, posteriors, validation,
                                bandwidth=bandwidth)
    return CapPredictor(rates, quantifier)


@dataclass(frozen=True, eq=False)
class CapStack:
    """The solver inputs of k predictors, stacked once by :func:`stack_caps`
    and shared by every bag they predict: the quantifiers (an object array,
    all of one type), the rate matrices M (k, n, n), Q = M^T M + w I, the
    diagonals of M (k, n), and the solver weight w of every problem. Every
    array is read-only."""

    quantifiers: np.ndarray
    M: np.ndarray
    Q: np.ndarray
    diagonal: np.ndarray
    weight: float

    def __len__(self):
        return len(self.M)

    def rows(self, posteriors: np.ndarray) -> np.ndarray:
        """Each quantifier's ``q.rows(...)`` of its model's posterior rows,
        from a (k, m, n) stack of them; shape (k, m, n)."""
        return np.stack([q.rows(P)
                         for q, P in zip(self.quantifiers, posteriors)])


def stack_caps(caps, weight: float) -> CapStack:
    """Stack the accuracy predictors `caps` for :func:`predict_batch` and
    :func:`leap_solve_batch` under one solver `weight` (see check_weight).
    There must be at least one, and their quantifiers must share one type."""
    check_weight(weight)
    quantifiers = np.fromiter((c.quantifier for c in caps), dtype=object)
    types = {type(q) for q in quantifiers}
    if len(types) != 1:
        raise ValueError("need predictors whose quantifiers share one type, "
                         f"got types {sorted(t.__name__ for t in types)}")
    M = np.stack([c.rates for c in caps])
    Q = np.matmul(M.transpose(0, 2, 1), M) + weight * np.eye(M.shape[1])
    return CapStack(*map(_frozen, (
        quantifiers, M, Q, np.diagonal(M, axis1=1, axis2=2).copy())), weight)


@dataclass(frozen=True)
class CapBatch:
    """Accuracy predictions of k predictors on one bag, one row per
    predictor: estimated accuracy, solved theta, the two prevalence views, the
    LEAP solver's iterations and convergence, and the same two counters of
    the quantifier's mixture solver (0 and True for CC)."""

    accuracy: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    qhat: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    em_iterations: np.ndarray
    em_converged: np.ndarray


def predict_batch(stack: CapStack, posteriors: np.ndarray,
                  rows: np.ndarray) -> CapBatch:
    """Predicted accuracy of each stacked predictor's model on one
    (unlabelled) bag.

    `posteriors` stacks each model's posterior rows for the bag, shape
    (k, m, n), and m = 0 raises DataError; `rows` stacks each quantifier's
    rows for them (:meth:`CapStack.rows`).
    """
    if len(posteriors) != len(stack):
        raise ValueError(f"posteriors for {len(posteriors)} models, "
                         f"{len(stack)} predictors")
    if posteriors.shape[1] == 0:
        raise DataError("empty bag")
    n = stack.M.shape[1]
    qhat, em_iterations, em_converged = type(stack.quantifiers[0]).reduce(rows)
    qhat = as_prevalence(qhat, n, stacked=True)
    rho = label_shares(argmax_rows(posteriors), n)
    theta, iterations, converged = leap_solve_batch(stack, rho, qhat)
    # accuracy is the trace of each table c[i][j] = m[i][j] * theta_j
    return CapBatch((stack.diagonal * theta).sum(axis=1), theta, rho, qhat,
                    iterations, converged, em_iterations, em_converged)


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
