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

:func:`fit_cap` fits a :class:`CapPredictor` (rate matrix plus, under
KDEy-ML, the KDE densities) on a model's validation posteriors, under the
settings :func:`check_fit_settings` checks. Every decision that depends on
the quantifier kind (:data:`QUANTIFIERS`) is made here: the fit, the saved
record (:func:`cap_to_record`, :func:`cap_from_record`), the quantifier rows
and qhat. :func:`stack_caps` stacks k predictors of one quantifier kind into
a :class:`CapStack` under one weight. A bag takes two calls:
:meth:`CapStack.prevalences` turns the quantifier rows of any of the models
(:meth:`CapStack.rows`, one KDE evaluation per distinct posterior row of each
model) into qhat, and :meth:`CapStack.accuracies` solves LEAP from their
predicted labels and a qhat each (:func:`leap_solve_batch`, the active-set
Newton steps of the KDEy-ML mixture solver over a (k, n) stack of thetas,
each leaving the batch once it converges). Every problem has the same
tolerance and iteration cap, SOLVER_TOL and SOLVER_MAX_ITER. One predictor or
one problem is the k=1 case of the same calls.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .classifiers import argmax_rows, decode_array, encode_array
from .dataspace import DataError, LabelledSet, _frozen, as_prevalence
from .quantifiers import (ClassDensities, _newton_direction, _simplex_step,
                          em_weights_batch, fit_kdey)

SOLVER_TOL = 1e-8
SOLVER_MAX_ITER = 10_000
AUTO_SMOOTHING = 1e-6
QUANTIFIERS = ("KDEyML", "CC")      # the quantifier kinds
# a rate matrix whose smallest singular value is below this cannot tell the
# classes apart: M theta = rho holds along a whole line of thetas, and LEAP
# returns about qhat, however arbitrary the model's qhat is
RANK_TOL = 1e-6
ROW_HASH = np.uint64(0x9E3779B97F4A7C15)   # odd, so no column is hashed away


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
    P(predicted=i | true=j), columns on the simplex) plus the KDEy-ML
    densities, or None under CC, both fitted on the same validation data as
    the model's accuracy reference."""

    rates: np.ndarray
    densities: ClassDensities | None

    def __post_init__(self):
        M = np.asarray(self.rates, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"rate matrix must be square, got {M.shape}")
        try:
            as_prevalence(M.T, M.shape[0], stacked=True)
        except DataError as exc:
            raise DataError(f"rate matrix columns: {exc}") from exc
        object.__setattr__(self, "rates", _frozen(M.copy()))


def check_number(name: str, value, nonnegative: bool = False) -> None:
    """Raise ValueError unless `value` is a finite real number, not a bool,
    that is positive (or, with `nonnegative`, at least 0)."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (0 <= value if nonnegative else 0 < value) and value < np.inf):
        raise ValueError(f"{name} must be a "
                         f"{'nonnegative' if nonnegative else 'positive'} "
                         f"finite number, got {value!r}")


def check_fit_settings(quantifier, bandwidth, cap_weight, smoothing) -> None:
    """Raise ValueError unless `quantifier` is one of QUANTIFIERS, the KDE
    `bandwidth` and the solver weight `cap_weight` are positive finite
    numbers and the rate `smoothing` is a nonnegative finite one."""
    if quantifier not in QUANTIFIERS:
        raise ValueError(f"unknown quantifier {quantifier!r}")
    check_number("bandwidth", bandwidth)
    check_number("cap_weight", cap_weight)
    check_number("smoothing", smoothing, nonnegative=True)


def fit_cap(posteriors: np.ndarray, validation: LabelledSet,
            quantifier_kind: str = "KDEyML", bandwidth: float = 0.1,
            smoothing: float = 0.0) -> CapPredictor:
    """Fit the rate matrix and, under KDEy-ML, the KDE densities on the same
    validation set, from a model's posterior rows `posteriors` for its
    instances; a kind not in QUANTIFIERS raises ValueError."""
    if quantifier_kind not in QUANTIFIERS:
        raise ValueError(f"unknown quantifier {quantifier_kind!r}")
    rates = estimate_rate_matrix(posteriors, validation, smoothing=smoothing)
    densities = fit_kdey(posteriors, validation, bandwidth=bandwidth) \
        if quantifier_kind == "KDEyML" else None
    return CapPredictor(rates, densities)


def cap_to_record(cap: CapPredictor) -> dict:
    """The saved record of a predictor: its rate matrix and, under KDEy-ML,
    its KDE supports; the registry's meta records the fit settings."""
    record = {"rate_matrix": encode_array(cap.rates)}
    if cap.densities is not None:
        record["support"] = [encode_array(S) for S in cap.densities.support]
    return record


def cap_from_record(record: dict, n_classes: int, quantifier: str,
                    bandwidth) -> CapPredictor:
    """The predictor of `n_classes` classes that :func:`cap_to_record` saved
    under `quantifier` and `bandwidth`. KDE supports missing under KDEy-ML or
    present under CC, or of another class count, raise ValueError."""
    kde = quantifier == "KDEyML"
    if ("support" in record) != kde:
        raise ValueError(f"KDE supports {'missing' if kde else 'present'} "
                         f"under {quantifier}")
    densities = ClassDensities(tuple(map(decode_array, record["support"])),
                               bandwidth) if kde else None
    cap = CapPredictor(decode_array(record["rate_matrix"]), densities)
    if len(cap.rates) != n_classes or (
            densities and len(densities.support) != n_classes):
        raise ValueError(f"rate matrix or KDE supports not of {n_classes} "
                         "classes")
    return cap


@dataclass(frozen=True, eq=False)
class CapStack:
    """The solver inputs of k predictors, stacked once by :func:`stack_caps`
    and shared by every bag they predict: the KDE densities (a tuple of k, or
    None for a CC stack), the rate matrices M (k, n, n), Q = M^T M + w I, the
    diagonals of M (k, n), and the solver weight w of every problem. Every
    array is read-only."""

    densities: tuple | None
    M: np.ndarray
    Q: np.ndarray
    diagonal: np.ndarray
    weight: float

    def __len__(self):
        return len(self.M)

    def rows(self, posteriors: np.ndarray, stats=None) -> np.ndarray:
        """The quantifier rows of the k models from the (k, m, n) stack of
        their posterior rows: each model's KDE class log densities
        (:meth:`quantifiers.ClassDensities.evaluate`), shape (k, m, n), or
        under CC the posteriors themselves.

        Each model's KDE is evaluated once per distinct row of its own
        posteriors (:func:`distinct_rows`) and the result scattered back to
        every row that repeats it. That is bit-identical to evaluating every
        row, since a row's densities do not depend on the rows evaluated
        with it. Under KDEy-ML, a `stats` dict receives the number of
        kernel values evaluated, each model's distinct rows times its
        support rows, as `kde_kernel_values`."""
        if self.densities is None:
            return posteriors
        flat = posteriors.reshape(-1, posteriors.shape[2])
        picks, counts, inverse = distinct_rows(posteriors)
        distinct = np.take(flat, picks, axis=0)
        out = np.empty_like(distinct)
        stops = np.cumsum(counts)
        for d, lo, hi in zip(self.densities, stops - counts, stops):
            out[lo:hi] = d.evaluate(distinct[lo:hi])
        if stats is not None:
            stats["kde_kernel_values"] = int(counts @ [
                sum(map(len, d.support)) for d in self.densities])
        return np.take(out, inverse, axis=0)

    def prevalences(self, rows: np.ndarray):
        """(qhat, iterations, converged) over the (j, m, n) rows of any j
        stacked models: the mixture solver's (:func:`em_weights_batch`), or
        under CC the shares of the rows' argmax labels, with 0 iterations
        and converged. Each model's qhat depends on its own rows only. m = 0
        raises DataError."""
        if rows.shape[1] == 0:
            raise DataError("empty bag")
        if self.densities is None:
            j = len(rows)
            qhat, iterations, converged = (
                label_shares(argmax_rows(rows), rows.shape[2]),
                np.zeros(j, dtype=int), np.ones(j, dtype=bool))
        else:
            qhat, iterations, converged = em_weights_batch(rows)
        return (as_prevalence(qhat, self.M.shape[1], stacked=True),
                iterations, converged)

    def accuracies(self, labels: np.ndarray, qhat: np.ndarray):
        """(accuracy, theta, iterations, converged) of the k models from
        their (k, m) predicted labels and a (k, n) qhat: the LEAP solve from
        the label shares, and the trace of each table m[i][j] * theta_j.
        Labels of another number of models raise ValueError, m = 0
        DataError."""
        if len(labels) != len(self):
            raise ValueError(f"labels of {len(labels)} models, "
                             f"{len(self)} predictors")
        if labels.shape[1] == 0:
            raise DataError("empty bag")
        rho = label_shares(labels, self.M.shape[1])
        theta, iterations, converged = leap_solve_batch(self, rho, qhat)
        return (self.diagonal * theta).sum(axis=1), theta, iterations, converged


def distinct_rows(posteriors: np.ndarray):
    """The distinct rows of each model's (m, n) slice of a (k, m, n) stack,
    found in one pass over the stack. Returns (picks, counts, inverse):
    `picks` indexes the stack's rows flattened to (k * m, n), model by
    model, one row per distinct row of that model; `counts` (k,) is the
    number of each model's distinct rows; `inverse` (k, m) is the position in
    `picks` of the row that each row repeats.

    Rows are compared by bit pattern, so -0.0 and 0.0 stay apart, and so do
    NaNs of different payloads. Each slice's rows are sorted by a hash of
    their bits (ROW_HASH), and a row repeats the row before it when both
    hash and bits are equal. A row whose equal rows a hash collision
    separates is counted as distinct, which costs an evaluation and never a
    wrong merge."""
    bits = np.ascontiguousarray(posteriors, dtype=float).view(np.uint64)
    k, m, n = bits.shape
    key = bits[..., 0].copy()
    for j in range(1, n):
        key *= ROW_HASH
        key ^= bits[..., j]
    order = np.argsort(key, axis=1)
    order += m * np.arange(k)[:, None]      # positions in the flat rows
    order = order.ravel()
    key = key.ravel()[order]
    same = key[1:] == key[:-1]
    same[m - 1::max(m, 1)] = False          # no row repeats another model's
    j = np.flatnonzero(same)
    rows, a, b = bits.reshape(k * m, n), order[j + 1], order[j]
    equal = rows[a, 0] == rows[b, 0]
    for c in range(1, n):
        equal &= rows[a, c] == rows[b, c]
    first = np.ones(k * m, dtype=bool)
    first[j + 1] = ~equal
    inverse = np.empty(k * m, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return order[first], first.reshape(k, m).sum(axis=1), \
        inverse.reshape(k, m)


def stack_caps(caps, weight: float) -> CapStack:
    """Stack the accuracy predictors `caps` under one solver `weight`, a
    positive finite number. There must be at least one, and they must be all
    KDEy-ML or all CC."""
    check_number("weight", weight)
    n_cc = sum(c.densities is None for c in caps)
    if not caps or n_cc not in (0, len(caps)):
        raise ValueError("need predictors whose quantifiers share one type, "
                         f"got {len(caps) - n_cc} KDEyML and {n_cc} CC")
    M = np.stack([c.rates for c in caps])
    Q = np.matmul(M.transpose(0, 2, 1), M) + weight * np.eye(M.shape[1])
    diagonal = np.diagonal(M, axis1=1, axis2=2).copy()
    densities = None if n_cc else tuple(c.densities for c in caps)
    return CapStack(densities, *map(_frozen, (M, Q, diagonal)), weight)


def label_shares(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Share of each class in each row of a (k, m) matrix of labels in
    range(n_classes); shape (k, n_classes). One bincount over all rows."""
    k, m = labels.shape
    flat = (labels + n_classes * np.arange(k)[:, None]).ravel()
    return np.bincount(flat, minlength=k * n_classes).reshape(k, n_classes) / m


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
