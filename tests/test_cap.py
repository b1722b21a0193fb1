import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftselect.cap import (CapPredictor, cap_from_record, cap_to_record,
                             estimate_rate_matrix, fit_cap, label_shares,
                             leap_solve_batch, pps_accuracy_identity,
                             stack_caps)
from shiftselect.classifiers import (argmax_rows, default_model, encode_array,
                                     train_grid)
from shiftselect.dataspace import DataError, Dataset, stratified_split, synth_gaussian_pps
from shiftselect.protocol import draw_bag, reveal_labels
from shiftselect.quantifiers import ClassDensities, fit_kdey


class PassThroughModel:
    def __init__(self, n_classes):
        self.n_classes = n_classes

    def predict_posteriors(self, X):
        return np.asarray(X, dtype=float)


def oracle_qhat(bag, k=1):
    """One bag's true prevalence as the qhat of each of k models, in place of
    a quantifier's estimate (test harness only)."""
    return np.tile(np.asarray(bag.realized_prevalence, dtype=float), (k, 1))


def leap_stack(rates, weight=1.0):
    """LEAP problems with these rate matrices, stacked by stack_caps under
    the one `weight`."""
    return stack_caps([CapPredictor(r, None) for r in rates], weight)


def solve_one(rates, rho, qhat, weight=1.0, **kwargs):
    """One LEAP problem through the batched core: (theta, table, iterations,
    converged), with the table c[i][j] = m[i][j] * theta_j; `kwargs` are the
    solver's `tol` and `max_iter`."""
    theta, iterations, converged = leap_solve_batch(
        leap_stack([rates], weight), np.asarray(rho, dtype=float)[None],
        np.asarray(qhat, dtype=float)[None], **kwargs)
    return (theta[0], rates * theta[0][None, :], int(iterations[0]),
            bool(converged[0]))


def predict(stack, posteriors, qhat=None):
    """The stack's predictions on one bag from its (k, m, n) posteriors, as
    selection.tms_select composes them: (accuracy, theta, iterations,
    converged) of CapStack.accuracies, each of shape (k, ...). A given
    `qhat` replaces the stack's prevalence estimates."""
    if qhat is None:
        qhat, _, _ = stack.prevalences(stack.rows(posteriors))
    return stack.accuracies(argmax_rows(posteriors), qhat)


def predict_one(psi, model, bag, qhat=None):
    """One predictor on one bag through the batched API: (accuracy, theta,
    iterations, converged) of the k=1 stack, for its one model."""
    posteriors = model.predict_posteriors(bag.features)[None]
    return tuple(a[0] for a in predict(stack_caps([psi], 1.0), posteriors,
                                       qhat))


def posterior_dataset(posterior_rows, labels):
    """Dataset whose features *are* posterior rows, for PassThroughModel."""
    return Dataset(np.asarray(posterior_rows, dtype=float),
                   np.asarray(labels, dtype=int),
                   n_classes=len(posterior_rows[0]))


# ---------------------------------------------------------------------------
# rate matrix
# ---------------------------------------------------------------------------

def test_rate_matrix_perfect_classifier_is_identity():
    rows = [[0.9, 0.1]] * 5 + [[0.2, 0.8]] * 7
    labels = [0] * 5 + [1] * 7
    ds = posterior_dataset(rows, labels)
    m = estimate_rate_matrix(ds.features, ds.all_instances())
    assert np.array_equal(m, np.eye(2))


def test_rate_matrix_counts_tpr():
    # 10 true class-1 instances, 9 predicted 1 -> m[1][1] = 0.9
    rows = [[0.1, 0.9]] * 9 + [[0.9, 0.1]] * 1 + [[0.8, 0.2]] * 5
    labels = [1] * 10 + [0] * 5
    ds = posterior_dataset(rows, labels)
    m = estimate_rate_matrix(ds.features, ds.all_instances())
    assert m[1, 1] == pytest.approx(0.9)
    assert m[0, 1] == pytest.approx(0.1)
    assert m[0, 0] == pytest.approx(1.0)


def test_rate_matrix_columns_sum_to_one_random_fixtures():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(2, 5)
        size = rng.integers(2 * n, 60)
        labels = np.concatenate([np.arange(n), rng.integers(0, n, size - n)])
        rows = rng.dirichlet(np.ones(n), size=size)
        ds = posterior_dataset(rows, labels)
        m = estimate_rate_matrix(ds.features, ds.all_instances())
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert (m >= 0).all()


def test_rate_matrix_missing_class_rejected():
    rows = [[0.9, 0.1]] * 5
    ds = Dataset(np.asarray(rows), np.zeros(5, dtype=int), n_classes=2,
                 require_all_classes=False)
    with pytest.raises(DataError):
        estimate_rate_matrix(ds.features, ds.all_instances())


def test_rate_matrix_auto_smooths_never_predicted_class():
    # the model never predicts class 1: without smoothing row 1 would be all
    # zeros, so the 1e-6 fallback kicks in and every entry is positive
    rows = [[0.9, 0.1]] * 4 + [[0.8, 0.2]] * 4
    labels = [0] * 4 + [1] * 4
    ds = posterior_dataset(rows, labels)
    m = estimate_rate_matrix(ds.features, ds.all_instances())
    assert (m > 0).all()
    assert np.allclose(m.sum(axis=0), 1.0)


def test_rate_matrix_rejects_columns_off_the_simplex():
    off = np.array([[0.5, 0.5], [0.5, 0.5 + 1e-6]])   # column 1 sums to 1 + 1e-6
    with pytest.raises(DataError, match="rate matrix columns"):
        CapPredictor(off, None)
    with pytest.raises(ValueError):
        CapPredictor(np.array([[1.0, np.nan], [0.0, 1.0]]), None)
    with pytest.raises(ValueError):
        CapPredictor(np.array([[1.1, 0.0], [-0.1, 1.0]]), None)
    CapPredictor(np.array([[0.5, 0.5], [0.5, 0.5 + 1e-10]]), None)


def test_fit_cap_with_precomputed_posteriors_matches_features():
    ds = synth_gaussian_pps(3, 2, [0.5, 0.3, 0.2], 300, 2.0, seed=4)
    proper, validation = stratified_split(ds.all_instances(), 0.5, seed=0)
    model = train_grid("KNN", [default_model("KNN")], proper, [0])[0]
    # both fits of fit_cap share the posteriors it is given, and equal the
    # rate and KDE fits on the posteriors computed from the features
    P = model.predict_posteriors(validation.X)
    shared = fit_cap(P, validation)
    fresh_rates = estimate_rate_matrix(P, validation)
    fresh_quantifier = fit_kdey(P, validation)
    assert np.array_equal(fresh_rates, shared.rates)
    for a, b in zip(fresh_quantifier.support, shared.densities.support,
                    strict=True):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def test_leap_consistent_system_identity():
    theta, table, _, converged = solve_one(np.eye(2), [0.3, 0.7], [0.3, 0.7])
    assert converged
    assert np.allclose(theta, [0.3, 0.7], atol=1e-6)
    assert np.allclose(table, np.diag([0.3, 0.7]), atol=1e-6)


def test_leap_consistent_two_class_accuracy():
    tpr, tnr = 0.9, 0.8
    M = np.array([[tnr, 1 - tpr], [1 - tnr, tpr]])
    theta = np.array([0.7, 0.3])
    rho = M @ theta
    _, table, _, _ = solve_one(M, rho, theta)
    assert np.trace(table) == pytest.approx(tnr * 0.7 + tpr * 0.3, abs=1e-6)
    assert np.trace(table) == pytest.approx(0.83, abs=1e-6)


def test_leap_table_columns_sum_to_theta():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(2, 5)
        M = rng.dirichlet(np.ones(n), size=n).T
        rho = rng.dirichlet(np.ones(n))
        qhat = rng.dirichlet(np.ones(n))
        theta, table, _, _ = solve_one(M, rho, qhat)
        assert np.allclose(table.sum(axis=0), theta, atol=1e-9)
        assert table.sum() == pytest.approx(1.0, abs=1e-9)
        assert (table >= 0).all()


def test_leap_matches_grid_search_on_inconsistent_instances():
    rng = np.random.default_rng(3)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    thetas = np.column_stack([grid, 1.0 - grid])
    for _ in range(10):
        M = rng.dirichlet(np.ones(2), size=2).T
        rho = rng.dirichlet(np.ones(2))
        qhat = rng.dirichlet(np.ones(2))
        theta, _, _, _ = solve_one(M, rho, qhat)
        objective = ((thetas @ M.T - rho) ** 2).sum(axis=1) \
            + ((thetas - qhat) ** 2).sum(axis=1)
        best = grid[np.argmin(objective)]
        assert abs(theta[0] - best) <= 1e-3


def test_leap_weight_limits():
    M = np.array([[0.8, 0.3], [0.2, 0.7]])
    theta0 = np.array([0.6, 0.4])
    rho = M @ theta0
    qhat = np.array([0.25, 0.75])
    # weight -> inf: the quantifier equation dominates, theta -> qhat
    heavy, _, _, _ = solve_one(M, rho, qhat, weight=1e6)
    assert np.allclose(heavy, qhat, atol=1e-4)
    # weight -> 0: the classifier-count equations dominate, theta -> M^-1 rho
    light, _, _, _ = solve_one(M, rho, qhat, weight=1e-6)
    assert np.allclose(light, theta0, atol=1e-3)


@pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf, True])
def test_leap_rejects_bad_weight(weight):
    with pytest.raises(ValueError, match="positive finite"):
        solve_one(np.eye(2), [0.5, 0.5], [0.5, 0.5], weight=weight)


def test_leap_nonconvergence_returns_best_iterate_with_flag():
    M = np.array([[0.6, 0.4], [0.4, 0.6]])
    _, table, iterations, converged = solve_one(M, [0.9, 0.1], [0.1, 0.9],
                                                max_iter=1)
    assert not converged
    assert iterations == 1
    assert table.sum() == pytest.approx(1.0, abs=1e-9)   # still a valid table


# ---------------------------------------------------------------------------
# batched and exact solver (property tests)
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
       n=st.integers(2, 5), tol=st.sampled_from([1e-8, 1e-11]),
       max_iter=st.sampled_from([0, 1, 3, 40, 10_000]))
def test_leap_batch_equals_scalar_calls(seed, k, n, tol, max_iter):
    rng = np.random.default_rng(seed)
    rates = [rng.dirichlet(np.ones(n), size=n).T for _ in range(k)]
    rho = rng.dirichlet(np.ones(n), size=k)
    qhat = rng.dirichlet(np.ones(n), size=k)
    # row 0 starts at its optimum: identity rates, rho == qhat
    rates[0] = np.eye(n)
    rho[0] = qhat[0]
    weight = rng.uniform(0.05, 5.0)   # one weight per stack
    theta, iterations, converged = leap_solve_batch(
        leap_stack(rates, weight=weight), rho, qhat, tol=tol,
        max_iter=max_iter)
    for i in range(k):
        theta_i, _, iterations_i, converged_i = solve_one(
            rates[i], rho[i], qhat[i], weight=weight, tol=tol,
            max_iter=max_iter)
        assert np.abs(theta[i] - theta_i).max() <= 1e-12
        assert iterations[i] == iterations_i
        assert converged[i] == converged_i
    if max_iter > 0:
        assert converged[0] and iterations[0] == 1
    else:
        # no iteration: every problem returns qhat, not converged
        assert np.array_equal(theta, qhat)
        assert (iterations == 0).all() and not converged.any()


def brute_force_leap(M, rho, qhat, weight):
    """Exact LEAP optimum: the equality-constrained minimum on every nonempty
    support, keeping the best one that is feasible (nonnegative)."""
    n = len(rho)
    Q = M.T @ M + weight * np.eye(n)
    b = M.T @ rho + weight * qhat
    best, best_value = None, np.inf
    for mask in range(1, 2 ** n):
        S = [j for j in range(n) if mask >> j & 1]
        kkt = np.zeros((len(S) + 1, len(S) + 1))
        kkt[:-1, :-1] = Q[np.ix_(S, S)]
        kkt[:-1, -1] = kkt[-1, :-1] = 1.0
        solution = np.linalg.solve(kkt, np.append(b[S], 1.0))[:-1]
        if (solution < 0).any():
            continue
        theta = np.zeros(n)
        theta[S] = solution
        value = 0.5 * theta @ Q @ theta - b @ theta
        if value < best_value:
            best, best_value = theta, value
    return best


def sparse_simplex_rows(rng, k, n):
    """k points of the simplex with about a third of their entries zero."""
    P = rng.dirichlet(np.ones(n), size=k) * (rng.random((k, n)) > 0.35)
    P[P.sum(axis=1) == 0, rng.integers(0, n)] = 1.0
    return P / P.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
       n=st.integers(2, 5))
def test_leap_matches_brute_force_on_every_support(seed, k, n):
    rng = np.random.default_rng(seed)
    Ms = [rng.dirichlet(np.full(n, 0.5), size=n).T for _ in range(k)]
    rho = sparse_simplex_rows(rng, k, n)
    qhat = sparse_simplex_rows(rng, k, n)
    weight = rng.uniform(0.05, 5.0)   # one weight per stack
    theta, _, converged = leap_solve_batch(leap_stack(Ms, weight=weight), rho,
                                           qhat)
    assert converged.all()
    for i, M in enumerate(Ms):
        assert np.abs(theta[i] - brute_force_leap(
            M, rho[i], qhat[i], weight)).max() <= 1e-12
        # KKT: g_j = mu on the support, g_j <= mu off it
        g = M.T @ rho[i] + weight * qhat[i] \
            - (M.T @ M + weight * np.eye(n)) @ theta[i]
        mu = theta[i] @ g
        support = theta[i] > 0
        assert np.abs(g[support] - mu).max() <= 1e-12
        assert (g[~support] <= mu + 1e-12).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
       m=st.integers(1, 30), n=st.integers(2, 4),
       bandwidth=st.sampled_from([0.01, 0.1, 0.5]),
       kind=st.sampled_from(["CC", "KDEyML"]))
def test_stack_calls_equal_one_cap_calls(seed, k, m, n, bandwidth, kind):
    rng = np.random.default_rng(seed)
    caps = []
    # predictors of one quantifier kind, solved under the stack's one weight
    weight = rng.uniform(0.05, 5.0)
    for _ in range(k):
        if kind == "CC":
            quantifier = None
        else:
            support = tuple(rng.dirichlet(np.ones(n), size=rng.integers(1, 6))
                            for _ in range(n))
            quantifier = ClassDensities(support, bandwidth)
        caps.append(CapPredictor(rng.dirichlet(np.ones(n), size=n).T,
                                 quantifier))
    posteriors = rng.dirichlet(np.ones(n), size=(k, m))
    stack = stack_caps(caps, weight)
    rows, labels = stack.rows(posteriors), argmax_rows(posteriors)
    # each call's fields, by name: prevalences, then accuracies
    names = ("qhat", "em_iterations", "em_converged",
             "accuracy", "theta", "iterations", "converged")
    prevalences = stack.prevalences(rows)
    every = dict(zip(names, prevalences + stack.accuracies(labels,
                                                           prevalences[0])))
    rho = label_shares(labels, n)
    for i, psi in enumerate(caps):
        one_stack = stack_caps([psi], weight)
        one_prevalences = one_stack.prevalences(one_stack.rows(
            posteriors[i:i + 1]))
        one = dict(zip(names, one_prevalences + one_stack.accuracies(
            labels[i:i + 1], one_prevalences[0])))
        for name in names:
            assert np.array_equal(every[name][i], one[name][0]), name
        assert np.array_equal(rho[i], label_shares(labels[i:i + 1], n)[0])
    # the prevalences of any subset of the stacked models' rows are those
    # rows of the prevalences of all of them, bit for bit
    subset = np.sort(rng.choice(k, size=rng.integers(1, k + 1),
                                replace=False))
    for whole, part in zip(prevalences, stack.prevalences(rows[subset])):
        assert np.array_equal(whole[subset], part)


def _row_stacks(rng, k, m, n):
    """(k, m, n) posterior stacks whose rows repeat in every way a bag's
    can: by name."""
    def repeated(pool):
        return pool[:, rng.integers(0, len(pool[0]), size=m)] if m else \
            pool[:, :0]
    signed = np.full((k, m, n), 1.0 / (n - 1))
    signed[:, :, 0] = 0.0
    signed[:, 1::2, 0] = -0.0          # a 0.0/-0.0 pair wherever m > 1
    return {
        "repeated": repeated(rng.dirichlet(np.ones(n), size=(k, 5))),
        "all equal": np.tile(rng.dirichlet(np.ones(n)), (k, m, 1)),
        "all distinct": rng.dirichlet(np.ones(n), size=(k, m)),
        # a KNN model's vote shares over its 5 or 13 nearest neighbours
        "knn votes": np.stack([label_shares(
            rng.integers(0, n, size=(m, votes)), n) for votes in
            rng.choice([5, 13], size=k)]),
        "signed zeros": signed,
    }


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 100])
def test_stack_rows_equal_each_row_evaluated_alone(m, monkeypatch):
    # a model's KDE is evaluated once per distinct row, compared by bits,
    # and scattered back: bit-identical to evaluating each row on its own,
    # also when a hash collision (every key forced to the last column)
    # keeps equal rows apart
    from shiftselect import cap
    rng = np.random.default_rng(m)
    k, n = 4, 3
    stack = stack_caps([CapPredictor(np.eye(n), ClassDensities(
        tuple(rng.dirichlet(np.ones(n), size=6) for _ in range(n)), 0.1))
        for _ in range(k)], 1.0)
    for name, posteriors in _row_stacks(rng, k, m, n).items():
        alone = np.zeros((k, m, n))
        for i, d in enumerate(stack.densities):
            for row in range(m):
                alone[i, row] = d.evaluate(posteriors[i, row:row + 1])[0]
        bits = [len(np.unique(P.view(np.uint64), axis=0)) for P in posteriors]
        if name == "signed zeros" and m > 1:
            assert bits == [2] * k      # so -0.0 must not merge with 0.0
        for collide in (False, True):
            if collide:
                monkeypatch.setattr(cap, "ROW_HASH", np.uint64(0))
            stats = {}
            rows = stack.rows(posteriors, stats)
            assert rows.view(np.uint64).tobytes() == \
                alone.view(np.uint64).tobytes(), (name, collide)
            picks, counts, inverse = cap.distinct_rows(posteriors)
            # the kernel values evaluated: 18 support rows per distinct row
            assert stats == {"kde_kernel_values": 18 * int(counts.sum())}
            flat = posteriors.reshape(-1, n)
            assert np.array_equal(flat[picks][inverse].view(np.uint64),
                                  posteriors.view(np.uint64)), name
            # each model's evaluations: its distinct rows by bits, or more
            # where a collision hides a repeat
            assert (counts >= bits).all() if collide else \
                counts.tolist() == bits, (name, collide)
            assert (np.repeat(np.arange(k), counts)
                    == picks // max(m, 1)).all(), name
        monkeypatch.undo()


def test_stack_caps_rejects_mixed_quantifier_types_and_no_predictors():
    density = ClassDensities((np.eye(2)[:1], np.eye(2)[1:]), 0.1)
    mixed = [CapPredictor(np.eye(2), None),
             CapPredictor(np.eye(2), density)]
    with pytest.raises(ValueError, match="share one type"):
        stack_caps(mixed, 1.0)
    with pytest.raises(ValueError, match="share one type"):
        stack_caps([], 1.0)


def test_stack_calls_reject_an_empty_bag():
    stack = stack_caps([CapPredictor(np.eye(2), None)], 1.0)
    with pytest.raises(DataError, match="empty bag"):
        stack.prevalences(np.zeros((1, 0, 2)))
    with pytest.raises(DataError, match="empty bag"):
        stack.accuracies(np.zeros((1, 0), dtype=int), np.full((1, 2), 0.5))


def test_accuracies_reject_labels_of_other_models():
    stack = stack_caps([CapPredictor(np.eye(2), None)], 1.0)
    with pytest.raises(ValueError, match="labels of 2 models"):
        stack.accuracies(np.zeros((2, 3), dtype=int), np.full((1, 2), 0.5))


# ---------------------------------------------------------------------------
# accuracy from a table
# ---------------------------------------------------------------------------

def test_accuracy_is_the_trace():
    # the oracle qhat pins theta to (0.3, 0.7) on both predictors
    rows = [[0.9, 0.1]] * 3 + [[0.2, 0.8]] * 7
    bag = draw_bag(posterior_dataset(rows, [0] * 3 + [1] * 7).all_instances(),
                   [0.3, 0.7], 10, np.random.default_rng(0))
    caps = [CapPredictor(M, None) for M in (np.eye(2), np.full((2, 2), 0.5))]
    stack = stack_caps(caps, 1.0)
    accuracy, _, _, _ = predict(stack, np.stack([bag.features] * 2),
                                oracle_qhat(bag, 2))
    # tables diag(0.3, 0.7) and 0.5 * theta in every row: traces 1 and 0.5
    assert accuracy[0] == 1.0
    assert accuracy[1] == 0.5


# ---------------------------------------------------------------------------
# cap predictor end to end
# ---------------------------------------------------------------------------

def test_cap_perfect_classifier_with_oracle_quantifier_gives_one():
    rows = [[0.95, 0.05]] * 6 + [[0.1, 0.9]] * 6
    labels = [0] * 6 + [1] * 6
    ds = posterior_dataset(rows, labels)
    model = PassThroughModel(2)
    rates = estimate_rate_matrix(ds.features, ds.all_instances())
    bag = draw_bag(ds.all_instances(), [0.5, 0.5], 40, np.random.default_rng(0))
    psi = CapPredictor(rates, None)
    assert predict_one(psi, model, bag, oracle_qhat(bag))[0] \
        == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def overlapping_pipeline():
    """LR on overlapping 2-class Gaussians: imperfect but stable rates."""
    ds = synth_gaussian_pps(2, 2, [0.6, 0.4], 4000, 2.0, seed=51)
    train_set, rest = stratified_split(ds.all_instances(), 0.35, seed=0)
    validation, test = stratified_split(rest, 0.5, seed=1)
    model = train_grid("LR", [default_model("LR")], train_set, [0])[0]
    return model, train_set, validation, test


def test_cap_monte_carlo_error_bound(overlapping_pipeline):
    model, _, validation, test = overlapping_pipeline
    rates = estimate_rate_matrix(model.predict_posteriors(validation.X),
                                 validation)
    rng = np.random.default_rng(7)
    s = 100
    bound = 3.0 / np.sqrt(s)
    hits = 0
    n_bags = 200
    for _ in range(n_bags):
        target = rng.dirichlet([1.0, 1.0])
        bag = draw_bag(test, target, s, rng)
        psi = CapPredictor(rates, None)
        estimate = predict_one(psi, model, bag, oracle_qhat(bag))[0]
        true_acc = (np.argmax(model.predict_posteriors(bag.features), axis=1)
                    == reveal_labels(bag)).mean()
        if abs(estimate - true_acc) <= bound:
            hits += 1
    assert hits / n_bags >= 0.95


def test_cap_zero_shift_matches_validation_accuracy(overlapping_pipeline):
    model, train_set, validation, test = overlapping_pipeline
    psi = fit_cap(model.predict_posteriors(validation.X), validation)
    val_acc = (np.argmax(model.predict_posteriors(validation.X), axis=1)
               == validation.y).mean()
    rng = np.random.default_rng(8)
    bag = draw_bag(test, train_set.prevalence(), 500, rng)
    assert abs(predict_one(psi, model, bag)[0] - val_acc) <= 0.05


def test_cap_detailed_reports_solver_state(overlapping_pipeline):
    model, _, validation, test = overlapping_pipeline
    psi = fit_cap(model.predict_posteriors(validation.X), validation)
    bag = draw_bag(test, [0.3, 0.7], 100, np.random.default_rng(9))
    accuracy, theta, _, converged = predict_one(psi, model, bag)
    assert 0.0 <= accuracy <= 1.0
    assert converged
    table = psi.rates * theta[None, :]
    assert np.allclose(table.sum(axis=0), theta, atol=1e-9)


def test_fit_cap_rejects_unknown_quantifier(overlapping_pipeline):
    model, _, validation, _ = overlapping_pipeline
    with pytest.raises(ValueError):
        fit_cap(model.predict_posteriors(validation.X), validation,
                quantifier_kind="EMQ")


def test_fit_cap_with_counting_quantifier(overlapping_pipeline):
    model, _, validation, test = overlapping_pipeline
    psi = fit_cap(model.predict_posteriors(validation.X), validation,
                  quantifier_kind="CC")
    assert psi.densities is None
    bag = draw_bag(test, [0.4, 0.6], 200, np.random.default_rng(10))
    estimate = predict_one(psi, model, bag)[0]
    assert 0.0 <= estimate <= 1.0
    true_acc = (np.argmax(model.predict_posteriors(bag.features), axis=1)
                == reveal_labels(bag)).mean()
    assert abs(estimate - true_acc) <= 0.25   # coarse but sane ablation baseline


@pytest.mark.parametrize("kind", ["KDEyML", "CC"])
def test_cap_record_round_trips_bit_for_bit(overlapping_pipeline, kind):
    # the record is a saved registry entry's "cap": the rate matrix and,
    # under KDEy-ML only, the supports, as format version 2 lays them out
    model, _, validation, _ = overlapping_pipeline
    psi = fit_cap(model.predict_posteriors(validation.X), validation,
                  quantifier_kind=kind, bandwidth=0.05)
    record = json.loads(json.dumps(cap_to_record(psi)))
    layout = {"rate_matrix": encode_array(psi.rates)}
    if kind == "KDEyML":
        layout["support"] = [encode_array(S) for S in psi.densities.support]
    assert record == layout
    redo = cap_from_record(record, 2, kind, 0.05)
    assert redo.rates.tobytes() == psi.rates.tobytes()
    if kind == "CC":
        assert redo.densities is psi.densities is None
    else:
        assert redo.densities.bandwidth == 0.05
        for S, T in zip(psi.densities.support, redo.densities.support,
                        strict=True):
            assert S.shape == T.shape and S.tobytes() == T.tobytes()
    # the record is read under the registry's kind and class count
    other = "CC" if kind == "KDEyML" else "KDEyML"
    with pytest.raises(ValueError, match=f"KDE supports "
                       f"{'present' if other == 'CC' else 'missing'} "
                       f"under {other}"):
        cap_from_record(record, 2, other, 0.05)
    with pytest.raises(ValueError, match="not of 3 classes"):
        cap_from_record(record, 3, kind, 0.05)


# ---------------------------------------------------------------------------
# the non-transfer identity
# ---------------------------------------------------------------------------

def test_identity_equal_rates_transfer():
    for p in (0.1, 0.5, 0.9):
        for q in (0.2, 0.7):
            acc_p, acc_q = pps_accuracy_identity(0.8, 0.8, p, q)
            assert acc_p == pytest.approx(0.8) and acc_q == pytest.approx(0.8)


def test_identity_worked_example():
    acc_p, acc_q = pps_accuracy_identity(0.9, 0.8, 0.5, 0.1)
    assert acc_p == pytest.approx(0.85)
    assert acc_q == pytest.approx(0.81)


def test_identity_no_shift_transfers():
    for tpr, tnr in ((0.3, 0.9), (1.0, 0.0), (0.6, 0.55)):
        acc_p, acc_q = pps_accuracy_identity(tpr, tnr, 0.4, 0.4)
        assert acc_p == acc_q


def test_identity_rejects_out_of_range():
    with pytest.raises(ValueError):
        pps_accuracy_identity(1.1, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        pps_accuracy_identity(0.9, 0.5, -0.1, 0.5)
