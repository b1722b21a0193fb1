import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftselect.cap import (CapPredictor, RateMatrix, estimate_rate_matrix,
                             fit_cap, leap_solve_batch, predict_batch,
                             pps_accuracy_identity, stack_caps)
from shiftselect.classifiers import default_model, train
from shiftselect.dataspace import DataError, Dataset, stratified_split, synth_gaussian_pps
from shiftselect.protocol import draw_bag, reveal_labels
from shiftselect.quantifiers import CCQuantifier, ClassDensities, fit_kdey


class PassThroughModel:
    def __init__(self, n_classes):
        self.n_classes = n_classes

    def predict_posteriors(self, X):
        return np.asarray(X, dtype=float)

    def predict_labels(self, X):
        return np.argmax(self.predict_posteriors(X), axis=1)


class OracleQuantifier:
    """Feeds one bag's true prevalence to the solver (test harness only):
    every row is that prevalence, and the reduction reads the first."""

    def __init__(self, bag):
        self.prevalence = np.asarray(bag.realized_prevalence, dtype=float)

    def rows(self, posteriors):
        return np.tile(self.prevalence, (len(posteriors), 1))

    @staticmethod
    def reduce(rows):
        return (rows[:, 0], np.zeros(len(rows), dtype=int),
                np.ones(len(rows), dtype=bool))


def leap_stack(rates, weight=1.0):
    """LEAP problems with these rate matrices, stacked by stack_caps;
    `weight` is a scalar or one value per problem."""
    return stack_caps([
        CapPredictor(r, CCQuantifier(), weight=float(w))
        for r, w in zip(rates, np.broadcast_to(weight, (len(rates),)))])


def solve_one(rates, rho, qhat, weight=1.0, **kwargs):
    """One LEAP problem through the batched core: (theta, table, iterations,
    converged), with the table c[i][j] = m[i][j] * theta_j; `kwargs` are the
    solver's `tol` and `max_iter`."""
    theta, iterations, converged = leap_solve_batch(
        leap_stack([rates], weight), np.asarray(rho, dtype=float)[None],
        np.asarray(qhat, dtype=float)[None], **kwargs)
    return (theta[0], rates.m * theta[0][None, :], int(iterations[0]),
            bool(converged[0]))


def predict_one(psi, model, bag):
    """One predictor on one bag through the batched API."""
    stack = stack_caps([psi])
    posteriors = model.predict_posteriors(bag.features)[None]
    return predict_batch(stack, posteriors, stack.rows(posteriors))


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
    assert np.array_equal(m.m, np.eye(2))


def test_rate_matrix_counts_tpr():
    # 10 true class-1 instances, 9 predicted 1 -> m[1][1] = 0.9
    rows = [[0.1, 0.9]] * 9 + [[0.9, 0.1]] * 1 + [[0.8, 0.2]] * 5
    labels = [1] * 10 + [0] * 5
    ds = posterior_dataset(rows, labels)
    m = estimate_rate_matrix(ds.features, ds.all_instances())
    assert m.m[1, 1] == pytest.approx(0.9)
    assert m.m[0, 1] == pytest.approx(0.1)
    assert m.m[0, 0] == pytest.approx(1.0)


def test_rate_matrix_columns_sum_to_one_random_fixtures():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(2, 5)
        size = rng.integers(2 * n, 60)
        labels = np.concatenate([np.arange(n), rng.integers(0, n, size - n)])
        rows = rng.dirichlet(np.ones(n), size=size)
        ds = posterior_dataset(rows, labels)
        m = estimate_rate_matrix(ds.features, ds.all_instances())
        assert np.allclose(m.m.sum(axis=0), 1.0, atol=1e-12)
        assert (m.m >= 0).all()


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
    assert (m.m > 0).all()
    assert np.allclose(m.m.sum(axis=0), 1.0)


def test_rate_matrix_rejects_columns_off_the_simplex():
    off = np.array([[0.5, 0.5], [0.5, 0.5 + 1e-6]])   # column 1 sums to 1 + 1e-6
    with pytest.raises(DataError, match="rate matrix columns"):
        RateMatrix(off)
    with pytest.raises(ValueError):
        RateMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        RateMatrix(np.array([[1.1, 0.0], [-0.1, 1.0]]))
    RateMatrix(np.array([[0.5, 0.5], [0.5, 0.5 + 1e-10]]))


def test_fit_cap_with_precomputed_posteriors_matches_features():
    ds = synth_gaussian_pps(3, 2, [0.5, 0.3, 0.2], 300, 2.0, seed=4)
    proper, validation = stratified_split(ds.all_instances(), 0.5, seed=0)
    model = train("KNN", default_model("KNN"), proper, seed=0)
    # both fits of fit_cap share the posteriors it is given, and equal the
    # rate and KDE fits on the posteriors computed from the features
    P = model.predict_posteriors(validation.X)
    shared = fit_cap(P, validation)
    fresh_rates = estimate_rate_matrix(P, validation)
    fresh_quantifier = fit_kdey(P, validation)
    assert np.array_equal(fresh_rates.m, shared.rates.m)
    for a, b in zip(fresh_quantifier.support, shared.quantifier.support,
                    strict=True):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def test_leap_consistent_system_identity():
    m = RateMatrix(np.eye(2))
    theta, table, _, converged = solve_one(m, [0.3, 0.7], [0.3, 0.7])
    assert converged
    assert np.allclose(theta, [0.3, 0.7], atol=1e-6)
    assert np.allclose(table, np.diag([0.3, 0.7]), atol=1e-6)


def test_leap_consistent_two_class_accuracy():
    tpr, tnr = 0.9, 0.8
    M = np.array([[tnr, 1 - tpr], [1 - tnr, tpr]])
    theta = np.array([0.7, 0.3])
    rho = M @ theta
    _, table, _, _ = solve_one(RateMatrix(M), rho, theta)
    assert np.trace(table) == pytest.approx(tnr * 0.7 + tpr * 0.3, abs=1e-6)
    assert np.trace(table) == pytest.approx(0.83, abs=1e-6)


def test_leap_table_columns_sum_to_theta():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(2, 5)
        M = RateMatrix(rng.dirichlet(np.ones(n), size=n).T)
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
        theta, _, _, _ = solve_one(RateMatrix(M), rho, qhat)
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
    heavy, _, _, _ = solve_one(RateMatrix(M), rho, qhat, weight=1e6)
    assert np.allclose(heavy, qhat, atol=1e-4)
    # weight -> 0: the classifier-count equations dominate, theta -> M^-1 rho
    light, _, _, _ = solve_one(RateMatrix(M), rho, qhat, weight=1e-6)
    assert np.allclose(light, theta0, atol=1e-3)


def test_leap_rejects_bad_weight():
    with pytest.raises(ValueError):
        solve_one(RateMatrix(np.eye(2)), [0.5, 0.5], [0.5, 0.5], weight=0.0)


def test_leap_nonconvergence_returns_best_iterate_with_flag():
    M = RateMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
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
    rates = [RateMatrix(rng.dirichlet(np.ones(n), size=n).T) for _ in range(k)]
    rho = rng.dirichlet(np.ones(n), size=k)
    qhat = rng.dirichlet(np.ones(n), size=k)
    # row 0 starts at its optimum: identity rates, rho == qhat
    rates[0] = RateMatrix(np.eye(n))
    rho[0] = qhat[0]
    weight = rng.uniform(0.05, 5.0, size=k)
    theta, iterations, converged = leap_solve_batch(
        leap_stack(rates, weight=weight), rho, qhat, tol=tol,
        max_iter=max_iter)
    for i in range(k):
        theta_i, _, iterations_i, converged_i = solve_one(
            rates[i], rho[i], qhat[i], weight=weight[i], tol=tol,
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
    weight = rng.uniform(0.05, 5.0, size=k)
    theta, _, converged = leap_solve_batch(
        leap_stack([RateMatrix(M) for M in Ms], weight=weight), rho, qhat)
    assert converged.all()
    for i, M in enumerate(Ms):
        assert np.abs(theta[i] - brute_force_leap(
            M, rho[i], qhat[i], weight[i])).max() <= 1e-12
        # KKT: g_j = mu on the support, g_j <= mu off it
        g = M.T @ rho[i] + weight[i] * qhat[i] \
            - (M.T @ M + weight[i] * np.eye(n)) @ theta[i]
        mu = theta[i] @ g
        support = theta[i] > 0
        assert np.abs(g[support] - mu).max() <= 1e-12
        assert (g[~support] <= mu + 1e-12).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
       m=st.integers(1, 30), n=st.integers(2, 4),
       bandwidth=st.sampled_from([0.01, 0.1, 0.5]),
       kind=st.sampled_from(["CC", "KDEyML"]))
def test_predict_batch_rows_equal_one_cap_calls(seed, k, m, n, bandwidth,
                                                kind):
    rng = np.random.default_rng(seed)
    caps = []
    # predictors of one quantifier kind, each with its own solver weight
    for _ in range(k):
        if kind == "CC":
            quantifier = CCQuantifier()
        else:
            support = tuple(rng.dirichlet(np.ones(n), size=rng.integers(1, 6))
                            for _ in range(n))
            quantifier = ClassDensities(support, bandwidth, n)
        caps.append(CapPredictor(
            RateMatrix(rng.dirichlet(np.ones(n), size=n).T), quantifier,
            weight=rng.uniform(0.05, 5.0)))
    posteriors = rng.dirichlet(np.ones(n), size=(k, m))
    stack = stack_caps(caps)
    batch = predict_batch(stack, posteriors, stack.rows(posteriors))
    for i, psi in enumerate(caps):
        one_stack = stack_caps([psi])
        one = predict_batch(one_stack, posteriors[i:i + 1],
                            one_stack.rows(posteriors[i:i + 1]))
        for name in ("accuracy", "theta", "rho", "qhat", "iterations",
                     "converged", "em_iterations", "em_converged"):
            assert np.array_equal(getattr(batch, name)[i],
                                  getattr(one, name)[0]), name


def test_stack_caps_rejects_mixed_quantifier_types_and_no_predictors():
    density = ClassDensities((np.eye(2)[:1], np.eye(2)[1:]), 0.1, 2)
    mixed = [CapPredictor(RateMatrix(np.eye(2)), CCQuantifier()),
             CapPredictor(RateMatrix(np.eye(2)), density)]
    with pytest.raises(ValueError, match="share one type"):
        stack_caps(mixed)
    with pytest.raises(ValueError, match="share one type"):
        stack_caps([])


def test_predict_batch_rejects_an_empty_bag():
    psi = CapPredictor(RateMatrix(np.eye(2)), CCQuantifier())
    empty = np.zeros((1, 0, 2))
    with pytest.raises(DataError, match="empty bag"):
        predict_batch(stack_caps([psi]), empty, empty)


def test_predict_batch_rejects_posteriors_of_other_models():
    psi = CapPredictor(RateMatrix(np.eye(2)), CCQuantifier())
    posteriors = np.full((2, 3, 2), 0.5)
    with pytest.raises(ValueError, match="posteriors for 2 models"):
        predict_batch(stack_caps([psi]), posteriors, posteriors)


# ---------------------------------------------------------------------------
# accuracy from a table
# ---------------------------------------------------------------------------

def test_accuracy_is_the_trace():
    # the oracle quantifier pins theta to (0.3, 0.7) on both predictors
    rows = [[0.9, 0.1]] * 3 + [[0.2, 0.8]] * 7
    bag = draw_bag(posterior_dataset(rows, [0] * 3 + [1] * 7).all_instances(),
                   [0.3, 0.7], 10, np.random.default_rng(0))
    caps = [CapPredictor(RateMatrix(M), OracleQuantifier(bag))
            for M in (np.eye(2), np.full((2, 2), 0.5))]
    stack = stack_caps(caps)
    posteriors = np.stack([bag.features] * 2)
    batch = predict_batch(stack, posteriors, stack.rows(posteriors))
    # tables diag(0.3, 0.7) and 0.5 * theta in every row: traces 1 and 0.5
    assert batch.accuracy[0] == 1.0
    assert batch.accuracy[1] == 0.5


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
    psi = CapPredictor(rates, OracleQuantifier(bag))
    assert predict_one(psi, model, bag).accuracy[0] == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def overlapping_pipeline():
    """LR on overlapping 2-class Gaussians: imperfect but stable rates."""
    ds = synth_gaussian_pps(2, 2, [0.6, 0.4], 4000, 2.0, seed=51)
    train_set, rest = stratified_split(ds.all_instances(), 0.35, seed=0)
    validation, test = stratified_split(rest, 0.5, seed=1)
    model = train("LR", default_model("LR"), train_set, seed=0)
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
        psi = CapPredictor(rates, OracleQuantifier(bag))
        estimate = predict_one(psi, model, bag).accuracy[0]
        true_acc = (model.predict_labels(bag.features) == reveal_labels(bag)).mean()
        if abs(estimate - true_acc) <= bound:
            hits += 1
    assert hits / n_bags >= 0.95


def test_cap_zero_shift_matches_validation_accuracy(overlapping_pipeline):
    model, train_set, validation, test = overlapping_pipeline
    psi = fit_cap(model.predict_posteriors(validation.X), validation)
    val_acc = (model.predict_labels(validation.X) == validation.y).mean()
    rng = np.random.default_rng(8)
    bag = draw_bag(test, train_set.prevalence(), 500, rng)
    assert abs(predict_one(psi, model, bag).accuracy[0] - val_acc) <= 0.05


def test_cap_detailed_reports_solver_state(overlapping_pipeline):
    model, _, validation, test = overlapping_pipeline
    psi = fit_cap(model.predict_posteriors(validation.X), validation)
    bag = draw_bag(test, [0.3, 0.7], 100, np.random.default_rng(9))
    pred = predict_one(psi, model, bag)
    assert 0.0 <= pred.accuracy[0] <= 1.0
    assert pred.converged[0]
    table = psi.rates.m * pred.theta[0][None, :]
    assert np.allclose(table.sum(axis=0), pred.theta[0], atol=1e-9)


def test_fit_cap_rejects_unknown_quantifier(overlapping_pipeline):
    model, _, validation, _ = overlapping_pipeline
    with pytest.raises(ValueError):
        fit_cap(model.predict_posteriors(validation.X), validation,
                quantifier_kind="EMQ")


def test_fit_cap_with_counting_quantifier(overlapping_pipeline):
    model, _, validation, test = overlapping_pipeline
    psi = fit_cap(model.predict_posteriors(validation.X), validation,
                  quantifier_kind="CC")
    bag = draw_bag(test, [0.4, 0.6], 200, np.random.default_rng(10))
    estimate = predict_one(psi, model, bag).accuracy[0]
    assert 0.0 <= estimate <= 1.0
    true_acc = (model.predict_labels(bag.features) == reveal_labels(bag)).mean()
    assert abs(estimate - true_acc) <= 0.25   # coarse but sane ablation baseline


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
