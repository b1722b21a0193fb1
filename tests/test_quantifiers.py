import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftselect.classifiers import default_model, train
from shiftselect.dataspace import DataError, LabelledSet, stratified_split, synth_gaussian_pps
from shiftselect.protocol import draw_bag
from shiftselect.quantifiers import (CCQuantifier, ClassDensities,
                                     em_weights_batch, estimate_batch,
                                     fit_kdey)


class FakeBag:
    """Label-free bag stand-in: anything with a .features matrix works."""

    def __init__(self, features):
        self.features = np.asarray(features, dtype=float)
        self.size = len(self.features)


class PassThroughModel:
    """Posteriors are the features themselves (rows must live on the simplex)."""

    def __init__(self, n_classes):
        self.n_classes = n_classes

    def predict_posteriors(self, X):
        return np.asarray(X, dtype=float)

    def predict_labels(self, X):
        return np.argmax(self.predict_posteriors(X), axis=1)


def em_one(F, **kwargs):
    """One density matrix through the batched EM core: (alpha, iterations,
    floored, log-likelihood trace)."""
    alpha, iterations, floored, trace = em_weights_batch(
        np.asarray(F, dtype=float)[None], loglik=True, **kwargs)
    return alpha[0], int(iterations[0]), bool(floored[0]), trace[0]


def estimate_one(quantifier, model, bag, rows=None):
    """One quantifier's prevalence estimate on one bag through the batched
    API."""
    posteriors = model.predict_posteriors(bag.features)[None]
    qhat, _ = estimate_batch([quantifier], posteriors, rows)
    return qhat[0]


@pytest.fixture(scope="module")
def fitted_pipeline():
    """LR + KDE quantifier on a well-separated 2-class synthetic problem."""
    ds = synth_gaussian_pps(2, 2, [0.5, 0.5], 1200, 4.0, seed=21)
    train_set, rest = stratified_split(ds.all_instances(), 0.5, seed=0)
    model = train("LR", default_model("LR"), train_set, seed=0)
    quantifier = fit_kdey(model, rest, bandwidth=0.1)
    return model, quantifier, rest


# ---------------------------------------------------------------------------
# kernel density machinery
# ---------------------------------------------------------------------------

def test_singleton_kde_is_a_bump_at_the_support_point():
    center = np.array([[0.9, 0.1]])
    dens = ClassDensities((center, np.array([[0.2, 0.8]])), bandwidth=0.1,
                          n_classes=2)
    h = 0.1
    peak = dens.evaluate(center)[0, 0]
    assert peak == pytest.approx((2 * np.pi * h * h) ** -1, rel=1e-12)
    # local dominance: the density at its own support point beats a point 10h away
    far = center + np.array([[10 * h, -10 * h]]) / np.sqrt(2)
    assert dens.evaluate(far)[0, 0] < peak * 1e-5


def test_kde_segment_mass_matches_quadrature():
    # restriction of one kernel to the 2-class simplex segment {(t, 1-t)}:
    # quadrature along the segment must recover the full line mass 1/(sqrt(2 pi) h)
    h = 0.05
    support = np.array([[0.3, 0.7]])
    dens = ClassDensities((support, support.copy()), bandwidth=h, n_classes=2)
    t = np.linspace(0.0, 1.0, 10001)
    points = np.column_stack([t, 1.0 - t])
    f = dens.evaluate(points)[:, 0]
    integral = np.trapezoid(f, t) * np.sqrt(2.0)   # ds = sqrt(2) dt
    expected = 1.0 / (np.sqrt(2.0 * np.pi) * h)
    assert integral == pytest.approx(expected, rel=1e-3)


def test_fit_kdey_requires_every_class(fitted_pipeline):
    model, _, rest = fitted_pipeline
    only_zero = rest.indices[rest.y == 0]
    with pytest.raises(DataError):
        fit_kdey(model, LabelledSet(rest.dataset, only_zero))


def test_fit_kdey_rejects_bad_bandwidth(fitted_pipeline):
    model, _, rest = fitted_pipeline
    with pytest.raises(ValueError):
        fit_kdey(model, rest, bandwidth=0.0)


# ---------------------------------------------------------------------------
# EM mixture weights
# ---------------------------------------------------------------------------

def test_em_monotone_loglik_on_random_fixtures():
    rng = np.random.default_rng(8)
    for _ in range(25):
        F = rng.uniform(0.05, 3.0, size=(rng.integers(5, 60), rng.integers(2, 5)))
        _, _, _, loglik = em_one(F)
        trace = np.array(loglik)
        assert (np.diff(trace) >= -1e-9).all()


def test_em_iterates_stay_on_simplex():
    rng = np.random.default_rng(9)
    F = rng.uniform(0.05, 3.0, size=(40, 3))
    for k in (1, 2, 5, 20, 100):
        alpha, _, _, _ = em_one(F, max_iter=k)
        assert (alpha >= 0).all()
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)


def test_em_symmetric_densities_keep_uniform_weights():
    rng = np.random.default_rng(10)
    col = rng.uniform(0.1, 2.0, size=30)
    F = np.column_stack([col, col])    # identical class densities
    alpha, iterations, _, _ = em_one(F)
    assert np.allclose(alpha, [0.5, 0.5], atol=1e-12)
    assert iterations == 1     # uniform is already the fixed point


def test_em_matches_grid_search_two_classes(fitted_pipeline):
    model, quantifier, rest = fitted_pipeline
    rng = np.random.default_rng(11)
    bag = draw_bag(rest, [0.3, 0.7], 200, rng)
    posteriors = model.predict_posteriors(bag.features)
    F = np.maximum(quantifier.densities.evaluate(posteriors), 1e-300)

    alpha, _, _, _ = em_one(F)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    mixtures = np.outer(F[:, 0], grid) + np.outer(F[:, 1], 1.0 - grid)
    best = grid[np.argmax(np.log(mixtures).sum(axis=0))]
    assert abs(alpha[0] - best) <= 2e-3


def test_em_floors_vanishing_densities():
    F = np.array([[0.0, 0.0], [1.0, 2.0]])
    alpha, _, floored, _ = em_one(F)
    assert floored
    assert np.isfinite(np.log(np.maximum(F, 1e-300) @ alpha).sum())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
       m=st.integers(1, 40), n=st.integers(2, 4),
       tol=st.sampled_from([1e-6, 1e-10]),
       max_iter=st.sampled_from([0, 1, 2, 5, 1000]))
def test_em_batch_equals_scalar_calls(seed, k, m, n, tol, max_iter):
    rng = np.random.default_rng(seed)
    F = rng.uniform(0.05, 3.0, size=(k, m, n))
    # problem 0 starts at its fixed point: identical class densities
    F[0] = F[0, :, :1]
    if k > 1:
        # problem 1 needs the density floor
        F[1, 0] = 0.0
    alpha, iterations, floored, trace = em_weights_batch(
        F, tol=tol, max_iter=max_iter, loglik=True)
    for i in range(k):
        alpha_i, iterations_i, floored_i, trace_i = em_one(
            F[i], tol=tol, max_iter=max_iter)
        assert np.abs(alpha[i] - alpha_i).max() <= 1e-12
        assert iterations[i] == iterations_i
        assert floored[i] == floored_i
        assert trace[i] == trace_i
    assert iterations[0] == min(max_iter, 1)
    assert floored.tolist() == [i == 1 for i in range(k)]
    _, _, _, no_trace = em_weights_batch(F, tol=tol, max_iter=max_iter)
    assert no_trace is None


# ---------------------------------------------------------------------------
# KDEy end to end
# ---------------------------------------------------------------------------

def test_kdey_pure_class_bag_recovers_vertex(fitted_pipeline):
    model, quantifier, rest = fitted_pipeline
    rng = np.random.default_rng(12)
    bag = draw_bag(rest, [1.0, 0.0], 200, rng)
    alpha = estimate_one(quantifier, model, bag)
    assert np.abs(alpha - np.array([1.0, 0.0])).max() <= 0.05


def test_kdey_iid_bag_recovers_validation_prevalence(fitted_pipeline):
    model, quantifier, rest = fitted_pipeline
    rng = np.random.default_rng(13)
    target = rest.prevalence()
    bag = draw_bag(rest, target, 500, rng)
    alpha = estimate_one(quantifier, model, bag)
    assert np.abs(alpha - target).sum() <= 0.1


def test_kdey_precomputed_posteriors_match(fitted_pipeline):
    model, quantifier, rest = fitted_pipeline
    rng = np.random.default_rng(14)
    bag = draw_bag(rest, [0.4, 0.6], 100, rng)
    direct = estimate_one(quantifier, model, bag)
    rows = quantifier.rows(model.predict_posteriors(bag.features))[None]
    cached = estimate_one(quantifier, model, bag, rows=rows)
    assert np.array_equal(direct, cached)


def test_kdey_rejects_empty_bag(fitted_pipeline):
    _, quantifier, _ = fitted_pipeline
    with pytest.raises(DataError):
        estimate_one(quantifier, PassThroughModel(2), FakeBag(np.zeros((0, 2))))


def test_kdey_detailed_reports_monotone_trace(fitted_pipeline):
    model, quantifier, rest = fitted_pipeline
    rng = np.random.default_rng(15)
    bag = draw_bag(rest, [0.2, 0.8], 150, rng)
    posteriors = model.predict_posteriors(bag.features)
    _, _, _, loglik = em_one(quantifier.densities.evaluate(posteriors))
    assert (np.diff(loglik) >= -1e-9).all()


# ---------------------------------------------------------------------------
# classify and count
# ---------------------------------------------------------------------------

def test_cc_counts_predictions():
    model = PassThroughModel(2)
    features = np.repeat([[0.9, 0.1], [0.1, 0.9]], [40, 60], axis=0)
    est = estimate_one(CCQuantifier(), model, FakeBag(features))
    assert np.allclose(est, [0.4, 0.6])


def test_cc_perfect_classifier_recovers_prevalence_exactly():
    ds = synth_gaussian_pps(2, 2, [0.5, 0.5], 600, 8.0, seed=33)
    train_set, rest = stratified_split(ds.all_instances(), 0.5, seed=0)
    model = train("LR", default_model("LR"), train_set, seed=0)
    assert (model.predict_labels(rest.X) == rest.y).mean() == 1.0
    rng = np.random.default_rng(5)
    bag = draw_bag(rest, [0.35, 0.65], 100, rng)
    est = estimate_one(CCQuantifier(), model, bag)
    assert np.allclose(est, bag.realized_prevalence)


def test_cc_equals_column_sums_of_prediction_cross_tab(fitted_pipeline):
    model, _, rest = fitted_pipeline
    rng = np.random.default_rng(16)
    bag = draw_bag(rest, [0.5, 0.5], 120, rng)
    est = estimate_one(CCQuantifier(), model, bag)
    pred = model.predict_labels(bag.features)
    truth = rest.y[np.searchsorted(np.arange(len(rest)), bag.indices)]
    cross = np.zeros((2, 2))
    np.add.at(cross, (pred, truth), 1.0)
    assert np.allclose(est, cross.sum(axis=1) / bag.size)


def test_cc_rejects_empty_bag():
    with pytest.raises(DataError):
        estimate_one(CCQuantifier(), PassThroughModel(2),
                     FakeBag(np.zeros((0, 2))))


def test_quantifier_estimate_dispatch(fitted_pipeline):
    model, quantifier, rest = fitted_pipeline
    rng = np.random.default_rng(17)
    bag = draw_bag(rest, [0.6, 0.4], 80, rng)
    # a mixed list: each quantifier is reduced by its own type
    posteriors = np.stack([model.predict_posteriors(bag.features)] * 2)
    qhat, _ = estimate_batch([quantifier, CCQuantifier()], posteriors)
    assert np.array_equal(qhat[0], estimate_one(quantifier, model, bag))
    assert np.array_equal(qhat[1], estimate_one(CCQuantifier(), model, bag))
