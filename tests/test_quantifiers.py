from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

from shiftselect import cap, quantifiers
from shiftselect.cap import CapPredictor, stack_caps
from shiftselect.classifiers import argmax_rows, default_model, max_rows, train_grid
from shiftselect.dataspace import DataError, LabelledSet, stratified_split, synth_gaussian_pps
from shiftselect.protocol import draw_bag
from shiftselect.quantifiers import (ClassDensities, _line_search,
                                     em_weights_batch, fit_kdey)


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


def em_one(logF, **kwargs):
    """One log-density matrix through the batched mixture solver: (alpha,
    iterations, converged)."""
    alpha, iterations, converged = em_weights_batch(
        np.asarray(logF, dtype=float)[None], **kwargs)
    return alpha[0], int(iterations[0]), bool(converged[0])


def one_stack(quantifier, n, k=1):
    """k copies of `quantifier` (KDE densities, or None for CC) with identity
    rate matrices, stacked; the rate matrix does not enter a prevalence
    estimate."""
    return stack_caps([CapPredictor(np.eye(n), quantifier)] * k, 1.0)


def estimate_one(quantifier, model, bag, rows=None):
    """One quantifier's prevalence estimate on one bag through
    cap.CapStack.prevalences, from the stack's own rows unless `rows` is
    given."""
    posteriors = model.predict_posteriors(bag.features)[None]
    stack = one_stack(quantifier, posteriors.shape[2])
    if rows is None:
        rows = stack.rows(posteriors)
    return stack.prevalences(rows)[0][0]


@pytest.fixture(scope="module")
def fitted_pipeline():
    """LR + KDE quantifier on a well-separated 2-class synthetic problem."""
    ds = synth_gaussian_pps(2, 2, [0.5, 0.5], 1200, 4.0, seed=21)
    train_set, rest = stratified_split(ds.all_instances(), 0.5, seed=0)
    model = train_grid("LR", [default_model("LR")], train_set, [0])[0]
    quantifier = fit_kdey(model.predict_posteriors(rest.X), rest, bandwidth=0.1)
    return model, quantifier, rest


# ---------------------------------------------------------------------------
# kernel density machinery
# ---------------------------------------------------------------------------

def test_singleton_kde_is_a_bump_at_the_support_point():
    center = np.array([[0.9, 0.1]])
    dens = ClassDensities((center, np.array([[0.2, 0.8]])), bandwidth=0.1)
    h = 0.1
    peak = np.exp(dens.evaluate(center)[0, 0])
    assert peak == pytest.approx((2 * np.pi * h * h) ** -1, rel=1e-12)
    # local dominance: the density at its own support point beats a point 10h away
    far = center + np.array([[10 * h, -10 * h]]) / np.sqrt(2)
    assert np.exp(dens.evaluate(far)[0, 0]) < peak * 1e-5


def test_kde_segment_mass_matches_quadrature():
    # restriction of one kernel to the 2-class simplex segment {(t, 1-t)}:
    # quadrature along the segment must recover the full line mass 1/(sqrt(2 pi) h)
    h = 0.05
    support = np.array([[0.3, 0.7]])
    dens = ClassDensities((support, support.copy()), bandwidth=h)
    t = np.linspace(0.0, 1.0, 10001)
    points = np.column_stack([t, 1.0 - t])
    f = np.exp(dens.evaluate(points)[:, 0])
    integral = np.trapezoid(f, t) * np.sqrt(2.0)   # ds = sqrt(2) dt
    expected = 1.0 / (np.sqrt(2.0 * np.pi) * h)
    assert integral == pytest.approx(expected, rel=1e-3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       bandwidth=st.sampled_from([0.005, 0.02, 0.1, 0.5]),
       chunks=st.integers(1, 5), ragged=st.integers(1, 7),
       singleton=st.booleans())
def test_kde_matches_logsumexp_and_is_invariant_per_row(seed, n, bandwidth,
                                                        chunks, ragged,
                                                        singleton):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 50, size=n)
    if singleton:
        sizes[rng.integers(n)] = 1
    support = tuple(rng.dirichlet(np.full(n, 0.5), size=s) for s in sizes)
    dens = ClassDensities(support, bandwidth)
    # m is not a multiple of the 8-column chunks below: a ragged last chunk
    m = 8 * chunks + ragged
    P = rng.dirichlet(np.full(n, 0.5), size=m)
    # far-off rows: each coordinate at least 1 from every support point's
    far = rng.choice(m, size=max(1, m // 5), replace=False)
    P[far] += rng.choice([-2.0, 2.0], size=(len(far), n))
    got = dens.evaluate(P)
    h2 = bandwidth ** 2
    log_norm = -0.5 * n * np.log(2 * np.pi * h2)
    for j, S in enumerate(support):
        E = -((P[:, None, :] - S[None, :, :]) ** 2).sum(axis=2) / (2 * h2)
        reference = logsumexp(E, axis=1) - np.log(len(S)) + log_norm
        # expanding |p - s|^2 = |p|^2 - 2 p.s + |s|^2 rounds at the scale of
        # the terms it cancels, so the error is relative to that scale
        scale = 1 + ((P * P).sum(axis=1) + (S * S).sum(axis=1).max()) / (2 * h2)
        assert (np.abs(got[:, j] - reference) <= 1e-12 * scale).all()
    if bandwidth == 0.005:
        # at every support point exp(E) itself underflows for the far rows
        E = -((P[far, None, :] - np.concatenate(support)[None]) ** 2).sum(axis=2)
        assert (np.exp(E / (2 * h2)) == 0).all()
    # each row's result is bit-identical whatever rows it is evaluated with
    for k in (1, 2, 9, m + 5):
        idx = rng.integers(0, m, size=k)
        assert np.array_equal(dens.evaluate(P[idx]), got[idx])
    N = int(sizes.sum())
    for budget in (1, 16 * N):     # chunks of 8 and 16 columns
        with mock.patch.object(quantifiers, "CHUNK_ELEMENTS", budget):
            assert np.array_equal(dens.evaluate(P), got)


def test_kde_rows_are_bit_identical_in_large_evaluations():
    # large enough that BLAS leaves its small-matrix path, where the columns
    # of a ragged last panel are summed in another order
    rng = np.random.default_rng(14)
    n = 5
    support = tuple(rng.dirichlet(np.ones(n), size=s) for s in (700, 1, 500, 650, 90))
    dens = ClassDensities(support, 0.05)
    P = rng.dirichlet(np.ones(n), size=1003)
    got = dens.evaluate(P)
    for k in (1, 3, 100, 997):
        idx = rng.integers(0, len(P), size=k)
        assert np.array_equal(dens.evaluate(P[idx]), got[idx])
    with mock.patch.object(quantifiers, "CHUNK_ELEMENTS", 1 << 30):
        assert np.array_equal(dens.evaluate(P), got)    # one chunk


def test_fit_kdey_requires_every_class(fitted_pipeline):
    model, _, rest = fitted_pipeline
    only_zero = LabelledSet(rest.dataset, rest.indices[rest.y == 0])
    with pytest.raises(DataError):
        fit_kdey(model.predict_posteriors(only_zero.X), only_zero)


def test_fit_kdey_rejects_bad_bandwidth(fitted_pipeline):
    model, _, rest = fitted_pipeline
    for bandwidth in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive finite"):
            fit_kdey(model.predict_posteriors(rest.X), rest,
                     bandwidth=bandwidth)


@pytest.mark.parametrize("support", [
    (np.array([0.9, 0.1]), np.array([[0.2, 0.8]])),     # a 1-D support
    (np.array([[0.9, 0.1]]), np.zeros((0, 2))),         # an empty class
    (np.array([[0.9, 0.1, 0.0]]), np.array([[0.2, 0.8, 0.0]])),  # 3 wide
    (np.array([[0.9, 0.1]]),) * 3])                     # 3 classes, 2 wide
def test_class_densities_reject_supports_that_do_not_count_the_classes(
        support):
    # the class count is the number of supports, and every support holds
    # at least one posterior row of that width
    with pytest.raises(ValueError, match="invalid support shape"):
        ClassDensities(support, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_class_densities_reject_a_non_finite_support(bad):
    # fitted or loaded, such a support would fail every mixture solve with
    # a message that names no cause
    support = (np.array([[0.9, 0.1], [bad, 0.5]]), np.array([[0.2, 0.8]]))
    with pytest.raises(ValueError, match="class 0 has a non-finite support"):
        ClassDensities(support, 0.1)


# ---------------------------------------------------------------------------
# EM mixture weights
# ---------------------------------------------------------------------------

def test_em_monotone_loglik_on_random_fixtures(em_trace):
    rng = np.random.default_rng(8)
    for _ in range(25):
        F = rng.uniform(0.05, 3.0, size=(rng.integers(5, 60), rng.integers(2, 5)))
        trace = np.array(em_trace(np.log(F)))
        assert (np.diff(trace) >= -1e-9).all()


def test_em_iterates_stay_on_simplex():
    rng = np.random.default_rng(9)
    F = rng.uniform(0.05, 3.0, size=(40, 3))
    for k in (1, 2, 5, 20, 100):
        alpha, _, _ = em_one(np.log(F), max_iter=k)
        assert (alpha >= 0).all()
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)


def test_em_symmetric_densities_keep_uniform_weights():
    rng = np.random.default_rng(10)
    col = rng.uniform(0.1, 2.0, size=30)
    F = np.column_stack([col, col])    # identical class densities
    alpha, iterations, converged = em_one(np.log(F))
    assert np.allclose(alpha, [0.5, 0.5], atol=1e-12)
    assert iterations == 1     # uniform is already the fixed point
    assert converged


def test_em_matches_grid_search_two_classes(fitted_pipeline):
    model, quantifier, rest = fitted_pipeline
    rng = np.random.default_rng(11)
    bag = draw_bag(rest, [0.3, 0.7], 200, rng)
    posteriors = model.predict_posteriors(bag.features)
    logF = quantifier.evaluate(posteriors)
    F = np.exp(logF - logF.max(axis=1, keepdims=True))

    alpha, _, _ = em_one(logF)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    mixtures = np.outer(F[:, 0], grid) + np.outer(F[:, 1], 1.0 - grid)
    best = grid[np.argmax(np.log(mixtures).sum(axis=0))]
    assert abs(alpha[0] - best) <= 2e-3


def test_em_log_domain_handles_vanishing_densities(em_trace):
    # every density here underflows to 0 as a float; shifting a row's log
    # densities by a constant moves L by that constant and not the weights.
    # The log densities are multiples of 2^-40 and the shifts multiples of
    # 2^-10 below 2^11 in size, so every sum logF + shift is exact and the
    # row-max rescaling gives logF - max back bit for bit: the two solves
    # then see the same densities on any BLAS kernel
    rng = np.random.default_rng(18)
    logF = np.round(np.log(rng.uniform(0.05, 3.0, size=(30, 3))) * 2.0 ** 40) \
        / 2.0 ** 40
    shift = np.round(rng.uniform(-2000.0, -800.0, size=(30, 1)) * 2.0 ** 10) \
        / 2.0 ** 10
    assert np.array_equal(logF + shift - shift, logF)
    assert (np.exp(logF + shift) == 0.0).all()
    alpha, _, converged = em_one(logF)
    alpha_shifted, _, converged_shifted = em_one(logF + shift)
    trace, trace_shifted = em_trace(logF), em_trace(logF + shift)
    assert converged and converged_shifted
    assert np.array_equal(alpha, alpha_shifted)
    assert trace_shifted[-1] == pytest.approx(trace[-1] + shift.sum(),
                                              rel=1e-12)
    # a row where every class density is 0 has no maximum: it fails loudly
    logF[0] = -np.inf
    with pytest.raises(ValueError, match="finite log density"):
        em_one(logF)


def test_kde_log_density_stays_finite_far_from_support():
    h = 1e-3
    support = np.array([[0.9, 0.1]])
    dens = ClassDensities((support, support.copy()), bandwidth=h)
    point = np.array([[0.1, 0.9]])
    d2 = ((point - support) ** 2).sum()
    expected = -np.log(2 * np.pi * h * h) - d2 / (2 * h * h)
    assert np.exp(expected) == 0.0      # the density itself underflows
    assert dens.evaluate(point)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_line_search_halves_a_step_that_would_lower_the_likelihood():
    # F = I: L(a) = log a_0 + log a_1 peaks at (0.5, 0.5); the full step
    # from (0.2, 0.8) overshoots to (0.95, 0.05), the half step does not
    FT = np.eye(2)[None]
    a = np.array([[0.2, 0.8]])
    d = np.array([[0.75, -0.75]])
    L = np.log(a).sum(axis=1)
    new, moved, mix, L_new = _line_search(FT, a, d, L,
                                          np.abs(d).sum(axis=1), 1e-6)
    assert moved[0]
    assert np.allclose(new, [[0.575, 0.425]], atol=1e-15)
    # the accepted step's mixture densities and log-likelihood come along
    assert np.array_equal(mix, new)
    assert np.array_equal(L_new, np.log(new).sum(axis=1))
    # a direction along which L only falls is refused outright
    new, moved, _, _ = _line_search(FT, a, -d, L, np.abs(d).sum(axis=1), 1e-6)
    assert not moved[0] and np.array_equal(new, a)


def reference_newton_direction(Q, g, a, mu):
    """The active-face Newton direction as first written: every pass,
    the first included, gathers its problems by index."""
    k, n = g.shape
    free = (a > 0) | (g > mu)
    diagonal = np.eye(n, dtype=bool)
    d = np.zeros((k, n))
    todo = np.arange(k)
    while todo.size:
        f = free[todo]
        A = np.where(f[:, :, None] & f[:, None, :], Q[todo], 0.0)
        q = A[:, diagonal]
        ridge = quantifiers.NEWTON_RIDGE * q.sum(axis=1) / f.sum(axis=1)
        A[:, diagonal] = np.where(f, q + ridge[:, None], 1.0)
        rhs = np.stack([np.where(f, g[todo], 0.0), f.astype(float)], axis=2)
        u, v = np.moveaxis(np.linalg.solve(A, rhs), 2, 0)
        d[todo] = u - (u.sum(axis=1) / v.sum(axis=1))[:, None] * v
        outward = f & (a[todo] == 0) & (d[todo] < 0)
        again = outward.any(axis=1)
        free[todo[again]] &= ~outward[again]
        todo = todo[again]
    return d


def reference_line_search(FT, a, d, L, size, tol):
    """The damped step as first written: one scale per problem, and every
    trial, the first included, gathers its problems by index."""
    new = a.copy()
    moved = np.zeros(len(a), dtype=bool)
    scale = np.ones(len(a))
    todo = np.arange(len(a))
    while todo.size:
        trial, t = quantifiers._simplex_step(a[todo], d[todo], scale[todo])
        ok = quantifiers._mixture(FT[todo], trial)[1] >= L[todo]
        new[todo[ok]] = trial[ok]
        moved[todo[ok]] = True
        todo, t = todo[~ok], t[~ok]
        scale[todo] *= 0.5
        todo = todo[0.5 * t * size[todo] >= tol]
    return new, moved


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
       n=st.integers(2, 10), m=st.integers(1, 40))
def test_solver_steps_equal_their_reference(seed, k, n, m):
    # points with zero weights make outward directions and re-solves; a
    # likelihood bar above the start makes steps halve and some fail
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(np.ones(n), size=k) * (rng.random((k, n)) > 0.4)
    a[a.sum(axis=1) == 0, 0] = 1.0
    a /= a.sum(axis=1, keepdims=True)
    # rank below n makes Q singular, and the ridge acts
    G = rng.normal(size=(k, n, rng.integers(1, n + 2)))
    Q = np.matmul(G, G.transpose(0, 2, 1))
    g = rng.normal(size=(k, n))
    mu = (a * g).sum(axis=1, keepdims=True)
    d = quantifiers._newton_direction(Q, g, a, mu)
    assert np.array_equal(d, reference_newton_direction(Q, g, a, mu))
    FT = rng.random((k, n, m)) + 1e-3
    L = quantifiers._mixture(FT, a)[1] + rng.choice([-1.0, 0.0, 1e-3], k)
    size = np.abs(d).sum(axis=1)
    for tol in (1e-6, 1e-2):
        new, moved, mix, L_new = _line_search(FT, a, d, L, size, tol)
        ref_new, ref_moved = reference_line_search(FT, a, d, L, size, tol)
        assert np.array_equal(new, ref_new) and np.array_equal(moved, ref_moved)
        # where a step is taken, the mixture of the new weights, bit for bit
        want_mix, want_L = quantifiers._mixture(FT[moved], new[moved])
        assert np.array_equal(mix[moved], want_mix)
        assert np.array_equal(L_new[moved], want_L)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
       m=st.integers(1, 50), n=st.integers(1, 6))
def test_row_max_and_label_shares_equal_numpy(seed, k, m, n):
    rng = np.random.default_rng(seed)
    X = rng.choice([-np.inf, -1.0, 0.0, 0.5, np.nan], size=(k, m, n),
                   p=[0.05, 0.3, 0.3, 0.3, 0.05])
    # rows of -inf alone, of NaN alone, and a NaN after and before a max
    X[0, 0] = -np.inf
    X[-1, -1] = np.nan
    if n > 1:
        X[0, -1] = np.linspace(1.0, 0.0, n)
        X[0, -1, -1] = np.nan
        X[-1, 0] = np.linspace(0.0, -1.0, n)
        X[-1, 0, 0] = np.nan
    for rows in (X, X[0, 0], X[0, 0, :1]):  # (k, m, n), (n,) and (1,) too
        assert np.array_equal(max_rows(rows), rows.max(axis=-1, keepdims=True),
                              equal_nan=True)
        assert np.array_equal(argmax_rows(rows), np.argmax(rows, axis=-1))
    labels = np.argmax(X, axis=2)
    counts = (labels[..., None] == np.arange(n)).sum(axis=1)
    assert np.array_equal(cap.label_shares(labels, n), counts / m)


def em_on_every_support(F, tol=1e-14, max_iter=10_000):
    """Reference optimum: plain EM restricted to each nonempty class subset
    (EM keeps a zero weight at zero), keeping the KKT point (gradient at most
    m off the subset) with the highest log-likelihood. Plain EM on all
    classes crawls toward a boundary optimum; restricted to the optimum's
    support it converges, but only linearly, so Newton steps on the subset
    (:func:`newton_polish`) finish the climb. Subsets are taken smallest
    first, and a superset of a KKT subset is skipped, since it cannot hold a
    better point; with `max_iter` this bounds the cost at 2^n - 1 runs of at
    most 10,000 steps."""
    m, n = F.shape
    best, best_value, kkt_masks = None, -np.inf, []
    for mask in sorted(range(1, 2 ** n), key=lambda b: bin(b).count("1")):
        if any(mask & k == k for k in kkt_masks):
            continue
        a = np.array([mask >> j & 1 for j in range(n)], dtype=float)
        a /= a.sum()
        for _ in range(max_iter):
            new = (F * (a / (F @ a)[:, None])).mean(axis=0)
            new /= new.sum()
            done = np.abs(new - a).sum() < tol
            a = new
            if done:
                break
        a = newton_polish(F, a)
        g = (F / (F @ a)[:, None]).sum(axis=0)
        if (g[a == 0] > m * (1 + 1e-9)).any():
            continue
        kkt_masks.append(mask)
        value = np.log(F @ a).sum()
        if value > best_value:
            best, best_value = a, value
    return best


def newton_polish(F, a, steps=20):
    """Newton steps from `a` toward the maximum of sum(log(F @ a)) over the
    weights on its support summing to one: each solves the Lagrange system
    [H 1; 1' 0] [d; nu] = [g; 0] of the negated Hessian H and the gradient
    g. A step is taken only while the system is regular (H has rank at most
    m, so more than m classes can make it singular) and the step keeps every
    weight positive and does not lower the log-likelihood, so a subset whose
    optimum lies on its boundary keeps EM's point."""
    on = a > 0
    k = int(on.sum())
    lagrange = np.ones((k + 1, k + 1))
    lagrange[k, k] = 0.0
    for _ in range(steps):
        G = F[:, on] / (F @ a)[:, None]
        lagrange[:k, :k] = G.T @ G
        try:
            d = np.linalg.solve(lagrange, np.append(G.sum(axis=0), 0.0))[:k]
        except np.linalg.LinAlgError:
            break
        new = a.copy()
        new[on] += d
        if (new[on] <= 0).any() or \
                np.log(F @ new).sum() < np.log(F @ a).sum():
            break
        a = new
        if np.abs(d).sum() < 1e-15:
            break
    return a


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 60),
       n=st.integers(2, 5), faint=st.integers(0, 2))
# the optimum has a zero weight that plain EM approaches only to 1e-5
@example(seed=144, m=15, n=3, faint=0)
# 10,000 plain EM steps on the optimum's support stop 1.5e-6 short of it
@example(seed=3210901, m=5, n=5, faint=0)
# an EM warm-up step falls below the tolerance with the faint weight at
# 3.4e-10, where its gradient is 0.007 against m = 10
@example(seed=3, m=10, n=2, faint=1)
def test_solver_meets_kkt_and_beats_tight_em(seed, m, n, faint, em_trace):
    rng = np.random.default_rng(seed)
    F = rng.uniform(0.05, 3.0, size=(m, n))
    # faint classes push the optimum onto the simplex boundary
    F[:, :faint] *= rng.uniform(0.0, 0.3, size=faint)
    logF = np.log(F)
    alpha, _, converged = em_one(logF)
    assert converged
    assert (alpha >= 0).all() and alpha.sum() == pytest.approx(1.0, abs=1e-12)
    assert (np.diff(em_trace(logF)) >= -1e-9).all()
    # KKT: the gradient equals m on the support and is at most m off it
    g = (F / (F @ alpha)[:, None]).sum(axis=0)
    support = alpha > 0
    assert np.allclose(g[support], m, rtol=1e-6)
    assert (g[~support] <= m * (1 + 1e-9)).all()
    reference = em_on_every_support(F)
    assert np.log(F @ alpha).sum() >= np.log(F @ reference).sum() - 1e-9
    assert np.abs(alpha - reference).max() <= 1e-6


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
        # problem 1 has a density of exactly 0 (log density -inf)
        F[1, 0, 0] = 0.0
    if k > 2:
        # problem 2 has a faint class, so a boundary optimum
        F[2, :, -1] *= 1e-3
    with np.errstate(divide="ignore"):
        logF = np.log(F)
    alpha, iterations, converged = em_weights_batch(logF, tol=tol,
                                                    max_iter=max_iter)
    for i in range(k):
        alpha_i, iterations_i, converged_i = em_one(logF[i], tol=tol,
                                                    max_iter=max_iter)
        assert np.abs(alpha[i] - alpha_i).max() <= 1e-12
        assert iterations[i] == iterations_i
        assert converged[i] == converged_i
        # the run took exactly its reported iterations: cut there, it
        # returns the same result
        cut_alpha, cut_iterations, cut_converged = em_one(
            logF[i], tol=tol, max_iter=iterations_i)
        assert np.array_equal(cut_alpha, alpha_i)
        assert (cut_iterations, cut_converged) == (iterations_i, converged_i)
    # every iterate, not only the last: the batch and single-problem runs
    # cut after t steps agree bit for bit
    for t in range(int(iterations.max()) + 1):
        cut = em_weights_batch(logF, tol=tol, max_iter=t)[0]
        for i in range(k):
            assert np.array_equal(cut[i], em_one(logF[i], tol=tol,
                                                 max_iter=t)[0])
    assert iterations[0] == min(max_iter, 1)
    assert converged[0] == (max_iter >= 1)


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


def test_kdey_absent_class_gets_exactly_zero_weight():
    ds = synth_gaussian_pps(3, 2, [1 / 3] * 3, 1200, 4.0, seed=21)
    train_set, rest = stratified_split(ds.all_instances(), 0.5, seed=0)
    model = train_grid("LR", [default_model("LR")], train_set, [0])[0]
    quantifier = fit_kdey(model.predict_posteriors(rest.X), rest, bandwidth=0.1)
    rng = np.random.default_rng(3)
    for prevalence, absent in (([0.5, 0.5, 0.0], [2]),
                               ([0.0, 0.2, 0.8], [0]),
                               ([1.0, 0.0, 0.0], [1, 2])):
        bag = draw_bag(rest, prevalence, 200, rng)
        logF = quantifier.evaluate(model.predict_posteriors(bag.features))
        alpha, _, converged = em_one(logF)
        assert converged
        assert (alpha[absent] == 0.0).all()
        assert np.abs(alpha - bag.realized_prevalence).max() <= 1e-3


def test_small_bandwidth_estimate_tends_to_nearest_support_share():
    # 4 classes, a class-3 share of 0.80, and a bag held out from the KDE's
    # support: as the bandwidth shrinks, each row's likelihood is carried by
    # its nearest support point, so the estimate tends to the share of rows
    # whose nearest support point has class j, even where every density
    # underflows as a float
    ds = synth_gaussian_pps(4, 5, [0.25] * 4, 1000, 1.0, seed=3)
    train_set, rest = stratified_split(ds.all_instances(), 0.5, seed=0)
    validation, test = stratified_split(rest, 0.5, seed=1)
    model = train_grid("LR", [default_model("LR")], train_set, [0])[0]
    bag = draw_bag(test, [0.2 / 3] * 3 + [0.8], 100, np.random.default_rng(1))
    P = model.predict_posteriors(bag.features)
    V = model.predict_posteriors(validation.X)
    nearest = validation.y[np.argmin(((P[:, None] - V[None]) ** 2).sum(axis=2),
                                     axis=1)]
    share = np.bincount(nearest, minlength=4) / len(nearest)
    estimates = {}
    for bandwidth in (0.1, 0.01, 1e-3, 1e-4):
        quantifier = fit_kdey(V, validation, bandwidth=bandwidth)
        estimates[bandwidth] = estimate_one(quantifier, model, bag)
    assert np.abs(estimates[0.01] - share).max() <= 0.02
    for bandwidth in (1e-3, 1e-4):
        assert np.abs(estimates[bandwidth] - share).max() <= 1e-3
    assert np.exp(fit_kdey(V, validation, bandwidth=1e-4).evaluate(P)).max() \
        == 0.0


def test_kdey_precomputed_posteriors_match(fitted_pipeline):
    model, quantifier, rest = fitted_pipeline
    rng = np.random.default_rng(14)
    bag = draw_bag(rest, [0.4, 0.6], 100, rng)
    direct = estimate_one(quantifier, model, bag)
    rows = quantifier.evaluate(model.predict_posteriors(bag.features))[None]
    cached = estimate_one(quantifier, model, bag, rows=rows)
    assert np.array_equal(direct, cached)


def test_kdey_rejects_empty_bag(fitted_pipeline):
    _, quantifier, _ = fitted_pipeline
    with pytest.raises(DataError):
        estimate_one(quantifier, PassThroughModel(2), FakeBag(np.zeros((0, 2))))


def test_kdey_detailed_reports_monotone_trace(fitted_pipeline, em_trace):
    model, quantifier, rest = fitted_pipeline
    rng = np.random.default_rng(15)
    bag = draw_bag(rest, [0.2, 0.8], 150, rng)
    posteriors = model.predict_posteriors(bag.features)
    logF = quantifier.evaluate(posteriors)
    _, _, converged = em_one(logF)
    assert converged
    assert (np.diff(em_trace(logF)) >= -1e-9).all()


# ---------------------------------------------------------------------------
# classify and count
# ---------------------------------------------------------------------------

def test_cc_counts_predictions():
    model = PassThroughModel(2)
    features = np.repeat([[0.9, 0.1], [0.1, 0.9]], [40, 60], axis=0)
    est = estimate_one(None, model, FakeBag(features))
    assert np.allclose(est, [0.4, 0.6])


def test_cc_perfect_classifier_recovers_prevalence_exactly():
    ds = synth_gaussian_pps(2, 2, [0.5, 0.5], 600, 8.0, seed=33)
    train_set, rest = stratified_split(ds.all_instances(), 0.5, seed=0)
    model = train_grid("LR", [default_model("LR")], train_set, [0])[0]
    assert (np.argmax(model.predict_posteriors(rest.X), axis=1)
            == rest.y).mean() == 1.0
    rng = np.random.default_rng(5)
    bag = draw_bag(rest, [0.35, 0.65], 100, rng)
    est = estimate_one(None, model, bag)
    assert np.allclose(est, bag.realized_prevalence)


def test_cc_equals_column_sums_of_prediction_cross_tab(fitted_pipeline):
    model, _, rest = fitted_pipeline
    rng = np.random.default_rng(16)
    bag = draw_bag(rest, [0.5, 0.5], 120, rng)
    est = estimate_one(None, model, bag)
    pred = np.argmax(model.predict_posteriors(bag.features), axis=1)
    truth = rest.y[np.searchsorted(np.arange(len(rest)), bag.indices)]
    cross = np.zeros((2, 2))
    np.add.at(cross, (pred, truth), 1.0)
    assert np.allclose(est, cross.sum(axis=1) / bag.size)


def test_cc_rejects_empty_bag():
    with pytest.raises(DataError):
        estimate_one(None, PassThroughModel(2),
                     FakeBag(np.zeros((0, 2))))


def test_quantifier_estimate_dispatch(fitted_pipeline):
    model, kdey, rest = fitted_pipeline
    rng = np.random.default_rng(17)
    bag = draw_bag(rest, [0.6, 0.4], 80, rng)
    posteriors = np.stack([model.predict_posteriors(bag.features)] * 2)
    # a stack of one kind is reduced by that kind: the mixture solver for
    # KDEy-ML, label counts for CC
    for quantifier, solves in ((kdey, True), (None, False)):
        rows = one_stack(quantifier, 2, k=2).rows(posteriors)
        assert np.array_equal(rows[1], posteriors[1] if quantifier is None
                              else quantifier.evaluate(posteriors[1]))
        qhat, iterations, converged = one_stack(quantifier, 2).prevalences(
            rows)
        for row in qhat:
            assert np.array_equal(row, estimate_one(quantifier, model, bag))
        assert ((iterations > 0) if solves else (iterations == 0)).all()
        assert converged.all()
