import json
import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftselect import classifiers, parallel
from shiftselect.classifiers import (BLAS_PANEL, KNN_DIST_EPS, LR_GRAD_TOL,
                                     MLP_HIDDEN_UNITS, MLP_MAX_EPOCHS,
                                     MLP_MIN_STEP, ClassWeights, HyperParams,
                                     MLPModel,
                                     TrainingError, build_grid,
                                     class_weight_candidates, default_model,
                                     lr_hessian_vector, lr_loss_grad,
                                     mlp_loss_grad,
                                     model_from_record, model_to_record,
                                     nearest_order, predict_posteriors_batch,
                                     softmax, train_grid)
from shiftselect.dataspace import Dataset


def blob_dataset(counts, centers, spread=0.5, seed=0, dims=None):
    rng = np.random.default_rng(seed)
    dims = dims or len(centers[0])
    parts, labels = [], []
    for j, (c, mu) in enumerate(zip(counts, centers)):
        parts.append(rng.normal(mu, spread, size=(c, dims)))
        labels.append(np.full(c, j))
    X = np.vstack(parts)
    y = np.concatenate(labels)
    return Dataset(X, y, n_classes=len(counts))


@pytest.fixture(scope="module")
def two_blobs():
    return blob_dataset([40, 40], [(0.0, 0.0), (4.0, 4.0)], spread=0.4)


# ---------------------------------------------------------------------------
# class weights and grids
# ---------------------------------------------------------------------------

def test_class_weight_candidates_binary():
    cands = class_weight_candidates(2)
    assert cands[0].mode == "balanced" and cands[1].mode == "none"
    explicit = [c.explicit for c in cands[2:]]
    assert explicit == [(0.2, 0.8), (0.4, 0.6), (0.6, 0.4), (0.8, 0.2)]


def test_class_weight_candidates_three_classes_exact_fractions():
    cands = class_weight_candidates(3)
    explicit = np.array([c.explicit for c in cands if c.mode == "explicit"])
    high, low = 2.0 / 3.0, 1.0 / 6.0
    expected = np.array([[high, low, low], [low, high, low], [low, low, high]])
    assert np.allclose(explicit, expected, atol=1e-15)
    assert np.allclose(explicit.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 11])
def test_class_weight_explicit_vectors_sum_to_one(n):
    for cand in class_weight_candidates(n):
        if cand.explicit is not None:
            assert sum(cand.explicit) == pytest.approx(1.0, abs=1e-12)


def test_grid_sizes():
    assert len(build_grid("LR", 2)) == 30       # (4 + 2) * 5
    assert len(build_grid("LR", 3)) == 25       # (3 + 2) * 5
    assert len(build_grid("LR", 7)) == 45       # (7 + 2) * 5
    assert len(build_grid("KNN", 2)) == 10
    assert len(build_grid("KNN", 9)) == 10
    assert len(build_grid("MLP", 2)) == 10


@pytest.mark.parametrize("family", ["LR", "KNN", "MLP"])
def test_default_inside_grid(family):
    assert default_model(family) in build_grid(family, 2)
    assert default_model(family) in build_grid(family, 4)


def test_default_values():
    assert default_model("LR")["C"] == 1.0
    assert default_model("LR")["class_weight"].mode == "none"
    assert default_model("KNN")["n_neighbors"] == 5
    assert default_model("KNN")["weights"] == "uniform"
    assert default_model("MLP")["alpha"] == 1e-4
    assert default_model("MLP")["learning_rate"] == "constant"


def test_class_weights_reject_inconsistent():
    with pytest.raises(ValueError):
        ClassWeights("explicit")            # missing vector
    with pytest.raises(ValueError):
        ClassWeights("none", (0.5, 0.5))    # vector without explicit mode
    with pytest.raises(ValueError):
        ClassWeights("explicit", (0.5, 0.6))  # not on the simplex


def test_hyperparams_schema_enforced():
    with pytest.raises(ValueError):
        HyperParams.make("LR", C=-1.0, class_weight=ClassWeights("none"))
    with pytest.raises(ValueError):
        HyperParams.make("KNN", n_neighbors=5, weights="quadratic")
    with pytest.raises(ValueError):
        HyperParams.make("MLP", alpha=1e-4)  # missing learning_rate


# ---------------------------------------------------------------------------
# instance weighting
# ---------------------------------------------------------------------------

def test_instance_weights_balanced():
    y = np.array([0, 0, 0, 1])
    w = ClassWeights("balanced").instance_weights(y, 2)
    # N/(n*N_j): class 0 -> 4/(2*3), class 1 -> 4/(2*1)
    assert np.allclose(w, [2 / 3, 2 / 3, 2 / 3, 2.0])


def test_instance_weights_uniform_explicit_equals_none():
    y = np.array([0, 1, 1, 0])
    none = ClassWeights("none").instance_weights(y, 2)
    uniform = ClassWeights("explicit", (0.5, 0.5)).instance_weights(y, 2)
    assert np.array_equal(none, uniform)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def test_lr_separable_blob_reaches_perfect_training_accuracy(two_blobs):
    lset = two_blobs.all_instances()
    model = train_grid("LR", [default_model("LR")], lset, [0])[0]
    assert (np.argmax(model.predict_posteriors(lset.X), axis=1)
            == lset.y).mean() == 1.0


def test_lr_zero_weights_give_uniform_posterior():
    from shiftselect.classifiers import LRModel
    hp = default_model("LR")
    model = LRModel(hp, np.zeros((3, 4)), np.zeros(4), n_classes=4, seed=0)
    post = model.predict_posteriors(np.random.default_rng(0).normal(size=(5, 3)))
    assert np.allclose(post, 0.25)


def test_lr_objective_is_convex(two_blobs):
    lset = two_blobs.all_instances()
    X, y = lset.X, lset.y
    w = ClassWeights("none").instance_weights(y, 2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        Wa, Wb = rng.normal(size=(2, 2, 2))
        ba, bb = rng.normal(size=(2, 2))
        ja = lr_loss_grad(Wa, ba, X, y, w, C=1.0)[0]
        jb = lr_loss_grad(Wb, bb, X, y, w, C=1.0)[0]
        jm = lr_loss_grad((Wa + Wb) / 2, (ba + bb) / 2, X, y, w, C=1.0)[0]
        assert jm <= (ja + jb) / 2 + 1e-9


def test_lr_uniform_explicit_matches_none_on_balanced_data(two_blobs):
    lset = two_blobs.all_instances()
    hp_none = HyperParams.make("LR", C=1.0, class_weight=ClassWeights("none"))
    hp_unif = HyperParams.make("LR", C=1.0,
                               class_weight=ClassWeights("explicit", (0.5, 0.5)))
    m1 = train_grid("LR", [hp_none], lset, [0])[0]
    m2 = train_grid("LR", [hp_unif], lset, [0])[0]
    assert np.allclose(m1.W, m2.W, atol=1e-12)
    assert np.allclose(m1.b, m2.b, atol=1e-12)


def _relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def _numeric_grad(f, x, eps=1e-5):
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def test_lr_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, size=30)
    w = rng.uniform(0.5, 2.0, size=30)
    for _ in range(10):
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        _, gW, gb = lr_loss_grad(W, b, X, y, w, C=0.7)
        fdW = _numeric_grad(lambda: lr_loss_grad(W, b, X, y, w, C=0.7)[0], W)
        fdb = _numeric_grad(lambda: lr_loss_grad(W, b, X, y, w, C=0.7)[0], b)
        assert _relative_error(gW, fdW) < 1e-4
        assert _relative_error(gb, fdb) < 1e-4


def test_lr_hessian_vector_matches_finite_differences():
    # central differences of the analytic gradient along the direction
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, size=30)
    w = rng.uniform(0.5, 2.0, size=30)
    eps = 1e-5
    for _ in range(10):
        W, V = rng.normal(size=(2, 4, 3))
        b, v = rng.normal(size=(2, 3))
        HW, Hb = lr_hessian_vector(softmax(X @ W + b), X, w, 0.7, V, v)
        _, gW_hi, gb_hi = lr_loss_grad(W + eps * V, b + eps * v, X, y, w, C=0.7)
        _, gW_lo, gb_lo = lr_loss_grad(W - eps * V, b - eps * v, X, y, w, C=0.7)
        assert _relative_error(HW, (gW_hi - gW_lo) / (2 * eps)) < 1e-4
        assert _relative_error(Hb, (gb_hi - gb_lo) / (2 * eps)) < 1e-4


def test_lr_training_meets_the_gradient_tolerance_in_the_class_subspace():
    # three overlapping classes plus a one-hot pair of columns, every grid
    # point (C from 0.01 to 100, every class-weight scheme)
    ds = blob_dataset([60, 30, 45], [(0.0, 0.0), (1.5, 0.0), (0.5, 1.5)],
                      spread=1.0, seed=3)
    hot = (ds.features[:, 0] > 0.5).astype(float)
    X = np.column_stack([ds.features, hot, 1.0 - hot])
    lset = Dataset(X, ds.labels, 3).all_instances()
    grid = build_grid("LR", 3)
    for hp, model in zip(grid, train_grid("LR", grid, lset, range(len(grid)))):
        sw = hp["class_weight"].instance_weights(lset.y, 3)
        _, gW, gb = lr_loss_grad(model.W, model.b, X, lset.y, sw, hp["C"])
        assert max(np.abs(gW).max(), np.abs(gb).max()) < LR_GRAD_TOL
        assert model.meta["converged"]
        assert 0 < model.meta["iterations"] < classifiers.LR_MAX_ITER
        assert model.meta["cg_iterations"] >= model.meta["iterations"]
        # the softmax ignores a shift shared by the classes, and from zero
        # the weights never take one
        assert np.abs(model.W.sum(axis=1)).max() < 1e-12
        assert abs(model.b.sum()) < 1e-12


def test_lr_stopped_at_the_step_cap_is_flagged(two_blobs, monkeypatch):
    monkeypatch.setattr(classifiers, "LR_MAX_ITER", 1)
    model = train_grid("LR", [default_model("LR")], two_blobs.all_instances(),
                       [0])[0]
    assert model.meta["iterations"] == 1
    assert model.meta["converged"] is False


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12)
    for _ in range(10):
        params = [rng.normal(size=(3, 5)), rng.normal(size=5),
                  rng.normal(size=(5, 2)), rng.normal(size=2)]
        _, grads = mlp_loss_grad(params, X, y, 2, alpha=1e-3)
        for p, g in zip(params, grads):
            fd = _numeric_grad(
                lambda: mlp_loss_grad(params, X, y, 2, alpha=1e-3)[0], p)
            assert _relative_error(g, fd) < 1e-4


# ---------------------------------------------------------------------------
# knn
# ---------------------------------------------------------------------------

def test_knn_unanimous_vote():
    ds = blob_dataset([10, 10], [(0.0,), (100.0,)], spread=0.1, seed=1)
    model = train_grid("KNN", [default_model("KNN")], ds.all_instances(),
                       [0])[0]
    post = model.predict_posteriors(np.array([[100.0]]))
    assert np.allclose(post, [[0.0, 1.0]])


def test_knn_training_accuracy_beats_majority_baseline():
    ds = blob_dataset([30, 15], [(0.0, 0.0), (2.5, 2.5)], spread=0.8, seed=2)
    lset = ds.all_instances()
    model = train_grid("KNN", [default_model("KNN")], lset, [0])[0]
    acc = (np.argmax(model.predict_posteriors(lset.X), axis=1)
           == lset.y).mean()
    majority = max(np.bincount(lset.y)) / len(lset)
    assert acc >= majority


def test_knn_distance_weights_handle_duplicate_points():
    hp = HyperParams.make("KNN", n_neighbors=3, weights="distance")
    X = np.array([[0.0], [0.0], [5.0], [6.0]])
    y = np.array([0, 0, 1, 1])
    ds = Dataset(X, y, 2)
    model = train_grid("KNN", [hp], ds.all_instances(), [0])[0]
    post = model.predict_posteriors(np.array([[0.0]]))   # exact duplicates
    assert np.isfinite(post).all()
    assert post[0, 0] > 0.99


def _reference_knn_posteriors(model, X):
    """One KNN model's posteriors, written out in full: the distance matrix,
    its stable order and the vote of the first k neighbours."""
    Xt = model.X_train
    d2 = (X * X).sum(axis=1)[:, None] + (Xt * Xt).sum(axis=1)[None, :] \
        - 2.0 * X @ Xt.T
    np.maximum(d2, 0.0, out=d2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :model.hyperparams["n_neighbors"]]
    if model.hyperparams["weights"] == "uniform":
        w = np.ones(order.shape)
    else:
        w = 1.0 / (np.sqrt(np.take_along_axis(d2, order, axis=1)) + KNN_DIST_EPS)
    labels = model.y_train[order]
    P = np.zeros((X.shape[0], model.n_classes))
    for j in range(model.n_classes):
        P[:, j] = np.where(labels == j, w, 0.0).sum(axis=1)
    return P / P.sum(axis=1, keepdims=True)


def _lattice(rng, n):
    """Integer points, so duplicates and equidistant neighbours are common;
    alternating labels keep both classes present."""
    X = rng.integers(-2, 3, size=(n, 2)).astype(float)
    return Dataset(X, np.arange(n) % 2, 2).all_instances()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 8),
       n=st.integers(1, 60), k=st.integers(1, 70),
       levels=st.sampled_from([1, 2, 5, 1000]))
def test_nearest_order_is_the_stable_argsort_prefix(seed, m, n, k, levels):
    # few distinct distances make long runs of ties, across the k-th one too
    d2 = np.random.default_rng(seed).integers(0, levels, size=(m, n)) * 0.25
    full = np.argsort(d2, axis=1, kind="stable")[:, :k]
    assert np.array_equal(nearest_order(d2, k)[:, :k], full)


@pytest.fixture(scope="module")
def smooth_models(two_blobs):
    lset = two_blobs.all_instances()
    return [train_grid(fam, [default_model(fam)], lset, [5])[0]
            for fam in ("LR", "MLP")]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(2, 9),
       n_b=st.integers(2, 9),
       knn=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 12),
                              st.sampled_from(("uniform", "distance")),
                              st.booleans()),
                    min_size=1, max_size=6))
def test_batch_posteriors_equal_per_model_calls(smooth_models, seed, n_a, n_b,
                                                knn):
    rng = np.random.default_rng(seed)
    sets = (_lattice(rng, n_a), _lattice(rng, n_b))
    models = list(smooth_models)
    for which, k, weights, reload in knn:
        hp = HyperParams.make("KNN", n_neighbors=k, weights=weights)
        model = train_grid("KNN", [hp], sets[which], [0])[0]
        # a reloaded model holds its own copy of the training set
        models.append(model_from_record(model_to_record(model)) if reload else model)
    models = [models[i] for i in rng.permutation(len(models))]
    X = np.vstack([rng.integers(-3, 4, size=(6, 2)).astype(float),
                   sets[0].X[:2]])
    batch = predict_posteriors_batch(models, X)
    assert np.array_equal(batch, np.stack([m.predict_posteriors(X) for m in models]))
    for m, P in zip(models, batch):
        if m.family == "KNN":
            assert np.array_equal(P, _reference_knn_posteriors(m, X))


def test_knn_rows_on_wide_data_equal_one_batch():
    # 20 features, 300 training rows: with the queries along the rows of the
    # distance product, BLAS sums the ragged tail of training columns
    # differently per query count; queries next to the last training rows
    # make that tail the nearest neighbours, whose distances set the votes
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 20))
    lset = Dataset(X, np.arange(300) % 3, 3).all_instances()
    models = [train_grid("KNN", [HyperParams.make("KNN", n_neighbors=k,
                                                  weights="distance")],
                         lset, [0])[0]
              for k in (5, 13)]
    Q = X[-40:] + rng.normal(scale=0.01, size=(40, 20))
    whole = predict_posteriors_batch(models, Q)
    for i in range(len(Q)):
        assert np.array_equal(predict_posteriors_batch(models, Q[i:i + 1]),
                              whole[:, i:i + 1]), i


@pytest.mark.parametrize("n_features", [2, 20, 64])
def test_mlp_rows_on_wide_data_equal_one_batch(n_features):
    # with the rows along the rows of the first-layer product, BLAS sums each
    # row against the 100 hidden units differently per row count from 20
    # features on; a bag of 100 rows and single rows must equal their rows
    # of a 600-row batch
    rng = np.random.default_rng(n_features)
    params = [rng.normal(size=(n_features, MLP_HIDDEN_UNITS)),
              rng.normal(size=MLP_HIDDEN_UNITS),
              rng.normal(size=(MLP_HIDDEN_UNITS, 3)), rng.normal(size=3)]
    model = MLPModel(default_model("MLP"), *params, 3, seed=0)
    X = rng.normal(size=(600, n_features))
    whole = model.predict_posteriors(X)
    for lo in (0, 100, 437):
        assert np.array_equal(model.predict_posteriors(X[lo:lo + 100]),
                              whole[lo:lo + 100]), lo
    for i in range(0, 600, 37):
        assert np.array_equal(model.predict_posteriors(X[i:i + 1]),
                              whole[i:i + 1]), i


@pytest.mark.parametrize("panels", [1, 7])
@pytest.mark.parametrize("m", [1, 9, 600])
def test_knn_chunks_equal_one_pass(two_blobs, monkeypatch, m, panels):
    # chunks of `panels` BLAS panels: 9 rows leave a ragged last chunk at one
    # panel, 600 rows at seven
    lset = two_blobs.all_instances()
    models = [train_grid("KNN", [HyperParams.make("KNN", n_neighbors=k,
                                                  weights=w)], lset, [0])[0]
              for k in (5, 13) for w in ("uniform", "distance")]
    X = np.random.default_rng(m).normal(2.0, 2.0, size=(m, 2))
    monkeypatch.setattr(classifiers, "KNN_CHUNK_ELEMENTS", 1 << 40)
    whole = predict_posteriors_batch(models, X)
    monkeypatch.setattr(classifiers, "KNN_CHUNK_ELEMENTS",
                        panels * BLAS_PANEL * len(lset))
    assert np.array_equal(predict_posteriors_batch(models, X), whole)


# ---------------------------------------------------------------------------
# shared prediction contracts
# ---------------------------------------------------------------------------

def _trained_models(dataset):
    lset = dataset.all_instances()
    return [train_grid(fam, [default_model(fam)], lset, [5])[0]
            for fam in ("LR", "KNN", "MLP")]


def test_posterior_rows_sum_to_one(two_blobs):
    rng = np.random.default_rng(11)
    queries = rng.normal(scale=3.0, size=(50, 2))
    for model in _trained_models(two_blobs):
        post = model.predict_posteriors(queries)
        assert post.shape == (50, 2)
        assert (post >= 0).all()
        assert np.abs(post.sum(axis=1) - 1.0).max() < 1e-9


def test_labels_equal_argmax_of_posteriors(two_blobs):
    rng = np.random.default_rng(12)
    queries = rng.normal(scale=3.0, size=(100, 2))
    for model in _trained_models(two_blobs):
        post = model.predict_posteriors(queries)
        assert np.array_equal(
            np.argmax(model.predict_posteriors(queries), axis=1),
            np.argmax(post, axis=1))


def test_argmax_tie_breaks_to_lowest_index():
    assert np.argmax(np.array([0.5, 0.5])) == 0
    assert np.argmax(np.array([0.2, 0.8])) == 1
    from shiftselect.classifiers import LRModel
    model = LRModel(default_model("LR"), np.zeros((2, 2)), np.zeros(2),
                    n_classes=2, seed=0)
    # uniform posteriors
    labels = np.argmax(model.predict_posteriors(np.ones((4, 2))), axis=1)
    assert (labels == 0).all()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_argmax_rows_equals_numpy_on_stacks_and_exact_ties(n):
    rng = np.random.default_rng(n)
    stacks = [rng.dirichlet(np.ones(n), size=(45, 100)),
              rng.integers(0, 3, size=(6, 40, n)) / 2.0,   # ties in most rows
              np.full((2, 3, n), 1.0 / n)]                 # every column tied
    for P in stacks:
        assert np.array_equal(classifiers.argmax_rows(P), np.argmax(P, axis=2))
    assert (classifiers.argmax_rows(stacks[-1]) == 0).all()


def test_dimension_mismatch_rejected(two_blobs):
    for model in _trained_models(two_blobs):
        with pytest.raises(ValueError):
            model.predict_posteriors(np.zeros((3, 5)))


def test_training_determinism(two_blobs):
    lset = two_blobs.all_instances()
    for family in ("LR", "MLP"):
        m1 = train_grid(family, [default_model(family)], lset, [123])[0]
        m2 = train_grid(family, [default_model(family)], lset, [123])[0]
        if family == "LR":
            assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.b, m2.b)
        else:
            assert np.array_equal(m1.W1, m2.W1) and np.array_equal(m1.W2, m2.W2)


def test_mlp_diverges_with_huge_penalty_raises(two_blobs):
    hp = HyperParams.make("MLP", alpha=1e8, learning_rate="constant")
    err = train_grid("MLP", [hp], two_blobs.all_instances(), [0])[0]
    assert isinstance(err, TrainingError)
    assert err.last_state is not None


def _assert_same_mlp(a, b):
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.meta == b.meta
    assert (a.hyperparams, a.seed) == (b.hyperparams, b.seed)


@pytest.mark.parametrize("case", ["full grid", "shuffled subset", "one point",
                                  "n < 32", "adaptive stop"])
def test_mlp_stack_equals_solo_training(case, two_blobs):
    lset = two_blobs.all_instances()        # 80 rows: a partial last batch
    grid = build_grid("MLP", 2)
    seeds = list(range(100, 100 + len(grid)))
    if case == "shuffled subset":
        pick = np.random.default_rng(7).permutation(len(grid))[:5]
        grid, seeds = [grid[i] for i in pick], [seeds[i] for i in pick]
    elif case == "one point":
        grid, seeds = grid[3:4], seeds[3:4]
    elif case == "n < 32":                  # one partial batch per epoch
        lset = blob_dataset([10, 10], [(0.0, 0.0), (1.0, 1.0)], spread=1.0,
                            seed=2).all_instances()
    elif case == "adaptive stop":           # overlapping classes plateau early
        lset = blob_dataset([30, 30], [(0.0, 0.0), (0.5, 0.5)], spread=1.0,
                            seed=1).all_instances()
    stacked = train_grid("MLP", grid, lset, seeds)
    for hp, seed, model in zip(grid, seeds, stacked, strict=True):
        _assert_same_mlp(model, train_grid("MLP", [hp], lset, [seed])[0])
    if case == "adaptive stop":
        stopped = [m for m in stacked if m.meta["epochs"] < MLP_MAX_EPOCHS]
        assert stopped and all(m.meta["final_step"] < MLP_MIN_STEP
                               and m.hyperparams["learning_rate"] == "adaptive"
                               for m in stopped)
        assert any(m.meta["epochs"] == MLP_MAX_EPOCHS for m in stacked)


def _reference_mlp(hp, lset, seed):
    """One network trained by the scalar loop with 2-D gradients: the
    reference the stack must reproduce bit for bit."""
    X, y = lset.X, lset.y
    alpha, adaptive = hp["alpha"], hp["learning_rate"] == "adaptive"
    rng = np.random.default_rng(seed)
    W1 = rng.standard_normal((X.shape[1], 100)) / np.sqrt(X.shape[1])
    W2 = rng.standard_normal((100, lset.n_classes)) / np.sqrt(100)
    params = [W1, np.zeros(100), W2, np.zeros(lset.n_classes)]
    step, prev, epochs = 1e-2, np.inf, 0
    for epoch in range(1, MLP_MAX_EPOCHS + 1):
        if step < MLP_MIN_STEP:
            break
        order = rng.permutation(len(y))
        for start in range(0, len(y), 32):
            rows = order[start:start + 32]
            W1, b1, W2, b2 = params
            H = np.tanh(X[rows] @ W1 + b1)
            logits = H @ W2 + b2
            z = logits - logits.max(axis=1, keepdims=True)
            delta2 = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
            delta2[np.arange(len(rows)), y[rows]] -= 1.0
            delta2 /= len(rows)
            delta1 = (delta2 @ W2.T) * (1.0 - H * H)
            grads = (X[rows].T @ delta1 + alpha * W1, delta1.sum(axis=0),
                     H.T @ delta2 + alpha * W2, delta2.sum(axis=0))
            for p, g in zip(params, grads):
                p -= step * g
        epochs = epoch
        loss = mlp_loss_grad(params, X, y, lset.n_classes, alpha)[0]
        if adaptive and prev - loss < 1e-4:
            step *= 0.5
        prev = loss
    return params, {"epochs": epochs, "final_loss": float(loss),
                    "final_step": step}


def test_mlp_stack_equals_reference_loop():
    # overlapping classes: the adaptive points stop early; 60 rows end each
    # epoch on a partial batch
    lset = blob_dataset([30, 30], [(0.0, 0.0), (0.5, 0.5)], spread=1.0,
                        seed=1).all_instances()
    grid = build_grid("MLP", 2)
    for i, model in enumerate(train_grid("MLP", grid, lset, range(10))):
        params, meta = _reference_mlp(grid[i], lset, i)
        for got, want in zip((model.W1, model.b1, model.W2, model.b2), params):
            assert np.array_equal(got, want)
        assert model.meta == meta


def test_mlp_divergence_stays_in_its_entry(two_blobs, monkeypatch):
    from shiftselect import selection
    lset = two_blobs.all_instances()
    grid = [HyperParams.make("MLP", alpha=1e-4, learning_rate="constant"),
            HyperParams.make("MLP", alpha=1e8, learning_rate="constant"),
            HyperParams.make("MLP", alpha=1e-2, learning_rate="adaptive")]
    seeds = [0, 1, 2]
    results = train_grid("MLP", grid, lset, seeds)
    assert [isinstance(r, TrainingError) for r in results] == [False, True, False]
    solo = train_grid("MLP", [grid[1]], lset, [seeds[1]])[0]
    assert isinstance(solo, TrainingError)
    for got, want in zip(results[1].last_state["params"],
                         solo.last_state["params"], strict=True):
        assert np.array_equal(got, want)
    assert results[1].last_state["epoch"] == solo.last_state["epoch"]
    for i in (0, 2):
        _assert_same_mlp(results[i],
                         train_grid("MLP", [grid[i]], lset, [seeds[i]])[0])

    monkeypatch.setattr(selection, "build_grid",
                        lambda family, n_classes: grid)
    reg = selection.build_registry(("MLP",), lset, lset, seed=0)
    assert [e.model_id for e in reg.entries] == [0, 2]
    assert len(reg.warnings) == 1
    assert reg.warnings[0].startswith("model 1 (MLP[alpha=100000000.0")


def test_mlp_grid_trains_the_same_in_one_or_two_processes(two_blobs,
                                                         monkeypatch):
    lset = two_blobs.all_instances()
    grid = build_grid("MLP", 2)
    seeds = list(range(len(grid)))
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda cpus=cpus: cpus)
        assert parallel.worker_count(len(grid)) == cpus
        workers = {}
        runs.append(train_grid("MLP", grid, lset, seeds, workers=workers))
        assert workers == {"MLP": cpus}
    for a, b in zip(*runs, strict=True):
        _assert_same_mlp(a, b)


def test_mlp_divergence_in_a_worker_keeps_its_last_state(two_blobs,
                                                         monkeypatch):
    # two processes: points 0 and 1 train here, the diverging point 2 in
    # the forked worker
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    lset = two_blobs.all_instances()
    grid = [HyperParams.make("MLP", alpha=1e-4, learning_rate="constant"),
            HyperParams.make("MLP", alpha=1e-2, learning_rate="adaptive"),
            HyperParams.make("MLP", alpha=1e8, learning_rate="constant")]
    results = train_grid("MLP", grid, lset, [0, 1, 2])
    solo = train_grid("MLP", [grid[2]], lset, [2])[0]
    assert isinstance(results[2], TrainingError)
    assert isinstance(solo, TrainingError)
    assert str(results[2]) == str(solo)
    assert results[2].last_state["epoch"] == solo.last_state["epoch"]
    for got, want in zip(results[2].last_state["params"],
                         solo.last_state["params"], strict=True):
        assert np.array_equal(got, want)
    for i in (0, 1):
        _assert_same_mlp(results[i], train_grid("MLP", [grid[i]], lset, [i])[0])


def test_mlp_gather_chunks_equal_one_chunk(two_blobs, monkeypatch):
    # a budget of one value per chunk leaves one whole batch per chunk
    lset = two_blobs.all_instances()        # 80 rows: a partial last batch
    grid, seeds = build_grid("MLP", 2)[:4], [0, 1, 2, 3]
    one_chunk = train_grid("MLP", grid, lset, seeds)
    monkeypatch.setattr(classifiers, "MLP_CHUNK_ELEMENTS", 1)
    for a, b in zip(one_chunk, train_grid("MLP", grid, lset, seeds),
                    strict=True):
        _assert_same_mlp(a, b)


def test_training_error_survives_pickle():
    params = [np.arange(3.0), np.ones((2, 2))]
    err = pickle.loads(pickle.dumps(TrainingError(
        "non-finite loss", last_state={"params": params, "epoch": 7})))
    assert type(err) is TrainingError and str(err) == "non-finite loss"
    assert err.last_state["epoch"] == 7
    for got, want in zip(err.last_state["params"], params, strict=True):
        assert np.array_equal(got, want)


class _Failure(Exception):
    pass


@pytest.mark.parametrize("where", ["caller", "worker", "worker exits"])
def test_mlp_workers_are_joined_and_their_failures_raised(where, two_blobs,
                                                          monkeypatch,
                                                          deadline):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    lset = two_blobs.all_instances()
    grid, seeds = build_grid("MLP", 2)[:2], [0, 1]
    assert len(train_grid("MLP", grid, lset, seeds)) == 2
    assert multiprocessing.active_children() == []
    caller, real = os.getpid(), classifiers._train_mlp

    def failing(hps, train_set, seeds):
        if (os.getpid() == caller) == (where == "caller"):
            if where == "worker exits":
                os._exit(3)
            raise _Failure(where)
        return real(hps, train_set, seeds)
    monkeypatch.setattr(classifiers, "_train_mlp", failing)
    expected = ((RuntimeError, "exited with code 3") if where == "worker exits"
                else (_Failure, where))
    with pytest.raises(expected[0], match=expected[1]), deadline(60):
        train_grid("MLP", grid, lset, seeds)
    assert multiprocessing.active_children() == []


def test_mlp_grid_forks_no_worker_beside_other_threads(two_blobs,
                                                       monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    assert parallel.worker_count(10) == 2
    assert parallel.worker_count(1) == 1
    lset = two_blobs.all_instances()
    grid, seeds = build_grid("MLP", 2)[:2], [0, 1]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert parallel.worker_count(10) == 1
        workers = {}
        train_grid("MLP", grid, lset, seeds, workers=workers)
        assert workers == {"MLP": 1}
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def _no_bound(params, alpha, x_norm):
    return np.zeros(len(alpha), dtype=bool)


def test_mlp_loss_skip_is_exact(two_blobs, monkeypatch):
    # the default grid, and a constant-rate network that diverges, train bit
    # for bit as when every epoch computes its loss
    lset = two_blobs.all_instances()
    grid = build_grid("MLP", 2) + [
        HyperParams.make("MLP", alpha=1e8, learning_rate="constant")]
    seeds = list(range(len(grid)))
    skipped = train_grid("MLP", grid, lset, seeds)
    assert isinstance(skipped[-1], TrainingError)
    monkeypatch.setattr(classifiers, "_mlp_loss_surely_finite", _no_bound)
    every_epoch = train_grid("MLP", grid, lset, seeds)
    for a, b in zip(skipped[:-1], every_epoch[:-1], strict=True):
        _assert_same_mlp(a, b)
    a, b = skipped[-1].last_state, every_epoch[-1].last_state
    assert a["epoch"] == b["epoch"]
    for p, q in zip(a["params"], b["params"], strict=True):
        assert np.array_equal(p, q)


def test_mlp_loss_skips_only_where_the_bound_holds(two_blobs, monkeypatch):
    lset = two_blobs.all_instances()
    constant = HyperParams.make("MLP", alpha=1e-4, learning_rate="constant")
    calls = []
    real_loss = classifiers._mlp_loss
    monkeypatch.setattr(classifiers, "_mlp_loss",
                        lambda *a: calls.append(1) or real_loss(*a))
    train_grid("MLP", [constant], lset, [0])
    assert len(calls) == 1                  # after the last epoch alone

    # output biases of +-1e306: logits and loss finite, yet past the bound
    real_init = classifiers._init_mlp

    def large_init(rng, n_features, n_classes):
        W1, b1, W2, b2 = real_init(rng, n_features, n_classes)
        return [W1, b1, W2, np.array([1e306, -1e306])]
    monkeypatch.setattr(classifiers, "_init_mlp", large_init)
    calls.clear()
    model = train_grid("MLP", [constant], lset, [0])[0]
    assert len(calls) == MLP_MAX_EPOCHS
    assert 1e300 < model.meta["final_loss"] < np.inf
    monkeypatch.setattr(classifiers, "_mlp_loss_surely_finite", _no_bound)
    _assert_same_mlp(model, train_grid("MLP", [constant], lset, [0])[0])


def test_mlp_loss_bound_rejects_large_and_non_finite_weights():
    rng = np.random.default_rng(0)
    params = [rng.normal(size=(1, 2, MLP_HIDDEN_UNITS)),
              rng.normal(size=(1, MLP_HIDDEN_UNITS)),
              rng.normal(size=(1, MLP_HIDDEN_UNITS, 3)), rng.normal(size=(1, 3))]
    alpha = np.array([1e-4])
    bound = classifiers._mlp_loss_surely_finite
    assert bound(params, alpha, 3.0).all()
    # too large for the hidden units, the logits or the penalty; not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for p, value in ((0, 1e160), (1, 1e301), (3, 6e299), (2, 1e160),
                         (3, np.inf), (0, np.nan), (2, -np.inf)):
            bad = [q.copy() for q in params]
            bad[p].flat[0] = value
            assert not bound(bad, alpha, 3.0).any(), (p, value)
        assert not bound(params, alpha, np.inf).any()
        assert not bound(params, np.array([1e300]), 3.0).any()


def test_train_grid_rejects_mismatched_inputs(two_blobs):
    lset = two_blobs.all_instances()
    grid = build_grid("MLP", 2)[:2]
    with pytest.raises(ValueError):
        train_grid("MLP", grid, lset, [0])
    with pytest.raises(ValueError):
        train_grid("LR", grid, lset, [0, 1])


def test_train_requires_all_classes(two_blobs):
    from shiftselect.dataspace import LabelledSet
    only_zero = np.nonzero(two_blobs.labels == 0)[0]
    lset = LabelledSet(two_blobs, only_zero)
    with pytest.raises(ValueError):
        train_grid("LR", [default_model("LR")], lset, [0])[0]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_model_records_round_trip_bit_exact(two_blobs):
    lset = two_blobs.all_instances()
    rng = np.random.default_rng(13)
    queries = rng.normal(size=(20, 2))
    for family in ("LR", "KNN", "MLP"):
        model = train_grid(family, [default_model(family)], lset, [99])[0]
        loaded = model_from_record(json.loads(json.dumps(model_to_record(model))))
        assert loaded.family == model.family
        assert loaded.hyperparams == model.hyperparams
        assert loaded.n_classes == model.n_classes
        assert loaded.seed == model.seed
        assert np.array_equal(loaded.predict_posteriors(queries),
                              model.predict_posteriors(queries))


def test_record_arrays_are_little_endian_floats(two_blobs):
    model = train_grid("LR", [default_model("LR")], two_blobs.all_instances(),
                       [0])[0]
    rec = model_to_record(model)
    assert rec["format_version"] == 1
    assert rec["arrays"]["W"]["dtype"] == "<f8"
    clone = model_from_record(rec)
    assert np.array_equal(clone.W, model.W)
    assert clone.W.dtype == np.float64
