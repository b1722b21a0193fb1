"""Classifier zoo: multinomial logistic regression, k-nearest neighbours and a
one-hidden-layer MLP, plus hyperparameter grid construction (including the
class-weight schemes) and JSON model records.

All three families are trained from scratch on numpy so that the training
objective, the optimizer, and the analytic gradients are fully pinned down and
testable against finite differences. Models are immutable after training.
:func:`train_grid` fits the grid points of one family on one training set and
returns a model or a `TrainingError` per point; the MLP points train as one
stack per usable CPU (:func:`parallel.fork_map`), with one stacked minibatch
step per batch, and each equals the point trained alone (a one-point grid)
bit for bit.
:func:`predict_posteriors_batch` asks many models for posteriors on the same
rows; KNN models with equal training sets share one neighbour search there.
A posterior row is bit-identical whatever other rows it is predicted with
(see :func:`panel_rows`). A model record names its family, and
:data:`MODEL_TYPES` maps that to the class whose `arrays` it saves.
"""

from __future__ import annotations

import base64
from dataclasses import asdict, dataclass

import numpy as np

from .dataspace import LabelledSet, as_prevalence
from .parallel import fork_map

FAMILIES = ("LR", "KNN", "MLP")

LR_C_GRID = (1e-2, 1e-1, 1e0, 1e1, 1e2)
KNN_K_GRID = (5, 7, 9, 11, 13)
KNN_WEIGHT_MODES = ("uniform", "distance")
MLP_ALPHA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
MLP_LEARNING_RATE_MODES = ("constant", "adaptive")

MLP_HIDDEN_UNITS = 100
MLP_BATCH_SIZE = 32
MLP_BASE_STEP = 1e-2
MLP_MAX_EPOCHS = 200
MLP_MIN_STEP = 1e-6
MLP_IMPROVE_TOL = 1e-4
MLP_LOSS_CEILING = 1e300    # see _mlp_loss_surely_finite

LR_GRAD_TOL = 1e-5
LR_MAX_ITER = 50        # Newton steps
LR_MAX_HALVINGS = 40    # of the Newton step, in its line search

KNN_DIST_EPS = 1e-9

BLAS_PANEL = 8      # rows per BLAS panel (see panel_rows)
KNN_CHUNK_ELEMENTS = 1 << 20   # distances per chunk of query rows (8 MiB)
MLP_CHUNK_ELEMENTS = 1 << 20   # gathered rows' values per chunk of an MLP epoch

FORMAT_VERSION = 1


class TrainingError(RuntimeError):
    """Training hit a non-finite loss; carries the last finite state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class ClassWeights:
    """Per-class balancing scheme: 'balanced', 'none', or an explicit simplex point."""

    mode: str
    explicit: tuple = None

    def __post_init__(self):
        if self.mode not in ("balanced", "none", "explicit"):
            raise ValueError(f"unknown class-weight mode {self.mode!r}")
        if (self.mode == "explicit") != (self.explicit is not None):
            raise ValueError("explicit vector present iff mode == 'explicit'")
        if self.explicit is not None:
            vec = tuple(float(v) for v in self.explicit)
            as_prevalence(vec)
            object.__setattr__(self, "explicit", vec)

    def instance_weights(self, y: np.ndarray, n_classes: int) -> np.ndarray:
        """Per-instance training weights.

        balanced: N / (n * N_j); none: 1; explicit v: n * v_j, so the uniform
        vector reproduces 'none'.
        """
        counts = np.bincount(y, minlength=n_classes).astype(float)
        if self.mode == "none":
            per_class = np.ones(n_classes)
        elif self.mode == "balanced":
            per_class = len(y) / (n_classes * np.maximum(counts, 1.0))
        else:
            per_class = n_classes * np.asarray(self.explicit, dtype=float)
        return per_class[y]


BALANCED = ClassWeights("balanced")
UNWEIGHTED = ClassWeights("none")


@dataclass(frozen=True)
class HyperParams:
    """One grid point: a family tag plus its named parameter values."""

    family: str
    values: tuple  # sorted (key, value) pairs

    @classmethod
    def make(cls, family, **kwargs):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        expected = _GRID_SCHEMA[family]
        if set(kwargs) != set(expected):
            raise ValueError(
                f"{family} expects parameters {sorted(expected)}, got {sorted(kwargs)}")
        for key, check in expected.items():
            if not check(kwargs[key]):
                raise ValueError(f"invalid value {kwargs[key]!r} for {family}.{key}")
        return cls(family, tuple(sorted(kwargs.items())))

    def __getitem__(self, key):
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)

    def label(self) -> str:
        parts = []
        for k, v in self.values:
            if isinstance(v, ClassWeights):
                v = v.mode if v.explicit is None else "(" + ",".join(f"{x:g}" for x in v.explicit) + ")"
            parts.append(f"{k}={v}")
        return f"{self.family}[{', '.join(parts)}]"


_GRID_SCHEMA = {
    "LR": {
        "C": lambda v: isinstance(v, (int, float)) and v > 0,
        "class_weight": lambda v: isinstance(v, ClassWeights),
    },
    "KNN": {
        "n_neighbors": lambda v: isinstance(v, int) and v >= 1,
        "weights": lambda v: v in KNN_WEIGHT_MODES,
    },
    "MLP": {
        "alpha": lambda v: isinstance(v, (int, float)) and v >= 0,
        "learning_rate": lambda v: v in MLP_LEARNING_RATE_MODES,
    },
}


def class_weight_candidates(n_classes: int):
    """Class-weight grid: balanced, none, then the explicit simplex points.

    For two classes the explicit points are (g, 1-g) for g in
    (0.2, 0.4, 0.6, 0.8); for more classes, one point per class with 2/n on
    that class and (1 - 2/n)/(n - 1) on the rest.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    candidates = [BALANCED, UNWEIGHTED]
    if n_classes == 2:
        for pair in ((0.2, 0.8), (0.4, 0.6), (0.6, 0.4), (0.8, 0.2)):
            candidates.append(ClassWeights("explicit", pair))
    else:
        high = 2.0 / n_classes
        low = (1.0 - high) / (n_classes - 1)
        for j in range(n_classes):
            vec = [low] * n_classes
            vec[j] = high
            candidates.append(ClassWeights("explicit", tuple(vec)))
    return candidates


def build_grid(family: str, n_classes: int):
    """Full Cartesian hyperparameter grid for one family."""
    if family == "LR":
        return [HyperParams.make("LR", C=C, class_weight=cw)
                for cw in class_weight_candidates(n_classes)
                for C in LR_C_GRID]
    if family == "KNN":
        return [HyperParams.make("KNN", n_neighbors=k, weights=w)
                for k in KNN_K_GRID
                for w in KNN_WEIGHT_MODES]
    if family == "MLP":
        return [HyperParams.make("MLP", alpha=a, learning_rate=lr)
                for a in MLP_ALPHA_GRID
                for lr in MLP_LEARNING_RATE_MODES]
    raise ValueError(f"unknown family {family!r}")


def default_model(family: str) -> HyperParams:
    """The default configuration of each family (a member of its grid)."""
    if family == "LR":
        return HyperParams.make("LR", C=1.0, class_weight=UNWEIGHTED)
    if family == "KNN":
        return HyperParams.make("KNN", n_neighbors=5, weights="uniform")
    if family == "MLP":
        return HyperParams.make("MLP", alpha=1e-4, learning_rate="constant")
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Numerics shared by the models and the quantifiers
# ---------------------------------------------------------------------------

def max_rows(X: np.ndarray) -> np.ndarray:
    """X.max(axis=-1, keepdims=True), as one np.maximum per column: numpy
    reduces a short last axis with one inner loop per row, which costs more
    than the arithmetic. A max is exact: the result equals X.max, a NaN
    propagating, though a max of zeros of both signs may take either sign."""
    top = X[..., :1]
    for j in range(1, X.shape[-1]):
        top = np.maximum(top, X[..., j:j + 1])
    return top


def argmax_rows(X: np.ndarray) -> np.ndarray:
    """np.argmax(X, axis=-1), folded over the columns like :func:`max_rows`:
    the lowest column equal to the row's max. A row holding a NaN takes
    np.argmax itself, which points at its first NaN."""
    top = max_rows(X)[..., 0]
    labels = np.full(top.shape, X.shape[-1] - 1)
    for j in range(X.shape[-1] - 2, -1, -1):
        labels = np.where(X[..., j] == top, j, labels)
    nan = np.isnan(top)
    if nan.any():
        labels[nan] = np.argmax(X[nan], axis=-1)
    return labels


def panel_rows(X: np.ndarray) -> np.ndarray:
    """X zero-padded to a whole number of BLAS_PANEL rows (X itself when it
    has one). Slice the product back to len(X) rows (or columns).

    BLAS sums a product's rows in another order when they fall in a ragged
    last panel, or when there is one row (a matrix-vector product). With the
    padding, a bag labelled on its own gets the posteriors and KDE rows that
    the test-set caches hold for its rows wherever the kernel's order of
    summation depends on nothing else. Checked on OpenBLAS (Haswell kernels):
    each column of ``A @ panel_rows(X).T`` (the KNN distances, the KDE and
    the MLP's first layer, ``W1.T @ panel_rows(X).T``) at 2-512 features and
    300-1,001 rows of A (2-64 features against the MLP's 100 hidden units),
    and each row of ``panel_rows(X) @ W`` for the LR weights and the MLP's
    output layer. The row layout ``panel_rows(X) @ W1`` is not exact against
    the 100 hidden units at 20 or more features."""
    padded = -(-len(X) // BLAS_PANEL) * BLAS_PANEL
    if padded == len(X):
        return X
    out = np.zeros((padded,) + X.shape[1:])
    out[:len(X)] = X
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - max_rows(logits)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - max_rows(logits)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def lr_loss_grad(W, b, X, y, sample_weight, C):
    """Weighted multinomial cross-entropy summed over instances, plus an L2
    penalty ||W||^2 / (2C) on the weight matrix (bias unpenalized).

    Returns (loss, grad_W, grad_b).
    """
    logits = X @ W + b
    logp = _log_softmax(logits)
    rows = np.arange(X.shape[0])
    loss = -(sample_weight * logp[rows, y]).sum() + (W * W).sum() / (2.0 * C)
    P = np.exp(logp)
    R = P.copy()
    R[rows, y] -= 1.0
    R *= sample_weight[:, None]
    grad_W = X.T @ R + W / C
    grad_b = R.sum(axis=0)
    return loss, grad_W, grad_b


def lr_hessian_vector(P, X, sample_weight, C, V, v):
    """Product of the Hessian of :func:`lr_loss_grad`'s loss with the
    direction (V, v) of (W, b), at the point whose posteriors are
    P = softmax(X @ W + b).

    The direction moves row i's logits by z_i = x_i V + v, and the softmax
    Jacobian diag(p_i) - p_i p_i^T turns that into u_i = p_i * z_i -
    p_i (p_i . z_i). Returns (X^T (w * U) + V / C, sum_i w_i u_i): two GEMMs
    with X, as many as the gradient.
    """
    U = X @ V + v
    U *= P
    U -= P * U.sum(axis=1, keepdims=True)
    U *= sample_weight[:, None]
    return X.T @ U + V / C, U.sum(axis=0)


def mlp_loss_grad(params, X, y, n_classes, alpha):
    """Loss and gradients of the one-hidden-layer tanh network.

    Loss = mean cross-entropy over the rows of X plus alpha/2 times the
    squared norm of both weight matrices (biases unpenalized).
    params = (W1, b1, W2, b2); returns (loss, (gW1, gb1, gW2, gb2)). The
    gradients are the one-network case of the stacked training step.
    """
    grads = _mlp_stack_grads([np.asarray(p)[None] for p in params], X[None],
                             np.eye(n_classes)[y][None], np.array([alpha]))
    return _mlp_loss(params, X, y, alpha), tuple(g[0] for g in grads)


def _mlp_loss(params, X, y, alpha, H=None):
    """The loss of :func:`mlp_loss_grad` alone. `H` is an optional
    (rows, hidden) buffer for the hidden activations, overwritten."""
    W1, b1, W2, b2 = params
    H = np.matmul(X, W1, out=H)
    H += b1
    np.tanh(H, out=H)
    logp = _log_softmax(H @ W2 + b2)
    ce = -logp[np.arange(X.shape[0]), y].mean()
    return ce + 0.5 * alpha * ((W1 * W1).sum() + (W2 * W2).sum())


def _mlp_loss_surely_finite(params, alpha, x_norm) -> np.ndarray:
    """For a stack of k networks (as in :func:`_mlp_stack_grads`), whether a
    bound on the parameters alone proves :func:`_mlp_loss` finite on rows of
    norm at most `x_norm`; shape (k,).

    A hidden unit's input is at most x_norm |W1|_F + max|b1| in size
    (Cauchy-Schwarz), so no inf - inf makes it NaN; tanh keeps the unit in
    [-1, 1], so a logit is at most L = sum|W2| + max|b2| in size and the
    cross-entropy at most 2L + log(n). The bound asks every term to stay
    below MLP_LOSS_CEILING, so far inside the float range that rounding
    cannot carry the bound or the loss past it. A NaN or inf fails it."""
    W1, b1, W2, b2 = params
    w1 = (W1 * W1).sum(axis=(1, 2))
    penalty = 0.5 * alpha * (w1 + (W2 * W2).sum(axis=(1, 2)))
    hidden = x_norm * np.sqrt(w1) + np.abs(b1).max(axis=1)
    logits = np.abs(W2).sum(axis=(1, 2)) + np.abs(b2).max(axis=1)
    return ((hidden < MLP_LOSS_CEILING)
            & (2 * logits + penalty < MLP_LOSS_CEILING))


def _mlp_stack_grads(params, X, Y, alpha, H=None, D=None):
    """Gradients of :func:`mlp_loss_grad` for a stack of k networks, each on
    its own m rows, without the loss.

    params = (W1 (k, d, h), b1 (k, h), W2 (k, h, n), b2 (k, n)); X is
    (k, m, d), Y the one-hot labels (k, m, n) and alpha (k,). H and D are
    optional (k, m, h) buffers, overwritten. Slice i equals the one-network
    computation for network i bit for bit: every stacked product is one 2-D
    product per slice, and the elementwise steps and row sums are those of
    one network (subtracting the one-hot subtracts 1 at the label and
    leaves the other entries as they are).
    """
    W1, b1, W2, b2 = params
    m = Y.shape[1]
    H = np.matmul(X, W1, out=H)
    H += b1[:, None]
    np.tanh(H, out=H)
    logits = H @ W2
    logits += b2[:, None]
    delta2 = np.exp(_log_softmax(logits))
    delta2 -= Y
    delta2 /= m
    gW2 = H.transpose(0, 2, 1) @ delta2
    gW2 += alpha[:, None, None] * W2
    gb2 = delta2.sum(axis=1)
    np.multiply(H, H, out=H)
    np.subtract(1.0, H, out=H)                      # 1 - tanh², in place
    D = np.matmul(delta2, W2.transpose(0, 2, 1), out=D)
    D *= H
    gW1 = X.transpose(0, 2, 1) @ D
    gW1 += alpha[:, None, None] * W1
    return gW1, D.sum(axis=1), gW2, gb2


# ---------------------------------------------------------------------------
# Trained models
# ---------------------------------------------------------------------------

class TrainedModel:
    """Immutable fitted classifier exposing posterior rows. `arrays` names
    the fitted arrays, in constructor order, that a model record saves."""

    family: str
    arrays: tuple

    def __init__(self, hyperparams, n_classes, n_features, seed, meta=None):
        self.hyperparams = hyperparams
        self.n_classes = int(n_classes)
        self.n_features = int(n_features)
        self.seed = int(seed)
        self.meta = dict(meta or {})

    def _check_features(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected features with {self.n_features} columns, got shape {X.shape}")
        return X

    def predict_posteriors(self, X) -> np.ndarray:
        raise NotImplementedError


class LRModel(TrainedModel):
    family = "LR"
    arrays = ("W", "b")

    def __init__(self, hyperparams, W, b, n_classes, seed, meta=None):
        super().__init__(hyperparams, n_classes, W.shape[0], seed, meta)
        self.W = W
        self.b = b

    def predict_posteriors(self, X):
        X = self._check_features(X)
        return softmax((panel_rows(X) @ self.W)[:len(X)] + self.b)


class KNNModel(TrainedModel):
    family = "KNN"
    arrays = ("X_train", "y_train")

    def __init__(self, hyperparams, X_train, y_train, n_classes, seed, meta=None):
        super().__init__(hyperparams, n_classes, X_train.shape[1], seed, meta)
        self.X_train = X_train
        self.y_train = y_train

    def predict_posteriors(self, X):
        return _knn_posteriors([self], self._check_features(X))[0]


def nearest_order(d2: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of the stable argsort of each row of d2: the k
    nearest columns, equal distances resolved to the lowest index.

    Only the candidates up to each row's k-th smallest distance, ties
    included, are sorted, in index order so that a stable sort of their
    distances keeps the full sort's tie order."""
    if k >= d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(d2 <= kth)      # row by row, columns ascending
    width = np.bincount(rows, minlength=d2.shape[0])
    slot = np.arange(rows.size) - np.repeat(np.cumsum(width) - width, width)
    candidates = np.zeros((d2.shape[0], width.max(initial=k)), dtype=np.intp)
    distances = np.full(candidates.shape, np.inf)
    candidates[rows, slot] = cols
    distances[rows, slot] = d2[rows, cols]
    first = np.argsort(distances, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(candidates, first, axis=1)


def _knn_posteriors(models, X) -> list:
    """Posterior rows of KNN models that share one training set.

    The squared distances and the stable order of the nearest neighbours are
    computed once; each model reads its own k-prefix of that order and applies
    its own labels and vote weights, so every result equals a one-model call
    bit for bit. The distance product has the queries along its columns,
    ``X_train @ panel_rows(2 Xc).T``, as in
    :meth:`quantifiers.ClassDensities.evaluate`: each query's column then sums
    the features in the same order whatever other queries it is computed
    with (see :func:`panel_rows`), where the row layout summed the ragged
    tail of training columns differently per query count. The query rows are
    taken in chunks of whole BLAS panels, at most KNN_CHUNK_ELEMENTS distances
    each, which bounds the memory and so leaves the result unchanged.
    """
    X_train = models[0].X_train
    n_train = X_train.shape[0]
    train_sq = (X_train * X_train).sum(axis=1)[None, :]
    ks = [min(m.hyperparams["n_neighbors"], n_train) for m in models]
    out = [np.zeros((X.shape[0], m.n_classes)) for m in models]
    width = max(KNN_CHUNK_ELEMENTS // n_train // BLAS_PANEL, 1) * BLAS_PANEL
    for lo in range(0, X.shape[0], width):
        Xc = X[lo:lo + width]
        d2 = ((Xc * Xc).sum(axis=1)[:, None] + train_sq
              - (X_train @ panel_rows(2.0 * Xc).T)[:, :len(Xc)].T)
        np.maximum(d2, 0.0, out=d2)
        order = nearest_order(d2, max(ks))
        for model, k, posteriors in zip(models, ks, out):
            nearest = order[:, :k]
            neigh_labels = model.y_train[nearest]
            if model.hyperparams["weights"] == "uniform":
                w = np.ones_like(neigh_labels, dtype=float)
            else:
                d = np.sqrt(np.take_along_axis(d2, nearest, axis=1))
                w = 1.0 / (d + KNN_DIST_EPS)
            chunk = posteriors[lo:lo + len(Xc)]
            for j in range(model.n_classes):
                chunk[:, j] = np.where(neigh_labels == j, w, 0.0).sum(axis=1)
            chunk /= chunk.sum(axis=1, keepdims=True)
    return out


class MLPModel(TrainedModel):
    family = "MLP"
    arrays = ("W1", "b1", "W2", "b2")

    def __init__(self, hyperparams, W1, b1, W2, b2, n_classes, seed, meta=None):
        super().__init__(hyperparams, n_classes, W1.shape[0], seed, meta)
        self.W1, self.b1, self.W2, self.b2 = W1, b1, W2, b2

    def predict_posteriors(self, X):
        X = self._check_features(X)
        # the first layer with the rows along the columns keeps each row's
        # hidden units independent of the other rows on wide data; the
        # output layer takes them C-contiguous, since a transposed H would
        # change its GEMM and move the posteriors by ulps
        Z = np.ascontiguousarray((self.W1.T @ panel_rows(X).T).T)
        H = np.tanh(Z + self.b1)
        return softmax((H @ self.W2)[:len(X)] + self.b2)


def predict_posteriors_batch(models, X) -> np.ndarray:
    """Posterior rows of every model on the same rows X, shape (k, m, n).

    KNN models whose training sets are equal in content (not merely the same
    object: a loaded registry decodes one copy per model) share one neighbour
    search; the other models answer their own `predict_posteriors`. Each slice
    equals that model's `predict_posteriors(X)` bit for bit.
    """
    out = [None] * len(models)
    groups = []  # positions of the KNN models sharing one training set
    for i, model in enumerate(models):
        if not isinstance(model, KNNModel):
            out[i] = model.predict_posteriors(X)
            continue
        for members in groups:
            if np.array_equal(models[members[0]].X_train, model.X_train):
                members.append(i)
                break
        else:
            groups.append([i])
    for members in groups:
        group = [models[i] for i in members]
        rows = _knn_posteriors(group, group[0]._check_features(X))
        for i, P in zip(members, rows):
            out[i] = P
    return np.stack(out)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _conjugate_gradient(hvp, g, tol, max_iter):
    """Approximate solution d of H d = -g by conjugate gradient, stopped once
    the residual norm falls to `tol` or after `max_iter` products `hvp(p)` =
    H p. Returns (d, number of products)."""
    d = np.zeros_like(g)
    r = -g
    p = r.copy()
    rr = (r * r).sum()
    for k in range(max_iter):
        if rr <= tol * tol:
            return d, k
        Hp = hvp(p)
        alpha = rr / (p * Hp).sum()
        d += alpha * p
        r -= alpha * Hp
        rr, rr_old = (r * r).sum(), rr
        p = r + (rr / rr_old) * p
    return d, max_iter


def _train_lr(hp, train: LabelledSet, seed: int) -> LRModel:
    """Truncated Newton (Newton-CG; Lin, Weng & Keerthi, JMLR 2008) on the
    loss of :func:`lr_loss_grad`, from zero weights.

    Each step solves H d = -g by conjugate gradient on Hessian-vector
    products (:func:`lr_hessian_vector`, two GEMMs with X each; no Hessian is
    formed), to a residual of min(0.5, sqrt|g|) |g|, then backtracks from the
    full step until the Armijo condition holds. It stops when |g|_inf <
    LR_GRAD_TOL (`meta["converged"]`), or unconverged after LR_MAX_ITER steps
    or when no step decreases the loss. The softmax ignores a shift of every
    class's weights by one vector, so from zero the gradient and every CG
    iterate keep each feature's weights and the biases summing to zero over
    the classes; each step is centred over the classes too, since nothing
    pulls the biases back from rounding drift along that shift."""
    X, y = train.X, train.y
    n_classes = train.n_classes
    C = float(hp["C"])
    sample_weight = hp["class_weight"].instance_weights(y, n_classes)
    theta = np.zeros((X.shape[1] + 1, n_classes))    # [W; b]
    loss, gW, gb = lr_loss_grad(theta[:-1], theta[-1], X, y, sample_weight, C)
    g = np.vstack([gW, gb])
    steps = cg_steps = 0
    while True:
        if not (np.isfinite(loss) and np.isfinite(g).all()):
            raise TrainingError("non-finite loss during LR training",
                                last_state={"W": theta[:-1], "b": theta[-1]})
        converged = np.abs(g).max() < LR_GRAD_TOL
        if converged or steps == LR_MAX_ITER:
            break
        P = softmax(X @ theta[:-1] + theta[-1])
        gnorm = np.sqrt((g * g).sum())
        d, products = _conjugate_gradient(
            lambda V: np.vstack(lr_hessian_vector(P, X, sample_weight, C,
                                                  V[:-1], V[-1])),
            g, min(0.5, np.sqrt(gnorm)) * gnorm, g.size)
        cg_steps += products
        d -= d.mean(axis=1, keepdims=True)  # drops rounding drift off the subspace
        slope = (g * d).sum()
        step = 1.0
        for _ in range(LR_MAX_HALVINGS + 1):
            trial = theta + step * d
            loss_new, gW, gb = lr_loss_grad(trial[:-1], trial[-1], X, y,
                                            sample_weight, C)
            if np.isfinite(loss_new) and loss_new <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break       # no representable decrease left
        theta, loss, g = trial, loss_new, np.vstack([gW, gb])
        steps += 1
    meta = {"iterations": steps, "cg_iterations": cg_steps,
            "converged": bool(converged), "final_loss": float(loss)}
    return LRModel(hp, theta[:-1].copy(), theta[-1].copy(), n_classes, seed,
                   meta)


def _init_mlp(rng, n_features, n_classes):
    W1 = rng.standard_normal((n_features, MLP_HIDDEN_UNITS)) / np.sqrt(n_features)
    b1 = np.zeros(MLP_HIDDEN_UNITS)
    W2 = rng.standard_normal((MLP_HIDDEN_UNITS, n_classes)) / np.sqrt(MLP_HIDDEN_UNITS)
    b2 = np.zeros(n_classes)
    return [W1, b1, W2, b2]


def _train_mlp(hps, train: LabelledSet, seeds) -> list:
    """Minibatch SGD for MLP grid points at once, as one stack.

    Each network draws its initial weights and each epoch's permutation from
    its own `default_rng(seed)`, and keeps its own step size, adaptive
    halving and stop. All networks share the minibatch boundaries (one
    training set), so each batch is one stacked step over the networks still
    training; a network leaves the stack when it stops or diverges, and every
    result equals that network trained alone bit for bit. Each epoch gathers
    every network's permuted rows of X and of the one-hot labels once, in
    chunks of whole batches of at most MLP_CHUNK_ELEMENTS gathered values,
    and each batch is a view of its chunk.

    The epoch loss is evaluated per network, over the full set, in one
    reused buffer. An adaptive network computes it after every epoch, since
    it halves its step on it. A constant-rate network reads it only to trap
    divergence and, after its last epoch, for `meta["final_loss"]`: before
    that epoch it computes the loss only when :func:`_mlp_loss_surely_finite`
    fails to prove it finite. A diverging network is so caught at the same
    epoch, with the same last state, as when every epoch computes its loss.
    """
    X, y = train.X, train.y
    n, n_classes = len(train), train.n_classes
    k = len(hps)
    alpha = np.array([float(hp["alpha"]) for hp in hps])
    adaptive = np.array([hp["learning_rate"] == "adaptive" for hp in hps])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    params = [np.stack(p) for p in
              zip(*(_init_mlp(rng, X.shape[1], n_classes) for rng in rngs))]
    step = np.full(k, MLP_BASE_STEP)
    prev_epoch_loss = np.full(k, np.inf)
    epoch_loss = np.full(k, np.nan)
    H = np.empty((k, MLP_BATCH_SIZE, MLP_HIDDEN_UNITS))
    D = np.empty_like(H)
    H_full = np.empty((n, MLP_HIDDEN_UNITS))
    x_norm = np.sqrt((X * X).sum(axis=1).max())
    onehot = np.eye(n_classes)[y]
    chunk = max(MLP_CHUNK_ELEMENTS // (k * (X.shape[1] + n_classes))
                // MLP_BATCH_SIZE, 1) * MLP_BATCH_SIZE
    active = np.arange(k)       # grid positions of the stacked networks
    out = [None] * k

    def finish(position, epochs):
        i = active[position]
        meta = {"epochs": epochs, "final_loss": float(epoch_loss[i]),
                "final_step": float(step[i])}
        out[i] = MLPModel(hps[i], *(p[position].copy() for p in params),
                          n_classes, seeds[i], meta)

    def keep(mask):
        nonlocal active, params
        active, params = active[mask], [p[mask] for p in params]

    # divergence shows up as inf/nan and is trapped at epoch boundaries
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, MLP_MAX_EPOCHS + 1):
            stopped = step[active] < MLP_MIN_STEP
            for position in np.flatnonzero(stopped):
                finish(position, epoch - 1)
            keep(~stopped)
            if active.size == 0:
                break
            last_finite = [p.copy() for p in params]
            orders = np.stack([rngs[i].permutation(n) for i in active])
            rates = [step[active].reshape((-1,) + (1,) * (p.ndim - 1))
                     for p in params]
            alphas, h, d = alpha[active], H[:active.size], D[:active.size]
            for lo in range(0, n, chunk):
                rows = orders[:, lo:lo + chunk]
                Xc, Yc = X[rows], onehot[rows]
                for start in range(0, rows.shape[1], MLP_BATCH_SIZE):
                    Xb = Xc[:, start:start + MLP_BATCH_SIZE]
                    Yb = Yc[:, start:start + MLP_BATCH_SIZE]
                    m = Xb.shape[1]
                    grads = _mlp_stack_grads(params, Xb, Yb, alphas,
                                             h[:, :m], d[:, :m])
                    for p, g, rate in zip(params, grads, rates):
                        g *= rate
                        p -= g
            finite = np.ones(active.size, dtype=bool)
            compute = np.ones(active.size, dtype=bool)
            if epoch < MLP_MAX_EPOCHS:
                compute = adaptive[active] | ~_mlp_loss_surely_finite(
                    params, alphas, x_norm)
            for position in np.flatnonzero(compute):
                i = active[position]
                loss = _mlp_loss([p[position] for p in params], X, y,
                                 alpha[i], H_full)
                if not np.isfinite(loss):
                    finite[position] = False
                    out[i] = TrainingError(
                        "non-finite loss during MLP training",
                        last_state={"params": [p[position] for p in last_finite],
                                    "epoch": epoch})
                    continue
                if adaptive[i] and prev_epoch_loss[i] - loss < MLP_IMPROVE_TOL:
                    step[i] *= 0.5
                prev_epoch_loss[i] = epoch_loss[i] = loss
            keep(finite)
        for position in range(active.size):
            finish(position, MLP_MAX_EPOCHS)
    return out


def train_grid(family: str, hps, train_set: LabelledSet, seeds,
               workers=None) -> list:
    """Fit grid points of one family on `train_set`, grid point i with
    `seeds[i]`. Deterministic given the seeds.

    Returns one :class:`TrainedModel` or one :class:`TrainingError` per grid
    point, in grid order, so a failing point does not stop the others. LR
    and KNN fit each point on its own. MLP points train as contiguous
    sub-stacks through :func:`parallel.fork_map`, one per usable CPU: the
    first in this process, the others in forked workers, all joined before
    this returns. Each result equals that point trained alone bit for bit,
    so the models do not depend on the number of CPUs. A `workers` dict
    receives under `family` the number of processes the grid trained in.
    """
    if len(hps) != len(seeds):
        raise ValueError(f"{len(hps)} grid points but {len(seeds)} seeds")
    for hp in hps:
        if hp.family != family:
            raise ValueError(f"hyperparams are for {hp.family}, not {family}")
    if len(train_set) == 0:
        raise ValueError("empty training set")
    if np.unique(train_set.y).size != train_set.n_classes:
        raise ValueError("training set must contain every class")
    processes = 1
    if family == "LR":
        out = []
        for hp, seed in zip(hps, seeds):
            try:
                out.append(_train_lr(hp, train_set, seed))
            except TrainingError as exc:
                out.append(exc)
    elif family == "KNN":
        out = [KNNModel(hp, train_set.X, train_set.y, train_set.n_classes, seed)
               for hp, seed in zip(hps, seeds)]
    elif family == "MLP":
        out, processes = fork_map(
            lambda part: _train_mlp([hps[i] for i in part], train_set,
                                    [seeds[i] for i in part]), len(hps))
    else:
        raise ValueError(f"unknown family {family!r}")
    if workers is not None:
        workers[family] = processes
    return out


# ---------------------------------------------------------------------------
# Persistence: self-describing JSON records with base64 little-endian arrays
# ---------------------------------------------------------------------------

def encode_array(a: np.ndarray) -> dict:
    kind = "<i8" if np.issubdtype(a.dtype, np.integer) else "<f8"
    data = np.ascontiguousarray(a, dtype=np.dtype(kind))
    return {
        "shape": list(a.shape),
        "dtype": kind,
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_array(rec: dict) -> np.ndarray:
    raw = base64.b64decode(rec["data"])
    return np.frombuffer(raw, dtype=np.dtype(rec["dtype"])).reshape(rec["shape"]).copy()


def hyperparams_to_dict(hp: HyperParams) -> dict:
    return {"family": hp.family,
            "params": {k: asdict(v) if isinstance(v, ClassWeights) else v
                       for k, v in hp.values}}


def hyperparams_from_dict(rec: dict) -> HyperParams:
    return HyperParams.make(rec["family"], **{
        k: ClassWeights(**v) if k == "class_weight" else v
        for k, v in rec["params"].items()})


MODEL_TYPES = {cls.family: cls for cls in (LRModel, KNNModel, MLPModel)}


def model_to_record(model: TrainedModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "hyperparams": hyperparams_to_dict(model.hyperparams),
        "n_classes": model.n_classes,
        "seed": model.seed,
        "meta": model.meta,
        "arrays": {k: encode_array(getattr(model, k)) for k in model.arrays},
    }


def model_from_record(rec: dict) -> TrainedModel:
    """The model :func:`model_to_record` saved; an unknown family or a
    missing array raises KeyError."""
    if rec["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported record version {rec['format_version']}")
    cls = MODEL_TYPES[rec["family"]]
    return cls(hyperparams_from_dict(rec["hyperparams"]),
               *(decode_array(rec["arrays"][k]) for k in cls.arrays),
               rec["n_classes"], rec["seed"], rec.get("meta", {}))
