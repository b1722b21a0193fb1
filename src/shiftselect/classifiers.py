"""Classifier zoo: multinomial logistic regression, k-nearest neighbours and a
one-hidden-layer MLP, plus hyperparameter grid construction (including the
class-weight schemes) and JSON model records.

All three families are trained from scratch on numpy so that the training
objective, the optimizer, and the analytic gradients are fully pinned down and
testable against finite differences. Models are immutable after training.
:func:`train_grid` fits the grid points of one family on one training set and
returns a model or a `TrainingError` per point; the MLP points train together
as one stack, with one stacked minibatch step per batch, and each equals the
point trained alone (:func:`train`, the one-point case) bit for bit.
:func:`predict_posteriors_batch` asks many models for posteriors on the same
rows; KNN models with equal training sets share one neighbour search there.
Each posterior row is bit-identical whatever other rows it is predicted with
(see :func:`panel_rows`).
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

import numpy as np

from .dataspace import LabelledSet, as_prevalence

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

LR_GRAD_TOL = 1e-5
LR_MAX_ITER = 1000

KNN_DIST_EPS = 1e-9

BLAS_PANEL = 8      # rows per BLAS panel (see panel_rows)
KNN_CHUNK_ELEMENTS = 1 << 20   # distances per chunk of query rows (8 MiB)

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
# Numerics shared by LR and MLP
# ---------------------------------------------------------------------------

def panel_rows(X: np.ndarray) -> np.ndarray:
    """X zero-padded to a whole number of BLAS_PANEL rows (X itself when it
    has one). BLAS sums a product's rows in another order when they fall in
    a ragged last panel, or when there is one row (a matrix-vector product),
    so each row of ``panel_rows(X) @ W`` is bit-identical whatever other rows
    X holds: a bag labelled on its own gets the posteriors that the test-set
    caches hold for its rows. Slice the product back to len(X) rows."""
    padded = -(-len(X) // BLAS_PANEL) * BLAS_PANEL
    if padded == len(X):
        return X
    out = np.zeros((padded,) + X.shape[1:])
    out[:len(X)] = X
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
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


def mlp_loss_grad(params, X, y, n_classes, alpha):
    """Loss and gradients of the one-hidden-layer tanh network.

    Loss = mean cross-entropy over the rows of X plus alpha/2 times the
    squared norm of both weight matrices (biases unpenalized).
    params = (W1, b1, W2, b2); returns (loss, (gW1, gb1, gW2, gb2)). The
    gradients are the one-network case of the stacked training step.
    """
    grads = _mlp_stack_grads([np.asarray(p)[None] for p in params],
                             X[None], np.asarray(y)[None], np.array([alpha]))
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


def _mlp_stack_grads(params, X, y, alpha, H=None, D=None):
    """Gradients of :func:`mlp_loss_grad` for a stack of k networks, each on
    its own m rows, without the loss.

    params = (W1 (k, d, h), b1 (k, h), W2 (k, h, n), b2 (k, n)); X is
    (k, m, d), y (k, m) and alpha (k,). H and D are optional (k, m, h)
    buffers, overwritten. Slice i equals the one-network computation for
    network i bit for bit: every stacked product is one 2-D product per
    slice, and the elementwise steps and row sums are those of one network.
    """
    W1, b1, W2, b2 = params
    k, m = y.shape
    H = np.matmul(X, W1, out=H)
    H += b1[:, None]
    np.tanh(H, out=H)
    logits = H @ W2
    logits += b2[:, None]
    delta2 = np.exp(_log_softmax(logits))
    delta2[np.arange(k)[:, None], np.arange(m), y] -= 1.0
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
    """Immutable fitted classifier exposing hard labels and posterior rows."""

    family: str

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

    def predict_labels(self, X) -> np.ndarray:
        # argmax takes the first maximum: ties break toward the lowest class id
        return np.argmax(self.predict_posteriors(X), axis=1)


class LRModel(TrainedModel):
    family = "LR"

    def __init__(self, hyperparams, W, b, n_classes, seed, meta=None):
        super().__init__(hyperparams, n_classes, W.shape[0], seed, meta)
        self.W = W
        self.b = b

    def predict_posteriors(self, X):
        X = self._check_features(X)
        return softmax((panel_rows(X) @ self.W)[:len(X)] + self.b)


class KNNModel(TrainedModel):
    family = "KNN"

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
    bit for bit. The query rows are taken in chunks of whole BLAS panels, at
    most KNN_CHUNK_ELEMENTS distances each, which bounds the memory and, since
    each row of the distance product is bit-identical whatever rows it is
    computed with (see :func:`panel_rows`), leaves the result unchanged.
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
              - (panel_rows(2.0 * Xc) @ X_train.T)[:len(Xc)])
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

    def __init__(self, hyperparams, params, n_classes, seed, meta=None):
        super().__init__(hyperparams, n_classes, params[0].shape[0], seed, meta)
        self.W1, self.b1, self.W2, self.b2 = params

    def predict_posteriors(self, X):
        X = self._check_features(X)
        H = np.tanh(panel_rows(X) @ self.W1 + self.b1)
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

def _train_lr(hp, train: LabelledSet, seed: int) -> LRModel:
    X, y = train.X, train.y
    n, n_classes = len(train), train.n_classes
    C = float(hp["C"])
    sample_weight = hp["class_weight"].instance_weights(y, n_classes)

    W = np.zeros((X.shape[1], n_classes))
    b = np.zeros(n_classes)
    loss, gW, gb = lr_loss_grad(W, b, X, y, sample_weight, C)
    step = 1.0
    iterations = 0
    for iterations in range(1, LR_MAX_ITER + 1):
        if not (np.isfinite(loss) and np.isfinite(gW).all() and np.isfinite(gb).all()):
            raise TrainingError("non-finite loss during LR training",
                                last_state={"W": W, "b": b})
        gnorm_inf = max(np.abs(gW).max(), np.abs(gb).max())
        if gnorm_inf < LR_GRAD_TOL:
            iterations -= 1
            break
        g2 = (gW * gW).sum() + (gb * gb).sum()
        # backtracking line search (Armijo), warm-started from the last step
        step = min(step * 2.0, 1e6)
        accepted = False
        for _ in range(80):
            W_new = W - step * gW
            b_new = b - step * gb
            loss_new, gW_new, gb_new = lr_loss_grad(W_new, b_new, X, y, sample_weight, C)
            if np.isfinite(loss_new) and loss_new <= loss - 1e-4 * step * g2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # no representable decrease left: numerically converged
            iterations -= 1
            break
        W, b, loss, gW, gb = W_new, b_new, loss_new, gW_new, gb_new
    meta = {"iterations": iterations, "final_loss": float(loss)}
    return LRModel(hp, W, b, n_classes, seed, meta)


def _init_mlp(rng, n_features, n_classes):
    W1 = rng.standard_normal((n_features, MLP_HIDDEN_UNITS)) / np.sqrt(n_features)
    b1 = np.zeros(MLP_HIDDEN_UNITS)
    W2 = rng.standard_normal((MLP_HIDDEN_UNITS, n_classes)) / np.sqrt(MLP_HIDDEN_UNITS)
    b2 = np.zeros(n_classes)
    return [W1, b1, W2, b2]


def _train_mlp(hps, train: LabelledSet, seeds) -> list:
    """Minibatch SGD for every MLP grid point at once, as one stack.

    Each network draws its initial weights and each epoch's permutation from
    its own `default_rng(seed)`, and keeps its own step size, adaptive
    halving and stop. All networks share the minibatch boundaries (one
    training set), so each batch is one stacked step over the networks still
    training; a network leaves the stack when it stops or diverges, and every
    result equals that network trained alone bit for bit. The epoch loss is
    evaluated per network, over the full set, in one reused buffer.
    """
    X, y = train.X, train.y
    n, n_classes = len(train), train.n_classes
    k = len(hps)
    alpha = np.array([float(hp["alpha"]) for hp in hps])
    adaptive = [hp["learning_rate"] == "adaptive" for hp in hps]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    params = [np.stack(p) for p in
              zip(*(_init_mlp(rng, X.shape[1], n_classes) for rng in rngs))]
    step = np.full(k, MLP_BASE_STEP)
    prev_epoch_loss = np.full(k, np.inf)
    epoch_loss = np.full(k, np.nan)
    H = np.empty((k, MLP_BATCH_SIZE, MLP_HIDDEN_UNITS))
    D = np.empty_like(H)
    H_full = np.empty((n, MLP_HIDDEN_UNITS))
    active = np.arange(k)       # grid positions of the stacked networks
    out = [None] * k

    def finish(position, epochs):
        i = active[position]
        meta = {"epochs": epochs, "final_loss": float(epoch_loss[i]),
                "final_step": float(step[i])}
        out[i] = MLPModel(hps[i], [p[position].copy() for p in params],
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
            rate = step[active]
            for start in range(0, n, MLP_BATCH_SIZE):
                batch = orders[:, start:start + MLP_BATCH_SIZE]
                rows = batch.shape[1]
                grads = _mlp_stack_grads(params, X[batch], y[batch],
                                         alpha[active], H[:active.size, :rows],
                                         D[:active.size, :rows])
                for p, g in zip(params, grads):
                    g *= rate.reshape((-1,) + (1,) * (g.ndim - 1))
                    p -= g
            finite = np.ones(active.size, dtype=bool)
            for position, i in enumerate(active):
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


def train_grid(family: str, hps, train_set: LabelledSet, seeds) -> list:
    """Fit grid points of one family on `train_set`, grid point i with
    `seeds[i]`. Deterministic given the seeds.

    Returns one :class:`TrainedModel` or one :class:`TrainingError` per grid
    point, in grid order, so a failing point does not stop the others. LR
    and KNN fit each point on its own; MLP points train together as one
    stack, and each result equals that point trained alone bit for bit.
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
    if family == "LR":
        out = []
        for hp, seed in zip(hps, seeds):
            try:
                out.append(_train_lr(hp, train_set, seed))
            except TrainingError as exc:
                out.append(exc)
        return out
    if family == "KNN":
        return [KNNModel(hp, train_set.X, train_set.y, train_set.n_classes, seed)
                for hp, seed in zip(hps, seeds)]
    if family == "MLP":
        return _train_mlp(hps, train_set, seeds)
    raise ValueError(f"unknown family {family!r}")


def train(family: str, hp: HyperParams, train_set: LabelledSet, seed: int) -> TrainedModel:
    """Fit one grid point on `train_set`: the one-point case of
    :func:`train_grid`. Deterministic given `seed`; raises the point's
    :class:`TrainingError` if it fails."""
    result = train_grid(family, [hp], train_set, [seed])[0]
    if isinstance(result, TrainingError):
        raise result
    return result


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


def _encode_class_weights(cw: ClassWeights) -> dict:
    return {"mode": cw.mode, "explicit": list(cw.explicit) if cw.explicit else None}


def _decode_class_weights(rec: dict) -> ClassWeights:
    explicit = tuple(rec["explicit"]) if rec["explicit"] is not None else None
    return ClassWeights(rec["mode"], explicit)


def hyperparams_to_dict(hp: HyperParams) -> dict:
    out = {}
    for k, v in hp.values:
        out[k] = _encode_class_weights(v) if isinstance(v, ClassWeights) else v
    return {"family": hp.family, "params": out}


def hyperparams_from_dict(rec: dict) -> HyperParams:
    params = {}
    for k, v in rec["params"].items():
        if k == "class_weight":
            v = _decode_class_weights(v)
        params[k] = v
    return HyperParams.make(rec["family"], **params)


def model_to_record(model: TrainedModel) -> dict:
    rec = {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "hyperparams": hyperparams_to_dict(model.hyperparams),
        "n_classes": model.n_classes,
        "seed": model.seed,
        "meta": model.meta,
        "arrays": {},
    }
    if model.family == "LR":
        arrays = {"W": model.W, "b": model.b}
    elif model.family == "KNN":
        arrays = {"X_train": model.X_train, "y_train": model.y_train}
    else:
        arrays = {"W1": model.W1, "b1": model.b1, "W2": model.W2, "b2": model.b2}
    rec["arrays"] = {k: encode_array(v) for k, v in arrays.items()}
    return rec


def model_from_record(rec: dict) -> TrainedModel:
    if rec["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported record version {rec['format_version']}")
    hp = hyperparams_from_dict(rec["hyperparams"])
    arrays = {k: decode_array(v) for k, v in rec["arrays"].items()}
    family, n_classes, seed = rec["family"], rec["n_classes"], rec["seed"]
    meta = rec.get("meta", {})
    if family == "LR":
        return LRModel(hp, arrays["W"], arrays["b"], n_classes, seed, meta)
    if family == "KNN":
        return KNNModel(hp, arrays["X_train"], arrays["y_train"], n_classes, seed, meta)
    if family == "MLP":
        params = (arrays["W1"], arrays["b1"], arrays["W2"], arrays["b2"])
        return MLPModel(hp, params, n_classes, seed, meta)
    raise ValueError(f"unknown family {family!r}")

