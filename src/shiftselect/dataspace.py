"""Dataset containers, CSV ingestion, stratified splitting, feature
standardization, and synthetic data generation under prior probability shift.

Everything downstream works on two immutable containers: :class:`Dataset`
(the raw arrays) and :class:`LabelledSet` (a duplicate-free index view over a
dataset). Prevalence vectors are plain read-only numpy arrays validated by
:func:`as_prevalence`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PREVALENCE_ATOL = 1e-9


class DataError(ValueError):
    """Ingestion or validation of data failed."""


class ParseError(DataError):
    """CSV parsing failed; carries the offending line and column."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


def as_prevalence(values, n_classes=None, stacked=False) -> np.ndarray:
    """Validate `values` as a point on the unit simplex (with `stacked`, as a
    matrix of such points, one per row) and return it read-only.

    Entries must be finite, nonnegative, and sum to one within 1e-9.
    """
    v = np.array(values, dtype=float)
    if v.ndim != 1 + stacked:
        raise DataError(f"prevalence must be a {'matrix' if stacked else 'vector'}"
                        f", got shape {v.shape}")
    if n_classes is not None and v.shape[-1] != n_classes:
        raise DataError(f"prevalence has {v.shape[-1]} entries, expected {n_classes}")
    if not np.isfinite(v).all():
        raise DataError("prevalence contains non-finite entries")
    if (v < 0).any():
        raise DataError(f"prevalence has negative entries: {v}")
    sums = np.atleast_1d(v.sum(axis=-1))
    off = np.abs(sums - 1.0) > PREVALENCE_ATOL
    if off.any():
        raise DataError(f"prevalence sums to {float(sums[off][0])!r}, not 1")
    v.flags.writeable = False
    return v


def uniform_prevalence(n_classes: int) -> np.ndarray:
    return as_prevalence(np.full(n_classes, 1.0 / n_classes))


def largest_remainder_counts(weights, total: int) -> np.ndarray:
    """Apportion `total` units proportionally to `weights`, summing exactly.

    Exact quotas are floored; leftover units go to the largest fractional
    remainders, ties broken by lowest index.
    """
    w = np.asarray(weights, dtype=float)
    if total < 0:
        raise ValueError("total must be nonnegative")
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive sum")
    quota = w / w.sum() * total
    counts = np.floor(quota).astype(int)
    short = total - int(counts.sum())
    if short > 0:
        remainders = quota - counts
        order = np.lexsort((np.arange(w.size), -remainders))
        counts[order[:short]] += 1
    return counts


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable matrix of covariates + integer class labels in [0, n_classes).

    Every declared class must appear at least once, except when
    `require_all_classes` is disabled (the synthetic generator does this so a
    degenerate vertex prevalence like (1, 0) remains expressible).
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    name: str = "dataset"
    class_map: dict = field(default_factory=dict, compare=False)
    require_all_classes: bool = True

    def __post_init__(self):
        X = np.ascontiguousarray(self.features, dtype=float)
        y = np.ascontiguousarray(self.labels, dtype=int)
        if X.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {X.shape}")
        if y.ndim != 1 or y.size != X.shape[0]:
            raise DataError("labels must be one per feature row")
        if not np.isfinite(X).all():
            raise DataError("features contain missing or non-finite values")
        if self.n_classes < 1:
            raise DataError("n_classes must be positive")
        present = np.unique(y)
        if present.size and (present.min() < 0 or present.max() >= self.n_classes):
            raise DataError("labels outside [0, n_classes)")
        if self.require_all_classes and present.size != self.n_classes:
            missing = sorted(set(range(self.n_classes)) - set(present.tolist()))
            raise DataError(f"classes {missing} have no instances")
        object.__setattr__(self, "features", _frozen(X))
        object.__setattr__(self, "labels", _frozen(y))

    def __len__(self):
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def all_instances(self) -> "LabelledSet":
        return LabelledSet(self, np.arange(len(self)))


@dataclass(frozen=True)
class LabelledSet:
    """Duplicate-free index view over (features, labels) of a dataset."""

    dataset: Dataset
    indices: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=int)
        if idx.ndim != 1:
            raise DataError("indices must be a vector")
        if idx.size and (idx.min() < 0 or idx.max() >= len(self.dataset)):
            raise DataError("index out of range")
        if np.unique(idx).size != idx.size:
            raise DataError("duplicate indices in labelled set")
        object.__setattr__(self, "indices", _frozen(idx))

    def __len__(self):
        return self.indices.size

    @property
    def n_classes(self) -> int:
        return self.dataset.n_classes

    @cached_property
    def X(self) -> np.ndarray:
        return _frozen(self.dataset.features[self.indices])

    @cached_property
    def y(self) -> np.ndarray:
        return _frozen(self.dataset.labels[self.indices])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)

    def prevalence(self) -> np.ndarray:
        if len(self) == 0:
            raise DataError("empty labelled set has no prevalence")
        return as_prevalence(self.class_counts() / len(self))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _is_missing(cell: str) -> bool:
    return cell.strip() == ""


def _try_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path, label_column, header: bool = True, name=None) -> Dataset:
    """Load a comma-separated file into a :class:`Dataset`.

    `label_column` is a header name (requires `header=True`) or a 0-based
    column index. Non-label columns are numeric or categorical; categoricals
    are one-hot encoded in first-occurrence order. Label values are remapped
    to contiguous class ids in first-occurrence order, recorded in
    `class_map`. Missing cells are rejected with the offending row/column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ParseError(f"{path}: empty file", line=1)

    first_data_line = 1
    if header:
        colnames = [c.strip() for c in rows[0]]
        rows = rows[1:]
        first_data_line = 2
    else:
        colnames = [str(i) for i in range(len(rows[0]))]
    if not rows:
        raise ParseError(f"{path}: no data rows", line=first_data_line)

    ncols = len(colnames)
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ParseError(
                f"{path}: line {first_data_line + i} has {len(row)} cells, expected {ncols}",
                line=first_data_line + i,
            )

    if isinstance(label_column, int):
        label_idx = label_column
        if not (0 <= label_idx < ncols):
            raise ParseError(f"{path}: label column index {label_idx} out of range")
    else:
        if label_column not in colnames:
            raise ParseError(f"{path}: label column {label_column!r} not found")
        label_idx = colnames.index(label_column)

    feature_cols = [j for j in range(ncols) if j != label_idx]

    # Column typing: numeric iff every cell parses as a float.
    numeric = {}
    for j in feature_cols:
        numeric[j] = all(_try_float(row[j]) is not None
                         for row in rows if not _is_missing(row[j]))

    blocks = []
    for j in feature_cols:
        colname = colnames[j]
        cells = [row[j] for row in rows]
        for i, cell in enumerate(cells):
            if _is_missing(cell):
                raise ParseError(
                    f"{path}: missing value at line {first_data_line + i}, "
                    f"column {colname!r}",
                    line=first_data_line + i, column=colname,
                )
        if numeric[j]:
            blocks.append(np.array([float(c) for c in cells])[:, None])
        else:
            categories = {}
            for c in cells:
                if c not in categories:
                    categories[c] = len(categories)
            onehot = np.zeros((len(cells), len(categories)))
            for i, c in enumerate(cells):
                onehot[i, categories[c]] = 1.0
            blocks.append(onehot)

    class_map = {}
    labels = np.empty(len(rows), dtype=int)
    for i, row in enumerate(rows):
        raw = row[label_idx].strip()
        if _is_missing(raw):
            raise ParseError(
                f"{path}: missing label at line {first_data_line + i}",
                line=first_data_line + i, column=colnames[label_idx],
            )
        if raw not in class_map:
            class_map[raw] = len(class_map)
        labels[i] = class_map[raw]

    if len(class_map) < 2:
        raise DataError(f"{path}: a single class is present; need at least two")

    features = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    if name is None:
        name = str(path)
    return Dataset(features, labels, n_classes=len(class_map),
                   name=name, class_map=class_map)


# ---------------------------------------------------------------------------
# Splitting and synthetic generation
# ---------------------------------------------------------------------------

def stratified_split(lset: LabelledSet, fraction: float, seed: int):
    """Split into two disjoint, covering parts with per-class largest-remainder
    counts; the first part holds ~`fraction` of each class. Deterministic."""
    if not (0.0 < fraction < 1.0):
        raise DataError(f"fraction must be in (0,1), got {fraction}")
    counts = lset.class_counts()
    thin = np.nonzero(counts < 2)[0]
    if thin.size:
        raise DataError(f"classes {thin.tolist()} have fewer than 2 instances")

    total_first = int(round(fraction * len(lset)))
    first_counts = largest_remainder_counts(counts, total_first)

    rng = np.random.default_rng(seed)
    first_parts, second_parts = [], []
    y = lset.y
    for j in range(lset.n_classes):
        pool = lset.indices[y == j]
        perm = rng.permutation(pool)
        first_parts.append(perm[: first_counts[j]])
        second_parts.append(perm[first_counts[j]:])
    first = np.sort(np.concatenate(first_parts))
    second = np.sort(np.concatenate(second_parts))
    return LabelledSet(lset.dataset, first), LabelledSet(lset.dataset, second)


def _class_means(n_classes: int, dims: int, class_separation: float) -> np.ndarray:
    """Deterministic per-class Gaussian means, spaced by `class_separation`.

    Class j sits at separation * (1 + j // dims) along axis j % dims, so any
    (n_classes, dims) pair yields distinct means.
    """
    means = np.zeros((n_classes, dims))
    for j in range(n_classes):
        means[j, j % dims] = class_separation * (1 + j // dims)
    return means


def synth_gaussian_pps(n_classes: int, dims: int, prevalence, n: int,
                       class_separation: float, seed: int,
                       name=None) -> Dataset:
    """Draw `n` points from fixed per-class isotropic unit Gaussians.

    The class-conditional distributions depend only on (n_classes, dims,
    class_separation, seed), never on `prevalence`: varying the prevalence
    between calls realizes pure prior probability shift. Per-class counts are
    the largest-remainder rounding of prevalence * n.
    """
    prevalence = as_prevalence(prevalence, n_classes)
    if n < n_classes:
        raise DataError(f"n={n} smaller than n_classes={n_classes}")
    counts = largest_remainder_counts(prevalence, n)
    means = _class_means(n_classes, dims, class_separation)

    # One child stream per class keeps class-conditional draws independent of
    # the other classes' counts; a separate stream shuffles row order.
    master = np.random.default_rng(seed)
    class_streams = master.spawn(n_classes)
    shuffle_stream = master.spawn(1)[0]

    parts, labels = [], []
    for j in range(n_classes):
        pts = class_streams[j].standard_normal((counts[j], dims)) + means[j]
        parts.append(pts)
        labels.append(np.full(counts[j], j))
    X = np.vstack(parts)
    y = np.concatenate(labels)
    order = shuffle_stream.permutation(n)
    if name is None:
        name = f"synthetic-gaussian-{n_classes}c{dims}d"
    return Dataset(X[order], y[order], n_classes=n_classes, name=name,
                   require_all_classes=False)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scaler:
    """Per-feature mean/std learned on training data; constant features get std 1."""

    mean_: np.ndarray
    std_: np.ndarray


def fit_scaler(train: LabelledSet) -> Scaler:
    if len(train) == 0:
        raise DataError("cannot fit a scaler on an empty set")
    X = train.X
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return Scaler(_frozen(mean), _frozen(std))


def apply_scaler(scaler: Scaler, features: np.ndarray) -> np.ndarray:
    return (np.asarray(features, dtype=float) - scaler.mean_) / scaler.std_
