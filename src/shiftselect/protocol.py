"""Artificial prevalence protocol: uniform simplex sampling, bag extraction
at target prevalences (with replacement), shift measurement, and shift
binning.

Bags expose features but keep their true labels behind :func:`reveal_labels`,
which only the evaluation harness (:mod:`evalcli`) calls: it scores every
strategy, the oracle included, against them. No function in :mod:`selection`
takes labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataspace import (DataError, LabelledSet, as_prevalence,
                        largest_remainder_counts)

DEFAULT_SHIFT_BINS = 10


@dataclass(frozen=True)
class Bag:
    """Fixed-size multiset of test instances drawn at a target prevalence.

    Bags hold row positions into their source test set, not copies: features
    are materialized on access. True labels stay behind :func:`reveal_labels`,
    which only the evaluation harness should call.
    """

    indices: np.ndarray
    target_prevalence: np.ndarray
    realized_prevalence: np.ndarray
    _source: LabelledSet = field(repr=False)

    @property
    def size(self) -> int:
        return self.indices.size

    def __len__(self):
        return self.size

    @property
    def features(self) -> np.ndarray:
        return self._source.X[self.indices]


def reveal_labels(bag: Bag) -> np.ndarray:
    """Evaluation-only view of the bag's true labels."""
    return bag._source.y[bag.indices]


def kraemer_sample(n_classes: int, rng) -> np.ndarray:
    """One uniform draw from the unit simplex: sort n-1 uniforms, pad with
    0 and 1, and return consecutive differences."""
    if n_classes < 1:
        raise ValueError("need at least one class")
    cuts = np.sort(rng.random(n_classes - 1))
    return as_prevalence(np.diff(np.concatenate(([0.0], cuts, [1.0]))))


def draw_bag(test: LabelledSet, target, s: int, rng) -> Bag:
    """Draw a bag of `s` instances from `test` matching `target` prevalence.

    Per-class counts are the largest-remainder rounding of target * s;
    instances are drawn uniformly with replacement within each class.
    """
    target = as_prevalence(target, test.n_classes)
    if s < 1:
        raise ValueError("bag size must be at least 1")
    counts = largest_remainder_counts(target, s)
    y = test.y
    chosen = []
    for j in range(test.n_classes):
        if counts[j] == 0:
            continue
        pool = np.nonzero(y == j)[0]
        if pool.size == 0:
            raise DataError(f"class {j} required by the target prevalence "
                            f"is absent from the test set")
        chosen.append(rng.choice(pool, size=counts[j], replace=True))
    indices = np.concatenate(chosen)
    indices.flags.writeable = False
    realized = as_prevalence(counts / s)
    return Bag(indices=indices,
               target_prevalence=target,
               realized_prevalence=realized,
               _source=test)


def app_generate(test: LabelledSet, r: int, s: int, seed: int):
    """Generate `r` bags of size `s`, one per uniform simplex draw.

    Fully reproducible: (seed, r, s) determine every index of every bag.
    """
    if r < 1:
        raise ValueError("need at least one bag")
    rng = np.random.default_rng(seed)
    bags = []
    for _ in range(r):
        target = kraemer_sample(test.n_classes, rng)
        bags.append(draw_bag(test, target, s, rng))
    return bags


def l1_shift(a, b) -> float:
    """L1 distance between two prevalence vectors, in [0, 2]."""
    a = as_prevalence(a)
    b = as_prevalence(b, a.size)
    return float(np.abs(a - b).sum())


@dataclass(frozen=True)
class ShiftRecord:
    """One bag's shift amount plus the true accuracy each strategy achieved."""

    bag_id: int
    l1: float
    accuracies: dict


@dataclass(frozen=True)
class ShiftBin:
    index: int
    lo: float
    hi: float
    count: int
    mean_accuracy: dict   # strategy -> mean true accuracy over the bin


def bin_by_shift(records, n_bins: int = DEFAULT_SHIFT_BINS):
    """Equal-width bins over [0, max observed shift]; empty bins are omitted.

    Returns a list of :class:`ShiftBin`, one per populated bin, in bin order.
    """
    if n_bins < 1:
        raise ValueError("need at least one bin")
    records = list(records)
    if not records:
        return []
    max_shift = max(rec.l1 for rec in records)
    width = max_shift / n_bins if max_shift > 0 else 0.0

    groups = {}
    for rec in records:
        idx = min(int(rec.l1 / width), n_bins - 1) if width > 0 else 0
        groups.setdefault(idx, []).append(rec)

    bins = []
    for idx in sorted(groups):
        members = groups[idx]
        strategies = sorted({name for rec in members for name in rec.accuracies})
        means = {name: float(np.mean([rec.accuracies[name] for rec in members
                                      if name in rec.accuracies]))
                 for name in strategies}
        bins.append(ShiftBin(index=idx, lo=idx * width, hi=(idx + 1) * width,
                             count=len(members), mean_accuracy=means))
    return bins
