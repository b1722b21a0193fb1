import numpy as np
import pytest

from shiftselect.dataspace import DataError, Dataset
from shiftselect.protocol import (app_generate, bin_by_shift, draw_bag,
                                  kraemer_sample, l1_shift, reveal_labels)


class QueuedRng:
    """Feeds predetermined uniforms to kraemer_sample."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, k):
        out = np.array(self.values[:k])
        del self.values[:k]
        return out


def toy_test_set(counts, seed=0):
    labels = np.concatenate([np.full(c, j) for j, c in enumerate(counts)])
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(labels.size, 2)), labels, len(counts))
    return ds.all_instances()


# ---------------------------------------------------------------------------
# kraemer sampling
# ---------------------------------------------------------------------------

def test_kraemer_two_classes_from_known_draw():
    v = kraemer_sample(2, QueuedRng([0.3]))
    assert np.allclose(v, [0.3, 0.7])


def test_kraemer_three_classes_from_known_draws():
    v = kraemer_sample(3, QueuedRng([0.5, 0.2]))
    assert np.allclose(v, [0.2, 0.3, 0.5])


def test_kraemer_output_is_valid_prevalence():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = kraemer_sample(int(rng.integers(1, 7)), rng)
        assert (v >= 0).all()
        assert v.sum() == pytest.approx(1.0, abs=1e-12)


def test_kraemer_matches_dirichlet_marginals():
    rng = np.random.default_rng(1)
    draws = np.array([kraemer_sample(3, rng) for _ in range(20000)])
    # uniform on the simplex: marginals are Beta(1, 2)
    assert np.abs(draws.mean(axis=0) - 1 / 3).max() < 0.02
    assert abs((draws[:, 0] < 0.5).mean() - 0.75) < 0.02


# ---------------------------------------------------------------------------
# bag drawing
# ---------------------------------------------------------------------------

def test_draw_bag_vertex_draws_single_class():
    test = toy_test_set([40, 40])
    bag = draw_bag(test, [1.0, 0.0], 100, np.random.default_rng(2))
    assert bag.size == 100
    assert (reveal_labels(bag) == 0).all()
    assert np.allclose(bag.realized_prevalence, [1.0, 0.0])


def test_draw_bag_largest_remainder_tie():
    test = toy_test_set([50, 50])
    bag = draw_bag(test, [0.305, 0.695], 100, np.random.default_rng(3))
    counts = np.bincount(reveal_labels(bag), minlength=2)
    assert counts.tolist() == [31, 69]
    assert np.allclose(bag.realized_prevalence, [0.31, 0.69])


def test_draw_bag_requires_present_classes():
    test = toy_test_set([40, 40])
    # a 3-class target against a 2-class test set fails validation up front
    with pytest.raises(DataError):
        draw_bag(test, [0.0, 0.5, 0.5], 10, np.random.default_rng(4))


def test_draw_bag_rejects_empty_required_class():
    from shiftselect.dataspace import LabelledSet
    test = toy_test_set([40, 40])
    only_zero = LabelledSet(test.dataset, test.indices[test.y == 0])
    with pytest.raises(DataError):
        draw_bag(only_zero, [0.5, 0.5], 10, np.random.default_rng(4))
    # a target putting no mass on the missing class is fine
    bag = draw_bag(only_zero, [1.0, 0.0], 10, np.random.default_rng(4))
    assert bag.size == 10


def test_draw_bag_rounding_bound():
    test = toy_test_set([30, 30, 30])
    rng = np.random.default_rng(5)
    for _ in range(100):
        target = kraemer_sample(3, rng)
        bag = draw_bag(test, target, 50, rng)
        l1 = np.abs(bag.realized_prevalence - target).sum()
        assert l1 <= 3 / (2 * 50) + 1e-12


def test_bag_features_match_indices():
    test = toy_test_set([20, 20])
    bag = draw_bag(test, [0.5, 0.5], 30, np.random.default_rng(6))
    assert np.array_equal(bag.features, test.X[bag.indices])
    assert np.array_equal(reveal_labels(bag), test.y[bag.indices])


# ---------------------------------------------------------------------------
# protocol generation
# ---------------------------------------------------------------------------

def test_app_generate_shapes_and_determinism():
    test = toy_test_set([60, 40])
    bags1 = app_generate(test, r=5, s=30, seed=7)
    bags2 = app_generate(test, r=5, s=30, seed=7)
    assert len(bags1) == 5
    for b1, b2 in zip(bags1, bags2):
        assert b1.size == 30
        assert np.array_equal(b1.indices, b2.indices)
        assert np.array_equal(b1.target_prevalence, b2.target_prevalence)


def test_app_generate_different_seeds_differ():
    test = toy_test_set([60, 40])
    bags1 = app_generate(test, r=3, s=30, seed=8)
    bags2 = app_generate(test, r=3, s=30, seed=9)
    assert any(not np.array_equal(a.indices, b.indices)
               for a, b in zip(bags1, bags2))


def test_sampling_with_replacement_produces_duplicates():
    # pigeonhole: a 30-element class cannot fill a bag slice of >30 without
    # repeats, and uniform simplex draws hit such bags often
    test = toy_test_set([30, 300])
    bags = app_generate(test, r=1000, s=100, seed=10)
    found = False
    for bag in bags:
        idx = np.asarray(bag.indices)
        if np.unique(idx).size < idx.size:
            found = True
            break
    assert found


def test_app_realized_prevalences_match_dirichlet_marginals():
    test = toy_test_set([200, 200, 200])
    bags = app_generate(test, r=4000, s=90, seed=11)
    realized = np.array([b.realized_prevalence for b in bags])
    assert np.abs(realized.mean(axis=0) - 1 / 3).max() < 0.02
    assert abs((realized[:, 0] < 0.5).mean() - 0.75) < 0.03


# ---------------------------------------------------------------------------
# shift measure and binning
# ---------------------------------------------------------------------------

def test_l1_shift_values():
    assert l1_shift([0.4, 0.6], [0.4, 0.6]) == 0.0
    assert l1_shift([1.0, 0.0], [0.0, 1.0]) == 2.0
    assert l1_shift([0.5, 0.5], [0.1, 0.9]) == pytest.approx(0.8)


def test_l1_shift_rejects_mismatched_lengths():
    with pytest.raises(DataError):
        l1_shift([0.5, 0.5], [0.2, 0.3, 0.5])


def test_bin_single_record():
    bins, width = bin_by_shift([0.4], n_bins=10)
    assert bins.tolist() == [9]
    assert width == pytest.approx(0.04)


def test_bin_extremes_land_in_first_and_last():
    bins, _ = bin_by_shift([0.1, 1.9], n_bins=2)
    assert bins.tolist() == [0, 1]


def test_bin_empty_bins_are_absent():
    bins, _ = bin_by_shift([0.05, 1.0], n_bins=10)
    assert sorted(set(bins.tolist())) == [0, 9]


def test_bin_means_match_brute_force_group_by():
    rng = np.random.default_rng(12)
    shifts = rng.uniform(0, 2, size=300)
    n_bins = 7
    bins, width = bin_by_shift(shifts, n_bins=n_bins)
    assert width == shifts.max() / n_bins
    assert isinstance(width, float)
    # brute force group-by
    expected = [min(int(l1 / width), n_bins - 1) for l1 in shifts.tolist()]
    assert bins.tolist() == expected
    assert np.bincount(bins, minlength=n_bins).sum() == 300


def test_bin_rejects_nonpositive_bin_count():
    with pytest.raises(ValueError):
        bin_by_shift([0.1], n_bins=0)


def test_bin_all_zero_shifts_collapse_to_first_bin():
    bins, width = bin_by_shift(np.zeros(4), n_bins=10)
    assert bins.tolist() == [0, 0, 0, 0]
    assert width == 0.0
