import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftselect.dataspace import (DataError, Dataset, ParseError, as_prevalence,
                                   apply_scaler, fit_scaler,
                                   largest_remainder_counts, load_csv,
                                   stratified_split, synth_gaussian_pps)


# ---------------------------------------------------------------------------
# prevalence vectors
# ---------------------------------------------------------------------------

def test_prevalence_accepts_simplex_point():
    v = as_prevalence([0.2, 0.3, 0.5])
    assert v.sum() == pytest.approx(1.0)
    assert not v.flags.writeable


@pytest.mark.parametrize("bad", [
    [0.5, 0.6],           # sums above 1
    [0.5, 0.4],           # sums below 1
    [-0.1, 1.1],          # negative entry
    [0.5, np.nan, 0.5],   # non-finite
])
def test_prevalence_rejects_invalid(bad):
    with pytest.raises(DataError):
        as_prevalence(bad)


def test_stacked_prevalence_checks_every_row():
    rows = as_prevalence([[0.2, 0.8], [1.0, 0.0]], 2, stacked=True)
    assert rows.shape == (2, 2)
    assert not rows.flags.writeable
    with pytest.raises(DataError, match="sums to 0.9"):
        as_prevalence([[0.2, 0.8], [0.5, 0.4]], stacked=True)
    with pytest.raises(DataError):
        as_prevalence([0.2, 0.8], stacked=True)      # a vector, not rows
    with pytest.raises(DataError):
        as_prevalence([[0.2, 0.8]])                  # rows, not a vector


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
def test_prevalence_rejects_unless_normalized(raw):
    total = sum(raw)
    if abs(total - 1.0) > 1e-9:
        with pytest.raises(DataError):
            as_prevalence(raw)


# ---------------------------------------------------------------------------
# largest-remainder apportionment
# ---------------------------------------------------------------------------

def test_largest_remainder_exact_total():
    counts = largest_remainder_counts([0.3, 0.7], 10)
    assert counts.tolist() == [3, 7]


def test_largest_remainder_tie_breaks_by_index():
    # remainders 0.5/0.5: the lower index wins the spare unit
    counts = largest_remainder_counts([0.305, 0.695], 100)
    assert counts.tolist() == [31, 69]


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
       st.integers(min_value=0, max_value=500))
def test_largest_remainder_sums_and_bounds(weights, total):
    counts = largest_remainder_counts(weights, total)
    assert counts.sum() == total
    quota = np.asarray(weights) / np.sum(weights) * total
    assert np.all(counts >= np.floor(quota)) and np.all(counts <= np.ceil(quota))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic_remap(tmp_path):
    path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,4,b\n5,6,a\n7,8,b\n")
    ds = load_csv(path, "label")
    assert ds.n_classes == 2
    assert ds.labels.tolist() == [0, 1, 0, 1]
    assert ds.features.shape == (4, 2)


def test_load_csv_missing_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,,b\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, "label")
    assert err.value.line == 3
    assert err.value.column == "f2"
    assert "line 3" in str(err.value) and "f2" in str(err.value)


def test_load_csv_first_occurrence_remap(tmp_path):
    path = _write(tmp_path, "x,y\n0.1,5\n0.2,9\n0.3,5\n")
    ds = load_csv(path, "y")
    assert ds.class_map == {"5": 0, "9": 1}
    # re-read through the map: original values recover the stored ids
    originals = ["5", "9", "5"]
    assert [ds.class_map[v] for v in originals] == ds.labels.tolist()


def test_load_csv_single_class_rejected(tmp_path):
    path = _write(tmp_path, "x,y\n1,a\n2,a\n")
    with pytest.raises(DataError):
        load_csv(path, "y")


def test_load_csv_categorical_one_hot(tmp_path):
    path = _write(tmp_path, "color,x,label\nred,1,a\nblue,2,b\nred,3,a\n")
    ds = load_csv(path, "label")
    # 'color' expands to two indicator columns (first-occurrence order)
    assert ds.features.shape == (3, 3)
    assert ds.features[:, 0].tolist() == [1.0, 0.0, 1.0]   # red
    assert ds.features[:, 1].tolist() == [0.0, 1.0, 0.0]   # blue


def test_load_csv_label_by_index_no_header(tmp_path):
    path = _write(tmp_path, "1,2,a\n3,4,b\n")
    ds = load_csv(path, 2, header=False)
    assert ds.n_classes == 2
    assert ds.features.shape == (2, 2)


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------

def make_dataset(class_counts, seed=0):
    labels = np.concatenate([np.full(c, j) for j, c in enumerate(class_counts)])
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((labels.size, 3))
    return Dataset(X, labels, n_classes=len(class_counts))


def test_split_exact_divisibility():
    ds = make_dataset([50, 50])
    first, second = stratified_split(ds.all_instances(), 0.7, seed=0)
    assert len(first) == 70 and len(second) == 30
    assert first.prevalence().tolist() == [0.5, 0.5]
    assert second.prevalence().tolist() == [0.5, 0.5]


def test_split_half_of_seventy_is_equal():
    ds = make_dataset([70, 30])
    labelled, _ = stratified_split(ds.all_instances(), 0.7, seed=0)
    proper, validation = stratified_split(labelled, 0.5, seed=1)
    assert len(proper) == len(validation)


def test_split_counts_match_brute_force_apportionment():
    ds = make_dataset([7, 3])
    first, _ = stratified_split(ds.all_instances(), 0.7, seed=3)
    got = np.bincount(first.y, minlength=2)

    # brute force: among all per-class allocations totalling 7, the
    # largest-remainder result minimizes total deviation from exact quotas
    quotas = np.array([4.9, 2.1])
    best = min(
        ((c0, 7 - c0) for c0 in range(0, 8) if 0 <= 7 - c0 <= 3),
        key=lambda c: abs(c[0] - quotas[0]) + abs(c[1] - quotas[1]),
    )
    assert tuple(got) == best == (5, 2)


def test_split_disjoint_covering_deterministic():
    ds = make_dataset([13, 8, 9])
    a1, b1 = stratified_split(ds.all_instances(), 0.6, seed=11)
    a2, b2 = stratified_split(ds.all_instances(), 0.6, seed=11)
    assert np.array_equal(a1.indices, a2.indices)
    assert np.array_equal(b1.indices, b2.indices)
    combined = np.sort(np.concatenate([a1.indices, b1.indices]))
    assert np.array_equal(combined, np.arange(30))


def test_split_rejects_thin_class():
    ds = make_dataset([5, 2])
    thin = ds.all_instances().indices[ds.all_instances().y != 1]
    from shiftselect.dataspace import LabelledSet
    lset = LabelledSet(ds, np.concatenate([thin, [5]]))  # class 1 has 1 instance
    with pytest.raises(DataError):
        stratified_split(lset, 0.5, seed=0)


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_split_preserves_prevalence_within_bound(n_classes, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(5, 40, size=n_classes)
    ds = make_dataset(counts.tolist(), seed=seed)
    first, second = stratified_split(ds.all_instances(), 0.7, seed=seed)
    base = ds.all_instances().prevalence()
    for part in (first, second):
        l1 = np.abs(part.prevalence() - base).sum()
        assert l1 <= n_classes / len(part) + 1e-12


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_synth_degenerate_vertex():
    ds = synth_gaussian_pps(2, 2, [1.0, 0.0], 50, 1.0, seed=0)
    assert (ds.labels == 0).all()
    assert len(ds) == 50


def test_synth_counts_follow_largest_remainder():
    ds = synth_gaussian_pps(2, 3, [0.3, 0.7], 10, 1.0, seed=4)
    assert np.bincount(ds.labels).tolist() == [3, 7]


def test_synth_class_conditionals_independent_of_prevalence():
    a = synth_gaussian_pps(2, 2, [0.5, 0.5], 400, 3.0, seed=9)
    b = synth_gaussian_pps(2, 2, [0.25, 0.75], 400, 3.0, seed=9)
    a0 = a.features[a.labels == 0]
    b0 = b.features[b.labels == 0]
    assert len(a0) == 200 and len(b0) == 100
    # same seed, same class: identical generator stream, so the smaller run's
    # class-0 draws are a prefix of the larger run's (rows shuffled, so
    # membership rather than order)
    assert np.isin(b0[:, 0], a0[:, 0]).all()


def test_synth_class_conditionals_ks_large_sample():
    a = synth_gaussian_pps(2, 1, [0.5, 0.5], 20000, 2.0, seed=3)
    b = synth_gaussian_pps(2, 1, [0.2, 0.8], 20000, 2.0, seed=3)
    from scipy.stats import ks_2samp
    for cls in (0, 1):
        stat = ks_2samp(a.features[a.labels == cls, 0],
                        b.features[b.labels == cls, 0]).statistic
        assert stat < 0.05


def test_synth_rejects_small_n():
    with pytest.raises(DataError):
        synth_gaussian_pps(3, 2, [0.4, 0.3, 0.3], 2, 1.0, seed=0)


# ---------------------------------------------------------------------------
# scaler
# ---------------------------------------------------------------------------

def test_scaler_constant_column_maps_to_zero():
    ds = Dataset(np.array([[1.0, 2.0], [1.0, 4.0]]), np.array([0, 1]), 2)
    scaler = fit_scaler(ds.all_instances())
    out = apply_scaler(scaler, ds.features)
    assert np.allclose(out[:, 0], 0.0)


def test_scaler_two_point_symmetry():
    ds = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), 2)
    scaler = fit_scaler(ds.all_instances())
    out = apply_scaler(scaler, ds.features)
    assert np.allclose(out[:, 0], [-1.0, 1.0])


def test_scaler_standardizes_training_data():
    rng = np.random.default_rng(0)
    X = rng.normal(5.0, 3.0, size=(200, 4))
    ds = Dataset(X, rng.integers(0, 2, 200), 2)
    scaler = fit_scaler(ds.all_instances())
    out = apply_scaler(scaler, X)
    assert np.abs(out.mean(axis=0)).max() < 1e-6
    assert np.abs(out.std(axis=0) - 1.0).max() < 1e-6


# ---------------------------------------------------------------------------
# container invariants
# ---------------------------------------------------------------------------

def test_dataset_rejects_nan_features():
    with pytest.raises(DataError):
        Dataset(np.array([[1.0], [np.nan]]), np.array([0, 1]), 2)


def test_dataset_rejects_missing_class():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 1)), np.array([0, 0, 2]), 3)


def test_labelled_set_rejects_duplicates():
    ds = make_dataset([3, 3])
    from shiftselect.dataspace import LabelledSet
    with pytest.raises(DataError):
        LabelledSet(ds, np.array([0, 0, 1]))
