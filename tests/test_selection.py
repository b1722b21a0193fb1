import json
import os
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from shiftselect import evalcli, selection
from shiftselect.cap import predict_batch, stack_caps
from shiftselect.classifiers import (TrainingError, build_grid, default_model,
                                    encode_array, predict_posteriors_batch)
from shiftselect.dataspace import DataError, stratified_split, synth_gaussian_pps
from shiftselect.protocol import Bag, app_generate, draw_bag, reveal_labels
from shiftselect.selection import (ModelRegistry, RegistryEntry, build_registry,
                                   default_select, ims_select, load_registry,
                                   save_registry, tms_select)


@pytest.fixture(scope="module")
def splits():
    ds = synth_gaussian_pps(2, 2, [0.7, 0.3], 600, 2.0, seed=60)
    labelled, test = stratified_split(ds.all_instances(), 0.7, seed=0)
    proper, validation = stratified_split(labelled, 0.5, seed=1)
    return proper, validation, test


@pytest.fixture(scope="module")
def registry(splits):
    proper, validation, _ = splits
    return build_registry(("LR", "KNN", "MLP"), proper, validation, seed=3)


def predicted_accuracy(entry, bag):
    """The entry's predicted accuracy on the bag, through the batched API."""
    posteriors = entry.model.predict_posteriors(bag.features)[None]
    stack = stack_caps([entry.cap])
    return predict_batch(stack, posteriors,
                         stack.rows(posteriors)).accuracy[0]


def bag_posteriors(registry, test):
    """bag -> the bag's posterior rows under every registry model, sliced from
    one test-set cache and stacked along registry.entries."""
    cache = np.stack([e.model.predict_posteriors(test.X)
                      for e in registry.entries])
    def rows_for(bag):
        return cache[:, bag.indices]
    return rows_for


def oracle_rows(registry, splits, bags):
    """The evaluation harness's oracle row for each bag, in bag order."""
    proper, _, test = splits
    config = evalcli.RunConfig(strategies=("oracle",))
    flagged = {name: set() for name in selection.SOLVER_FLAGS}
    return list(evalcli._evaluate(config, registry, test, bags,
                                  proper.prevalence(), "run", "data", flagged))


# ---------------------------------------------------------------------------
# registry construction and persistence
# ---------------------------------------------------------------------------

def test_registry_sizes(splits):
    proper, validation, _ = splits
    knn_only = build_registry(("KNN",), proper, validation, seed=0)
    assert len(knn_only) == 10


def test_registry_full_zoo_size(registry):
    assert len(registry) == 30 + 10 + 10
    assert len({e.model_id for e in registry.entries}) == 50


def test_registry_meta_records_provenance(registry):
    assert registry.meta["grid_sizes"] == {"LR": 30, "KNN": 10, "MLP": 10}
    assert registry.meta["quantifier"] == "KDEyML"
    assert len(registry.meta["data_fingerprint"]) == 12


def test_registry_round_trip(registry, splits, tmp_path):
    _, _, test = splits
    save_registry(registry, tmp_path / "reg")
    loaded = load_registry(tmp_path / "reg")
    # loading builds no stacked KDE support and no stacked predictors: the
    # first evaluation and the first tms_select do
    assert not any("_stacked" in vars(e.cap.quantifier)
                   for e in loaded.entries)
    assert "caps" not in vars(loaded)
    assert loaded.meta == registry.meta
    assert [e.model_id for e in loaded.entries] == [e.model_id for e in registry.entries]
    assert [e.val_accuracy for e in loaded.entries] == \
        [e.val_accuracy for e in registry.entries]
    bag = draw_bag(test, [0.4, 0.6], 50, np.random.default_rng(1))
    for orig, redo in zip(registry.entries[:6], loaded.entries[:6]):
        assert orig.hyperparams == redo.hyperparams
        assert np.array_equal(orig.model.predict_posteriors(bag.features),
                              redo.model.predict_posteriors(bag.features))
        assert predicted_accuracy(orig, bag) == pytest.approx(
            predicted_accuracy(redo, bag), abs=1e-12)
    # the manifest is the whole registry, and it restores every entry exactly
    assert os.listdir(tmp_path / "reg") == ["manifest.json"]
    assert loaded.warnings == registry.warnings
    for orig, redo in zip(registry.entries, loaded.entries, strict=True):
        assert (redo.family, redo.hyperparams) == (orig.family, orig.hyperparams)
        assert np.array_equal(orig.cap.rates.m, redo.cap.rates.m)
        for S, T in zip(orig.cap.quantifier.support,
                        redo.cap.quantifier.support, strict=True):
            assert np.array_equal(S, T)
    rows_for = bag_posteriors(registry, test)
    P = rows_for(bag)
    assert np.array_equal(P, bag_posteriors(loaded, test)(bag))
    assert np.array_equal(
        predict_batch(registry.caps, P, registry.caps.rows(P)).accuracy,
        predict_batch(loaded.caps, P, loaded.caps.rows(P)).accuracy)


@pytest.mark.parametrize("damage", ["old layout", "missing key", "truncated",
                                    "entries an object",
                                    "an entry not an object",
                                    "mixed quantifier kinds",
                                    "rate matrix of another size",
                                    "KDEyML without support",
                                    "CC with support",
                                    "unknown model family",
                                    "model array missing",
                                    "a repeated model id"])
def test_load_registry_rejects_other_layouts(registry, tmp_path, damage):
    regdir = tmp_path / "reg"
    save_registry(ModelRegistry(registry.entries[:2], [], registry.meta),
                  regdir)
    manifest = json.loads((regdir / "manifest.json").read_text())
    if damage == "old layout":
        # one manifest entry per model, with its model and accuracy predictor
        # in per-entry files beside it
        for rec in manifest["entries"]:
            model = rec.pop("model")
            rec["family"], rec["hyperparams"] = model["family"], model["hyperparams"]
            for name, part in (("model", model), ("cap", rec.pop("cap"))):
                (regdir / f"{name}_{rec['model_id']:04d}.json").write_text(
                    json.dumps(part))
    elif damage == "missing key":
        del manifest["warnings"]
    elif damage == "entries an object":
        manifest["entries"] = {str(rec["model_id"]): rec
                               for rec in manifest["entries"]}
    elif damage == "an entry not an object":
        manifest["entries"][1] = [manifest["entries"][1]]
    elif damage == "mixed quantifier kinds":
        # each entry is a valid record, but TMS stacks predictors of one kind
        cap = manifest["entries"][1]["cap"]
        cap["quantifier_kind"] = "CC"
        del cap["support"], cap["bandwidth"]
    elif damage == "rate matrix of another size":
        # a valid rate matrix, but TMS stacks them and each model's
        # posteriors have the registry's class count
        manifest["entries"][1]["cap"]["rate_matrix"] = encode_array(
            np.eye(manifest["meta"]["n_classes"] + 1))
    elif damage == "KDEyML without support":
        del manifest["entries"][0]["cap"]["support"]
    elif damage == "CC with support":
        # every entry counts, so no kinds mix, but each keeps its densities
        for rec in manifest["entries"]:
            rec["cap"]["quantifier_kind"] = "CC"
    elif damage == "unknown model family":
        manifest["entries"][1]["model"]["family"] = "SVM"
    elif damage == "model array missing":
        del manifest["entries"][0]["model"]["arrays"]["b"]
    elif damage == "a repeated model id":
        # a valid third entry that reuses the first one's id
        first, second = manifest["entries"]
        manifest["entries"].append(dict(second, model_id=first["model_id"]))
    text = json.dumps(manifest)
    if damage == "truncated":
        text = text[:len(text) // 2]
    (regdir / "manifest.json").write_text(text)
    with pytest.raises(ValueError, match="retrain") as err:
        load_registry(regdir)
    assert str(regdir) in str(err.value)


def test_load_registry_ignores_per_entry_solver_settings(registry, tmp_path):
    # manifests once held each predictor's solver tolerance and iteration
    # cap; the solver now always uses SOLVER_TOL and SOLVER_MAX_ITER
    regdir = tmp_path / "reg"
    save_registry(ModelRegistry(registry.entries[:2], [], registry.meta),
                  regdir)
    manifest = json.loads((regdir / "manifest.json").read_text())
    assert not {"solver_tol", "solver_max_iter"} & set(
        manifest["entries"][0]["cap"])
    for rec in manifest["entries"]:
        rec["cap"].update(solver_tol=1e-8, solver_max_iter=10_000)
    (regdir / "manifest.json").write_text(json.dumps(manifest))
    loaded = load_registry(regdir)
    for orig, redo in zip(registry.entries[:2], loaded.entries, strict=True):
        assert redo.cap.weight == orig.cap.weight
        assert np.array_equal(redo.cap.rates.m, orig.cap.rates.m)


def test_registry_round_trip_counting_quantifier(splits, tmp_path):
    proper, validation, test = splits
    counting = build_registry(("KNN",), proper, validation,
                              quantifier_kind="CC", seed=0)
    save_registry(counting, tmp_path / "cc")
    loaded = load_registry(tmp_path / "cc")
    assert loaded.meta["quantifier"] == "CC"
    bag = draw_bag(test, [0.3, 0.7], 50, np.random.default_rng(2))
    for orig, redo in zip(counting.entries, loaded.entries, strict=True):
        assert type(redo.cap.quantifier) is type(orig.cap.quantifier)
        assert predicted_accuracy(orig, bag) == pytest.approx(
            predicted_accuracy(redo, bag), abs=1e-12)


def test_registry_skips_failed_configs(splits, monkeypatch):
    proper, validation, _ = splits
    from shiftselect import classifiers as cl
    real_train_grid = cl.train_grid

    def flaky_train_grid(family, hps, train_set, seeds, **kwargs):
        results = real_train_grid(family, hps, train_set, seeds, **kwargs)
        return [TrainingError("synthetic failure")
                if family == "MLP" and hp["alpha"] == 1e-3 else result
                for hp, result in zip(hps, results)]

    monkeypatch.setattr(selection, "train_grid", flaky_train_grid)
    reg = build_registry(("MLP",), proper, validation, seed=0)
    assert len(reg) == 8           # two learning-rate modes at alpha=1e-3 fail
    assert len(reg.warnings) == 2
    # ids keep grid enumeration order even with gaps
    ids = [e.model_id for e in reg.entries]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("error", [DataError("class 1 missing"),
                                   np.linalg.LinAlgError("singular"),
                                   ValueError("bad bandwidth")])
def test_registry_skips_failed_accuracy_predictors(splits, monkeypatch, error):
    proper, validation, _ = splits
    real_fit_cap = selection.fit_cap
    calls = []

    def flaky_fit_cap(posteriors, *args, **kwargs):
        calls.append(posteriors)
        if len(calls) == 4:         # the fourth grid point, model id 3
            raise error
        return real_fit_cap(posteriors, *args, **kwargs)

    monkeypatch.setattr(selection, "fit_cap", flaky_fit_cap)
    reg = build_registry(("KNN",), proper, validation, seed=0)
    assert [e.model_id for e in reg.entries] == [0, 1, 2, 4, 5, 6, 7, 8, 9]
    label = build_grid("KNN", 2)[3].label()
    assert reg.warnings == [f"model 3 ({label}) failed: {error}"]


def test_registry_propagates_other_predictor_errors(splits, monkeypatch):
    proper, validation, _ = splits

    def broken_fit_cap(*args, **kwargs):
        raise RuntimeError("a defect, not a data problem")

    monkeypatch.setattr(selection, "fit_cap", broken_fit_cap)
    with pytest.raises(RuntimeError, match="a defect"):
        build_registry(("KNN",), proper, validation, seed=0)


# ---------------------------------------------------------------------------
# inductive selection
# ---------------------------------------------------------------------------

def test_ims_matches_brute_force_table_scan(registry):
    chosen = ims_select(registry, "All")
    best = max(registry.entries, key=lambda e: (e.val_accuracy, -e.model_id))
    assert chosen == best.model_id
    # per family too
    for family in ("LR", "KNN", "MLP"):
        chosen = ims_select(registry, family)
        fam = [e for e in registry.entries if e.family == family]
        assert chosen == max(fam, key=lambda e: (e.val_accuracy, -e.model_id)).model_id


def test_ims_all_is_best_of_family_winners(registry):
    winners = [ims_select(registry, fam) for fam in ("LR", "KNN", "MLP")]
    overall = ims_select(registry, "All")
    accs = {mid: registry.entry(mid).val_accuracy for mid in winners}
    assert registry.entry(overall).val_accuracy == max(accs.values())


def test_ims_single_entry_scope(registry):
    solo = ModelRegistry([registry.entries[4]])
    assert ims_select(solo, "All") == registry.entries[4].model_id


def test_registry_holds_entries_sorted_by_model_id(registry):
    from dataclasses import replace
    entry = registry.entries[0]
    twins = ModelRegistry([replace(entry, model_id=7),
                           replace(entry, model_id=3)])
    assert [e.model_id for e in twins.entries] == [3, 7]


def test_registry_rejects_a_repeated_model_id(registry):
    from dataclasses import replace
    first, second = registry.entries[:2]
    with pytest.raises(ValueError, match=f"model id {first.model_id} is "
                                         "repeated"):
        ModelRegistry([first, second,
                       replace(second, model_id=first.model_id)])


def test_best_position_takes_the_first_max_and_skips_nan():
    nan, inf = np.nan, np.inf
    assert selection.best_position([nan, 0.5, 0.5], "x") == 1
    assert selection.best_position([0.2, nan, 0.7, 0.7], "x") == 2
    # NaN is not a low value: a NaN before -inf does not win
    assert selection.best_position([nan, -inf], "x") == 1
    # a (models, bags) matrix: one position per column
    columns = np.array([[0.5, nan, 0.1],
                        [0.9, 0.3, 0.1],
                        [0.9, 0.4, nan]])
    assert selection.best_position(columns, "x").tolist() == [1, 2, 0]


def test_best_position_all_nan_raises_with_where():
    with pytest.raises(ValueError, match="scope 'LR' on a bag"):
        selection.best_position([np.nan, np.nan], "scope 'LR' on a bag")
    with pytest.raises(ValueError, match="a bag"):
        selection.best_position(np.array([[0.5, np.nan], [0.1, np.nan]]),
                                "a bag")


def test_ims_tie_breaks_to_lowest_id():
    def entry(mid, acc):
        return RegistryEntry(mid, "LR", default_model("LR"), None, acc, None)
    reg = ModelRegistry([entry(3, 0.9), entry(5, 0.9), entry(7, 0.8)])
    assert ims_select(reg, "All") == 3


def test_ims_argmax_invariant_to_positive_rescaling():
    def entry(mid, acc):
        return RegistryEntry(mid, "LR", default_model("LR"), None, acc, None)
    accs = [0.61, 0.87, 0.44]
    reg1 = ModelRegistry([entry(i, a) for i, a in enumerate(accs)])
    reg2 = ModelRegistry([entry(i, 0.5 * a) for i, a in enumerate(accs)])
    assert ims_select(reg1, "All") == ims_select(reg2, "All") == 1


def test_ims_empty_scope_rejected(registry):
    with pytest.raises(ValueError):
        ims_select(ModelRegistry([]), "All")


# ---------------------------------------------------------------------------
# transductive selection
# ---------------------------------------------------------------------------

def test_tms_single_model_registry_labels_the_bag(registry, splits):
    _, _, test = splits
    solo = ModelRegistry([registry.entries[0]])
    bag = draw_bag(test, [0.5, 0.5], 40, np.random.default_rng(2))
    outcome = tms_select(solo, "All", bag)
    assert outcome.model_id == registry.entries[0].model_id
    assert outcome.predicted_labels.shape == (40,)
    expected = np.argmax(
        registry.entries[0].model.predict_posteriors(bag.features), axis=1)
    assert np.array_equal(outcome.predicted_labels, expected)


def test_tms_rejects_an_empty_bag(registry, splits):
    _, _, test = splits
    prevalence = np.array([0.5, 0.5])
    bag = Bag(np.array([], dtype=int), prevalence, prevalence, test)
    P = predict_posteriors_batch([e.model for e in registry.entries], test.X)
    F = registry.caps.rows(P)
    # from the bag's features, and from slices of test-set caches
    for cached in ({}, {"posteriors": P[:, bag.indices],
                        "rows": F[:, bag.indices]}):
        with pytest.raises(DataError, match="empty bag"):
            tms_select(registry, "All", bag, **cached)


def test_tms_picks_the_higher_estimate(registry, splits):
    _, _, test = splits
    bag = draw_bag(test, [0.2, 0.8], 60, np.random.default_rng(3))
    two = ModelRegistry(registry.entries[:2])
    outcome = tms_select(two, "All", bag)
    accs = [predicted_accuracy(e, bag) for e in two.entries]
    assert outcome.model_id == two.entries[int(np.argmax(accs))].model_id
    assert outcome.estimated_accuracy == pytest.approx(max(accs))


def test_tms_outcome_labels_have_bag_size(registry, splits):
    _, _, test = splits
    bag = draw_bag(test, [0.3, 0.7], 77, np.random.default_rng(4))
    outcome = tms_select(registry, "All", bag)
    assert outcome.predicted_labels.shape == (77,)


def test_tms_family_scope_restricts_candidates(registry, splits):
    _, _, test = splits
    bag = draw_bag(test, [0.4, 0.6], 50, np.random.default_rng(10))
    outcome = tms_select(registry, "KNN", bag)
    assert outcome.strategy == "TMS-KNN"
    assert registry.entry(outcome.model_id).family == "KNN"


def test_tms_propagates_solver_warnings(registry, splits, strangle):
    from shiftselect import cap
    _, _, test = splits
    bag = draw_bag(test, [0.4, 0.6], 50, np.random.default_rng(11))
    solo = ModelRegistry([registry.entries[0]])
    strangle(cap, "leap_solve_batch", [0], max_iter=1)
    outcome = tms_select(solo, "All", bag)
    assert outcome.warnings
    assert "did not converge" in outcome.warnings[0]


def test_tms_precomputed_test_set_rows_match_features(registry, splits):
    _, _, test = splits
    posteriors = np.stack([e.model.predict_posteriors(test.X)
                           for e in registry.entries])
    rows = registry.caps.rows(posteriors)
    rng = np.random.default_rng(12)
    for target in ([0.9, 0.1], [0.5, 0.5], [0.1, 0.9]):
        bag = draw_bag(test, target, 60, rng)
        for scope in ("All", "KNN"):
            cached = tms_select(registry, scope, bag,
                                posteriors=posteriors[:, bag.indices],
                                rows=rows[:, bag.indices])
            direct = tms_select(registry, scope, bag)
            assert cached.model_id == direct.model_id
            assert cached.estimated_accuracy == pytest.approx(
                direct.estimated_accuracy, abs=1e-9)
            assert np.array_equal(cached.predicted_labels,
                                  direct.predicted_labels)


def test_warm_registry_stack_equals_a_fresh_registry_and_one_model_calls(
        registry, splits, monkeypatch):
    _, _, test = splits
    posteriors = predict_posteriors_batch([e.model for e in registry.entries],
                                          test.X)
    rows = registry.caps.rows(posteriors)
    warm = ModelRegistry(list(registry.entries))
    rng = np.random.default_rng(40)
    bags = [draw_bag(test, target, 50, rng)
            for target in ([0.9, 0.1], [0.5, 0.5], [0.2, 0.8])]
    scopes = ("All", "LR", "KNN", "MLP")
    stacked = []
    real_stack_caps = selection.stack_caps

    def counting(caps):
        stacked.append(len(caps))
        return real_stack_caps(caps)

    monkeypatch.setattr(selection, "stack_caps", counting)
    for scope in scopes:
        tms_select(warm, scope, bags[0])
    # every scope's first call shares one stack over all entries
    assert stacked == [len(registry.entries)]
    built = warm.caps
    fields = ("accuracy", "theta", "rho", "qhat", "iterations", "converged",
              "em_iterations", "em_converged")
    for bag in bags:
        P, F = posteriors[:, bag.indices], rows[:, bag.indices]
        for scope in scopes:
            got = tms_select(warm, scope, bag, posteriors=P, rows=F)
            fresh = tms_select(ModelRegistry(list(registry.entries)), scope,
                               bag, posteriors=P, rows=F)
            assert warm.caps is built
            assert (got.model_id, got.estimated_accuracy, got.nonconverged,
                    got.em_nonconverged) == (
                fresh.model_id, fresh.estimated_accuracy, fresh.nonconverged,
                fresh.em_nonconverged)
            assert np.array_equal(got.predicted_labels, fresh.predicted_labels)
            # the scope's sub-stack is the models' k=1 predictions, bit for
            # bit, and TMS takes its argmax
            positions = warm.scope_positions(scope)
            assert [registry.entries[i].model_id for i in positions] == [
                e.model_id for e in registry.entries
                if scope == "All" or e.family == scope]
            batch = predict_batch(built.take(positions), P[positions],
                                  F[positions])
            for j, i in enumerate(positions):
                one = predict_batch(stack_caps([registry.entries[i].cap]),
                                    P[i:i + 1], F[i:i + 1])
                for name in fields:
                    assert np.array_equal(getattr(batch, name)[j],
                                          getattr(one, name)[0]), name
            best = int(np.argmax(batch.accuracy))
            assert got.estimated_accuracy == batch.accuracy[best]
            assert got.model_id == registry.entries[positions[best]].model_id
    assert len(stacked) == 1 + len(bags) * len(scopes)   # one per fresh


def test_taken_scope_stack_equals_stacking_the_scope(registry):
    for scope in ("All", "LR", "KNN", "MLP"):
        positions = registry.scope_positions(scope)
        taken = registry.caps.take(positions)
        stacked = stack_caps([registry.entries[i].cap for i in positions])
        for name in ("M", "Q", "diagonal", "weight"):
            a, b = getattr(taken, name), getattr(stacked, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable, name
        assert len(taken.quantifiers) == len(stacked.quantifiers)
        assert all(q is r for q, r in zip(taken.quantifiers,
                                          stacked.quantifiers))
        assert not taken.quantifiers.flags.writeable
    one = registry.caps.take(np.array([3]))
    assert one.quantifiers.tolist() == [registry.entries[3].cap.quantifier]


def test_scope_stack_is_taken_once_per_scope(registry, splits):
    _, _, test = splits
    bag = draw_bag(test, [0.4, 0.6], 50, np.random.default_rng(43))
    fresh = ModelRegistry(list(registry.entries))
    for scope in ("All", "LR", "KNN", "MLP"):
        positions, taken = fresh.scope_stack(scope)
        assert fresh.scope_stack(scope)[1] is taken
        assert np.array_equal(positions, fresh.scope_positions(scope))
        assert not positions.flags.writeable
        want = fresh.caps.take(positions)
        for name in ("M", "Q", "diagonal", "weight"):
            assert getattr(taken, name).tobytes() == \
                getattr(want, name).tobytes(), name
        # TMS through the kept sub-stack is the uncached pass, bit for bit
        P = predict_posteriors_batch([fresh.entries[i].model
                                      for i in positions], bag.features)
        batch = predict_batch(want, P, want.rows(P))
        best = int(np.argmax(batch.accuracy))
        got = tms_select(fresh, scope, bag)
        assert got.model_id == fresh.entries[positions[best]].model_id
        assert got.estimated_accuracy == float(batch.accuracy[best])


def test_empty_scope_rejected(registry):
    for scope in ("All", "LR"):
        with pytest.raises(ValueError, match="no models in scope"):
            ModelRegistry([]).scope_positions(scope)
    knn_only = ModelRegistry([e for e in registry.entries
                              if e.family == "KNN"])
    with pytest.raises(ValueError, match="no models in scope 'LR'"):
        tms_select(knn_only, "LR", None)


def test_registry_entries_cannot_change_so_a_stack_is_kept(registry, splits):
    _, _, test = splits
    bag = draw_bag(test, [0.3, 0.7], 50, np.random.default_rng(41))
    entries = list(registry.entries)
    kept = ModelRegistry(list(entries))      # a list is taken as a tuple

    def check():
        # each outcome equals a fresh registry's over the same entries
        got = tms_select(kept, "All", bag)
        fresh = tms_select(ModelRegistry(list(kept.entries)), "All", bag)
        assert (got.model_id, got.estimated_accuracy) == \
            (fresh.model_id, fresh.estimated_accuracy)
        stack = kept.caps
        assert len(stack) == len(kept.entries)
        assert all(q is e.cap.quantifier and np.array_equal(M, e.cap.rates.m)
                   for q, M, e in zip(stack.quantifiers, stack.M,
                                      kept.entries))
        return stack

    first = check()
    assert check() is first
    assert kept.entries == tuple(entries)
    with pytest.raises(AttributeError):
        kept.entries.pop()                                   # shortened
    with pytest.raises(TypeError):
        kept.entries[0] = entries[-1]                        # one replaced
    with pytest.raises(FrozenInstanceError):
        kept.entries = entries[:3]                           # list replaced
    assert check() is first and kept.entries == tuple(entries)


def test_predictions_from_features_equal_sliced_test_set_caches(registry,
                                                               splits):
    # labelling a bag online must give exactly what the experiment gets from
    # its test-set caches
    _, _, test = splits
    caps = [e.cap for e in registry.entries]
    models = [e.model for e in registry.entries]
    posteriors = predict_posteriors_batch(models, test.X)
    caps = stack_caps(caps)
    rows = caps.rows(posteriors)
    rng = np.random.default_rng(31)
    for target, size in (([0.9, 0.1], 60), ([0.5, 0.5], 100), ([0.2, 0.8], 33),
                         ([0.0, 1.0], 8), ([0.6, 0.4], 1)):
        bag = draw_bag(test, target, size, rng)
        cached = predict_batch(caps, posteriors[:, bag.indices],
                               rows[:, bag.indices])
        P = predict_posteriors_batch(models, bag.features)
        direct = predict_batch(caps, P, caps.rows(P))
        for name in ("accuracy", "iterations", "em_iterations"):
            assert np.array_equal(getattr(cached, name), getattr(direct, name))


def test_loaded_registry_shares_one_neighbour_search_per_bag(registry, splits,
                                                              tmp_path,
                                                              monkeypatch):
    from shiftselect import classifiers
    _, _, test = splits
    save_registry(registry, tmp_path / "reg")
    loaded = load_registry(tmp_path / "reg")
    models = [e.model for e in loaded.entries]
    knn = [m for m in models if m.family == "KNN"]
    assert len(knn) == 10 and knn[0].X_train is not knn[1].X_train
    bags = [draw_bag(test, target, 40, np.random.default_rng(20))
            for target in ([0.8, 0.2], [0.2, 0.8])]
    assert np.array_equal(
        classifiers.predict_posteriors_batch(models, bags[0].features),
        np.stack([m.predict_posteriors(bags[0].features) for m in models]))
    sizes = []
    real = classifiers._knn_posteriors

    def counting(group, X):
        sizes.append(len(group))
        return real(group, X)

    monkeypatch.setattr(classifiers, "_knn_posteriors", counting)
    for bag in bags:
        tms_select(loaded, "All", bag)
    assert sizes == [len(knn)] * len(bags)


def test_registry_computes_validation_posteriors_once_per_model(splits,
                                                                monkeypatch):
    from shiftselect import classifiers
    proper, validation, _ = splits
    calls = []
    for cls in (classifiers.LRModel, classifiers.MLPModel):
        real = cls.predict_posteriors

        def counting(self, X, real=real):
            calls.append(id(self))
            return real(self, X)

        monkeypatch.setattr(cls, "predict_posteriors", counting)
    reg = build_registry(("LR", "MLP"), proper, validation, seed=0)
    assert sorted(calls) == sorted(id(e.model) for e in reg.entries)


def test_tms_and_oracle_exact_tie_goes_to_lowest_model_id(registry, splits):
    from dataclasses import replace
    _, _, test = splits
    bag = draw_bag(test, [0.4, 0.6], 50, np.random.default_rng(13))
    entry = registry.entries[0]
    twins = ModelRegistry([replace(entry, model_id=7),
                           replace(entry, model_id=3)])
    assert tms_select(twins, "All", bag).model_id == 3
    assert oracle_rows(twins, splits, [bag])[0].model_id == 3


def _with_accuracies(monkeypatch, make):
    """Route tms_select through predict_batch with its accuracy vector
    replaced by make(accuracy)."""
    from dataclasses import replace
    real = selection.predict_batch

    def patched(*args, **kwargs):
        batch = real(*args, **kwargs)
        return replace(batch, accuracy=make(batch.accuracy.copy()))

    monkeypatch.setattr(selection, "predict_batch", patched)


def test_tms_nan_estimate_never_wins(registry, splits, monkeypatch):
    _, _, test = splits
    bag = draw_bag(test, [0.2, 0.8], 60, np.random.default_rng(3))
    three = ModelRegistry(registry.entries[:3])
    honest = tms_select(three, "All", bag)
    accs = {}

    def poison_winner(acc):
        winner = [e.model_id for e in three.entries].index(honest.model_id)
        acc[winner] = np.nan
        accs["rest"] = acc
        return acc

    _with_accuracies(monkeypatch, poison_winner)
    outcome = tms_select(three, "All", bag)
    assert outcome.model_id != honest.model_id
    assert outcome.estimated_accuracy == np.nanmax(accs["rest"])


def test_tms_all_nan_scope_is_rejected(registry, splits, monkeypatch):
    _, _, test = splits
    bag = draw_bag(test, [0.5, 0.5], 40, np.random.default_rng(14))
    _with_accuracies(monkeypatch, lambda acc: np.full_like(acc, np.nan))
    with pytest.raises(ValueError, match=r"'KNN'.*40 instances"):
        tms_select(registry, "KNN", bag)


def test_tms_adapts_across_opposite_vertex_bags(registry, splits):
    _, _, test = splits
    rng = np.random.default_rng(5)
    rows_for = bag_posteriors(registry, test)
    chosen = set()
    for _ in range(30):
        for target in ([0.95, 0.05], [0.05, 0.95]):
            bag = draw_bag(test, target, 100, rng)
            outcome = tms_select(registry, "All", bag, posteriors=rows_for(bag))
            chosen.add(outcome.model_id)
    assert len(chosen) >= 2


def test_ims_is_bag_independent(registry, splits):
    _, _, test = splits
    # the chosen id never consults the bag
    first = ims_select(registry, "All")
    for seed in range(5):
        assert ims_select(registry, "All") == first


def test_tms_beats_ims_under_extreme_shift(registry, splits):
    proper, _, test = splits
    rng = np.random.default_rng(6)
    ims_id = ims_select(registry, "All")
    rows_for = bag_posteriors(registry, test)
    tms_accs, ims_accs = [], []
    for _ in range(60):
        bag = draw_bag(test, [0.05, 0.95], 100, rng)
        truth = reveal_labels(bag)
        outcome = tms_select(registry, "All", bag, posteriors=rows_for(bag))
        tms_accs.append((outcome.predicted_labels == truth).mean())
        ims_labels = np.argmax(
            registry.entry(ims_id).model.predict_posteriors(bag.features),
            axis=1)
        ims_accs.append((ims_labels == truth).mean())
    assert np.mean(tms_accs) >= np.mean(ims_accs)


def test_tms_matches_ims_under_zero_shift(registry, splits):
    proper, _, test = splits
    rng = np.random.default_rng(7)
    ims_id = ims_select(registry, "All")
    rows_for = bag_posteriors(registry, test)
    tms_accs, ims_accs = [], []
    for _ in range(30):
        bag = draw_bag(test, proper.prevalence(), 200, rng)
        truth = reveal_labels(bag)
        outcome = tms_select(registry, "All", bag, posteriors=rows_for(bag))
        tms_accs.append((outcome.predicted_labels == truth).mean())
        ims_labels = np.argmax(
            registry.entry(ims_id).model.predict_posteriors(bag.features),
            axis=1)
        ims_accs.append((ims_labels == truth).mean())
    assert abs(np.mean(tms_accs) - np.mean(ims_accs)) <= 0.05


# ---------------------------------------------------------------------------
# oracle and defaults
# ---------------------------------------------------------------------------

def test_oracle_dominates_every_strategy(registry, splits):
    _, _, test = splits
    bags = app_generate(test, r=10, s=80, seed=8)
    ims_id = ims_select(registry, "All")
    rows_for = bag_posteriors(registry, test)
    for bag, oracle in zip(bags, oracle_rows(registry, splits, bags),
                           strict=True):
        truth = reveal_labels(bag)
        tms = tms_select(registry, "All", bag, posteriors=rows_for(bag))
        tms_acc = (tms.predicted_labels == truth).mean()
        ims_acc = (np.argmax(registry.entry(ims_id).model.predict_posteriors(
            bag.features), axis=1) == truth).mean()
        assert oracle.true_acc >= tms_acc - 1e-12
        assert oracle.true_acc >= ims_acc - 1e-12
        for family in ("LR", "KNN", "MLP"):
            did = default_select(registry, family)
            dacc = (np.argmax(registry.entry(did).model.predict_posteriors(
                bag.features), axis=1) == truth).mean()
            assert oracle.true_acc >= dacc - 1e-12


def test_oracle_matches_exhaustive_scan(registry, splits):
    _, _, test = splits
    bag = draw_bag(test, [0.4, 0.6], 70, np.random.default_rng(9))
    truth = reveal_labels(bag)
    outcome = oracle_rows(registry, splits, [bag])[0]
    best = max(
        registry.entries,
        key=lambda e: ((np.argmax(e.model.predict_posteriors(bag.features),
                                  axis=1) == truth).mean(),
                       -e.model_id))
    assert outcome.model_id == best.model_id


def test_default_select_finds_declared_defaults(registry):
    for family in ("LR", "KNN", "MLP"):
        mid = default_select(registry, family)
        entry = registry.entry(mid)
        assert entry.hyperparams == default_model(family)
        assert entry.family == family


def test_default_select_missing_family_rejected(registry):
    lr_only = ModelRegistry([e for e in registry.entries if e.family == "LR"])
    with pytest.raises(ValueError):
        default_select(lr_only, "MLP")
