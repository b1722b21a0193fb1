import json
import os
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace

import numpy as np
import pytest

from shiftselect import evalcli, selection
from shiftselect.cap import CapStack, stack_caps
from shiftselect.classifiers import (TrainingError, argmax_rows, build_grid,
                                    default_model, decode_array, encode_array,
                                    model_to_record, predict_posteriors_batch)
from shiftselect.dataspace import DataError, stratified_split, synth_gaussian_pps
from shiftselect.protocol import Bag, app_generate, draw_bag, reveal_labels
from shiftselect.quantifiers import label_shares
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


def predicted_accuracy(entry, bag, weight=1.0):
    """The entry's predicted accuracy on the bag, through the batched API,
    under the LEAP `weight` (the registries here are built under 1)."""
    posteriors = entry.model.predict_posteriors(bag.features)[None]
    stack = stack_caps([entry.cap], weight)
    return stack_fields(stack, argmax_rows(posteriors),
                        stack.rows(posteriors))["accuracy"][0]


def stack_fields(stack, labels, rows):
    """Every output of a stack's two calls on one bag, by name, composed as
    tms_select composes them, and the label shares the solve reads."""
    prevalences = stack.prevalences(rows)
    return dict(zip(("qhat", "em_iterations", "em_converged", "accuracy",
                     "theta", "iterations", "converged"),
                    prevalences + stack.accuracies(labels, prevalences[0])),
                rho=label_shares(labels, stack.M.shape[1]))


def bag_posteriors(registry, test):
    """bag -> the bag's posterior rows under every registry model, sliced from
    one test-set cache and stacked along registry.entries."""
    cache = np.stack([e.model.predict_posteriors(test.X)
                      for e in registry.entries])
    def rows_for(bag):
        return cache[:, bag.indices]
    return rows_for


def bag_caches(registry, test):
    """bag -> tms_select's cache keywords for the bag: the predicted labels
    and quantifier rows under every registry model, sliced from test-set
    caches stacked along registry.entries."""
    posteriors = predict_posteriors_batch([e.model for e in registry.entries],
                                          test.X)
    labels, rows = argmax_rows(posteriors), registry.caps.rows(posteriors)
    return lambda bag: {"labels": labels[:, bag.indices],
                        "rows": rows[:, bag.indices]}


def scored_entry(model_id, val_accuracy):
    """An entry that holds only a validation accuracy, over a stand-in for
    the default LR model."""
    model = SimpleNamespace(family="LR", hyperparams=default_model("LR"))
    return RegistryEntry(model_id, model, val_accuracy, None)


def oracle_rows(registry, splits, bags):
    """The evaluation harness's oracle row for each bag, in bag order."""
    proper, _, test = splits
    config = evalcli.RunConfig(strategies=("oracle",))
    return list(evalcli._evaluate(config, registry, test, bags,
                                  proper.prevalence(), "run", "data", [], {}))


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
    assert registry.meta["n_classes"] == 2
    assert registry.meta["quantifier"] == "KDEyML"
    assert (registry.meta["bandwidth"], registry.meta["cap_weight"],
            registry.meta["smoothing"]) == (0.1, 1.0, 0.0)
    assert len(registry.meta["data_fingerprint"]) == 12


def test_a_heavy_cap_weight_predicts_the_plug_in_accuracy(splits):
    # as the LEAP weight grows, theta tends to the mixture estimate qhat, so
    # each model's estimate tends to sum_j M_jj qhat_j; the registry's meta
    # is the weight's one home, and its stack solves under it
    proper, validation, test = splits
    bag = draw_bag(test, [0.3, 0.7], 60, np.random.default_rng(9))
    gaps = {}
    for weight in (1e6, 1.0):
        reg = build_registry(("LR", "KNN"), proper, validation, seed=0,
                             cap_weight=weight)
        assert reg.caps.weight == reg.meta["cap_weight"] == weight
        outcome = tms_select(reg, "All", bag)
        P = predict_posteriors_batch([e.model for e in reg.entries],
                                     bag.features)
        qhat, _, _ = reg.caps.prevalences(reg.caps.rows(P))
        diagonals = np.array([np.diag(e.cap.rates) for e in reg.entries])
        plug_in = (diagonals * qhat).sum(axis=1)
        gaps[weight] = np.abs(outcome.estimates - plug_in).max()
    assert gaps[1e6] <= 1e-5
    assert gaps[1.0] > 1e-5


@pytest.mark.parametrize("weight", [0, -1.0, np.nan, np.inf, "x", None])
def test_build_registry_rejects_a_bad_cap_weight_before_training(
        splits, monkeypatch, weight):
    proper, validation, _ = splits

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the weight was checked")

    monkeypatch.setattr(selection, "train_grid", no_training)
    with pytest.raises(ValueError, match="positive finite"):
        build_registry(("KNN",), proper, validation, cap_weight=weight)


def test_registry_round_trip(registry, splits, tmp_path):
    _, _, test = splits
    save_registry(registry, tmp_path / "reg")
    loaded = load_registry(tmp_path / "reg")
    # loading builds no stacked KDE support, which the first evaluation
    # does, but it stacks the predictors, so a bad saved weight fails there
    assert not any("_stacked" in vars(e.cap.quantifier)
                   for e in loaded.entries)
    assert "caps" in vars(loaded)
    assert loaded.caps.weight == registry.meta["cap_weight"]
    assert loaded.meta == registry.meta
    # a built registry and its loaded copy hold the same three fields
    for r in (registry, loaded):
        assert [f.name for f in fields(r)] == ["entries", "warnings", "meta"]
        assert set(vars(r)) - {"caps"} == {"entries", "warnings", "meta"}
    assert [e.model_id for e in loaded.entries] == [e.model_id for e in registry.entries]
    assert [e.val_accuracy for e in loaded.entries] == \
        [e.val_accuracy for e in registry.entries]
    bag = draw_bag(test, [0.4, 0.6], 50, np.random.default_rng(1))
    for orig, redo in zip(registry.entries[:6], loaded.entries[:6]):
        assert orig.model.hyperparams == redo.model.hyperparams
        assert np.array_equal(orig.model.predict_posteriors(bag.features),
                              redo.model.predict_posteriors(bag.features))
        assert predicted_accuracy(orig, bag) == pytest.approx(
            predicted_accuracy(redo, bag), abs=1e-12)
    # the manifest is the whole registry, and it restores every entry exactly
    assert os.listdir(tmp_path / "reg") == ["manifest.json"]
    # the fit settings are recorded once, in the meta; an entry's predictor
    # record holds its rate matrix and KDE supports only
    manifest = json.loads((tmp_path / "reg" / "manifest.json").read_text())
    assert manifest["meta"]["smoothing"] == 0.0
    assert all(set(rec["cap"]) == {"rate_matrix", "support"}
               for rec in manifest["entries"])
    assert loaded.warnings == registry.warnings
    for orig, redo in zip(registry.entries, loaded.entries, strict=True):
        assert (redo.model.family, redo.model.hyperparams) == \
            (orig.model.family, orig.model.hyperparams)
        assert np.array_equal(orig.cap.rates, redo.cap.rates)
        for S, T in zip(orig.cap.quantifier.support,
                        redo.cap.quantifier.support, strict=True):
            assert np.array_equal(S, T)
        # the whole entry: id, accuracy, model and predictor
        assert (redo.model_id, redo.val_accuracy) == \
            (orig.model_id, orig.val_accuracy)
        assert model_to_record(redo.model) == model_to_record(orig.model)
        assert redo.cap.quantifier.bandwidth == orig.cap.quantifier.bandwidth
    rows_for = bag_posteriors(registry, test)
    P = rows_for(bag)
    assert np.array_equal(P, bag_posteriors(loaded, test)(bag))
    assert np.array_equal(*(
        tms_select(r, "All", bag, labels=argmax_rows(P),
                   rows=r.caps.rows(P)).estimates for r in (registry, loaded)))


@pytest.mark.parametrize("damage", ["old layout", "format_version 1",
                                    "format_version 3",
                                    "missing key", "truncated",
                                    "meta without smoothing",
                                    "warnings a string", "warning not a string",
                                    "entries an object",
                                    "an entry not an object",
                                    "unknown quantifier kind",
                                    "rate matrix of another size",
                                    "KDEyML without support",
                                    "CC with support",
                                    "unknown model family",
                                    "hyperparameters of another family",
                                    "model array missing",
                                    "LR arrays of one class more",
                                    "LR bias of another length",
                                    "KNN labels out of range",
                                    "KNN labels fewer than rows",
                                    "MLP hidden layers that differ",
                                    "KDE supports of another class count",
                                    "array of another dtype",
                                    "models of other feature counts",
                                    "a repeated model id", "no entries",
                                    "cap_weight 0", "cap_weight -1",
                                    "cap_weight x", "cap_weight None",
                                    "cap_weight nan", "cap_weight True",
                                    "bandwidth nan", "bandwidth inf",
                                    "bandwidth True",
                                    "val_accuracy high", "val_accuracy None",
                                    "val_accuracy 7.5", "val_accuracy -0.5",
                                    "val_accuracy nan", "val_accuracy True",
                                    "model_id 3.5", "model_id True"])
def test_load_registry_rejects_other_layouts(registry, tmp_path, damage):
    # two LR entries, then one KNN and one MLP entry
    regdir = tmp_path / "reg"
    entries = registry.entries[:2] + tuple(
        next(e for e in registry.entries if e.model.family == family)
        for family in ("KNN", "MLP"))
    save_registry(ModelRegistry(entries, [], registry.meta), regdir)
    manifest = json.loads((regdir / "manifest.json").read_text())
    n = manifest["meta"]["n_classes"]
    arrays = [rec["model"]["arrays"] for rec in manifest["entries"]]
    if damage == "old layout":
        # one manifest entry per model, with its model and accuracy predictor
        # in per-entry files beside it
        for rec in manifest["entries"]:
            model = rec.pop("model")
            rec["family"], rec["params"] = model["family"], model["params"]
            for name, part in (("model", model), ("cap", rec.pop("cap"))):
                (regdir / f"{name}_{rec['model_id']:04d}.json").write_text(
                    json.dumps(part))
    elif damage == "format_version 1":
        # the layout saved before version 2: no version at the top, and a
        # version, a class count and a second family in every model record
        del manifest["format_version"]
        manifest["meta"]["grid_sizes"] = {"LR": 30, "KNN": 10, "MLP": 10}
        for rec in manifest["entries"]:
            model = rec["model"]
            model.update(format_version=1, n_classes=n, hyperparams={
                "family": model["family"], "params": model.pop("params")})
    elif damage == "format_version 3":
        manifest["format_version"] = 3
    elif damage == "missing key":
        del manifest["warnings"]
    elif damage == "meta without smoothing":
        # every fit setting is checked against the config of a run
        del manifest["meta"]["smoothing"]
    elif damage == "warnings a string":
        # a run would report one warning per character
        manifest["warnings"] = "abc"
    elif damage == "warning not a string":
        manifest["warnings"] = ["model 3 failed", 7]
    elif damage == "entries an object":
        manifest["entries"] = {str(rec["model_id"]): rec
                               for rec in manifest["entries"]}
    elif damage == "an entry not an object":
        manifest["entries"][1] = [manifest["entries"][1]]
    elif damage == "unknown quantifier kind":
        manifest["meta"]["quantifier"] = "EMQ"
    elif damage == "rate matrix of another size":
        # a valid rate matrix, but TMS stacks them and each model's
        # posteriors have the registry's class count
        manifest["entries"][1]["cap"]["rate_matrix"] = encode_array(
            np.eye(n + 1))
    elif damage == "KDEyML without support":
        del manifest["entries"][0]["cap"]["support"]
    elif damage == "CC with support":
        # the registry counts, but every entry keeps its densities
        manifest["meta"]["quantifier"] = "CC"
    elif damage == "unknown model family":
        manifest["entries"][1]["model"]["family"] = "SVM"
    elif damage == "hyperparameters of another family":
        # an LR model whose hyperparameters are an MLP's
        manifest["entries"][1]["model"]["params"] = \
            manifest["entries"][3]["model"]["params"]
    elif damage == "model array missing":
        del arrays[0]["b"]
    elif damage == "LR arrays of one class more":
        # W and b fit each other, but not the registry's class count
        W = decode_array(arrays[0]["W"])
        arrays[0]["W"] = encode_array(np.hstack([W, W[:, :1]]))
        arrays[0]["b"] = encode_array(np.zeros(n + 1))
    elif damage == "LR bias of another length":
        arrays[1]["b"] = encode_array(np.zeros(5))
    elif damage == "KNN labels out of range":
        y = decode_array(arrays[2]["y_train"])
        arrays[2]["y_train"] = encode_array(np.full_like(y, 7))
    elif damage == "KNN labels fewer than rows":
        arrays[2]["y_train"] = encode_array(
            decode_array(arrays[2]["y_train"])[:10])
    elif damage == "MLP hidden layers that differ":
        arrays[3]["W1"] = encode_array(decode_array(arrays[3]["W1"])[:, :50])
    elif damage == "KDE supports of another class count":
        # supports that fit each other: one row per class, n + 1 wide
        manifest["entries"][0]["cap"]["support"] = [
            encode_array(np.full((1, n + 1), 1 / (n + 1)))] * (n + 1)
    elif damage == "array of another dtype":
        # the same bytes read as twice as many float32 values: a model of
        # twice the feature count
        W = arrays[0]["W"]
        W["dtype"], W["shape"][0] = "<f4", 2 * W["shape"][0]
    elif damage == "models of other feature counts":
        # a valid model, but TMS stacks every model's posteriors on one bag
        W = arrays[1]["W"]
        arrays[1]["W"] = encode_array(
            np.zeros((W["shape"][0] + 1, W["shape"][1])))
    elif damage == "a repeated model id":
        # a valid third entry that reuses the first one's id
        first, second = manifest["entries"][:2]
        manifest["entries"].append(dict(second, model_id=first["model_id"]))
    elif damage == "no entries":
        # nothing to stack, and nothing to select from
        manifest["entries"] = []
    elif damage.startswith(("cap_weight ", "bandwidth ")):
        # unchecked at load, such a weight or bandwidth would fail only in
        # the first TMS solve, with a message that does not say to retrain
        key, value = damage.split()
        manifest["meta"][key] = {"0": 0, "-1": -1, "x": "x", "None": None,
                                 "nan": np.nan, "inf": np.inf,
                                 "True": True}[value]
    elif damage.startswith(("val_accuracy ", "model_id ")):
        # unchecked at load, an accuracy would fail only in ims_select, or
        # win IMS above 1, and a fractional id would sort between two others
        key, value = damage.split()
        manifest["entries"][1][key] = {
            "high": "high", "None": None, "7.5": 7.5, "-0.5": -0.5,
            "nan": np.nan, "True": True, "3.5": 3.5}[value]
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
    assert loaded.caps.weight == registry.caps.weight
    for orig, redo in zip(registry.entries[:2], loaded.entries, strict=True):
        assert np.array_equal(redo.cap.rates, orig.cap.rates)


def test_saved_registry_states_each_fact_once(registry, tmp_path):
    # one format version, at the top; the meta holds the fit settings and
    # the class count, which each model record's arrays and each rate
    # matrix carry in their shapes
    save_registry(registry, tmp_path / "reg")
    doc = json.loads((tmp_path / "reg" / "manifest.json").read_text())
    assert set(doc) == {"format_version", "meta", "warnings", "entries"}
    assert doc["format_version"] == selection.FORMAT_VERSION == 2
    assert set(doc["meta"]) == set(registry.meta) == selection.META_KEYS == {
        "run_id", "seed", "families", "quantifier", "bandwidth",
        "cap_weight", "smoothing", "n_classes", "data_fingerprint"}
    for rec in doc["entries"]:
        assert set(rec) == {"model_id", "val_accuracy", "model", "cap"}
        assert set(rec["model"]) == {"family", "params", "seed", "meta",
                                     "arrays"}


def test_save_registry_refuses_what_load_registry_refuses(registry,
                                                          tmp_path):
    # a hand-built registry carries the default meta, the LEAP weight only;
    # it still solves, but load_registry would refuse its document
    hand_built = ModelRegistry(registry.entries[:3])
    assert hand_built.meta == {"cap_weight": 1.0}
    with pytest.raises(ValueError, match="meta keys"):
        save_registry(hand_built, tmp_path / "reg")
    assert not (tmp_path / "reg" / "manifest.json").exists()


def test_registry_round_trip_counting_quantifier(splits, tmp_path):
    proper, validation, test = splits
    counting = build_registry(("KNN",), proper, validation,
                              quantifier="CC", seed=0)
    save_registry(counting, tmp_path / "cc")
    loaded = load_registry(tmp_path / "cc")
    assert loaded.meta["quantifier"] == "CC"
    manifest = json.loads((tmp_path / "cc" / "manifest.json").read_text())
    assert all(set(rec["cap"]) == {"rate_matrix"}
               for rec in manifest["entries"])
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
        fam = [e for e in registry.entries if e.model.family == family]
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
    reg = ModelRegistry([scored_entry(3, 0.9), scored_entry(5, 0.9),
                         scored_entry(7, 0.8)])
    assert ims_select(reg, "All") == 3


def test_ims_argmax_invariant_to_positive_rescaling():
    accs = [0.61, 0.87, 0.44]
    reg1 = ModelRegistry([scored_entry(i, a) for i, a in enumerate(accs)])
    reg2 = ModelRegistry([scored_entry(i, 0.5 * a) for i, a in enumerate(accs)])
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
    for cached in ({}, {"labels": argmax_rows(P)[:, bag.indices],
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
    # every entry is predicted, and the pick is the best of the KNN rows
    assert len(outcome.estimates) == len(registry.entries)
    assert registry.entry(outcome.model_id).model.family == "KNN"
    knn = registry.scope_positions("KNN")
    assert outcome.estimated_accuracy == outcome.estimates[knn].max()


def test_tms_scope_is_the_argmax_of_its_rows_of_the_all_batch(
        registry, splits, strangle):
    from shiftselect import cap
    _, _, test = splits
    bag = draw_bag(test, [0.6, 0.4], 50, np.random.default_rng(13))
    every = tms_select(registry, "All", bag).estimates
    for scope in ("All", "LR", "KNN", "MLP"):
        positions = registry.scope_positions(scope)
        outcome = tms_select(registry, scope, bag)
        best = positions[selection.best_position(every[positions], scope)]
        assert outcome.model_id == registry.entries[best].model_id
        assert outcome.estimated_accuracy == every[best]
        assert np.array_equal(outcome.estimates, every)
    # stop the first model of each family early: a scope warns only of its
    # own, in model id order
    first = {}
    for i, e in enumerate(registry.entries):
        first.setdefault(e.model.family, i)
    strangle(cap, "leap_solve_batch", sorted(first.values()), max_iter=1)
    for scope in ("LR", "KNN", "MLP"):
        mid = registry.entries[first[scope]].model_id
        assert tms_select(registry, scope, bag).warnings == (
            f"model {mid}: accuracy solver did not converge",)
    assert tms_select(registry, "All", bag).warnings == tuple(
        f"model {registry.entries[i].model_id}: accuracy solver did not "
        "converge" for i in sorted(first.values()))


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
    rows, labels = registry.caps.rows(posteriors), argmax_rows(posteriors)
    rng = np.random.default_rng(12)
    for target in ([0.9, 0.1], [0.5, 0.5], [0.1, 0.9]):
        bag = draw_bag(test, target, 60, rng)
        for scope in ("All", "KNN"):
            cached = tms_select(registry, scope, bag,
                                labels=labels[:, bag.indices],
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
    rows, labels = registry.caps.rows(posteriors), argmax_rows(posteriors)
    warm = ModelRegistry(list(registry.entries))
    rng = np.random.default_rng(40)
    bags = [draw_bag(test, target, 50, rng)
            for target in ([0.9, 0.1], [0.5, 0.5], [0.2, 0.8])]
    scopes = ("All", "LR", "KNN", "MLP")
    stacked = []
    real_stack_caps = selection.stack_caps

    def counting(caps, weight):
        stacked.append(len(caps))
        return real_stack_caps(caps, weight)

    monkeypatch.setattr(selection, "stack_caps", counting)
    for scope in scopes:
        tms_select(warm, scope, bags[0])
    # every scope's first call shares one stack over all entries
    assert stacked == [len(registry.entries)]
    built = warm.caps
    for bag in bags:
        L, F = labels[:, bag.indices], rows[:, bag.indices]
        every = stack_fields(warm.caps, L, F)
        for scope in scopes:
            got = tms_select(warm, scope, bag, labels=L, rows=F)
            fresh = tms_select(ModelRegistry(list(registry.entries)), scope,
                               bag, labels=L, rows=F)
            assert warm.caps is built
            assert (got.model_id, got.estimated_accuracy, got.warnings) == (
                fresh.model_id, fresh.estimated_accuracy, fresh.warnings)
            assert np.array_equal(got.predicted_labels, fresh.predicted_labels)
            # the outcome holds three outputs of the two calls over every
            # entry; the scope's rows of each output are its models' k=1
            # outputs, bit for bit, and TMS takes their argmax
            for name, held in (("accuracy", got.estimates),
                               ("converged", got.converged),
                               ("em_converged", got.em_converged)):
                assert np.array_equal(held, every[name]), name
            positions = warm.scope_positions(scope)
            assert [registry.entries[i].model_id for i in positions] == [
                e.model_id for e in registry.entries
                if scope == "All" or e.model.family == scope]
            for i in positions:
                one = stack_fields(
                    stack_caps([registry.entries[i].cap], warm.caps.weight),
                    L[i:i + 1], F[i:i + 1])
                for name in one:
                    assert np.array_equal(every[name][i], one[name][0]), name
            best = positions[int(np.argmax(got.estimates[positions]))]
            assert got.estimated_accuracy == got.estimates[best]
            assert got.model_id == registry.entries[best].model_id
    assert len(stacked) == 1 + len(bags) * len(scopes)   # one per fresh


def test_registry_stack_is_read_only(registry):
    stack = registry.caps
    k, n = len(registry.entries), registry.meta["n_classes"]
    for name, shape in (("M", (k, n, n)), ("Q", (k, n, n)),
                        ("diagonal", (k, n))):
        a = getattr(stack, name)
        assert a.dtype == np.float64 and a.shape == shape, name
        assert not a.flags.writeable, name
    # one weight for the stack, the registry's
    assert stack.weight == registry.meta["cap_weight"]
    assert all(np.array_equal(M, e.cap.rates)
               for M, e in zip(stack.M, registry.entries))
    assert len(stack.quantifiers) == k
    assert all(q is e.cap.quantifier
               for q, e in zip(stack.quantifiers, registry.entries))
    assert not stack.quantifiers.flags.writeable


def test_empty_scope_rejected(registry):
    for scope in ("All", "LR"):
        with pytest.raises(ValueError, match="no models in scope"):
            ModelRegistry([]).scope_positions(scope)
    knn_only = ModelRegistry([e for e in registry.entries
                              if e.model.family == "KNN"])
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
        assert all(q is e.cap.quantifier and np.array_equal(M, e.cap.rates)
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
    caps = stack_caps(caps, registry.meta["cap_weight"])
    rows = caps.rows(posteriors)
    rng = np.random.default_rng(31)
    for target, size in (([0.9, 0.1], 60), ([0.5, 0.5], 100), ([0.2, 0.8], 33),
                         ([0.0, 1.0], 8), ([0.6, 0.4], 1)):
        bag = draw_bag(test, target, size, rng)
        cached = stack_fields(caps, argmax_rows(posteriors)[:, bag.indices],
                              rows[:, bag.indices])
        P = predict_posteriors_batch(models, bag.features)
        direct = stack_fields(caps, argmax_rows(P), caps.rows(P))
        for name in ("accuracy", "iterations", "em_iterations"):
            assert np.array_equal(cached[name], direct[name])


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
    """Route tms_select through CapStack.accuracies with its accuracy vector
    replaced by make(accuracy)."""
    real = CapStack.accuracies

    def patched(self, labels, qhat):
        accuracy, *rest = real(self, labels, qhat)
        return (make(accuracy.copy()), *rest)

    monkeypatch.setattr(CapStack, "accuracies", patched)


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
    caches = bag_caches(registry, test)
    chosen = set()
    for _ in range(30):
        for target in ([0.95, 0.05], [0.05, 0.95]):
            bag = draw_bag(test, target, 100, rng)
            outcome = tms_select(registry, "All", bag, **caches(bag))
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
    caches = bag_caches(registry, test)
    tms_accs, ims_accs = [], []
    for _ in range(60):
        bag = draw_bag(test, [0.05, 0.95], 100, rng)
        truth = reveal_labels(bag)
        outcome = tms_select(registry, "All", bag, **caches(bag))
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
    caches = bag_caches(registry, test)
    tms_accs, ims_accs = [], []
    for _ in range(30):
        bag = draw_bag(test, proper.prevalence(), 200, rng)
        truth = reveal_labels(bag)
        outcome = tms_select(registry, "All", bag, **caches(bag))
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
    caches = bag_caches(registry, test)
    for bag, oracle in zip(bags, oracle_rows(registry, splits, bags),
                           strict=True):
        truth = reveal_labels(bag)
        tms = tms_select(registry, "All", bag, **caches(bag))
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
        assert entry.model.hyperparams == default_model(family)
        assert entry.model.family == family


def test_default_select_missing_family_rejected(registry):
    lr_only = ModelRegistry([e for e in registry.entries
                             if e.model.family == "LR"])
    with pytest.raises(ValueError):
        default_select(lr_only, "MLP")
