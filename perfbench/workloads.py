"""The benchmark's workloads.

Each workload function takes (seed, seconds, trace, workdir) and returns a
:class:`Outcome`.  With ``trace`` false the metrics are the end-to-end ones;
with ``trace`` true the same work runs once untraced and once under a full
:class:`spans.Recorder`, and the metrics are the per-layer ones.

Every call into shiftselect that is timed goes through a public entry point:
the ``shiftselect train`` CLI, ``load_registry``, ``run_experiment``,
``emit_report``, ``app_generate`` and ``tms_select``.  ``online-label``
draws its bags with the test split and protocol seed that ``run_experiment``
passes to ``app_generate``, so they are the bags ``grid-bags`` evaluates for
the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import shiftselect
from shiftselect import evalcli, protocol, selection

import spans

# grid-bags evaluates this many bags per second of --seconds: 240 bags at
# 40 s.  On a 2-core machine a set-up takes about 10 s and a bag about
# 0.11 s, so evaluate lasts about --seconds, and label_ms_p95 has 240
# samples from 240 different bags.
GRID_BAGS_PER_SECOND = 6
# Bags evaluated again for the determinism check (grid-bags) and through
# run_experiment for the online/grid cross-check (online-label).
CHECK_BAGS = 10
# label_ms_p95 needs at least 200 samples (ten beyond the percentile).
ONLINE_MIN_BAGS = 200
ONLINE_POOL = 2000
LOAD_REPS = 15
TIE_TOL = 1e-9

clock = time.perf_counter


@dataclass
class Outcome:
    metrics: dict                       # name -> (value, unit)
    attempted: int
    failed: int
    checks: list = field(default_factory=list)   # (name, ok, detail)
    params: dict = field(default_factory=dict)
    spans: dict = None

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))


def _write_config(path: Path, seed: int, r: int, outdir: Path) -> Path:
    # every other key keeps the paper default: synthetic 3 classes, 2 dims,
    # n=2000, LR 25 / KNN 10 / MLP 10, s=100, all nine strategies
    path.write_text(json.dumps({"seed": seed, "r": r, "outdir": str(outdir)}))
    return path


def _train(config_path: Path, outdir: Path) -> Path:
    """`shiftselect train`; returns the persisted registry directory."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = evalcli.main(["train", "--config", str(config_path),
                             "--outdir", str(outdir)])
    if code != 0:
        raise RuntimeError(f"shiftselect train exited with code {code}")
    return outdir / "registry"


def source_digest() -> str:
    """Digest of the shiftselect sources the benchmark imported."""
    digest = hashlib.sha256()
    for path in sorted(Path(shiftselect.__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _training_ops(registry) -> tuple:
    """(grid entries attempted, grid entries that failed to train)."""
    return len(registry.entries) + len(registry.warnings), len(registry.warnings)


def _median(values) -> float:
    return float(np.median(values))


# ---------------------------------------------------------------------------
# grid-bags: the paper's experiment, set-up plus evaluate plus report
# ---------------------------------------------------------------------------

def _setup(seed, workdir: Path, name: str, n_bags: int):
    """Config -> ready registry: `shiftselect train`, then `load_registry`."""
    config_path = _write_config(workdir / f"{name}.json", seed, n_bags,
                                workdir / name)
    t0 = clock()
    registry = selection.load_registry(_train(config_path, workdir / name))
    return registry, config_path, clock() - t0


def _evaluate(registry, config_path: Path):
    """run_experiment on a prebuilt registry, then emit_report; returns the
    rows and the bytes of results.csv."""
    config = evalcli.load_config(config_path)
    table = evalcli.run_experiment(config, registry=registry)
    evalcli.emit_report(table, config.outdir)
    return table.rows, (Path(config.outdir) / "results.csv").read_bytes()


def _check_results_history(results: bytes, workdir: Path, key: str,
                           out: Outcome):
    """results.csv must be byte-identical across every run of the same
    workload, seed and sources in this checkout."""
    path = workdir.parent / "results-sha256" / f"{key}.txt"
    digest = hashlib.sha256(results).hexdigest()
    seen = path.read_text().strip() if path.is_file() else None
    out.check("results_csv_identical_across_runs", seen in (None, digest),
              "first run" if seen is None else f"sha256 {digest[:12]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")


def _quality(true_acc, est_acc, oracle_acc) -> dict:
    """Selection quality over bags: TMS-All true accuracy, its regret against
    the oracle, and the accuracy-prediction error."""
    true_acc, est_acc, oracle_acc = (np.asarray(v, dtype=float)
                                     for v in (true_acc, est_acc, oracle_acc))
    return {"tms_acc": (float(true_acc.mean()), "frac"),
            "regret": (float((oracle_acc - true_acc).mean()), "frac"),
            "est_err": (float(np.abs(est_acc - true_acc).mean()), "frac")}


def _traced(out: Outcome, quality: dict, recorder, overhead: float) -> Outcome:
    """Per-layer metrics.  regret and est_err vary too much from seed to
    seed for an end-to-end bound, so they are reported here."""
    out.metrics = {**spans.layer_metrics(recorder, overhead),
                   "regret": quality["regret"], "est_err": quality["est_err"]}
    out.spans = recorder.dump()
    return out


def _untraced(out: Outcome, quality: dict, timings: dict) -> Outcome:
    out.metrics = {**timings, "tms_acc": quality["tms_acc"],
                   "ok_frac": (1.0 - out.failed / out.attempted, "frac")}
    return out


def _label_ms(seconds: np.ndarray) -> dict:
    label_ms = 1000.0 * seconds
    return {"label_ms_p50": (float(np.percentile(label_ms, 50)), "ms"),
            "label_ms_p95": (float(np.percentile(label_ms, 95)), "ms")}


def _tms_key(row):
    return (row.bag_id, row.model_id, row.est_acc, row.true_acc, row.l1_shift)


def grid_bags(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    n_bags = max(1, int(GRID_BAGS_PER_SECOND * seconds))
    # untraced: one set-up is evaluated with only tms_select timed (for
    # label_ms), the other is set up only.  traced: both are evaluated, the
    # first untraced and the second under the full recorder.
    timer = spans.Recorder(((selection, "tms_select"),), methods=False)
    recorders = ([contextlib.nullcontext(), spans.Recorder()] if trace
                 else [timer, contextlib.nullcontext()])
    passes = []
    for i, recorder in enumerate(recorders):
        with recorder:
            registry, config_path, setup_s = _setup(seed, workdir, f"setup{i}",
                                                    n_bags)
            rows = results = evaluate_s = None
            if trace or i == 0:
                t = clock()
                rows, results = _evaluate(registry, config_path)
                evaluate_s = clock() - t
        shutil.rmtree(workdir / f"setup{i}" / "registry")
        passes.append({"registry": registry, "setup_s": setup_s,
                       "evaluate_s": evaluate_s, "rows": rows, "results": results})

    attempted = sum(_training_ops(p["registry"])[0] for p in passes)
    failed = sum(_training_ops(p["registry"])[1] for p in passes)
    out = Outcome({}, attempted, failed)
    first = passes[0]
    tms = sorted((r for r in first["rows"] if r.strategy == "TMS-All"),
                 key=lambda r: r.bag_id)
    oracle = {r.bag_id: r.true_acc for r in first["rows"] if r.strategy == "oracle"}
    est = np.array([r.est_acc for r in tms])
    out.check("every_tms_bag_present", len(tms) == n_bags)
    out.check("tms_est_acc_in_unit_interval", ((est >= 0.0) & (est <= 1.0)).all(),
              f"range [{est.min():.6g}, {est.max():.6g}]")
    out.check("oracle_dominates_tms",
              all(oracle[r.bag_id] >= r.true_acc for r in tms))

    # determinism, untimed: the first CHECK_BAGS bags again on every set-up's
    # registry give one results.csv, whose TMS-All rows are the run's own
    config_path = _write_config(workdir / "check.json", seed, CHECK_BAGS,
                                workdir / "check")
    checks = [_evaluate(p["registry"], config_path) for p in passes]
    out.check("results_csv_identical_across_setups",
              all(c[1] == checks[0][1] for c in checks), f"{len(checks)} set-ups")
    out.check("check_bags_match_run",
              [_tms_key(r) for r in checks[0][0] if r.strategy == "TMS-All"]
              == [_tms_key(r) for r in tms[:CHECK_BAGS]])
    if trace:
        out.check("traced_results_csv_identical",
                  passes[1]["results"] == first["results"])
    _check_results_history(first["results"], workdir,
                           f"grid-bags-seed{seed}-bags{n_bags}-{source_digest()}",
                           out)

    quality = _quality([r.true_acc for r in tms], est,
                       [oracle[r.bag_id] for r in tms])
    tms_s = timer.span_durations("selection.tms_select")
    setup_s = _median([p["setup_s"] for p in passes])
    out.params = {"bags": n_bags, "setups": len(passes),
                  "models": len(first["registry"].entries),
                  "label_samples": int(tms_s.size),
                  "setup_s_each": [round(p["setup_s"], 3) for p in passes],
                  "check_bags": CHECK_BAGS}
    if trace:
        return _traced(out, quality, recorders[1],
                       passes[1]["evaluate_s"] / first["evaluate_s"] - 1.0)
    return _untraced(out, quality, {
        "setup_s": (setup_s, "s"),
        "bags_per_s": (n_bags / first["evaluate_s"], "1/s"),
        "experiment_s": (setup_s + first["evaluate_s"], "s"),
        **_label_ms(tms_s),
    })


# ---------------------------------------------------------------------------
# online-label: load a saved registry, label one bag at a time
# ---------------------------------------------------------------------------

def _label(registry, bags, stop):
    """tms_select each bag in turn until stop(n, elapsed); a raised error is
    kept in place of the outcome."""
    outcomes, times = [], []
    start = clock()
    for bag in bags:
        t = clock()
        try:
            result = selection.tms_select(registry, "All", bag)
        except Exception as exc:  # noqa: BLE001 - counted as a failed bag
            result = exc
        times.append(clock() - t)
        outcomes.append(result)
        if stop(len(outcomes), clock() - start):
            break
    return outcomes, np.array(times)


def _grid_path(registry, config_path: Path):
    """Run the experiment, untimed, on CHECK_BAGS bags.  Returns its TMS-All
    rows by bag id and the arguments it passed to app_generate (test split,
    bag size, protocol seed), from which the online bags are drawn."""
    calls = []
    original = evalcli.app_generate

    def spy(*args, **kwargs):
        calls.append(inspect.signature(original).bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    evalcli.app_generate = spy
    try:
        table = evalcli.run_experiment(evalcli.load_config(config_path),
                                       registry=registry)
    finally:
        evalcli.app_generate = original
    return ({r.bag_id: r for r in table.rows if r.strategy == "TMS-All"},
            calls[0])


def _cross_check(registry, rows, bags, outcomes, out: Outcome):
    """The grid-bags path (run_experiment, cached test posteriors) must pick
    the same model with the same estimate, up to ties."""
    mismatches = []
    for bag_id, row in sorted(rows.items()):
        got = outcomes[bag_id]
        if isinstance(got, Exception):
            continue
        if got.model_id == row.model_id:
            if abs(got.estimated_accuracy - row.est_acc) > TIE_TOL:
                mismatches.append(bag_id)
            continue
        rest = selection.ModelRegistry(
            [e for e in registry.entries if e.model_id != got.model_id])
        runner_up = selection.tms_select(rest, "All", bags[bag_id])
        if got.estimated_accuracy - runner_up.estimated_accuracy > TIE_TOL:
            mismatches.append(bag_id)
    out.check("online_matches_grid_tms", not mismatches and len(rows) > 0,
              f"{len(rows)} bags compared, mismatched bag ids {mismatches}")


def _load(registry_dir: Path):
    """load_registry LOAD_REPS times; returns the registry and the times."""
    times = []
    for _ in range(LOAD_REPS):
        t = clock()
        registry = selection.load_registry(registry_dir)
        times.append(clock() - t)
    return registry, times


def online_label(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    train_dir = workdir / "train"
    config_path = _write_config(workdir / "config.json", seed, CHECK_BAGS,
                                train_dir)
    registry_dir = _train(config_path, train_dir)          # untimed

    registry, loads = _load(registry_dir)

    grid_rows, generate = _grid_path(registry, config_path)
    test = generate["test"]
    bags = protocol.app_generate(test, ONLINE_POOL, generate["s"], generate["seed"])

    if trace:
        outcomes, times = _label(registry, bags, lambda n, e: e >= seconds / 2)
        recorder = spans.Recorder()
        with recorder:
            _load(registry_dir)
            traced, traced_times = _label(registry, bags[:len(outcomes)],
                                          lambda n, e: False)
    else:
        outcomes, times = _label(
            registry, bags, lambda n, e: n >= ONLINE_MIN_BAGS and e >= seconds)
        # a second batch of loads after labelling, so that setup_s samples
        # both ends of the run and not one moment of a shared machine
        loads += _load(registry_dir)[1]

    # truth side, untimed: every model's labels over the whole test set
    test_labels = {e.model_id: np.argmax(e.model.predict_posteriors(test.X), axis=1)
                   for e in registry.entries}
    failed, wrong_labels, out_of_range = 0, 0, 0
    true_acc, est_acc, oracle_acc = [], [], []
    for bag, got in zip(bags, outcomes):
        if isinstance(got, Exception) or got.warnings:
            failed += 1
            continue
        model = registry.entry(got.model_id).model
        if not np.array_equal(got.predicted_labels,
                              np.argmax(model.predict_posteriors(bag.features), axis=1)):
            wrong_labels += 1
        if not 0.0 <= got.estimated_accuracy <= 1.0:
            out_of_range += 1
        truth = protocol.reveal_labels(bag)
        true_acc.append(float((got.predicted_labels == truth).mean()))
        est_acc.append(got.estimated_accuracy)
        oracle_acc.append(max(float((labels[bag.indices] == truth).mean())
                              for labels in test_labels.values()))

    trained, train_failed = _training_ops(registry)
    out = Outcome({}, trained + len(outcomes), train_failed + failed)
    out.check("labels_are_argmax_of_chosen_model", wrong_labels == 0,
              f"{wrong_labels} bags differ")
    out.check("tms_est_acc_in_unit_interval", out_of_range == 0,
              f"{out_of_range} bags outside [0, 1]")
    _cross_check(registry, grid_rows, bags, outcomes, out)
    shutil.rmtree(registry_dir)
    out.params = {"labelled_bags": len(outcomes), "quality_bags": ONLINE_MIN_BAGS,
                  "check_bags": CHECK_BAGS, "loads": len(loads),
                  "models": len(registry.entries)}

    quality = _quality(true_acc[:ONLINE_MIN_BAGS], est_acc[:ONLINE_MIN_BAGS],
                       oracle_acc[:ONLINE_MIN_BAGS])
    if trace:
        same = all(
            (a.model_id, a.estimated_accuracy) == (b.model_id, b.estimated_accuracy)
            for a, b in zip(outcomes, traced)
            if not isinstance(a, Exception) and not isinstance(b, Exception))
        out.check("traced_labels_identical", same and len(traced) == len(outcomes))
        return _traced(out, quality, recorder,
                       traced_times.sum() / times.sum() - 1.0)
    return _untraced(out, quality, {
        "setup_s": (_median(loads), "s"),
        "bags_per_s": (len(times) / times.sum(), "1/s"),
        "experiment_s": (_median(loads) + float(times[:ONLINE_MIN_BAGS].sum()), "s"),
        **_label_ms(times),
    })


WORKLOADS = {
    "grid-bags": grid_bags,
    "online-label": online_label,
}
