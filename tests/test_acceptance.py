"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import itertools
import time

import numpy as np
import pytest

import shiftselect.evalcli as evalcli_mod
from shiftselect.cap import (CapPredictor, label_shares, leap_solve_batch,
                             pps_accuracy_identity, stack_caps)
from shiftselect.classifiers import (argmax_rows, default_model, lr_loss_grad,
                                     mlp_loss_grad, train_grid)
from shiftselect.dataspace import stratified_split, synth_gaussian_pps
from shiftselect.evalcli import (RunConfig, _prepare, accuracy_matrix,
                                 emit_report, run_experiment,
                                 wilcoxon_signed_rank)
from shiftselect.protocol import bin_by_shift, draw_bag, kraemer_sample
from shiftselect.quantifiers import em_weights_batch, fit_kdey


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:>2} {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. accuracy-transfer identity
# ---------------------------------------------------------------------------

def test_criterion_01_identity_suite():
    start = time.time()
    rates = (0.0, 0.25, 0.5, 0.75, 1.0)
    priors = [round(0.1 * k, 10) for k in range(1, 10)]
    checked = violations = 0
    for tpr, tnr, p, q in itertools.product(rates, rates, priors, priors):
        acc_p, acc_q = pps_accuracy_identity(tpr, tnr, p, q)
        equal = abs(acc_p - acc_q) <= 1e-12
        should = (tpr == tnr) or (p == q)
        checked += 1
        if equal != should:
            violations += 1
    report(1, violations == 0 and time.time() - start < 1.0,
           f"{checked} grid points, {violations} violations, "
           f"{time.time() - start:.2f}s")


# ---------------------------------------------------------------------------
# 2. uniform simplex sampling
# ---------------------------------------------------------------------------

def test_criterion_02_kraemer_uniformity():
    start = time.time()
    rng = np.random.default_rng(1234)
    draws = np.array([kraemer_sample(3, rng) for _ in range(100_000)])
    mean_err = np.abs(draws.mean(axis=0) - 1.0 / 3.0).max()
    frac = (draws[:, 0] < 0.5).mean()
    frac_err = abs(frac - 0.75)
    elapsed = time.time() - start
    report(2, mean_err < 0.01 and frac_err < 0.01 and elapsed < 5.0,
           f"mean err {mean_err:.4f}, P(v0<0.5) err {frac_err:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. solver exactness with oracle inputs
# ---------------------------------------------------------------------------

class _PassThrough:
    def __init__(self, n):
        self.n_classes = n

    def predict_posteriors(self, X):
        return np.asarray(X, dtype=float)


class _FixedBag:
    def __init__(self, features, realized):
        self.features = np.asarray(features, dtype=float)
        self.size = len(self.features)
        self.realized_prevalence = np.asarray(realized, dtype=float)


TIGHT = {"tol": 1e-13, "max_iter": 100_000}


def test_criterion_03_leap_oracle_exactness():
    start = time.time()
    # n=2: exact-count bag realizing tnr=0.8, tpr=0.9 at q = P(Y=1) = 0.3
    tnr, tpr, q = 0.8, 0.9, 0.3
    M = np.array([[tnr, 1 - tpr], [1 - tnr, tpr]])
    pred0 = [[1.0, 0.0]]
    pred1 = [[0.0, 1.0]]
    features = pred0 * 56 + pred1 * 14 + pred1 * 27 + pred0 * 3
    bag = _FixedBag(features, [0.7, 0.3])
    stack = stack_caps([CapPredictor(M, None)], 1.0)
    posteriors = _PassThrough(2).predict_posteriors(bag.features)[None]
    # the label shares and oracle prevalence, solved to 1e-13
    rho = label_shares(argmax_rows(posteriors), 2)
    qhat = np.asarray(bag.realized_prevalence, dtype=float)[None]
    theta, _, _ = leap_solve_batch(stack, rho, qhat, **TIGHT)
    estimate = float((stack.diagonal * theta).sum())
    closed_form = tpr * q + tnr * (1 - q)
    err2 = abs(estimate - closed_form)

    # n=4: consistent random fixtures solved to the same tolerance
    rng = np.random.default_rng(7)
    err4 = 0.0
    for _ in range(20):
        M4 = rng.dirichlet(np.ones(4), size=4).T
        theta = rng.dirichlet(np.ones(4))
        leap = stack_caps([CapPredictor(M4, None)], 1.0)
        solved, _, _ = leap_solve_batch(leap, (M4 @ theta)[None], theta[None],
                                        **TIGHT)
        err4 = max(err4, abs(float(np.trace(M4 * solved[0][None, :]))
                             - float(np.trace(M4 * theta[None, :]))))
    elapsed = time.time() - start
    report(3, err2 <= 1e-9 and err4 <= 1e-9 and elapsed < 1.0,
           f"n=2 err {err2:.2e}, n=4 err {err4:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. solver against brute force
# ---------------------------------------------------------------------------

def test_criterion_04_leap_vs_grid_search():
    start = time.time()
    rng = np.random.default_rng(99)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    thetas = np.column_stack([grid, 1.0 - grid])
    worst = 0.0
    for _ in range(50):
        M = rng.dirichlet(np.ones(2), size=2).T
        rho = rng.dirichlet(np.ones(2))
        qhat = rng.dirichlet(np.ones(2))
        leap = stack_caps([CapPredictor(M, None)], 1.0)
        solved, _, _ = leap_solve_batch(leap, rho[None], qhat[None])
        objective = ((thetas @ M.T - rho) ** 2).sum(axis=1) \
            + ((thetas - qhat) ** 2).sum(axis=1)
        best = grid[np.argmin(objective)]
        worst = max(worst, abs(solved[0, 0] - best))
    elapsed = time.time() - start
    report(4, worst <= 1e-3 and elapsed < 30.0,
           f"50 instances, worst gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. prevalence recovery
# ---------------------------------------------------------------------------

def test_criterion_05_kdey_recovery(em_trace):
    start = time.time()
    ds = synth_gaussian_pps(2, 2, [0.5, 0.5], 3000, 4.0, seed=77)
    train_set, rest = stratified_split(ds.all_instances(), 0.5, seed=0)
    model = train_grid("LR", [default_model("LR")], train_set, [0])[0]
    quantifier = fit_kdey(model.predict_posteriors(rest.X), rest,
                          bandwidth=0.1)
    rng = np.random.default_rng(5)
    worst_mean_err = 0.0
    monotone = True
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        errs = []
        for _ in range(50):
            bag = draw_bag(rest, [1.0 - q, q], 500, rng)
            posteriors = model.predict_posteriors(bag.features)
            logF = quantifier.evaluate(posteriors)
            alpha, _, _ = em_weights_batch(logF[None])
            errs.append(abs(alpha[0, 1] - bag.realized_prevalence[1]))
            if (np.diff(em_trace(logF)) < -1e-9).any():
                monotone = False
        worst_mean_err = max(worst_mean_err, float(np.mean(errs)))
    elapsed = time.time() - start
    report(5, worst_mean_err <= 0.05 and monotone and elapsed < 120.0,
           f"worst mean abs error {worst_mean_err:.4f}, "
           f"EM monotone {monotone}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. directional reproduction of the shift curve
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def shift_curve_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("curve")
    config = RunConfig(
        dataset={"kind": "synthetic", "n_classes": 3, "dims": 2, "n": 4000,
                 "class_separation": 2.0, "prevalence": [0.5, 0.3, 0.2]},
        r=500, s=100, seed=42,
        strategies=("IMS-All", "TMS-All", "oracle"),
        outdir=str(outdir),
    )
    table = run_experiment(config)
    emit_report(table, config.outdir)
    return table


def test_criterion_06_tms_advantage_under_shift(shift_curve_run):
    start = time.time()
    table = shift_curve_run
    strategies, shifts, acc = accuracy_matrix(table.rows)
    assert not np.isnan(acc).any()   # every strategy has every bag
    tms, ims, orc = (acc[strategies.index(name)]
                     for name in ("TMS-All", "IMS-All", "oracle"))

    low = shifts < 0.2
    high = shifts > 1.0
    low_tms = np.mean(tms[low])
    low_ims = np.mean(ims[low])
    high_tms = np.mean(tms[high])
    high_ims = np.mean(ims[high])
    high_orc = np.mean(orc[high])

    ok_a = abs(low_tms - low_ims) <= 0.05
    ok_b = high_tms >= high_ims + 0.03

    # per populated shift bin: its lower edge, bag count and each
    # strategy's mean accuracy
    bins, width = bin_by_shift(shifts, n_bins=10)
    curve = [(b * width, np.count_nonzero(bins == b),
              dict(zip(strategies, acc[:, bins == b].mean(axis=1))))
             for b in sorted(set(bins.tolist()))]
    ok_c = all(means["oracle"] >= m - 1e-12
               for _, _, means in curve for m in means.values())

    # high-shift gap to the oracle: pooled over the >1.0 region and per
    # populated high bin
    ok_d = (high_orc - high_tms) <= (high_orc - high_ims)
    for lo, count, means in curve:
        if lo >= 1.0 and count >= 10:
            gap_tms = means["oracle"] - means["TMS-All"]
            gap_ims = means["oracle"] - means["IMS-All"]
            ok_d = ok_d and gap_tms <= gap_ims

    detail = (f"(a) low |TMS-IMS|={abs(low_tms - low_ims):.4f} n={low.sum()}; "
              f"(b) high TMS-IMS={high_tms - high_ims:+.4f} n={high.sum()}; "
              f"(c) oracle dominates bins={ok_c}; (d) gap order={ok_d}")
    report(6, ok_a and ok_b and ok_c and ok_d, detail)
    assert time.time() - start < 60  # analysis itself is cheap


# ---------------------------------------------------------------------------
# 7. analytic gradients
# ---------------------------------------------------------------------------

def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def _central_diff(f, x, eps=1e-5):
    g = np.zeros_like(x)
    flat, gflat = x.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def test_criterion_07_gradient_checks():
    start = time.time()
    rng = np.random.default_rng(13)
    X = rng.normal(size=(25, 4))
    y = rng.integers(0, 3, size=25)
    sw = rng.uniform(0.5, 2.0, size=25)
    worst = 0.0
    for _ in range(10):
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        _, gW, gb = lr_loss_grad(W, b, X, y, sw, C=2.0)
        worst = max(worst,
                    _rel_err(gW, _central_diff(
                        lambda: lr_loss_grad(W, b, X, y, sw, C=2.0)[0], W)),
                    _rel_err(gb, _central_diff(
                        lambda: lr_loss_grad(W, b, X, y, sw, C=2.0)[0], b)))
    for _ in range(10):
        params = [rng.normal(size=(4, 6)), rng.normal(size=6),
                  rng.normal(size=(6, 3)), rng.normal(size=3)]
        _, grads = mlp_loss_grad(params, X, y, 3, alpha=1e-3)
        for p, g in zip(params, grads):
            fd = _central_diff(
                lambda: mlp_loss_grad(params, X, y, 3, alpha=1e-3)[0], p)
            worst = max(worst, _rel_err(g, fd))
    elapsed = time.time() - start
    report(7, worst < 1e-4 and elapsed < 10.0,
           f"worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. signed-rank test correctness
# ---------------------------------------------------------------------------

def test_criterion_08_wilcoxon():
    start = time.time()
    a = np.arange(1.0, 7.0)
    res = wilcoxon_signed_rank(a, a - 0.5)
    exact_ok = res.p_value == pytest.approx(0.03125, abs=1e-15)

    rng = np.random.default_rng(21)
    worst = 0.0
    trials = 0
    while trials < 100:
        x = rng.normal(size=12)
        y = x + rng.normal(size=12)
        if ((x - y) == 0).any():
            continue
        trials += 1
        exact = wilcoxon_signed_rank(x, y)
        old = evalcli_mod.WILCOXON_EXACT_MAX
        evalcli_mod.WILCOXON_EXACT_MAX = 0
        try:
            approx = wilcoxon_signed_rank(x, y)
        finally:
            evalcli_mod.WILCOXON_EXACT_MAX = old
        worst = max(worst, abs(exact.p_value - approx.p_value))
    elapsed = time.time() - start
    report(8, exact_ok and worst <= 0.02 and elapsed < 5.0,
           f"n=6 exact p ok {exact_ok}, exact-vs-normal worst {worst:.4f}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_09_determinism(tmp_path):
    start = time.time()
    def run_once(sub):
        config = RunConfig(
            dataset={"kind": "synthetic", "n_classes": 2, "dims": 2, "n": 400,
                     "class_separation": 2.0, "prevalence": [0.6, 0.4]},
            r=8, s=50, seed=11, families=("KNN",),
            strategies=("default-KNN", "IMS-KNN", "TMS-All", "oracle"),
            outdir=str(tmp_path / sub),
        )
        table = run_experiment(config)
        emit_report(table, config.outdir)
        return tmp_path / sub

    d1, d2 = run_once("one"), run_once("two")
    identical = all((d1 / n).read_bytes() == (d2 / n).read_bytes()
                    for n in ("results.csv", "summary.csv", "shift_curve.csv"))
    elapsed = time.time() - start
    report(9, identical and elapsed < 120.0,
           f"byte-identical outputs {identical}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. protocol constants
# ---------------------------------------------------------------------------

def test_criterion_10_protocol_constants(tmp_path):
    manifest = _prepare(RunConfig(outdir=str(tmp_path)), tmp_path)[-1]
    ok = (manifest["config"]["r"] == 1000
          and manifest["config"]["s"] == 100
          and manifest["config"]["train_fraction"] == 0.7
          and manifest["splits"]["labelled"]
          == round(0.7 * manifest["dataset"]["n_instances"])
          and manifest["splits"]["proper_train"] == manifest["splits"]["validation"])
    report(10, ok,
           f"r={manifest['config']['r']} s={manifest['config']['s']} "
           f"split {manifest['splits']['proper_train']}/"
           f"{manifest['splits']['validation']}/{manifest['splits']['test']}")
