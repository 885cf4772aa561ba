"""Acceptance gate: ten end-to-end criteria, each reported as one line.

Every test funnels through ``check``, which records an
``acceptance NN PASS/FAIL: ...`` line (echoed in the terminal summary)
and then asserts, so a red criterion is both visible and failing.
"""

import time

import numpy as np
import pytest

from gasgate.cli import main
from gasgate.data import FeatureConfig, featurize, fit_normalization
from gasgate.evaluate import (
    DEFAULT_GAMMA_GRID,
    CvReport,
    ConfusionCounts,
    LogisticLearner,
    SvmLearner,
    choose_ratio,
    penalty_sweep,
    repeated_cv,
    summarize_repeats,
)
from gasgate.kernels import KernelSpec, kernel_matrix
from gasgate.logistic import explosion_interval, fit_logistic, penalized_gradient, penalized_log_likelihood
from gasgate.model_io import load_model, save_model
from gasgate.svm import PenaltyConfig, fit_svm
from gasgate.synth import default_region, generate

from .conftest import ACCEPTANCE_RESULTS
from .support import brute_force_best, kkt_max_residual

pytestmark = pytest.mark.filterwarnings("ignore:separation suspected")


def check(num: int, description: str, condition: bool, detail: str = ""):
    status = "PASS" if condition else "FAIL"
    line = f"acceptance {num:02d} {status}: {description}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert condition, line


def test_01_smo_never_beaten_by_grid():
    rng = np.random.default_rng(20260815)
    kernels = [KernelSpec("rbf", gamma=0.5), KernelSpec("linear")]
    caps_pos, caps_neg = 3.0, 2.0
    worst_gap = -np.inf
    worst_kkt = 0.0
    start = time.monotonic()
    for trial in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        X = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[-1] = 1.0, -1.0
        kernel = kernels[trial % 2].resolved(d)
        penalties = PenaltyConfig(caps_pos, caps_neg)
        model = fit_svm(X, y, kernel, penalties, tol=1e-3)
        caps = np.where(y > 0, caps_pos, caps_neg)
        grid_best, n_points = brute_force_best(kernel_matrix(kernel, X), y, caps, 0.01)
        assert n_points > 0
        worst_gap = max(worst_gap, grid_best - model.dual_objective())
        worst_kkt = max(worst_kkt, kkt_max_residual(model, X, y))
    elapsed = time.monotonic() - start
    check(
        1,
        "SMO dual never beaten by the 1%-step grid and KKT residuals stay "
        "within 1e-3 on 20 random problems in under 10 s",
        worst_gap <= 1e-3 and worst_kkt <= 1e-3 + 1e-9 and elapsed < 10.0,
        f"worst gap {worst_gap:.2e}, worst KKT {worst_kkt:.2e}, {elapsed:.2f} s",
    )


def test_02_two_point_problem_is_exact():
    X = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    model = fit_svm(X, y, KernelSpec("linear"), PenaltyConfig(100.0, 100.0))
    alphas = np.abs(model.dual_coef)
    boundary = model.decision_value(np.array([0.0]))
    check(
        2,
        "two opposed unit points give alpha = (0.5, 0.5), zero bias and a "
        "boundary through the origin, all within 1e-6",
        bool(
            np.all(np.abs(alphas - 0.5) <= 1e-6)
            and abs(model.bias) <= 1e-6
            and abs(boundary) <= 1e-6
        ),
        f"alphas {alphas}, bias {model.bias:.2e}",
    )


def test_03_logistic_gradient_matches_finite_differences(oracle_corpus):
    params = fit_normalization(oracle_corpus)
    X = featurize(params, oracle_corpus)
    y = oracle_corpus.exploded.astype(float)
    rng = np.random.default_rng(99)
    h, ridge = 1e-6, 1e-6
    worst = 0.0
    for _ in range(10):
        beta = rng.normal(size=4)
        grad = penalized_gradient(beta, X, y, ridge)
        numeric = np.empty_like(grad)
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            numeric[k] = (
                penalized_log_likelihood(beta + e, X, y, ridge)
                - penalized_log_likelihood(beta - e, X, y, ridge)
            ) / (2 * h)
        worst = max(
            worst, float(np.abs(grad - numeric).max() / max(1.0, np.abs(grad).max()))
        )
    check(
        3,
        "logistic gradient agrees with central finite differences to a "
        "relative error of 1e-6 at 10 random coefficient points",
        worst <= 1e-6,
        f"worst relative error {worst:.2e}",
    )


def test_04_sample_std_of_fold_accuracies():
    def fold(correct, wrong):
        return ConfusionCounts(tp=0, fp=wrong, tn=correct, fn=0)

    report = CvReport(
        (fold(17, 3), fold(5, 0), fold(1, 0), fold(23, 2), fold(18, 2))
    )
    assert report.fold_accuracies == pytest.approx((85.0, 100.0, 100.0, 92.0, 90.0))
    check(
        4,
        "sample standard deviation of fold accuracies 85, 100, 100, 92, 90 "
        "is 6.54 within 0.01",
        abs(report.std - 6.54) <= 0.01,
        f"std {report.std:.4f}",
    )


def test_05_cross_validated_accuracy_floors(oracle_corpus):
    start = time.monotonic()
    svm = SvmLearner(
        kernel=KernelSpec("rbf", gamma=0.5), penalties=PenaltyConfig(10.0, 10.0)
    )
    svm_mean, _ = summarize_repeats(
        repeated_cv(oracle_corpus, svm, v=5, repeats=10, base_seed=0)
    )
    lr_mean, _ = summarize_repeats(
        repeated_cv(oracle_corpus, LogisticLearner(ridge=1e-6), v=5, repeats=10, base_seed=0)
    )
    elapsed = time.monotonic() - start
    check(
        5,
        "on the 500-sample noiseless corpus, 10 repeats of 5-fold CV give "
        "SVM >= 95%, LR >= 85% and SVM >= LR in under 30 s",
        svm_mean >= 95.0 and lr_mean >= 85.0 and svm_mean >= lr_mean and elapsed < 30.0,
        f"svm {svm_mean:.2f}%, lr {lr_mean:.2f}%, {elapsed:.1f} s",
    )


def test_06_interval_recovery_tracks_the_generating_band(span_region, span_corpus):
    params = fit_normalization(span_corpus)
    X = featurize(params, span_corpus)
    model = fit_logistic(
        X, span_corpus.exploded.astype(float), ridge=1e-6, normalization=params
    )
    levels = (15.0, 16.0, 18.0, 20.0)
    intervals = [explosion_interval(model, o2) for o2 in levels]
    widths = [iv.width for iv in intervals]
    worst = 0.0
    for o2, iv in zip(levels, intervals):
        if iv.present:
            worst = max(
                worst,
                abs(iv.lower - float(span_region.lower(o2))),
                abs(iv.upper - float(span_region.upper(o2))),
            )
    first, last = intervals[0], intervals[-1]
    nested = (
        first.present
        and last.present
        and last.lower <= first.lower
        and first.upper <= last.upper
    )
    check(
        6,
        "fitted intervals exist at o2 = 15, 16, 18, 20, widen strictly with "
        "oxygen, nest (20 contains 15) and match the generating limits "
        "within 0.15",
        all(iv.present for iv in intervals)
        and all(b > a for a, b in zip(widths, widths[1:]))
        and nested
        and worst <= 0.15,
        f"widths {[round(w, 3) for w in widths]}, worst endpoint error {worst:.3f}",
    )


def test_07_penalty_ratio_trades_misses_for_alarms():
    low, high = [], []
    for seed in range(10):
        data = generate(default_region(), n=200, seed=seed, noise=0.10)
        learner = SvmLearner(penalties=PenaltyConfig(1.0, 1.0), seed=seed)
        report = dict(penalty_sweep(data, learner, gamma_grid=(1.0, 60.0), seed=seed))
        high.append(report[1.0].pooled.type1_rate)
        low.append(report[60.0].pooled.type1_rate)
    avg_low, avg_high = float(np.mean(low)), float(np.mean(high))

    start = time.monotonic()
    full = penalty_sweep(
        generate(default_region(), n=200, seed=0, noise=0.10),
        SvmLearner(penalties=PenaltyConfig(1.0, 1.0)),
        gamma_grid=DEFAULT_GAMMA_GRID,
        seed=0,
    )
    elapsed = time.monotonic() - start
    chosen = choose_ratio(full)
    min_type1 = min(r.pooled.type1_rate for _, r in full)
    check(
        7,
        "over 10 noisy corpora the missed-explosion rate at ratio 60 never "
        "exceeds the rate at ratio 1 on average, and the chosen ratio "
        "attains the sweep's minimum (12-point sweep < 60 s)",
        avg_low <= avg_high
        and dict(full)[chosen].pooled.type1_rate == min_type1
        and elapsed < 60.0,
        f"avg type1 {avg_low:.4f} @60 vs {avg_high:.4f} @1, "
        f"chosen {chosen:g}, sweep {elapsed:.1f} s",
    )


def test_08_normalization_is_exact_at_the_extremes(oracle_corpus):
    config = FeatureConfig(("hc", "o2", "ratio", "co"))
    with pytest.warns(UserWarning, match="constant"):
        params = fit_normalization(oracle_corpus, config)
    X = featurize(params, oracle_corpus)
    spanned_ok = bool(
        np.all(np.abs(X[:, :3].min(axis=0) + 1.0) <= 1e-12)
        and np.all(np.abs(X[:, :3].max(axis=0) - 1.0) <= 1e-12)
    )
    constant_ok = bool(np.all(X[:, 3] == 0.0))
    check(
        8,
        "normalization maps each attribute's observed min/max to -1/+1 "
        "within 1e-12 and pins constant attributes to 0",
        spanned_ok and constant_ok,
        f"spanned {spanned_ok}, constant {constant_ok}",
    )


def test_09_cli_runs_are_reproducible(tmp_path):
    def pipeline(root):
        root.mkdir()
        corpus = root / "corpus.csv"
        model = root / "model.json"
        predictions = root / "predictions.csv"
        cv = root / "cv.csv"
        sweep = root / "sweep.tsv"
        codes = [
            main(["gen", "--n", "80", "--seed", "5", "--out", str(corpus)]),
            main(["train", "--model", "lr", "--ridge", "0.1",
                  "--data", str(corpus), "--out", str(model)]),
            main(["predict", "--model-file", str(model), "--data", str(corpus),
                  "--out", str(predictions)]),
            main(["cv", "--model", "lr", "--ridge", "0.1", "--data", str(corpus),
                  "--folds", "4", "--seed", "5", "--out", str(cv)]),
            main(["sweep", "--data", str(corpus), "--grid", "1,8", "--folds", "4",
                  "--gamma", "0.5", "--seed", "5", "--out", str(sweep)]),
        ]
        return codes, [p.read_bytes() for p in (corpus, model, predictions, cv, sweep)]

    codes_a, files_a = pipeline(tmp_path / "a")
    codes_b, files_b = pipeline(tmp_path / "b")
    check(
        9,
        "rerunning the same CLI pipeline (gen, train, predict, cv, sweep) "
        "reproduces every output file byte for byte",
        codes_a == codes_b == [0, 0, 0, 0, 0] and files_a == files_b,
        f"exit codes {codes_a} / {codes_b}",
    )


def test_10_persistence_preserves_predictions(small_corpus, tmp_path, rng):
    params = fit_normalization(small_corpus)
    X = featurize(params, small_corpus)
    svm = SvmLearner(kernel=KernelSpec("rbf", gamma=0.5)).fit(
        X, small_corpus.exploded, normalization=params
    )
    lr = LogisticLearner(ridge=0.1).fit(
        X, small_corpus.exploded, normalization=params
    )
    probes = rng.uniform(-2.0, 2.0, size=(1000, 3))
    ok = True
    for name, model in (("svm", svm), ("lr", lr)):
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        back = load_model(path)
        ok = ok and bool(np.array_equal(back.predict(probes), model.predict(probes)))
        if name == "svm":
            ok = ok and bool(
                np.array_equal(back.decision_values(probes), model.decision_values(probes))
            )
        else:
            ok = ok and bool(
                np.array_equal(back.predict_proba(probes), model.predict_proba(probes))
            )
    check(
        10,
        "saved-and-reloaded SVM and logistic models reproduce predictions "
        "and scores exactly on 1000 random feature vectors",
        ok,
    )
