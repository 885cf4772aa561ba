import dataclasses
import inspect
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasgate.data import Dataset, FeatureConfig, GasSample
from gasgate.errors import DataFormatError, NonFiniteScoreError, SingleClassError
from gasgate.evaluate import (
    DEFAULT_FOLDS,
    DEFAULT_GAMMA_GRID,
    DEFAULT_REPEATS,
    ConfusionCounts,
    CvReport,
    LogisticLearner,
    SvmLearner,
    choose_ratio,
    cross_validate,
    cv_report_csv,
    cv_report_text,
    fit_fold,
    make_fold,
    penalty_sweep,
    repeated_cv,
    stratified_kfold_indices,
    summarize_repeats,
    sweep_text,
    sweep_tsv,
)
from gasgate.kernels import KernelRows, KernelSpec
from gasgate import evaluate, svm
from gasgate.logistic import fit_logistic
from gasgate.svm import PenaltyConfig, fit_svm
from gasgate.synth import default_region, generate

from .support import round_robin_folds


def counts_with_accuracy(correct: int, wrong: int) -> ConfusionCounts:
    return ConfusionCounts(tp=0, fp=wrong, tn=correct, fn=0)


class TestConfusionCounts:
    def test_from_outcomes_tally(self):
        actual = [True, True, True, False, False]
        predicted = [True, False, True, True, False]
        c = ConfusionCounts.from_outcomes(actual, predicted)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)

    def test_rates_on_known_counts(self):
        c = ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
        assert c.n == 10
        assert c.accuracy == 0.7
        assert c.type1_rate == 0.2   # missed explosions
        assert c.type2_rate == 0.1   # false alarms
        assert c.whole_error_rate == pytest.approx(0.3)

    def test_whole_error_combines_both_types(self):
        # n = 16 keeps the rate arithmetic exact in binary floating point
        c = ConfusionCounts(tp=7, fp=5, tn=2, fn=2)
        assert c.whole_error_rate * c.n == c.fn + c.fp
        assert c.whole_error_rate == c.type1_rate + c.type2_rate

    def test_addition_pools_counts(self):
        total = ConfusionCounts(1, 2, 3, 4) + ConfusionCounts(10, 20, 30, 40)
        assert (total.tp, total.fp, total.tn, total.fn) == (11, 22, 33, 44)

    @pytest.mark.parametrize("bad", [{"tp": -1}, {"fn": 1.5}, {"fp": "2"}])
    def test_invalid_counts_rejected(self, bad):
        base = dict(tp=0, fp=0, tn=0, fn=0)
        base.update(bad)
        with pytest.raises(ValueError):
            ConfusionCounts(**base)

    def test_numpy_integers_accepted(self):
        c = ConfusionCounts(tp=np.int64(2), fp=np.int64(0), tn=np.int64(1), fn=np.int64(0))
        assert c.tp == 2 and isinstance(c.tp, int)

    def test_outcome_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            ConfusionCounts.from_outcomes([True], [True, False])


class TestCvReport:
    # fold accuracies 85, 100, 100, 92, 90 percent
    REPORT = CvReport(
        (
            counts_with_accuracy(17, 3),
            counts_with_accuracy(5, 0),
            counts_with_accuracy(1, 0),
            counts_with_accuracy(23, 2),
            counts_with_accuracy(18, 2),
        )
    )

    def test_fold_accuracies(self):
        assert self.REPORT.fold_accuracies == pytest.approx((85.0, 100.0, 100.0, 92.0, 90.0))

    def test_mean(self):
        assert self.REPORT.mean == pytest.approx(93.4)

    def test_sample_std_uses_divisor_v_minus_one(self):
        assert self.REPORT.std == pytest.approx(6.54, abs=0.01)

    def test_pooled_counts(self):
        pooled = self.REPORT.pooled
        assert pooled.n == 71
        assert pooled.tn == 64 and pooled.fp == 7

    def test_single_fold_std_is_zero(self):
        assert CvReport((counts_with_accuracy(3, 1),)).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one fold"):
            CvReport(())


def test_defaults():
    assert DEFAULT_FOLDS == 5
    assert DEFAULT_REPEATS == 10
    assert DEFAULT_GAMMA_GRID == tuple(5.0 * k for k in range(1, 13))


class TestStratifiedKfold:
    def test_class_balance_preserved_exactly_when_divisible(self):
        exploded = np.array([True] * 20 + [False] * 10)
        folds = stratified_kfold_indices(exploded, 5, seed=0)
        for fold in folds:
            assert exploded[fold].sum() == 4
            assert len(fold) == 6

    def test_overall_sizes_stay_balanced(self):
        exploded = np.array([True] * 7 + [False] * 5)
        folds = stratified_kfold_indices(exploded, 3, seed=1)
        assert sorted(len(f) for f in folds) == [4, 4, 4]

    def test_partition(self):
        exploded = np.array([True, False] * 15)
        folds = stratified_kfold_indices(exploded, 4, seed=2)
        assert sorted(np.concatenate(folds).tolist()) == list(range(30))

    def test_minority_class_spans_multiple_folds(self):
        exploded = np.array([True] * 2 + [False] * 18)
        folds = stratified_kfold_indices(exploded, 5, seed=0)
        holding = [i for i, fold in enumerate(folds) if exploded[fold].any()]
        assert len(holding) == 2

    def test_single_class_dataset_rejected(self):
        with pytest.raises(SingleClassError):
            stratified_kfold_indices(np.array([True] * 10), 5, seed=0)

    def test_more_folds_than_samples_is_a_value_error(self):
        exploded = np.array([True, False] * 10)
        with pytest.raises(ValueError, match="^50 folds exceed 20 samples$"):
            stratified_kfold_indices(exploded, 50, seed=0)

    def test_singleton_class_rejected(self):
        exploded = np.array([True] + [False] * 9)
        with pytest.raises(SingleClassError, match="one sample"):
            stratified_kfold_indices(exploded, 5, seed=0)

    @staticmethod
    def draw_labels(data) -> tuple[np.ndarray, int, int]:
        """(exploded, v, seed) with both classes of at least two members."""
        n = data.draw(st.integers(4, 150))
        positives = data.draw(st.integers(2, n - 2))
        v = data.draw(st.integers(2, min(n, 10)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        exploded = np.zeros(n, dtype=bool)
        exploded[data.draw(st.permutations(range(n)))[:positives]] = True
        return exploded, v, seed

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_round_robin_deal(self, data):
        exploded, v, seed = self.draw_labels(data)
        folds = stratified_kfold_indices(exploded, v, seed)
        reference = round_robin_folds(exploded, v, seed)
        assert len(folds) == len(reference) == v
        for fold, expected in zip(folds, reference):
            assert fold.dtype == expected.dtype
            assert np.array_equal(fold, expected)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_training_portion_is_two_class(self, data):
        exploded, v, seed = self.draw_labels(data)
        for fold in stratified_kfold_indices(exploded, v, seed):
            train = np.delete(exploded, fold)
            assert train.any() and not train.all()


def tweak_dataset(data: Dataset, test_idx, new_hc: float) -> Dataset:
    """Replace the held-out rows with altered measurements."""
    hc, exploded = data.hc.copy(), data.exploded.copy()
    hc[test_idx] = new_hc
    exploded[test_idx] = ~exploded[test_idx]
    return Dataset.from_columns(hc, data.o2, data.co, data.co2, exploded)


class TestFitFold:
    def test_held_out_rows_cannot_leak_into_the_fit(self, small_corpus):
        test_idx = np.arange(0, 20)
        train_idx = np.arange(20, len(small_corpus))
        learner = LogisticLearner(ridge=0.1)
        model_a, counts_a = fit_fold(make_fold(small_corpus, train_idx, test_idx), learner)
        poisoned = tweak_dataset(small_corpus, test_idx, new_hc=0.9)
        model_b, counts_b = fit_fold(make_fold(poisoned, train_idx, test_idx), learner)
        # identical training rows must give bit-identical fits ...
        assert np.array_equal(model_a.beta, model_b.beta)
        assert model_a.normalization.mins == model_b.normalization.mins
        assert model_a.normalization.maxs == model_b.normalization.maxs
        # ... while the held-out scoring does see the altered rows
        assert counts_a != counts_b

    def test_returns_model_and_counts(self, small_corpus):
        folds = stratified_kfold_indices(small_corpus.exploded, 4, seed=0)
        train = np.setdiff1d(np.arange(len(small_corpus)), folds[0])
        model, counts = fit_fold(make_fold(small_corpus, train, folds[0]), SvmLearner())
        assert counts.n == len(folds[0])
        assert model.normalization is not None


class TestCrossValidate:
    def test_report_shape_and_pooled_total(self, small_corpus):
        report = cross_validate(small_corpus, LogisticLearner(ridge=0.1), v=5, seed=0)
        assert report.v == 5
        assert report.pooled.n == len(small_corpus)

    def test_deterministic_per_seed(self, small_corpus):
        a = cross_validate(small_corpus, LogisticLearner(ridge=0.1), v=4, seed=3)
        b = cross_validate(small_corpus, LogisticLearner(ridge=0.1), v=4, seed=3)
        assert a == b

    def test_single_repeat_equals_plain_cv(self, small_corpus):
        learner = LogisticLearner(ridge=0.1)
        (only,) = repeated_cv(small_corpus, learner, v=4, repeats=1, base_seed=5)
        assert only == cross_validate(small_corpus, learner, v=4, seed=5)

    def test_summarize_repeats(self, small_corpus):
        learner = LogisticLearner(ridge=0.1)
        reports = repeated_cv(small_corpus, learner, v=4, repeats=3, base_seed=0)
        mean, spread = summarize_repeats(reports)
        means = [r.mean for r in reports]
        assert mean == pytest.approx(np.mean(means))
        assert spread == pytest.approx(np.std(means, ddof=1))

    def test_unconverged_folds_are_counted(self, noisy_small_corpus):
        kernel = KernelSpec("rbf", gamma=0.5)
        stunted = cross_validate(noisy_small_corpus, SvmLearner(kernel, max_passes=1), v=4)
        assert 0 < stunted.unconverged <= 4
        assert cross_validate(noisy_small_corpus, SvmLearner(kernel), v=4).unconverged == 0

    def test_bad_repeats(self, small_corpus):
        with pytest.raises(ValueError, match="repeats"):
            repeated_cv(small_corpus, LogisticLearner(), repeats=0)

    def test_real_labels_beat_permuted_labels(self, small_corpus):
        rng = np.random.default_rng(0)
        shuffled_flags = rng.permutation(small_corpus.exploded)
        shuffled = Dataset.from_columns(small_corpus.hc, small_corpus.o2, small_corpus.co,
                                        small_corpus.co2, shuffled_flags)
        learner = LogisticLearner(ridge=0.1)
        real = cross_validate(small_corpus, learner, v=5, seed=0).pooled.accuracy
        fake = cross_validate(shuffled, learner, v=5, seed=0).pooled.accuracy
        assert real >= fake + 0.05

    @pytest.mark.parametrize("run", [
        lambda data: cross_validate(data, LogisticLearner(), v=4),
        lambda data: penalty_sweep(data, sweep_learner(), gamma_grid=(1.0,), v=4),
    ], ids=["cv", "sweep"])
    def test_single_class_outranks_a_zero_ratio_denominator(self, run):
        rows = [GasSample(0.0 if i == 7 else 5.0, 15.0, 0.0, 0.0, True) for i in range(12)]
        with pytest.raises(SingleClassError):
            run(Dataset.from_columns(*zip(*rows)))
        rows[0] = GasSample(5.0, 15.0, 0.0, 0.0, False)
        rows[1] = GasSample(6.0, 15.0, 0.0, 0.0, False)
        with pytest.raises(DataFormatError, match=r"^undefined ratio: hc is 0 in row 8$"):
            run(Dataset.from_columns(*zip(*rows)))


class TestHeldOutOverflow:
    """A held-out row whose SVM score overflows is named by its row in the
    data, as ``predict`` names it, not by its place among the fold's rows."""

    @pytest.mark.parametrize("run", [
        lambda data, learner: cross_validate(data, learner),
        lambda data, learner: penalty_sweep(data, learner, gamma_grid=(1.0, 2.0)),
    ], ids=["cv", "sweep"])
    def test_row_in_the_data(self, run):
        data = generate(default_region(), n=200, seed=7, noise=0.05)
        hc = data.hc.copy()
        hc[150] = 1e-300  # its o2/hc feature is about 1e301 off the training range
        data = Dataset.from_columns(hc, data.o2, data.co, data.co2, data.exploded)
        learner = SvmLearner(KernelSpec("polynomial", gamma=1.0, coef0=1.0))
        with pytest.raises(NonFiniteScoreError,
                           match="^the decision value of row 151 is not finite") as caught:
            run(data, learner)
        assert caught.value.row == 150


def cold_fold_fits(data, learner, v, seed):
    """``(model, counts)`` of each fold of ``cross_validate``, fitted from zero."""
    everything = np.arange(len(data))
    return [fit_fold(make_fold(data, np.setdiff1d(everything, fold), fold), learner)
            for fold in stratified_kfold_indices(data.exploded, v, seed)]


class TestWarmStartedLogisticFolds:
    NOISY = generate(default_region(), n=500, seed=7, noise=0.1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("corpus, ridge", [("noiseless", 1e-6), ("noisy", 0.1)])
    def test_same_counts_as_cold_folds(self, oracle_corpus, corpus, ridge, seed):
        data = oracle_corpus if corpus == "noiseless" else self.NOISY
        learner = LogisticLearner(ridge=ridge)
        cold = cold_fold_fits(data, learner, DEFAULT_FOLDS, seed)
        report = cross_validate(data, learner, DEFAULT_FOLDS, seed)
        assert report.fold_counts == tuple(counts for _, counts in cold)
        assert report.unconverged == 0 == sum(not m.converged for m, _ in cold)

    def test_each_fold_starts_from_the_previous_fit(self, monkeypatch):
        starts, fitted = [], []

        def recording(*args, start=None, **kwargs):
            starts.append(start)
            model = fit_logistic(*args, start=start, **kwargs)
            fitted.append(model)
            return model

        monkeypatch.setattr(evaluate, "fit_logistic", recording)
        cross_validate(self.NOISY, LogisticLearner(ridge=0.1), v=4, seed=3)
        assert len(starts) == 4
        assert all(s is f for s, f in zip(starts, [None] + fitted[:-1]))


class TestLearners:
    @pytest.mark.parametrize("learner, fit", [(SvmLearner, fit_svm),
                                              (LogisticLearner, fit_logistic)])
    def test_every_field_is_a_fit_keyword(self, learner, fit):
        keywords = inspect.signature(fit).parameters
        assert {field.name for field in dataclasses.fields(learner)} <= set(keywords)

    @pytest.mark.parametrize("learner, fit", [(SvmLearner, fit_svm),
                                              (LogisticLearner, fit_logistic)])
    def test_every_field_default_is_the_fit_default(self, learner, fit):
        # the CLI reads the fields' defaults, a library caller the fit's
        keywords = inspect.signature(fit).parameters
        for field in dataclasses.fields(learner):
            assert keywords[field.name].default == field.default, field.name

    def test_every_field_reaches_the_fit(self, featurized_small):
        params, X, exploded = featurized_small
        settings = dict(kernel=KernelSpec("polynomial", gamma=0.5, coef0=1.0, degree=2),
                        penalties=PenaltyConfig(3.0, 2.0), tol=1e-2, max_passes=2, seed=4,
                        cache_mb=0.01)
        model = SvmLearner(**settings).fit(X, exploded, normalization=params)
        direct = fit_svm(X, np.where(exploded, 1.0, -1.0), normalization=params, **settings)
        assert np.array_equal(model.alpha, direct.alpha) and model.bias == direct.bias
        assert (model.kernel, model.penalties) == (settings["kernel"], settings["penalties"])

    def test_svm_learner_round_trip(self, featurized_small):
        params, X, exploded = featurized_small
        learner = SvmLearner(kernel=KernelSpec("rbf", gamma=0.5))
        model = learner.fit(X, exploded, normalization=params)
        assert ((model.predict(X) == 1) == exploded).mean() > 0.9

    def test_logistic_learner_round_trip(self, featurized_small):
        params, X, exploded = featurized_small
        learner = LogisticLearner(ridge=0.1)
        model = learner.fit(X, exploded, normalization=params)
        assert ((model.predict(X) == 1) == exploded).mean() > 0.85


class TestPenaltySweep:
    def test_reports_cover_the_grid_with_shared_denominator(self, small_corpus):
        sweep = penalty_sweep(small_corpus, sweep_learner(KernelSpec("rbf", gamma=0.5)),
                              gamma_grid=(1.0, 8.0), v=4)
        assert [gamma for gamma, _ in sweep] == [1.0, 8.0]
        for _, report in sweep:
            assert report.v == 4
            assert report.pooled.n == len(small_corpus)

    def test_unit_ratio_report_is_plain_cross_validation(self, small_corpus):
        kernel = KernelSpec("rbf", gamma=0.5)
        learner = SvmLearner(kernel=kernel, penalties=PenaltyConfig(1.0, 1.0), seed=2)
        sweep = penalty_sweep(small_corpus, learner, gamma_grid=(1.0,), v=4, seed=2)
        assert sweep == ((1.0, cross_validate(small_corpus, learner, v=4, seed=2)),)

    @pytest.mark.parametrize(
        "kw",
        [
            {"gamma_grid": ()},
            {"gamma_grid": (0.5, 2.0)},
        ],
    )
    def test_bad_arguments(self, small_corpus, kw):
        with pytest.raises(ValueError):
            penalty_sweep(small_corpus, sweep_learner(), **kw)

    def test_ratios_scale_the_negative_penalty(self, small_corpus):
        # the learner's positive penalty is not read
        kernel = KernelSpec("rbf", gamma=0.5)
        learner = SvmLearner(kernel=kernel, penalties=PenaltyConfig(99.0, 2.0))
        sweep = penalty_sweep(small_corpus, learner, gamma_grid=(1.0, 3.0), v=4)
        assert sweep == cold_sweep(small_corpus, kernel, (1.0, 3.0), v=4, w2=2.0)

    # The warm-started path must agree with the cold reference: one
    # cross_validate per ratio, every fit from alpha = 0 on its own Gram.

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_cold_reference_on_acceptance_corpora(self, seed):
        data = generate(default_region(), n=200, seed=seed, noise=0.10)
        warm = penalty_sweep(data, sweep_learner(seed=seed), seed=seed)
        assert warm == cold_sweep(data, KernelSpec(), DEFAULT_GAMMA_GRID, seed=seed)

    def test_matches_cold_reference_on_benchmark_corpus(self):
        # the sweep workload's corpus: 500 rows, generator seed 3, 5 % noise
        data = generate(default_region(), n=500, seed=3, noise=0.05)
        kernel = KernelSpec("rbf", gamma=0.5)
        warm = penalty_sweep(data, sweep_learner(kernel))
        assert warm == cold_sweep(data, kernel, DEFAULT_GAMMA_GRID)

    def test_benchmark_corpus_takes_at_most_2500_updates(self, monkeypatch):
        # 7333 updates by pair steps alone; the free-set Newton step of
        # fit_svm cuts them to under 1800
        data = generate(default_region(), n=500, seed=3, noise=0.05)
        updates = []

        def counting(*args, **kwargs):
            model = fit_svm(*args, **kwargs)
            updates.append(len(model.objective_trace) - 1)
            return model

        monkeypatch.setattr("gasgate.evaluate.fit_svm", counting)
        report = penalty_sweep(data, sweep_learner(KernelSpec("rbf", gamma=0.5)))
        assert len(updates) == len(DEFAULT_GAMMA_GRID) * DEFAULT_FOLDS
        assert sum(updates) <= 2500
        assert choose_ratio(report) == 10.0

    def test_warm_starts_carry_their_gradient(self, monkeypatch):
        # each ratio starts from the previous fit's multipliers and gradient,
        # so no fit sums a starting gradient: its one kernel sum is its last
        data = generate(default_region(), n=500, seed=3, noise=0.05)
        sums, sums_per_fit, starts, fitted = [], [], [], []
        kernel_sums = svm._kernel_sums

        def recording_sums(*args):
            sums.append(args)
            return kernel_sums(*args)

        def recording_fit(*args, start=None, **kwargs):
            before = len(sums)
            model = fit_svm(*args, start=start, **kwargs)
            sums_per_fit.append(len(sums) - before)
            starts.append(start)
            fitted.append(model)
            return model

        monkeypatch.setattr(svm, "_kernel_sums", recording_sums)
        monkeypatch.setattr("gasgate.evaluate.fit_svm", recording_fit)
        report = penalty_sweep(data, sweep_learner(KernelSpec("rbf", gamma=0.5)))
        assert sums_per_fit == [1] * len(starts)
        # per fold: one cold fit, then each ratio starts from the previous one
        assert len(starts) == len(DEFAULT_GAMMA_GRID) * DEFAULT_FOLDS
        assert all(start is (None if k % len(DEFAULT_GAMMA_GRID) == 0 else fitted[k - 1])
                   for k, start in enumerate(starts))
        assert choose_ratio(report) == 10.0

    def test_fold_caches_grow_with_the_free_set_across_the_path(self, monkeypatch):
        # the sweep workload's corpus: 400 training rows per fold, all of
        # which 16 MiB would hold; the fold's fits call for about 120
        data = generate(default_region(), n=500, seed=3, noise=0.05)
        caches, limits = [], []

        class Recorded(KernelRows):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(self)

        class HoldingAll(KernelRows):
            def __init__(self, *args):
                super().__init__(*args)
                self.reserve(self.capacity)

        def recording_fit(*args, cache, **kwargs):
            model = fit_svm(*args, cache=cache, **kwargs)
            limits.append((len(caches), cache.limit))
            return model

        monkeypatch.setattr("gasgate.evaluate.fit_svm", recording_fit)
        monkeypatch.setattr("gasgate.evaluate.KernelRows", Recorded)
        learner = sweep_learner(KernelSpec("rbf", gamma=0.5))
        report = penalty_sweep(data, learner)
        assert len(caches) == DEFAULT_FOLDS
        for fold, cache in enumerate(caches, start=1):
            fold_limits = [limit for k, limit in limits if k == fold]
            assert len(fold_limits) == len(DEFAULT_GAMMA_GRID)
            assert fold_limits == sorted(fold_limits)  # carried from fit to fit
            assert cache.rows_held <= cache.limit < cache.capacity == 400
        monkeypatch.setattr("gasgate.evaluate.KernelRows", HoldingAll)
        assert penalty_sweep(data, learner) == report

    def test_every_fit_runs_through_fit_fold(self, monkeypatch):
        # one cache per fold, and each of the fold's 12 ratios fitted by the
        # same fold recipe as cross_validate
        data = generate(default_region(), n=500, seed=3, noise=0.05)
        calls, caches = [], []

        class Recorded(KernelRows):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(self)

        def counting(fold, learner, **start):
            calls.append(len(caches))
            return fit_fold(fold, learner, **start)

        monkeypatch.setattr("gasgate.evaluate.fit_fold", counting)
        monkeypatch.setattr("gasgate.evaluate.KernelRows", Recorded)
        report = penalty_sweep(data, sweep_learner(KernelSpec("rbf", gamma=0.5)))
        assert len(DEFAULT_GAMMA_GRID) == 12
        assert len(calls) == len(DEFAULT_GAMMA_GRID) * DEFAULT_FOLDS == 60
        assert len(caches) == DEFAULT_FOLDS
        assert calls == [k // len(DEFAULT_GAMMA_GRID) + 1 for k in range(60)]
        assert choose_ratio(report) == 10.0

    def test_never_holds_two_fold_caches(self, monkeypatch):
        # when a fold's cache is built, every earlier fold's cache is gone
        data = generate(default_region(), n=500, seed=3, noise=0.05)
        caches, alive_at_build = [], []

        class Watched(KernelRows):
            def __init__(self, *args):
                alive_at_build.append(sum(ref() is not None for ref in caches))
                super().__init__(*args)
                caches.append(weakref.ref(self))

        monkeypatch.setattr("gasgate.evaluate.KernelRows", Watched)
        penalty_sweep(data, sweep_learner(KernelSpec("rbf", gamma=0.5)),
                      gamma_grid=(1.0, 5.0))
        assert alive_at_build == [0] * DEFAULT_FOLDS

    def test_shuffled_grid_with_a_repeat_keeps_row_order(self, small_corpus):
        kernel = KernelSpec("rbf", gamma=0.5)
        grid = (20.0, 1.0, 60.0, 1.0, 5.0)
        sweep = penalty_sweep(small_corpus, sweep_learner(kernel), gamma_grid=grid, v=4)
        assert [gamma for gamma, _ in sweep] == list(grid)
        assert sweep == cold_sweep(small_corpus, kernel, grid, v=4)

    def test_unconverged_fits_are_counted(self, noisy_small_corpus):
        kernel = KernelSpec("rbf", gamma=0.5)
        learner = sweep_learner(kernel, 10.0, max_passes=1)
        stunted = penalty_sweep(noisy_small_corpus, learner, gamma_grid=(1.0, 8.0, 1.0), v=4)
        # the path's first ratio starts cold in every fold, as cross_validate's fits do
        assert stunted[0] == (1.0, cross_validate(noisy_small_corpus, learner, v=4))
        assert 0 < stunted[0][1].unconverged <= 4
        assert stunted[2] == stunted[0]
        full = penalty_sweep(noisy_small_corpus, sweep_learner(kernel), gamma_grid=(1.0, 8.0),
                             v=4)
        assert [report.unconverged for _, report in full] == [0, 0]


def sweep_learner(kernel=KernelSpec(), w2=1.0, **settings):
    """The learner a sweep with negative-class cost ``w2`` scales."""
    return SvmLearner(kernel=kernel, penalties=PenaltyConfig(w2, w2), **settings)


def cold_sweep(data, kernel, grid, seed=0, v=DEFAULT_FOLDS, w2=1.0):
    """Reference sweep from independent cold fits: cross_validate per ratio."""
    sweep = []
    for gamma in grid:
        learner = SvmLearner(kernel=kernel, penalties=PenaltyConfig(gamma * w2, w2),
                             seed=seed)
        sweep.append((gamma, cross_validate(data, learner, v, seed)))
    return tuple(sweep)


def sweep_from_error_counts(spec):
    """spec: iterable of (gamma, fn, fp) over a denominator of 100, split
    over two folds so that each rate reads the pooled counts."""
    sweep = []
    for gamma, fn, fp in spec:
        first = ConfusionCounts(tp=30, fp=0, tn=20, fn=0)
        second = ConfusionCounts(tp=30 - fn, fp=fp, tn=20 - fp, fn=fn)
        sweep.append((gamma, CvReport((first, second))))
    return tuple(sweep)


class TestChooseRatio:
    def test_minimum_type1_wins(self):
        report = sweep_from_error_counts([(5.0, 2, 4), (10.0, 1, 7), (20.0, 3, 1)])
        assert choose_ratio(report) == 10.0

    def test_whole_error_breaks_type1_ties(self):
        report = sweep_from_error_counts([(5.0, 2, 4), (10.0, 1, 7), (20.0, 1, 5)])
        assert choose_ratio(report) == 20.0

    def test_smallest_gamma_breaks_remaining_ties(self):
        report = sweep_from_error_counts([(5.0, 1, 5), (10.0, 1, 5), (20.0, 2, 0)])
        assert choose_ratio(report) == 5.0

    @given(perm=st.permutations(range(4)))
    @settings(max_examples=24)
    def test_row_order_never_matters(self, perm):
        spec = [(5.0, 2, 4), (10.0, 1, 7), (20.0, 1, 5), (30.0, 4, 0)]
        base = sweep_from_error_counts(spec)
        shuffled = tuple(base[i] for i in perm)
        assert choose_ratio(shuffled) == choose_ratio(base)


class TestEmitters:
    REPORT = CvReport((counts_with_accuracy(17, 3), counts_with_accuracy(5, 0)))
    SWEEP = sweep_from_error_counts([(1.0, 2, 4), (60.0, 0, 9)])

    def test_sweep_tsv_layout(self):
        text = sweep_tsv(self.SWEEP)
        lines = text.splitlines()
        assert lines[0] == "gamma\ttype1\ttype2\twhole"
        assert len(lines) == 3
        gamma, t1, t2, whole = lines[1].split("\t")
        assert float(gamma) == 1.0
        assert float(t1) == 0.02 and float(t2) == 0.04
        assert float(whole) == pytest.approx(0.06)
        assert text.endswith("\n")

    def test_cv_csv_round_trips_the_summary(self):
        lines = cv_report_csv(self.REPORT).splitlines()
        assert lines[0] == "fold,tp,fp,tn,fn,accuracy"
        assert lines[1].split(",") == ["1", "0", "3", "17", "0", "85.0"]
        assert float(lines[-2].split(",")[-1]) == pytest.approx(self.REPORT.mean)
        assert float(lines[-1].split(",")[-1]) == pytest.approx(self.REPORT.std)

    def test_text_renderings_smoke(self):
        assert "mean accuracy:" in cv_report_text(self.REPORT)
        assert "gamma" in sweep_text(self.SWEEP)

    def test_sweep_text_labels_each_ratio_as_given(self):
        # one decimal would print 1.05 and 1.1 both as 1.1, 2.25 and 2.2 as 2.2
        ratios = [1.05, 1.1, 2.25, 2.2, 5.0, 60.0]
        lines = sweep_text(sweep_from_error_counts([(g, 0, 0) for g in ratios])).splitlines()
        assert [line[:6] for line in lines[1:]] == [
            "  1.05", "   1.1", "  2.25", "   2.2", "   5.0", "  60.0"]
