import dataclasses
import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasgate.errors import GasgateError, SingleClassError
from gasgate import svm
from gasgate.data import featurize, fit_normalization
from gasgate.kernels import KernelRows, KernelSpec, kernel_matrix
from gasgate.model_io import model_from_obj, model_to_obj
from gasgate.svm import PenaltyConfig, SvmModel, fit_svm
from gasgate.synth import default_region, generate

from .support import (
    brute_force_best,
    dual_objective,
    full_alpha,
    kkt_max_residual,
    random_two_class_problem,
    reference_free_set_newton,
    slsqp_dual,
)

LINEAR = KernelSpec("linear")
RBF = KernelSpec("rbf", gamma=0.5)
SIGMOID = KernelSpec("sigmoid", gamma=0.05, coef0=0.1)
POLYNOMIAL = KernelSpec("polynomial", gamma=0.3, coef0=1.0, degree=2)


def fit(X, y, kernel=LINEAR, pos=10.0, neg=10.0, **kw):
    return fit_svm(X, y, kernel, PenaltyConfig(pos, neg), **kw)


@pytest.fixture
def kernel_sum_rows(monkeypatch):
    """The row count of every ``svm._kernel_sums`` call."""
    calls = []
    kernel_sums = svm._kernel_sums

    def recording(spec, X, *args):
        calls.append(len(X))
        return kernel_sums(spec, X, *args)

    monkeypatch.setattr(svm, "_kernel_sums", recording)
    return calls


def recomputed_rows(model, y, caps) -> int:
    """The rows the end of a fit recomputes: the free ones, else every one."""
    free = svm._free(model.alpha, caps)
    return int(free.sum()) if free.any() else len(y)


@pytest.fixture(scope="module")
def two_point_model():
    X = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    return fit(X, y, pos=100.0, neg=100.0)


class TestTwoPointAnalytic:
    """x = -1 labeled -1, x = +1 labeled +1: alpha = (0.5, 0.5), bias = 0."""

    @pytest.fixture
    def model(self, two_point_model):
        return two_point_model

    def test_alphas(self, model):
        assert np.abs(model.dual_coef) == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_coef_signs_follow_labels(self, model):
        assert model.dual_coef[0] < 0 < model.dual_coef[1]

    def test_bias_zero(self, model):
        assert model.bias == pytest.approx(0.0, abs=1e-6)

    def test_boundary_at_origin(self, model):
        assert model.decision_value(np.array([0.0])) == pytest.approx(0.0, abs=1e-6)

    def test_margins_are_one(self, model):
        values = model.decision_values(np.array([[-1.0], [1.0]]))
        assert values == pytest.approx([-1.0, 1.0], abs=1e-6)

    def test_predictions(self, model):
        assert model.predict(np.array([[-0.3], [0.3]])).tolist() == [-1, 1]

    def test_converged(self, model):
        assert model.converged


class TestOptimality:
    def test_never_beaten_by_coarse_grid(self, rng):
        for _ in range(6):
            X, y = random_two_class_problem(rng, n_range=(2, 5), d_range=(1, 3))
            caps = np.where(y > 0, 3.0, 2.0)
            K = kernel_matrix(RBF, X)
            model = fit(X, y, RBF, pos=3.0, neg=2.0)
            smo = model.dual_objective()
            grid_best, n_points = brute_force_best(K, y, caps)
            assert n_points > 0
            assert smo >= grid_best - 1e-3

    @pytest.mark.parametrize(
        "kernel",
        [
            LINEAR,
            RBF,
            KernelSpec("polynomial", gamma=0.3, coef0=1.0, degree=2),
            SIGMOID,
        ],
        ids=lambda k: k.kind,
    )
    def test_matches_slsqp_reference(self, kernel, rng):
        X, y = random_two_class_problem(rng, n_range=(15, 35), d_range=(2, 4))
        caps_pos, caps_neg = 4.0, 1.5
        model = fit(X, y, kernel, pos=caps_pos, neg=caps_neg, tol=1e-6)
        K = kernel_matrix(kernel.resolved(X.shape[1]), X)
        caps = np.where(y > 0, caps_pos, caps_neg)
        reference = slsqp_dual(K, y, caps)
        assert model.dual_objective() == pytest.approx(reference, abs=1e-3)

    def test_kkt_residuals_within_tol(self, rng):
        for _ in range(4):
            X, y = random_two_class_problem(rng)
            model = fit(X, y, RBF, pos=5.0, neg=5.0, tol=1e-3)
            assert model.converged
            assert kkt_max_residual(model, X, y) <= 1e-3 + 1e-9

    def test_dual_feasibility(self, rng):
        X, y = random_two_class_problem(rng, n_range=(20, 40))
        model = fit(X, y, RBF, pos=2.0, neg=7.0)
        alpha = np.abs(model.dual_coef)
        caps = np.where(model.dual_coef > 0, 2.0, 7.0)
        assert np.all(alpha > 0)
        assert np.all(alpha <= caps * (1 + 1e-9))
        # equality constraint: sum alpha_i y_i = 0 up to accumulated rounding
        assert abs(model.dual_coef.sum()) <= 1e-9 * max(2.0, 7.0)

    def test_objective_trace_never_decreases(self, rng):
        X, y = random_two_class_problem(rng, n_range=(20, 40))
        model = fit(X, y, RBF)
        trace = model.objective_trace
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-8)

    @pytest.mark.parametrize("kernel", [RBF, SIGMOID], ids=lambda k: k.kind)
    def test_objective_trace_ends_at_dual_objective(self, kernel, rng):
        # the trace is accumulated from per-step gains; it must not drift
        for _ in range(4):
            X, y = random_two_class_problem(rng)
            model = fit(X, y, kernel, pos=3.0, neg=4.0)
            objective = model.dual_objective()
            assert abs(model.objective_trace[-1] - objective) <= 1e-9 * max(
                1.0, abs(objective)
            )

    def test_model_objective_matches_reference_formula(self, rng):
        X, y = random_two_class_problem(rng)
        model = fit(X, y, RBF, pos=3.0, neg=4.0)
        K = kernel_matrix(model.kernel, X)
        alpha = full_alpha(model)
        assert model.dual_objective() == pytest.approx(
            dual_objective(alpha, K, y), abs=1e-9
        )


def smo_line(snippet: str) -> int:
    """The line number of the last line of ``snippet``, which occurs once in
    the source of ``svm._Smo``."""
    lines, first = inspect.getsourcelines(svm._Smo)
    text = "".join(lines)
    assert text.count(snippet) == 1
    return first + text[:text.index(snippet) + len(snippet)].count("\n")


def count_lines(numbers, call):
    """``call()`` and how often each line of ``svm._Smo`` in ``numbers`` ran."""
    counts = dict.fromkeys(numbers, 0)
    codes = {f.__code__ for f in vars(svm._Smo).values() if inspect.isfunction(f)}

    def in_smo(frame, event, arg):
        if event == "line" and frame.f_lineno in counts:
            counts[frame.f_lineno] += 1
        return in_smo

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_smo if frame.f_code in codes else None)
    try:
        return call(), counts
    finally:
        sys.settrace(previous)


class TestStallFallbacks:
    """A pair that makes no progress falls back to the maximal violating pair
    (the ``j_min`` retry), then to a walk over the 16 most violating
    candidates of each index set; SMO stops unconverged only when the walk
    finds no pair either.  Refitting at tol 1e-12 from a tol-1e-3 solution
    under huge penalties reaches both."""

    RETRY = "gain = self.take_step(i, j_min)"
    WALK = "low_order = np.argsort(-g_low)[:16]"
    NO_PAIR = ("gain = self.stall_walk(tol)\n"
               "                if gain is None:\n"
               "                    return False")

    @pytest.mark.parametrize("penalty", [1e6, 1e9])
    def test_fallbacks_keep_the_objective_rising(self, penalty):
        lines = [smo_line(s) for s in (self.RETRY, self.WALK, self.NO_PAIR)]
        totals = np.zeros(3, dtype=int)
        for seed in range(4):  # 60 points each; seed 0 alone reaches both
            rng = np.random.default_rng(seed)
            X, y = rng.normal(size=(60, 2)), rng.choice([-1.0, 1.0], 60)
            start = fit(X, y, RBF, pos=penalty, neg=penalty)
            model, counts = count_lines(lines, lambda: fit(
                X, y, RBF, pos=penalty, neg=penalty, tol=1e-12, start=start))
            no_pair = counts[lines[2]]
            assert np.all(np.diff(model.objective_trace) >= 0)
            assert len(model.objective_trace) - 1 < 1000 * len(y)  # not the budget
            assert model.converged == (no_pair == 0)
            totals += [counts[k] for k in lines]
        retries, walks, no_pairs = totals
        assert retries >= 1
        assert walks > no_pairs  # some walk found a pair


class TestStructure:
    def test_label_flip_with_penalty_swap_mirrors_decision(self, rng):
        X, y = random_two_class_problem(rng, n_range=(15, 30))
        a = fit(X, y, RBF, pos=6.0, neg=2.0, tol=1e-6)
        b = fit(X, -y, RBF, pos=2.0, neg=6.0, tol=1e-6)
        probe = rng.normal(size=(8, X.shape[1]))
        assert a.decision_values(probe) == pytest.approx(
            -b.decision_values(probe), abs=1e-4
        )

    def test_identical_points_conflicting_labels_hit_the_cap(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([1.0, -1.0])
        model = fit(X, y, RBF, pos=5.0, neg=5.0)
        assert np.abs(model.dual_coef) == pytest.approx([5.0, 5.0], abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        # exact tie resolves to the explosion class
        assert model.predict(np.array([[0.0]])).tolist() == [1]

    def test_gamma_resolved_at_fit_time(self, featurized_small):
        _, X, exploded = featurized_small
        y = np.where(exploded, 1.0, -1.0)
        model = fit(X[:40], y[:40], KernelSpec("rbf"))
        assert model.kernel.gamma == pytest.approx(1.0 / X.shape[1])

    def test_same_seed_reproduces_fit_exactly(self, rng):
        X, y = random_two_class_problem(rng, n_range=(25, 45))
        a = fit(X, y, RBF, seed=11)
        b = fit(X, y, RBF, seed=11)
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias
        assert np.array_equal(a.alpha, b.alpha)

    def test_budget_exhaustion_flags_non_convergence(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 2))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        model = fit(X, y, RBF, tol=1e-10, max_passes=1)
        assert not model.converged
        # the budget is passes * n joint updates
        assert len(model.objective_trace) - 1 == 40

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_on_a_newton_turn_holds(self, seed):
        # n rows, one pass: the budget runs out on the update after which a
        # Newton step is due, and that step must not run as one more update
        n = svm._NEWTON_EVERY
        rng = np.random.default_rng(seed)
        X, y = rng.normal(size=(n, 2)), rng.choice([-1.0, 1.0], n)
        model = fit(X, y, RBF, tol=1e-12, max_passes=1)
        assert len(model.objective_trace) - 1 == n
        assert model.converged is False

    def test_support_vectors_subset_of_training_rows(self, rng):
        X, y = random_two_class_problem(rng, n_range=(20, 40))
        model = fit(X, y, RBF)
        assert np.array_equal(model.support_vectors, X[model.alpha > 1e-12])

    def test_normalization_carried_on_model(self, featurized_small):
        params, X, exploded = featurized_small
        y = np.where(exploded, 1.0, -1.0)
        model = fit_svm(X, y, RBF, normalization=params)
        assert model.normalization is params


class TestWarmStart:
    """SMO restarted from a model's multipliers and their gradient (``start``)
    on a shared cache."""

    def test_shared_cache_gives_the_same_fit(self, rng):
        X, y = random_two_class_problem(rng, n_range=(30, 60))
        fresh = fit(X, y, RBF)
        shared = KernelRows(RBF, X, 1e9)
        fit(X, y, RBF, pos=1.0, neg=1.0, cache=shared)  # leaves rows behind
        reused = fit(X, y, RBF, cache=shared)
        assert np.array_equal(fresh.alpha, reused.alpha)
        assert fresh.bias == reused.bias

    # caps: negative 1, positive 2; labels (-1, +1, +1)
    X3 = np.array([[-1.0], [0.0], [1.0]])
    Y3 = np.array([-1.0, 1.0, 1.0])

    def start(self, alpha, gradient=(0.0, 0.0, 0.0)):
        """A fit on the three rows, carrying the given warm-start arrays."""
        model = fit(self.X3, self.Y3, pos=2.0, neg=1.0)
        return dataclasses.replace(model, alpha=np.array(alpha), gradient=np.array(gradient))

    @pytest.mark.parametrize(
        "alpha",
        [
            [0.0, 1e-3, -1e-3],  # below zero
            [1.5, 1.0, 0.5],  # above the negative cap
            [0.5, 0.0, 0.0],  # sum(alpha * y) != 0
            [0.5, 0.5],  # wrong length
            [np.nan, 0.0, 0.0],
        ],
    )
    def test_infeasible_start_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"start\.alpha (must|violates)"):
            fit(self.X3, self.Y3, pos=2.0, neg=1.0, start=self.start(alpha))

    @pytest.mark.parametrize("kernel", [LINEAR, RBF], ids=lambda k: k.kind)
    def test_carried_gradient_reaches_the_cold_objective(self, kernel, rng, kernel_sum_rows):
        # raising the positive cap keeps the lower ratio's optimum feasible
        for _ in range(4):
            X, y = random_two_class_problem(rng, n_range=(30, 60))
            low = fit(X, y, kernel, pos=1.0, neg=1.0)
            cold = fit(X, y, kernel, pos=8.0, neg=1.0)
            del kernel_sum_rows[:]
            carried = low.alpha.copy(), low.gradient.copy()
            warm = fit(X, y, kernel, pos=8.0, neg=1.0, start=low)
            assert cold.converged and warm.converged
            # SMO works on copies: the start model is left as it was
            assert np.array_equal(low.alpha, carried[0])
            assert np.array_equal(low.gradient, carried[1])
            assert abs(warm.dual_objective() - cold.dual_objective()) <= 1e-3
            # no starting sum, only the one at the end
            assert kernel_sum_rows == [recomputed_rows(warm, y, np.where(y > 0, 8.0, 1.0))]

    @pytest.mark.parametrize("kernel", [LINEAR, RBF, SIGMOID], ids=lambda k: k.kind)
    def test_restart_with_carried_gradient_makes_no_update(self, kernel, rng, kernel_sum_rows):
        X, y = random_two_class_problem(rng, n_range=(30, 60))
        model = fit(X, y, kernel, pos=3.0, neg=2.0)
        del kernel_sum_rows[:]
        again = fit(X, y, kernel, pos=3.0, neg=2.0, start=model)
        assert model.converged and again.converged
        assert len(again.objective_trace) == 1
        assert again.objective_trace[0] == pytest.approx(model.objective_trace[-1], rel=1e-9)
        assert np.array_equal(again.alpha, model.alpha)
        assert again.dual_objective() == model.dual_objective()
        assert kernel_sum_rows == [recomputed_rows(again, y, np.where(y > 0, 3.0, 2.0))]

    def test_start_at_zero_is_the_cold_start(self, rng):
        # at alpha = 0, u = 0 and the gradient is -y
        X, y = random_two_class_problem(rng, n_range=(30, 60))
        cold = fit(X, y, RBF)
        zero = fit(X, y, RBF, start=dataclasses.replace(cold, alpha=np.zeros(len(y)),
                                                        gradient=-y))
        assert np.array_equal(zero.alpha, cold.alpha)
        assert zero.bias == cold.bias

    @pytest.mark.parametrize(
        "gradient, alpha",
        [
            ([0.0, 0.0], [0.5, 0.5, 0.0]),  # wrong length
            ([[0.0, 0.0, 0.0]], [0.5, 0.5, 0.0]),  # wrong shape
            ([np.nan, 0.0, 0.0], [0.5, 0.5, 0.0]),
            ([0.0, -np.inf, 0.0], [0.5, 0.5, 0.0]),
        ],
        ids=["length", "shape", "nan", "inf"],
    )
    def test_malformed_start_gradient_rejected(self, gradient, alpha):
        with pytest.raises(ValueError, match=r"start\.gradient"):
            fit(self.X3, self.Y3, pos=2.0, neg=1.0, start=self.start(alpha, gradient))

    @pytest.mark.parametrize("strip", [
        lambda model: dataclasses.replace(model, alpha=None),
        lambda model: dataclasses.replace(model, gradient=None),
        lambda model: model_from_obj(model_to_obj(model)),  # carries neither array
    ], ids=["alpha", "gradient", "loaded"])
    def test_start_without_its_arrays_refused(self, strip, kernel_sum_rows):
        start = strip(self.start([0.5, 0.5, 0.0]))
        del kernel_sum_rows[:]
        with pytest.raises(ValueError, match="no alpha or gradient: a loaded model"):
            fit(self.X3, self.Y3, pos=2.0, neg=1.0, start=start)
        assert kernel_sum_rows == []

    def test_rounding_excursions_are_clipped(self):
        # 1e-13 below zero is tolerated and clipped to (0.5, 0.5, 0), where
        # the linear kernel gives u = (-1/2, 0, 1/2) and the dual objective
        # is exactly 1 - 1/8
        model = fit(self.X3, self.Y3, pos=2.0, neg=1.0,
                    start=self.start([0.5, 0.5, -1e-13], [0.5, -1.0, -0.5]))
        assert model.objective_trace[0] == 0.875
        assert model.alpha.min() >= 0.0

    @pytest.mark.parametrize(
        "features, kernel",
        [
            (X3[:2], LINEAR),
            (X3 + 1.0, LINEAR),
            (X3, RBF),
        ],
        ids=["other-rows", "other-values", "other-kernel"],
    )
    def test_cache_of_other_rows_rejected(self, features, kernel):
        cache = KernelRows(kernel.resolved(1), features, 1e6)
        with pytest.raises(ValueError, match="cache"):
            fit(self.X3, self.Y3, cache=cache)


@pytest.fixture(scope="module")
def corpus():
    data = generate(default_region(), n=300, seed=5, noise=0.05)
    X = featurize(fit_normalization(data), data)
    return X, np.where(data.exploded, 1.0, -1.0)


@pytest.fixture(scope="module")
def fit_corpus():
    """The fit workload's training corpus: 4000 rows, generator seed 1."""
    data = generate(default_region(), n=4000, seed=1, noise=0.05)
    X = featurize(fit_normalization(data), data)
    return X, np.where(data.exploded, 1.0, -1.0)


@pytest.fixture(scope="module")
def fit_corpus_model(fit_corpus):
    """The RBF fit of the fit workload, at the default cache budget."""
    return fit(*fit_corpus, RBF)


class TestKernelRowCache:
    """The row cache changes how often rows are computed, never the fit."""

    @staticmethod
    def assert_same_fit(a, b):
        assert np.array_equal(a.alpha, b.alpha)
        assert a.bias == b.bias
        assert len(a.objective_trace) == len(b.objective_trace)

    def test_constant_eviction_gives_the_same_rbf_fit(self, corpus):
        X, y = corpus
        n = len(y)
        tiny = KernelRows(RBF, X, 3 * 8 * n)
        held, read = [], tiny.row

        def checked_read(i):
            row = read(i)
            held.append(tiny.rows_held)
            return row

        tiny.row = checked_read
        evicting = fit(X, y, RBF, cache=tiny)
        unbounded = KernelRows(RBF, X, 1e9)
        unbounded.reserve(n)  # hold every row read, not only what SMO reserves
        self.assert_same_fit(evicting, fit(X, y, RBF, cache=unbounded))
        assert tiny._slab.shape == (3, n) and max(held) == 3
        assert tiny.rows_computed > 2 * unbounded.rows_computed
        # an unbounded cache computes each row once, and the bias, taken
        # from the free set's exact gradient, reads no row of the cache
        assert unbounded.rows_computed == unbounded.rows_held

    def test_tiny_cache_mb_gives_the_same_fit(self, corpus):
        X, y = corpus
        self.assert_same_fit(fit(X, y, RBF, cache_mb=1e-5), fit(X, y, RBF))

    def test_constant_eviction_gives_the_same_carried_path(self, corpus):
        X, y = corpus
        n = len(y)
        paths = []
        for budget in (2 * 8 * n, 1e9):
            cache = KernelRows(RBF, X, budget)
            model = None
            path = []
            for ratio in (1.0, 5.0, 20.0):
                model = fit(X, y, RBF, pos=ratio, neg=1.0, cache=cache, start=model)
                path.append(model)
            assert cache.rows_held <= max(2, budget // (8 * n))
            paths.append(path)
        for evicting, unbounded in zip(*paths):
            self.assert_same_fit(evicting, unbounded)
            assert np.array_equal(evicting.gradient, unbounded.gradient)

    def test_default_budget_bounds_the_benchmark_fit(self, fit_corpus, monkeypatch):
        # rows read stay resident until the budget is full, so the budget
        # sets the fit's peak; 16 MiB holds 524 rows of 4000 samples
        X, y = fit_corpus
        caches = []

        class Recorded(KernelRows):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(self)

        monkeypatch.setattr(svm, "KernelRows", Recorded)
        tracemalloc.start()
        try:
            model = fit(X, y, RBF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.capacity for c in caches] == [524]
        assert peak <= 24 * 2**20
        self.assert_same_fit(model, fit(X, y, RBF, cache=KernelRows(RBF, X, 1e9)))

    @staticmethod
    def recorded_caches(monkeypatch):
        """Every ``KernelRows`` that ``fit_svm`` builds, in order."""
        caches = []

        class Recorded(KernelRows):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(self)

        monkeypatch.setattr(svm, "KernelRows", Recorded)
        return caches

    def test_cache_holds_what_the_free_set_calls_for(self, fit_corpus, monkeypatch):
        # 16 MiB allows 524 rows of 4000 samples; the free set, at most 31
        # multipliers at any check, calls for 126
        X, y = fit_corpus
        caches = self.recorded_caches(monkeypatch)
        free_sizes = []
        free = svm._free

        def counting(alpha, caps):
            mask = free(alpha, caps)
            free_sizes.append(int(mask.sum()))
            return mask

        monkeypatch.setattr(svm, "_free", counting)
        model = fit(X, y, RBF)
        (cache,) = caches
        assert cache.capacity == 524
        assert cache.rows_held <= cache.limit <= 2 * max(free_sizes) + 64 <= 128
        assert cache.rows_computed <= 1500
        every_row = KernelRows(RBF, X, 1e9)
        every_row.reserve(len(y))
        held_all = fit(X, y, RBF, cache=every_row)
        self.assert_same_fit(model, held_all)
        assert np.array_equal(model.gradient, held_all.gradient)

    def test_large_free_set_computes_about_what_a_full_budget_does(self, fit_corpus):
        # gamma 5, C 100: up to 107 free multipliers, so the cache grows to
        # 278 rows and computes 1 412; with all 524 rows of 16 MiB held it
        # computes 1 243, and a fixed 128-row cache 1 807
        X, y = fit_corpus
        spec = KernelSpec("rbf", gamma=5.0)
        demand = KernelRows(spec, X, svm.DEFAULT_CACHE_MB * 2**20)
        model = fit(X, y, spec, pos=100.0, neg=100.0, cache=demand)
        filled = KernelRows(spec, X, svm.DEFAULT_CACHE_MB * 2**20)
        filled.reserve(filled.capacity)
        self.assert_same_fit(model, fit(X, y, spec, pos=100.0, neg=100.0, cache=filled))
        assert filled.rows_held == filled.capacity == 524
        assert 128 < demand.limit < filled.capacity
        assert demand.rows_computed <= 1.15 * filled.rows_computed

    def test_sigmoid_counts_its_free_set_without_a_newton_step(self, corpus, monkeypatch):
        X, y = corpus
        caches = self.recorded_caches(monkeypatch)
        reserved = []
        reserve = KernelRows.reserve

        def recording(self, rows):
            reserved.append(rows)
            reserve(self, rows)

        monkeypatch.setattr(KernelRows, "reserve", recording)
        model = fit(X, y, SIGMOID)
        (cache,) = caches
        assert len(reserved) == (len(model.objective_trace) - 1) // svm._NEWTON_EVERY
        assert all(rows >= 64 and rows % 2 == 0 for rows in reserved)
        assert cache.limit == min(cache.capacity, max(64, *reserved))

    @pytest.mark.parametrize("cache_mb", [0.0, -1.0])
    def test_non_positive_budget_rejected(self, corpus, cache_mb):
        X, y = corpus
        with pytest.raises(ValueError, match="budget"):
            fit(X, y, RBF, cache_mb=cache_mb)


class TestFreeSetNewtonStep:
    """Every ``_NEWTON_EVERY`` updates SMO maximizes the dual exactly over
    the free multipliers; fits that take the step keep the guarantees of
    pair updates alone."""

    @pytest.fixture
    def newton_gains(self, monkeypatch):
        """The objective gain of every Newton step the test's fits attempt."""
        gains = []
        solve = svm._free_set_newton

        def recording(*args):
            alpha, gain = solve(*args)
            gains.append(gain)
            return alpha, gain

        monkeypatch.setattr(svm, "_free_set_newton", recording)
        return gains

    @pytest.mark.parametrize("kernel", [LINEAR, RBF, POLYNOMIAL], ids=lambda k: k.kind)
    def test_trace_ends_at_dual_objective(self, corpus, kernel, newton_gains):
        X, y = corpus
        model = fit(X, y, kernel)
        assert model.converged
        assert max(newton_gains) > 0
        objective = model.dual_objective()
        assert abs(model.objective_trace[-1] - objective) <= 1e-9 * abs(objective)
        assert np.all(np.diff(model.objective_trace) >= -1e-8)

    @pytest.mark.parametrize("kernel", [RBF, POLYNOMIAL], ids=lambda k: k.kind)
    def test_constant_eviction_gives_the_same_fit(self, corpus, kernel, newton_gains):
        X, y = corpus
        evicting = fit(X, y, kernel, cache=KernelRows(kernel, X, 3 * 8 * len(y)))
        steps = sum(gain > 0 for gain in newton_gains)
        assert steps > 0
        unbounded = fit(X, y, kernel, cache=KernelRows(kernel, X, 1e9))
        TestKernelRowCache.assert_same_fit(evicting, unbounded)
        assert sum(gain > 0 for gain in newton_gains) == 2 * steps

    def test_sigmoid_takes_no_step(self, corpus, newton_gains, monkeypatch):
        X, y = corpus
        model = fit(X, y, SIGMOID)
        assert newton_gains == []
        monkeypatch.setattr(svm, "_NEWTON_EVERY", 2**62)  # never reached
        again = fit(X, y, SIGMOID)
        TestKernelRowCache.assert_same_fit(model, again)
        assert np.array_equal(model.objective_trace, again.objective_trace)

    def test_benchmark_fit_corpus_takes_at_most_2000_updates(self, fit_corpus_model):
        # the fit workload's training corpus: 4468 updates by pair steps
        # alone, under 1400 with the Newton step
        model = fit_corpus_model
        assert model.converged
        assert len(model.objective_trace) - 1 <= 2000


class TestNewtonRoundsBitwise:
    """``_free_set_newton`` keeps one index vector and one right-hand side
    across its rounds; it gives the bits of the form that rebuilds both each
    round (``support.reference_free_set_newton``)."""

    @staticmethod
    def assert_same_solve(Q, g, y, a, caps):
        got_a, got_gain = svm._free_set_newton(Q, g, y, a, caps)
        ref_a, ref_gain = reference_free_set_newton(Q, g, y, a, caps)
        assert np.array_equal(got_a, ref_a)
        assert got_gain == ref_gain
        return got_a, got_gain

    @staticmethod
    def subproblem(rng, kernel, m, d):
        X = rng.normal(size=(m, d))
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        caps = np.where(y > 0, rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))
        Q = np.outer(y, y) * kernel_matrix(kernel.resolved(d), X)
        a = rng.uniform(0.0, 1.0, m) * caps
        return Q, 1.0 - Q @ a + rng.normal(scale=2.0, size=m), y, a, caps

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40), d=st.integers(1, 5),
           kernel=st.sampled_from([LINEAR, RBF, POLYNOMIAL]))
    def test_random_psd_subproblems(self, seed, m, d, kernel):
        # a linear kernel with m above d + 1 makes the bordered matrix singular
        rng = np.random.default_rng(seed)
        self.assert_same_solve(*self.subproblem(rng, kernel, m, d))

    def test_rounds_that_fix_multipliers_at_their_bounds(self, rng, monkeypatch):
        solves = []
        solve = np.linalg.solve

        def counting(A, b):
            solves.append(len(b))
            return solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        for _ in range(20):
            self.assert_same_solve(*self.subproblem(rng, RBF, 30, 3))
        assert len(solves) > 2 * 20  # the reference and the library solve alike
        assert min(solves) < 31  # some round ran on a smaller active set

    def test_rank_deficient_linear_kernel(self, rng):
        # eight points in two dimensions: Q has rank 2
        Q, g, y, a, caps = self.subproblem(rng, LINEAR, 8, 2)
        assert np.linalg.matrix_rank(Q) == 2
        self.assert_same_solve(Q, g, y, a, caps)

    def test_singular_system_exits_unchanged(self):
        Q, y = np.zeros((2, 2)), np.array([1.0, -1.0])
        kkt = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, -1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(kkt, np.zeros(3))
        a = np.array([0.5, 0.5])
        new, gain = self.assert_same_solve(Q, np.array([1.0, 2.0]), y, a, np.ones(2))
        assert np.array_equal(new, a) and gain == 0.0

    def test_non_finite_step_exits_unchanged(self):
        Q, y = np.eye(3), np.array([1.0, -1.0, 1.0])
        a = np.full(3, 0.5)
        new, gain = self.assert_same_solve(Q, np.array([np.inf, 0.0, 1.0]), y, a, np.ones(3))
        assert np.array_equal(new, a) and gain == 0.0


class TestBiasFromTheFreeSet:
    """A fit ends with one ``_kernel_sums`` call.  With a free multiplier the
    bias is -mean(F) over the free set, F recomputed exactly there alone;
    with none free every sample's F is recomputed and the bias is the band
    midpoint."""

    @staticmethod
    def exact_gradient(model, X, y):
        return (model.alpha * y) @ kernel_matrix(model.kernel, X) - y

    @pytest.mark.parametrize("kernel", [LINEAR, RBF, POLYNOMIAL, SIGMOID], ids=lambda k: k.kind)
    def test_bias_matches_a_full_recompute(self, kernel, rng):
        for _ in range(5):
            X, y = random_two_class_problem(rng, n_range=(20, 60), d_range=(2, 4))
            model = fit(X, y, kernel, pos=3.0, neg=4.0)
            free = svm._free(model.alpha, np.where(y > 0, 3.0, 4.0))
            assert free.any()
            F = self.exact_gradient(model, X, y)
            assert model.bias == pytest.approx(-F[free].mean(), rel=1e-12, abs=1e-12)
            assert 0 <= model.gradient_drift <= 1e-9

    def test_cold_fit_with_free_multipliers_takes_no_full_gradient(
            self, corpus, kernel_sum_rows):
        X, y = corpus
        model = fit(X, y, RBF)
        free = svm._free(model.alpha, np.full(len(y), 10.0))
        assert kernel_sum_rows == [free.sum()] and 0 < free.sum() < len(y)

    def test_every_multiplier_at_its_cap_gives_the_band_midpoint(self, rng, kernel_sum_rows):
        # tiny penalties on overlapping, balanced classes bound every multiplier
        X = rng.normal(size=(40, 2))
        y = np.repeat([1.0, -1.0], 20)
        model = fit(X, y, RBF, pos=1e-3, neg=1e-3)
        assert np.array_equal(model.alpha, np.full(40, 1e-3))
        assert kernel_sum_rows == [40]  # every row, once
        F = self.exact_gradient(model, X, y)
        up, low = svm._index_sets(model.alpha, y, np.full(40, 1e-3))
        midpoint = -(F[up].min() + F[low].max()) / 2.0
        assert model.bias == pytest.approx(midpoint, rel=1e-12, abs=1e-12)
        assert 0 <= model.gradient_drift <= 1e-12

    def test_drift_on_the_benchmark_fit_corpus_is_negligible(self, fit_corpus_model):
        # the fit workload's training corpus: about 2e-14
        assert fit_corpus_model.gradient_drift <= 1e-9

    def test_drift_is_measured_against_an_exact_sum(self, fit_corpus, monkeypatch):
        # the reference sums the products of each kernel value and
        # coefficient exactly (Veltkamp splitting, then math.fsum), so the
        # drift left is SMO's alone
        X, y = fit_corpus
        calls = []
        drift = svm._gradient_drift

        def recording(*args):
            calls.append(args)
            return drift(*args)

        monkeypatch.setattr(svm, "_gradient_drift", recording)
        model = fit(X, y, RBF)
        ((F, _, _),) = calls
        free = svm._free(model.alpha, np.full(len(y), 10.0))
        assert not np.array_equal(F, model.gradient[free])  # the incremental F

        def split(a):
            c = 134217729.0 * a  # 2**27 + 1
            hi = c - (c - a)
            return hi, a - hi

        y_free = y[free]
        K_hi, K_lo = split(kernel_matrix(model.kernel, X[free], model.support_vectors))
        c_hi, c_lo = split(model.dual_coef)
        gaps = [
            abs(math.fsum([*(K_hi[i] * c_hi), *(K_hi[i] * c_lo), *(K_lo[i] * c_hi),
                           *(K_lo[i] * c_lo), -y_free[i], -F[i]]))
            for i in range(len(F))
        ]
        assert model.gradient_drift == pytest.approx(max(gaps), rel=1e-6)
        # measured against the float64 sums the bias is taken from, the drift
        # would read 2.4e-13: their rounding, not SMO's
        assert np.abs(F - model.gradient[free]).max() > 5 * model.gradient_drift

    @pytest.mark.parametrize("kernel", [LINEAR, RBF, POLYNOMIAL, SIGMOID], ids=lambda k: k.kind)
    def test_gradient_matches_a_full_recompute(self, kernel, rng):
        for _ in range(5):
            X, y = random_two_class_problem(rng, n_range=(20, 60), d_range=(2, 4))
            model = fit(X, y, kernel, pos=3.0, neg=4.0)
            F = self.exact_gradient(model, X, y)
            assert np.abs(model.gradient - F).max() <= 1e-12 * np.abs(F).max()

    def test_gradient_holds_the_exact_free_set_values(self, corpus):
        X, y = corpus
        model = fit(X, y, RBF)
        free = svm._free(model.alpha, np.full(len(y), 10.0))
        assert model.bias == -model.gradient[free].mean()


class TestBlockedScoring:
    @pytest.fixture(scope="class")
    def model(self, featurized_small):
        _, X, exploded = featurized_small
        return fit(X, np.where(exploded, 1.0, -1.0), RBF)

    @pytest.mark.parametrize("rows", [5, 8, 21], ids=["below", "equal", "non-multiple"])
    def test_blocked_scores_equal_one_shot(self, model, rows, rng, monkeypatch):
        X = rng.uniform(-1.0, 1.0, size=(rows, model.n_features))
        one_shot = model.decision_values(X)  # a single block at the default size
        n_sv = len(model.dual_coef)
        monkeypatch.setattr("gasgate.svm._SCORE_BLOCK_BYTES", 8 * 8 * n_sv)  # 8 rows
        blocks = []

        def recording_kernel(*args):
            K = kernel_matrix(*args)
            blocks.append(K.shape[0])
            return K

        monkeypatch.setattr("gasgate.svm.kernel_matrix", recording_kernel)
        assert np.array_equal(model.decision_values(X), one_shot)
        assert max(blocks) <= 8 and sum(blocks) == rows


class TestBatchIndependence:
    """A row's kernel sums have the same bits in any batch: the full one, a
    shuffled one, or alone.  ``predict``'s determinism, the free-set bias and
    the end-of-fit recompute rely on it."""

    @pytest.mark.parametrize("kernel", [LINEAR, RBF, POLYNOMIAL, SIGMOID], ids=lambda k: k.kind)
    def test_every_row_sums_the_same_in_any_batch(self, kernel, rng):
        # 1 500 support vectors: 43 rows a 512 KiB block, so 120 rows take 3
        n_sv, rows = 1500, 120
        sv = rng.normal(size=(n_sv, 4))
        coef = rng.uniform(0.1, 1.0, n_sv) * rng.choice([-1.0, 1.0], n_sv)
        coefs = (coef, coef.astype(np.longdouble))
        X = rng.normal(size=(rows, 4))
        full = svm._kernel_sums(kernel, X, sv, *coefs)
        order = rng.permutation(rows)
        shuffled = svm._kernel_sums(kernel, X[order], sv, *coefs)
        for batch, sums in zip(full, shuffled):
            assert np.array_equal(sums, batch[order])
        for i in range(rows):
            alone = svm._kernel_sums(kernel, X[i:i + 1], sv, *coefs)
            assert [sums[0] for sums in alone] == [batch[i] for batch in full]
        model = SvmModel(sv, coef, 0.25, kernel, PenaltyConfig(1.0, 1.0))
        scores = model.decision_values(X)
        assert np.array_equal(scores, full[0] + 0.25)
        assert np.array_equal(model.decision_values(X[order]), scores[order])
        assert [model.decision_value(x) for x in X] == scores.tolist()


class TestValidation:
    def test_single_class_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(SingleClassError):
            fit(X, np.array([1.0, 1.0]))

    def test_zero_one_labels_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match=r"\+1 / -1"):
            fit(X, np.array([0.0, 1.0]))

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="sample count"):
            fit(np.array([[0.0], [1.0]]), np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("tol", [0.0, -1e-3])
    def test_bad_tol(self, tol):
        X = np.array([[-1.0], [1.0]])
        with pytest.raises(ValueError, match="tol"):
            fit(X, np.array([-1.0, 1.0]), tol=tol)

    def test_bad_max_passes(self):
        X = np.array([[-1.0], [1.0]])
        with pytest.raises(ValueError, match="max_passes"):
            fit(X, np.array([-1.0, 1.0]), max_passes=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected_up_front(self, bad, monkeypatch):
        X = np.arange(10.0).reshape(5, 2)
        X[2, 1] = X[4, 0] = bad
        monkeypatch.setattr(svm, "_Smo", None)  # refused before SMO starts
        with pytest.raises(ValueError, match="^feature row 2 is not finite$"):
            fit(X, np.array([-1.0, 1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("pos,neg", [(0.0, 1.0), (1.0, -2.0)])
    def test_penalties_must_be_positive(self, pos, neg):
        with pytest.raises(ValueError, match="penalties"):
            PenaltyConfig(pos, neg)

    @pytest.mark.parametrize("pos,neg", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0),
                                         (1.0, np.nan)])
    def test_penalties_must_be_finite(self, pos, neg):
        with pytest.raises(ValueError, match="penalties must be positive and finite"):
            PenaltyConfig(pos, neg)

    def test_penalty_ratio(self):
        penalties = PenaltyConfig(60.0, 1.0)
        assert (penalties.positive, penalties.negative) == (60.0, 1.0)

    def test_model_rejects_empty_support(self):
        with pytest.raises(ValueError, match="at least one support vector"):
            SvmModel(
                support_vectors=np.zeros((0, 2)),
                dual_coef=np.zeros(0),
                bias=0.0,
                kernel=RBF,
                penalties=PenaltyConfig(),
            )

    def test_model_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="counts differ"):
            SvmModel(
                support_vectors=np.zeros((2, 1)),
                dual_coef=np.array([1.0]),
                bias=0.0,
                kernel=RBF,
                penalties=PenaltyConfig(),
            )

    def test_model_rejects_out_of_box_coefficients(self):
        with pytest.raises(ValueError, match="box constraints"):
            SvmModel(
                support_vectors=np.array([[0.0]]),
                dual_coef=np.array([11.0]),
                bias=0.0,
                kernel=RBF,
                penalties=PenaltyConfig(10.0, 10.0),
            )

    def test_overflowing_diagonal_refused_before_smo(self, monkeypatch):
        X = np.array([[-1.0], [0.5], [1.0]])
        monkeypatch.setattr(svm, "_Smo", None)
        with pytest.raises(GasgateError, match="^polynomial kernel values are not finite"):
            fit(X, np.array([-1.0, 1.0, 1.0]), KernelSpec("polynomial", coef0=1e200))

    def test_overflow_off_the_diagonal_refused(self):
        # k(x, x) is finite on every row, but k(a, -a) = (-2 a^2)^3 overflows;
        # such a fit once ended in a nan bias
        a = 2e51
        X = np.array([[0.0], [a], [-a], [0.5 * a]])
        spec = KernelSpec("polynomial", gamma=1.0, coef0=-a * a, degree=3)
        assert np.isfinite(KernelRows(spec, X, 2**20).diagonal).all()
        # SMO steps on the overflowing rows without a warning of its own
        with pytest.raises(GasgateError, match="^polynomial kernel values are not finite"):
            fit(X, np.array([1.0, -1.0, -1.0, 1.0]), spec)

    def test_penalties_below_the_multiplier_threshold_leave_nothing_to_move(self, monkeypatch):
        # with caps of 1e-13 no multiplier can pass the 1e-12 support-vector
        # threshold, so both index sets start empty and SMO stops at once
        runs = []
        run = svm._Smo.run

        def recording(smo, *args, **kwargs):
            runs.append((run(smo, *args, **kwargs), smo.updates))
            return runs[-1][0]

        monkeypatch.setattr(svm._Smo, "run", recording)
        X = np.array([[-1.0], [-0.5], [0.5], [1.0]])
        with pytest.raises(GasgateError, match="^optimizer made no progress"):
            fit(X, np.array([-1.0, -1.0, 1.0, 1.0]), pos=1e-13, neg=1e-13)
        assert runs == [(True, 0)]

    def test_non_finite_decision_value_names_its_row(self):
        model = SvmModel(
            support_vectors=np.array([[1.0]]),
            dual_coef=np.array([1.0]),
            bias=0.0,
            kernel=KernelSpec("polynomial", gamma=1.0, coef0=1.0, degree=3),
            penalties=PenaltyConfig(),
        )
        # (1e200 + 1)^3 overflows: a nan score once labelled the row safe
        with pytest.raises(GasgateError, match="^the decision value of row 3 is not finite"):
            model.predict(np.array([[0.5], [-2.0], [1e200]]))

    def test_decision_value_rejects_matrix(self):
        model = fit(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="single feature vector"):
            model.decision_value(np.array([[0.0]]))


class TestPredictContract:
    def test_codomain(self, rng):
        X, y = random_two_class_problem(rng)
        model = fit(X, y, RBF)
        assert set(model.predict(rng.normal(size=(50, X.shape[1])))) <= {-1, 1}

    def test_exact_zero_decision_predicts_explosion(self):
        model = SvmModel(
            support_vectors=np.array([[0.0]]),
            dual_coef=np.array([1.0]),
            bias=-1.0,  # rbf k(0, 0) = 1, so decision at the origin is exactly 0
            kernel=KernelSpec("rbf", gamma=1.0),
            penalties=PenaltyConfig(),
        )
        assert model.decision_value(np.array([0.0])) == 0.0
        assert model.predict(np.array([[0.0]])).tolist() == [1]


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_random_fits_satisfy_kkt_and_feasibility(seed):
    # linear, rbf and polynomial take the second-order pair selection and the
    # free-set Newton step, sigmoid the first-order selection alone
    rng = np.random.default_rng(seed)
    X, y = random_two_class_problem(rng, n_range=(8, 25), d_range=(1, 3))
    pos, neg = 1.0 + 5.0 * rng.random(), 1.0 + 5.0 * rng.random()
    for kernel in (LINEAR, RBF, POLYNOMIAL, SIGMOID):
        model = fit_svm(X, y, kernel, PenaltyConfig(pos, neg), tol=1e-3)
        if not model.converged:
            continue
        alpha = np.abs(model.dual_coef)
        caps = np.where(model.dual_coef > 0, pos, neg)
        assert np.all(alpha <= caps * (1 + 1e-9))
        assert abs(model.dual_coef.sum()) <= 1e-9 * max(pos, neg) * len(y)
        assert kkt_max_residual(model, X, y) <= 1e-3 + 1e-9
