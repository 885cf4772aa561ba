import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

import gasgate.logistic
from gasgate.data import (
    RATIO_HC_OVER_O2,
    RATIO_O2_OVER_HC,
    Dataset,
    FeatureConfig,
    GasSample,
    NormalizationParams,
    apply_normalization,
    featurize,
    fit_normalization,
)
from gasgate.errors import (
    DataFormatError,
    IntervalSolverError,
    PerfectSeparationError,
    SingleClassError,
)
from gasgate.logistic import (
    ExplosionInterval,
    LogisticModel,
    explosion_interval,
    fit_logistic,
    intervals_csv,
    penalized_gradient,
    penalized_log_likelihood,
    sigmoid,
)
from gasgate.synth import default_region, generate

from .support import masked_sigmoid

# mins = -maxs makes the affine normalization the identity map, so scores can
# be written directly in raw concentration units.
IDENTITY_NORM = NormalizationParams(
    FeatureConfig(), mins=(-1.0, -1.0, -1.0), maxs=(1.0, 1.0, 1.0)
)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_saturates_without_overflow(self):
        assert sigmoid(800.0) == 1.0
        assert 0.0 <= sigmoid(-800.0) < 1e-300

    def test_symmetry(self, rng):
        z = rng.normal(size=20) * 10
        assert sigmoid(-z) == pytest.approx(1.0 - sigmoid(z), abs=1e-15)

    def test_monotone(self):
        z = np.linspace(-30, 30, 200)
        assert np.all(np.diff(sigmoid(z)) > 0)

    def test_bits_match_the_masked_form(self, rng):
        edges = [0.0, 1e-300, 36.0, 709.0, 710.0, 800.0, np.inf, np.nan]
        z = np.concatenate([edges, np.negative(edges), rng.normal(size=10_000) * 40])
        assert np.array_equal(sigmoid(z).view(np.uint64), masked_sigmoid(z).view(np.uint64))


class TestModelBasics:
    def test_three_to_one_odds_gives_three_quarters(self):
        model = LogisticModel(np.array([0.0, math.log(3.0), 0.0, 0.0]))
        p = model.predict_proba(np.array([1.0, 0.0, 0.0]))
        assert p == pytest.approx(0.75, rel=1e-12)

    def test_zero_coefficients_are_maximally_uncertain(self, rng):
        model = LogisticModel(np.zeros(4))
        X = rng.normal(size=(7, 3))
        assert np.all(model.predict_proba(X) == 0.5)
        labels = (rng.random(7) < 0.5).astype(float)
        value = penalized_log_likelihood(model.beta, X, labels, model.ridge)
        assert value == pytest.approx(-7 * math.log(2.0))

    def test_strong_negative_intercept_predicts_safe(self, rng):
        model = LogisticModel(np.array([-5.0, 0.0, 0.0, 0.0]))
        X = rng.normal(size=(5, 3)) * 0.0
        assert model.predict(X).tolist() == [0, 0, 0, 0, 0]

    def test_tie_predicts_explosion(self):
        model = LogisticModel(np.zeros(3))
        assert model.predict(np.array([0.3, -0.4])) == 1

    def test_scalar_versus_batch_shapes(self):
        model = LogisticModel(np.array([0.1, 0.2, -0.3]))
        single = model.predict_proba(np.array([1.0, 2.0]))
        batch = model.predict_proba(np.array([[1.0, 2.0]]))
        assert isinstance(single, float)
        assert batch.shape == (1,)
        assert single == batch[0]

    def test_scores_are_affine(self):
        model = LogisticModel(np.array([1.0, 2.0, -1.0]))
        assert model.scores(np.array([3.0, 4.0])) == pytest.approx(1 + 6 - 4)

    def test_feature_width_checked(self):
        model = LogisticModel(np.zeros(4))
        with pytest.raises(ValueError, match="expected 3 features"):
            model.predict_proba(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("beta", [np.zeros((2, 2)), np.zeros(1), np.array([1.0, np.inf])])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            LogisticModel(beta)


class TestGradient:
    def test_matches_central_differences(self, featurized_small):
        _, X, exploded = featurized_small
        y = exploded.astype(float)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(5):
            beta = rng.normal(size=4)
            grad = penalized_gradient(beta, X, y, ridge=0.3)
            numeric = np.empty_like(grad)
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                numeric[k] = (
                    penalized_log_likelihood(beta + e, X, y, 0.3)
                    - penalized_log_likelihood(beta - e, X, y, 0.3)
                ) / (2 * h)
            assert np.abs(grad - numeric).max() <= 1e-6 * max(1.0, np.abs(grad).max())

    def test_gradient_zero_at_fitted_optimum(self, featurized_small):
        _, X, exploded = featurized_small
        y = exploded.astype(float)
        model = fit_logistic(X, y, ridge=0.1)
        assert model.converged
        assert np.linalg.norm(penalized_gradient(model.beta, X, y, model.ridge)) <= 1e-8


SOFTPLUS_PROBES = [0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 745.0, -745.0, 1e4, -1e4]


class TestLogLikelihood:
    @pytest.mark.parametrize("g", SOFTPLUS_PROBES)
    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_matches_the_logaddexp_form(self, g, label):
        # one feature, beta = (0, 1): the linear score is the feature itself
        value = penalized_log_likelihood([0.0, 1.0], [[g]], [label], 0.0)
        expected = label * g - np.logaddexp(0.0, g)
        assert value == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_matches_the_logaddexp_form_summed(self, rng):
        g = np.concatenate([SOFTPLUS_PROBES, rng.normal(size=500) * 20])
        y = (rng.random(g.size) < 0.5).astype(float)
        value = penalized_log_likelihood([0.0, 1.0], g[:, None], y, 0.0)
        expected = y @ g - np.logaddexp(0.0, g).sum()
        assert value == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_finite_without_overflow_at_large_scores(self):
        # exp(-|g|) underflows to 0 at |g| = 1e4, its rounded value; an
        # overflow would be a fault
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            value = penalized_log_likelihood([0.0, 1.0], [[1e4], [-1e4]], [0.0, 0.0], 0.0)
        assert value == -1e4

    def test_fit_on_the_2000_row_corpus_agrees_with_bfgs(self):
        data = generate(default_region(), n=2000, seed=1, noise=0.05)
        X = featurize(fit_normalization(data), data)
        y = data.exploded.astype(float)
        model = fit_logistic(X, y, ridge=0.1)
        res = optimize.minimize(
            lambda b: -penalized_log_likelihood(b, X, y, 0.1),
            np.zeros(4),
            jac=lambda b: -penalized_gradient(b, X, y, 0.1),
            method="BFGS",
            options={"gtol": 1e-8},
        )
        assert model.converged
        assert penalized_log_likelihood(model.beta, X, y, model.ridge) >= -res.fun - 1e-9
        assert np.abs(model.beta - res.x).max() <= 1e-4
        gradient = penalized_gradient(model.beta, X, y, model.ridge)
        assert np.linalg.norm(gradient) <= 1e-8 * len(y)


class TestFit:
    def test_agrees_with_bfgs_reference(self, featurized_small):
        _, X, exploded = featurized_small
        y = exploded.astype(float)
        model = fit_logistic(X, y, ridge=0.1)
        res = optimize.minimize(
            lambda b: -penalized_log_likelihood(b, X, y, 0.1),
            np.zeros(4),
            jac=lambda b: -penalized_gradient(b, X, y, 0.1),
            method="BFGS",
            options={"gtol": 1e-8},
        )
        # the ridge makes the objective strictly concave, so matching the
        # reference value while having a vanishing gradient pins the optimum
        assert penalized_log_likelihood(model.beta, X, y, model.ridge) >= -res.fun - 1e-9
        assert np.abs(model.beta - res.x).max() <= 1e-4
        assert np.linalg.norm(penalized_gradient(model.beta, X, y, model.ridge)) <= 1e-8

    def test_singular_hessian_falls_back_to_gradient_steps(self, monkeypatch):
        # CO is constant on this corpus, so its normalized column is all zeros
        # and, with no ridge, every Hessian is singular
        data = generate(default_region(), n=500, seed=1, noise=0.05)
        with pytest.warns(UserWarning, match="constant attribute"):
            with_co = fit_normalization(data, FeatureConfig(("hc", "o2", "co")))
        without_co = fit_normalization(data, FeatureConfig(("hc", "o2")))
        y = data.exploded.astype(float)
        outcomes = []
        solve = np.linalg.solve

        def recording(*args):
            try:
                step = solve(*args)
            except np.linalg.LinAlgError:
                outcomes.append("singular")
                raise
            outcomes.append("solved")
            return step

        monkeypatch.setattr(np.linalg, "solve", recording)
        model = fit_logistic(featurize(with_co, data), y, ridge=0.0)
        monkeypatch.undo()
        reference = fit_logistic(featurize(without_co, data), y, ridge=0.0)
        assert len(outcomes) > 1 and set(outcomes) == {"singular"}
        assert model.converged and reference.converged
        assert model.beta[3] == 0.0
        # both stop at the gradient tolerance, not at the same point
        assert np.abs(model.beta[:3] - reference.beta).max() <= 1e-6

    def test_row_order_does_not_change_the_fit(self, featurized_small):
        _, X, exploded = featurized_small
        y = exploded.astype(float)
        perm = np.random.default_rng(1).permutation(len(y))
        a = fit_logistic(X, y, ridge=0.1)
        b = fit_logistic(X[perm], y[perm], ridge=0.1)
        assert np.abs(a.beta - b.beta).max() <= 1e-6

    def test_reasonable_accuracy_on_corpus(self, featurized_small):
        _, X, exploded = featurized_small
        y = exploded.astype(float)
        model = fit_logistic(X, y, ridge=0.1)
        assert (model.predict(X) == y).mean() >= 0.85

    def test_ridge_and_convergence_metadata(self, featurized_small):
        _, X, exploded = featurized_small
        y = exploded.astype(float)
        model = fit_logistic(X, y, ridge=0.1)
        assert model.ridge == 0.1
        assert model.converged
        stunted = fit_logistic(X, y, ridge=0.1, max_iter=1)
        assert not stunted.converged

    def test_line_search_never_reevaluates_the_current_iterate(self, monkeypatch):
        # On 2000 noisy rows with ridge 0.1 the Newton step shrinks below the
        # rounding of beta before the gradient reaches tol, which drives the
        # line search to its stall; a tol beyond float64's reach even per row
        # leaves that stall unconverged
        data = generate(default_region(), n=2000, seed=1, noise=0.05)
        X = featurize(fit_normalization(data), data)
        evaluated = []

        def recording(beta, X, labels, ridge):
            value = penalized_log_likelihood(beta, X, labels, ridge)
            evaluated.append((np.array(beta), value))
            return value

        monkeypatch.setattr(gasgate.logistic, "penalized_log_likelihood", recording)
        model = fit_logistic(X, data.exploded.astype(float), ridge=0.1, tol=1e-15)
        assert not model.converged
        # replay the accept rule: a candidate becomes the iterate iff it improves
        current, best = evaluated[0]
        for candidate, value in evaluated[1:]:
            assert not np.array_equal(candidate, current)
            if value > best:
                current, best = candidate, value
        assert np.array_equal(current, model.beta)

    def test_reused_probabilities_give_the_same_fit_bitwise(self, monkeypatch):
        # every iterate's probabilities are recomputed from scratch at the
        # last evaluated beta, and that beta must be the iterate itself
        data = generate(default_region(), n=2000, seed=1, noise=0.05)
        X = featurize(fit_normalization(data), data)
        y = data.exploded.astype(float)
        reused = fit_logistic(X, y, ridge=0.1)
        evaluated, asked = [], []

        def recording(beta, X, labels, ridge):
            value = penalized_log_likelihood(beta, X, labels, ridge)
            evaluated.append((np.array(beta), value))
            return value

        def recomputed(design):
            asked.append(evaluated[-1][0])
            return sigmoid(design.matrix @ asked[-1])

        monkeypatch.setattr(gasgate.logistic, "penalized_log_likelihood", recording)
        monkeypatch.setattr(gasgate.logistic._Design, "probabilities", recomputed)
        model = fit_logistic(X, y, ridge=0.1)
        assert model.converged
        assert np.array_equal(model.beta, reused.beta)
        # the iterates: the start, then each candidate that improved on the last
        start, best = evaluated[0]
        iterates = [start]
        for candidate, value in evaluated[1:]:
            if value > best:
                best = value
                iterates.append(candidate)
        assert len(asked) == len(iterates)
        assert all(map(np.array_equal, asked, iterates))

    @pytest.mark.parametrize("n", [2000, 50_000])
    def test_large_corpora_converge_at_the_default_tol(self, n):
        # float64 line searches stall with the absolute gradient near 6e-8
        # (2000 rows) and 2e-5 (50k rows), above an absolute 1e-8
        data = generate(default_region(), n=n, seed=1, noise=0.05)
        X = featurize(fit_normalization(data), data)
        y = data.exploded.astype(float)
        model = fit_logistic(X, y, ridge=0.1)
        assert model.converged
        assert np.linalg.norm(penalized_gradient(model.beta, X, y, model.ridge)) <= 1e-8 * n
        assert not fit_logistic(X, y, ridge=0.1, max_iter=1).converged

    @pytest.mark.parametrize("n", [2000, 50_000])
    def test_default_tol_fits_stop_on_the_gradient_test(self, n, monkeypatch):
        # the fit ends on ||gradient|| <= tol * n right after an accepted
        # step, not on a line search that found nothing better
        data = generate(default_region(), n=n, seed=1, noise=0.05)
        X = featurize(fit_normalization(data), data)
        y = data.exploded.astype(float)
        evaluated = []

        def recording(beta, X, labels, ridge):
            value = penalized_log_likelihood(beta, X, labels, ridge)
            evaluated.append((np.array(beta), value))
            return value

        monkeypatch.setattr(gasgate.logistic, "penalized_log_likelihood", recording)
        model = fit_logistic(X, y, ridge=0.1)
        assert model.converged
        assert np.linalg.norm(penalized_gradient(model.beta, X, y, model.ridge)) <= 1e-8 * n
        last_beta, last_value = evaluated[-1]
        assert np.array_equal(last_beta, model.beta)
        assert last_value > max(value for _, value in evaluated[:-1])

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            fit_logistic(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))

    def test_plus_minus_labels_rejected(self):
        with pytest.raises(ValueError, match="0 / 1"):
            fit_logistic(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]))

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="sample count"):
            fit_logistic(np.array([[0.0], [1.0]]), np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        # a nan used to end in beta = 0, which calls every row explosive
        X = np.arange(10.0).reshape(5, 2)
        X[2, 1] = X[4, 0] = bad
        with pytest.raises(ValueError, match="^feature row 2 is not finite$"):
            fit_logistic(X, np.array([0.0, 1.0, 0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("kw", [{"ridge": -1e-3}, {"tol": 0.0}])
    def test_bad_hyperparameters(self, kw):
        with pytest.raises(ValueError):
            fit_logistic(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), **kw)


class TestWarmStart:
    @pytest.mark.parametrize("beta, message", [
        (np.zeros(3), r"start\.beta must have shape \(4,\)"),
        (np.zeros(5), r"start\.beta must have shape \(4,\)"),
        # the model itself refuses these, before any fit
        (np.zeros((1, 4)), r"beta must be \(intercept"),
        ([0.0, np.nan, 0.0, 0.0], "beta must be finite"),
        ([0.0, 0.0, np.inf, 0.0], "beta must be finite"),
    ])
    def test_bad_start_rejected(self, featurized_small, beta, message):
        _, X, exploded = featurized_small
        with pytest.raises(ValueError, match=message):
            fit_logistic(X, exploded.astype(float), start=LogisticModel(beta=beta))

    def test_restart_at_the_optimum_takes_no_step(self, featurized_small, monkeypatch):
        _, X, exploded = featurized_small
        y = exploded.astype(float)
        cold = fit_logistic(X, y, ridge=0.1)
        assert cold.converged
        evaluations = []

        def counting(*args):
            evaluations.append(args[0])
            return penalized_log_likelihood(*args)

        monkeypatch.setattr(gasgate.logistic, "penalized_log_likelihood", counting)
        warm = fit_logistic(X, y, ridge=0.1, start=cold)
        # the one evaluation is the start's: no line search ran
        assert len(evaluations) == 1
        assert warm.converged
        assert np.array_equal(warm.beta, cold.beta)

    def test_any_start_meets_the_cold_stopping_test(self, featurized_small, rng):
        _, X, exploded = featurized_small
        y = exploded.astype(float)
        for _ in range(5):
            start = LogisticModel(beta=rng.normal(scale=3.0, size=X.shape[1] + 1))
            model = fit_logistic(X, y, ridge=0.1, start=start)
            assert model.converged
            assert np.linalg.norm(penalized_gradient(model.beta, X, y, 0.1)) <= 1e-8 * len(y)


class TestSeparation:
    # A pair straddling the boundary by +/-1e-3 forces coefficients of order
    # 1/margin, well past the divergence guard.
    X = np.array([[-1e-3], [1e-3]])
    y = np.array([0.0, 1.0])

    def test_unpenalized_fit_raises(self):
        with pytest.raises(PerfectSeparationError, match="ridge"):
            fit_logistic(self.X, self.y, ridge=0.0)

    def test_penalized_fit_warns_once_and_returns(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            model = fit_logistic(self.X, self.y, ridge=1e-10)
        hits = [w for w in rec if "separation suspected" in str(w.message)]
        assert len(hits) == 1
        assert np.linalg.norm(model.beta) > 1e3
        assert model.predict(self.X).tolist() == [0, 1]

    def test_start_past_the_guard_warns_or_raises_as_a_cold_fit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            separated = fit_logistic(self.X, self.y, ridge=1e-10)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            fit_logistic(self.X, self.y, ridge=1e-10, start=separated)
        assert len([w for w in rec if "separation suspected" in str(w.message)]) == 1
        with pytest.raises(PerfectSeparationError):
            fit_logistic(self.X, self.y, ridge=0.0, start=separated)

    def test_wide_margin_separable_data_is_unremarkable(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_logistic(X, y, ridge=1e-6)
        assert model.converged


def interval_model(beta):
    return LogisticModel(np.asarray(beta, dtype=float), normalization=IDENTITY_NORM)


def model_with_roots(r1, r2, o2, mins=(-1.0,) * 3, maxs=(1.0,) * 3, steepness=3.0):
    """A model over (hc, o2, o2/hc) whose logit at ``o2`` is
    -k (hc - r1)(hc - r2) / hc, i.e. A + B hc + C / hc with A = k (r1 + r2),
    B = -k and C = -k r1 r2; the coefficients undo the min-max map.
    A negative ``steepness`` flips the sign: explosive outside (r1, r2)."""
    a, b, c = steepness * (r1 + r2), -steepness, -steepness * r1 * r2
    (l1, _, l3), (h1, _, h3) = mins, maxs
    s1, s3 = h1 - l1, h3 - l3
    beta1 = b * s1 / 2.0
    beta3 = c * s3 / (2.0 * o2)
    beta0 = a + beta1 * (h1 + l1) / s1 + beta3 * (h3 + l3) / s3
    params = NormalizationParams(FeatureConfig(), mins, maxs)
    return LogisticModel(beta=[beta0, beta1, 0.0, beta3], normalization=params)


def half_probability_gap(model, hc, o2):
    """|p - 0.5| at one point, featurized one sample at a time."""
    x = apply_normalization(model.normalization, GasSample(hc, o2, 0.0, 0.0, False))
    return abs(model.predict_proba(x) - 0.5)


def fitted_model(corpus, attributes=("hc", "o2", "ratio"), ratio=RATIO_O2_OVER_HC):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="constant attribute")
        params = fit_normalization(corpus, FeatureConfig(attributes, ratio=ratio))
    return fit_logistic(featurize(params, corpus), corpus.exploded.astype(float),
                        ridge=0.1, normalization=params)


class TestIntervalInversion:
    def test_analytic_interval_is_recovered(self):
        # score(hc) = 3 - hc - 2/hc at o2 = 16: positive exactly on (1, 2)
        model = interval_model([3.0, -1.0, 0.0, -0.125])
        iv = explosion_interval(model, o2=16.0)
        assert iv.present
        assert iv.lower == pytest.approx(1.0, abs=1e-4)
        assert iv.upper == pytest.approx(2.0, abs=1e-4)
        assert iv.width == pytest.approx(1.0, abs=2e-4)

    @pytest.mark.parametrize(
        "r1, r2, o2, mins, maxs",
        [
            (1.0, 2.0, 16.0, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),  # identity scaling
            (0.8, 2.5, 18.0, (0.2, 12.0, 3.0), (4.0, 21.0, 105.0)),
            (1.1, 1.3, 15.0, (0.2, 12.0, 3.0), (4.0, 21.0, 105.0)),  # narrow interval
        ],
    )
    def test_known_roots_are_recovered(self, r1, r2, o2, mins, maxs):
        iv = explosion_interval(model_with_roots(r1, r2, o2, mins, maxs), o2)
        assert iv.present
        assert iv.lower == pytest.approx(r1, rel=1e-12, abs=0)
        assert iv.upper == pytest.approx(r2, rel=1e-12, abs=0)

    def test_interval_narrower_than_a_grid_step_is_found(self):
        # 1e-3 vol % wide, under the 2.45e-3 step of a 2000-point grid over
        # (0.1, 5): a grid scan can miss it
        iv = explosion_interval(model_with_roots(1.5, 1.501, 16.0), 16.0)
        assert iv.present
        assert iv.lower == pytest.approx(1.5, rel=1e-12, abs=0)
        assert iv.upper == pytest.approx(1.501, rel=1e-12, abs=0)

    def test_endpoints_sit_on_the_half_probability_contour(self):
        model = interval_model([3.0, -1.0, 0.0, -0.125])
        iv = explosion_interval(model, o2=16.0)
        for hc in (iv.lower, iv.upper):
            assert half_probability_gap(model, hc, 16.0) <= 1e-12

    @pytest.mark.parametrize(
        "attributes, o2",
        [
            (("hc", "o2", "ratio"), 15.0),
            (("hc", "o2", "ratio"), 16.5),
            (("hc", "o2", "ratio"), 20.0),
            # co is constant in the corpus (pinned to 0); co2 is not, so its
            # offset at co2 = 0 enters the intercept
            (("hc", "o2", "co", "co2", "ratio"), 15.0),
            (("hc", "o2", "co", "co2", "ratio"), 18.0),
        ],
    )
    def test_fitted_endpoints_sit_on_the_half_probability_contour(
        self, span_corpus, attributes, o2
    ):
        model = fitted_model(span_corpus, attributes)
        iv = explosion_interval(model, o2)
        assert iv.present
        for hc in (iv.lower, iv.upper):
            assert half_probability_gap(model, hc, o2) <= 1e-12

    @pytest.mark.parametrize("ratio", [RATIO_O2_OVER_HC, RATIO_HC_OVER_O2])
    def test_outcome_matches_dense_probabilities(self, rng, ratio):
        """Random models: on a dense grid featurized as a dataset, p > 0.5
        holds exactly inside the interval (away from its endpoints), nowhere
        when it is absent, and at an end of the range when that is raised."""
        hcs = np.linspace(0.1, 5.0, 4001)
        zeros = np.zeros_like(hcs)
        outcomes = set()
        for _ in range(150):
            o2 = float(rng.uniform(0.5, 30.0))
            mins = tuple(rng.uniform(0.0, 5.0, 3))
            maxs = tuple(np.add(mins, rng.uniform(0.5, 50.0, 3)))
            params = NormalizationParams(FeatureConfig(ratio=ratio), mins, maxs)
            if ratio == RATIO_O2_OVER_HC:
                r1, r2 = np.sort(rng.uniform(0.05, 6.0, 2))
                k = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0)
                beta = model_with_roots(r1, r2, o2, mins, maxs, k).beta.copy()
                beta[2] = rng.normal()  # an o2 term moves A, hence the roots
            else:
                beta = rng.normal(0.0, 3.0, 4)
            model = LogisticModel(beta, normalization=params)
            grid = Dataset.from_columns(hcs, np.full_like(hcs, o2), zeros, zeros, zeros)
            above = model.predict_proba(featurize(params, grid)) > 0.5
            try:
                iv = explosion_interval(model, o2)
            except IntervalSolverError as exc:
                assert "touches the hc_range edge" in str(exc)
                assert above[0] or above[-1]
                outcomes.add("edge")
                continue
            if iv.present:
                clear = np.minimum(abs(hcs - iv.lower), abs(hcs - iv.upper)) > 1e-9
                inside = (hcs > iv.lower) & (hcs < iv.upper)
                assert (above == inside)[clear].all()
                outcomes.add("present")
            else:
                assert not above.any()
                outcomes.add("absent")
        assert outcomes == ({"present", "absent", "edge"} if ratio == RATIO_O2_OVER_HC
                            else {"absent", "edge"})

    @pytest.mark.parametrize("o2", [15.0, 16.5, 18.0, 20.0])
    def test_hc_over_o2_never_bounds_an_interval(self, span_corpus, o2):
        # o2 and hc/o2 are both affine in hc at fixed oxygen, so the logit is
        # affine in hc: its positive side always reaches an end of the range
        model = fitted_model(span_corpus, ratio=RATIO_HC_OVER_O2)
        try:
            iv = explosion_interval(model, o2)
        except IntervalSolverError as exc:
            assert "touches the hc_range edge" in str(exc)
        else:
            assert not iv.present

    def test_hc_over_o2_at_zero_oxygen_is_undefined(self):
        params = NormalizationParams(
            FeatureConfig(ratio=RATIO_HC_OVER_O2), (-1.0,) * 3, (1.0,) * 3)
        model = LogisticModel(np.array([3.0, -1.0, 0.0, -0.125]), normalization=params)
        with pytest.raises(DataFormatError, match=r"^undefined ratio: o2 is 0$"):
            explosion_interval(model, o2=0.0)

    def test_absent_region(self):
        iv = explosion_interval(interval_model([-5.0, 0.0, 0.0, 0.0]), o2=16.0)
        assert not iv.present
        assert math.isnan(iv.lower) and math.isnan(iv.upper)
        assert iv.width == 0.0

    def test_half_probability_everywhere_is_absent(self):
        # explosive means p > 0.5; a logit that is 0 throughout never exceeds it
        assert not explosion_interval(interval_model([0.0, 0.0, 0.0, 0.0]), o2=16.0).present

    @pytest.mark.parametrize("hc_range, edge", [((0.1, 5.0), True), ((2.5, 5.0), False)])
    def test_logit_without_an_hc_term_has_one_root(self, hc_range, edge):
        # -1 + 2/hc at o2 = 16 (B = 0): explosive below hc = 2 only
        model = interval_model([-1.0, 0.0, 0.0, 0.125])
        if edge:
            with pytest.raises(IntervalSolverError, match="touches the hc_range edge"):
                explosion_interval(model, o2=16.0, hc_range=hc_range)
        else:
            assert not explosion_interval(model, o2=16.0, hc_range=hc_range).present

    def test_region_touching_range_edge_raises(self):
        with pytest.raises(IntervalSolverError, match="touches the hc_range edge"):
            explosion_interval(interval_model([5.0, 0.0, 0.0, 0.0]), o2=16.0)

    def test_upward_quadratic_with_both_roots_inside_touches_both_edges(self):
        # explosive on (0.1, 1) and (2, 5): two regions, each at an edge
        model = model_with_roots(1.0, 2.0, 16.0, steepness=-3.0)
        with pytest.raises(IntervalSolverError, match="touches the hc_range edge"):
            explosion_interval(model, o2=16.0)

    def test_non_finite_coefficients_raise(self):
        # a span of 1e-300 scales the hc coefficient past the float range
        tiny = NormalizationParams(FeatureConfig(), (0.0, 0.0, 0.0), (1e-300, 1.0, 1.0))
        model = LogisticModel(np.array([0.0, 1e10, 0.0, 0.0]), normalization=tiny)
        with pytest.raises(IntervalSolverError, match="non-finite"):
            explosion_interval(model, o2=16.0)

    def test_missing_normalization_rejected(self):
        model = LogisticModel(np.zeros(4))
        with pytest.raises(ValueError, match="no normalization"):
            explosion_interval(model, o2=16.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"hc_range": (0.0, 5.0)},
            {"hc_range": (2.0, 1.0)},
            {"o2": -1.0},
            {"o2": math.nan},
            {"o2": 97.0},
        ],
    )
    def test_bad_arguments(self, kw):
        model = interval_model([3.0, -1.0, 0.0, -0.125])
        o2 = kw.pop("o2", 16.0)
        with pytest.raises(ValueError):
            explosion_interval(model, o2=o2, **kw)

    def test_fitted_model_widens_with_oxygen(self, span_corpus):
        params = fit_normalization(span_corpus)
        X = featurize(params, span_corpus)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="separation suspected")
            model = fit_logistic(X, span_corpus.exploded.astype(float), normalization=params)
        narrow = explosion_interval(model, o2=16.0)
        wide = explosion_interval(model, o2=18.0)
        assert narrow.present and wide.present
        assert wide.width > narrow.width
        assert wide.lower < narrow.lower < narrow.upper < wide.upper


class TestIntervalContainer:
    def test_present_interval_validates_order(self):
        with pytest.raises(ValueError, match="lower < upper"):
            ExplosionInterval(16.0, 2.0, 1.0, present=True)

    def test_csv_rendering(self):
        rows = intervals_csv(
            [
                ExplosionInterval(16.0, 1.0, 2.0, present=True),
                ExplosionInterval(14.0, float("nan"), float("nan"), present=False),
            ]
        )
        assert rows == "o2,lower,upper,present\n16.0,1.0,2.0,1\n14.0,,,0\n"


@given(
    beta=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    x=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
)
@settings(max_examples=50)
def test_probability_stays_in_unit_interval(beta, x):
    model = LogisticModel(np.array(beta))
    p = model.predict_proba(np.array(x))
    assert 0.0 <= p <= 1.0
    assert model.predict(np.array(x)) == (1 if p >= 0.5 else 0)
