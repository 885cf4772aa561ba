import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

import gasgate.logistic
from gasgate.data import (
    FeatureConfig,
    GasSample,
    NormalizationParams,
    apply_normalization,
    featurize,
    fit_normalization,
)
from gasgate.errors import (
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
        assert model.log_likelihood(X, labels) == pytest.approx(-7 * math.log(2.0))

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
        assert np.linalg.norm(model.gradient(X, y)) <= 1e-8


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
        assert model.log_likelihood(X, y) >= -res.fun - 1e-9
        assert np.abs(model.beta - res.x).max() <= 1e-4
        assert np.linalg.norm(model.gradient(X, y)) <= 1e-8

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
        # 2000 noisy rows with ridge 0.1 end unconverged: the Newton step
        # shrinks below the rounding of beta before the gradient reaches tol
        data = generate(default_region(), n=2000, seed=1, noise=0.05)
        X = featurize(fit_normalization(data), data)
        evaluated = []

        def recording(beta, X, labels, ridge):
            value = penalized_log_likelihood(beta, X, labels, ridge)
            evaluated.append((np.array(beta), value))
            return value

        monkeypatch.setattr(gasgate.logistic, "penalized_log_likelihood", recording)
        model = fit_logistic(X, data.exploded.astype(float), ridge=0.1)
        assert not model.converged
        # replay the accept rule: a candidate becomes the iterate iff it improves
        current, best = evaluated[0]
        for candidate, value in evaluated[1:]:
            assert not np.array_equal(candidate, current)
            if value > best:
                current, best = candidate, value
        assert np.array_equal(current, model.beta)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            fit_logistic(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))

    def test_plus_minus_labels_rejected(self):
        with pytest.raises(ValueError, match="0 / 1"):
            fit_logistic(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]))

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="sample count"):
            fit_logistic(np.array([[0.0], [1.0]]), np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("kw", [{"ridge": -1e-3}, {"tol": 0.0}])
    def test_bad_hyperparameters(self, kw):
        with pytest.raises(ValueError):
            fit_logistic(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), **kw)


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

    def test_wide_margin_separable_data_is_unremarkable(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_logistic(X, y, ridge=1e-6)
        assert model.converged


def interval_model(beta):
    return LogisticModel(np.asarray(beta, dtype=float), normalization=IDENTITY_NORM)


class TestIntervalInversion:
    def test_analytic_interval_is_recovered(self):
        # score(hc) = 3 - hc - 2/hc at o2 = 16: positive exactly on (1, 2)
        model = interval_model([3.0, -1.0, 0.0, -0.125])
        iv = explosion_interval(model, o2=16.0)
        assert iv.present
        assert iv.lower == pytest.approx(1.0, abs=1e-4)
        assert iv.upper == pytest.approx(2.0, abs=1e-4)
        assert iv.width == pytest.approx(1.0, abs=2e-4)

    def test_endpoints_sit_on_the_half_probability_contour(self):
        model = interval_model([3.0, -1.0, 0.0, -0.125])
        iv = explosion_interval(model, o2=16.0, root_tol=1e-6)
        for hc in (iv.lower, iv.upper):
            x = apply_normalization(IDENTITY_NORM, GasSample(hc, 16.0, 0.0, 0.0, False))
            assert abs(model.predict_proba(x) - 0.5) <= 1e-6 + 1e-12

    @pytest.mark.parametrize("o2", [15.0, 16.5, 20.0])
    def test_grid_probabilities_match_per_point_probabilities(
        self, span_corpus, monkeypatch, o2
    ):
        params = fit_normalization(span_corpus)
        model = fit_logistic(featurize(params, span_corpus),
                             span_corpus.exploded.astype(float), ridge=0.1,
                             normalization=params)
        grids = []

        def recording(params, data):
            X = featurize(params, data)
            grids.append((data, X))
            return X

        monkeypatch.setattr(gasgate.logistic, "featurize", recording)
        explosion_interval(model, o2=o2)
        (grid, X), = grids
        assert len(grid) == 2000
        assert (grid.o2 == o2).all() and not grid.co.any() and not grid.co2.any()
        point = np.array([
            model.predict_proba(apply_normalization(params, GasSample(hc, o2, 0.0, 0.0, False)))
            for hc in grid.hc.tolist()
        ])
        assert np.abs(model.predict_proba(X) - point).max() <= 1e-15

    def test_tighter_root_tol_tightens_endpoints(self):
        model = interval_model([3.0, -1.0, 0.0, -0.125])
        loose = explosion_interval(model, o2=16.0, root_tol=1e-3)
        tight = explosion_interval(model, o2=16.0, root_tol=1e-9)
        assert abs(tight.lower - 1.0) <= abs(loose.lower - 1.0) + 1e-9
        assert abs(tight.upper - 2.0) <= 1e-7

    def test_absent_region(self):
        iv = explosion_interval(interval_model([-5.0, 0.0, 0.0, 0.0]), o2=16.0)
        assert not iv.present
        assert math.isnan(iv.lower) and math.isnan(iv.upper)
        assert iv.width == 0.0

    def test_region_touching_range_edge_raises(self):
        with pytest.raises(IntervalSolverError, match="touches the hc_range edge"):
            explosion_interval(interval_model([5.0, 0.0, 0.0, 0.0]), o2=16.0)

    def test_multiple_regions_raise_with_locations(self):
        class TwoBump(LogisticModel):
            def predict_proba(self, X):
                hc = np.atleast_1d(np.asarray(X))[..., 0]
                inside = ((hc > 1.0) & (hc < 1.5)) | ((hc > 2.5) & (hc < 3.0))
                p = np.where(inside, 0.9, 0.1)
                return float(p) if np.ndim(X) == 1 else p

        model = TwoBump(np.zeros(4), normalization=IDENTITY_NORM)
        with pytest.raises(IntervalSolverError, match="2 disjoint explosive regions"):
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
            {"grid_points": 10},
            {"root_tol": 0.0},
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
