import json

import pytest

from gasgate.data import FeatureConfig, NormalizationParams
from gasgate.logistic import LogisticModel, explosion_interval
from gasgate.model_io import model_to_obj

from oracles import (
    CheckFailed,
    check_intervals,
    check_svm_model,
    choose_ratio,
    explosive_interval,
    quadratic_roots,
)


def model_with_roots(r1, r2, o2, mins, maxs, steepness=3.0):
    """A logistic model whose logit at ``o2`` is -k (hc - r1)(hc - r2) / hc.

    That is g(hc) = A + B hc + C / hc with B = -k, A = k (r1 + r2) and
    C = -k r1 r2; the coefficients undo the stored min-max normalization.
    """
    a, b, c = steepness * (r1 + r2), -steepness, -steepness * r1 * r2
    (l1, l2, l3), (h1, h2, h3) = mins, maxs
    s1, s3 = h1 - l1, h3 - l3
    beta1 = b * s1 / 2.0
    beta3 = c * s3 / (2.0 * o2)
    beta0 = a + beta1 * (h1 + l1) / s1 + beta3 * (h3 + l3) / s3
    params = NormalizationParams(FeatureConfig(), mins, maxs)
    return LogisticModel(beta=[beta0, beta1, 0.0, beta3], normalization=params)


def saved(model):
    """The model as ``gasgate train`` writes it, read back as plain JSON."""
    return json.loads(json.dumps(model_to_obj(model)))


@pytest.mark.parametrize(
    "r1, r2, o2, mins, maxs",
    [
        (1.0, 2.0, 16.0, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),  # identity scaling
        (0.8, 2.5, 18.0, (0.2, 12.0, 3.0), (4.0, 21.0, 105.0)),
        (1.1, 1.3, 15.0, (0.2, 12.0, 3.0), (4.0, 21.0, 105.0)),  # narrow interval
    ],
)
def test_closed_form_recovers_known_roots(r1, r2, o2, mins, maxs):
    model = model_with_roots(r1, r2, o2, mins, maxs)
    lower, upper = explosive_interval(saved(model), o2, 0.1, 5.0)
    assert lower == pytest.approx(r1, abs=1e-12)
    assert upper == pytest.approx(r2, abs=1e-12)
    scanned = explosion_interval(model, o2)
    assert abs(scanned.lower - r1) < 1e-5 and abs(scanned.upper - r2) < 1e-5
    rows = [(o2, scanned.lower, scanned.upper, True)]
    assert check_intervals(saved(model), rows, [o2], 0.1, 5.0, 1e-5) < 1e-5


def test_interval_check_rejects_moved_endpoints_and_missing_levels():
    model = saved(model_with_roots(1.0, 2.0, 16.0, (0.2, 12.0, 3.0), (4.0, 21.0, 105.0)))
    with pytest.raises(CheckFailed, match="from the closed form"):
        check_intervals(model, [(16.0, 1.0, 2.0 + 1e-4, True)], [16.0], 0.1, 5.0, 1e-5)
    with pytest.raises(CheckFailed, match="present"):
        check_intervals(model, [(16.0, None, None, False)], [16.0], 0.1, 5.0, 1e-5)
    with pytest.raises(CheckFailed, match="one interval per level"):
        check_intervals(model, [(16.0, 1.0, 2.0, True)], [16.0, 17.0], 0.1, 5.0, 1e-5)


def test_absent_and_edge_touching_regions():
    safe_everywhere = saved(LogisticModel(
        beta=[-5.0, 0.0, 0.0, 0.0],
        normalization=NormalizationParams(FeatureConfig(), (-1.0,) * 3, (1.0,) * 3)))
    assert explosive_interval(safe_everywhere, 16.0, 0.1, 5.0) is None
    # roots at 0.05 and 2.0: the region runs into the lower end of the range
    touching = saved(model_with_roots(0.05, 2.0, 16.0, (-1.0,) * 3, (1.0,) * 3))
    with pytest.raises(CheckFailed, match="not one interior interval"):
        explosive_interval(touching, 16.0, 0.1, 5.0)


def test_quadratic_roots_stay_accurate_when_the_square_term_vanishes():
    assert quadratic_roots(2.0, 0.0, -4.0) == [2.0]
    assert quadratic_roots(1.0, 1.0, 1.0) == []
    big, small = quadratic_roots(1.0, 1e-12, -2.0)
    assert small == pytest.approx(2.0, rel=1e-9) and big < -1e11


def svm_obj(dual_coef, positive=10.0, negative=1.0):
    return {"dual_coef": dual_coef, "bias": 0.1,
            "penalties": {"positive": positive, "negative": negative}}


def test_svm_model_check():
    check_svm_model(svm_obj([2.0, -0.5, -0.5, -1.0]))
    with pytest.raises(CheckFailed, match="sum of dual"):
        check_svm_model(svm_obj([2.0, -0.5]))
    with pytest.raises(CheckFailed, match="outside"):
        check_svm_model(svm_obj([2.0, -2.0]))  # the negative class caps at 1


def test_choose_ratio_prefers_low_type1_then_whole_error_then_small_ratio():
    rows = [(5.0, 0.02, 0.01, 0.03), (10.0, 0.01, 0.05, 0.06),
            (15.0, 0.01, 0.03, 0.04), (20.0, 0.01, 0.03, 0.04)]
    assert choose_ratio(rows) == 15.0
