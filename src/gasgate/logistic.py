"""Logistic regression and inversion of its probability surface.

The model gives p(explosion | x) = sigmoid(beta' (1, x)).  Because the
feature set contains both HC and the O2/HC ratio, the linear score at a
fixed oxygen level is affine in HC and 1/HC, so the p = 0.5 level set can
carve out a bounded HC interval: the explosive concentration range at that
oxygen level.  With CO = CO2 = 0 the logit there is g(hc) = A + B hc + C / hc,
so ``explosion_interval`` finds the limits in closed form, as the positive
roots of B hc^2 + A hc + C = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import RATIO_HC_OVER_O2, NormalizationParams, check_training_set, check_width
# unused here, but perfbench/layers.py wraps logistic.apply_normalization by name
from .data import apply_normalization  # noqa: F401
from .errors import DataFormatError, IntervalSolverError, PerfectSeparationError

SEPARATION_NORM = 1e3


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=float)
    return _sigmoid_from(z, _exp_neg_abs(z))


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """exp(-|z|), which never overflows; minimum, unlike -abs, keeps the sign
    of a nan."""
    return np.exp(np.minimum(z, -z))


def _sigmoid_from(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(z) given e = exp(-|z|): 1 / (1 + e) where z >= 0, else
    e / (1 + e), with one division."""
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class LogisticModel:
    """Coefficients (intercept first) over the normalized feature vector,
    one per attribute of ``normalization``."""

    beta: np.ndarray
    normalization: NormalizationParams | None = None
    ridge: float = 0.0
    converged: bool = True

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if beta.ndim != 1 or beta.shape[0] < 2:
            raise ValueError("beta must be (intercept, coefficients...)")
        if not np.isfinite(beta).all():
            raise ValueError("beta must be finite")
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")
        check_width(self.normalization, self.n_features)

    @property
    def n_features(self) -> int:
        return self.beta.shape[0] - 1

    def scores(self, X) -> np.ndarray:
        """Linear score g(x) = beta' (1, x) per row."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        g = self.beta[0] + X @ self.beta[1:]
        return float(g[0]) if single else g

    def predict_proba(self, X):
        """Explosion probability; scalar for a single feature vector."""
        g = self.scores(X)
        p = sigmoid(g)
        return float(p) if np.isscalar(g) else p

    def predict(self, X):
        """1 iff p >= 0.5 (the tie counts as explosion)."""
        g = self.scores(X)
        p = np.atleast_1d(sigmoid(g))
        out = np.where(p >= 0.5, 1, 0)
        return int(out[0]) if np.isscalar(g) else out


class _Design:
    """The design matrix (1, x) of a feature matrix, built once so that the
    likelihood evaluations of one fit share it.

    It keeps the last evaluation's g = D beta and exp(-|g|): ``fit_logistic``
    asks for probabilities only at the point it evaluated last (the start or
    the candidate it just accepted), so it needs no second product and exp.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.last: tuple[np.ndarray, np.ndarray] | None = None

    def probabilities(self) -> np.ndarray:
        """sigmoid(D beta) at the last evaluation's beta, bit for bit."""
        return _sigmoid_from(*self.last)


def _design(X) -> np.ndarray:
    """The design matrix (1, x) of feature matrix X; a ``_Design`` is taken as built."""
    if isinstance(X, _Design):
        return X.matrix
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([np.ones((X.shape[0], 1)), X])


def penalized_log_likelihood(beta, X, labels, ridge: float) -> float:
    """sum_i [y_i g_i - log(1 + e^{g_i})] - ridge/2 * ||beta[1:]||^2.

    X is the feature matrix, or inside ``fit_logistic`` its design matrix.
    log(1 + e^g) is taken as max(g, 0) + log1p(e^-|g|), the decomposition
    ``np.logaddexp`` uses, but with NumPy's vectorized exp.
    """
    beta = np.asarray(beta, dtype=float)
    y = np.asarray(labels, dtype=float)
    g = _design(X) @ beta
    e = _exp_neg_abs(g)
    if isinstance(X, _Design):
        X.last = (g, e)
    softplus = np.maximum(g, 0.0) + np.log1p(e)
    return float(y @ g - softplus.sum() - 0.5 * ridge * beta[1:] @ beta[1:])


def penalized_gradient(beta, X, labels, ridge: float) -> np.ndarray:
    """Exact gradient of the penalized log-likelihood in beta."""
    beta = np.asarray(beta, dtype=float)
    y = np.asarray(labels, dtype=float)
    D = _design(X)
    p = sigmoid(D @ beta)
    grad = D.T @ (y - p)
    grad[1:] -= ridge * beta[1:]
    return grad


def fit_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    ridge: float = 1e-6,
    tol: float = 1e-8,
    max_iter: int = 200,
    normalization: NormalizationParams | None = None,
    start: LogisticModel | None = None,
) -> LogisticModel:
    """Maximize the ridge-penalized log-likelihood by damped Newton steps.

    Each iteration solves the regularized normal equations and halves the
    step until the objective improves; if the Hessian solve fails the step
    falls back to plain gradient ascent.  Converges when the gradient per
    row, ||gradient|| / n, is at most ``tol``: the log-likelihood is a sum
    over n rows, so its float64 rounding grows with n and an absolute bound
    is out of reach on large corpora.  A line search that finds no
    improving step before that, or hitting ``max_iter``, returns the best
    iterate flagged ``converged=False``.  Coefficients passing norm 1e3
    raise (ridge == 0) or warn (ridge > 0), since that scale signals class
    separation rather than a meaningful fit; a nan or inf feature raises ``ValueError``.

    Newton starts from the coefficients of ``start``, a model over the
    same features, or from zeros without it.  The objective is concave, so
    a start changes where Newton begins, not what it maximizes; one near
    the optimum, such as a fit on overlapping rows, saves steps.  The
    stopping test is a cold start's, so a start that already passes it is
    returned unchanged, and a start past norm 1e3 raises or warns as a
    cold fit's iterates would on their way there.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float)
    check_training_set(X, y, ("0", "1"), tol)
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")

    design = _Design(_design(X))
    D = design.matrix
    n, p = D.shape
    beta = np.zeros(p) if start is None else np.array(start.beta, dtype=float)
    if beta.shape != (p,):
        raise ValueError(f"start.beta must have shape {(p,)}, got {beta.shape}")
    mask = np.ones(p)
    mask[0] = 0.0  # intercept is never penalized
    ll = penalized_log_likelihood(beta, design, y, ridge)
    converged = False
    warned = _check_separation(beta, ridge, warned=False)

    for _ in range(max_iter):
        probs = design.probabilities()  # last evaluated at beta
        grad = D.T @ (y - probs)
        grad -= ridge * mask * beta
        if np.linalg.norm(grad) <= tol * n:
            converged = True
            break
        w = probs * (1.0 - probs)
        hessian = D.T @ (D * w[:, None]) + np.diag(ridge * mask)
        try:
            step = np.linalg.solve(hessian, grad)
            if not np.isfinite(step).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = grad / max(1.0, np.linalg.norm(grad))
        t = 1.0
        improved = False
        for _ in range(60):
            candidate = beta + t * step
            if np.array_equal(candidate, beta):
                break  # the step has rounded away; smaller ones would too
            candidate_ll = penalized_log_likelihood(candidate, design, y, ridge)
            if candidate_ll > ll:
                beta, ll = candidate, candidate_ll
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        warned = _check_separation(beta, ridge, warned)

    return LogisticModel(
        beta=beta, normalization=normalization, ridge=ridge, converged=converged
    )


def _check_separation(beta, ridge: float, warned: bool) -> bool:
    """Raise (ridge == 0) or warn once (ridge > 0) if ``beta`` is past
    ``SEPARATION_NORM``; returns whether the fit has now warned."""
    if np.linalg.norm(beta) <= SEPARATION_NORM:
        return warned
    if ridge == 0:
        raise PerfectSeparationError(
            "coefficients are diverging (classes look separable); "
            "refit with ridge > 0"
        )
    if not warned:
        warnings.warn(
            f"separation suspected: |beta| exceeds {SEPARATION_NORM:g}",
            stacklevel=3,
        )
    return True


@dataclass(frozen=True)
class ExplosionInterval:
    """Explosive HC range at one oxygen level; absent when p never exceeds 0.5."""

    o2: float
    lower: float
    upper: float
    present: bool

    def __post_init__(self):
        if self.present and not self.lower < self.upper:
            raise ValueError("present interval requires lower < upper")

    @property
    def width(self) -> float:
        return self.upper - self.lower if self.present else 0.0


def explosion_interval(
    model: LogisticModel,
    o2: float,
    hc_range: tuple[float, float] = (0.1, 5.0),
) -> ExplosionInterval:
    """Explosive HC interval at fixed oxygen: the {p > 0.5} slice, in closed form.

    For hc > 0 the logit g = A + B hc + C / hc has the sign of
    B hc^2 + A hc + C, whose roots inside ``hc_range`` cut it into pieces; a
    piece is explosive when g > 0 at its midpoint.  None is: the interval
    is absent.  One reaching an end of the range raises
    ``IntervalSolverError``.  Otherwise exactly one piece, strictly inside
    the range, is explosive, since a quadratic has at most two roots.
    """
    if model.normalization is None:
        raise ValueError("model carries no normalization parameters")
    low, high = float(hc_range[0]), float(hc_range[1])
    if not 0.0 < low < high:
        raise ValueError(f"hc_range must satisfy 0 < low < high, got {hc_range}")
    if not (o2 >= 0.0 and o2 + high <= 100.0):
        raise ValueError(f"o2={o2} with hc up to {high} violates the input contract")

    a, b, c = _logit_coefficients(model, o2)
    if not all(math.isfinite(v) for v in (a, b, c)):
        raise IntervalSolverError(f"non-finite logit coefficients at o2={o2}")
    cuts = [low, *sorted({r for r in _quadratic_roots(a, b, c) if low < r < high}), high]
    explosive = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        if a + b * mid + c / mid > 0.0:
            explosive.append((lo, hi))
    if not explosive:
        return ExplosionInterval(o2, float("nan"), float("nan"), present=False)
    if explosive[0][0] == low or explosive[-1][1] == high:
        raise IntervalSolverError(
            f"explosive region at o2={o2} touches the hc_range edge; "
            "widen hc_range"
        )
    (lower, upper), = explosive
    return ExplosionInterval(o2, lower, upper, present=True)


def _logit_coefficients(model: LogisticModel, o2: float) -> tuple[float, float, float]:
    """(A, B, C) of the logit A + B hc + C / hc at ``o2`` with CO = CO2 = 0.

    There each attribute's raw value is ra + rb hc + rc / hc, which the
    min-max map sends to ((2 ra - hi - lo) + 2 rb hc + 2 rc / hc) / (hi - lo),
    or to 0 for a constant attribute, as ``transform`` does.
    """
    params = model.normalization
    forms = {"hc": (0.0, 1.0, 0.0), "o2": (o2, 0.0, 0.0), "co": (0.0, 0.0, 0.0),
             "co2": (0.0, 0.0, 0.0), "ratio": (0.0, 0.0, o2)}
    if "ratio" in params.attributes and params.feature_config.ratio == RATIO_HC_OVER_O2:
        if o2 == 0:
            raise DataFormatError("undefined ratio: o2 is 0")
        forms["ratio"] = (0.0, 1.0 / o2, 0.0)
    beta = model.beta.tolist()
    a, b, c = beta[0], 0.0, 0.0
    for coef, name, lo, hi in zip(beta[1:], params.attributes, params.mins, params.maxs):
        if hi != lo:
            ra, rb, rc = forms[name]
            a += coef * (2.0 * ra - hi - lo) / (hi - lo)
            b += coef * 2.0 * rb / (hi - lo)
            c += coef * 2.0 * rc / (hi - lo)
    return a, b, c


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of b x^2 + a x + c without cancellation: q / b and c / q
    with q = -(a + sign(a) sqrt(a^2 - 4bc)) / 2 (Numerical Recipes, 5.6)."""
    if b == 0.0:
        return [-c / a] if a != 0.0 else []
    disc = a * a - 4.0 * b * c
    if disc < 0.0:
        return []
    q = -0.5 * (a + math.copysign(math.sqrt(disc), a))
    return [q / b, c / q] if q != 0.0 else []  # q == 0: a double root at 0


def intervals_csv(intervals) -> str:
    """Render intervals as CSV rows ``o2,lower,upper,present``."""
    lines = ["o2,lower,upper,present"]
    for iv in intervals:
        if iv.present:
            lines.append(f"{iv.o2!r},{iv.lower!r},{iv.upper!r},1")
        else:
            lines.append(f"{iv.o2!r},,,0")
    return "\n".join(lines) + "\n"
