"""Logistic regression and inversion of its probability surface.

The model gives p(explosion | x) = sigmoid(beta' (1, x)).  Because the
feature set contains both HC and the O2/HC ratio, the linear score at a
fixed oxygen level is affine in HC and 1/HC, so the p = 0.5 level set can
carve out a bounded HC interval: the explosive concentration range at that
oxygen level.  ``explosion_interval`` recovers it by grid scan plus
bisection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import (
    Dataset,
    GasSample,
    NormalizationParams,
    apply_normalization,
    featurize,
)
from .errors import IntervalSolverError, PerfectSeparationError, SingleClassError

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
    """Coefficients (intercept first) over the normalized feature vector."""

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

    def log_likelihood(self, X, labels) -> float:
        return penalized_log_likelihood(self.beta, X, labels, self.ridge)

    def gradient(self, X, labels) -> np.ndarray:
        return penalized_gradient(self.beta, X, labels, self.ridge)


class _Design:
    """The design matrix (1, x) of a feature matrix, built once so that the
    likelihood evaluations of one fit share it.

    It keeps the last evaluation's beta, g = D beta and exp(-|g|), so the fit
    takes an accepted iterate's probabilities without a second product and
    exp.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.last: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def probabilities(self, beta: np.ndarray) -> np.ndarray:
        """sigmoid(D beta), bit for bit; reused if the last evaluation was at beta."""
        if self.last is not None and self.last[0] is beta:
            _, g, e = self.last
        else:
            g = self.matrix @ beta
            e = _exp_neg_abs(g)
        return _sigmoid_from(g, e)


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
        X.last = (beta, g, e)
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
    separation rather than a meaningful fit.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise ValueError("features and labels disagree on sample count")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise ValueError("labels must be encoded as 0 / 1")
    if (y == 1).all() or (y == 0).all():
        raise SingleClassError("training data contains a single class")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    design = _Design(_design(X))
    D = design.matrix
    n, p = D.shape
    DT = np.ascontiguousarray(D.T)
    weighted = np.empty_like(D)
    beta = np.zeros(p)
    mask = np.ones(p)
    mask[0] = 0.0  # intercept is never penalized
    ll = penalized_log_likelihood(beta, design, y, ridge)
    converged = False
    warned = False

    for _ in range(max_iter):
        probs = design.probabilities(beta)
        grad = D.T @ (y - probs)
        grad -= ridge * mask * beta
        if np.linalg.norm(grad) <= tol * n:
            converged = True
            break
        w = probs * (1.0 - probs)
        hessian = _weighted_gram(D, DT, w, weighted) + np.diag(ridge * mask)
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
        if np.linalg.norm(beta) > SEPARATION_NORM:
            if ridge == 0:
                raise PerfectSeparationError(
                    "coefficients are diverging (classes look separable); "
                    "refit with ridge > 0"
                )
            if not warned:
                warnings.warn(
                    f"separation suspected: |beta| exceeds {SEPARATION_NORM:g}",
                    stacklevel=2,
                )
                warned = True

    return LogisticModel(
        beta=beta, normalization=normalization, ridge=ridge, converged=converged
    )


def _weighted_gram(D, DT, w, out) -> np.ndarray:
    """D' diag(w) D, bit for bit ``D.T @ (D * w[:, None])``.

    The products D[i, j] * w[i] go into ``out``, a C-ordered array shaped
    like D, through its transpose from ``DT``, a contiguous copy of D.T: the
    same products in the same layout, without NumPy's buffered broadcast
    over rows a few columns wide.
    """
    np.multiply(DT, w, out=out.T)
    return D.T @ out


@dataclass(frozen=True)
class ExplosionInterval:
    """Explosive HC range at one oxygen level; absent when p never reaches 0.5."""

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
    grid_points: int = 2000,
    root_tol: float = 1e-6,
) -> ExplosionInterval:
    """Explosive HC interval at fixed oxygen: the {p >= 0.5} slice.

    Scans ``grid_points`` HC values across ``hc_range`` (featurized in one
    call from their raw concentrations through the model's stored
    normalization), brackets the sign changes of p - 0.5 and polishes both
    endpoints by bisection, one point at a time, until |p - 0.5| <= root_tol.
    Exactly one explosive region must lie strictly inside the range; several
    regions, or a region touching the range edge, raise
    ``IntervalSolverError``.
    """
    if model.normalization is None:
        raise ValueError("model carries no normalization parameters")
    low, high = float(hc_range[0]), float(hc_range[1])
    if not 0.0 < low < high:
        raise ValueError(f"hc_range must satisfy 0 < low < high, got {hc_range}")
    if grid_points < 100:
        raise ValueError(f"grid_points must be >= 100, got {grid_points}")
    if not root_tol > 0:
        raise ValueError(f"root_tol must be positive, got {root_tol}")
    if o2 < 0 or o2 + high > 100.0:
        raise ValueError(f"o2={o2} with hc up to {high} violates the input contract")

    def prob(hc: float) -> float:
        features = apply_normalization(
            model.normalization, GasSample(hc, o2, 0.0, 0.0, False)
        )
        return float(model.predict_proba(features))

    hcs = np.linspace(low, high, grid_points)
    zeros = np.zeros(grid_points)
    grid = Dataset.from_columns(hcs, np.full(grid_points, o2), zeros, zeros, zeros)
    probs = model.predict_proba(featurize(model.normalization, grid))
    if not np.isfinite(probs).all():
        raise IntervalSolverError(f"non-finite probability on the grid at o2={o2}")

    above = probs > 0.5
    if not above.any():
        return ExplosionInterval(o2, float("nan"), float("nan"), present=False)
    if above[0] or above[-1]:
        raise IntervalSolverError(
            f"explosive region at o2={o2} touches the hc_range edge; "
            "widen hc_range"
        )
    edges = np.diff(above.astype(int))
    rises = np.flatnonzero(edges == 1)
    falls = np.flatnonzero(edges == -1)
    if len(rises) > 1:
        pairs = [
            (round(float(hcs[r]), 6), round(float(hcs[f + 1]), 6))
            for r, f in zip(rises, falls)
        ]
        raise IntervalSolverError(
            f"{len(rises)} disjoint explosive regions at o2={o2}: {pairs}"
        )

    lower = _bisect_half_crossing(prob, hcs[rises[0]], hcs[rises[0] + 1], root_tol)
    upper = _bisect_half_crossing(prob, hcs[falls[0]], hcs[falls[0] + 1], root_tol)
    if prob(0.5 * (lower + upper)) <= 0.5:
        raise IntervalSolverError(
            f"interval interior at o2={o2} fell back below p = 0.5"
        )
    return ExplosionInterval(o2, lower, upper, present=True)


def _bisect_half_crossing(prob, a: float, b: float, root_tol: float) -> float:
    """Bisect [a, b] (with p - 0.5 changing sign) down to |p - 0.5| <= root_tol."""
    fa = prob(a) - 0.5
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = prob(mid) - 0.5
        if abs(fm) <= root_tol or (b - a) <= 1e-14 * max(1.0, abs(mid)):
            return float(mid)
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    return float(0.5 * (a + b))


def intervals_csv(intervals) -> str:
    """Render intervals as CSV rows ``o2,lower,upper,present``."""
    lines = ["o2,lower,upper,present"]
    for iv in intervals:
        if iv.present:
            lines.append(f"{iv.o2!r},{iv.lower!r},{iv.upper!r},1")
        else:
            lines.append(f"{iv.o2!r},,,0")
    return "\n".join(lines) + "\n"
