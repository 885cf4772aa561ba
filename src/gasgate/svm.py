"""Soft-margin kernel SVM with independent per-class penalties.

The dual problem

    max  sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)
    s.t. 0 <= alpha_i <= C_i,   sum_i alpha_i y_i = 0

is solved by sequential minimal optimization (Platt 1998), whose state and
steps live on one object, ``_Smo``.  Each update picks i as the maximal
violator (Keerthi et al. 2001) and j by second-order working-set selection,
the partner with the largest guaranteed objective gain (Fan, Chen & Lin
2005, JMLR 6).  The sigmoid kernel's Gram is indefinite, so its dual is
nonconvex; there j stays the first-order maximal violating partner.  The
box cap C_i depends on the sample's class: violations by explosion-labeled
samples cost ``penalties.positive``, the rest ``penalties.negative``, which
is how the asymmetric slack costs of cost-sensitive training enter the dual.

Pair updates alone crawl once only the free multipliers (0 < alpha < C) are
still moving: each update settles two of them and disturbs the rest.  So,
for every kernel but sigmoid, every ``_NEWTON_EVERY`` updates SMO maximizes
the dual exactly over the free multipliers, holding the others fixed, by
active-set Newton steps on that equality-constrained subproblem (the
active-set idea of Scheinberg 2006, JMLR 7; the larger working set of
Joachims 1999).  The stopping test still scans every sample, so each fit
ends at the same KKT tolerance.

No n x n Gram matrix is ever formed: SMO reads kernel rows from a
``KernelRows`` cache (Chang & Lin 2011, LIBSVM section 4) that holds about
twice as many rows as the largest free set, under a byte ceiling, and
scoring works through the rows in blocks of 512 KiB of kernel values, so
memory is O(rows held * n) in training and bounded in prediction.
A fit ends without a pass over all support vectors for every sample: as in
LIBSVM (section 5), the bias is taken from the free multipliers, and only
their gradient is recomputed exactly, by the same blocks as scoring.  Those
blocks (``_kernel_sums``) take every kernel sum the SVM needs.  A fit with no
free multiplier recomputes u once, for every sample, through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NormalizationParams, check_training_set, check_width
from .errors import GasgateError, NonFiniteScoreError
from .kernels import KernelRows, KernelSpec, kernel_matrix, unbuffered_blocks

#: default ceiling of the kernel-row cache a fit builds, in MiB.  Below it the
#: cache holds 2 * (largest free set) + ``_SPARE_ROWS`` rows: a 4000-row RBF
#: fit holds 126 rows (of 524 that 16 MiB allows) and computes 1 463, against
#: 1 396 with all 524 held.  At 20 000 rows 16 MiB holds 104 rows, which caps
#: the cache before the free set does.
DEFAULT_CACHE_MB = 16.0
#: kernel bytes ``_kernel_sums`` holds at once; the block and the equal-sized
#: scratch of ``kernels._evaluate`` then fit together in a 2 MiB L2
_SCORE_BLOCK_BYTES = 512 << 10
#: pair updates between free-set Newton steps in ``fit_svm``
_NEWTON_EVERY = 30
#: the most free multipliers a Newton step takes on
_NEWTON_MAX_FREE = 200
#: rows the kernel-row cache may hold beyond twice the largest free set
_SPARE_ROWS = 64
#: the refusal of a fit whose kernel overflows, by kernel kind
_NON_FINITE_KERNEL = "{} kernel values are not finite on the training features"


@dataclass(frozen=True)
class PenaltyConfig:
    """Slack penalties per class; ``positive`` applies to explosion samples."""

    positive: float = 10.0
    negative: float = 10.0

    def __post_init__(self):
        if not (0 < self.positive < np.inf and 0 < self.negative < np.inf):
            raise ValueError(
                f"penalties must be positive and finite, got {self.positive}, {self.negative}"
            )


@dataclass(frozen=True)
class SvmModel:
    """Fitted classifier: support vectors with dual coefficients and a bias.

    ``dual_coef[k]`` is alpha_k * y_k, so its sign encodes the support
    vector's class.  ``objective_trace``, ``alpha`` (the multipliers of every
    training sample, zeros included; the support vectors are the rows where
    it exceeds 1e-12), ``gradient`` (F = u - y at ``alpha`` for every
    training sample; a refit's ``start`` reads both arrays) and
    ``gradient_drift`` (see ``fit_svm``) are diagnostics, not part of the
    serialized form.  ``support_vectors`` is 2-D and ``dual_coef`` 1-D, the
    kernel's gamma is resolved, and a normalization has one attribute per
    feature column.
    """

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    kernel: KernelSpec
    penalties: PenaltyConfig
    normalization: NormalizationParams | None = None
    converged: bool = True
    objective_trace: np.ndarray | None = None
    alpha: np.ndarray | None = None
    gradient: np.ndarray | None = None
    gradient_drift: float | None = None

    def __post_init__(self):
        sv = np.atleast_2d(np.asarray(self.support_vectors, dtype=float))
        dc = np.asarray(self.dual_coef, dtype=float)
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "dual_coef", dc)
        if sv.ndim != 2 or dc.ndim != 1:
            raise ValueError("support vectors must form a 2-D array and dual "
                             "coefficients a 1-D array")
        if sv.shape[0] == 0:
            raise ValueError("a model needs at least one support vector")
        if sv.shape[0] != dc.shape[0]:
            raise ValueError("support vector and coefficient counts differ")
        # a nan or inf here would score every row the same, e.g. all "safe"
        if not (np.isfinite(sv).all() and np.isfinite(dc).all()
                and np.isfinite(self.bias)):
            raise ValueError("support vectors, dual coefficients and bias must be finite")
        alpha = np.abs(dc)
        caps = np.where(dc > 0, self.penalties.positive, self.penalties.negative)
        if (alpha <= 0).any() or (alpha > caps * (1 + 1e-9)).any():
            raise ValueError("dual coefficients violate the box constraints")
        if self.kernel.uses_gamma and self.kernel.gamma is None:
            raise ValueError(f"{self.kernel.kind} kernel has no gamma")
        check_width(self.normalization, self.n_features)

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]

    def decision_values(self, X) -> np.ndarray:
        """sum_k dual_coef[k] * K(sv_k, x) + bias for each row of X.

        Rows are scored in blocks of 512 KiB of kernel values
        (``_kernel_sums``), so memory does not grow with the row count and a
        row's score does not depend on the rows scored with it.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        (scores,) = _kernel_sums(self.kernel, X, self.support_vectors, self.dual_coef)
        scores += self.bias
        # a nan score would label its row safe
        bad = ~np.isfinite(scores)
        if bad.any():
            raise NonFiniteScoreError(int(bad.argmax()), self.kernel.kind)
        return scores

    def decision_value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("decision_value expects a single feature vector")
        return float(self.decision_values(x[None, :])[0])

    def predict(self, X) -> np.ndarray:
        """Class labels in {+1, -1}; a decision value of exactly 0 counts as
        +1 (predicting explosion is the safe side of the tie)."""
        return np.where(self.decision_values(X) >= 0, 1, -1)

    def dual_objective(self) -> float:
        """Dual objective at the fitted multipliers."""
        K = kernel_matrix(self.kernel, self.support_vectors)
        return float(
            np.abs(self.dual_coef).sum()
            - 0.5 * self.dual_coef @ K @ self.dual_coef
        )


def fit_svm(
    features: np.ndarray,
    labels: np.ndarray,
    kernel: KernelSpec = KernelSpec(),
    penalties: PenaltyConfig = PenaltyConfig(),
    tol: float = 1e-3,
    max_passes: int = 1000,
    seed: int = 0,
    normalization: NormalizationParams | None = None,
    *,
    cache_mb: float = DEFAULT_CACHE_MB,
    start: SvmModel | None = None,
    cache: KernelRows | None = None,
) -> SvmModel:
    """Train on (features, +/-1 labels) by SMO.

    Runs until the largest KKT violation drops to ``tol`` or the update
    budget of ``max_passes`` nominal sweeps (n pair updates each) runs out,
    in which case the best iterate so far is returned flagged
    ``converged=False``.  The working pair is i = the maximal violator and
    j = the second-order choice of Fan, Chen & Lin (2005), or the maximal
    violating partner for the indefinite sigmoid kernel; a stalled pair
    falls back to the maximal violating pair, then to nearby candidates.
    Exact ties are broken by a jitter drawn from ``seed``, so refits are
    reproducible.  Except for the sigmoid kernel, every ``_NEWTON_EVERY``
    updates, when 2 to ``_NEWTON_MAX_FREE`` multipliers are free, one more
    update maximizes the dual exactly over them (``_free_set_newton``); it
    counts as one update against the budget.  ``objective_trace`` holds the
    dual objective of the starting point and then after each update,
    accumulated from the exact gain of each step.

    SMO keeps the gradient F = u - y up to date by increments.  A fit ends
    with one call of ``_kernel_sums``, which recomputes F exactly from the
    support vectors in blocks of 512 KiB of kernel values and reads no row
    of the cache.  When some multiplier is free, it covers the free ones
    alone, so a fit ends without a pass over all support vectors for every
    sample, and the bias is -mean(F) over them.  When none is free, it
    covers every sample once, and the bias is the midpoint of the band the
    KKT conditions leave open.  The model's ``gradient`` is F with the
    recomputed samples at those exact values.  ``gradient_drift`` records
    the largest |F incremental - F| over the same samples, with F summed in
    extended precision by the same call (``_gradient_drift``), so that it
    measures SMO's increments and not the rounding of the float64 sums the
    bias is taken from.

    SMO reads the Gram matrix only row by row, through a ``KernelRows``
    cache that computes each row when first read and evicts the least
    recently read once it holds its fill limit.  ``cache_mb`` MiB is a
    ceiling, not a fill target: the rows SMO reads again are mostly those of
    the free multipliers, so every ``_NEWTON_EVERY`` updates the fit counts
    the free set (the set a Newton step takes on) and lets the cache hold
    2 * (largest free set so far) + ``_SPARE_ROWS`` rows
    (``KernelRows.reserve``), as far as ``cache_mb`` allows; it starts at
    64.  Memory is O(rows held * n), not O(n^2).  Fewer rows held only
    recompute evicted rows: the fit is the same, bit for bit.  A Newton
    step also holds a transient copy of the rows of up to
    ``_NEWTON_MAX_FREE`` free multipliers.  ``cache`` passes in a cache
    built on these same ``features`` and the resolved ``kernel``, so refits
    on the same rows reuse the rows already computed and the fill limit it
    has reached; ``cache_mb`` then goes unused.

    ``start``, a model fitted on these same rows, starts SMO from its
    ``alpha`` and ``gradient`` instead of alpha = 0: ``start.alpha``
    satisfies 0 <= alpha <= C (within 1e-12 C) and |sum alpha y| <= 1e-9
    sum C, and ``start.gradient`` is F = u - y there.  A previous fit
    qualifies when only the caps have grown, as along a rising penalty
    ratio; the start then reads no kernel row.  A loaded model (no arrays),
    malformed values, or a nan or inf feature raise ``ValueError``.
    """
    X = np.ascontiguousarray(np.atleast_2d(features), dtype=float)
    y = np.asarray(labels, dtype=float)
    check_training_set(X, y, ("+1", "-1"), tol)
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")

    spec = kernel.resolved(X.shape[1])
    if cache is None:
        cache = KernelRows(spec, X, cache_mb * 2**20)
    elif cache.spec != spec or cache.X.shape != X.shape or not np.array_equal(cache.X, X):
        raise ValueError("cache was built on other features or another kernel")
    # nan and inf kernel values would stall SMO and yield a nan bias
    if not np.isfinite(cache.diagonal).all():
        raise GasgateError(_NON_FINITE_KERNEL.format(spec.kind))
    caps = np.where(y > 0, penalties.positive, penalties.negative)
    smo = _Smo(cache, y, caps, seed, start)
    # no overflow warning: a kernel row that overflows is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        # The sigmoid Gram is indefinite, so its dual is nonconvex; second-order
        # selection would steer it to a different local optimum.
        converged = smo.run(max_passes * len(y), tol, second_order=spec.kind != "sigmoid")
    alpha, F, trace = smo.alpha, smo.F, smo.trace
    del smo  # its working arrays go before the recompute, where a fit's memory peaks

    keep = alpha > 1e-12
    if not keep.any():
        raise GasgateError(
            "optimizer made no progress; no support vectors found"
        )
    coef = alpha * y
    free = _free(alpha, caps)
    # the bias reads F on the free set alone, so only there is it recomputed
    # exactly, from the support vectors; with none free, the band reads all
    exact = free if free.any() else np.ones(len(y), dtype=bool)
    sv_coef = coef[keep]
    u, reference = _kernel_sums(spec, X[exact], X[keep], sv_coef,
                                sv_coef.astype(np.longdouble))
    if not (np.isfinite(u).all() and np.isfinite(F).all()):  # overflow off the diagonal
        raise GasgateError(_NON_FINITE_KERNEL.format(spec.kind))
    drift = _gradient_drift(F[exact], reference, y[exact])
    F[exact] = u - y[exact]
    if free.any():
        bias = float(-F[free].mean())
    else:
        bias = _band_bias(F, *_index_sets(alpha, y, caps))
    return SvmModel(
        support_vectors=X[keep],
        dual_coef=coef[keep],
        bias=bias,
        kernel=spec,
        penalties=penalties,
        normalization=normalization,
        converged=converged,
        objective_trace=np.array(trace),
        alpha=alpha,
        gradient=F,
        gradient_drift=drift,
    )


def stays_optimal(model: SvmModel, labels, penalties: PenaltyConfig, tol: float = 1e-3) -> bool:
    """Whether ``model`` still solves its training rows at ``penalties``:
    ``fit_svm(start=model)`` there would make no update and return the same
    support vectors, dual coefficients and bias.

    True when ``model.alpha`` passes the warm start's checks unchanged
    under the smaller of each sample's two caps (in the box: SMO's rounding
    can leave a multiplier an ulp outside it, which a warm start clips; and
    balanced, sum alpha y = 0 to the start's slack), has the same up and
    low index sets and the same free set at ``penalties`` as at
    ``model.penalties``, and either index set is empty or max F[low] -
    min F[up] <= ``tol`` over ``model.gradient`` F.  That is the first
    stopping test of SMO started from the model (the jitter only picks the
    pair, whose F gap is at most that max - min), and the same free set
    gives the same exact gradient and bias.  Every penalty between the two
    gets the same answer: its caps are at least the smaller ones, and
    index and free-set membership are monotone in the cap.  Along a rising
    ratio that is where the SVM path is constant (Hastie et al. 2004).  A
    loaded model (no arrays) raises ``ValueError``.
    """
    if model.alpha is None or model.gradient is None:
        raise ValueError("model has no alpha or gradient: a loaded model has no path")
    y = np.asarray(labels, dtype=float)
    alpha, F = model.alpha, model.gradient
    caps = np.where(y > 0, penalties.positive, penalties.negative)
    old = np.where(y > 0, model.penalties.positive, model.penalties.negative)
    up, low = _index_sets(alpha, y, caps)
    old_up, old_low = _index_sets(alpha, y, old)
    least = np.minimum(caps, old)
    if not ((alpha >= 0).all() and (alpha <= least).all()
            and abs(alpha @ y) <= 1e-9 * least.sum()
            and np.array_equal(up, old_up) and np.array_equal(low, old_low)
            and np.array_equal(_free(alpha, caps), _free(alpha, old))):
        return False
    return not (up.any() and low.any()) or F[low].max() - F[up].min() <= tol


def _start(start: SvmModel | None, y, caps) -> tuple[np.ndarray, np.ndarray, float]:
    """SMO's start (alpha, F, dual objective): zeros, or the checked warm start."""
    if start is None:
        return np.zeros(len(y)), -y, 0.0  # F = u - y, with u the decision values without bias
    if start.alpha is None or start.gradient is None:
        raise ValueError("start has no alpha or gradient: a loaded model cannot warm-start")
    alpha = np.array(start.alpha, dtype=float)
    if alpha.shape != y.shape:
        raise ValueError(f"start.alpha must have shape {y.shape}, got {alpha.shape}")
    slack = 1e-12 * caps
    if not ((alpha >= -slack) & (alpha <= caps + slack)).all():
        raise ValueError("start.alpha violates 0 <= alpha <= C")
    if not abs(alpha @ y) <= 1e-9 * caps.sum():
        raise ValueError(f"start.alpha violates sum(alpha * y) = 0 (got {alpha @ y:.3g})")
    np.clip(alpha, 0.0, caps, out=alpha)
    F = np.array(start.gradient, dtype=float)
    if F.shape != y.shape:
        raise ValueError(f"start.gradient must have shape {y.shape}, got {F.shape}")
    if not np.isfinite(F).all():
        raise ValueError("start.gradient must be finite")
    return alpha, F, float(alpha.sum() - 0.5 * (alpha * y) @ (F + y))


class _Smo:
    """SMO's state and steps on one problem, as LIBSVM's ``Solver`` (Chang & Lin 2011)."""

    def __init__(self, cache: KernelRows, y, caps, seed: int, start: SvmModel | None):
        self.cache, self.y, self.caps = cache, y, caps
        # Deterministic tie-breaking: a tiny per-sample jitter perturbs the
        # selection order among exactly-tied violators, nothing else.
        self.jitter = np.random.default_rng(seed).uniform(0.0, 1e-12, size=len(y))
        self.alpha, self.F, objective = _start(start, y, caps)
        self.trace = [objective]  # the dual objective at the start and after each update
        self.updates = 0
        self.g_low, self.g_up = self.mask()
        self.delta = np.empty_like(y)
        self.scratch = np.empty_like(y)

    def mask(self):
        """F + jitter restricted to the low / up index sets; non-members are
        pinned at -inf / +inf, which adding a finite step leaves in place."""
        up, low = _index_sets(self.alpha, self.y, self.caps)
        F, jitter = self.F, self.jitter
        return np.where(low, F + jitter, -np.inf), np.where(up, F + jitter, np.inf)

    def second_order_j(self, i: int) -> int:
        """argmax over violating t in up of (g_i - g_t)^2 / eta(i, t)."""
        delta, scratch, diag = self.delta, self.scratch, self.cache.diagonal
        np.subtract(self.g_low[i], self.g_up, out=delta)
        np.maximum(delta, 0.0, out=delta)
        delta *= delta
        np.multiply(self.cache.row(i), -2.0, out=scratch)
        scratch += diag
        scratch += diag[i]
        np.maximum(scratch, 1e-12, out=scratch)
        delta /= scratch
        return int(delta.argmax())

    def take_step(self, i: int, j: int) -> float | None:
        """Jointly optimize (alpha_i, alpha_j); returns the objective gain,
        or None on no progress."""
        if i == j:
            return None
        y, alpha, caps, F = self.y, self.alpha, self.caps, self.F
        yi, yj = y[i], y[j]
        ai, aj = alpha[i], alpha[j]
        if yi != yj:
            lo, hi = max(0.0, aj - ai), min(caps[j], caps[i] + aj - ai)
        else:
            lo, hi = max(0.0, ai + aj - caps[i]), min(caps[j], ai + aj)
        if hi - lo < 1e-14:
            return None
        row, diag = self.cache.row, self.cache.diagonal
        Ki, Kj = row(i), row(j)
        eta = diag[i] + diag[j] - 2.0 * Ki[j]
        if not math.isfinite(eta):  # no sound step exists; blame the kernel, not SMO
            raise GasgateError(_NON_FINITE_KERNEL.format(self.cache.spec.kind))
        Fi, Fj = F[i], F[j]
        if eta > 1e-12:
            aj_new = min(max(aj + yj * (Fi - Fj) / eta, lo), hi)
        else:
            # Non-positive curvature (possible for indefinite kernels):
            # the restricted objective is linear or concave-up along the
            # constraint line, so the best point is an endpoint.
            gain_lo = _pair_gain(lo - aj, yj, Fi, Fj, eta)
            gain_hi = _pair_gain(hi - aj, yj, Fi, Fj, eta)
            if max(gain_lo, gain_hi) <= 1e-15:
                return None
            aj_new = lo if gain_lo >= gain_hi else hi
        if abs(aj_new - aj) < 1e-13 * (aj_new + aj + 1e-13):
            return None
        ai_new = ai + yi * yj * (aj - aj_new)
        alpha[i], alpha[j] = ai_new, aj_new
        delta, scratch, g_low, g_up = self.delta, self.scratch, self.g_low, self.g_up
        np.multiply(Ki, (ai_new - ai) * yi, out=delta)
        np.multiply(Kj, (aj_new - aj) * yj, out=scratch)
        delta += scratch
        F += delta
        g_low += delta
        g_up += delta
        for k in (i, j):
            in_up, in_low = _index_sets(alpha[k], y[k], caps[k])
            g_low[k] = F[k] + self.jitter[k] if in_low else -np.inf
            g_up[k] = F[k] + self.jitter[k] if in_up else np.inf
        return _pair_gain(aj_new - aj, yj, Fi, Fj, eta)

    def newton_step(self, W: np.ndarray) -> None:
        """Maximize the dual exactly over the free multipliers ``W``, holding
        the rest fixed; a step that gains is recorded as one update."""
        if not 2 <= len(W) <= _NEWTON_MAX_FREE:
            return
        # a row view lasts only until limit - 1 more reads, so copy each
        K_W = np.empty((len(W), len(self.y)))
        for k, w in enumerate(W):
            K_W[k] = self.cache.row(w)
        y_W = self.y[W]
        Q = np.outer(y_W, y_W) * K_W[:, W]
        a_W, gain = _free_set_newton(Q, -y_W * self.F[W], y_W, self.alpha[W], self.caps[W])
        if not gain > 0:
            return
        d_W = a_W - self.alpha[W]
        self.alpha[W] = a_W
        self.F += (d_W * y_W) @ K_W
        self.g_low, self.g_up = self.mask()
        self.record(gain)

    def stall_walk(self, tol: float) -> float | None:
        """The gain of the first pair that makes progress among the 16 most
        violating candidates of each index set, or None if none does."""
        g_low, g_up, F = self.g_low, self.g_up, self.F
        low_order = np.argsort(-g_low)[:16]
        up_order = np.argsort(g_up)[:16]
        for i in (int(k) for k in low_order if g_low[k] > -np.inf):
            for j in (int(k) for k in up_order if g_up[k] < np.inf):
                if F[i] - F[j] <= tol:
                    break
                gain = self.take_step(i, j)
                if gain is not None:
                    return gain
        return None

    def record(self, gain: float) -> None:
        """Count one update and add its gain to the objective in the trace."""
        self.updates += 1
        self.trace.append(self.trace[-1] + gain)

    def run(self, max_updates: int, tol: float, second_order: bool) -> bool:
        """Update until the largest KKT violation is at most ``tol`` (True), or
        until ``max_updates`` are spent or no pair makes progress (False)."""
        while self.updates < max_updates:
            i = int(self.g_low.argmax())
            j_min = int(self.g_up.argmin())
            if self.g_low[i] == -np.inf or self.g_up[j_min] == np.inf:
                return True  # one index set is empty
            if self.F[i] - self.F[j_min] <= tol:
                return True
            j = self.second_order_j(i) if second_order else j_min
            gain = self.take_step(i, j)
            if gain is None and j != j_min:
                gain = self.take_step(i, j_min)
            if gain is None:
                # Stalled pair: walk the next-most-violating candidates.
                gain = self.stall_walk(tol)
                if gain is None:
                    return False
            self.record(gain)
            if self.updates % _NEWTON_EVERY == 0:
                # the rows SMO reads again are mostly the free multipliers'
                W = np.flatnonzero(_free(self.alpha, self.caps))
                self.cache.reserve(2 * len(W) + _SPARE_ROWS)
                if second_order and self.updates < max_updates:
                    self.newton_step(W)
        return False


def _pair_gain(dj, yj, Fi, Fj, eta):
    """Dual-objective change when alpha_j moves by dj along the constraint,
    given the pair's gradients F = u - y and curvature eta = K_ii + K_jj - 2 K_ij."""
    return yj * dj * (Fi - Fj) - 0.5 * eta * dj * dj


def _index_sets(alpha, y, caps):
    """Membership of the up and low index sets (Keerthi et al. 2001): the
    samples whose alpha may move so as to raise, respectively lower, y * alpha.
    Works elementwise on arrays and on single samples alike."""
    below_cap = alpha < caps - 1e-12
    above_zero = alpha > 1e-12
    up = ((y > 0) & below_cap) | ((y < 0) & above_zero)
    low = ((y > 0) & above_zero) | ((y < 0) & below_cap)
    return up, low


def _free(alpha, caps):
    """The multipliers strictly inside their box, by a margin of 1e-9 C."""
    return (alpha > 1e-9 * caps) & (alpha < caps * (1 - 1e-9))


def _free_set_newton(Q, g, y, a, caps):
    """Maximize g'd - d'Qd/2 subject to y'd = 0 and 0 <= a + d <= caps.

    Active-set Newton steps: solve the equality-constrained problem on the
    set S of multipliers still free, move towards its solution as far as the
    box allows, fix the multipliers that reach a bound there and repeat with
    the rest.  Returns the new multipliers and the exact objective gain.
    """
    m = len(a)
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = Q
    kkt[:m, m] = kkt[m, :m] = y
    a = a.copy()
    rows = np.arange(m + 1)  # S, then the border index m
    rhs = np.append(g, 0.0)  # g on S, then 0 for y'd = 0
    total = 0.0
    while len(rows) > 2:
        try:
            d = np.linalg.solve(kkt[rows[:, None], rows], rhs)[:-1]
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(d).all():
            break
        S, g_S = rows[:-1], rhs[:-1]
        a_S, caps_S = a[S], caps[S]
        bound = np.where(d > 0, caps_S, 0.0)
        reach = np.divide(bound - a_S, d, out=np.full(len(S), np.inf), where=d != 0)
        t = min(1.0, reach.min())
        hit = reach <= t
        new = np.minimum(np.maximum(a_S + t * d, 0.0), caps_S)
        new[hit] = bound[hit]
        step = new - a_S
        Q_step = (Q[:, S] @ step)[S]
        gain = g_S @ step - 0.5 * step @ Q_step
        if not gain > 0:
            break
        a[S] = new
        total += gain
        if t == 1.0:
            break
        g_S -= Q_step
        keep = np.append(~hit, True)
        rows, rhs = rows[keep], rhs[keep]
    return a, total


def _kernel_sums(spec: KernelSpec, X, support_vectors, *coefs) -> list[np.ndarray]:
    """sum_k coef[k] * K(x, sv_k) for each row x of X, one array per coefficient
    vector in ``coefs``, summed and returned in that vector's dtype.

    Rows are taken in blocks whose kernel takes 512 KiB, so memory does not
    grow with the row count and the block stays in a 2 MiB L2 cache while it
    is built; a row's sum does not depend on the rows summed with it.  The
    ufunc buffer is set once for all the blocks (``kernels.unbuffered_blocks``).
    """
    n_sv = len(support_vectors)
    step = max(1, _SCORE_BLOCK_BYTES // (8 * max(1, n_sv)))
    sums = [np.empty(X.shape[0], dtype=coef.dtype) for coef in coefs]
    # no overflow warning: callers refuse the sums that are not finite
    with unbuffered_blocks(n_sv), np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, X.shape[0], step):
            K = kernel_matrix(spec, X[start:start + step], support_vectors)
            # einsum sums each row alone; BLAS matrix-vector products round
            # a row differently depending on its place in the block
            for out, coef in zip(sums, coefs):
                out[start:start + step] = np.einsum("ij,j->i", K, coef)
    return sums


def _gradient_drift(F, reference, y) -> float:
    """max |F - (reference - y)|: how far SMO's incremental gradient F has
    drifted from u - y, with u = ``reference`` summed in extended precision.

    The float64 sums of ``_kernel_sums`` round by about 1e-14 relative on a
    thousand support vectors, so a reference taken from them would mix their
    rounding into the drift.  Where ``np.longdouble`` is the x87 80-bit
    format (x86-64 Linux) the reference rounds 2 048 times less; where it is
    float64 the drift includes the reference's own rounding again.
    """
    return float(np.abs(F - (reference - y)).max())


def _band_bias(F, up, low) -> float:
    """The midpoint of the feasible bias band [-min F[up], -max F[low]],
    or its one finite edge; the bias when no multiplier is free."""
    if up.any() and low.any():
        return float(-(F[up].min() + F[low].max()) / 2.0)
    if up.any():
        return float(-F[up].min())
    if low.any():
        return float(-F[low].max())
    return 0.0
