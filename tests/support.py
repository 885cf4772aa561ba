"""Shared test oracles: independent implementations to check the library against.

Everything here deliberately avoids the library's own code paths: the
brute-force grid and the SLSQP solve are alternative routes to the SVM dual
optimum, the KKT scan re-derives optimality conditions from raw model
output, and the fold deal, the masked sigmoid and the free-set Newton solve
are the straightforward forms the library's versions must match bit for bit.
``traced_peak_mb`` measures what a call allocates, for memory bounds.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from scipy import optimize

from gasgate.kernels import kernel_matrix


def full_alpha(model) -> np.ndarray:
    """A fitted model's multipliers, zero off its support vectors."""
    return np.where(model.alpha > 1e-12, model.alpha, 0.0)


def dual_objective(alpha: np.ndarray, K: np.ndarray, y: np.ndarray) -> float:
    Q = (y[:, None] * y[None, :]) * K
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def brute_force_best(K, y, caps, step_fraction=0.01):
    """Exhaustive grid max of the dual objective.

    Each of the first n-1 coordinates runs over a uniform grid of step
    ``step_fraction`` times its own box cap; the last coordinate is solved
    from the equality constraint and kept only when it lands inside its box.
    Returns (best objective, number of feasible grid points).
    """
    n = len(y)
    steps = int(round(1.0 / step_fraction))
    axes = [np.linspace(0.0, caps[i], steps + 1) for i in range(n - 1)]
    grids = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=0)
    partial = (y[: n - 1, None] * flat).sum(axis=0)
    last = -y[n - 1] * partial
    ok = (last >= -1e-12) & (last <= caps[n - 1] + 1e-12)
    if not ok.any():
        return -np.inf, 0
    alphas = np.vstack([flat[:, ok], np.clip(last[ok], 0.0, caps[n - 1])])
    Q = (y[:, None] * y[None, :]) * K
    values = alphas.sum(axis=0) - 0.5 * np.einsum("im,ij,jm->m", alphas, Q, alphas)
    return float(values.max()), int(alphas.shape[1])


def slsqp_dual(K, y, caps, seed=0) -> float:
    """Reference dual optimum from scipy's SLSQP (multi-start)."""
    rng = np.random.default_rng(seed)
    n = len(y)
    Q = (y[:, None] * y[None, :]) * K

    def neg_obj(a):
        return -(a.sum() - 0.5 * a @ Q @ a)

    def neg_grad(a):
        return -(np.ones(n) - Q @ a)

    constraints = [{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}]
    best = -np.inf
    for trial in range(3):
        a0 = np.zeros(n) if trial == 0 else rng.uniform(0, 0.2, n) * caps
        res = optimize.minimize(
            neg_obj,
            a0,
            jac=neg_grad,
            bounds=[(0.0, c) for c in caps],
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-12},
        )
        if res.success:
            best = max(best, -res.fun)
    return best


def kkt_max_residual(model, X, y) -> float:
    """Largest violation of the optimality conditions over the training set.

    alpha = 0        requires y f(x) >= 1  (residual: 1 - y f)
    alpha at its cap requires y f(x) <= 1  (residual: y f - 1)
    0 < alpha < cap  requires y f(x) = 1   (residual: |y f - 1|)
    """
    margins = y * model.decision_values(X)
    alpha = full_alpha(model)
    caps = np.where(y > 0, model.penalties.positive, model.penalties.negative)
    worst = 0.0
    for i in range(len(y)):
        if alpha[i] < 1e-9 * caps[i]:
            worst = max(worst, 1.0 - margins[i])
        elif alpha[i] > caps[i] * (1.0 - 1e-9):
            worst = max(worst, margins[i] - 1.0)
        else:
            worst = max(worst, abs(margins[i] - 1.0))
    return float(worst)


def random_two_class_problem(rng, n_range=(10, 60), d_range=(1, 4)):
    """Small random +/-1 dataset guaranteed to contain both classes."""
    n = int(rng.integers(*n_range))
    d = int(rng.integers(*d_range))
    X = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return X, y


def gram(spec, X) -> np.ndarray:
    return kernel_matrix(spec, X)


def round_robin_folds(exploded, v: int, seed: int) -> list[np.ndarray]:
    """Stratified folds dealt one sample at a time: each class shuffled,
    exploded class first, the k-th sample dealt going to fold k mod v."""
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(v)]
    slot = 0
    for value in (True, False):
        for idx in rng.permutation(np.flatnonzero(exploded == value)):
            folds[slot % v].append(int(idx))
            slot += 1
    return [np.sort(np.array(fold, dtype=int)) for fold in folds]


def masked_sigmoid(z) -> np.ndarray:
    """Logistic function with each sign of z handled under a boolean mask."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_free_set_newton(Q, g, y, a, caps):
    """Active-set Newton steps on max g'd - d'Qd/2, y'd = 0, 0 <= a + d <= caps,
    each round re-gathering the bordered system and the full gradient."""
    m = len(a)
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = Q
    kkt[:m, m] = kkt[m, :m] = y
    a = a.copy()
    S = np.arange(m)
    total = 0.0
    while len(S) >= 2:
        rows = np.append(S, m)
        try:
            d = np.linalg.solve(kkt[np.ix_(rows, rows)], np.append(g[S], 0.0))[:-1]
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(d).all():
            break
        a_S = a[S]
        bound = np.where(d > 0, caps[S], 0.0)
        reach = np.divide(bound - a_S, d, out=np.full(len(S), np.inf), where=d != 0)
        t = min(1.0, reach.min())
        hit = reach <= t
        new = np.clip(a_S + t * d, 0.0, caps[S])
        new[hit] = bound[hit]
        step = new - a_S
        Q_step = Q[:, S] @ step
        gain = g[S] @ step - 0.5 * step @ Q_step[S]
        if not gain > 0:
            break
        a[S] = new
        g = g - Q_step
        total += gain
        if t == 1.0:
            break
        S = S[~hit]
    return a, total


def traced_peak_mb(fn) -> float:
    """Peak of the memory traced while ``fn()`` runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
