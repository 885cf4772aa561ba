"""Output checks that do not reuse the program's own solvers.

The interval oracle reads a saved logistic model as plain JSON and solves for
the p = 0.5 boundary in closed form.  At fixed O2 with CO = CO2 = 0 each
feature the model can use is constant, affine in HC or affine in 1/HC, so
the logit is g(hc) = A + B*hc + C/hc and, for hc > 0, its sign is that of
the quadratic B*hc**2 + A*hc + C.
"""

from __future__ import annotations

import math


class CheckFailed(Exception):
    """An output of the program failed an oracle check."""


def logit_coefficients(model: dict, o2: float) -> tuple[float, float, float]:
    """(A, B, C) of g(hc) = A + B*hc + C/hc for a saved logistic model."""
    norm = model["normalization"]
    beta = [float(b) for b in model["beta"]]
    a, b, c = beta[0], 0.0, 0.0
    for coef, name, lo, hi in zip(beta[1:], norm["attributes"], norm["mins"], norm["maxs"]):
        span = hi - lo
        if span == 0:
            continue  # a constant attribute normalizes to 0
        # normalized value = scale * raw + shift
        scale, shift = 2.0 * coef / span, -coef * (hi + lo) / span
        a += shift
        if name == "hc":
            b += scale
        elif name == "o2":
            a += scale * o2
        elif name == "ratio" and norm["ratio"] == "o2_over_hc":
            c += scale * o2
        elif name == "ratio":
            b += scale / o2
        # co and co2 are 0 at the query point
    return a, b, c


def quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of b*x**2 + a*x + c = 0, ascending, without cancellation."""
    if b == 0:
        return [] if a == 0 else [-c / a]
    # for b ~ 0, c / q stays accurate and q / b runs off towards infinity
    disc = a * a - 4.0 * b * c
    if disc < 0:
        return []
    q = -0.5 * (a + math.copysign(math.sqrt(disc), a))
    if q == 0:
        return [0.0]
    return sorted({q / b, c / q})


def explosive_interval(model: dict, o2: float, hc_min: float, hc_max: float):
    """Closed-form {g > 0} slice of [hc_min, hc_max]: (lower, upper) or None.

    Raises ``CheckFailed`` when the slice is not one interval strictly inside
    the range, since then no single interval is the right answer.
    """
    a, b, c = logit_coefficients(model, o2)
    cuts = [hc_min] + [r for r in quadratic_roots(a, b, c) if hc_min < r < hc_max] + [hc_max]
    positive = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        if a + b * mid + c / mid > 0:
            positive.append((lo, hi))
    if not positive:
        return None
    if len(positive) > 1 or positive[0][0] == hc_min or positive[0][1] == hc_max:
        raise CheckFailed(f"o2={o2}: explosive set {positive} is not one interior interval")
    return positive[0]


def check_intervals(model: dict, rows, levels, hc_min: float, hc_max: float,
                    tol: float) -> float:
    """Compare ``intervals --out`` rows with the closed form; return the max error.

    ``rows`` are ``(o2, lower, upper, present)`` tuples in output order.
    """
    if [r[0] for r in rows] != list(levels):
        raise CheckFailed(f"expected one interval per level {list(levels)}, "
                          f"got {[r[0] for r in rows]}")
    worst = 0.0
    for o2, lower, upper, present in rows:
        expected = explosive_interval(model, o2, hc_min, hc_max)
        if (expected is not None) != present:
            raise CheckFailed(f"o2={o2}: program says present={present}, closed form {expected}")
        if expected is None:
            continue
        err = max(abs(lower - expected[0]), abs(upper - expected[1]))
        if not err <= tol:
            raise CheckFailed(f"o2={o2}: endpoints ({lower}, {upper}) are {err:.3g} "
                              f"from the closed form {expected}")
        worst = max(worst, err)
    return worst


def check_svm_model(model: dict, tol: float = 1e-9) -> None:
    """Equality constraint sum(dual_coef) = 0 and the per-class box caps."""
    coef = [float(v) for v in model["dual_coef"]]
    pos, neg = model["penalties"]["positive"], model["penalties"]["negative"]
    total = math.fsum(coef)
    scale = math.fsum(abs(v) for v in coef)
    if not abs(total) <= tol * scale:
        raise CheckFailed(f"sum of dual coefficients is {total!r}, not ~0 (scale {scale!r})")
    for k, v in enumerate(coef):
        cap = pos if v > 0 else neg
        if not 0 < abs(v) <= cap * (1 + 1e-9):
            raise CheckFailed(f"dual coefficient {k} = {v!r} outside (0, {cap}]")
    if not math.isfinite(model["bias"]):
        raise CheckFailed(f"bias is {model['bias']!r}")


def choose_ratio(rows) -> float:
    """Smallest ratio among those with the least type-I rate, then whole error.

    ``rows`` are ``(ratio, type1, type2, whole)`` tuples.
    """
    return min(rows, key=lambda r: (r[1], r[3], r[0]))[0]
