"""Synthetic labeled corpora from a closed-form explosive region.

The region is a band in (HC, O2) space: at each oxygen level inside a window,
mixtures with HC between a lower and an upper flammable limit explode.  The
default limit curves interpolate piecewise-linearly through four anchor
levels and widen with oxygen; outside the anchor range they extrapolate flat
down to the window edges.  Generated files use the ingestion CSV format, so
the generator doubles as a ground-truth oracle for the classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import GenerationError

#: (o2, lower HC limit, upper HC limit) anchor points of the default region.
DEFAULT_LIMIT_KNOTS = (
    (15.0, 1.0668, 1.5491),
    (16.0, 0.89729, 1.9645),
    (18.0, 0.76653, 2.5871),
    (20.0, 0.70066, 3.1448),
)

DEFAULT_O2_WINDOW = (12.0, 21.0)


@dataclass(frozen=True)
class OracleRegion:
    """Explosive band: lower/upper HC limit curves over an oxygen window."""

    o2_knots: tuple[float, ...]
    lower_limits: tuple[float, ...]
    upper_limits: tuple[float, ...]
    o2_window: tuple[float, float] = DEFAULT_O2_WINDOW

    def __post_init__(self):
        knots = tuple(float(v) for v in self.o2_knots)
        object.__setattr__(self, "o2_knots", knots)
        object.__setattr__(
            self, "lower_limits", tuple(float(v) for v in self.lower_limits)
        )
        object.__setattr__(
            self, "upper_limits", tuple(float(v) for v in self.upper_limits)
        )
        if not (len(knots) == len(self.lower_limits) == len(self.upper_limits)):
            raise ValueError("knots and limit lists must have equal length")
        if len(knots) < 1:
            raise ValueError("at least one knot is required")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError("o2 knots must be strictly increasing")
        for o2, lo, hi in zip(knots, self.lower_limits, self.upper_limits):
            if not lo < hi:
                raise ValueError(f"lower limit must stay below upper at o2={o2}")
            if lo <= 0:
                raise ValueError(f"lower limit must be positive at o2={o2}")
        if not self.o2_window[0] < self.o2_window[1]:
            raise ValueError("o2 window must have positive width")

    def lower(self, o2):
        """Lower flammable HC limit at the given oxygen level(s)."""
        return np.interp(o2, self.o2_knots, self.lower_limits)

    def upper(self, o2):
        """Upper flammable HC limit at the given oxygen level(s)."""
        return np.interp(o2, self.o2_knots, self.upper_limits)

    def contains(self, hc, o2) -> np.ndarray:
        """Vectorized membership test for the explosive band."""
        hc = np.asarray(hc, dtype=float)
        o2 = np.asarray(o2, dtype=float)
        in_window = (o2 >= self.o2_window[0]) & (o2 <= self.o2_window[1])
        return in_window & (hc >= self.lower(o2)) & (hc <= self.upper(o2))


def default_region() -> OracleRegion:
    o2s, lows, highs = zip(*DEFAULT_LIMIT_KNOTS)
    return OracleRegion(o2s, lows, highs)


def generate(
    region: OracleRegion,
    n: int,
    seed: int,
    noise: float = 0.0,
    positive_fraction: float = 0.78,
) -> Dataset:
    """Draw a labeled corpus with a target explosion share.

    HC is uniform over [0.2, 4.0] and O2 uniform over the region window; a
    rejection sampler keeps drawing until round(n * fraction) in-band and the
    remaining out-of-band points are collected; a share that leaves either
    class no row raises ``GenerationError`` before any draw.  Labels then
    flip independently with probability ``noise``; flips that leave either
    class no row raise ``GenerationError`` too.  CO is the constant
    filler 0.05 and CO2 = max(0, 33 - O2) tracks oxygen so the
    concentration invariant holds; neither enters the default feature set.
    """
    if n < 10:
        raise ValueError(f"n must be >= 10, got {n}")
    if not 0.0 <= noise < 0.5:
        raise ValueError(f"noise must be in [0, 0.5), got {noise}")
    if not 0.0 < positive_fraction < 1.0:
        raise ValueError(
            f"positive_fraction must be in (0, 1), got {positive_fraction}"
        )

    n_pos = int(np.floor(n * positive_fraction + 0.5))
    n_neg = n - n_pos
    if not n_pos or not n_neg:
        empty = "safe" if n_neg == 0 else "explosive"
        raise GenerationError(
            f"{n} rows at positive fraction {positive_fraction} leave no {empty} row"
        )
    rng = np.random.default_rng(seed)
    o2_low = max(0.0, region.o2_window[0])
    o2_high = region.o2_window[1]

    # accepted HC and O2 values, one array per batch, in draw order
    pos_hc, pos_o2, neg_hc, neg_o2 = [], [], [], []
    have_pos = have_neg = 0
    draws = 0
    max_draws = 100 * n
    while have_pos < n_pos or have_neg < n_neg:
        batch = min(4 * n, max_draws - draws)
        if batch <= 0:
            raise GenerationError(
                f"target positive fraction {positive_fraction} unreachable "
                f"within {max_draws} draws "
                f"(have {have_pos}/{n_pos} positive, {have_neg}/{n_neg} negative)"
            )
        hc = rng.uniform(0.2, 4.0, size=batch)
        o2 = rng.uniform(o2_low, o2_high, size=batch)
        inside = region.contains(hc, o2)
        draws += batch
        take_pos = np.flatnonzero(inside)[: n_pos - have_pos]
        take_neg = np.flatnonzero(~inside)[: n_neg - have_neg]
        pos_hc.append(hc[take_pos])
        pos_o2.append(o2[take_pos])
        neg_hc.append(hc[take_neg])
        neg_o2.append(o2[take_neg])
        have_pos += take_pos.size
        have_neg += take_neg.size

    # positives first, then negatives; one shuffle, then the label flips
    order = rng.permutation(n)
    flip = rng.random(n) < noise
    hc = np.concatenate(pos_hc + neg_hc)[order]
    o2 = np.concatenate(pos_o2 + neg_o2)[order]
    exploded = (order < n_pos) ^ flip
    if exploded.all() or not exploded.any():
        empty = "safe" if exploded.all() else "explosive"
        raise GenerationError(
            f"{n} rows at noise {noise} and seed {seed} leave no {empty} row after the label flips"
        )
    co2 = np.maximum(0.0, 33.0 - o2)
    return Dataset.from_columns(
        hc,
        o2,
        np.full(n, 0.05, dtype=float),
        co2,
        exploded,
        provenance=f"synthetic(seed={seed},n={n},noise={noise})",
    )
