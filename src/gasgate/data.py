"""Gas-measurement records: CSV ingestion, validation, normalization, features.

A record holds the averaged concentrations (volume percent) of total
hydrocarbon (HC), oxygen, carbon monoxide and carbon dioxide together with a
binary explosion outcome.  A ``Dataset`` stores its records as five
read-only NumPy columns, so loading, featurizing and fold subsetting are
array operations; ``GasSample`` objects exist only where a caller asks for
one row at a time.  The default feature set for both classifiers is
(HC, O2, O2/HC), each scaled to [-1, 1] by an affine map fitted on training
data only.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

CSV_HEADER = "hc,o2,co,co2,exploded"

RAW_COLUMNS = ("hc", "o2", "co", "co2")

#: Feature set used throughout: CO and CO2 are ingested and validated but do
#: not enter the default features; the HC/O2 ratio carries the interaction.
DEFAULT_ATTRIBUTES = ("hc", "o2", "ratio")

RATIO_O2_OVER_HC = "o2_over_hc"
RATIO_HC_OVER_O2 = "hc_over_o2"


@dataclass(frozen=True)
class GasSample:
    """One averaged measurement: concentrations in vol % plus the outcome."""

    hc: float
    o2: float
    co: float
    co2: float
    exploded: bool

    def __post_init__(self):
        for name in RAW_COLUMNS:
            # coerce numpy scalars so repr-based serialization stays clean
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise DataFormatError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise DataFormatError(f"{name} must be >= 0, got {value!r}")
        object.__setattr__(self, "exploded", bool(self.exploded))
        total = self.hc + self.o2 + self.co + self.co2
        if total > 100.0 + 1e-9:
            raise DataFormatError(
                f"concentrations sum to {total:.6g} vol %, above 100"
            )


#: Column names of a Dataset, in CSV order.
COLUMNS = (*RAW_COLUMNS, "exploded")


class Dataset:
    """Ordered, immutable table of measurements with a free-text source tag.

    The columns are the storage: ``hc``, ``o2``, ``co`` and ``co2`` are
    float64 arrays and ``exploded`` a bool array, all of one length and all
    read-only, so a dataset shared across CV folds cannot be changed through
    them.  ``Dataset(samples)`` builds the columns from ``GasSample`` rows and
    ``Dataset.from_columns`` from arrays.  Iteration and ``.samples``
    materialise ``GasSample`` rows on demand, at most once per dataset.
    """

    __slots__ = (*COLUMNS, "provenance", "_samples")

    def __init__(self, samples, provenance: str = ""):
        samples = tuple(samples)
        columns = [np.array([s.hc for s in samples], dtype=float),
                   np.array([s.o2 for s in samples], dtype=float),
                   np.array([s.co for s in samples], dtype=float),
                   np.array([s.co2 for s in samples], dtype=float),
                   np.array([s.exploded for s in samples], dtype=bool)]
        self._adopt(columns, provenance)
        object.__setattr__(self, "_samples", samples)

    @classmethod
    def from_columns(cls, hc, o2, co, co2, exploded, provenance: str = "") -> "Dataset":
        """Dataset over copies of the given columns.

        Every row is checked as ``GasSample`` checks it; the first offending
        row is reported with its 1-based index.
        """
        values = [np.array(c, dtype=float) for c in (hc, o2, co, co2)]
        flags = np.array(exploded, dtype=bool)
        if flags.ndim != 1 or any(v.shape != flags.shape for v in values):
            raise ValueError("columns must be 1-D and of equal length")
        _check_rows(*values, lambda k: f"row {k + 1}")
        return cls._wrap([*values, flags], provenance)

    @classmethod
    def _wrap(cls, columns, provenance: str) -> "Dataset":
        """Adopt columns that are already valid, without copying them."""
        data = object.__new__(cls)
        data._adopt(columns, provenance)
        return data

    def _adopt(self, columns, provenance: str) -> None:
        if len(columns[-1]) == 0:
            raise DataFormatError("empty dataset")
        for name, column in zip(COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "_samples", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.exploded)

    def __iter__(self):
        return iter(self.samples)

    @property
    def samples(self) -> tuple[GasSample, ...]:
        """The rows as ``GasSample`` objects, built on first access."""
        if self._samples is None:
            rows = zip(*(getattr(self, name).tolist() for name in COLUMNS))
            object.__setattr__(self, "_samples", tuple(GasSample(*r) for r in rows))
        return self._samples

    def class_counts(self) -> tuple[int, int]:
        """(number exploded, number not exploded)."""
        n_pos = int(self.exploded.sum())
        return n_pos, len(self) - n_pos

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset._wrap(
            [getattr(self, name)[idx] for name in COLUMNS], self.provenance
        )


def _check_rows(hc, o2, co, co2, where) -> None:
    """Raise ``GasSample``'s error for the first row it would reject.

    The vectorised tests match ``GasSample.__post_init__``; the offending row
    is then rebuilt as a ``GasSample`` so the message is the one it gives.
    ``where(k)`` names the 0-based row ``k``, e.g. by its line in a file.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        bad = hc + o2 + co + co2 > 100.0 + 1e-9
        for column in (hc, o2, co, co2):
            bad |= ~np.isfinite(column) | (column < 0)
    if bad.any():
        k = int(bad.argmax())
        try:
            GasSample(hc[k], o2[k], co[k], co2[k], False)
        except DataFormatError as exc:
            raise DataFormatError(f"{where(k)}: {exc}") from None


@dataclass(frozen=True)
class FeatureConfig:
    """Which raw attributes enter the model and how the ratio is oriented."""

    attributes: tuple[str, ...] = DEFAULT_ATTRIBUTES
    ratio: str = RATIO_O2_OVER_HC

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.attributes:
            raise ValueError("at least one feature attribute is required")
        valid = set(RAW_COLUMNS) | {"ratio"}
        for name in self.attributes:
            if name not in valid:
                raise ValueError(f"unknown attribute {name!r}")
        if self.ratio not in (RATIO_O2_OVER_HC, RATIO_HC_OVER_O2):
            raise ValueError(f"unknown ratio orientation {self.ratio!r}")

    def raw_value(self, sample: GasSample, name: str) -> float:
        """Raw (unnormalized) value of one attribute for one sample."""
        if name != "ratio":
            return getattr(sample, name)
        if self.ratio == RATIO_O2_OVER_HC:
            if sample.hc == 0:
                raise DataFormatError("undefined ratio: hc is 0")
            return sample.o2 / sample.hc
        if sample.o2 == 0:
            raise DataFormatError("undefined ratio: o2 is 0")
        return sample.hc / sample.o2

    def raw_matrix(self, data: Dataset) -> np.ndarray:
        """(n_samples, n_attributes) matrix of raw attribute values.

        A zero denominator in the ratio raises ``DataFormatError`` naming
        the 1-based row of its first occurrence.
        """
        out = np.empty((len(data), len(self.attributes)))
        for j, name in enumerate(self.attributes):
            if name != "ratio":
                out[:, j] = getattr(data, name)
                continue
            num, den = ("o2", "hc") if self.ratio == RATIO_O2_OVER_HC else ("hc", "o2")
            zeros = np.flatnonzero(getattr(data, den) == 0)
            if zeros.size:
                raise DataFormatError(
                    f"undefined ratio: {den} is 0 in row {zeros[0] + 1}"
                )
            np.divide(getattr(data, num), getattr(data, den), out=out[:, j])
        return out


@dataclass(frozen=True)
class NormalizationParams:
    """Per-attribute (min, max) observed on training data.

    The transform maps the training min to -1 and the training max to +1;
    values outside the training range map outside [-1, 1] on purpose, so that
    distribution drift stays visible.  A constant attribute (min == max) maps
    to 0, the midpoint of the target interval.
    """

    feature_config: FeatureConfig
    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mins", tuple(float(v) for v in self.mins))
        object.__setattr__(self, "maxs", tuple(float(v) for v in self.maxs))
        n = len(self.feature_config.attributes)
        if len(self.mins) != n or len(self.maxs) != n:
            raise ValueError("mins/maxs must match the attribute list")
        for name, lo, hi in zip(self.feature_config.attributes, self.mins, self.maxs):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"non-finite range for attribute {name!r}")
            if lo > hi:
                raise ValueError(f"min > max for attribute {name!r}")

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.feature_config.attributes

    @property
    def constant_attributes(self) -> tuple[str, ...]:
        """Attributes whose observed min equals the observed max."""
        return tuple(
            name
            for name, lo, hi in zip(self.attributes, self.mins, self.maxs)
            if lo == hi
        )

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Apply the affine map column-wise to a (n, n_attributes) matrix."""
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        lo = np.array(self.mins)
        hi = np.array(self.maxs)
        span = hi - lo
        constant = span == 0
        safe_span = np.where(constant, 1.0, span)
        out = (2.0 * raw - hi - lo) / safe_span
        out[:, constant] = 0.0
        return out


def load_csv(path) -> Dataset:
    """Read a measurement CSV into a Dataset, preserving row order.

    The file must be UTF-8 with header ``hc,o2,co,co2,exploded``; lines
    starting with ``#`` are skipped.  Malformed rows are reported with their
    1-based physical line number.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise DataFormatError(f"no such file: {path}") from None

    size = len(lines)  # bounds the row count
    columns = [np.empty(size) for _ in RAW_COLUMNS] + [np.empty(size, dtype=bool)]
    line_of = np.empty(size, dtype=np.int64)
    # item writes through a memoryview cost a fraction of ndarray indexing
    hc, o2, co, co2, exploded = map(memoryview, columns)
    row_line = memoryview(line_of)

    def where(k):
        return f"line {line_of[k]}"

    header_seen = False
    n = 0
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if not header_seen:
            if text != CSV_HEADER:
                raise DataFormatError(
                    f"line {lineno}: expected header {CSV_HEADER!r}, got {text!r}"
                )
            header_seen = True
            continue
        try:
            hc[n], o2[n], co[n], co2[n], exploded[n] = _parse_row(text)
        except ValueError as exc:
            # a bad value on an earlier row comes first in file order
            _check_rows(*(c[:n] for c in columns[:4]), where)
            raise DataFormatError(f"line {lineno}: {exc}") from None
        row_line[n] = lineno
        n += 1

    if not header_seen:
        raise DataFormatError(f"missing header {CSV_HEADER!r} in {path}")
    columns = [c[:n] for c in columns]
    _check_rows(*columns[:4], where)
    return Dataset._wrap(columns, provenance=str(path))


def _parse_row(text: str) -> tuple[float, float, float, float, bool]:
    """Split one data line into its four concentrations and the outcome."""
    fields = text.split(",")
    if len(fields) != 5:
        raise ValueError(f"expected 5 fields, got {len(fields)}")
    hc, o2, co, co2, flag = map(str.strip, fields)
    values = (_parse_concentration(hc), _parse_concentration(o2),
              _parse_concentration(co), _parse_concentration(co2))
    if flag not in ("0", "1"):
        raise ValueError(f"exploded must be 0 or 1, got {flag!r}")
    return (*values, flag == "1")


def _parse_concentration(token: str) -> float:
    if not token or "_" in token:
        raise ValueError(f"malformed number {token!r}")
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"malformed number {token!r}") from None


def write_csv(data: Dataset, path) -> None:
    """Write a Dataset in the ingestion format (atomic: temp file + rename)."""
    rows = zip(*(getattr(data, name).tolist() for name in COLUMNS))
    lines = [CSV_HEADER]
    lines.extend(
        f"{hc!r},{o2!r},{co!r},{co2!r},{1 if exploded else 0}"
        for hc, o2, co, co2, exploded in rows
    )
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-gasgate-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fit_normalization(
    data: Dataset, feature_config: FeatureConfig = FeatureConfig()
) -> NormalizationParams:
    """Scan the training data for per-attribute (min, max).

    Constant attributes are legal but flagged with a warning; their transform
    maps every value to 0.
    """
    raw = feature_config.raw_matrix(data)
    params = NormalizationParams(
        feature_config,
        mins=tuple(raw.min(axis=0)),
        maxs=tuple(raw.max(axis=0)),
    )
    if params.constant_attributes:
        warnings.warn(
            f"constant attribute(s) {params.constant_attributes}: "
            "normalized value is pinned to 0",
            stacklevel=2,
        )
    return params


def apply_normalization(params: NormalizationParams, sample: GasSample) -> np.ndarray:
    """Featurize one sample: raw attribute values, then the fitted affine map."""
    raw = np.array(
        [params.feature_config.raw_value(sample, a) for a in params.attributes]
    )
    return params.transform(raw)[0]


def featurize(params: NormalizationParams, data: Dataset) -> np.ndarray:
    """Featurize a whole dataset into an (n, n_attributes) matrix."""
    return params.transform(params.feature_config.raw_matrix(data))


LABEL_SCHEMES = ("zero-one", "plus-minus-one")


def encode_labels(data: Dataset, scheme: str) -> np.ndarray:
    """Encode outcomes as integers: explosion is 1 in both schemes."""
    if scheme not in LABEL_SCHEMES:
        raise ValueError(f"unknown label scheme {scheme!r}; use one of {LABEL_SCHEMES}")
    negative = 0 if scheme == "zero-one" else -1
    return np.where(data.exploded, 1, negative)


def split_train_test(
    data: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; train size = round(n * fraction)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(data)
    n_train = int(math.floor(n * train_fraction + 0.5))
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"fraction {train_fraction} on {n} samples leaves an empty side"
        )
    order = np.random.default_rng(seed).permutation(n)
    return data.subset(order[:n_train]), data.subset(order[n_train:])
