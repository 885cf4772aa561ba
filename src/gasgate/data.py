"""Gas-measurement records: CSV ingestion, validation, normalization, features.

A record holds the averaged concentrations (volume percent) of total
hydrocarbon (HC), oxygen, carbon monoxide and carbon dioxide together with a
binary explosion outcome.  A ``Dataset`` stores its records as five
read-only NumPy columns, so loading, featurizing and fold subsetting are
array operations.  The row rules (each concentration finite and >= 0, their
sum at most 100 vol %) are checked once, on the columns, where rows enter:
in ``Dataset.from_columns`` and ``load_csv``.  Rows become Python objects
only ``BLOCK_ROWS`` at a time: iterating a dataset yields plain
``GasSample`` records block by block and keeps none of them, and
``csv_chunks`` formats datasets and predictions one block of rows at a
time, so neither holds more than one block beyond the columns.  The
default feature set for both classifiers is (HC, O2, O2/HC), each scaled
to [-1, 1] by an affine map fitted on training data only.
"""

from __future__ import annotations

import errno
import io
import math
import os
import tempfile
import warnings
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataFormatError, SingleClassError

CSV_HEADER = "hc,o2,co,co2,exploded"

RAW_COLUMNS = ("hc", "o2", "co", "co2")

#: Feature set used throughout: CO and CO2 are ingested and validated but do
#: not enter the default features; the HC/O2 ratio carries the interaction.
DEFAULT_ATTRIBUTES = ("hc", "o2", "ratio")

RATIO_O2_OVER_HC = "o2_over_hc"
RATIO_HC_OVER_O2 = "hc_over_o2"


class GasSample(NamedTuple):
    """One averaged measurement: concentrations in vol % plus the outcome.

    A plain record; the rows of a ``Dataset`` were checked when it was built.
    """

    hc: float
    o2: float
    co: float
    co2: float
    exploded: bool


#: Column names of a Dataset, in CSV order.
COLUMNS = (*RAW_COLUMNS, "exploded")

#: Rows turned into Python objects at a time when a dataset is iterated or
#: a CSV is written, so the memory this takes does not grow with the rows.
BLOCK_ROWS = 4096


def column_blocks(columns):
    """Yield each block of ``BLOCK_ROWS`` rows of the equal-length arrays
    ``columns``, as one list of Python scalars per column."""
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        yield [c[start:start + BLOCK_ROWS].tolist() for c in columns]


def csv_chunks(header: str, columns):
    """The CSV text of ``header`` over the rows of the equal-length arrays
    ``columns``, one chunk per block of rows; each value is written as the
    repr of its Python scalar."""
    yield f"{header}\n"
    for block in column_blocks(columns):
        lines = map(",".join, zip(*(map(repr, values) for values in block)))
        yield "\n".join(lines) + "\n"


class Dataset:
    """Ordered, immutable table of measurements with a free-text source tag.

    The columns are the storage: ``hc``, ``o2``, ``co`` and ``co2`` are
    float64 arrays and ``exploded`` a bool array, all of one length and all
    read-only, so a dataset shared across CV folds cannot be changed through
    them.  A dataset is built from columns, never from rows:
    ``Dataset.from_columns`` checks every row of the arrays it is given, and
    ``load_csv`` and ``subset`` build one too.  Iteration yields
    ``GasSample`` records built ``BLOCK_ROWS`` at a time and caches none of
    them, so each pass builds its rows afresh.
    """

    __slots__ = (*COLUMNS, "provenance")

    @classmethod
    def from_columns(cls, hc, o2, co, co2, exploded, provenance: str = "") -> "Dataset":
        """Dataset over copies of the given columns.

        Every row is checked (``_check_rows``); the first offending row is
        reported with its 1-based index.
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
        if len(columns[-1]) == 0:
            raise DataFormatError("empty dataset")
        data = object.__new__(cls)
        for name, column in zip(COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(data, name, column)
        object.__setattr__(data, "provenance", provenance)
        return data

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.exploded)

    def __iter__(self):
        # tolist gives Python float and bool
        for block in column_blocks([getattr(self, name) for name in COLUMNS]):
            yield from map(GasSample._make, zip(*block))

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
    """Raise ``DataFormatError`` for the first row that breaks a row rule.

    The rules: each concentration finite and >= 0, and their sum at most
    100 vol % (within 1e-9).  The message names the row's first broken rule
    in column order, after ``where(k)``, which names the 0-based row ``k``,
    e.g. by its line in a file.
    """
    columns = (hc, o2, co, co2)
    with np.errstate(invalid="ignore", over="ignore"):
        bad = hc + o2 + co + co2 > 100.0 + 1e-9
        for column in columns:
            bad |= ~np.isfinite(column) | (column < 0)
    if not bad.any():
        return
    k = int(bad.argmax())
    values = [float(column[k]) for column in columns]
    for name, value in zip(RAW_COLUMNS, values):
        if not math.isfinite(value):
            raise DataFormatError(f"{where(k)}: {name} must be finite, got {value!r}")
        if value < 0:
            raise DataFormatError(f"{where(k)}: {name} must be >= 0, got {value!r}")
    raise DataFormatError(
        f"{where(k)}: concentrations sum to {sum(values):.6g} vol %, above 100"
    )


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
        for k, name in enumerate(self.attributes):
            if name not in valid:
                raise ValueError(f"unknown attribute {name!r}")
            if name in self.attributes[:k]:
                raise ValueError(f"attribute {name!r} is repeated")
        if self.ratio not in (RATIO_O2_OVER_HC, RATIO_HC_OVER_O2):
            raise ValueError(f"unknown ratio orientation {self.ratio!r}")

    def check_ratio(self, data: Dataset, out=None):
        """The ratio column of ``data`` (into ``out`` if given), or None without
        the ratio attribute.  The first ratio that is not finite, from a zero
        or a tiny denominator, raises ``DataFormatError`` naming its row."""
        if "ratio" not in self.attributes:
            return None
        num, den = ("o2", "hc") if self.ratio == RATIO_O2_OVER_HC else ("hc", "o2")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            quotient = np.divide(getattr(data, num), getattr(data, den), out=out)
        bad = np.flatnonzero(~np.isfinite(quotient))
        if bad.size:
            k = bad[0]
            if getattr(data, den)[k] == 0:
                raise DataFormatError(f"undefined ratio: {den} is 0 in row {k + 1}")
            raise DataFormatError(f"ratio {num}/{den} overflows in row {k + 1}")
        return quotient

    def raw_matrix(self, data: Dataset) -> np.ndarray:
        """(n_samples, n_attributes) matrix of raw attribute values.

        The attributes are held as rows: the matrix is the transposed view
        of a C-ordered (n_attributes, n_samples) array, so each attribute's
        values are contiguous and the per-attribute reductions of
        ``fit_normalization`` and the affine map of ``transform`` run along
        rows rather than across a few-wide inner axis.

        A ratio that is not finite raises ``DataFormatError`` naming its
        1-based row (``check_ratio``).
        """
        rows = np.empty((len(self.attributes), len(data)))
        for row, name in zip(rows, self.attributes):
            if name == "ratio":
                self.check_ratio(data, out=row)
            else:
                row[:] = getattr(data, name)
        return rows.T


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
        """Apply the affine map column-wise to a (n, n_attributes) matrix.

        Each value becomes (2 raw - hi - lo) / (hi - lo), in that order of
        operations.  The map runs in place along the attribute rows of
        ``raw.T``, contiguous for a ``raw_matrix`` result, and the features
        come back as a C-ordered (n, n_attributes) matrix: the models'
        products ``X @ w`` round differently on other layouts, and the
        outputs must not depend on how a caller laid out its input.
        """
        rows = np.atleast_2d(np.asarray(raw, dtype=float)).T
        lo = np.array(self.mins)[:, None]
        hi = np.array(self.maxs)[:, None]
        span = hi - lo
        constant = span == 0
        out = 2.0 * rows
        out -= hi
        out -= lo
        out /= np.where(constant, 1.0, span)
        out[constant[:, 0]] = 0.0
        return np.ascontiguousarray(out.T)


def check_width(params: NormalizationParams | None, n_features: int) -> None:
    """Refuse a model's normalization unless it has ``n_features`` attributes."""
    if params is not None and len(params.attributes) != n_features:
        raise ValueError(f"normalization has {len(params.attributes)} attributes "
                         f"for a model of {n_features} features")


def check_training_set(X: np.ndarray, y: np.ndarray, encoding: tuple[str, str],
                       tol: float) -> None:
    """Refuse a fit's features ``X`` and labels ``y`` that disagree on the
    sample count, the first non-finite feature row, labels outside the two
    written in ``encoding`` (such as ``("0", "1")``), a single class, and a
    ``tol`` that is not positive."""
    if X.shape[0] != y.shape[0]:
        raise ValueError("features and labels disagree on sample count")
    if not np.isfinite(X).all():
        raise ValueError(f"feature row {int(np.isfinite(X).all(1).argmin())} is not finite")
    classes = np.unique(y)
    if not set(classes) <= {float(label) for label in encoding}:
        raise ValueError(f"labels must be encoded as {' / '.join(encoding)}")
    if len(classes) < 2:
        raise SingleClassError("training data contains a single class")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def load_csv(path) -> Dataset:
    """Read a measurement CSV into a Dataset, preserving row order.

    The file must be UTF-8 with header ``hc,o2,co,co2,exploded``; lines
    starting with ``#`` are skipped.  Malformed rows are reported with their
    1-based physical line number.  A file in the plain form ``write_csv``
    emits is parsed by NumPy's C reader; any other file goes through the
    line-by-line parser, which gives the same values and the same messages.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DataFormatError(f"no such file: {path}") from None
    table, line_of = _parse_plain(raw) or _parse_lines(raw, path)
    del raw  # the file's bytes need not outlive the copy below
    # both parsers admit only "0" or "1" as the fifth field
    columns = [*table[:, :4].T.copy(), table[:, 4] == 1.0]
    _check_rows(*columns[:4], lambda k: f"line {line_of[k]}")
    return Dataset._wrap(columns, provenance=str(path))


_HEADER_LINE = f"{CSV_HEADER}\n".encode()

#: every byte ``write_csv`` emits after its header line
_PLAIN_BYTES = b"0123456789.,+-eE\n"

#: bytes whose alphabet and line ends ``_parse_plain`` checks at a time: each
#: slice is copied and masked, so this bounds what a load holds beyond the
#: file and its table
_SCAN_BYTES = 1 << 16


def _parse_plain(raw: bytes) -> tuple[np.ndarray, range] | None:
    """The (rows, 5) table of a file in ``write_csv``'s plain form and the
    1-based line of each row; None for any other.

    Plain form: the exact header line, then only the bytes of
    ``_PLAIN_BYTES``, with every line holding five fields and ending in
    ``,0`` or ``,1`` and a newline.  Within that alphabet ``np.loadtxt``
    accepts exactly the numbers ``float()`` accepts and rounds them to the
    same bits (outside it the two differ, e.g. on the byte 0x1c, which
    ``str.splitlines`` takes for a line break and ``loadtxt`` for
    whitespace), and the form has no comments or blank lines, so data row k
    sits on line k + 2.
    """
    start = len(_HEADER_LINE)
    if not (raw.startswith(_HEADER_LINE) and len(raw) > start):
        return None
    # after the header only plain bytes, and every newline ends a ",0" or
    # ",1"; checked a slice at a time, so no copy or mask grows with the file
    buf = np.frombuffer(raw, dtype=np.uint8)
    lines = 0
    for lo in range(start, len(buf), _SCAN_BYTES):
        if raw[lo:lo + _SCAN_BYTES].translate(None, _PLAIN_BYTES):
            return None
        ends = np.flatnonzero(buf[lo:lo + _SCAN_BYTES] == ord("\n")) + lo
        flags = buf[ends - 1]
        if not ((buf[ends - 2] == ord(",")).all()
                and ((flags == ord("0")) | (flags == ord("1"))).all()):
            return None
        lines += ends.size
    try:
        table = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, ndmin=2,
                           comments=None)
    except ValueError:
        return None
    if table.shape != (lines, 5):  # also catches a last line with no newline
        return None
    return table, range(2, lines + 2)


def _parse_lines(raw: bytes, path) -> tuple[np.ndarray, array]:
    """The (rows, 5) table of any CSV, parsed line by line, and the 1-based
    line of each row: the reference for ``load_csv``'s messages."""
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = len((raw[:exc.start].decode("utf-8") + "?").splitlines())
        raise DataFormatError(
            f"line {lineno}: not UTF-8 (byte 0x{raw[exc.start]:02x})"
        ) from None

    values = array("d")
    line_of = array("q")
    header_seen = False
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
            values.extend(_parse_row(text))
        except ValueError as exc:
            # a bad value on an earlier row comes first in file order
            table = np.frombuffer(values).reshape(-1, 5)
            _check_rows(*table[:, :4].T, lambda k: f"line {line_of[k]}")
            raise DataFormatError(f"line {lineno}: {exc}") from None
        line_of.append(lineno)

    if not header_seen:
        raise DataFormatError(f"missing header {CSV_HEADER!r} in {path}")
    return np.frombuffer(values).reshape(-1, 5), line_of


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
    """Write a Dataset in the ingestion format (atomic: temp file + rename).

    Rows are formatted and written one block of ``BLOCK_ROWS`` at a time.
    """
    columns = [data.hc, data.o2, data.co, data.co2, data.exploded.astype(np.int8)]
    atomic_write_text(path, csv_chunks(CSV_HEADER, columns))


def check_output_path(path) -> None:
    """Raise the error a write to ``path`` would meet, naming ``path``, if it
    is a directory or its directory is missing; a no-op for no path.  Run on
    ``--out`` before any input is read, so no work is done for nothing."""
    if path and os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def atomic_write_text(path, text) -> None:
    """Write text to path via a temp file in the same directory plus rename.

    ``text`` is a ``str`` or an iterable of ``str`` chunks, written in
    order.  If anything fails before the rename, including the iterable
    raising, the temp file is removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-gasgate-")
    except OSError as exc:
        # name the path asked for, not the temp file that could not be made
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
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
    """``featurize`` of one sample, kept only for the tests and for the
    benchmark harness, which counts calls to ``logistic.apply_normalization``."""
    columns = [np.array([value], dtype=float) for value in sample[:4]]
    row = Dataset._wrap([*columns, np.array([sample.exploded])], "")
    return featurize(params, row)[0]


def featurize(params: NormalizationParams, data: Dataset) -> np.ndarray:
    """Featurize a whole dataset into an (n, n_attributes) matrix."""
    return params.transform(params.feature_config.raw_matrix(data))
