import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gasgate.data
from gasgate.data import (
    BLOCK_ROWS,
    COLUMNS,
    CSV_HEADER,
    Dataset,
    FeatureConfig,
    GasSample,
    NormalizationParams,
    RATIO_HC_OVER_O2,
    RAW_COLUMNS,
    apply_normalization,
    atomic_write_text,
    featurize,
    fit_normalization,
    load_csv,
    write_csv,
)
from gasgate.errors import DataFormatError, SingleClassError
from gasgate.logistic import fit_logistic
from gasgate.svm import fit_svm
from gasgate.synth import default_region, generate

from .support import traced_peak_mb


def make_dataset(rows):
    return Dataset.from_columns(*zip(*rows))


SIMPLE = make_dataset([
    (1.84, 15.6, 0.05, 18.4, True),
    (1.81, 15.3, 0.61, 13.3, False),
    (0.5, 20.0, 0.05, 13.0, False),
    (3.0, 18.0, 0.05, 15.0, True),
])


class TestGasSample:
    def test_valid_row_values(self):
        s = GasSample(1.84, 15.6, 0.05, 18.4, True)
        assert (s.hc, s.o2, s.co, s.co2, s.exploded) == (1.84, 15.6, 0.05, 18.4, True)

    def test_is_a_plain_record(self):
        # rows are checked where they enter a Dataset, not by the record
        assert GasSample(-1.0, 15.0, 0.0, 0.0, False).hc == -1.0
        assert GasSample._make((1.0, 15.0, 0.0, 0.0, True)) == (1.0, 15.0, 0.0, 0.0, True)


class TestRowRules:
    """One rule set for rows, applied where they enter: ``from_columns`` and
    ``load_csv``.  A bad row sits between two good ones; every message is
    the exact text the per-row ``GasSample`` check used to give."""

    GOOD = (1.0, 15.0, 0.05, 10.0)

    CASES = [
        *((name, value, f"{name} must be finite, got {value!r}")
          for name in RAW_COLUMNS for value in (math.nan, math.inf, -math.inf)),
        *((name, -1.0, f"{name} must be >= 0, got -1.0") for name in RAW_COLUMNS),
        ("sum", (60.0, 30.0, 5.0, 5.5), "concentrations sum to 100.5 vol %, above 100"),
    ]
    IDS = [f"{name}={value}" for name, value, _ in CASES]

    @classmethod
    def bad_row(cls, name, value):
        if name == "sum":
            return value
        row = list(cls.GOOD)
        row[RAW_COLUMNS.index(name)] = value
        return tuple(row)

    @classmethod
    def csv_text(cls, name, value, lead=""):
        rows = [cls.GOOD, cls.bad_row(name, value), cls.GOOD]
        lines = [",".join(map(repr, row)) + ",1" for row in rows]
        return lead + "\n".join([CSV_HEADER, *lines, ""])

    @pytest.mark.parametrize("name, value, message", CASES, ids=IDS)
    def test_from_columns(self, name, value, message):
        columns = zip(self.GOOD, self.bad_row(name, value), self.GOOD)
        with pytest.raises(DataFormatError) as info:
            Dataset.from_columns(*columns, [True] * 3)
        assert str(info.value) == f"row 2: {message}"

    @pytest.mark.parametrize("name, value, message", CASES, ids=IDS)
    def test_load_csv_line_path(self, tmp_path, name, value, message):
        path = tmp_path / "bad.csv"
        # a comment line keeps the file off the plain path
        path.write_text(self.csv_text(name, value, lead="# lead\n"))
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"line 4: {message}"

    @pytest.mark.parametrize("name, value, message",
                             [c for c in CASES if c[0] == "sum" or c[1] == -1.0],
                             ids=[i for i, c in zip(IDS, CASES)
                                  if c[0] == "sum" or c[1] == -1.0])
    def test_load_csv_plain_path(self, tmp_path, monkeypatch, name, value, message):
        # nan and inf lie outside the plain form's bytes, so only these cases
        path = tmp_path / "bad.csv"
        path.write_text(self.csv_text(name, value))

        def no_line_parse(raw, path):
            raise AssertionError("left the plain path")

        monkeypatch.setattr(gasgate.data, "_parse_lines", no_line_parse)
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"line 3: {message}"

    def test_sum_exactly_100_is_fine(self):
        assert len(make_dataset([(50.0, 40.0, 10.0, 0.0, False)])) == 1


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(DataFormatError, match="empty"):
            Dataset.from_columns([], [], [], [], [])

    def test_not_built_from_rows(self):
        with pytest.raises(TypeError):
            Dataset([GasSample(1.0, 15.0, 0.0, 0.0, True)])

    def test_class_counts_and_labels(self):
        assert SIMPLE.class_counts() == (2, 2)
        assert SIMPLE.exploded.tolist() == [True, False, False, True]

    def test_subset_preserves_order(self):
        first, second = SIMPLE.subset([3, 0])
        assert first.hc == 3.0
        assert second.hc == 1.84


class TestColumns:
    ROWS = [
        (1.84, 15.6, 0.05, 18.4, True),
        (1.81, 15.3, 0.61, 13.3, False),
        (0.5, 20.0, 0.05, 13.0, False),
        (3.0, 18.0, 0.05, 15.0, True),
    ]

    def test_columns_hold_the_sample_values(self):
        data = make_dataset(self.ROWS)
        for j, name in enumerate(("hc", "o2", "co", "co2", "exploded")):
            assert getattr(data, name).tolist() == [row[j] for row in self.ROWS]
        assert data.hc.dtype == np.float64 and data.exploded.dtype == bool

    def test_subset_exploded_and_samples_match_the_source_rows(self):
        data = make_dataset(self.ROWS)
        idx = [3, 1, 1, 0]
        sub = data.subset(np.array(idx))
        assert sub.exploded.tolist() == [self.ROWS[i][4] for i in idx]
        assert sub.hc.tolist() == [self.ROWS[i][0] for i in idx]
        assert tuple(sub) == tuple(GasSample(*self.ROWS[i]) for i in idx)
        assert tuple(sub) == tuple(sub)  # each pass builds the same rows afresh

    def test_from_columns_round_trips_to_samples(self):
        data = Dataset.from_columns(*zip(*self.ROWS), provenance="cols")
        assert tuple(data) == tuple(GasSample(*row) for row in self.ROWS)
        assert data.provenance == "cols"

    def test_from_columns_copies_its_inputs(self):
        hc = np.array([1.0, 2.0])
        data = Dataset.from_columns(hc, [15.0, 15.0], [0.0, 0.0], [0.0, 0.0], [1, 0])
        hc[0] = 9.0
        assert data.hc.tolist() == [1.0, 2.0]

    def test_from_columns_names_the_first_bad_row(self):
        with pytest.raises(DataFormatError, match=r"^row 2: o2 must be >= 0"):
            Dataset.from_columns([1.0, 1.0, 1.0], [15.0, -1.0, -2.0],
                                 [0.0] * 3, [0.0] * 3, [True] * 3)

    def test_from_columns_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="equal length"):
            Dataset.from_columns([1.0, 2.0], [15.0], [0.0], [0.0], [True])

    @pytest.mark.parametrize("name", ["hc", "o2", "co", "co2", "exploded"])
    def test_columns_are_read_only(self, name):
        data = make_dataset(self.ROWS)
        column = getattr(data, name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
        with pytest.raises(AttributeError):
            setattr(data, name, column.copy())

    def test_folds_cannot_change_a_shared_dataset(self):
        data = make_dataset(self.ROWS)
        with pytest.raises(ValueError):
            data.subset([0, 1]).exploded[0] = False
        assert data.exploded.tolist() == [True, False, False, True]

    @pytest.mark.parametrize("config", [
        FeatureConfig(),
        FeatureConfig(ratio=RATIO_HC_OVER_O2),
        FeatureConfig(("hc", "o2", "co", "co2", "ratio")),
    ], ids=["o2_over_hc", "hc_over_o2", "with_co_co2"])
    def test_featurize_matches_per_sample_normalization_bitwise(self, config):
        data = generate(default_region(), n=300, seed=11, noise=0.1)
        # the generator's CO is constant; vary it so that its feature is not pinned to 0
        co = np.random.default_rng(11).uniform(0.0, 0.5, len(data))
        data = Dataset.from_columns(data.hc, data.o2, co, data.co2, data.exploded)
        params = fit_normalization(data, config)
        stacked = np.vstack([apply_normalization(params, s) for s in data])
        assert featurize(params, data).tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("ratio, column", [
        ("o2_over_hc", "hc"), (RATIO_HC_OVER_O2, "o2"),
    ])
    def test_zero_ratio_denominator_names_its_row(self, ratio, column):
        rows = [list(row) for row in self.ROWS * 2]
        rows[5][0 if column == "hc" else 1] = 0.0
        rows[6][0 if column == "hc" else 1] = 0.0
        data = make_dataset(rows)
        params = NormalizationParams(FeatureConfig(ratio=ratio),
                                     mins=(0.0, 0.0, 0.0), maxs=(1.0, 1.0, 1.0))
        with pytest.raises(DataFormatError,
                           match=rf"^undefined ratio: {column} is 0 in row 6$"):
            featurize(params, data)


class TestFeatureConfig:
    def test_default_attributes(self):
        assert FeatureConfig().attributes == ("hc", "o2", "ratio")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError, match="pressure"):
            FeatureConfig(("hc", "pressure"))

    def test_repeated_attribute_rejected(self):
        with pytest.raises(ValueError, match="attribute 'ratio' is repeated"):
            FeatureConfig(("hc", "o2", "ratio", "ratio"))

    def test_ratio_orientations(self):
        row = make_dataset([(2.0, 16.0, 0.0, 0.0, False)])
        assert FeatureConfig().raw_matrix(row)[0, 2] == 8.0
        flipped = FeatureConfig(ratio=RATIO_HC_OVER_O2)
        assert flipped.raw_matrix(row)[0, 2] == 0.125

    def test_zero_hc_ratio_undefined(self):
        row = make_dataset([(0.0, 16.0, 0.0, 0.0, False)])
        with pytest.raises(DataFormatError, match="undefined ratio: hc is 0 in row 1"):
            FeatureConfig().raw_matrix(row)

    @pytest.mark.parametrize("ratio,tiny,quotient", [
        ("o2_over_hc", 0, "o2/hc"), (RATIO_HC_OVER_O2, 1, "hc/o2"),
    ])
    def test_overflowing_ratio_names_its_row(self, ratio, tiny, quotient):
        rows = [[2.0, 16.0, 0.0, 0.0, False] for _ in range(3)]
        rows[1][tiny] = 1e-320  # passes every row rule, yet 16 / 1e-320 is inf
        rows[2][tiny] = 0.0
        with pytest.raises(DataFormatError, match=rf"^ratio {quotient} overflows in row 2$"):
            FeatureConfig(ratio=ratio).raw_matrix(make_dataset(rows))
        rows[0][tiny] = 0.0  # the first ratio that is not finite is the one named
        with pytest.raises(DataFormatError, match=r"^undefined ratio: \w+ is 0 in row 1$"):
            FeatureConfig(ratio=ratio).raw_matrix(make_dataset(rows))

    def test_raw_matrix_values(self):
        m = FeatureConfig().raw_matrix(SIMPLE)
        assert m.shape == (4, 3)
        assert m[0].tolist() == [1.84, 15.6, 15.6 / 1.84]


class TestNormalization:
    def test_min_max_stored(self):
        params = fit_normalization(SIMPLE)
        assert params.mins[0] == 0.5
        assert params.maxs[0] == 3.0

    def test_endpoint_mapping(self):
        params = fit_normalization(SIMPLE)
        X = featurize(params, SIMPLE)
        assert X.min(axis=0) == pytest.approx([-1.0, -1.0, -1.0], abs=1e-12)
        assert X.max(axis=0) == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_midpoint_maps_to_zero(self):
        config = FeatureConfig(("hc",))
        params = NormalizationParams(config, mins=(1.0,), maxs=(3.0,))
        assert params.transform(np.array([[2.0]]))[0, 0] == 0.0

    def test_constant_attribute_flagged_and_zeroed(self):
        data = make_dataset([(1.0, 15.0, 0.05, 0.0, True), (2.0, 16.0, 0.05, 0.0, False)])
        config = FeatureConfig(("hc", "co"))
        with pytest.warns(UserWarning, match="constant"):
            params = fit_normalization(data, config)
        assert params.constant_attributes == ("co",)
        X = featurize(params, data)
        assert np.all(X[:, 1] == 0.0)

    def test_out_of_range_values_map_outside(self):
        config = FeatureConfig(("hc",))
        params = NormalizationParams(config, mins=(1.0,), maxs=(3.0,))
        assert params.transform(np.array([[4.0]]))[0, 0] == pytest.approx(2.0)

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError, match="min > max"):
            NormalizationParams(FeatureConfig(("hc",)), mins=(3.0,), maxs=(1.0,))

    def test_apply_normalization_single_sample(self):
        params = fit_normalization(SIMPLE)
        vec = apply_normalization(params, next(iter(SIMPLE)))
        assert vec.shape == (3,)
        assert vec.tolist() == featurize(params, SIMPLE)[0].tolist()

    @given(
        values=st.lists(
            st.floats(min_value=0.01, max_value=50.0), min_size=2, max_size=30
        ).filter(lambda v: max(v) - min(v) > 1e-6)
    )
    @settings(max_examples=30)
    def test_affine_round_trip(self, values):
        config = FeatureConfig(("hc",))
        lo, hi = min(values), max(values)
        params = NormalizationParams(config, mins=(lo,), maxs=(hi,))
        raw = np.array(values)[:, None]
        normed = params.transform(raw)
        # invert: v = (v' * (max - min) + max + min) / 2
        recovered = (normed * (hi - lo) + hi + lo) / 2.0
        assert np.allclose(recovered, raw, rtol=1e-12, atol=1e-12)
        # order-preserving
        order = np.argsort(raw[:, 0])
        assert np.all(np.diff(normed[order, 0]) >= 0)


class TestTrainingSetChecks:
    """``fit_svm`` and ``fit_logistic`` refuse a bad training set with the
    same messages, each naming its own label encoding."""

    FITS = pytest.mark.parametrize("fit, negative, encoding", [
        (fit_svm, -1.0, "+1 / -1"),
        (fit_logistic, 0.0, "0 / 1"),
    ], ids=["svm", "logistic"])

    @FITS
    @pytest.mark.parametrize("edit, error, message", [
        (lambda X, y: (X, y[:2], 1e-3), ValueError,
         "features and labels disagree on sample count"),
        (lambda X, y: (np.where(X > 0.5, np.inf, X), y, 1e-3), ValueError,
         "feature row 1 is not finite"),
        (lambda X, y: (X, np.ones(3), 1e-3), SingleClassError,
         "training data contains a single class"),
        (lambda X, y: (X, y, 0.0), ValueError, "tol must be positive, got 0.0"),
    ], ids=["count", "row", "single", "tol"])
    def test_same_refusal(self, fit, negative, encoding, edit, error, message):
        X, y, tol = edit(np.array([[0.0], [1.0], [2.0]]), np.array([negative, 1.0, 1.0]))
        with pytest.raises(error) as caught:
            fit(X, y, tol=tol)
        assert str(caught.value) == message

    @FITS
    def test_labels_outside_the_encoding(self, fit, negative, encoding):
        with pytest.raises(ValueError) as caught:
            fit(np.array([[0.0], [1.0]]), np.array([negative, 2.0]))
        assert str(caught.value) == f"labels must be encoded as {encoding}"


def reference_features(config, data):
    """Raw attributes as a C-ordered (n, d) matrix, their column min/max, and
    the features (2 raw - hi - lo) / span, 0 for a constant attribute."""
    num, den = ("o2", "hc") if config.ratio != RATIO_HC_OVER_O2 else ("hc", "o2")
    raw = np.empty((len(data), len(config.attributes)))
    for j, name in enumerate(config.attributes):
        if name == "ratio":
            raw[:, j] = getattr(data, num) / getattr(data, den)
        else:
            raw[:, j] = getattr(data, name)
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    span = hi - lo
    features = (2.0 * raw - hi - lo) / np.where(span == 0, 1.0, span)
    features[:, span == 0] = 0.0
    return lo, hi, features


@pytest.mark.filterwarnings("ignore:constant attribute")
class TestFeatureLayout:
    """Attributes are held as rows inside, features come out C-ordered."""

    CONFIGS = [
        FeatureConfig(),
        FeatureConfig(RAW_COLUMNS + ("ratio",), ratio=RATIO_HC_OVER_O2),
        FeatureConfig(("co",)),
    ]
    CORPUS = generate(default_region(), n=500, seed=11, noise=0.05)

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("rows", [1, 3, 5, 500])
    def test_features_match_the_row_major_reference_bitwise(self, config, rows):
        data = self.CORPUS.subset(np.arange(rows))
        lo, hi, expected = reference_features(config, data)
        params = fit_normalization(data, config)
        assert params.mins == tuple(lo) and params.maxs == tuple(hi)
        X = featurize(params, data)
        assert X.shape == (rows, len(config.attributes))
        assert X.flags.c_contiguous
        assert X.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_transform_gives_c_order_for_either_input_layout(self, order):
        params = fit_normalization(self.CORPUS)
        raw = np.asarray(FeatureConfig().raw_matrix(self.CORPUS), order=order)
        out = params.transform(raw)
        assert out.flags.c_contiguous
        assert out.tobytes() == featurize(params, self.CORPUS).tobytes()


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(SIMPLE, path)
        back = load_csv(path)
        assert len(back) == len(SIMPLE)
        for a, b in zip(SIMPLE, back):
            assert (a.hc, a.o2, a.co, a.co2, a.exploded) == (b.hc, b.o2, b.co, b.co2, b.exploded)

    def test_field_measurement_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            f"{CSV_HEADER}\n1.84,15.6,0.05,18.4,1\n1.81,15.3,0.61,13.3,0\n"
        )
        data = load_csv(path)
        first, second = data
        assert first == GasSample(1.84, 15.6, 0.05, 18.4, True)
        assert second.exploded is False

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(f"# header next\n\n{CSV_HEADER}\n# a comment\n1.0,15.0,0.0,0.0,1\n")
        assert len(load_csv(path)) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c,d,e\n1,2,3,4,1\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_csv(path)

    def test_comment_lines_only_is_missing_its_header(self, tmp_path):
        path = tmp_path / "comments.csv"
        path.write_text("# one\n# two\n")
        with pytest.raises(DataFormatError, match=r"^missing header 'hc,o2,co,co2,exploded' in "):
            load_csv(path)

    def test_empty_after_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(f"{CSV_HEADER}\n")
        with pytest.raises(DataFormatError, match="empty dataset"):
            load_csv(path)

    def test_malformed_number_reports_physical_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"# note\n{CSV_HEADER}\n1.0,15.0,0.0,0.0,1\n1.x,15.0,0.0,0.0,0\n")
        with pytest.raises(DataFormatError, match="line 4"):
            load_csv(path)

    def test_underscored_number_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text(f"{CSV_HEADER}\n1_0,15.0,0.0,0.0,1\n")
        with pytest.raises(DataFormatError, match="malformed number"):
            load_csv(path)

    def test_bad_exploded_flag(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(f"{CSV_HEADER}\n1.0,15.0,0.0,0.0,yes\n")
        with pytest.raises(DataFormatError, match="exploded"):
            load_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(f"{CSV_HEADER}\n1.0,15.0,0.0,1\n")
        with pytest.raises(DataFormatError, match="expected 5 fields"):
            load_csv(path)

    def test_concentration_invariant_reported_with_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(f"{CSV_HEADER}\n60.0,50.0,0.0,0.0,1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(path)

    #: each case sits on physical line 7, after comments, blank lines and one
    #: good row, and is followed by another good row; the messages are the
    #: ones the per-row GasSample loader gave
    PARITY_PREFIX = f"# comment\n\n{CSV_HEADER}\n# inner comment\n1.0,15.0,0.05,10.0,1\n\n"

    @pytest.mark.parametrize("row, message", [
        ("1.0,-2.5,0.05,10.0,0", "line 7: o2 must be >= 0, got -2.5"),
        ("1.0,15.0,nan,10.0,0", "line 7: co must be finite, got nan"),
        ("inf,15.0,0.05,10.0,0", "line 7: hc must be finite, got inf"),
        ("1.0,15.0,0.05,-inf,0", "line 7: co2 must be finite, got -inf"),
        ("60.0,30.0,5.0,5.5,1", "line 7: concentrations sum to 100.5 vol %, above 100"),
        ("50.0,40.0,10.0,1e-6,1", "line 7: concentrations sum to 100 vol %, above 100"),
        ("1.0,15.0,0.05,10.0,yes", "line 7: exploded must be 0 or 1, got 'yes'"),
        ("1.0,15.0,0.05,1", "line 7: expected 5 fields, got 4"),
        ("1.0,15.0,0.05,1,1,1", "line 7: expected 5 fields, got 6"),
        ("1_0,15.0,0.05,10.0,1", "line 7: malformed number '1_0'"),
        ("1.0,,0.05,10.0,1", "line 7: malformed number ''"),
        # within a row: columns in order, finiteness before sign, sum last
        ("-1.0,nan,0.05,10.0,1", "line 7: hc must be >= 0, got -1.0"),
        ("90.0,15.0,nan,10.0,1", "line 7: co must be finite, got nan"),
        # across rows: the first bad row in file order, whatever its fault
        ("1.0,-15.0,0.05,10.0,1\n1.0,15.0,0.05,10.0,maybe",
         "line 7: o2 must be >= 0, got -15.0"),
        ("1.0,15.0,0.05,10.0,maybe\n1.0,-15.0,0.05,10.0,1",
         "line 7: exploded must be 0 or 1, got 'maybe'"),
    ])
    def test_malformed_rows_report_line_and_message(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{self.PARITY_PREFIX}{row}\n1.0,15.0,0.05,10.0,0\n")
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == message

    def test_sum_within_tolerance_of_100_is_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{CSV_HEADER}\n50.0,40.0,10.0,1e-12,1\n")
        assert len(load_csv(path)) == 1

    def test_fields_are_stripped(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(f"{CSV_HEADER}\n 1.0 , 15.0 ,0.05, 10.0 , 1 \n")
        assert tuple(load_csv(path)) == (GasSample(1.0, 15.0, 0.05, 10.0, True),)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_atomic_write_takes_chunks(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, iter(["a,", "b\n", "", "c\n"]))
        assert path.read_text() == "a,b\nc\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_chunk_source_failing_mid_write_leaves_the_old_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def chunks():
            yield "new,row\n" * 100_000  # past any write buffer: on disk already
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write_text(path, chunks())
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]


def reference_csv(data) -> bytes:
    """``write_csv``'s bytes, formatted here row by row."""
    rows = zip(*(getattr(data, name).tolist() for name in COLUMNS))
    lines = [f"{hc!r},{o2!r},{co!r},{co2!r},{int(e)}" for hc, o2, co, co2, e in rows]
    return "\n".join([CSV_HEADER, *lines, ""]).encode()


class TestBlocks:
    """Iteration and ``write_csv`` build Python rows one block at a time."""

    EDGES = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]

    @pytest.mark.parametrize("n", EDGES)
    def test_written_bytes_across_block_edges(self, tmp_path, n):
        data = generate(default_region(), n=n, seed=n, noise=0.1)
        path = tmp_path / "edge.csv"
        write_csv(data, path)
        assert path.read_bytes() == reference_csv(data)

    @pytest.mark.parametrize("n", EDGES)
    def test_iteration_across_block_edges(self, n):
        data = generate(default_region(), n=n, seed=n, noise=0.1)
        rows = tuple(data)
        columns = zip(*(getattr(data, name).tolist() for name in COLUMNS))
        assert rows == tuple(GasSample(*row) for row in columns)
        assert {type(getattr(s, name)) for s in rows for name in RAW_COLUMNS} == {float}
        assert {type(s.exploded) for s in rows} == {bool}

    @pytest.fixture(scope="class")
    def corpus_100k(self):
        return generate(default_region(), n=100_000, seed=5, noise=0.05)

    def test_write_memory_is_one_block(self, tmp_path, corpus_100k):
        # the 9 MB file took 33 MB when formatted whole
        assert traced_peak_mb(lambda: write_csv(corpus_100k, tmp_path / "big.csv")) < 4.0

    def test_iteration_keeps_no_rows(self, corpus_100k):
        # 24.5 MB when every row stayed cached on the dataset
        assert traced_peak_mb(lambda: sum(1 for _ in corpus_100k)) < 4.0


def parse_outcome(load, path):
    """The Dataset a loader returns, or the message of the error it raises."""
    try:
        return load(path)
    except DataFormatError as exc:
        return str(exc)


def load_by_lines(path):
    """``load_csv`` with the plain path refused, so every file takes the
    line-by-line parser."""
    with mock.patch.object(gasgate.data, "_parse_plain", lambda raw: None):
        return load_csv(path)


def assert_matches_strict_parser(path):
    """``load_csv`` gives the line-by-line parser's Dataset bitwise, or its message.

    Returns what ``load_csv`` gave.
    """
    want = parse_outcome(load_by_lines, path)
    got = parse_outcome(load_csv, path)
    if isinstance(want, str):
        assert got == want
        return got
    assert not isinstance(got, str), got
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.provenance == want.provenance
    return got


class TestPlainFastPath:
    """Files in ``write_csv``'s plain form take NumPy's C parser; others do not."""

    GOOD = "1.0,15.0,0.05,10.0,1\n"

    def test_written_corpus_takes_the_fast_path(self, tmp_path, monkeypatch):
        data = generate(default_region(), n=300, seed=4, noise=0.1)
        path = tmp_path / "plain.csv"
        write_csv(data, path)
        expected = load_by_lines(path)

        def refuse(raw, path):
            raise AssertionError("plain file fell back to the line parser")

        monkeypatch.setattr(gasgate.data, "_parse_lines", refuse)
        back = load_csv(path)
        for name in COLUMNS:
            assert getattr(back, name).tobytes() == getattr(expected, name).tobytes()
            assert getattr(back, name).tobytes() == getattr(data, name).tobytes()
            assert getattr(back, name).flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            back.hc[0] = 1.0

    CASES = [
        # plain form: the C parser reads it and the row checks name line k + 2
        (f"{GOOD}1e400,15.0,0.05,10.0,0\n{GOOD}", True,
         "line 3: hc must be finite, got inf"),
        (f"{GOOD}1.0,-2.5,0.05,10.0,0\n{GOOD}", True,
         "line 3: o2 must be >= 0, got -2.5"),
        (f"{GOOD}60.0,30.0,5.0,5.5,1\n{GOOD}", True,
         "line 3: concentrations sum to 100.5 vol %, above 100"),
        (f"{GOOD}4.9e-324,+.5e-3,1.,.5E1,0\n", True, None),
        # anything else falls back to the line parser
        ("", False, "empty dataset"),
        (GOOD.rstrip("\n"), False, None),
        (f"{GOOD}\n{GOOD}", False, None),
        (f"{GOOD}".replace("\n", "\r\n"), False, None),
        (f"# note\n{GOOD}", False, None),
        (f" {GOOD.strip()} \n", False, None),
        (f"{GOOD}1.0,15.0,0.05,10.0,1.0\n", False,
         "line 3: exploded must be 0 or 1, got '1.0'"),
        (f"{GOOD}1.0,15.0,0.05,10.0,01\n", False,
         "line 3: exploded must be 0 or 1, got '01'"),
        (f"{GOOD}1.0,15.0,0.05,10.0,+1\n", False,
         "line 3: exploded must be 0 or 1, got '+1'"),
        (f"{GOOD}1.0,15.0,0.05,10.0,-0\n", False,
         "line 3: exploded must be 0 or 1, got '-0'"),
        (f"{GOOD}1.0,15.0,0.05,10.0,2\n", False,
         "line 3: exploded must be 0 or 1, got '2'"),
        (f"{GOOD}1.0,15.0,0.05,0\n{GOOD}", False, "line 3: expected 5 fields, got 4"),
        ("1.0,15.0,0.05,0\n1.0,15.0,0.05,1\n", False, "line 2: expected 5 fields, got 4"),
        (f"{GOOD}1.0,15.0,0.05,10.0,1,0\n", False, "line 3: expected 5 fields, got 6"),
        ("1.0,15.0,0.05,10.0,1,0\n", False, "line 2: expected 5 fields, got 6"),
        (f"{GOOD}1.0,,0.05,10.0,1\n", False, "line 3: malformed number ''"),
        (f"{GOOD}1.0,15.0,nan,10.0,0\n", False, "line 3: co must be finite, got nan"),
        (f"{GOOD}1_0,15.0,0.05,10.0,1\n", False, "line 3: malformed number '1_0'"),
        (f"{GOOD}1e,15.0,0.05,10.0,1\n", False, "line 3: malformed number '1e'"),
        (f"{GOOD}--1,15.0,0.05,10.0,1\n", False, "line 3: malformed number '--1'"),
        # loadtxt reads 1.0 here; str.splitlines breaks the line at \x1c
        (f"{GOOD}1.0\x1c,15.0,0.05,10.0,1\n", False, "line 3: expected 5 fields, got 1"),
        # the same faults on a last line without a newline, whose end the
        # line-end check does not see
        (f"{GOOD}1.0,15.0,0.05,10.0,2", False,
         "line 3: exploded must be 0 or 1, got '2'"),
        (f"{GOOD}1.0,15.0,0.05,10.0,1.0", False,
         "line 3: exploded must be 0 or 1, got '1.0'"),
        (f"{GOOD}1.0,15.0,0.05,10.0,01", False,
         "line 3: exploded must be 0 or 1, got '01'"),
        (f"{GOOD}1.0,15.0,0.05,10.0,1,0", False, "line 3: expected 5 fields, got 6"),
        (f"{GOOD}\n1.0,15.0,0.05,10.0,2\n", False,
         "line 4: exploded must be 0 or 1, got '2'"),
    ]

    @pytest.mark.parametrize("body, fast, message", CASES)
    def test_fast_path_matches_the_line_parser(self, tmp_path, body, fast, message):
        path = tmp_path / "case.csv"
        path.write_bytes(f"{CSV_HEADER}\n{body}".encode())
        assert (gasgate.data._parse_plain(path.read_bytes()) is not None) == fast
        outcome = assert_matches_strict_parser(path)
        if message is None:
            assert not isinstance(outcome, str), outcome
        else:
            assert outcome == message

    @pytest.mark.parametrize("scan_bytes", [1, 2, 3, 64])
    def test_line_ends_checked_in_slices(self, tmp_path, monkeypatch, scan_bytes):
        # each case, and a written corpus, behaves as when one slice covers it
        monkeypatch.setattr(gasgate.data, "_SCAN_BYTES", scan_bytes)
        path = tmp_path / "case.csv"
        for body, fast, message in self.CASES:
            path.write_bytes(f"{CSV_HEADER}\n{body}".encode())
            assert (gasgate.data._parse_plain(path.read_bytes()) is not None) == fast
            outcome = assert_matches_strict_parser(path)
            assert outcome == message if message else not isinstance(outcome, str)
        write_csv(generate(default_region(), n=300, seed=4, noise=0.1), path)
        assert gasgate.data._parse_plain(path.read_bytes()) is not None

    def test_line_parser_memory_is_a_few_times_the_file(self, tmp_path):
        # 3.9 times the file's bytes; building the rows as a list of tuples
        # before the table would take 7.5
        path = tmp_path / "lines.csv"
        write_csv(generate(default_region(), n=20_000, seed=5, noise=0.05), path)
        path.write_bytes(b"# lead\n" + path.read_bytes())
        file_mb = path.stat().st_size / 2**20
        assert traced_peak_mb(lambda: load_csv(path)) <= 5 * file_mb

    @pytest.mark.parametrize("n", [20_000, 50_000])
    def test_plain_file_memory_is_below_twice_the_file(self, tmp_path, n):
        # 1.79 and 1.77 times the file's bytes; deleting the plain bytes from
        # the whole file at once, not a slice at a time, would take 2.00
        path = tmp_path / "plain.csv"
        write_csv(generate(default_region(), n=n, seed=5, noise=0.05), path)
        file_mb = path.stat().st_size / 2**20
        assert traced_peak_mb(lambda: load_csv(path)) <= 1.9 * file_mb

    def test_byte_order_mark_is_not_stripped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(f"\ufeff{CSV_HEADER}\n{self.GOOD}".encode())
        assert_matches_strict_parser(path)
        with pytest.raises(DataFormatError, match="^line 1: expected header"):
            load_csv(path)

    @pytest.mark.parametrize("raw, message", [
        (b"1.0,20.0,0,0,1\xff\n", "line 2: not UTF-8 (byte 0xff)"),
        # a valid multi-byte comment and a CRLF before the bad lead byte
        (b"# caf\xc3\xa9\r\n1.0,20.0,0,0,1\n\xc3(,20.0,0,0,1\n",
         "line 4: not UTF-8 (byte 0xc3)"),
    ])
    def test_non_utf8_byte_names_its_line(self, tmp_path, raw, message):
        path = tmp_path / "latin.csv"
        path.write_bytes(f"{CSV_HEADER}\n".encode() + raw)
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == message

    #: a byte replaced in written output: the plain alphabet plus a few others
    SWAP_BYTES = b"0123456789.,+-eE\n" + b" #_\rnx\x1c\xff"

    @given(
        rows=st.lists(
            st.tuples(*[st.floats(min_value=0.0, max_value=25.0)] * 4, st.booleans()),
            min_size=1, max_size=12,
        ),
        swap=st.none() | st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                   st.sampled_from(SWAP_BYTES)),
    )
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_written_files_and_one_byte_edits_match_the_line_parser(
            self, tmp_path, rows, swap):
        path = tmp_path / "written.csv"
        write_csv(make_dataset(rows), path)
        if swap is None:
            assert gasgate.data._parse_plain(path.read_bytes()) is not None
        else:
            raw = bytearray(path.read_bytes())
            where, byte = swap
            raw[int(where * len(raw))] = byte
            path.write_bytes(bytes(raw))
        assert_matches_strict_parser(path)
