import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasgate.data import (
    CSV_HEADER,
    Dataset,
    FeatureConfig,
    GasSample,
    NormalizationParams,
    RATIO_HC_OVER_O2,
    apply_normalization,
    atomic_write_text,
    encode_labels,
    featurize,
    fit_normalization,
    load_csv,
    split_train_test,
    write_csv,
)
from gasgate.errors import DataFormatError
from gasgate.synth import default_region, generate


def make_dataset(rows):
    return Dataset(tuple(GasSample(*row) for row in rows))


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

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_concentration(self, bad):
        with pytest.raises(DataFormatError):
            GasSample(bad, 15.0, 0.0, 0.0, False)

    def test_rejects_sum_above_100(self):
        with pytest.raises(DataFormatError, match="100"):
            GasSample(50.0, 40.0, 10.0, 5.0, False)

    def test_sum_exactly_100_is_fine(self):
        GasSample(50.0, 40.0, 10.0, 0.0, False)


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(DataFormatError, match="empty"):
            Dataset(())

    def test_class_counts_and_labels(self):
        assert SIMPLE.class_counts() == (2, 2)
        assert SIMPLE.exploded.tolist() == [True, False, False, True]

    def test_subset_preserves_order(self):
        sub = SIMPLE.subset([3, 0])
        assert sub.samples[0].hc == 3.0
        assert sub.samples[1].hc == 1.84


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
        assert sub.samples == tuple(GasSample(*self.ROWS[i]) for i in idx)
        assert list(sub) == list(sub.samples)
        assert sub.samples is sub.samples  # materialised once

    def test_from_columns_round_trips_to_samples(self):
        data = Dataset.from_columns(*zip(*self.ROWS), provenance="cols")
        assert data.samples == tuple(GasSample(*row) for row in self.ROWS)
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

    def test_featurize_matches_per_sample_normalization_bitwise(self):
        data = generate(default_region(), n=300, seed=11, noise=0.1)
        params = fit_normalization(data)
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

    def test_ratio_orientations(self):
        s = GasSample(2.0, 16.0, 0.0, 0.0, False)
        assert FeatureConfig().raw_value(s, "ratio") == 8.0
        flipped = FeatureConfig(ratio=RATIO_HC_OVER_O2)
        assert flipped.raw_value(s, "ratio") == 0.125

    def test_zero_hc_ratio_undefined(self):
        s = GasSample(0.0, 16.0, 0.0, 0.0, False)
        with pytest.raises(DataFormatError, match="undefined ratio"):
            FeatureConfig().raw_value(s, "ratio")

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
        vec = apply_normalization(params, SIMPLE.samples[0])
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
        assert data.samples[0] == GasSample(1.84, 15.6, 0.05, 18.4, True)
        assert data.samples[1].exploded is False

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
        assert load_csv(path).samples == (GasSample(1.0, 15.0, 0.05, 10.0, True),)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestLabelsAndSplit:
    def test_encode_zero_one(self):
        assert encode_labels(SIMPLE, "zero-one").tolist() == [1, 0, 0, 1]

    def test_encode_plus_minus_one(self):
        assert encode_labels(SIMPLE, "plus-minus-one").tolist() == [1, -1, -1, 1]

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown label scheme"):
            encode_labels(SIMPLE, "signed")

    def test_split_sizes_58_80(self):
        data = make_dataset([(1.0 + 0.01 * i, 15.0, 0.0, 0.0, i % 2 == 0) for i in range(58)])
        train, test = split_train_test(data, 0.8, seed=0)
        assert (len(train), len(test)) == (46, 12)

    def test_split_sizes_5_80(self):
        data = make_dataset([(1.0 + 0.01 * i, 15.0, 0.0, 0.0, False) for i in range(5)])
        train, test = split_train_test(data, 0.8, seed=1)
        assert (len(train), len(test)) == (4, 1)

    def test_split_partitions(self):
        train, test = split_train_test(SIMPLE, 0.5, seed=9)
        seen = sorted(s.hc for s in train) + sorted(s.hc for s in test)
        assert sorted(seen) == sorted(s.hc for s in SIMPLE)

    def test_split_deterministic(self):
        a = split_train_test(SIMPLE, 0.5, seed=5)
        b = split_train_test(SIMPLE, 0.5, seed=5)
        assert [s.hc for s in a[0]] == [s.hc for s in b[0]]

    def test_split_empty_side_rejected(self):
        data = make_dataset([(1.0, 15.0, 0.0, 0.0, True), (2.0, 15.0, 0.0, 0.0, False)])
        with pytest.raises(ValueError, match="empty side"):
            split_train_test(data, 0.05, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="train_fraction"):
            split_train_test(SIMPLE, 1.5, seed=0)
