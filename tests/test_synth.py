import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasgate.data import load_csv, write_csv
from gasgate.errors import GenerationError
from gasgate.synth import (
    DEFAULT_LIMIT_KNOTS,
    DEFAULT_O2_WINDOW,
    OracleRegion,
    default_region,
    generate,
)

REGION = default_region()

# (o2, lower, upper) anchors with their widths, checked as frozen values
ANCHORS = [
    (15.0, 1.0668, 1.5491, 0.4823),
    (16.0, 0.89729, 1.9645, 1.06721),
    (18.0, 0.76653, 2.5871, 1.82057),
    (20.0, 0.70066, 3.1448, 2.44414),
]


class TestRegionGeometry:
    @pytest.mark.parametrize("o2,lo,hi,width", ANCHORS)
    def test_limits_at_anchor_levels(self, o2, lo, hi, width):
        assert REGION.lower(o2) == pytest.approx(lo, abs=1e-12)
        assert REGION.upper(o2) == pytest.approx(hi, abs=1e-12)
        assert REGION.upper(o2) - REGION.lower(o2) == pytest.approx(width, abs=1e-9)

    def test_limits_interpolate_between_anchors(self):
        assert REGION.lower(17.0) == pytest.approx((0.89729 + 0.76653) / 2, abs=1e-12)
        assert REGION.upper(17.0) == pytest.approx((1.9645 + 2.5871) / 2, abs=1e-12)

    def test_limits_extrapolate_flat(self):
        assert REGION.lower(12.5) == REGION.lower(15.0)
        assert REGION.upper(20.9) == REGION.upper(20.0)

    def test_width_grows_with_oxygen(self):
        o2 = np.linspace(15.0, 20.0, 50)
        assert np.all(np.diff(REGION.upper(o2) - REGION.lower(o2)) > 0)

    def test_window_bounds_are_inclusive(self):
        lo, hi = DEFAULT_O2_WINDOW
        hc = 1.2
        assert REGION.contains(hc, lo)
        assert REGION.contains(hc, hi)
        assert not REGION.contains(hc, lo - 1e-9)
        assert not REGION.contains(hc, hi + 1e-9)

    def test_membership_examples(self):
        assert REGION.contains(1.2, 15.0)       # inside the band
        assert not REGION.contains(1.0, 15.0)   # below the lower limit
        assert not REGION.contains(1.6, 15.0)   # above the upper limit
        assert not REGION.contains(1.2, 11.0)   # outside the window
        assert REGION.contains(1.0668, 15.0)    # limits are explosive

    def test_contains_is_vectorized(self):
        flags = REGION.contains([1.2, 1.2, 0.1], [15.0, 11.0, 15.0])
        assert flags.tolist() == [True, False, False]


class TestRegionValidation:
    def test_mismatched_limit_lists(self):
        with pytest.raises(ValueError, match="equal length"):
            OracleRegion((15.0, 16.0), (1.0,), (2.0, 3.0))

    def test_knots_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            OracleRegion((16.0, 15.0), (1.0, 1.0), (2.0, 2.0))

    def test_lower_below_upper(self):
        with pytest.raises(ValueError, match="below upper"):
            OracleRegion((15.0,), (2.0,), (1.5,))

    def test_positive_lower_limits(self):
        with pytest.raises(ValueError, match="positive"):
            OracleRegion((15.0,), (0.0,), (1.5,))

    def test_window_width(self):
        with pytest.raises(ValueError, match="positive width"):
            OracleRegion((15.0,), (1.0,), (1.5,), o2_window=(20.0, 20.0))

    def test_default_knot_table_is_stable(self):
        assert DEFAULT_LIMIT_KNOTS[0] == (15.0, 1.0668, 1.5491)
        assert len(DEFAULT_LIMIT_KNOTS) == 4


class TestGenerate:
    def test_exact_positive_count(self, oracle_corpus):
        n_pos, n_neg = oracle_corpus.class_counts()
        assert (n_pos, n_neg) == (390, 110)

    def test_deterministic_per_seed(self):
        a = generate(REGION, n=50, seed=9)
        b = generate(REGION, n=50, seed=9)
        assert tuple(a) == tuple(b)
        c = generate(REGION, n=50, seed=10)
        assert tuple(a) != tuple(c)

    def test_zero_noise_labels_match_the_oracle(self, oracle_corpus):
        for s in oracle_corpus:
            assert s.exploded == REGION.contains(s.hc, s.o2)

    def test_noise_flips_a_bounded_share(self):
        clean = generate(REGION, n=400, seed=12, noise=0.0)
        noisy = generate(REGION, n=400, seed=12, noise=0.10)
        flips = sum(
            a.exploded != b.exploded for a, b in zip(clean, noisy)
        )
        assert 0.04 * 400 <= flips <= 0.16 * 400

    def test_concentration_ranges(self, oracle_corpus):
        for s in oracle_corpus:
            assert 0.2 <= s.hc <= 4.0
            assert 12.0 <= s.o2 <= 21.0
            assert s.co == 0.05
            assert s.co2 == pytest.approx(max(0.0, 33.0 - s.o2))

    def test_provenance_records_the_draw(self, oracle_corpus):
        assert oracle_corpus.provenance == "synthetic(seed=42,n=500,noise=0.0)"

    def test_unreachable_fraction_raises(self):
        # a band above the drawn HC span (0.2 to 4.0) admits no positive
        above = OracleRegion((15.0,), (4.5,), (5.0,))
        with pytest.raises(GenerationError, match="unreachable"):
            generate(above, n=20, seed=0)

    @pytest.mark.parametrize("frac, empty", [(0.01, "explosive"), (0.049, "explosive"),
                                             (0.95, "safe"), (0.999, "safe")])
    def test_fraction_rounding_a_class_to_no_row_raises(self, frac, empty, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(GenerationError,
                           match=f"^10 rows at positive fraction {frac} leave no {empty} row$"):
            generate(REGION, n=10, seed=0, positive_fraction=frac)

    @pytest.mark.parametrize("frac, counts", [(0.05, (1, 9)), (0.94, (9, 1))])
    def test_fraction_leaving_one_row_in_a_class_is_drawn(self, frac, counts):
        assert generate(REGION, n=10, seed=0, positive_fraction=frac).class_counts() == counts

    def test_round_trips_through_csv(self, tmp_path):
        data = generate(REGION, n=30, seed=4, noise=0.05)
        path = tmp_path / "corpus.csv"
        write_csv(data, path)
        back = load_csv(path)
        assert tuple(back) == tuple(data)

    @pytest.mark.parametrize(
        "kw",
        [
            {"n": 5},
            {"noise": -0.1},
            {"noise": 0.5},
            {"positive_fraction": 0.0},
            {"positive_fraction": 1.0},
        ],
    )
    def test_bad_arguments(self, kw):
        base = dict(n=20, seed=0)
        base.update(kw)
        with pytest.raises(ValueError):
            generate(REGION, **base)

    @given(
        seed=st.integers(0, 10_000),
        frac=st.floats(0.3, 0.9),
    )
    @settings(max_examples=15, deadline=None)
    def test_positive_share_hits_the_rounded_target(self, seed, frac):
        n = 40
        data = generate(REGION, n=n, seed=seed, positive_fraction=frac)
        assert data.class_counts()[0] == int(np.floor(n * frac + 0.5))
