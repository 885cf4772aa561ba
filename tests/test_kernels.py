import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import gasgate.kernels
from gasgate.kernels import KERNEL_KINDS, KernelRows, KernelSpec, kernel_matrix
from gasgate.svm import PenaltyConfig, SvmModel


def pair_value(spec, a, b) -> float:
    """Kernel value of one pair, as a 1 x 1 ``kernel_matrix``."""
    return float(kernel_matrix(spec, [a], [b])[0, 0])


ALL_SPECS = [
    KernelSpec("linear"),
    KernelSpec("polynomial", gamma=0.5, coef0=1.0, degree=3),
    KernelSpec("rbf", gamma=0.5),
    KernelSpec("sigmoid", gamma=0.1, coef0=-0.2),
]


class TestSpec:
    def test_defaults(self):
        spec = KernelSpec()
        assert (spec.kind, spec.gamma, spec.coef0, spec.degree) == ("rbf", None, 0.0, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelSpec("quartic")

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_nonpositive_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec("rbf", gamma=gamma)

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("gamma", [np.inf, -np.inf, np.nan])
    def test_non_finite_gamma(self, kind, gamma):
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec(kind, gamma=gamma)

    @pytest.mark.parametrize("kind", ["sigmoid", "polynomial", "linear"])
    @pytest.mark.parametrize("coef0", [np.inf, -np.inf, np.nan])
    def test_non_finite_coef0(self, kind, coef0):
        with pytest.raises(ValueError, match="coef0 must be finite"):
            KernelSpec(kind, gamma=1.0, coef0=coef0)

    def test_degree_validated(self):
        with pytest.raises(ValueError, match="degree"):
            KernelSpec("polynomial", gamma=1.0, degree=0)

    def test_linear_ignores_gamma(self):
        assert not KernelSpec("linear").uses_gamma

    def test_resolved_fills_reciprocal_dimension(self):
        assert KernelSpec("rbf").resolved(4).gamma == 0.25
        assert KernelSpec("rbf", gamma=2.0).resolved(4).gamma == 2.0
        assert KernelSpec("linear").resolved(4).gamma is None

    def test_unresolved_gamma_rejected_at_eval(self):
        with pytest.raises(ValueError, match="unresolved"):
            pair_value(KernelSpec("rbf"), [1.0], [2.0])


class TestPointValues:
    def test_rbf_identical_points_give_one(self):
        spec = KernelSpec("rbf", gamma=0.5)
        assert pair_value(spec, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_rbf_hand_value(self):
        spec = KernelSpec("rbf", gamma=0.5)
        got = pair_value(spec, [0.0, 0.0], [1.0, 1.0])
        assert got == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_linear_dot_product(self):
        got = pair_value(KernelSpec("linear"), [1.0, 2.0, 0.0], [3.0, 4.0, 0.0])
        assert got == 11.0

    def test_sigmoid_zero_argument(self):
        spec = KernelSpec("sigmoid", gamma=1.0, coef0=0.0)
        assert pair_value(spec, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_polynomial_hand_value(self):
        spec = KernelSpec("polynomial", gamma=1.0, coef0=1.0, degree=2)
        # (1*2 + 1)^2 = 9
        assert pair_value(spec, [1.0], [2.0]) == 9.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pair_value(KernelSpec("linear"), [1.0, 2.0], [1.0])


class TestMatrix:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_matrix_matches_pointwise(self, spec, rng):
        A = rng.normal(size=(5, 3))
        B = rng.normal(size=(4, 3))
        K = kernel_matrix(spec, A, B)
        assert K.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                # bitwise: a value does not depend on the matrix around it
                assert K[i, j] == pair_value(spec, A[i], B[j])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_self_gram_symmetric(self, spec, rng):
        A = rng.normal(size=(6, 3))
        K = kernel_matrix(spec, A)
        assert np.allclose(K, K.T, atol=1e-12)

    @pytest.mark.parametrize(
        "spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.7)], ids=lambda s: s.kind
    )
    def test_gram_positive_semidefinite(self, spec, rng):
        A = rng.normal(size=(8, 3))
        K = kernel_matrix(spec, A)
        eigvals = np.linalg.eigvalsh(K)
        assert eigvals.min() >= -1e-9

    def test_rbf_values_bounded(self, rng):
        A = rng.normal(size=(10, 2)) * 50
        K = kernel_matrix(KernelSpec("rbf", gamma=1.0), A)
        assert np.all(K >= 0) and np.all(K <= 1.0)
        assert np.all(np.diag(K) == 1.0)

    def test_mismatched_widths(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel_matrix(KernelSpec("linear"), rng.normal(size=(3, 2)), rng.normal(size=(3, 4)))


def row_bytes(n, rows):
    return 8 * n * rows


class TestKernelRows:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_rows_and_diagonal_equal_the_gram_bitwise(self, spec, rng):
        # 9 columns: the Gram is built with the default ufunc buffer
        X = rng.normal(size=(9, 3))
        K = kernel_matrix(spec, X)
        rows = KernelRows(spec, X, row_bytes(9, 2))
        assert np.array_equal(rows.diagonal, K.diagonal())
        for i in (4, 0, 8, 4, 3, 0):
            assert np.array_equal(rows.row(i), K[i])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_rows_equal_a_gram_built_unbuffered_bitwise(self, spec, rng):
        # 300 columns: the Gram is built with the smallest ufunc buffer, the
        # rows with the default one
        X = rng.normal(size=(300, 5))
        K = kernel_matrix(spec, X)
        rows = KernelRows(spec, X, row_bytes(300, 4))
        assert np.array_equal(rows.diagonal, K.diagonal())
        for i in (0, 299, 17, 150, 0):
            assert np.array_equal(rows.row(i), K[i])

    def test_capacity_follows_the_budget(self, rng):
        X = rng.normal(size=(10, 2))
        spec = KernelSpec("linear")
        assert KernelRows(spec, X, row_bytes(10, 3)).capacity == 3
        assert KernelRows(spec, X, row_bytes(10, 3) + 79).capacity == 3
        assert KernelRows(spec, X, 1).capacity == 2  # a pair always fits
        assert KernelRows(spec, X, 1e12).capacity == 10
        assert KernelRows(spec, X, np.inf).capacity == 10  # no ceiling

    def test_reserve_never_shrinks_the_limit_nor_passes_capacity(self, rng):
        spec = KernelSpec("linear")
        rows = KernelRows(spec, rng.normal(size=(200, 2)), row_bytes(200, 150))
        assert (rows.capacity, rows.limit) == (150, 64)
        for asked, limit in [(10, 64), (100, 100), (64, 100), (0, 100),
                             (149, 149), (151, 150), (10**9, 150), (100, 150)]:
            rows.reserve(asked)
            assert rows.limit == limit
        small = KernelRows(spec, rng.normal(size=(200, 2)), row_bytes(200, 3))
        assert small.limit == 3
        small.reserve(100)
        assert small.limit == 3

    def test_rows_fill_up_to_the_limit_then_evict(self, rng):
        n = 200
        X = rng.normal(size=(n, 2))
        spec = KernelSpec("rbf", gamma=0.5)
        rows = KernelRows(spec, X, 1e9)
        assert rows.capacity == n
        for i in range(64):
            rows.row(i)
        assert rows.rows_held == 64
        rows.row(64)  # row 0, the least recently read, gives up its slot
        assert (rows.rows_held, rows.rows_computed) == (64, 65)
        rows.row(1)
        assert rows.rows_computed == 65
        rows.row(0)
        assert rows.rows_computed == 66
        rows.reserve(100)
        for i in range(100, 150):
            rows.row(i)
        assert (rows.rows_held, rows.rows_computed) == (100, 116)
        # only the first ``limit`` slots of the slab were ever written, each
        # holding one row
        held = {view.ctypes.data for view in rows._rows.values()}
        assert held == {rows._slab[k].ctypes.data for k in range(100)}
        assert np.array_equal(rows.row(120), kernel_matrix(spec, X)[120])

    def test_least_recently_read_row_is_evicted(self, rng):
        X = rng.normal(size=(6, 2))
        spec = KernelSpec("rbf", gamma=0.5)
        rows = KernelRows(spec, X, row_bytes(6, 2))
        rows.row(0)
        rows.row(1)
        rows.row(0)  # now row 1 is the least recently read
        rows.row(2)
        assert rows.rows_computed == 3 and rows.rows_held == 2
        rows.row(0)
        assert rows.rows_computed == 3  # still held
        rows.row(1)
        assert rows.rows_computed == 4
        assert np.array_equal(rows.row(1), kernel_matrix(spec, X)[1])

    def test_invalid_budget_and_unresolved_gamma(self, rng):
        X = rng.normal(size=(4, 2))
        with pytest.raises(ValueError, match="budget"):
            KernelRows(KernelSpec("linear"), X, 0)
        with pytest.raises(ValueError, match="unresolved"):
            KernelRows(KernelSpec("rbf"), X, 1e6)

CALLER_BUFSIZE = 4096  # not NumPy's default, so a restore to the default shows


@pytest.fixture
def caller_bufsize():
    old = np.setbufsize(CALLER_BUFSIZE)
    yield CALLER_BUFSIZE
    np.setbufsize(old)


@pytest.fixture
def evaluation_bufsizes(monkeypatch):
    """The ufunc buffer size of every kernel evaluation, with its shape."""
    seen = []
    evaluate = gasgate.kernels._evaluate

    def recording(spec, a_cols, b_cols, out):
        seen.append((out.shape, np.getbufsize()))
        return evaluate(spec, a_cols, b_cols, out)

    monkeypatch.setattr(gasgate.kernels, "_evaluate", recording)
    return seen


def score_model(rng, n_sv: int) -> SvmModel:
    return SvmModel(
        support_vectors=rng.normal(size=(n_sv, 5)),
        dual_coef=rng.uniform(0.1, 1.0, n_sv) * rng.choice([-1.0, 1.0], n_sv),
        bias=0.25,
        kernel=KernelSpec("rbf", gamma=0.5),
        penalties=PenaltyConfig(1.0, 1.0),
    )


class TestUfuncBuffer:
    """Wide kernel blocks run with NumPy's smallest ufunc buffer, everything
    else with the caller's, which is restored on every exit."""

    def test_wide_blocks_run_with_the_smallest_buffer(
            self, rng, caller_bufsize, evaluation_bufsizes):
        kernel_matrix(KernelSpec("rbf", gamma=0.5), rng.normal(size=(7, 5)),
                      rng.normal(size=(200, 5)))
        assert evaluation_bufsizes == [((7, 200), 16)]
        assert np.getbufsize() == caller_bufsize

    def test_narrow_blocks_and_rows_keep_the_callers_buffer(
            self, rng, caller_bufsize, evaluation_bufsizes):
        spec = KernelSpec("rbf", gamma=0.5)
        kernel_matrix(spec, rng.normal(size=(7, 5)), rng.normal(size=(32, 5)))
        rows = KernelRows(spec, rng.normal(size=(200, 5)), 1e9)
        rows.row(3)
        rows.row(150)
        assert evaluation_bufsizes == [((7, 32), caller_bufsize), ((200,), caller_bufsize),
                                       ((200,), caller_bufsize), ((200,), caller_bufsize)]
        assert np.getbufsize() == caller_bufsize

    @pytest.mark.parametrize("n_sv,expected", [(200, 16), (32, CALLER_BUFSIZE)])
    def test_scoring_blocks_follow_the_support_vector_count(
            self, rng, n_sv, expected, caller_bufsize, evaluation_bufsizes, monkeypatch):
        monkeypatch.setattr("gasgate.svm._SCORE_BLOCK_BYTES", 8 * 10 * n_sv)  # 10 rows
        set_sizes = []
        setbufsize = np.setbufsize

        def counting(size):
            set_sizes.append(size)
            return setbufsize(size)

        monkeypatch.setattr(np, "setbufsize", counting)
        score_model(rng, n_sv).decision_values(rng.normal(size=(35, 5)))
        assert [size for _, size in evaluation_bufsizes] == [expected] * 4
        # once for all four blocks, then the restore
        assert set_sizes == ([16, caller_bufsize] if expected == 16 else [])
        assert np.getbufsize() == caller_bufsize

    def test_scores_do_not_depend_on_the_buffer(self, rng):
        model = score_model(rng, 300)
        X = rng.normal(size=(40, 5))
        K = kernel_matrix(model.kernel, X, model.support_vectors)
        # einsum here runs with the default buffer, in decision_values with
        # the smallest one
        expected = np.einsum("ij,j->i", K, model.dual_coef) + model.bias
        assert np.array_equal(model.decision_values(X), expected)

    def test_a_rejected_call_leaves_the_buffer_alone(self, rng, caller_bufsize):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel_matrix(KernelSpec("linear"), rng.normal(size=(3, 2)),
                          rng.normal(size=(300, 4)))
        assert np.getbufsize() == caller_bufsize

    @pytest.mark.parametrize("width", [4, 32, 127, 128, 491, 3000])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_values_do_not_depend_on_the_buffer(self, spec, width, rng, monkeypatch):
        A = rng.normal(size=(50, 5))
        B = rng.normal(size=(width, 5))
        chosen = kernel_matrix(spec, A, B)
        monkeypatch.setattr(gasgate.kernels, "_UNBUFFERED_MIN_COLS", sys.maxsize)
        for bufsize in (8192, 16):
            old = np.setbufsize(bufsize)
            try:
                assert np.array_equal(kernel_matrix(spec, A, B), chosen)
            finally:
                np.setbufsize(old)


@given(
    a=hnp.arrays(np.float64, 3, elements=st.floats(-10, 10)),
    b=hnp.arrays(np.float64, 3, elements=st.floats(-10, 10)),
)
@settings(max_examples=50)
def test_kernels_are_symmetric_in_arguments(a, b):
    for spec in ALL_SPECS:
        assert pair_value(spec, a, b) == pytest.approx(pair_value(spec, b, a), abs=1e-12)


@given(
    a=hnp.arrays(np.float64, 2, elements=st.floats(-5, 5)),
    shift=hnp.arrays(np.float64, 2, elements=st.floats(-5, 5)),
)
@settings(max_examples=50)
def test_rbf_is_translation_invariant(a, shift):
    spec = KernelSpec("rbf", gamma=0.3)
    b = a + np.array([1.0, -2.0])
    assert pair_value(spec, a, b) == pytest.approx(
        pair_value(spec, a + shift, b + shift), rel=1e-9, abs=1e-12
    )


def test_kernel_kind_list_is_stable():
    assert KERNEL_KINDS == ("linear", "polynomial", "rbf", "sigmoid")
