"""Kernel functions for the support vector machine.

Four standard kernels: linear, polynomial, radial basis function and sigmoid.
``gamma=None`` means "resolve to 1 / n_features at fit time".

Kernel values are built feature by feature from elementwise NumPy
operations, so each value depends only on its two arguments.  A BLAS matrix
product is faster but rounds an entry differently depending on the shape of
the product and on where the entry sits in it.  The solver computes Gram
rows one at a time (``KernelRows``) and the models score in blocks, and both
must give the same bits whichever rows are computed or scored together.

Blocks at least ``_UNBUFFERED_MIN_COLS`` columns wide are evaluated with
NumPy's ufunc buffer at its 16-element minimum (``unbuffered_blocks``).  The
per-feature subtract broadcasts a column against a row; when that row is
narrower than about a third of the default 8 192-element buffer, NumPy
copies the operands through the buffer.  On a 2-vCPU Xeon VM with NumPy 2.4
that subtract costs 1.0 ns per element with the default buffer and 0.4 ns
with the smallest at 491 columns, and 1.4 against 0.8 ns at 128 columns.
Narrower blocks keep the default buffer, which is faster for them (1.05
against 1.4 ns at 64 columns, 3.4 against 9.1 ns at 4), and a single Gram
row is never buffered.  The values are the same bits either way.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")

#: the narrowest kernel block, in columns, evaluated with the smallest ufunc buffer
_UNBUFFERED_MIN_COLS = 128
#: NumPy's smallest ufunc buffer, in elements
_MIN_BUFSIZE = 16
#: rows ``KernelRows`` holds before its first ``reserve``
_FIRST_LIMIT = 64


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus its parameters.

    gamma scales the inner product (polynomial, sigmoid) or the squared
    distance (rbf); coef0 is the additive offset for polynomial and sigmoid;
    degree applies to the polynomial kernel only.
    """

    kind: str = "rbf"
    gamma: float | None = None
    coef0: float = 0.0
    degree: int = 3

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kind!r}; use one of {KERNEL_KINDS}")
        if self.gamma is not None and not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.uses_gamma and self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not np.isfinite(self.coef0):
            raise ValueError(f"coef0 must be finite, got {self.coef0}")
        # a bool is an int to Python; a fractional degree makes powers of
        # negative bases nan, which score every row the same
        if isinstance(self.degree, bool) or not isinstance(self.degree, (int, np.integer)):
            raise ValueError(f"degree must be an integer, got {self.degree!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {self.degree}")

    @property
    def uses_gamma(self) -> bool:
        return self.kind != "linear"

    def resolved(self, n_features: int) -> "KernelSpec":
        """Fill in the default gamma = 1 / n_features if it was left open."""
        if self.uses_gamma and self.gamma is None:
            return replace(self, gamma=1.0 / n_features)
        return self


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix K[i, j] = k(A[i], B[j]); B defaults to A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    _check_resolved(spec)
    out = np.empty((A.shape[0], B.shape[0]))
    with unbuffered_blocks(B.shape[0]):
        return _evaluate(spec, A.T[:, :, None], np.ascontiguousarray(B.T), out)


@contextmanager
def unbuffered_blocks(n_cols: int):
    """Evaluate the enclosed kernel blocks of ``n_cols`` columns with the
    smallest ufunc buffer if they are wide enough to gain from it.

    The caller's buffer size is restored on exit.  Inside an enclosing
    ``unbuffered_blocks`` it only reads the buffer size, so a caller that
    evaluates many blocks sets the buffer once for all of them.
    """
    if n_cols < _UNBUFFERED_MIN_COLS or np.getbufsize() <= _MIN_BUFSIZE:
        yield
        return
    old = np.setbufsize(_MIN_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _check_resolved(spec: KernelSpec) -> None:
    if spec.uses_gamma and spec.gamma is None:
        raise ValueError("gamma is unresolved; call KernelSpec.resolved() first")


def _evaluate(spec: KernelSpec, a_cols, b_cols, out: np.ndarray) -> np.ndarray:
    """Kernel values from per-feature operands, written into ``out``.

    ``a_cols[k]`` and ``b_cols[k]`` hold feature k of the left and right
    arguments and broadcast to ``out.shape``: (m, 1) against (n,) gives an
    m x n matrix, (n,) against (n,) the values of n pairs.  Every value goes
    through the same sequence of elementwise operations either way.
    """
    term = np.empty_like(out) if len(a_cols) > 1 else None
    for k, (a, b) in enumerate(zip(a_cols, b_cols)):
        dest = out if k == 0 else term
        if spec.kind == "rbf":
            np.subtract(a, b, out=dest)
            dest *= dest
        else:
            np.multiply(a, b, out=dest)
        if k:
            out += term
    if spec.kind == "linear":
        return out
    if spec.kind == "rbf":
        out *= -spec.gamma
        return np.exp(out, out=out)
    out *= spec.gamma
    out += spec.coef0
    if spec.kind == "sigmoid":
        return np.tanh(out, out=out)
    out **= spec.degree
    return out


class KernelRows:
    """Rows of the Gram matrix of ``X``, each computed when first read.

    Rows live in one preallocated slab of ``capacity`` rows: as many as
    ``budget_bytes`` holds, at least two and at most n.  The budget is a
    ceiling, not a fill target: rows fill the slab's slots in order up to a
    fill limit, ``limit``, which starts at ``_FIRST_LIMIT`` rows (or
    ``capacity``, if smaller) and grows only through ``reserve``.  Once
    ``limit`` rows are held, the least recently read row gives up its slot.
    The slab is allocated with ``np.empty`` and pages never written are
    never resident, so memory is O(limit * n) however large the budget; an
    infinite budget means no ceiling.  A row returned by ``row`` stays valid
    until ``limit - 1`` other rows have been read; a caller that needs many
    rows at once copies them, as the SVM's Newton step does with up to 200.

    The cache only serves rows; it takes no sums over them.  Every
    sum_k coef[k] * K(x, x_k) the SVM needs, the final gradient included, is
    taken from the support vectors in scoring blocks (``svm._kernel_sums``),
    and reads no row of the cache.

    ``diagonal`` holds k(x_i, x_i) for every sample, bitwise equal to the
    same entry of the sample's row.
    """

    def __init__(self, spec: KernelSpec, X: np.ndarray, budget_bytes: float):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        _check_resolved(spec)
        if not budget_bytes > 0:
            raise ValueError(f"cache budget must be positive, got {budget_bytes} bytes")
        n = X.shape[0]
        self.spec = spec
        self.X = X
        self._cols = tuple(np.ascontiguousarray(X.T))
        # inf // x is nan, so an unbounded budget is caught before the division
        self.capacity = n if budget_bytes >= 8 * n * n else int(max(2, budget_bytes // (8 * n)))
        self.limit = min(self.capacity, _FIRST_LIMIT)
        self._slab = np.empty((self.capacity, n))
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()  # oldest read first
        self.rows_computed = 0
        self.diagonal = _evaluate(spec, self._cols, self._cols, np.empty(n))

    @property
    def rows_held(self) -> int:
        return len(self._rows)

    def reserve(self, rows: int) -> None:
        """Let up to ``rows`` rows be held at once, as far as ``capacity``
        allows; the fill limit never shrinks."""
        self.limit = max(self.limit, min(int(rows), self.capacity))

    def row(self, i: int) -> np.ndarray:
        """Row i of the Gram matrix, a view into the slab."""
        view = self._rows.get(i)
        if view is not None:
            self._rows.move_to_end(i)
            return view
        if len(self._rows) < self.limit:
            view = self._slab[len(self._rows)]
        else:
            _, view = self._rows.popitem(last=False)  # the least recently read
        self.rows_computed += 1
        _evaluate(self.spec, self.X[i], self._cols, view)
        self._rows[i] = view
        return view
