"""Kernel functions for the support vector machine.

Four standard kernels: linear, polynomial, radial basis function and sigmoid.
``gamma=None`` means "resolve to 1 / n_features at fit time".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")


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
        if self.uses_gamma and self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
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


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Kernel value for a single pair of feature vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(kernel_matrix(spec, a[None, :], b[None, :])[0, 0])


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix K[i, j] = k(A[i], B[j]); B defaults to A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if spec.uses_gamma and spec.gamma is None:
        raise ValueError("gamma is unresolved; call KernelSpec.resolved() first")

    # Every kernel is an elementwise map of A @ B.T; apply it in place so the
    # Gram never needs a second n x m temporary.
    G = A @ B.T
    if spec.kind == "linear":
        return G
    if spec.kind == "rbf":
        # squared distances via the expansion ||a-b||^2 = a.a + b.b - 2 a.b
        G *= -2.0
        G += (A * A).sum(axis=1)[:, None]
        G += (B * B).sum(axis=1)[None, :]
        np.maximum(G, 0.0, out=G)
        G *= -spec.gamma
        return np.exp(G, out=G)
    G *= spec.gamma
    G += spec.coef0
    if spec.kind == "sigmoid":
        return np.tanh(G, out=G)
    G **= spec.degree
    return G
