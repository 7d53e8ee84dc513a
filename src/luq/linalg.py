"""Dense linear-algebra primitives shared by the density and training code.

Coercion of feature input to a 2-D array, Cholesky factorization,
log-determinants, numerically stable log-sum-exp, and PCA.  Everything
operates on float64 numpy arrays; fitted objects are immutable and safe to
share between threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    EmptyInputError,
    NotPositiveDefiniteError,
    TooFewSamplesError,
    RankDeficientWarning,
)


def as_matrix(x) -> np.ndarray:
    """``x`` as a 2-D float64 array; a 1-D input becomes one row.

    Latent features travel through the package as such plain (n, d) arrays.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimMismatchError(f"expected 2-D array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the original matrix."""

    dim: int
    lower: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        if lo.shape != (self.dim, self.dim):
            raise DimMismatchError(f"factor shape {lo.shape} != ({self.dim}, {self.dim})")
        if not np.isfinite(lo).all():
            raise ValueError("factor entries must be finite")
        if np.any(np.diag(lo) <= 0):
            raise NotPositiveDefiniteError("factor diagonal must be strictly positive")
        if self.dim > 1 and np.any(lo[np.triu_indices(self.dim, 1)] != 0.0):
            raise ValueError("factor must be lower-triangular")
        object.__setattr__(self, "lower", lo)

    def reconstruct(self) -> np.ndarray:
        return self.lower @ self.lower.T


def cholesky(m) -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix as L @ L.T.

    Raises NotPositiveDefiniteError when a pivot is <= 0, which signals a
    degenerate covariance the caller must regularize.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatchError(f"cholesky needs a square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("cholesky input has non-finite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > 1e-9 * scale:  # more than rounding noise
        raise ValueError("cholesky input is not symmetric")
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return CholeskyFactor(dim=m.shape[0], lower=lower)


def log_det(factor: CholeskyFactor) -> float:
    """log det of the factored matrix: 2 * sum(log diag(L)), in nats."""
    return 2.0 * float(np.sum(np.log(np.diag(factor.lower))))


def logsumexp(v, axis: int | None = None):
    """log(sum(exp(v))) computed with a max shift so large-magnitude
    log-weights cannot overflow.

    Entries may be -inf (zero weight); an all -inf slice yields -inf.  An
    empty batch of slices yields an empty result.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0 and (axis is None or v.shape[axis] == 0):
        raise EmptyInputError("logsumexp of an empty vector")
    vmax = np.max(v, axis=axis, keepdims=True)
    vmax = np.where(np.isfinite(vmax), vmax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(v - vmax), axis=axis, keepdims=True)) + vmax
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


@dataclass(frozen=True)
class PcaModel:
    """Orthonormal projection onto the top covariance eigendirections.

    ``basis`` has orthonormal columns (input_dim x out_dim), ``eigenvalues``
    are the matching sample-covariance eigenvalues, sorted non-increasing.
    With ``whiten`` the projected coordinates are scaled by 1/sqrt(eigenvalue)
    (zero-variance directions stay zero).
    """

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    whiten: bool = False

    def __post_init__(self):
        shape = np.shape(self.basis)
        if (len(shape) != 2 or np.shape(self.mean) != shape[:1]
                or np.shape(self.eigenvalues) != shape[1:]):
            raise DimMismatchError(f"PCA mean {np.shape(self.mean)}, basis {shape} and "
                                   f"eigenvalues {np.shape(self.eigenvalues)} do not match")
        if not all(np.isfinite(a).all() for a in (self.mean, self.basis, self.eigenvalues)):
            raise ValueError("PCA mean, basis and eigenvalues must be finite")

    @property
    def input_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def out_dim(self) -> int:
        return self.basis.shape[1]


def pca_fit(x, out_dim: int, whiten: bool = False) -> PcaModel:
    """Fit PCA on the rows of ``x``.

    Sample covariance uses the n-1 denominator.  Eigenvector signs are fixed
    so the largest-magnitude entry of each basis column is positive, which
    makes the transform reproducible across runs.  If ``out_dim`` exceeds the
    numerical rank the trailing eigenvalues are kept at zero and a
    RankDeficientWarning is emitted; downstream density fits must regularize.
    """
    x = as_matrix(x)
    n, d = x.shape
    if n < 2:
        raise TooFewSamplesError(f"pca_fit needs at least 2 rows, got {n}")
    if not 1 <= out_dim <= min(n, d):
        raise ValueError(f"out_dim {out_dim} not in [1, min(rows, cols)={min(n, d)}]")
    if not np.all(np.isfinite(x)):
        raise ValueError("pca_fit input has non-finite entries")

    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]

    basis = eigvecs[:, :out_dim].copy()
    peaks = basis[np.argmax(np.abs(basis), axis=0), np.arange(out_dim)]
    basis *= np.where(peaks < 0, -1.0, 1.0)  # each column's largest entry positive
    eigenvalues = eigvals[:out_dim].copy()

    tol = max(n, d) * np.finfo(np.float64).eps * max(eigvals[0], 1e-300)
    rank = int(np.sum(eigvals > tol))
    if rank < out_dim:
        warnings.warn(
            f"requested {out_dim} directions but numerical rank is {rank}; "
            "trailing eigenvalues are zero",
            RankDeficientWarning,
        )
        eigenvalues[rank:] = 0.0

    return PcaModel(mean=mean, basis=basis, eigenvalues=eigenvalues, whiten=whiten)


def pca_transform(p: PcaModel, x) -> np.ndarray:
    """Project rows of ``x`` onto the PCA basis: (x - mean) @ basis."""
    x = as_matrix(x)
    if x.shape[1] != p.input_dim:
        raise DimMismatchError(
            f"input has {x.shape[1]} columns, PCA expects {p.input_dim}"
        )
    y = (x - p.mean) @ p.basis
    if p.whiten:
        scale = np.where(p.eigenvalues > 0, np.sqrt(p.eigenvalues), np.inf)
        y = y / scale
    return y
