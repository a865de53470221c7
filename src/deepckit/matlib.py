"""Dense real-matrix kernels: compact SVD, pseudoinverse, rank, row-space projector and complement.

Every routine is a pure function of finite float64 matrices, deterministic for
a fixed input, and safe to call concurrently.  Numerical rank decisions use a
relative threshold on singular values (``DEFAULT_RANK_TOL`` unless a caller
overrides it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


def _svd(arr: np.ndarray, compute_uv: bool = True, full_matrices: bool = False):
    """SVD with a fallback driver: gesdd occasionally fails to converge."""
    try:
        return np.linalg.svd(arr, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(
            arr, full_matrices=full_matrices, compute_uv=compute_uv, lapack_driver="gesvd"
        )

__all__ = [
    "DEFAULT_RANK_TOL",
    "CompactSvd",
    "compact_svd",
    "pinv",
    "rowspace_projector",
    "rowspace_complement",
    "numeric_rank",
    "project_rows",
]

DEFAULT_RANK_TOL = 1e-10


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, rejecting anything else."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class CompactSvd:
    """Rank-truncated SVD ``a ~= w @ diag(sigma) @ v.T``.

    ``w`` (rows x r) and ``v`` (cols x r) have orthonormal columns and
    ``sigma`` holds the ``r`` retained singular values, positive and
    non-increasing.  Signs are fixed so the first nonzero entry of every
    right singular vector is nonnegative, which makes the factorization
    reproducible run to run.
    """

    w: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        """Return ``w @ diag(sigma) @ v.T``."""
        return (self.w * self.sigma) @ self.v.T


def compact_svd(a, rank_tol: float = DEFAULT_RANK_TOL) -> CompactSvd:
    """Compact SVD keeping only singular values above ``rank_tol * sigma_max``.

    Args:
        a: real matrix, all entries finite.
        rank_tol: positive relative threshold separating genuine rank from
            roundoff.

    Returns:
        CompactSvd with exactly ``numeric_rank(a, rank_tol)`` triplets; a zero
        matrix yields rank 0 and empty factors.
    """
    arr = _as_matrix(a)
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    w_full, s_full, vt_full = _svd(arr)
    r = _count_rank(s_full, rank_tol)
    w = w_full[:, :r].copy()
    v = vt_full[:r].T.copy()
    sigma = s_full[:r].copy()
    _fix_signs(w, v)
    return CompactSvd(w=w, sigma=sigma, v=v, rank=r)


def _count_rank(s: np.ndarray, rank_tol: float) -> int:
    """Singular values (non-increasing) above ``rank_tol * s[0]``; 0 for a zero matrix."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def _fix_signs(w: np.ndarray, v: np.ndarray) -> None:
    """Flip paired columns in place so each column of ``v`` has a nonnegative first nonzero.

    An all-zero column of ``v`` has no first nonzero (argmax lands on a zero)
    and is left as it is.
    """
    first = np.argmax(v != 0.0, axis=0)
    flip = v[first, np.arange(v.shape[1])] < 0.0
    v[:, flip] *= -1.0
    w[:, flip] *= -1.0


def pinv(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the compact SVD (``v @ diag(1/sigma) @ w.T``)."""
    dec = compact_svd(a, rank_tol)
    if dec.rank == 0:
        arr = np.asarray(a, dtype=float)
        return np.zeros((arr.shape[1], arr.shape[0]))
    return (dec.v / dec.sigma) @ dec.w.T


def rowspace_projector(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthogonal projector onto the row space of ``a``.

    Equals ``pinv(a) @ a``; computed as ``v @ v.T`` from the compact SVD so the
    result is symmetric to machine precision and idempotent.
    """
    arr = _as_matrix(a)
    dec = compact_svd(arr, rank_tol)
    if dec.rank == 0:
        return np.zeros((arr.shape[1], arr.shape[1]))
    return dec.v @ dec.v.T


def rowspace_complement(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (cols x (cols - r)) of the orthogonal complement of ``a``'s row space.

    ``r`` is the rank :func:`compact_svd` keeps at ``rank_tol``; the columns are
    the trailing right singular vectors of a full SVD, so ``n @ n.T`` equals
    ``I - rowspace_projector(a, rank_tol)`` to machine precision.  A matrix of
    full column rank yields a (cols x 0) basis.
    """
    arr = _as_matrix(a)
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    _, s, vt = _svd(arr, full_matrices=True)
    return vt[_count_rank(s, rank_tol):].T.copy()


def numeric_rank(a, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above ``rank_tol * sigma_max`` (0 for a zero matrix)."""
    arr = _as_matrix(a)
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    return _count_rank(_svd(arr, compute_uv=False), rank_tol)


def project_rows(b, a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Project the rows of ``b`` onto the row space of ``a``: ``b @ (pinv(a) @ a)``."""
    b_arr = _as_matrix(b, "b")
    a_arr = _as_matrix(a, "a")
    if b_arr.shape[1] != a_arr.shape[1]:
        raise ValueError(
            f"column mismatch: b has {b_arr.shape[1]} columns, a has {a_arr.shape[1]}"
        )
    return b_arr @ rowspace_projector(a_arr, rank_tol)
