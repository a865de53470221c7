"""Structured low-rank approximation of noisy output Hankel matrices.

Alternates a range-space truncation (keep the component in the row space of
the input Hankel, replace the rest by its best low-rank approximation) with
the orthogonal projection onto block-Hankel structure, until the relative
Frobenius change drops below a threshold.  The input Hankel is never modified;
only the output side is denoised.

The truncation works in complement coordinates.  An orthonormal basis ``N`` of
the complement of the input row space is computed once per denoise; a pass
forms ``A = H N``, takes the top ``n_order`` eigenpairs of the small Gram
matrix ``A.T A`` (the leading right singular vectors of ``A``), and replaces
``A N.T`` -- the part of ``H`` outside the row space -- by ``A V V.T N.T``.
That is the same truncated-SVD step written for the subspace it touches, with
no full SVD and no dense projector per pass.  Successive Gram matrices differ
little, so after the first pass the eigenpairs are warm-started: a few
Rayleigh-Ritz steps from the previous pass's kept vectors, accepted only when
a residual test and a trace test certify that they span the dominant
subspace to LAPACK's accuracy (see :func:`_truncate`).  Otherwise the pass
runs the partial eigensolve, and :attr:`SlraReport.full_eigensolves` counts
those passes.

The loop is the fixed-point iteration of F = hankel_project o truncate, and
:func:`iterative_slra` speeds it up with type-II Anderson acceleration (Walker
& Ni, SIAM J. Numer. Anal. 2011) over the iterate's generating sequence: the
p*(L + n_c - 1) samples of the exactly block-Hankel iterate, not the Hankel
matrix itself.  Each pass evaluates F once.  The next point mixes the last
``memory`` evaluations by least squares on their residual differences, solved
with a QR of the difference matrix.  A safeguard (Zhang, O'Donoghue & Boyd,
SIAM J. Optim. 2020) refuses an accelerated point whose residual
||F(x) - x||_F exceeds the current one: it takes the plain step instead,
clears the memory, and accelerates again only once plain steps have refilled
it.  (Resuming at once can stall: where the kept and the first dropped
singular values cross, short-memory points keep being refused and the plain
steps between them make too little headway.)  ``memory=0`` is the plain
alternating loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .hankel import _anti_diagonals, _block_hankel, hankel_project
from .matlib import DEFAULT_RANK_TOL, _as_matrix, compact_svd

__all__ = ["SlraReport", "range_truncate", "iterative_slra"]


@dataclass
class SlraReport:
    """Result of the iterative denoiser.

    ``h_y_star`` is the final iterate after the Hankel projection, so it is
    exactly block-Hankel; at convergence it differs from the preceding
    range-truncation output by at most ``eps`` in relative Frobenius norm.
    ``rel_changes`` holds that relative change for every pass.
    """

    h_y_star: np.ndarray
    iterations: int
    final_rel_change: float
    converged: bool
    rel_changes: list[float] = field(default_factory=list)
    rejected: int = 0  # accelerated points the safeguard refused
    full_eigensolves: int = 0  # passes that ran scipy.linalg.eigh, not a warm start


def range_truncate(h_y, pi2, n_order: int) -> np.ndarray:
    """Keep ``h_y @ pi2`` and the best rank-``n_order`` part of the remainder.

    ``pi2`` must be a symmetric idempotent projector with the same column
    dimension as ``h_y``; the component of ``h_y`` outside its range is
    truncated to its leading ``n_order`` singular triplets.
    """
    h_y = _as_matrix(h_y, "h_y")
    pi2 = _as_matrix(pi2, "pi2")
    if pi2.shape[0] != pi2.shape[1] or pi2.shape[0] != h_y.shape[1]:
        raise ValueError("pi2 must be square with h_y's column dimension")
    scale = max(1.0, float(np.abs(pi2).max()))
    if float(np.abs(pi2 @ pi2 - pi2).max()) > 1e-8 * scale:
        raise ValueError("pi2 is not idempotent to 1e-8")
    if float(np.abs(pi2 - pi2.T).max()) > 1e-8 * scale:
        raise ValueError("pi2 is not symmetric to 1e-8")
    return _truncate(h_y, compact_svd(pi2, complements=True).v_perp, n_order, _Eigenpairs())


def _truncate(h: np.ndarray, basis: np.ndarray, n_order: int, pairs: _Eigenpairs) -> np.ndarray:
    """Replace the part of ``h`` in span(``basis``) by its best rank-``n_order`` approximation.

    ``basis`` has orthonormal columns.  The leading right singular vectors of
    ``A = h @ basis`` are the top eigenvectors of the Gram matrix
    ``G = A.T @ A``, which ``pairs`` keeps from pass to pass.  When the last
    pass left a tail ratio ``(tr G - sum theta) / theta_min`` of at most 0.1,
    up to three Rayleigh-Ritz steps start from its kept vectors V (subspace
    iteration, Saad, *Numerical Methods for Large Eigenvalue Problems*,
    sec. 5.2): ``Q = qr(G V)``, ``(theta, S) = eigh(Q.T G Q)``, ``V = Q S``.
    V is accepted only under a two-part certificate:

    * every residual ``||G v_i - theta_i v_i||`` is at most
      ``dim * eps * theta_max``, the backward error of LAPACK's eigensolver,
      so V spans an invariant subspace of G to roundoff;
    * ``tr G - sum theta < theta_min / 2``.  G is positive semidefinite, so
      every eigenvalue outside span(V) is at most that sum, below
      ``theta_min``: V spans the dominant subspace, not merely an invariant
      one.

    Otherwise a partial ``scipy.linalg.eigh`` supplies them.  A pair is
    dropped when ``||A v|| <= DEFAULT_RANK_TOL * sigma_max``, the rank rule of
    :func:`~deepckit.matlib.compact_svd`.  ``||A v||`` is used instead of the
    square root of the eigenvalue, which loses half the digits.
    """
    if n_order < 0 or n_order > h.shape[0]:
        raise ValueError(f"n_order must lie in [0, {h.shape[0]}]")
    a = h @ basis
    k = min(n_order, basis.shape[1])
    if k == 0:
        return h - a @ basis.T
    v = pairs.top(a.T @ a, k)
    av = a @ v
    norms = np.linalg.norm(av, axis=0)
    keep = norms > DEFAULT_RANK_TOL * norms.max()
    return h + (av[:, keep] @ v[:, keep].T - a) @ basis.T


class _Eigenpairs:
    """Top eigenvectors of successive Gram matrices, warm-started as :func:`_truncate` describes."""

    WARM_TAIL = 0.1
    RITZ_STEPS = 3

    def __init__(self):
        self._v = None  # the vectors handed out last
        self._tail = np.inf  # their tail ratio (tr G - sum theta) / theta_min
        self.full_eigensolves = 0  # calls answered by scipy.linalg.eigh

    def top(self, gram: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` leading eigenvectors of ``gram``, in ascending order of eigenvalue."""
        if self._tail <= self.WARM_TAIL and self._ritz(gram):
            return self._v
        dim = gram.shape[0]
        theta, self._v = scipy.linalg.eigh(gram, subset_by_index=[dim - k, dim - 1])
        self.full_eigensolves += 1
        self._tail = self._tail_ratio(gram, theta)
        return self._v

    def _ritz(self, gram: np.ndarray) -> bool:
        """Rayleigh-Ritz steps from the kept vectors; True when certified pairs replace them."""
        bound = (gram.shape[0] * np.finfo(float).eps) ** 2
        y = gram @ self._v
        for _ in range(self.RITZ_STEPS):
            qr, tau = lapack.dgeqrf(y)[:2]
            q = lapack.dorgqr(qr, tau)[0]
            gq = gram @ q
            theta, s, info = lapack.dsyevd(q.T @ gq)
            if info:
                return False
            v, y = q @ s, gq @ s  # y = G v
            r = y - v * theta
            residual = np.einsum("ij,ij->j", r, r).max()  # squared column norms
            tail = self._tail_ratio(gram, theta)
            if residual <= bound * theta[-1] ** 2 and tail < 0.5:  # the two-part certificate
                self._v, self._tail = v, tail
                return True
        return False

    @staticmethod
    def _tail_ratio(gram: np.ndarray, theta: np.ndarray) -> float:
        """``(tr G - sum theta) / theta_min``, infinite unless ``theta_min > 0``."""
        if not theta[0] > 0.0:
            return np.inf
        return float(np.trace(gram) - theta.sum()) / float(theta[0])


class _Anderson:
    """Safeguarded type-II Anderson acceleration over block-Hankel iterates.

    A point is a generating sequence ``x`` (time-major, ``block_size``
    samples per time step) of a block-Hankel matrix.
    The least squares weight every sample equally.  The safeguard measures a
    residual ``F(x) - x`` by the Frobenius norm of its Hankel matrix, where
    a sample counts once per entry of the matrix that holds it.
    """

    def __init__(self, memory: int, shape: tuple[int, int], block_size: int):
        rows, n_cols = shape
        self._weights = _anti_diagonals(rows, n_cols, block_size)[1]
        self._depth = rows // block_size
        self._p = block_size
        # ring buffers of the residual and map-value differences, one column each
        self._dg = np.empty((self._weights.size, memory), order="F")
        self._df = np.empty_like(self._dg)
        self._filled = 0
        self._slot = 0
        self._x = None  # the point whose image the next call receives
        self._last = None  # (F(x), F(x) - x, its norm) at the last accepted point
        self._candidate = False  # whether ``_x`` is an accelerated point
        self._refill = False  # after a restart, stay plain until the memory is full
        self.rejected = 0

    def step(self, h1: np.ndarray) -> np.ndarray:
        """Take ``h1 = F(x)`` for the last point handed out; return the next one."""
        p = self._p
        f = np.concatenate([h1[:p].T.ravel(), h1[p:, -1]])
        if self._x is None:  # the input need not be block-Hankel: no residual yet
            return self._move(f)
        g = f - self._x
        norm = float(np.sqrt(g @ (self._weights * g)))
        if self._candidate and not norm <= self._last[2]:
            self.rejected += 1
            self._restart()
            return self._move(self._last[0])
        if self._last is not None:
            f_last, g_last, _ = self._last
            self._dg[:, self._slot] = g - g_last
            self._df[:, self._slot] = f - f_last
            self._slot = (self._slot + 1) % self._dg.shape[1]
            self._filled = min(self._filled + 1, self._dg.shape[1])
        self._last = (f, g, norm)
        n = self._filled
        self._refill = self._refill and n < self._dg.shape[1]
        if n == 0 or self._refill:
            return self._move(f)
        # one QR of [dG, g]: its last column above the diagonal is Q.T g
        a = np.empty((g.size, n + 1), order="F")
        a[:, :n] = self._dg[:, :n]
        a[:, n] = g
        qr = lapack.dgeqrf(a, overwrite_a=1)[0]
        gamma, info = lapack.dtrtrs(qr[:n, :n], qr[:n, n])
        if info:  # exactly rank-deficient differences
            self._restart()
            return self._move(f)
        return self._move(f - self._df[:, :n] @ gamma, candidate=True)

    def _restart(self) -> None:
        """Clear the memory; plain steps refill it before the next accelerated one."""
        self._filled = self._slot = 0
        self._refill = True

    def _move(self, x: np.ndarray, candidate: bool = False) -> np.ndarray:
        """Hand out point ``x`` as its block-Hankel matrix."""
        self._x = x
        self._candidate = candidate
        return _block_hankel(x, self._p, self._depth)


def iterative_slra(
    h_y,
    h_u,
    n_order: int,
    eps: float = 1e-6,
    max_iter: int = 200,
    *,
    block_size: int,
    memory: int = 10,
) -> SlraReport:
    """Denoise an output Hankel while preserving its block-Hankel structure.

    Each pass does what :func:`range_truncate` does with the projector onto
    the row space of ``h_u``, in the coordinates of that row space's
    complement, and then re-imposes Hankel structure by skew-diagonal
    averaging, stopping once ``||H1 - H2||_F <= eps * ||H1||_F`` where H2 is
    the truncation output and H1 its Hankel projection.

    Args:
        h_y: (p*L) x n_c output Hankel (noisy).
        h_u: input Hankel with the same column count (assumed noise-free; it
            is only read, never altered).
        n_order: rank kept for the component outside the input row space
            (the model order).
        eps: relative Frobenius stopping threshold.
        max_iter: pass limit; on exhaustion the last iterate is returned with
            ``converged=False``.
        block_size: output channels per Hankel block row.
        memory: differences kept by the Anderson acceleration; ``0`` runs the
            plain alternating loop.  The first two passes are plain either way.
    """
    h_y = _as_matrix(h_y, "h_y")
    h_u = _as_matrix(h_u, "h_u")
    if h_u.shape[1] != h_y.shape[1]:
        raise ValueError("h_u and h_y must have equal column counts")
    if not 0.0 < eps < np.inf or max_iter < 1:
        raise ValueError("eps must be positive and finite and max_iter >= 1")
    if memory < 0:
        raise ValueError("memory must be nonnegative")
    if block_size < 1 or h_y.shape[0] % block_size:
        raise ValueError(f"block size {block_size} does not divide {h_y.shape[0]} rows")
    basis = compact_svd(h_u, complements=True).v_perp
    pairs = _Eigenpairs()
    accel = _Anderson(memory, h_y.shape, block_size) if memory else None
    h = h_y
    rel_changes: list[float] = []
    converged = False
    iters = 0
    for _ in range(max_iter):
        iters += 1
        h2 = _truncate(h, basis, n_order, pairs)
        h1 = hankel_project(h2, block_size)
        denom = float(np.linalg.norm(h1, "fro"))
        diff = float(np.linalg.norm(h1 - h2, "fro"))
        rel = diff / denom if denom > 0.0 else 0.0
        rel_changes.append(rel)
        if diff <= eps * denom:
            converged = True
            break
        h = h1 if accel is None else accel.step(h1)
    return SlraReport(
        h_y_star=h1,
        iterations=iters,
        final_rel_change=rel_changes[-1] if rel_changes else 0.0,
        converged=converged,
        rel_changes=rel_changes,
        rejected=0 if accel is None else accel.rejected,
        full_eigensolves=pairs.full_eigensolves,
    )
