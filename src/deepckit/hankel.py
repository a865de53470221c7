"""Trajectory storage, block-Hankel construction/partitioning, and Hankel projection.

Signals are stored time-major (one row per time step, one column per channel).
Hankel matrices are block matrices whose (i, j) block is the vector sample at
time ``i + j``, so channels are interleaved per time step and a past/future
partition is a contiguous row split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .matlib import _as_matrix, numeric_rank

if TYPE_CHECKING:  # slra imports this module
    from .slra import SlraReport

__all__ = [
    "Trajectory",
    "HankelPartition",
    "build_block_hankel",
    "is_persistently_exciting",
    "partition",
    "hankel_project",
    "save_trajectory_csv",
    "load_trajectory_csv",
]


def _as_signal(signal, name: str = "signal") -> np.ndarray:
    arr = np.asarray(signal, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class Trajectory:
    """A recorded input/output sequence: ``u_d`` is T x m, ``y_d`` is T x p."""

    u_d: np.ndarray
    y_d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_d", _as_signal(self.u_d, "u_d"))
        object.__setattr__(self, "y_d", _as_signal(self.y_d, "y_d"))
        if self.u_d.shape[0] != self.y_d.shape[0]:
            raise ValueError(
                f"u_d has {self.u_d.shape[0]} rows but y_d has {self.y_d.shape[0]}"
            )
        if self.u_d.shape[0] == 0:
            raise ValueError("trajectory must contain at least one sample")

    @property
    def T(self) -> int:
        return self.u_d.shape[0]

    @property
    def m(self) -> int:
        return self.u_d.shape[1]

    @property
    def p(self) -> int:
        return self.y_d.shape[1]


@dataclass(frozen=True)
class HankelPartition:
    """The four stacked blocks of a depth-(t_ini + n_horizon) trajectory library.

    ``up``/``yp`` hold the first ``t_ini`` block rows (past window) and
    ``uf``/``yf`` the last ``n_horizon`` block rows (future window) of the
    input and output Hankel matrices.  All blocks share one column count,
    ``n_cols = T - (t_ini + n_horizon) + 1`` for a raw library.

    A pre-processing step returns a copy made with :func:`dataclasses.replace`
    whose ``provenance`` names the step (``"raw"`` for the Hankel blocks
    themselves) and, after the denoiser, whose ``slra`` holds its report.

    ``_cache`` holds what is derived from the blocks once and read by every
    controller on the library: the projector Pi1 onto the row space of
    H1 = col(U_P, Y_P, U_F) (see :mod:`deepckit.variants`).  It is not an
    argument of the constructor, so :func:`dataclasses.replace` starts each
    copy, whose blocks may differ, with an empty cache.
    """

    up: np.ndarray
    yp: np.ndarray
    uf: np.ndarray
    yf: np.ndarray
    t_ini: int
    n_horizon: int
    m: int
    p: int
    provenance: str = "raw"
    slra: SlraReport | None = None
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n_cols(self) -> int:
        return self.up.shape[1]

    @property
    def depth(self) -> int:
        return self.t_ini + self.n_horizon


def build_block_hankel(signal, depth: int) -> np.ndarray:
    """Block-Hankel matrix of a T x q signal with the given block-row depth.

    Block (i, j), of size q x 1, equals the signal sample at time ``i + j``
    (0-based), giving a (q*depth) x (T - depth + 1) matrix.

    Raises:
        ValueError: if ``depth`` is not in [1, T-1].
    """
    sig = _as_signal(signal)
    t_len, q = sig.shape
    if not 0 < depth < t_len:
        raise ValueError(f"depth must satisfy 0 < depth < T={t_len}, got {depth}")
    return _block_hankel(sig, q, depth)


def _block_hankel(samples, q: int, depth: int) -> np.ndarray:
    """The depth-``depth`` block-Hankel matrix of time-major samples, q per step.

    With ``x`` the samples flattened, entry (r, j) is ``x[r + q*j]``: the
    result is a strided view of ``x``, copied once.  Unlike
    :func:`build_block_hankel` nothing is validated, so a one-column matrix
    (depth = T) is allowed.
    """
    x = np.ascontiguousarray(samples, dtype=float).reshape(-1)
    n_cols = x.size // q - depth + 1
    strides = (x.itemsize, q * x.itemsize)
    return np.lib.stride_tricks.as_strided(x, (q * depth, n_cols), strides).copy()


def is_persistently_exciting(signal, order: int) -> bool:
    """True iff the depth-``order`` Hankel of the signal has full row rank."""
    sig = _as_signal(signal)
    h = build_block_hankel(sig, order)
    return numeric_rank(h) == sig.shape[1] * order


def partition(traj: Trajectory, t_ini: int, n_horizon: int) -> HankelPartition:
    """Split the depth-(t_ini + n_horizon) Hankels of a trajectory into past/future blocks.

    Raises:
        ValueError: if ``t_ini + n_horizon >= T``.
    """
    if t_ini < 1 or n_horizon < 1:
        raise ValueError("t_ini and n_horizon must be positive")
    depth = t_ini + n_horizon
    if depth >= traj.T:
        raise ValueError(
            f"t_ini + n_horizon = {depth} must be smaller than T = {traj.T}"
        )
    h_u = build_block_hankel(traj.u_d, depth)
    h_y = build_block_hankel(traj.y_d, depth)
    m, p = traj.m, traj.p
    return HankelPartition(
        up=h_u[: m * t_ini],
        yp=h_y[: p * t_ini],
        uf=h_u[m * t_ini :],
        yf=h_y[p * t_ini :],
        t_ini=t_ini,
        n_horizon=n_horizon,
        m=m,
        p=p,
    )


def hankel_project(mat, block_size: int) -> np.ndarray:
    """Orthogonal (Frobenius-nearest) projection onto block-Hankel structure.

    Every block on a block-anti-diagonal is replaced by the arithmetic mean of
    the input blocks sharing that anti-diagonal index ``i + j``.  The map is
    linear and idempotent.

    Raises:
        ValueError: if the row count is not divisible by ``block_size``.
    """
    arr = _as_matrix(mat)
    rows, n_cols = arr.shape
    if block_size < 1 or rows % block_size:
        raise ValueError(
            f"row count {rows} is not divisible by block size {block_size}"
        )
    idx, counts = _anti_diagonals(rows, n_cols, block_size)
    means = np.bincount(idx, weights=arr.ravel()) / counts
    return _block_hankel(means, block_size, rows // block_size)


@lru_cache(maxsize=16)
def _anti_diagonals(rows: int, n_cols: int, block_size: int):
    """Sample index of every entry of a Hankel matrix, and each sample's entry count.

    Entry (r, j) belongs to sample ``r + block_size*j`` of the generating
    sequence.  Both arrays are read-only, since every caller shares them.
    """
    idx = (np.arange(rows)[:, None] + block_size * np.arange(n_cols)).ravel()
    counts = np.bincount(idx)
    idx.flags.writeable = counts.flags.writeable = False
    return idx, counts


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with header ``t,u1..um,y1..yp`` (17 significant digits)."""
    names = (
        ["t"]
        + [f"u{i + 1}" for i in range(traj.m)]
        + [f"y{i + 1}" for i in range(traj.p)]
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(names) + "\n")
        for t in range(traj.T):
            vals = [f"{v:.17g}" for v in (*traj.u_d[t], *traj.y_d[t])]
            fh.write(f"{t}," + ",".join(vals) + "\n")


def load_trajectory_csv(path) -> Trajectory:
    """Read a trajectory written by :func:`save_trajectory_csv`.

    Raises:
        ValueError: unless the header is exactly ``t,u1..um,y1..yp`` with
            ``m, p >= 1`` and at least one data row follows it.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        m = sum(1 for name in header if name.startswith("u"))
        p = len(header) - 1 - m
        names = ["t", *(f"u{i + 1}" for i in range(m)), *(f"y{i + 1}" for i in range(p))]
        if m == 0 or p < 1 or header != names:
            raise ValueError(f"unexpected trajectory CSV header: {header}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"trajectory CSV {path} has no data rows")
    data = np.array([[float(v) for v in row[1:]] for row in rows])
    return Trajectory(u_d=data[:, :m], y_d=data[:, m:])
