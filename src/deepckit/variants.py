"""Controller formulations: model-based ground truth, the raw trajectory-library
controller, its regularized/dimension-reduced relatives, subspace predictors,
and realized-cost evaluation.

All data-driven variants share one reduced QP template over the library
coefficients g (see :func:`deepckit.qp.assemble_reduced`); they differ only in
the library blocks they consume and the regularizers they activate:

=============  =================  ====================================
variant        library blocks     regularizers
=============  =================  ====================================
basic          raw                none (hard equality, no slack)
hybrid         raw                l1(g), ||(I-Pi1) g||^2, ||sigma_y||^2
svd            W*Sigma            same, with the reduced projector
ddspc          raw with Yf -> M   l1(g), ||sigma_y||^2
svd-iter       denoised+reduced   ||(I-Pi1_hat) g||^2, ||sigma_y||^2
classical spc  least-squares map  ||sigma_y||^2 (y eliminated)
=============  =================  ====================================

Cross-variant comparisons are made on (u, y, sigma_y) only; g is non-unique.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import qp
from .hankel import HankelPartition
from .matlib import numeric_rank, pinv, project_rows, rowspace_projector, compact_svd
from .plants import LinearPlant, NonlinearPlant, lv_step, step_linear
from .slra import SlraReport, iterative_slra

__all__ = [
    "ControlSpec",
    "OnlineData",
    "ControlSolution",
    "PreprocessedLibrary",
    "VariantError",
    "solve_ground_truth",
    "solve_basic_deepc",
    "solve_hybrid",
    "preprocess_svd",
    "solve_svd",
    "build_spc_library",
    "solve_dd_spc",
    "solve_classical_spc",
    "preprocess_svd_iter",
    "solve_svd_iter",
    "realized_cost",
    "stack_library",
    "stack_past_inputs",
    "save_solution_csv",
]


@dataclass
class ControlSpec:
    """Horizons, stage weights, regularizer strengths, constraint boxes, reference.

    ``q_weight`` (p x p, PSD) and ``r_weight`` (m x m, PD) are per-stage costs;
    ``u_box``/``y_box`` are per-channel (lo, hi) pairs, ``y_box=None`` meaning
    unconstrained outputs; ``y_ref`` is the stacked (p*n_horizon) reference and
    defaults to regulation at zero.
    """

    t_ini: int
    n_horizon: int
    q_weight: np.ndarray
    r_weight: np.ndarray
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda_y: float = 0.0
    u_box: tuple | None = None
    y_box: tuple | None = None
    y_ref: np.ndarray | None = None

    def __post_init__(self):
        if self.t_ini < 1 or self.n_horizon < 1:
            raise ValueError("t_ini and n_horizon must be positive")
        self.q_weight = np.atleast_2d(np.asarray(self.q_weight, dtype=float))
        self.r_weight = np.atleast_2d(np.asarray(self.r_weight, dtype=float))
        if min(self.lambda1, self.lambda2, self.lambda_y) < 0.0:
            raise ValueError("regularizer weights must be nonnegative")
        if self.y_ref is not None:
            self.y_ref = np.asarray(self.y_ref, dtype=float).ravel()
            if self.y_ref.size != self.p * self.n_horizon:
                raise ValueError("y_ref must have p * n_horizon entries")

    @property
    def m(self) -> int:
        return self.r_weight.shape[0]

    @property
    def p(self) -> int:
        return self.q_weight.shape[0]

    def r_bar(self) -> np.ndarray:
        return np.kron(np.eye(self.n_horizon), self.r_weight)

    def q_bar(self) -> np.ndarray:
        return np.kron(np.eye(self.n_horizon), self.q_weight)

    def y_ref_vec(self) -> np.ndarray:
        if self.y_ref is None:
            return np.zeros(self.p * self.n_horizon)
        return self.y_ref

    def u_bounds(self) -> tuple:
        if self.u_box is None:
            return None, None
        return self.u_box

    def y_bounds(self) -> tuple:
        if self.y_box is None:
            return None, None
        return self.y_box


@dataclass(frozen=True)
class OnlineData:
    """Most recent past input/output window, stacked time-major."""

    u_ini: np.ndarray
    y_ini: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_ini", np.asarray(self.u_ini, dtype=float).ravel())
        object.__setattr__(self, "y_ini", np.asarray(self.y_ini, dtype=float).ravel())
        if not (np.isfinite(self.u_ini).all() and np.isfinite(self.y_ini).all()):
            raise ValueError("online data contains non-finite entries")


@dataclass
class ControlSolution:
    """One variant's optimizer on one instance plus solver diagnostics."""

    u: np.ndarray
    y_pred: np.ndarray
    sigma_y: np.ndarray
    g: np.ndarray
    objective: float
    solver: qp.QpSolution


@dataclass(frozen=True)
class PreprocessedLibrary:
    """Library blocks after a preprocessing step, tagged with their provenance."""

    up: np.ndarray
    yp: np.ndarray
    uf: np.ndarray
    yf: np.ndarray
    t_ini: int
    n_horizon: int
    m: int
    p: int
    provenance: str
    slra: SlraReport | None = None

    @property
    def n_cols(self) -> int:
        return self.up.shape[1]


class VariantError(RuntimeError):
    """A variant's QP did not reach an optimal certificate."""

    def __init__(self, variant: str, solution: qp.QpSolution):
        super().__init__(f"{variant}: solver returned {solution.status.value}")
        self.variant = variant
        self.solution = solution

    @property
    def status(self) -> qp.QpStatus:
        return self.solution.status


def stack_library(lib) -> np.ndarray:
    """col(U_P, Y_P, U_F, Y_F) of a (possibly preprocessed) library."""
    return np.vstack([lib.up, lib.yp, lib.uf, lib.yf])


def stack_past_inputs(lib) -> np.ndarray:
    """col(U_P, Y_P, U_F): every block except the future outputs."""
    return np.vstack([lib.up, lib.yp, lib.uf])


def _check_online(lib, online: OnlineData) -> None:
    if online.u_ini.size != lib.m * lib.t_ini or online.y_ini.size != lib.p * lib.t_ini:
        raise ValueError("online data lengths do not match the library windows")


def _variant_objective(spec, g, u, y, sigma, *, lambda1=0.0, lambda2=0.0, g2=None):
    dy = y - spec.y_ref_vec()
    val = float(u @ spec.r_bar() @ u + dy @ spec.q_bar() @ dy)
    if lambda1:
        val += lambda1 * float(np.abs(g).sum())
    if lambda2 and g2 is not None:
        r = g2 @ g
        val += lambda2 * float(r @ r)
    if sigma.size:
        val += spec.lambda_y * float(sigma @ sigma)
    return val


def _solve_reduced(
    name,
    lib,
    online,
    spec,
    *,
    lambda1,
    lambda2,
    g2,
    with_sigma,
    tol,
    max_iter,
    accept_tol,
):
    _check_online(lib, online)
    u_lo, u_hi = spec.u_bounds()
    y_lo, y_hi = spec.y_bounds()
    red = qp.assemble_reduced(
        lib.up,
        lib.yp,
        lib.uf,
        lib.yf,
        online.u_ini,
        online.y_ini,
        spec.r_bar(),
        spec.q_bar(),
        spec.y_ref_vec(),
        lambda1=lambda1,
        lambda2=lambda2,
        g2=g2,
        lambda_y=spec.lambda_y if with_sigma else None,
        u_lower=u_lo,
        u_upper=u_hi,
        y_lower=y_lo,
        y_upper=y_hi,
    )
    sol = qp.solve(red.qp, tol=tol, max_iter=max_iter, accept_tol=accept_tol)
    if sol.status is not qp.QpStatus.OPTIMAL:
        raise VariantError(name, sol)
    g, sigma, u, y = red.split(sol.z)
    sigma = sigma if sigma is not None else np.zeros(lib.p * lib.t_ini)
    obj = _variant_objective(
        spec, g, u, y, sigma if with_sigma else np.zeros(0),
        lambda1=lambda1, lambda2=lambda2, g2=g2,
    )
    return ControlSolution(u=u, y_pred=y, sigma_y=sigma, g=g, objective=obj, solver=sol)


def solve_ground_truth(
    plant: LinearPlant,
    x_ini,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Receding-horizon optimal control with the plant model known.

    The model is condensed: the stacked outputs are affine in the stacked
    inputs, ``y = Phi x_ini + Gamma u`` with ``Phi = col(C, CA, ..., CA^{N-1})``
    and ``Gamma`` the block-lower-triangular Toeplitz matrix of the Markov
    parameters ``D, CB, CAB, ...``.  Without output bounds the QP runs over u
    alone with ``P = 2 (R_bar + Gamma' Q_bar Gamma)`` and the input box; with
    ``spec.y_box`` an explicit y block, tied by ``y - Gamma u = Phi x_ini``,
    carries the output box and the tracking cost.
    """
    n, m, p = plant.n, plant.m, plant.p
    if spec.m != m or spec.p != p:
        raise ValueError("spec weights do not match plant dimensions")
    x_ini = np.asarray(x_ini, dtype=float).reshape(n)
    horizon = spec.n_horizon
    n_u = m * horizon
    n_y = p * horizon

    # phi[k] = C A^k and markov[k] = D (k = 0) or C A^{k-1} B, built by one recursion
    phi = np.empty((horizon, p, n))
    markov = np.empty((horizon + 1, p, m))
    markov[0] = plant.d
    ca = plant.c
    for k in range(horizon):
        phi[k] = ca
        markov[k + 1] = ca @ plant.b
        ca = ca @ plant.a
    lag = np.subtract.outer(np.arange(horizon), np.arange(horizon))
    blocks = np.where((lag >= 0)[:, :, None, None], markov[np.maximum(lag, 0)], 0.0)
    gamma = blocks.transpose(0, 2, 1, 3).reshape(n_y, n_u)
    free = phi.reshape(n_y, n) @ x_ini  # the zero-input response

    r_bar = spec.r_bar()
    q_bar = spec.q_bar()
    y_ref = spec.y_ref_vec()
    u_lo, u_hi = spec.u_bounds()
    y_lo, y_hi = spec.y_bounds()
    bound_y = any(v is not None and np.any(np.isfinite(v)) for v in (y_lo, y_hi))
    n_z = n_u + (n_y if bound_y else 0)
    lo = np.full(n_z, -np.inf)
    hi = np.full(n_z, np.inf)
    if u_lo is not None:
        lo[:n_u] = qp._tile_bound(u_lo, n_u)
    if u_hi is not None:
        hi[:n_u] = qp._tile_bound(u_hi, n_u)
    if bound_y:
        p_mat = np.zeros((n_z, n_z))
        p_mat[:n_u, :n_u] = 2.0 * r_bar
        p_mat[n_u:, n_u:] = 2.0 * q_bar
        q_vec = np.concatenate([np.zeros(n_u), -2.0 * (q_bar @ y_ref)])
        a_eq = np.hstack([-gamma, np.eye(n_y)])
        b_eq = free
        if y_lo is not None:
            lo[n_u:] = qp._tile_bound(y_lo, n_y)
        if y_hi is not None:
            hi[n_u:] = qp._tile_bound(y_hi, n_y)
    else:
        qg = q_bar @ gamma
        p_mat = 2.0 * (r_bar + gamma.T @ qg)
        q_vec = 2.0 * (qg.T @ (free - y_ref))
        a_eq = b_eq = None

    prob = qp.QuadProgram(
        p_mat=p_mat, q_vec=q_vec, a_eq=a_eq, b_eq=b_eq, lower=lo, upper=hi
    )
    sol = qp.solve(prob, tol=tol, max_iter=max_iter, accept_tol=accept_tol)
    if sol.status is not qp.QpStatus.OPTIMAL:
        raise VariantError("ground-truth", sol)
    u = sol.z[:n_u]
    y = sol.z[n_u:] if bound_y else free + gamma @ u
    obj = _variant_objective(spec, np.zeros(0), u, y, np.zeros(0))
    return ControlSolution(
        u=u,
        y_pred=y,
        sigma_y=np.zeros(p * spec.t_ini),
        g=np.zeros(0),
        objective=obj,
        solver=sol,
    )


def solve_basic_deepc(
    lib: HankelPartition,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Raw trajectory-library controller: hard predictor equality, no slack.

    With inconsistent (noisy) data the past-window equality has no solution
    and the solver reports it: a :class:`VariantError` with INFEASIBLE status
    is raised rather than silently relaxing the constraint.
    """
    return _solve_reduced(
        "basic", lib, online, spec,
        lambda1=0.0, lambda2=0.0, g2=None, with_sigma=False,
        tol=tol, max_iter=max_iter, accept_tol=accept_tol,
    )


def solve_hybrid(
    lib: HankelPartition,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Regularized variant on the raw library.

    Objective adds ``lambda1 ||g||_1 + lambda2 ||(I - Pi1) g||^2 +
    lambda_y ||sigma_y||^2`` to the tracking cost, with Pi1 the projector onto
    the row space of col(U_P, Y_P, U_F).
    """
    if spec.lambda_y <= 0.0:
        raise ValueError("hybrid variant requires lambda_y > 0")
    g2 = None
    if spec.lambda2 != 0.0:
        pi1 = rowspace_projector(stack_past_inputs(lib))
        g2 = np.eye(pi1.shape[0]) - pi1
    return _solve_reduced(
        "hybrid", lib, online, spec,
        lambda1=spec.lambda1, lambda2=spec.lambda2, g2=g2, with_sigma=True,
        tol=tol, max_iter=max_iter, accept_tol=accept_tol,
    )


def preprocess_svd(lib: HankelPartition) -> PreprocessedLibrary:
    """Reduce the library's column dimension by keeping W * Sigma from its SVD.

    The returned blocks span the same column space as the raw library but have
    only ``numeric_rank`` columns.
    """
    dec = compact_svd(stack_library(lib))
    h_bar = dec.w * dec.sigma
    m_t, p_t = lib.m * lib.t_ini, lib.p * lib.t_ini
    m_n = lib.m * lib.n_horizon
    return PreprocessedLibrary(
        up=h_bar[:m_t],
        yp=h_bar[m_t:m_t + p_t],
        uf=h_bar[m_t + p_t:m_t + p_t + m_n],
        yf=h_bar[m_t + p_t + m_n:],
        t_ini=lib.t_ini,
        n_horizon=lib.n_horizon,
        m=lib.m,
        p=lib.p,
        provenance="svd",
    )


def solve_svd(
    prelib: PreprocessedLibrary,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Same formulation as the hybrid variant on the SVD-reduced library."""
    if prelib.provenance != "svd":
        raise ValueError(f"expected an 'svd' library, got '{prelib.provenance}'")
    if spec.lambda_y <= 0.0:
        raise ValueError("svd variant requires lambda_y > 0")
    g2 = None
    if spec.lambda2 != 0.0:
        pi1 = rowspace_projector(stack_past_inputs(prelib))
        g2 = np.eye(pi1.shape[0]) - pi1
    return _solve_reduced(
        "svd", prelib, online, spec,
        lambda1=spec.lambda1, lambda2=spec.lambda2, g2=g2, with_sigma=True,
        tol=tol, max_iter=max_iter, accept_tol=accept_tol,
    )


def build_spc_library(lib: HankelPartition) -> PreprocessedLibrary:
    """Replace Y_F by its row-space projection M = Y_F (H1^+ H1) onto col(U_P, Y_P, U_F)."""
    m_mat = project_rows(lib.yf, stack_past_inputs(lib))
    return PreprocessedLibrary(
        up=lib.up,
        yp=lib.yp,
        uf=lib.uf,
        yf=m_mat,
        t_ini=lib.t_ini,
        n_horizon=lib.n_horizon,
        m=lib.m,
        p=lib.p,
        provenance="spc-projected",
    )


def solve_dd_spc(
    prelib: PreprocessedLibrary,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Library controller with the projected future-output block (no row-space penalty)."""
    if prelib.provenance != "spc-projected":
        raise ValueError(
            f"expected an 'spc-projected' library, got '{prelib.provenance}'"
        )
    if spec.lambda_y <= 0.0:
        raise ValueError("dd-spc variant requires lambda_y > 0")
    return _solve_reduced(
        "ddspc", prelib, online, spec,
        lambda1=spec.lambda1, lambda2=0.0, g2=None, with_sigma=True,
        tol=tol, max_iter=max_iter, accept_tol=accept_tol,
    )


def solve_classical_spc(
    lib: HankelPartition,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Least-squares subspace predictor: y is eliminated through Y_F H1^+.

    The reduced QP runs over (u, sigma_y) only; the predicted output is
    ``Y_F H1^+ col(u_ini, y_ini + sigma_y, u)``.
    """
    if spec.lambda_y <= 0.0:
        raise ValueError("classical spc requires lambda_y > 0")
    _check_online(lib, online)
    h1 = stack_past_inputs(lib)
    pred = lib.yf @ pinv(h1)  # (p*N) x rows(H1)
    m_t = lib.m * lib.t_ini
    p_t = lib.p * lib.t_ini
    t_up = pred[:, :m_t]
    t_yp = pred[:, m_t:m_t + p_t]
    t_uf = pred[:, m_t + p_t:]
    c0 = t_up @ online.u_ini + t_yp @ online.y_ini

    n_u = lib.m * lib.n_horizon
    n_sig = p_t
    n_z = n_u + n_sig
    q_bar = spec.q_bar()
    y_ref = spec.y_ref_vec()
    d0 = c0 - y_ref
    p_mat = np.zeros((n_z, n_z))
    p_mat[:n_u, :n_u] = 2.0 * (spec.r_bar() + t_uf.T @ q_bar @ t_uf)
    p_mat[:n_u, n_u:] = 2.0 * (t_uf.T @ q_bar @ t_yp)
    p_mat[n_u:, :n_u] = p_mat[:n_u, n_u:].T
    p_mat[n_u:, n_u:] = 2.0 * (spec.lambda_y * np.eye(n_sig) + t_yp.T @ q_bar @ t_yp)
    q_vec = np.concatenate([2.0 * (t_uf.T @ (q_bar @ d0)), 2.0 * (t_yp.T @ (q_bar @ d0))])

    lo = np.full(n_z, -np.inf)
    hi = np.full(n_z, np.inf)
    u_lo, u_hi = spec.u_bounds()
    if u_lo is not None:
        lo[:n_u] = qp._tile_bound(u_lo, n_u)
    if u_hi is not None:
        hi[:n_u] = qp._tile_bound(u_hi, n_u)

    prob = qp.QuadProgram(p_mat=p_mat, q_vec=q_vec, lower=lo, upper=hi)
    sol = qp.solve(prob, tol=tol, max_iter=max_iter, accept_tol=accept_tol)
    if sol.status is not qp.QpStatus.OPTIMAL:
        raise VariantError("spc", sol)
    u = sol.z[:n_u]
    sigma = sol.z[n_u:]
    y = c0 + t_yp @ sigma + t_uf @ u
    obj = _variant_objective(spec, np.zeros(0), u, y, sigma)
    return ControlSolution(
        u=u, y_pred=y, sigma_y=sigma, g=np.zeros(0), objective=obj, solver=sol
    )


def preprocess_svd_iter(
    lib: HankelPartition,
    n_order: int,
    eps: float = 1e-6,
    max_iter: int = 200,
) -> PreprocessedLibrary:
    """Denoise the output Hankel, rebuild the library, and reduce its columns.

    Runs the iterative structured low-rank approximation on col(Y_P, Y_F),
    reassembles col(U_P, Y_P*, U_F, Y_F*), and keeps the leading
    ``m*L + n_order`` singular triplets so the result has exactly that many
    columns.  Non-convergence of the denoiser is surfaced as a warning; the
    library is still produced from the last iterate.
    """
    if n_order < 1:
        raise ValueError("n_order must be at least 1")
    h_y = np.vstack([lib.yp, lib.yf])
    h_u = np.vstack([lib.up, lib.uf])
    report = iterative_slra(h_y, h_u, n_order, eps, max_iter, block_size=lib.p)
    if not report.converged:
        warnings.warn(
            f"structured low-rank denoiser hit the iteration cap "
            f"(rel change {report.final_rel_change:.2e})",
            RuntimeWarning,
        )
    p_t = lib.p * lib.t_ini
    yp_star = report.h_y_star[:p_t]
    yf_star = report.h_y_star[p_t:]
    h_tilde = np.vstack([lib.up, yp_star, lib.uf, yf_star])
    dec = compact_svd(h_tilde)
    keep = lib.m * lib.depth + n_order
    if dec.rank < keep:
        keep = dec.rank
    h_hat = dec.w[:, :keep] * dec.sigma[:keep]
    m_t = lib.m * lib.t_ini
    m_n = lib.m * lib.n_horizon
    return PreprocessedLibrary(
        up=h_hat[:m_t],
        yp=h_hat[m_t:m_t + p_t],
        uf=h_hat[m_t + p_t:m_t + p_t + m_n],
        yf=h_hat[m_t + p_t + m_n:],
        t_ini=lib.t_ini,
        n_horizon=lib.n_horizon,
        m=lib.m,
        p=lib.p,
        provenance="slra-svd",
        slra=report,
    )


def solve_svd_iter(
    prelib: PreprocessedLibrary,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Controller on the denoised+reduced library; no l1 term in this formulation."""
    if prelib.provenance != "slra-svd":
        raise ValueError(f"expected an 'slra-svd' library, got '{prelib.provenance}'")
    if spec.lambda_y <= 0.0:
        raise ValueError("svd-iter variant requires lambda_y > 0")
    g2 = None
    if spec.lambda2 != 0.0:
        pi1 = rowspace_projector(stack_past_inputs(prelib))
        g2 = np.eye(pi1.shape[0]) - pi1
    return _solve_reduced(
        "svd-iter", prelib, online, spec,
        lambda1=0.0, lambda2=spec.lambda2, g2=g2, with_sigma=True,
        tol=tol, max_iter=max_iter, accept_tol=accept_tol,
    )


def realized_cost(plant, true_state, u_applied, spec: ControlSpec) -> float:
    """Roll the true plant under the computed inputs and price the actual outputs.

    Noise-free evaluation of ``sum_k ||y_true(k) - y_ref(k)||_Q^2 + ||u(k)||_R^2``
    with the same stage weights as the controllers.
    """
    u_seq = np.asarray(u_applied, dtype=float).reshape(spec.n_horizon, spec.m)
    y_ref = spec.y_ref_vec().reshape(spec.n_horizon, spec.p)
    q_w, r_w = spec.q_weight, spec.r_weight
    cost = 0.0
    if isinstance(plant, NonlinearPlant):
        x = np.asarray(true_state, dtype=float).reshape(2)
        for k in range(spec.n_horizon):
            dy = x - y_ref[k]
            cost += float(dy @ q_w @ dy + u_seq[k] @ r_w @ u_seq[k])
            x = lv_step(plant, x, u_seq[k, 0])
    else:
        x = np.asarray(true_state, dtype=float).reshape(plant.n)
        for k in range(spec.n_horizon):
            x_next, y = step_linear(plant, x, u_seq[k])
            dy = y - y_ref[k]
            cost += float(dy @ q_w @ dy + u_seq[k] @ r_w @ u_seq[k])
            x = x_next
    return cost


def save_solution_csv(sol: ControlSolution, path, m: int, p: int) -> None:
    """Write the planned inputs and predicted outputs as CSV rows ``k,u_1..,y_1..``."""
    n_horizon = sol.u.size // m
    u_seq = sol.u.reshape(n_horizon, m)
    y_seq = sol.y_pred.reshape(n_horizon, p)
    names = ["k"] + [f"u_{i + 1}" for i in range(m)] + [f"y_{i + 1}" for i in range(p)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(names) + "\n")
        for k in range(n_horizon):
            vals = [f"{v:.17g}" for v in (*u_seq[k], *y_seq[k])]
            fh.write(f"{k}," + ",".join(vals) + "\n")
