"""Controller formulations: model-based ground truth, the raw trajectory-library
controller, its regularized/dimension-reduced relatives, subspace predictors,
and realized-cost evaluation.

Every controller solves one outer problem, built by
:func:`deepckit.qp.tracking_program`: a tracking cost on the predicted outputs
y plus input and output boxes.  They differ in how y is predicted: by the
model, by the least-squares subspace map, or by the library through its
coefficients g.  Every controller's program goes through one solve path,
which unpacks u, y, sigma_y and g and reports the objective as the program's
plus the tracking cost's constant.  A library is always a
:class:`~deepckit.hankel.HankelPartition`; a pre-processing step (the inner,
identification problem) returns a copy tagged with its ``provenance``.  The
variants with an l1 term or a hard equality share one QP over g (see
:func:`deepckit.qp.assemble_reduced`), the others one least-squares predictor;
they differ only in the library blocks they consume and the regularizers they
activate, the two choices each :class:`Variant` record in :data:`VARIANTS` holds:

=============  =================  ====================================
variant        library blocks     regularizers
=============  =================  ====================================
basic          raw                none (hard equality, no slack)
hybrid         raw                l1(g), ||(I-Pi1) g||^2, ||sigma_y||^2
svd            W*Sigma            same, with the reduced projector
ddspc          raw with Yf -> M   l1(g), ||sigma_y||^2
svd-iter       denoised+reduced   ||nu||^2 on null(H1), ||sigma_y||^2
classical spc  least-squares map  ||sigma_y||^2 (g = H1^+ r)
=============  =================  ====================================

Cross-variant comparisons are made on (u, y, sigma_y) only; g is non-unique.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import block_diag

from . import qp
from .hankel import HankelPartition
from .matlib import compact_svd, rowspace_projector
from .plants import LinearPlant, rollout
from .slra import iterative_slra

__all__ = [
    "ControlSpec",
    "Variant",
    "VARIANTS",
    "OnlineData",
    "ControlSolution",
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
    "SLRA_CAP_WARNING",
    "solve_svd_iter",
    "realized_cost",
    "stack_library",
    "stack_past_inputs",
    "save_solution_csv",
]


def _check_weight(name: str, weight: np.ndarray, definite: bool) -> None:
    """Reject a stage weight that is not square, finite, symmetric and PSD (PD if ``definite``)."""
    if weight.ndim != 2 or weight.shape[0] != weight.shape[1] or not np.isfinite(weight).all():
        raise ValueError(f"{name} must be a finite square matrix, got shape {weight.shape}")
    scale = float(np.abs(weight).max())
    if float(np.abs(weight - weight.T).max()) > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric")
    low = float(np.linalg.eigvalsh(weight)[0])
    if low <= 0.0 if definite else low < -1e-12 * scale:
        raise ValueError(f"{name} must be positive {'definite' if definite else 'semidefinite'}")


@dataclass(frozen=True)
class ControlSpec:
    """Horizons, stage weights, regularizer strengths, constraint boxes, reference.

    ``q_weight`` (p x p, PSD) and ``r_weight`` (m x m, PD) are per-stage costs;
    ``u_box``/``y_box`` are per-channel (lo, hi) pairs, each side None or of
    length m/p, ``y_box=None`` meaning unconstrained outputs; ``y_ref`` is the
    stacked (p*n_horizon) reference and defaults to regulation at zero.
    Specs are immutable: derive variations with :func:`dataclasses.replace`,
    which validates them again.
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
        for name, definite in (("q_weight", False), ("r_weight", True)):
            weight = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            _check_weight(name, weight, definite)
            object.__setattr__(self, name, weight)
        for name, size in (("u_box", self.m), ("y_box", self.p)):
            if any(np.size(s) != size for s in getattr(self, name) or () if s is not None):
                raise ValueError(f"each side of {name} must have length {size}, one per channel")
        if not all(0.0 <= lam < np.inf for lam in (self.lambda1, self.lambda2, self.lambda_y)):
            raise ValueError("regularizer weights must be finite and nonnegative")
        if self.y_ref is not None:
            object.__setattr__(self, "y_ref", np.asarray(self.y_ref, dtype=float).ravel())
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


class VariantError(RuntimeError):
    """A variant's QP did not reach an optimal certificate."""

    def __init__(self, variant: str, solution: qp.QpSolution):
        super().__init__(f"{variant}: solver returned {solution.status.value}")
        self.variant = variant
        self.solution = solution

    @property
    def status(self) -> qp.QpStatus:
        return self.solution.status


@dataclass(frozen=True)
class Variant:
    """One data-driven controller as a choice of library and relaxations.

    ``provenance`` is the :attr:`HankelPartition.provenance` of the library
    the solver requires; ``l1``, ``ridge`` and ``slack`` say whether
    ``lambda1 ||g||_1``, ``lambda2 ||(I - Pi1) g||^2`` and
    ``lambda_y ||sigma_y||^2`` are active.  ``solver`` and ``preprocess`` name
    this module's public functions; callers look them up as attributes at call
    time, so a wrapped module attribute is what runs.
    """

    name: str
    solver: str
    preprocess: str | None
    provenance: str
    l1: bool
    ridge: bool
    slack: bool


VARIANTS = {v.name: v for v in (
    # name, solver, pre-processing, required provenance, l1, ridge, slack
    Variant("basic", "solve_basic_deepc", None, "raw", False, False, False),
    Variant("hybrid", "solve_hybrid", None, "raw", True, True, True),
    Variant("svd", "solve_svd", "preprocess_svd", "svd", True, True, True),
    Variant("ddspc", "solve_dd_spc", "build_spc_library", "spc-projected", True, False, True),
    Variant("svd-iter", "solve_svd_iter", "preprocess_svd_iter", "slra-svd", False, True, True),
    Variant("spc", "solve_classical_spc", None, "raw", False, False, True),
)}


def stack_library(lib: HankelPartition) -> np.ndarray:
    """col(U_P, Y_P, U_F, Y_F) of a (possibly preprocessed) library."""
    return np.vstack([lib.up, lib.yp, lib.uf, lib.yf])


def stack_past_inputs(lib: HankelPartition) -> np.ndarray:
    """col(U_P, Y_P, U_F): every block except the future outputs."""
    return np.vstack([lib.up, lib.yp, lib.uf])


def _past_projector(lib: HankelPartition) -> np.ndarray:
    """Pi1, the projector onto the row space of H1 = col(U_P, Y_P, U_F), computed
    at most once per library and kept in its cache (:func:`preprocess_svd`
    fills a reduced library's)."""
    if "pi1" not in lib._cache:
        lib._cache["pi1"] = rowspace_projector(stack_past_inputs(lib))
    return lib._cache["pi1"]


def _check_inputs(variant: Variant, lib, online: OnlineData, spec: ControlSpec) -> None:
    """Library provenance, slack weight, spec and online windows of one solve."""
    if lib.provenance != variant.provenance:
        raise ValueError(f"expected an '{variant.provenance}' library, got '{lib.provenance}'")
    if variant.slack and spec.lambda_y <= 0.0:
        raise ValueError(f"{variant.name} variant requires lambda_y > 0")
    if (spec.t_ini, spec.n_horizon) != (lib.t_ini, lib.n_horizon):
        raise ValueError(
            f"spec windows (t_ini={spec.t_ini}, n_horizon={spec.n_horizon}) do not match "
            f"the library's (t_ini={lib.t_ini}, n_horizon={lib.n_horizon})"
        )
    if online.u_ini.size != lib.m * lib.t_ini or online.y_ini.size != lib.p * lib.t_ini:
        raise ValueError("online data lengths do not match the library windows")


def _solve(name: str, prog: qp.TrackingQp, spec: ControlSpec, tol, max_iter, accept_tol):
    """Solve a controller's tracking QP and unpack u, y, sigma_y and g.

    A controller without a slack reports a zero ``sigma_y``, and one without
    library coefficients an empty ``g``.
    """
    sol = qp.solve(prog.qp, tol=tol, max_iter=max_iter, accept_tol=accept_tol)
    if sol.status is not qp.QpStatus.OPTIMAL:
        raise VariantError(name, sol)
    z = sol.z
    sigma = np.zeros(spec.p * spec.t_ini) if prog.sigma_slice is None else z[prog.sigma_slice]
    return ControlSolution(
        u=z[prog.u_slice], y_pred=prog.outputs(z), sigma_y=sigma, g=z[:prog.n_g],
        objective=sol.objective + prog.const, solver=sol,
    )


def _solve_reduced(variant: Variant, lib, online, spec, tol, max_iter, accept_tol):
    """The reduced QP over g with the variant's regularizers; see the module table."""
    _check_inputs(variant, lib, online, spec)
    lambda2 = spec.lambda2 if variant.ridge else 0.0
    g2 = None
    if lambda2 != 0.0:
        pi1 = _past_projector(lib)
        g2 = np.eye(pi1.shape[0]) - pi1
    prog = qp.assemble_reduced(
        lib.up, lib.yp, lib.uf, lib.yf, online.u_ini, online.y_ini,
        spec.r_bar(), spec.q_bar(), spec.y_ref_vec(),
        lambda1=spec.lambda1 if variant.l1 else 0.0, lambda2=lambda2, g2=g2,
        lambda_y=spec.lambda_y if variant.slack else None, u_box=spec.u_box, y_box=spec.y_box,
    )
    return _solve(variant.name, prog, spec, tol, max_iter, accept_tol)


def _solve_predictor(variant: Variant, lib, online, spec, tol, max_iter, accept_tol):
    """The least-squares predictor y = Y_F g, g = H1^+ r, r = col(u_ini, y_ini + sigma_y, u).

    Classical SPC is this program over (u, sigma_y).  With the ridge it is the
    library form ``H1 g = r`` plus ``lambda2 ||(I - Pi1) g||^2`` exactly.  g is
    then eliminated only along H1's ``m*L`` leading singular directions, whose
    gain 1/sigma the input rows bound; as curvature, a larger gain can stall
    the interior-point method.  g's other coordinates stay variables: those in
    H1's row space are tied by the rows W' (r - H1 g) = 0, which on H1's left
    null space keep r in range(H1), and those on its null space, nu, are priced
    ``lambda2 ||nu||^2``.
    """
    _check_inputs(variant, lib, online, spec)
    h1 = stack_past_inputs(lib)
    dec = compact_svd(h1, complements=variant.ridge)
    lead = min(dec.rank, lib.m * lib.depth) if variant.ridge else dec.rank
    h1_pinv = (dec.v[:, :lead] / dec.sigma[:lead]) @ dec.w[:, :lead].T  # as matlib.pinv
    m_t, p_t, n_u = lib.m * lib.t_ini, lib.p * lib.t_ini, lib.m * lib.n_horizon
    t_up, t_yp, t_uf = np.split(lib.yf @ h1_pinv, [m_t, m_t + p_t], axis=1)
    curvature, y_map = [2.0 * spec.r_bar(), 2.0 * spec.lambda_y * np.eye(p_t)], [t_uf, t_yp]
    basis, a_eq, b_eq = np.zeros((lib.n_cols, 0)), None, None
    if variant.ridge:
        basis = np.hstack([dec.v[:, lead:], dec.v_perp])
        curvature += [np.zeros((dec.rank - lead,) * 2),
                      2.0 * spec.lambda2 * np.eye(dec.v_perp.shape[1])]
        y_map.append(lib.yf @ basis)
        left = np.hstack([dec.w[:, lead:], dec.w_perp])
        l_up, l_yp, l_uf = np.split(left.T, [m_t, m_t + p_t], axis=1)
        a_eq = np.hstack([l_uf, l_yp, -(left.T @ h1 @ basis)])
        b_eq = -(l_up @ online.u_ini + l_yp @ online.y_ini)
    prog = qp.tracking_program(
        block_diag(*curvature), np.hstack(y_map), t_up @ online.u_ini + t_yp @ online.y_ini,
        spec.q_bar(), spec.y_ref_vec(), slice(0, n_u),
        a_eq=a_eq, b_eq=b_eq, u_box=spec.u_box, y_box=spec.y_box,
    )
    prog = replace(prog, sigma_slice=slice(n_u, n_u + p_t))
    sol = _solve(variant.name, prog, spec, tol, max_iter, accept_tol)
    coords = sol.solver.z[n_u + p_t:][:basis.shape[1]]
    sol.g = h1_pinv @ np.concatenate([online.u_ini, online.y_ini + sol.sigma_y, sol.u])
    sol.g += basis @ coords
    return sol


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
    parameters ``D, CB, CAB, ...``.  The QP runs over u with
    ``P = 2 R_bar``; :func:`deepckit.qp.tracking_program` adds the tracking
    cost of ``y`` and the input and output boxes.
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

    prog = qp.tracking_program(
        2.0 * spec.r_bar(), gamma, free, spec.q_bar(), spec.y_ref_vec(), slice(0, n_u),
        u_box=spec.u_box, y_box=spec.y_box,
    )
    return _solve("ground-truth", prog, spec, tol, max_iter, accept_tol)


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
    return _solve_reduced(VARIANTS["basic"], lib, online, spec, tol, max_iter, accept_tol)


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
    return _solve_reduced(VARIANTS["hybrid"], lib, online, spec, tol, max_iter, accept_tol)


def _library(lib: HankelPartition, provenance: str, rows, slra=None) -> HankelPartition:
    """``lib`` with its blocks cut from the stacked rows col(U_P, Y_P, U_F, Y_F)."""
    m_t, p_t = lib.m * lib.t_ini, lib.p * lib.t_ini
    up, yp, uf, yf = np.split(rows, [m_t, m_t + p_t, m_t + p_t + lib.m * lib.n_horizon])
    return replace(lib, up=up, yp=yp, uf=uf, yf=yf, provenance=provenance, slra=slra)


def preprocess_svd(lib: HankelPartition) -> HankelPartition:
    """Reduce the library's column dimension by keeping W * Sigma from its SVD.

    The returned blocks span the same column space as the raw library but have
    only ``numeric_rank`` columns.  They are the source's blocks times V, its
    right singular vectors, and every row of the source lies in range(V); so
    the reduced library's Pi1 is V' Pi1 V, from the source's cached Pi1, with
    no SVD of its own.
    """
    dec = compact_svd(stack_library(lib))
    reduced = _library(lib, "svd", dec.w * dec.sigma)
    reduced._cache["pi1"] = dec.v.T @ _past_projector(lib) @ dec.v
    return reduced


def solve_svd(
    prelib: HankelPartition,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Same formulation as the hybrid variant on the SVD-reduced library."""
    return _solve_reduced(VARIANTS["svd"], prelib, online, spec, tol, max_iter, accept_tol)


def build_spc_library(lib: HankelPartition) -> HankelPartition:
    """Replace Y_F by its row-space projection M = Y_F (H1^+ H1) onto col(U_P, Y_P, U_F).

    H1^+ H1 is the library's Pi1, which the hybrid controller's ridge shares.
    """
    return replace(lib, yf=lib.yf @ _past_projector(lib), provenance="spc-projected")


def solve_dd_spc(
    prelib: HankelPartition,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Library controller with the projected future-output block (no row-space penalty)."""
    return _solve_reduced(VARIANTS["ddspc"], prelib, online, spec, tol, max_iter, accept_tol)


def solve_classical_spc(
    lib: HankelPartition,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Least-squares subspace predictor: y is predicted through Y_F H1^+ (see
    :func:`_solve_predictor`); ``g`` reports H1^+ col(u_ini, y_ini + sigma_y, u)."""
    return _solve_predictor(VARIANTS["spc"], lib, online, spec, tol, max_iter, accept_tol)


# start of the RuntimeWarning raised when the denoiser stops at its pass limit
SLRA_CAP_WARNING = "structured low-rank denoiser hit the iteration cap"


def preprocess_svd_iter(
    lib: HankelPartition,
    n_order: int,
    eps: float = 1e-6,
    max_iter: int = 200,
) -> HankelPartition:
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
            f"{SLRA_CAP_WARNING} (rel change {report.final_rel_change:.2e})",
            RuntimeWarning,
        )
    y_star = np.split(report.h_y_star, [lib.p * lib.t_ini])
    dec = compact_svd(np.vstack([lib.up, y_star[0], lib.uf, y_star[1]]))
    keep = min(lib.m * lib.depth + n_order, dec.rank)
    h_hat = dec.w[:, :keep] * dec.sigma[:keep]
    return _library(lib, "slra-svd", h_hat, slra=report)


def solve_svd_iter(
    prelib: HankelPartition,
    online: OnlineData,
    spec: ControlSpec,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> ControlSolution:
    """Controller on the denoised+reduced library, solved through its
    least-squares predictor (see :func:`_solve_predictor`); no l1 term."""
    return _solve_predictor(VARIANTS["svd-iter"], prelib, online, spec, tol, max_iter, accept_tol)


def realized_cost(plant, true_state, u_applied, spec: ControlSpec) -> float:
    """Roll the true plant under the computed inputs and price the actual outputs.

    Noise-free evaluation of ``sum_k ||y_true(k) - y_ref(k)||_Q^2 + ||u(k)||_R^2``
    with the same stage weights as the controllers.
    """
    u_seq = np.asarray(u_applied, dtype=float).reshape(spec.n_horizon, spec.m)
    y_seq, _ = rollout(plant, true_state, u_seq)
    dy = y_seq - spec.y_ref_vec().reshape(spec.n_horizon, spec.p)
    q_w, r_w = spec.q_weight, spec.r_weight
    cost = 0.0
    for k in range(spec.n_horizon):
        cost += float(dy[k] @ q_w @ dy[k] + u_seq[k] @ r_w @ u_seq[k])
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
