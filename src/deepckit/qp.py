"""Self-contained convex QP solver used by every controller variant.

Problems have the form

    minimize    0.5 z' P z + q' z + sum_i w_i |z_i|
    subject to  A_eq z = b_eq,   lower <= z <= upper

with P symmetric positive semidefinite and w >= 0 elementwise.  The solver is
a Mehrotra predictor-corrector primal-dual interior-point method on the dense
KKT system.  Each iteration LU-factors its KKT matrix once, and the predictor,
the corrector and their refinement steps all solve against that one
factorization.  Problem sizes here stay below a few hundred variables, where a
dense LU factorization per iteration is cheap and delivers the high-accuracy
solutions needed to certify equivalence results to 1e-5 and tighter.

The l1 terms are handled exactly by splitting each weighted variable into a
difference of nonnegative parts (z_i = a_i - b_i); at the optimum the split is
complementary (a_i * b_i = O(tol)).  Infinite bounds are treated as absent
constraints, never as large numbers.  An inconsistent equality system is
detected up front via the least-squares residual and reported as Infeasible.

Reported residuals are relative measures: `primal_residual` scales equality
violations by 1 + |b| + |A z| per row, `dual_residual` scales stationarity by
the magnitudes of its own terms per row, and `gap` is the total complementarity
divided by 1 + |objective|.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "QpStatus",
    "QuadProgram",
    "QpSolution",
    "solve",
    "kkt_residuals",
    "assemble_reduced",
    "ReducedQp",
    "save_program_csv",
]

_FEAS_TOL = 1e-7  # least-squares consistency threshold for the equality system


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"


@dataclass
class QuadProgram:
    """Canonical convex QP with quadratic + elementwise l1 objective, equalities, and boxes."""

    p_mat: np.ndarray
    q_vec: np.ndarray
    l1_weights: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.p_mat, dtype=float)
        q = np.asarray(self.q_vec, dtype=float).ravel()
        n = q.size
        if p.shape != (n, n):
            raise ValueError(f"p_mat must be {n}x{n}, got {p.shape}")
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ValueError("objective contains non-finite entries")
        self.p_mat = 0.5 * (p + p.T)  # symmetrized on construction
        self.q_vec = q
        w = (
            np.zeros(n)
            if self.l1_weights is None
            else np.asarray(self.l1_weights, dtype=float).ravel()
        )
        if w.size != n or not np.isfinite(w).all() or np.any(w < 0.0):
            raise ValueError("l1_weights must be n nonnegative finite reals")
        self.l1_weights = w
        a = (
            np.zeros((0, n))
            if self.a_eq is None
            else np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        )
        b = (
            np.zeros(0)
            if self.b_eq is None
            else np.asarray(self.b_eq, dtype=float).ravel()
        )
        if a.shape[1] != n or a.shape[0] != b.size:
            raise ValueError("equality system dimensions inconsistent")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("equality system contains non-finite entries")
        self.a_eq = a
        self.b_eq = b
        lo = (
            np.full(n, -np.inf)
            if self.lower is None
            else np.asarray(self.lower, dtype=float).ravel()
        )
        hi = (
            np.full(n, np.inf)
            if self.upper is None
            else np.asarray(self.upper, dtype=float).ravel()
        )
        if lo.size != n or hi.size != n:
            raise ValueError("bound vectors must have length n")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("bounds may be infinite but not NaN")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        self.lower = lo
        self.upper = hi

    @property
    def n_vars(self) -> int:
        return self.q_vec.size

    def objective(self, z) -> float:
        z = np.asarray(z, dtype=float).ravel()
        return float(
            0.5 * z @ self.p_mat @ z
            + self.q_vec @ z
            + self.l1_weights @ np.abs(z)
        )


@dataclass
class QpSolution:
    """Solver output: primal point, objective, scaled residuals, and status."""

    z: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    gap: float
    iterations: int
    status: QpStatus
    _cert: dict | None = field(default=None, repr=False)


def _push_interior(x, lo, hi):
    """Move a point strictly inside its box (no-op for infinite bounds)."""
    x = x.copy()
    both = np.isfinite(lo) & np.isfinite(hi)
    margin = np.zeros_like(x)
    margin[both] = 0.1 * (hi[both] - lo[both]) + 1e-12
    only_lo = np.isfinite(lo) & ~np.isfinite(hi)
    only_hi = ~np.isfinite(lo) & np.isfinite(hi)
    x[both] = np.clip(x[both], lo[both] + margin[both], hi[both] - margin[both])
    x[only_lo] = np.maximum(x[only_lo], lo[only_lo] + 1.0)
    x[only_hi] = np.minimum(x[only_hi], hi[only_hi] - 1.0)
    return x


def _measure(P, q, A, b, lo, hi, jl, ju, x, y, zl, zu):
    """Scaled primal/dual/complementarity residuals at an iterate."""
    px = P @ x
    aty = A.T @ y if A.shape[0] else np.zeros_like(x)
    rd = px + q + aty
    rd[jl] -= zl
    rd[ju] += zu
    sd = 1.0 + np.abs(q) + np.abs(px) + np.abs(aty)
    sd[jl] += zl
    sd[ju] += zu
    dual = float(np.max(np.abs(rd) / sd)) if rd.size else 0.0
    if A.shape[0]:
        ax = A @ x
        rp = ax - b
        sp = 1.0 + np.abs(b) + np.abs(ax)
        primal = float(np.max(np.abs(rp) / sp))
    else:
        primal = 0.0
    # box violation (zero while the iterate stays interior)
    viol = 0.0
    if jl.size:
        viol = max(viol, float(np.max((lo[jl] - x[jl]) / (1.0 + np.abs(lo[jl])))))
    if ju.size:
        viol = max(viol, float(np.max((x[ju] - hi[ju]) / (1.0 + np.abs(hi[ju])))))
    primal = max(primal, viol, 0.0)
    obj = 0.5 * x @ px + q @ x
    comp = 0.0
    if jl.size:
        comp += float(np.sum((x[jl] - lo[jl]) * zl))
    if ju.size:
        comp += float(np.sum((hi[ju] - x[ju]) * zu))
    gap = abs(comp) / (1.0 + abs(obj))
    return primal, dual, gap


_BUMPS = (1.0, 1e3, 1e6)  # regularization escalation levels, tried in order


class _Kkt:
    """The (regularized) reduced KKT matrix of one iterate, LU-factored at most once per level.

    Uses a static diagonal regularization scaled to each variable's own
    curvature plus iterative refinement against the unregularized matrix, so
    singular KKT systems (non-unique optimizers) still yield accurate steps.
    A regularization level is factored the first time a right-hand side needs
    it and the factorization is cached, so every solve against this matrix
    (predictor, corrector, their refinement steps) shares one LU.
    """

    def __init__(self, P, diag_term, A):
        n = P.shape[0]
        me = A.shape[0]
        dim = n + me
        k0 = np.zeros((dim, dim))
        k0[:n, :n] = P
        k0[np.arange(n), np.arange(n)] += diag_term
        if me:
            k0[:n, n:] = A.T
            k0[n:, :n] = A
        self.k0 = k0
        self._shift = np.zeros(dim)
        self._shift[:n] = 1e-12 * (1.0 + np.abs(np.diag(P)) + diag_term)
        self._shift[n:] = -1e-12
        self._lu = {}  # bump -> LU factors, or None when factorization failed

    def _factor(self, bump):
        if bump not in self._lu:
            kr = self.k0.copy()
            kr[np.diag_indices_from(kr)] += self._shift * bump
            try:
                self._lu[bump] = scipy.linalg.lu_factor(kr, check_finite=False)
            except (scipy.linalg.LinAlgError, ValueError):
                self._lu[bump] = None
        return self._lu[bump]

    def solve(self, rhs):
        """Solve against the first regularization level that yields a finite step."""
        if not np.isfinite(rhs).all():
            raise np.linalg.LinAlgError("non-finite KKT right-hand side")
        k0 = self.k0
        for bump in _BUMPS:
            lu = self._factor(bump)
            if lu is None:
                continue
            w = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
            if not np.isfinite(w).all():
                continue
            # refinement against the unregularized matrix, kept only if it helps
            res = rhs - k0 @ w
            best = float(np.linalg.norm(res, np.inf))
            for _ in range(2):
                if best <= 1e-14 * (1.0 + float(np.linalg.norm(rhs, np.inf))):
                    break
                w_try = w + scipy.linalg.lu_solve(lu, res, check_finite=False)
                res_try = rhs - k0 @ w_try
                nres = float(np.linalg.norm(res_try, np.inf))
                if np.isfinite(nres) and nres < best:
                    w, res, best = w_try, res_try, nres
                else:
                    break
            return w
        raise np.linalg.LinAlgError("KKT system could not be factorized")


def _safe_div(num, den):
    """Elementwise division guarded against pinned (zero) slacks."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = num / den
    return np.nan_to_num(out, nan=0.0, posinf=1e140, neginf=-1e140)


def _max_step(v, dv):
    """Largest alpha with v + alpha*dv >= 0 (v > 0 componentwise)."""
    neg = dv < 0.0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def _ipm(P, q, A, b, lo, hi, tol, max_iter, x0=None, accept_tol=None):
    """Mehrotra predictor-corrector for box- and equality-constrained QPs.

    Iterates toward ``tol``; if progress stalls first (conditioning floor),
    the best iterate seen is returned and judged against ``accept_tol``.
    """
    accept_tol = tol if accept_tol is None else max(tol, accept_tol)
    n = q.size
    me = A.shape[0]
    jl = np.flatnonzero(np.isfinite(lo))
    ju = np.flatnonzero(np.isfinite(hi))
    nb = jl.size + ju.size

    if x0 is not None:
        x = np.asarray(x0, dtype=float).ravel().copy()
    elif me:
        x = np.linalg.lstsq(A, b, rcond=None)[0]
    else:
        x = np.zeros(n)
    x = _push_interior(x, lo, hi)
    # dual start near the least-squares stationary point; bound duals pick up
    # the scale of the gradient so l1-split weights do not derail early steps
    grad = P @ x + q
    y = np.linalg.lstsq(A.T, -grad, rcond=None)[0] if me else np.zeros(0)
    resid = grad + (A.T @ y if me else 0.0)
    zl = np.maximum(1.0, resid[jl])
    zu = np.maximum(1.0, -resid[ju])

    if nb == 0:
        # Equality-constrained QP: Newton is exact, polish a few times.
        kkt = _Kkt(P, np.zeros(n), A)
        iters = 0
        for _ in range(3):
            iters += 1
            rd = P @ x + q + (A.T @ y if me else 0.0)
            rp = A @ x - b if me else np.zeros(0)
            w = kkt.solve(np.concatenate([-rd, -rp]))
            x = x + w[:n]
            y = y + w[n:]
            primal, dual, gap = _measure(P, q, A, b, lo, hi, jl, ju, x, y, zl, zu)
            if max(primal, dual, gap) <= tol:
                break
        status = (
            QpStatus.OPTIMAL
            if max(primal, dual, gap) <= accept_tol
            else QpStatus.MAX_ITERATIONS
        )
        return x, y, zl, zu, iters, status, (primal, dual, gap)

    best = None  # (merit, x, y, zl, zu, residual triple)
    stalled = 0
    primal = dual = gap = np.inf
    iters = 0
    for it in range(1, max_iter + 1):
        iters = it
        sl = np.maximum(x[jl] - lo[jl], 1e-250)
        su = np.maximum(hi[ju] - x[ju], 1e-250)
        primal, dual, gap = _measure(P, q, A, b, lo, hi, jl, ju, x, y, zl, zu)
        merit = max(primal, dual, gap)
        if best is None or merit < best[0]:
            best = (merit, x.copy(), y.copy(), zl.copy(), zu.copy(), (primal, dual, gap))
            stalled = 0
        else:
            stalled += 1
        if merit <= tol:
            return x, y, zl, zu, it - 1, QpStatus.OPTIMAL, (primal, dual, gap)
        if stalled >= 15:
            break

        rd = P @ x + q + (A.T @ y if me else 0.0)
        rd[jl] -= zl
        rd[ju] += zu
        rp = A @ x - b if me else np.zeros(0)
        mu = (float(sl @ zl) + float(su @ zu)) / nb

        # cap the barrier ratios so pinned slacks cannot overflow the KKT
        # (jl and ju are each free of duplicates, so indexed += is a scatter-add)
        diag = np.zeros(n)
        diag[jl] += np.minimum(zl / sl, 1e16)
        diag[ju] += np.minimum(zu / su, 1e16)
        kkt = _Kkt(P, diag, A)

        # predictor (affine scaling) direction
        rhs_aff = np.concatenate([-(P @ x + q + (A.T @ y if me else 0.0)), -rp])
        try:
            w_aff = kkt.solve(rhs_aff)
        except np.linalg.LinAlgError:
            break
        dx_a = w_aff[:n]
        dzl_a = _safe_div(-sl * zl - zl * dx_a[jl], sl)
        dzu_a = _safe_div(-su * zu + zu * dx_a[ju], su)
        ap_a = min(1.0, _max_step(sl, dx_a[jl]), _max_step(su, -dx_a[ju]))
        ad_a = min(1.0, _max_step(zl, dzl_a), _max_step(zu, dzu_a))
        mu_aff = (
            float((sl + ap_a * dx_a[jl]) @ (zl + ad_a * dzl_a))
            + float((su - ap_a * dx_a[ju]) @ (zu + ad_a * dzu_a))
        ) / nb
        sigma = min(1.0, max(0.0, mu_aff / mu) ** 3) if mu > 0 else 0.0

        # corrector
        r_l = sigma * mu - sl * zl - dx_a[jl] * dzl_a
        r_u = sigma * mu - su * zu - (-dx_a[ju]) * dzu_a
        rhs_x = -rd
        rhs_x[jl] += _safe_div(r_l, sl)
        rhs_x[ju] -= _safe_div(r_u, su)
        try:
            w = kkt.solve(np.concatenate([rhs_x, -rp]))
        except np.linalg.LinAlgError:
            break
        dx = w[:n]
        dy = w[n:]
        dzl = _safe_div(r_l - zl * dx[jl], sl)
        dzu = _safe_div(r_u + zu * dx[ju], su)

        eta = max(0.995, 1.0 - 0.1 * mu)
        alpha_p = min(1.0, eta * min(_max_step(sl, dx[jl]), _max_step(su, -dx[ju])))
        alpha_d = min(1.0, eta * min(_max_step(zl, dzl), _max_step(zu, dzu)))
        if min(alpha_p, alpha_d) < 1e-12:
            break
        x = x + alpha_p * dx
        y = y + alpha_d * dy
        zl = np.maximum(zl + alpha_d * dzl, 1e-300)
        zu = np.maximum(zu + alpha_d * dzu, 1e-300)

    primal, dual, gap = _measure(P, q, A, b, lo, hi, jl, ju, x, y, zl, zu)
    merit = max(primal, dual, gap)
    if best is not None and best[0] < merit:
        merit, x, y, zl, zu, (primal, dual, gap) = best
    status = QpStatus.OPTIMAL if merit <= accept_tol else QpStatus.MAX_ITERATIONS
    return x, y, zl, zu, iters, status, (primal, dual, gap)


def _equilibrate(P, q, A, b, lo, hi):
    """Diagonal variable/row scaling so column magnitudes are comparable.

    Returns the scaled system plus the column scale d (z = d * x_scaled); the
    transformation is exact, so the solution is mapped back without loss.
    """
    base = np.sqrt(np.abs(np.diag(P)))
    alt = np.abs(A).max(axis=0) if A.shape[0] else np.zeros_like(base)
    ref = max(float(base.max(initial=0.0)), float(alt.max(initial=0.0)), 1.0)
    d = 1.0 / np.maximum(np.maximum(base, alt), 1e-6 * ref)
    P_s = (d[:, None] * P) * d[None, :]
    q_s = d * q
    if A.shape[0]:
        A_s = A * d[None, :]
        r = 1.0 / np.maximum(np.abs(A_s).max(axis=1), 1e-12)
        A_s = r[:, None] * A_s
        b_s = r * b
    else:
        A_s, b_s, r = A, b, np.zeros(0)
    lo_s = lo / d
    hi_s = hi / d
    return P_s, q_s, A_s, b_s, lo_s, hi_s, d, r


def _lift_program(prob: QuadProgram):
    """Lower fixed variables and l1 terms to the smooth box/equality form.

    Returns (P, q, A, b, lo, hi, idx_l1) where the lifted variable vector is
    the original one followed by the negative parts of the l1 variables.
    """
    n = prob.n_vars
    P = prob.p_mat
    q = prob.q_vec
    A = prob.a_eq
    b = prob.b_eq
    lo = prob.lower.copy()
    hi = prob.upper.copy()

    # variables pinned by equal bounds become equality rows
    fixed = np.flatnonzero(np.isfinite(lo) & (lo == hi))
    if fixed.size:
        rows = np.zeros((fixed.size, n))
        rows[np.arange(fixed.size), fixed] = 1.0
        A = np.vstack([A, rows])
        b = np.concatenate([b, lo[fixed]])
        lo[fixed] = -np.inf
        hi[fixed] = np.inf

    idx_l1 = np.flatnonzero(prob.l1_weights > 0.0)
    if idx_l1.size == 0:
        return P, q, A, b, lo, hi, idx_l1
    if np.any(np.isfinite(lo[idx_l1])) or np.any(np.isfinite(hi[idx_l1])):
        raise ValueError("l1-weighted variables must be unbounded")
    k = idx_l1.size
    w = prob.l1_weights[idx_l1]
    # z = x[:n] with x[idx_l1] reinterpreted as the positive parts, extras negative
    P_l = np.zeros((n + k, n + k))
    P_l[:n, :n] = P
    P_l[:n, n:] = -P[:, idx_l1]
    P_l[n:, :n] = -P[idx_l1, :]
    P_l[n:, n:] = P[np.ix_(idx_l1, idx_l1)]
    q_l = np.concatenate([q, -q[idx_l1] + w])
    q_l[idx_l1] += w
    A_l = np.hstack([A, -A[:, idx_l1]]) if A.shape[0] else np.zeros((0, n + k))
    lo_l = np.concatenate([lo, np.zeros(k)])
    lo_l[idx_l1] = 0.0
    hi_l = np.concatenate([hi, np.full(k, np.inf)])
    return P_l, q_l, A_l, b, lo_l, hi_l, idx_l1


def solve(
    prob: QuadProgram,
    tol: float = 1e-9,
    max_iter: int = 100,
    x0: np.ndarray | None = None,
    accept_tol: float | None = None,
) -> QpSolution:
    """Solve a QuadProgram to the requested relative tolerance.

    Args:
        prob: the problem; dimensions are validated at construction.
        tol: target for the scaled primal/dual/complementarity residuals.
        max_iter: interior-point iteration cap.
        x0: optional starting point in the original variables.
        accept_tol: optional looser threshold; iterations still aim for
            ``tol`` but if conditioning stalls progress first, the best
            iterate is accepted as OPTIMAL when its residuals meet this
            value.  Defaults to ``tol``.

    Returns:
        QpSolution.  ``status`` is INFEASIBLE when the equality system is
        inconsistent (least-squares residual test), MAX_ITERATIONS when the
        iteration cap is reached without meeting the acceptance threshold.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    n = prob.n_vars

    if prob.a_eq.shape[0]:
        z_ls, *_ = np.linalg.lstsq(prob.a_eq, prob.b_eq, rcond=None)
        res = float(np.max(np.abs(prob.a_eq @ z_ls - prob.b_eq)))
        if res > _FEAS_TOL * (1.0 + float(np.max(np.abs(prob.b_eq)))):
            z = np.clip(z_ls, prob.lower, prob.upper)
            return QpSolution(
                z=z,
                objective=prob.objective(z),
                primal_residual=res,
                dual_residual=np.inf,
                gap=np.inf,
                iterations=0,
                status=QpStatus.INFEASIBLE,
            )

    P, q, A, b, lo, hi, idx_l1 = _lift_program(prob)
    P, q, A, b, lo, hi, d_scale, _r_scale = _equilibrate(P, q, A, b, lo, hi)
    x0_l = None
    if x0 is not None:
        x0_arr = np.asarray(x0, dtype=float).ravel()
        if x0_arr.size != n:
            raise ValueError("x0 has wrong length")
        if idx_l1.size:
            pos = np.maximum(x0_arr[idx_l1], 0.0)
            neg = np.maximum(-x0_arr[idx_l1], 0.0)
            x0_l = np.concatenate([x0_arr, neg])
            x0_l[idx_l1] = pos
        else:
            x0_l = x0_arr.copy()
        x0_l = x0_l / d_scale

    x, y, zl, zu, iters, status, (primal, dual, gap) = _ipm(
        P, q, A, b, lo, hi, tol, max_iter, x0_l, accept_tol
    )

    x_orig = d_scale * x
    z = x_orig[:n].copy()
    if idx_l1.size:
        z[idx_l1] -= x_orig[n:]
    cert = {
        "x": x, "y": y, "zl": zl, "zu": zu,
        "P": P, "q": q, "A": A, "b": b, "lo": lo, "hi": hi,
        "jl": np.flatnonzero(np.isfinite(lo)), "ju": np.flatnonzero(np.isfinite(hi)),
        "idx_l1": idx_l1, "d_scale": d_scale,
    }
    return QpSolution(
        z=z,
        objective=prob.objective(z),
        primal_residual=primal,
        dual_residual=dual,
        gap=gap,
        iterations=iters,
        status=status,
        _cert=cert,
    )


def kkt_residuals(sol: QpSolution) -> tuple[float, float, float]:
    """Recompute (primal, dual, gap) from the stored primal-dual certificate."""
    c = sol._cert
    if c is None:
        raise ValueError("solution carries no certificate")
    return _measure(
        c["P"], c["q"], c["A"], c["b"], c["lo"], c["hi"],
        c["jl"], c["ju"], c["x"], c["y"], c["zl"], c["zu"],
    )


def split_parts(sol: QpSolution) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative parts of the l1-split variables at the optimum."""
    c = sol._cert
    if c is None or c["idx_l1"].size == 0:
        raise ValueError("solution has no l1-split variables")
    idx = c["idx_l1"]
    x_orig = c["d_scale"] * c["x"]
    return x_orig[idx].copy(), x_orig[c["q"].size - idx.size :].copy()


def _tile_bound(vec, total: int) -> np.ndarray:
    """Repeat a per-channel bound over the stacked horizon."""
    arr = np.asarray(vec, dtype=float).ravel()
    if total % arr.size:
        raise ValueError(f"bound of length {arr.size} does not tile {total} entries")
    return np.tile(arr, total // arr.size)


@dataclass
class ReducedQp:
    """A QuadProgram over z = (g, sigma_y?, u, y?) plus the bookkeeping to unpack it.

    ``y`` is an explicit (box-bounded) variable only when output bounds are
    present; otherwise it is recovered as ``yf @ g``.
    """

    qp: QuadProgram
    n_g: int
    sigma_slice: slice | None
    u_slice: slice
    y_slice: slice | None
    yf: np.ndarray
    objective_const: float

    def split(self, z):
        z = np.asarray(z, dtype=float).ravel()
        g = z[: self.n_g]
        sigma = z[self.sigma_slice] if self.sigma_slice is not None else None
        u = z[self.u_slice]
        y = z[self.y_slice] if self.y_slice is not None else self.yf @ g
        return g, sigma, u, y


def assemble_reduced(
    up,
    yp,
    uf,
    yf,
    u_ini,
    y_ini,
    r_bar,
    q_bar,
    y_ref,
    *,
    lambda1: float = 0.0,
    lambda2: float = 0.0,
    g2=None,
    lambda_y: float | None = None,
    u_lower=None,
    u_upper=None,
    y_lower=None,
    y_upper=None,
) -> ReducedQp:
    """Build the variable-eliminated QP over the library coefficients.

    The decision vector is z = (g, sigma_y, u, y): the predictor rows pin
    ``U_P g = u_ini`` and ``Y_P g = y_ini + sigma_y``; the future input is an
    auxiliary variable tied by ``U_F g = u`` so box bounds stay per-variable;
    the predicted output enters the objective as ``yf @ g`` unless output
    bounds require it as an auxiliary variable too.  ``sigma_y`` is present
    iff ``lambda_y`` is given.  Nonzero ``lambda1`` puts an l1 weight on g
    (realized inside the solver by the g = g+ - g- split); nonzero ``lambda2``
    adds the quadratic ``lambda2 * ||g2 @ g||^2``.
    """
    up = np.asarray(up, dtype=float)
    yp = np.asarray(yp, dtype=float)
    uf = np.asarray(uf, dtype=float)
    yf = np.asarray(yf, dtype=float)
    n_g = up.shape[1]
    if any(blk.shape[1] != n_g for blk in (yp, uf, yf)):
        raise ValueError("library blocks must share one column count")
    u_ini = np.asarray(u_ini, dtype=float).ravel()
    y_ini = np.asarray(y_ini, dtype=float).ravel()
    if u_ini.size != up.shape[0] or y_ini.size != yp.shape[0]:
        raise ValueError("online data does not match past-block row counts")
    n_u = uf.shape[0]
    n_y = yf.shape[0]
    y_ref = np.zeros(n_y) if y_ref is None else np.asarray(y_ref, dtype=float).ravel()
    if y_ref.size != n_y:
        raise ValueError("y_ref length must match future output rows")

    with_sigma = lambda_y is not None
    n_sig = yp.shape[0] if with_sigma else 0
    bound_y = any(
        v is not None and np.any(np.isfinite(v)) for v in (y_lower, y_upper)
    )
    off_sig = n_g
    off_u = off_sig + n_sig
    off_y = off_u + n_u
    n_z = off_y + (n_y if bound_y else 0)

    p_mat = np.zeros((n_z, n_z))
    q_vec = np.zeros(n_z)
    const = float(y_ref @ q_bar @ y_ref)
    if bound_y:
        p_mat[off_y:, off_y:] = 2.0 * q_bar
        q_vec[off_y:] = -2.0 * (q_bar @ y_ref)
    else:
        p_mat[:n_g, :n_g] += 2.0 * (yf.T @ q_bar @ yf)
        q_vec[:n_g] += -2.0 * (yf.T @ (q_bar @ y_ref))
    p_mat[off_u:off_u + n_u, off_u:off_u + n_u] = 2.0 * r_bar
    if with_sigma:
        if lambda_y <= 0.0:
            raise ValueError("lambda_y must be positive when sigma_y is present")
        p_mat[off_sig:off_u, off_sig:off_u] = 2.0 * lambda_y * np.eye(n_sig)
    if lambda2 != 0.0:
        if g2 is None:
            raise ValueError("lambda2 > 0 requires the projector complement g2")
        gram = g2.T @ g2
        p_mat[:n_g, :n_g] += 2.0 * lambda2 * 0.5 * (gram + gram.T)

    w = None
    if lambda1 != 0.0:
        w = np.zeros(n_z)
        w[:n_g] = lambda1

    rows = []
    rhs = []
    row = np.zeros((up.shape[0], n_z))
    row[:, :n_g] = up
    rows.append(row)
    rhs.append(u_ini)
    row = np.zeros((yp.shape[0], n_z))
    row[:, :n_g] = yp
    if with_sigma:
        row[:, off_sig:off_u] = -np.eye(n_sig)
    rows.append(row)
    rhs.append(y_ini)
    row = np.zeros((n_u, n_z))
    row[:, :n_g] = uf
    row[:, off_u:off_u + n_u] = -np.eye(n_u)
    rows.append(row)
    rhs.append(np.zeros(n_u))
    if bound_y:
        row = np.zeros((n_y, n_z))
        row[:, :n_g] = yf
        row[:, off_y:] = -np.eye(n_y)
        rows.append(row)
        rhs.append(np.zeros(n_y))

    lo = np.full(n_z, -np.inf)
    hi = np.full(n_z, np.inf)
    if u_lower is not None:
        lo[off_u:off_u + n_u] = _tile_bound(u_lower, n_u)
    if u_upper is not None:
        hi[off_u:off_u + n_u] = _tile_bound(u_upper, n_u)
    if bound_y:
        if y_lower is not None:
            lo[off_y:] = _tile_bound(y_lower, n_y)
        if y_upper is not None:
            hi[off_y:] = _tile_bound(y_upper, n_y)

    prob = QuadProgram(
        p_mat=p_mat,
        q_vec=q_vec,
        l1_weights=w,
        a_eq=np.vstack(rows),
        b_eq=np.concatenate(rhs),
        lower=lo,
        upper=hi,
    )
    return ReducedQp(
        qp=prob,
        n_g=n_g,
        sigma_slice=slice(off_sig, off_u) if with_sigma else None,
        u_slice=slice(off_u, off_u + n_u),
        y_slice=slice(off_y, n_z) if bound_y else None,
        yf=yf,
        objective_const=const,
    )


def save_program_csv(prob: QuadProgram, directory, prefix: str = "qp") -> list[str]:
    """Dump a QuadProgram as a CSV bundle for external cross-checking."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    parts = {
        "P": prob.p_mat,
        "q": prob.q_vec,
        "l1": prob.l1_weights,
        "A_eq": prob.a_eq,
        "b_eq": prob.b_eq,
        "lower": prob.lower,
        "upper": prob.upper,
    }
    paths = []
    for name, mat in parts.items():
        path = directory / f"{prefix}_{name}.csv"
        np.savetxt(path, np.atleast_2d(mat), fmt="%.17g", delimiter=",")
        paths.append(str(path))
    return paths
