"""Self-contained convex QP solver used by every controller variant.

Problems have the form

    minimize    0.5 z' P z + q' z + sum_i w_i |z_i|
    subject to  A_eq z = b_eq,   lower <= z <= upper

with P symmetric positive semidefinite and w >= 0 elementwise.  The solver is
a Mehrotra predictor-corrector primal-dual interior-point method.  Each
iteration evaluates its residuals once (the merit test, the dual residual and
the predictor's right-hand side share P x, A'y and A x), and factors its
Newton matrix once: the predictor, the corrector and their refinement steps
share that factorization.  The lower and upper bounds are kept as one stacked
vector of slacks and one of duals, so each step length and update is one
vector operation.  An iterate is accepted as optimal only when its residuals
and the solution are finite.

The Newton step is solved over the folded variables: each l1 pair (see
below) folds back into one variable, and P and A are only ever held over the
folded variables.  The residuals, the dual start and the certificate apply the
lifted matrices as E P_f E' and A_f E' (E'x takes each pair's positive less
its negative part), so no lifted matrix is formed.  A step is first taken with
every separable variable (off the diagonal its row and column of P are zero,
and it appears in exactly one equality row) eliminated together with that
row.  For the DeePC template this removes the slacks, the future inputs and
their rows: at paper scale the iteration LU-factors a 165x165 matrix, where
the lifted KKT matrix is 506x506.  Every step is refined against the full KKT
operator, applied as matrix-vector products with the dense block of the other
variables plus the separable variables' diagonal entries and single
coefficients, and the eliminated step is kept only when its componentwise
backward error is at roundoff (1e-14).  Otherwise, and in programs without
separable variables, the step comes from the folded matrix with nothing
eliminated (349x349 at paper scale), refined under the same rule, whose
regularization is raised until it yields a finite step.  A matrix is first
factored with no regularization when its variable block is positive definite
(every kept variable carries a barrier or l1 diagonal) and the equality rows
are independent; at paper scale that holds for the ground-truth program and
the eliminated steps of the l1-regularized DeePC programs.  Dense factorizations
keep the solutions accurate enough to certify equivalence results to 1e-5 and
tighter.  ``QpSolution.events`` counts the steps that fell back to the matrix
with nothing eliminated and the times its regularization had to be raised.

The l1 terms are handled exactly by splitting each weighted variable into a
difference of nonnegative parts (z_i = a_i - b_i); at the optimum the split is
complementary (a_i * b_i = O(tol)).  The two parts get the same scale, so P
and A are equilibrated over the folded variables.  Infinite bounds are treated
as absent constraints, never as large numbers.  One factorization of the
scaled folded equality matrix (it has the singular values of the lifted one
once each l1 column is scaled by sqrt(2)) gives the least-squares starting
points: a QR when its condition estimate shows the rows independent and well
conditioned, an SVD otherwise.  The residual of the start detects an
inconsistent equality system up front, which is reported as Infeasible.

Reported residuals are relative measures: `primal_residual` scales equality
violations by 1 + |b| + |A z| per row, `dual_residual` scales stationarity by
the magnitudes of its own terms per row, and `gap` is the total complementarity
divided by 1 + |objective|.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

__all__ = [
    "QpStatus",
    "QuadProgram",
    "QpSolution",
    "solve",
    "kkt_residuals",
    "tracking_program",
    "TrackingQp",
    "assemble_reduced",
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


def _new_events() -> dict:
    return {"reduced_step_fallbacks": 0, "regularization_escalations": 0}


@dataclass
class QpSolution:
    """Solver output: primal point, objective, scaled residuals, and status.

    ``events`` counts, over the whole solve, the Newton steps whose form with
    the separable variables eliminated was not at roundoff and fell back to
    the folded matrix with nothing eliminated (``reduced_step_fallbacks``),
    and the moves of that matrix's regularization to a higher level
    (``regularization_escalations``).
    """

    z: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    gap: float
    iterations: int
    status: QpStatus
    events: dict = field(default_factory=_new_events)
    _cert: dict | None = field(default=None, repr=False)


def _push_interior(x, lo, hi):
    """Move a point strictly inside its box (no-op for infinite bounds).

    A two-sided box keeps a margin of 0.1 * width + 1e-12, capped at a quarter
    of the width: uncapped, a box narrower than about 6.7e-12 (after
    equilibration) would be clipped to a point outside it."""
    x = x.copy()
    both = np.isfinite(lo) & np.isfinite(hi)
    width = hi[both] - lo[both]
    margin = np.minimum(0.1 * width + 1e-12, 0.25 * width)
    only_lo = np.isfinite(lo) & ~np.isfinite(hi)
    only_hi = ~np.isfinite(lo) & np.isfinite(hi)
    x[both] = np.clip(x[both], lo[both] + margin, hi[both] - margin)
    x[only_lo] = np.maximum(x[only_lo], lo[only_lo] + 1.0)
    x[only_hi] = np.minimum(x[only_hi], hi[only_hi] - 1.0)
    return x


class _Bounds:
    """The finite bounds of a program stacked into one vector, lower bounds first.

    Bound k acts on variable ``idx[k]`` with slack
    s_k = sign_k * (x[idx[k]] - value_k) >= 0, where sign_k is +1 on a lower
    and -1 on an upper bound.  Its dual z_k pairs with that slack, so the
    barrier terms, step lengths and updates of both kinds of bound are one
    vector operation each.
    """

    def __init__(self, lo, hi):
        self.jl = np.flatnonzero(np.isfinite(lo))
        self.ju = np.flatnonzero(np.isfinite(hi))
        self.idx = np.concatenate([self.jl, self.ju])
        self.sign = np.concatenate([np.ones(self.jl.size), -np.ones(self.ju.size)])
        self.value = np.concatenate([lo[self.jl], hi[self.ju]])
        self.scale = 1.0 + np.abs(self.value)
        self.size = self.idx.size

    def slack(self, x):
        return self.sign * (x[self.idx] - self.value)

    def add(self, v, t):
        """v[idx] += t in place; a variable with both bounds gets both terms."""
        nl = self.jl.size
        v[self.jl] += t[:nl]
        v[self.ju] += t[nl:]


def _fold(x, pos, sign=-1.0):
    """E'x, the folded variables of a lifted vector: each l1 pair's positive
    part plus ``sign`` times its negative part (``sign`` +1 gives |E'| x).
    Without pairs E' is the identity and ``x`` itself is returned."""
    if not pos.size:
        return x
    n = x.size - pos.size
    v = x[:n].copy()
    v[pos] += sign * x[n:]
    return v


def _unfold(v, pos, sign=-1.0):
    """E v, a folded vector over the lifted variables: each negative part
    takes ``sign`` times its pair's entry (``sign`` +1 gives |E| v).
    Without pairs E is the identity and ``v`` itself is returned."""
    return np.concatenate([v, sign * v[pos]]) if pos.size else v


def _measure(st, q, b, bounds, x, y, z):
    """Scaled primal/dual/complementarity residuals at an iterate.

    Also returns the vectors they are built from, which the Newton step
    reuses: the gradient P x + q + A'y, the dual residual (that gradient less
    the bound duals), the equality residual A x - b and the bound slacks.
    P x = E P_f E'x, A'y = E A_f'y and A x = A_f E'x are applied through the
    folded matrices of the :class:`_Structure` ``st``.
    """
    v = _fold(x, st.pos)
    px = _unfold(st.p_fold @ v, st.pos)
    aty = _unfold(st.a_fold.T @ y, st.pos)
    grad = px + q + aty
    rd = grad.copy()
    bounds.add(rd, -(bounds.sign * z))
    sd = 1.0 + np.abs(q) + np.abs(px) + np.abs(aty)
    bounds.add(sd, z)
    dual = float(np.max(np.abs(rd) / sd)) if rd.size else 0.0
    ax = st.a_fold @ v
    rp = ax - b
    primal = float(np.max(np.abs(rp) / (1.0 + np.abs(b) + np.abs(ax)))) if rp.size else 0.0
    slack = bounds.slack(x)
    # box violation (zero while the iterate stays interior)
    viol = float(np.max(-slack / bounds.scale)) if slack.size else 0.0
    primal = max(primal, viol, 0.0)
    obj = 0.5 * x @ px + q @ x
    gap = abs(float(slack @ z)) / (1.0 + abs(obj))
    return (primal, dual, gap), (grad, rd, rp, slack)


def _merit(residuals):
    """The largest residual, or inf when one is not finite (max() would drop a NaN)."""
    return max(residuals) if all(map(math.isfinite, residuals)) else math.inf


# Static KKT regularization: folded variable i's diagonal gets
# +_SHIFT * (1 + |P_ii| + D_i) and each equality row's -_SHIFT, times the
# escalation level in _BUMPS.
_SHIFT = 1e-12
_BUMPS = (1.0, 1e3, 1e6)  # regularization escalation levels, tried in order

# A Newton step is refined, at most _REFINE_STEPS times and only while that
# helps, until every row of the full lifted KKT system holds to this
# componentwise relative backward error, |rhs - K w| <= tau * (|rhs| + |K| |w|).
# A step with the separable variables eliminated is kept only when it does;
# otherwise the step is recomputed with nothing eliminated.
_STEP_BACKWARD_ERROR = 1e-14
_REFINE_STEPS = 3
_TINY = np.finfo(float).tiny  # floor of the backward error's denominators


class _Structure:
    """One solve's folded P and A, and what its Newton steps can be reduced by.

    * The l1 pairs of :func:`_lift_program`: lifted variable ``n + j`` is the
      negative part of variable ``pos[j]``.  Only the folded P_f and A_f are
      held; the lifted matrices are P = E P_f E' and A = A_f E', applied
      through E'x = :func:`_fold` (x) and E v = :func:`_unfold` (v).
    * Separable variables: folded variables whose row and column of P_f are
      zero off the diagonal and that appear in exactly one equality row.  Each
      can be eliminated together with its row.
    * ``independent_rows``: whether A has linearly independent rows, as the
      QR start of :class:`_LeastSquares` shows.  Every subset of its rows then
      keeps that on the variables that remain after an elimination.
    """

    def __init__(self, P, A, idx_l1, independent_rows=False):
        n = P.shape[0]
        self.n, self.me = n, A.shape[0]
        self.independent_rows = independent_rows
        self.pos = idx_l1
        self.neg = n + np.arange(idx_l1.size)
        self.n_lift = n + idx_l1.size
        self.p_fold, self.a_fold = P, A
        diag = np.diag(P)
        # off the diagonal, a separable variable's row and column of P_f are
        # zero (the scaled P_f need not be bitwise symmetric)
        off_diagonal = (
            np.count_nonzero(P, axis=1) + np.count_nonzero(P, axis=0) - 2 * (diag != 0)
        )
        self.sep = np.flatnonzero((off_diagonal == 0) & (np.count_nonzero(A, axis=0) == 1))
        self.sep_row = np.nonzero(A[:, self.sep].T)[1]  # one nonzero each
        self.sep_coef = A[self.sep_row, self.sep]
        self.sep_curv = diag[self.sep]
        # K w in two parts: the dense block of the other folded variables, and
        # the separable variables' diagonal entries and single coefficients
        self.dense = np.setdiff1d(np.arange(n), self.sep, assume_unique=True)
        p_dense = P[np.ix_(self.dense, self.dense)]
        a_dense = A[:, self.dense]
        self._blocks = {
            False: (p_dense, a_dense, self.sep_curv, self.sep_coef, -1.0),
            True: (np.abs(p_dense), np.abs(a_dense), np.abs(self.sep_curv),
                   np.abs(self.sep_coef), 1.0),
        }
        self._partitions = {}

    def partition(self, elim):
        """Kept variables, eliminated rows, kept rows and the matrix blocks they
        index, when the separable variables selected by the mask ``elim`` are
        eliminated.  Cached: the mask rarely changes between iterates."""
        key = elim.tobytes()
        if key not in self._partitions:
            rows = np.unique(self.sep_row[elim])
            keep = np.setdiff1d(np.arange(self.n), self.sep[elim], assume_unique=True)
            keep_rows = np.setdiff1d(np.arange(self.me), rows, assume_unique=True)
            self._partitions[key] = (
                keep, rows, keep_rows,
                self.p_fold[np.ix_(keep, keep)],
                self.a_fold[np.ix_(rows, keep)],
                self.a_fold[np.ix_(keep_rows, keep)],
            )
        return self._partitions[key]

    def product(self, diag_term, dx, dy, absolute=False):
        """K w for the lifted KKT matrix with barrier diagonal ``diag_term``
        and w = (dx, dy); with ``absolute``, |K| w instead."""
        p, a, p_sep, a_sep, sign = self._blocks[absolute]
        v = _fold(dx, self.pos, sign)
        v_dense = v[self.dense]
        top_fold = np.empty(self.n)
        top_fold[self.dense] = p @ v_dense + a.T @ dy
        eq = a @ v_dense
        if self.sep.size:
            v_sep = v[self.sep]
            top_fold[self.sep] = p_sep * v_sep + a_sep * dy[self.sep_row]
            eq += np.bincount(self.sep_row, a_sep * v_sep, minlength=self.me)
        return np.concatenate([diag_term * dx + _unfold(top_fold, self.pos, sign), eq])


class _Kkt:
    """The Newton system of one iterate, solved with the l1 pairs folded.

    A pair with barrier diagonals D+ and D- folds to one variable with the
    diagonal D+ D- / (D+ + D-).  Each right-hand side is first solved with the
    separable variables eliminated (when the iterate allows any; see
    :class:`_FoldedStep`).  The first such step whose backward error is not at
    roundoff falls back, for the rest of this iterate, to the folded matrix
    with nothing eliminated, and is counted in ``events``.  That matrix's
    regularization is raised through ``_BUMPS`` until a step is finite, and
    each move to a higher level is counted in ``events``.  A matrix is
    factored the first time a right-hand side needs it, so every solve
    against it (predictor, corrector, their refinement steps) shares one LU.
    """

    def __init__(self, st: _Structure, diag_term, events):
        self.st, self.diag, self._events = st, diag_term, events
        self.d_pos, self.d_neg = diag_term[st.pos], diag_term[st.neg]
        self.d_fold = diag_term[: st.n].copy()
        with np.errstate(all="ignore"):  # a non-finite entry voids the factorization
            self.d_fold[st.pos] = self.d_pos * self.d_neg / (self.d_pos + self.d_neg)
        # a separable variable with no curvature cannot be eliminated, and
        # neither can the others in its row
        self.sep_curv = st.sep_curv + self.d_fold[st.sep]
        elim = self.sep_curv > 0.0
        if not elim.all():
            elim &= ~np.isin(st.sep_row, st.sep_row[~elim])
        self._reduced = _FoldedStep(self, elim, _BUMPS[0]) if elim.any() else None
        self._full = {}  # bump -> the _FoldedStep with nothing eliminated

    def solve(self, rhs):
        """Solve K w = rhs: the step with the separable variables eliminated
        if it holds, else the first regularization level of the matrix with
        nothing eliminated that yields a finite step."""
        if not np.isfinite(rhs).all():
            raise np.linalg.LinAlgError("non-finite KKT right-hand side")
        if self._reduced is not None:
            w, omega = self._reduced.solve(rhs)
            if omega <= _STEP_BACKWARD_ERROR:
                return w
            self._reduced = None
            self._events["reduced_step_fallbacks"] += 1
        for level, bump in enumerate(_BUMPS):
            if level:
                self._events["regularization_escalations"] += 1
            if bump not in self._full:
                self._full[bump] = _FoldedStep(self, np.zeros(self.st.sep.size, bool), bump)
            w, omega = self._full[bump].solve(rhs)
            if math.isfinite(omega):
                return w
        raise np.linalg.LinAlgError("KKT system could not be factorized")


class _FoldedStep:
    """The LU-factored Newton matrix of one iterate over the folded variables,
    with the separable variables selected by the mask ``elim`` eliminated.

    A separable variable s with curvature H_s = P_ss + D_s > 0 and coefficient
    a_s in row r is eliminated with that row, which adds a_r' a_r / c_r to the
    kept block, where a_r is the row on the kept variables and c_r = sum of
    a_s^2 / H_s over the row's eliminated variables.  The remaining matrix
    gets the regularization level ``bump`` on its kept variables (scaled by
    each one's own curvature, not by the rank-one terms) and on its kept rows,
    so that a singular block, such as non-unique g, still yields a bounded
    step.  At the first level that shift is left out when every kept variable
    has a positive barrier or l1-fold diagonal and the rows are independent:
    the variable block is then positive definite and the matrix regular, so
    the LU is of the exact operator and its step is mostly at roundoff
    without refinement.  Every step is refined against the full lifted
    unregularized operator, applied through :meth:`_Structure.product`.
    """

    def __init__(self, kkt: _Kkt, elim, bump):
        # the iterate's arrays, not ``kkt`` itself: a reference cycle would
        # keep every iterate's LU factors alive until the cyclic collector ran
        st = self.st = kkt.st
        self.diag, self.d_fold = kkt.diag, kkt.d_fold
        self.d_pos, self.d_neg = kkt.d_pos, kkt.d_neg
        self.keep, self.rows, self.keep_rows, p_keep, self.a_elim, a_keep = st.partition(elim)
        self.sep, self.sep_row = st.sep[elim], st.sep_row[elim]
        self.sep_coef, self.sep_curv = st.sep_coef[elim], kkt.sep_curv[elim]
        r, k = self.keep.size, self.keep_rows.size
        m = np.zeros((r + k, r + k))
        m[:r, :r] = p_keep
        if self.rows.size:
            with np.errstate(all="ignore"):
                c_row = np.bincount(
                    self.sep_row, weights=self.sep_coef**2 / self.sep_curv, minlength=st.me
                )
                self.inv_c = 1.0 / c_row[self.rows]
                m[:r, :r] += (self.a_elim.T * self.inv_c) @ self.a_elim
        d_keep = self.d_fold[self.keep]
        diagonal = m.reshape(-1)[:: r + k + 1]  # a view
        if bump == _BUMPS[0] and st.independent_rows and (d_keep > 0.0).all():
            diagonal[:r] += d_keep  # positive definite block, independent rows
        else:
            diagonal[:r] += d_keep + _SHIFT * bump * (1.0 + np.abs(np.diag(p_keep)) + d_keep)
            diagonal[r:] = -_SHIFT * bump
        m[:r, r:] = a_keep.T
        m[r:, :r] = a_keep
        self._lu = self._factor(m)

    @staticmethod
    def _factor(m):
        """LU factors of ``m``, or None when it is not finite or not regular."""
        if not np.isfinite(m).all():
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                return scipy.linalg.lu_factor(m, overwrite_a=True, check_finite=False)
            except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning, ValueError):
                return None

    def _apply(self, rhs):
        """One unrefined solve of K w = rhs."""
        st = self.st
        n, n_lift, r = st.n, st.n_lift, self.keep.size
        rx, ry = rhs[:n_lift], rhs[n_lift:]
        rv = rx[:n].copy()
        if st.pos.size:  # each pair's two rows fold into one
            da, db = self.d_pos, self.d_neg
            ra, rb = rx[st.pos], rx[st.neg]
            rv[st.pos] = (db * ra - da * rb) / (da + db)
        b = np.concatenate([rv[self.keep], ry[self.keep_rows]])
        if self.rows.size:  # the eliminated variables' rows, in terms of the kept ones
            t = np.bincount(
                self.sep_row, weights=self.sep_coef * rv[self.sep] / self.sep_curv,
                minlength=st.me,
            )
            s_elim = (t[self.rows] - ry[self.rows]) * self.inv_c
            b[:r] -= self.a_elim.T @ s_elim
        if b.size:  # LAPACK's solve direct: lu_solve's checks cost more than the solve
            b = scipy.linalg.lapack.dgetrs(*self._lu, b)[0]
        v = np.empty(n)
        v[self.keep] = b[:r]
        dy = np.empty(st.me)
        dy[self.keep_rows] = b[r:]
        if self.rows.size:
            dy[self.rows] = (self.a_elim @ b[:r]) * self.inv_c + s_elim
            v[self.sep] = (rv[self.sep] - self.sep_coef * dy[self.sep_row]) / self.sep_curv
        if not st.pos.size:
            return np.concatenate([v, dy])
        coupling = rv[st.pos] - self.d_fold[st.pos] * v[st.pos]
        dx = np.empty(n_lift)
        dx[:n] = v
        dx[st.pos] = (ra - coupling) / da
        dx[st.neg] = (rb + coupling) / db
        return np.concatenate([dx, dy])

    def _residual(self, rhs, w):
        """Residual against the full operator and its componentwise backward error."""
        st, diag, n = self.st, self.diag, self.st.n_lift
        aw = np.abs(w)
        res = rhs - st.product(diag, w[:n], w[n:])
        scale = np.abs(rhs) + st.product(diag, aw[:n], aw[n:], absolute=True)
        return res, float((np.abs(res) / np.maximum(scale, _TINY)).max())

    def solve(self, rhs):
        """The refined step and its backward error; (None, inf) when the
        factorization failed, and a non-finite error when the step is not finite."""
        if self._lu is None:
            return None, math.inf
        with np.errstate(all="ignore"):  # a non-finite step gets a non-finite error
            w = self._apply(rhs)
            res, omega = self._residual(rhs, w)
            for _ in range(_REFINE_STEPS):
                if omega <= _STEP_BACKWARD_ERROR:
                    break
                w_try = w + self._apply(res)
                res_try, omega_try = self._residual(rhs, w_try)
                if not omega_try < omega:
                    break
                w, res, omega = w_try, res_try, omega_try
        return w, omega


def _safe_div(num, den):
    """Elementwise division guarded against pinned (zero) slacks."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = num / den
    if np.isfinite(out).all():
        return out
    return np.nan_to_num(out, copy=False, nan=0.0, posinf=1e140, neginf=-1e140)


def _max_step(v, dv):
    """Largest alpha with v + alpha*dv >= 0 (v > 0 componentwise)."""
    neg = dv < 0.0
    if not neg.any():
        return np.inf
    return float((-v[neg] / dv[neg]).min())


def _ipm(st, q, b, lo, hi, tol, max_iter, x_start, lsq, accept_tol=None):
    """Mehrotra predictor-corrector for box- and equality-constrained QPs.

    ``st`` is the program's :class:`_Structure`, which holds P and A.  Starts
    from ``x_start``; ``lsq`` is the equality matrix's :class:`_LeastSquares`
    (None when there are no equalities).  Iterates toward ``tol``; if progress
    stalls first (conditioning floor), the best iterate seen is returned and
    judged against ``accept_tol``.  Returns the iterate with the stacked bound
    duals, the iteration count, the status, the residuals and the solver's
    event counts.
    """
    accept_tol = tol if accept_tol is None else max(tol, accept_tol)
    n = q.size
    bounds = _Bounds(lo, hi)
    nb = bounds.size
    events = _new_events()

    x = _push_interior(x_start, lo, hi)
    # dual start near the least-squares stationary point; bound duals pick up
    # the scale of the gradient so l1-split weights do not derail early steps
    grad = _unfold(st.p_fold @ _fold(x, st.pos), st.pos) + q
    y = np.zeros(0) if lsq is None else lsq.solve_transpose(-grad)
    resid = grad + _unfold(st.a_fold.T @ y, st.pos)
    z = np.maximum(1.0, bounds.sign * resid[bounds.idx])
    residuals, (grad, rd, rp, slack) = _measure(st, q, b, bounds, x, y, z)

    if nb == 0:
        # Equality-constrained QP: Newton is exact, polish a few times.
        kkt = _Kkt(st, np.zeros(n), events)
        iters = 0
        for _ in range(3):
            iters += 1
            try:
                w = kkt.solve(np.concatenate([-rd, -rp]))
            except np.linalg.LinAlgError:
                break
            x = x + w[:n]
            y = y + w[n:]
            residuals, (_, rd, rp, _) = _measure(st, q, b, bounds, x, y, z)
            if _merit(residuals) <= tol:
                break
        status = QpStatus.OPTIMAL if _merit(residuals) <= accept_tol else QpStatus.MAX_ITERATIONS
        return x, y, z, iters, status, residuals, events

    best = None  # (merit, x, y, z, residuals); iterates are never updated in place
    stalled = 0
    for it in range(1, max_iter + 2):
        merit = _merit(residuals)
        if best is None or merit < best[0]:
            best = (merit, x, y, z, residuals)
            stalled = 0
        else:
            stalled += 1
        if merit <= tol:
            return x, y, z, it - 1, QpStatus.OPTIMAL, residuals, events
        if stalled >= 15 or it > max_iter:
            break

        s = np.maximum(slack, 1e-250)
        mu = float(s @ z) / nb
        # cap the barrier ratios so pinned slacks cannot overflow the KKT
        diag = np.zeros(n)
        bounds.add(diag, np.minimum(z / s, 1e16))
        kkt = _Kkt(st, diag, events)

        # predictor (affine scaling) direction; ds is the bound slacks' step
        try:
            w = kkt.solve(np.concatenate([-grad, -rp]))
        except np.linalg.LinAlgError:
            break
        ds = bounds.sign * w[bounds.idx]
        dz = _safe_div(-s * z - z * ds, s)
        ap = min(1.0, _max_step(s, ds))
        ad = min(1.0, _max_step(z, dz))
        mu_aff = float((s + ap * ds) @ (z + ad * dz)) / nb
        # the ratio is clamped before cubing: a Python float overflow raises
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3 if mu > 0 else 0.0

        # corrector
        r = sigma * mu - s * z - ds * dz
        rhs_x = -rd
        bounds.add(rhs_x, bounds.sign * _safe_div(r, s))
        try:
            w = kkt.solve(np.concatenate([rhs_x, -rp]))
        except np.linalg.LinAlgError:
            break
        ds = bounds.sign * w[bounds.idx]
        dz = _safe_div(r - z * ds, s)

        eta = max(0.995, 1.0 - 0.1 * mu)
        alpha_p = min(1.0, eta * _max_step(s, ds))
        alpha_d = min(1.0, eta * _max_step(z, dz))
        if min(alpha_p, alpha_d) < 1e-12:
            break
        x = x + alpha_p * w[:n]
        y = y + alpha_d * w[n:]
        z = np.maximum(z + alpha_d * dz, 1e-300)
        residuals, (grad, rd, rp, slack) = _measure(st, q, b, bounds, x, y, z)

    merit, x, y, z, residuals = best
    status = QpStatus.OPTIMAL if merit <= accept_tol else QpStatus.MAX_ITERATIONS
    return x, y, z, min(it, max_iter), status, residuals, events


def _equilibrate(P, q, A, b, lo, hi, idx_l1):
    """Diagonal variable/row scaling so column magnitudes are comparable.

    Takes the program as :func:`_lift_program` returns it: P and A over the
    folded variables, q, lo and hi lifted.  The two parts of an l1 variable
    have the same diagonal in the lifted P and the same column norms in the
    lifted A, so they get the same scale: lifting the scaled P and A would
    give bit for bit the scaled lifted matrices.  The lifted vectors
    are scaled as they are ((q + w) d is not q d + w d in floating point).
    Returns the scaled system, P and A still folded, plus the column scale d
    over the lifted variables (z = d * x_scaled) and the row scale r; the
    transformation is exact, so the solution is mapped back without loss.
    """
    base = np.sqrt(np.abs(np.diag(P)))
    alt = np.abs(A).max(axis=0, initial=0.0)
    ref = max(float(base.max(initial=0.0)), float(alt.max(initial=0.0)), 1.0)
    d = 1.0 / np.maximum(np.maximum(base, alt), 1e-6 * ref)
    P_s = (d[:, None] * P) * d[None, :]
    A_s = A * d[None, :]
    r = 1.0 / np.maximum(np.abs(A_s).max(axis=1, initial=0.0), 1e-12)
    A_s = r[:, None] * A_s
    d = np.concatenate([d, d[idx_l1]])
    return P_s, d * q, A_s, r * b, lo / d, hi / d, d, r


def _lift_program(prob: QuadProgram):
    """Lower fixed variables and l1 terms to the smooth box/equality form.

    Variables pinned by equal bounds become equality rows.  Each l1-weighted
    variable is split into a positive part, which keeps its index, and a
    negative part appended after the original variables.  Returns
    (P, q, A, b, lo, hi, idx_l1) with q, lo and hi over the lifted variables;
    P and A stay over the original variables, which are the folded ones: the
    lifted matrices are never formed (see :class:`_Structure`).
    """
    n = prob.n_vars
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
    q = prob.q_vec
    if idx_l1.size:
        if np.any(np.isfinite(lo[idx_l1])) or np.any(np.isfinite(hi[idx_l1])):
            raise ValueError("l1-weighted variables must be unbounded")
        k = idx_l1.size
        w = prob.l1_weights[idx_l1]
        # z = x[:n] with x[idx_l1] reinterpreted as the positive parts, extras negative
        q = np.concatenate([q, -q[idx_l1] + w])
        q[idx_l1] += w
        lo = np.concatenate([lo, np.zeros(k)])
        lo[idx_l1] = 0.0
        hi = np.concatenate([hi, np.full(k, np.inf)])
    return prob.p_mat, q, A, b, lo, hi, idx_l1


class _LeastSquares:
    """Minimum-norm least-squares solves with the lifted, scaled equality matrix.

    The lifted matrix is A = B E', with B over the folded variables and
    E'x = :func:`_fold` (x).  With h = 1, or sqrt(2) on an l1 variable, the
    rows of h^-1 E' are orthonormal, so A = (B h)(h^-1 E') has the singular
    values of B h and A^+ = E h^-1 (B h)^+.  One factorization of B h, which
    has n columns and not n + k, serves every solve, with
    ``numpy.linalg.lstsq``'s default rank cut-off for A's shape, eps times its
    larger dimension.

    A wide B h is first factored by a QR, (B h)' = Q R, which gives
    (B h)^+ = Q R^-T when R is regular.  It is kept when a condition estimate
    of R shows that the cut-off keeps every singular value, with room to
    spare: kappa_2(R) <= m kappa_1(R) for m rows, and LAPACK's estimate
    (``dtrcon``) may fall short of kappa_1, so m kappa_1 must stay below the
    square root of the cut-off's reciprocal.  ``independent`` then records
    that the rows of A are linearly independent.  Otherwise (rank-deficient
    or ill-conditioned rows, or more rows than columns) an SVD of B h gives
    the solves, cut off as lstsq would.
    """

    def __init__(self, B, pos):
        m, n = B.shape
        h = np.ones(n)
        h[pos] = np.sqrt(2.0)
        cut = np.finfo(float).eps * max(m, n + pos.size)
        self.pos = pos
        self.independent = False
        if m <= n:
            # (B h)' is a Fortran-ordered view, factored in place
            q, r = scipy.linalg.qr((B * h).T, overwrite_a=True, mode="economic",
                                   check_finite=False)
            if m * math.sqrt(cut) < scipy.linalg.lapack.dtrcon(r)[0]:
                self.independent = True
                self.r, self.vt = r, q.T / h
                return
        u, s, vt = np.linalg.svd(B * h, full_matrices=False)
        keep = s > cut * s[0]
        self.u, self.s, self.vt = u[:, keep], s[keep], vt[keep] / h

    def solve(self, rhs):
        """A^+ rhs, over the lifted variables."""
        if self.independent:
            t = scipy.linalg.solve_triangular(self.r, rhs, trans="T", check_finite=False)
        else:
            t = (rhs @ self.u) / self.s
        return _unfold(t @ self.vt, self.pos)

    def solve_transpose(self, g):
        """(A^+)' g, for g over the lifted variables."""
        t = self.vt @ _fold(g, self.pos)
        if self.independent:
            return scipy.linalg.solve_triangular(self.r, t, check_finite=False)
        return self.u @ (t / self.s)


def solve(
    prob: QuadProgram,
    tol: float = 1e-9,
    max_iter: int = 100,
    accept_tol: float | None = None,
) -> QpSolution:
    """Solve a QuadProgram to the requested relative tolerance.

    Args:
        prob: the problem; dimensions are validated at construction.
        tol: target for the scaled primal/dual/complementarity residuals.
        max_iter: interior-point iteration cap.
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

    P, q, A, b, lo, hi, idx_l1 = _lift_program(prob)
    P, q, A, b, lo, hi, d_scale, _r_scale = _equilibrate(P, q, A, b, lo, hi, idx_l1)
    lsq = None
    x_start = np.zeros(q.size)
    if A.shape[0]:
        # one factorization serves the feasibility test and both least-squares starts
        lsq = _LeastSquares(A, idx_l1)
        x_start = lsq.solve(b)
        z_ls = _fold(d_scale * x_start, idx_l1)
        res = float(np.max(np.abs(prob.a_eq @ z_ls - prob.b_eq), initial=0.0))
        if res > _FEAS_TOL * (1.0 + float(np.max(np.abs(prob.b_eq), initial=0.0))):
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
    st = _Structure(P, A, idx_l1, independent_rows=lsq is None or lsq.independent)
    x, y, zb, iters, status, (primal, dual, gap), events = _ipm(
        st, q, b, lo, hi, tol, max_iter, x_start, lsq, accept_tol
    )

    z = _fold(d_scale * x, idx_l1)
    if status is QpStatus.OPTIMAL and not np.isfinite(z).all():
        status = QpStatus.MAX_ITERATIONS
    n_lower = np.count_nonzero(np.isfinite(lo))
    cert = {
        "x": x, "y": y, "zl": zb[:n_lower], "zu": zb[n_lower:],
        "st": st, "q": q, "b": b, "lo": lo, "hi": hi, "d_scale": d_scale,
    }
    return QpSolution(
        z=z,
        objective=prob.objective(z),
        primal_residual=primal,
        dual_residual=dual,
        gap=gap,
        iterations=iters,
        status=status,
        events=events,
        _cert=cert,
    )


def kkt_residuals(sol: QpSolution) -> tuple[float, float, float]:
    """Recompute (primal, dual, gap) from the stored primal-dual certificate."""
    c = sol._cert
    if c is None:
        raise ValueError("solution carries no certificate")
    return _measure(
        c["st"], c["q"], c["b"], _Bounds(c["lo"], c["hi"]),
        c["x"], c["y"], np.concatenate([c["zl"], c["zu"]]),
    )[0]


def split_parts(sol: QpSolution) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative parts of the l1-split variables at the optimum."""
    c = sol._cert
    if c is None or c["st"].pos.size == 0:
        raise ValueError("solution has no l1-split variables")
    st, x_orig = c["st"], c["d_scale"] * c["x"]
    return x_orig[st.pos], x_orig[st.neg]


def _tile_bound(vec, total: int) -> np.ndarray:
    """Repeat a per-channel bound over the stacked horizon."""
    arr = np.asarray(vec, dtype=float).ravel()
    if total % arr.size:
        raise ValueError(f"bound of length {arr.size} does not tile {total} entries")
    return np.tile(arr, total // arr.size)


@dataclass
class TrackingQp:
    """A QuadProgram with an output-tracking cost, plus where its parts sit in z.

    ``y`` is an explicit (box-bounded) block ``z[y_slice]`` only when output
    bounds are present; otherwise ``y_slice`` is None and y is recovered from
    its affine map.  ``const`` is the tracking cost's constant term, which
    the program leaves out: the controller's objective is the program's plus
    ``const``.  A library program has its coefficients g in ``z[:n_g]`` and
    its past-output slack, if any, in ``z[sigma_slice]``.
    """

    qp: QuadProgram
    u_slice: slice
    y_slice: slice | None
    y_map: np.ndarray
    y_const: np.ndarray
    const: float
    n_g: int = 0
    sigma_slice: slice | None = None

    def outputs(self, z) -> np.ndarray:
        """The predicted outputs y at the decision vector ``z``."""
        z = np.asarray(z, dtype=float).ravel()
        if self.y_slice is not None:
            return z[self.y_slice]
        return self.y_const + self.y_map @ z[: self.y_map.shape[1]]


def tracking_program(
    p_mat, y_map, y_const, q_bar, y_ref, u_slice: slice, *,
    l1_weights=None, a_eq=None, b_eq=None, u_box=None, y_box=None,
) -> TrackingQp:
    """Add the cost ``(y - y_ref)' q_bar (y - y_ref)`` and the boxes to a program.

    ``p_mat`` (with a factor 1/2, as in :class:`QuadProgram`), ``l1_weights``,
    ``a_eq`` and ``b_eq`` are the program's own terms over z; it has no linear
    term of its own.  The outputs are affine in the first k variables,
    ``y = y_const + y_map @ z[:k]``.  Without output bounds y is eliminated:
    with ``qg = q_bar @ y_map`` the cost adds ``2 y_map' qg`` to P, in place
    in ``p_mat`` (the program takes it over, sparing a copy), and
    ``2 qg' (y_const - y_ref)`` to q, and its constant is
    ``(y_const - y_ref)' q_bar (y_const - y_ref)``.  With bounds an explicit y
    block is appended, tied by ``y - y_map z[:k] = y_const``, which carries
    the tracking cost, whose constant is ``y_ref' q_bar y_ref``, and the
    output box.  ``u_box`` and ``y_box`` are per-channel (lo, hi)
    pairs, either side None for unbounded; the input box is tiled over
    ``u_slice`` and the output box over the horizon.
    """
    p_mat = np.asarray(p_mat, dtype=float)
    y_map = np.asarray(y_map, dtype=float)
    y_const = np.asarray(y_const, dtype=float).ravel()
    n_y, k = y_map.shape
    y_ref = np.zeros(n_y) if y_ref is None else np.asarray(y_ref, dtype=float).ravel()
    if y_const.size != n_y or y_ref.size != n_y:
        raise ValueError("y_const and y_ref lengths must match the rows of y_map")
    y_lo, y_hi = y_box or (None, None)
    bound_y = any(v is not None and np.any(np.isfinite(v)) for v in (y_lo, y_hi))
    n = len(p_mat)
    n_z = n + (n_y if bound_y else 0)

    lo = np.full(n_z, -np.inf)
    hi = np.full(n_z, np.inf)
    u_lo, u_hi = u_box or (None, None)
    n_u = u_slice.stop - u_slice.start
    if u_lo is not None:
        lo[u_slice] = _tile_bound(u_lo, n_u)
    if u_hi is not None:
        hi[u_slice] = _tile_bound(u_hi, n_u)
    y_slice = None
    if bound_y:
        y_slice = slice(n, n_z)
        p_mat = scipy.linalg.block_diag(p_mat, 2.0 * q_bar)
        q_vec = np.concatenate([np.zeros(n), -2.0 * (q_bar @ y_ref)])
        y_rows = np.hstack([-y_map, np.zeros((n_y, n - k)), np.eye(n_y)])
        if a_eq is None:
            a_eq, b_eq = y_rows, y_const
        else:
            a_eq = np.block([[a_eq, np.zeros((len(a_eq), n_y))], [y_rows]])
            b_eq = np.concatenate([b_eq, y_const])
        if l1_weights is not None:
            l1_weights = np.concatenate([l1_weights, np.zeros(n_y)])
        if y_lo is not None:
            lo[y_slice] = _tile_bound(y_lo, n_y)
        if y_hi is not None:
            hi[y_slice] = _tile_bound(y_hi, n_y)
        offset = y_ref
    else:
        qg = q_bar @ y_map
        p_mat[:k, :k] += 2.0 * (y_map.T @ qg)
        q_vec = np.zeros(n)
        offset = y_const - y_ref
        q_vec[:k] = 2.0 * (qg.T @ offset)

    prob = QuadProgram(
        p_mat=p_mat, q_vec=q_vec, l1_weights=l1_weights, a_eq=a_eq, b_eq=b_eq,
        lower=lo, upper=hi,
    )
    return TrackingQp(prob, u_slice, y_slice, y_map, y_const, float(offset @ q_bar @ offset))


def assemble_reduced(
    up, yp, uf, yf, u_ini, y_ini, r_bar, q_bar, y_ref, *,
    lambda1: float = 0.0, lambda2: float = 0.0, g2=None, lambda_y: float | None = None,
    u_box=None, y_box=None,
) -> TrackingQp:
    """Build the variable-eliminated QP over the library coefficients.

    The decision vector is z = (g, sigma_y, u, y): the predictor rows pin
    ``U_P g = u_ini`` and ``Y_P g = y_ini + sigma_y``; the future input is an
    auxiliary variable tied by ``U_F g = u`` so box bounds stay per-variable;
    the predicted output ``yf @ g`` enters through :func:`tracking_program`,
    which adds y as an auxiliary variable only when output bounds require it,
    and the ``u_box``/``y_box`` pairs as there.  ``sigma_y`` is present iff
    ``lambda_y`` is given.  Nonzero ``lambda1`` puts an l1 weight on g
    (realized inside the solver by the g = g+ - g- split); nonzero
    ``lambda2`` adds the quadratic ``lambda2 * ||g2 @ g||^2``.
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

    with_sigma = lambda_y is not None
    n_sig = yp.shape[0] if with_sigma else 0
    off_u = n_g + n_sig
    n_z = off_u + n_u

    p_mat = np.zeros((n_z, n_z))
    p_mat[off_u:, off_u:] = 2.0 * r_bar
    if with_sigma:
        if lambda_y <= 0.0:
            raise ValueError("lambda_y must be positive when sigma_y is present")
        p_mat[n_g:off_u, n_g:off_u] = 2.0 * lambda_y * np.eye(n_sig)
    if lambda2 != 0.0:
        if g2 is None:
            raise ValueError("lambda2 > 0 requires the projector complement g2")
        gram = g2.T @ g2
        p_mat[:n_g, :n_g] += 2.0 * lambda2 * 0.5 * (gram + gram.T)

    w = None
    if lambda1 != 0.0:
        w = np.zeros(n_z)
        w[:n_g] = lambda1

    # rows U_P g = u_ini, Y_P g - sigma_y = y_ini and U_F g - u = 0
    n_past = up.shape[0] + yp.shape[0]
    a_eq = np.zeros((n_past + n_u, n_z))
    a_eq[:, :n_g] = np.vstack([up, yp, uf])
    if with_sigma:
        a_eq[up.shape[0]:n_past, n_g:off_u] = -np.eye(n_sig)
    a_eq[n_past:, off_u:] = -np.eye(n_u)
    prog = tracking_program(
        p_mat, yf, np.zeros(yf.shape[0]), q_bar, y_ref, slice(off_u, n_z),
        l1_weights=w, a_eq=a_eq, b_eq=np.concatenate([u_ini, y_ini, np.zeros(n_u)]),
        u_box=u_box, y_box=y_box,
    )
    return replace(prog, n_g=n_g, sigma_slice=slice(n_g, off_u) if with_sigma else None)


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
