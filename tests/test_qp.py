import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deepckit import bench, qp


def random_box_qp(rng, n):
    """Strictly convex box-constrained QP with a bounded solution."""
    l_fac = rng.standard_normal((n, n))
    p_mat = l_fac @ l_fac.T + 0.5 * np.eye(n)
    q_vec = rng.standard_normal(n)
    lo = rng.uniform(-2.0, -0.2, n)
    hi = rng.uniform(0.2, 2.0, n)
    return qp.QuadProgram(p_mat=p_mat, q_vec=q_vec, lower=lo, upper=hi)


def active_set_enumeration(prob):
    """Exhaustive KKT check over all lower/upper/free patterns (box-only QPs)."""
    n = prob.n_vars
    p_mat, q_vec = prob.p_mat, prob.q_vec
    lo, hi = prob.lower, prob.upper
    best = None
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        x = np.empty(n)
        free = [i for i, s in enumerate(pattern) if s == 0]
        for i, s in enumerate(pattern):
            if s == -1:
                x[i] = lo[i]
            elif s == 1:
                x[i] = hi[i]
        if free:
            fixed = [i for i in range(n) if i not in free]
            rhs = -q_vec[np.array(free)]
            if fixed:
                rhs = rhs - p_mat[np.ix_(free, fixed)] @ x[np.array(fixed)]
            x[np.array(free)] = np.linalg.solve(p_mat[np.ix_(free, free)], rhs)
        if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
            continue
        grad = p_mat @ x + q_vec
        ok = True
        for i, s in enumerate(pattern):
            if s == -1 and grad[i] < -1e-9:
                ok = False
            elif s == 1 and grad[i] > 1e-9:
                ok = False
            elif s == 0 and abs(grad[i]) > 1e-7:
                ok = False
        if ok:
            val = 0.5 * x @ p_mat @ x + q_vec @ x
            if best is None or val < best[1]:
                best = (x, val)
    assert best is not None
    return best[0]


class TestSolveExamples:
    def test_active_lower_bound(self):
        prob = qp.QuadProgram(p_mat=[[2.0]], q_vec=[0.0], lower=[1.0])
        sol = qp.solve(prob)
        assert sol.status is qp.QpStatus.OPTIMAL
        np.testing.assert_allclose(sol.z, [1.0], atol=1e-8)

    def test_symmetric_equality(self):
        prob = qp.QuadProgram(
            p_mat=2 * np.eye(2), q_vec=np.zeros(2), a_eq=[[1.0, 1.0]], b_eq=[1.0]
        )
        sol = qp.solve(prob)
        np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-9)

    def test_l1_shrinkage_against_grid(self):
        # min (x-1)^2 + |x|; dense grid search as the independent oracle
        grid = np.linspace(-2.0, 2.0, 400001)
        vals = (grid - 1.0) ** 2 + np.abs(grid)
        x_star = grid[np.argmin(vals)]
        assert abs(x_star - 0.5) < 1e-5  # grid oracle agrees with stationarity
        prob = qp.QuadProgram(p_mat=[[2.0]], q_vec=[-2.0], l1_weights=[1.0])
        sol = qp.solve(prob)
        np.testing.assert_allclose(sol.z, [x_star], atol=1e-5)
        assert abs(sol.z[0] - 0.5) <= 1e-8

    def test_reported_objective_matches_evaluation(self):
        rng = np.random.default_rng(0)
        prob = random_box_qp(rng, 4)
        sol = qp.solve(prob)
        assert sol.objective == pytest.approx(prob.objective(sol.z), rel=1e-10)

    def test_optimal_implies_residuals_within_tol(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            prob = random_box_qp(np.random.default_rng(seed), 5)
            sol = qp.solve(prob, tol=1e-9)
            assert sol.status is qp.QpStatus.OPTIMAL
            assert max(sol.primal_residual, sol.dual_residual, sol.gap) <= 1e-9

    def test_infeasible_equalities_detected(self):
        prob = qp.QuadProgram(
            p_mat=np.eye(2),
            q_vec=np.zeros(2),
            a_eq=[[1.0, 0.0], [1.0, 0.0]],
            b_eq=[0.0, 1.0],
        )
        sol = qp.solve(prob)
        assert sol.status is qp.QpStatus.INFEASIBLE

    def test_equal_bounds_become_equalities(self):
        prob = qp.QuadProgram(
            p_mat=2 * np.eye(2), q_vec=[-2.0, 0.0], lower=[0.3, -1.0], upper=[0.3, 1.0]
        )
        sol = qp.solve(prob)
        np.testing.assert_allclose(sol.z, [0.3, 0.0], atol=1e-8)

    def test_unconstrained(self):
        prob = qp.QuadProgram(p_mat=[[4.0]], q_vec=[-4.0])
        sol = qp.solve(prob)
        np.testing.assert_allclose(sol.z, [1.0], atol=1e-10)


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            qp.QuadProgram(p_mat=np.eye(1), q_vec=[0.0], lower=[1.0], upper=[0.0])

    def test_negative_l1(self):
        with pytest.raises(ValueError):
            qp.QuadProgram(p_mat=np.eye(1), q_vec=[0.0], l1_weights=[-1.0])

    def test_symmetrization(self):
        prob = qp.QuadProgram(p_mat=[[1.0, 2.0], [0.0, 1.0]], q_vec=[0.0, 0.0])
        np.testing.assert_allclose(prob.p_mat, [[1.0, 1.0], [1.0, 1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            qp.QuadProgram(p_mat=[[np.nan]], q_vec=[0.0])


class TestInvariants:
    def test_kkt_certification_matches_reported(self):
        for seed in range(6):
            prob = random_box_qp(np.random.default_rng(seed), 5)
            sol = qp.solve(prob)
            pr, dr, gap = qp.kkt_residuals(sol)
            assert abs(pr - sol.primal_residual) <= 1e-12
            assert abs(dr - sol.dual_residual) <= 1e-12
            assert abs(gap - sol.gap) <= 1e-12

    def test_oracle_equivalence_small_boxes(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            prob = random_box_qp(rng, int(rng.integers(2, 7)))
            sol = qp.solve(prob, tol=1e-10)
            x_ref = active_set_enumeration(prob)
            np.testing.assert_allclose(sol.z, x_ref, atol=1e-6)

    def test_l1_split_complementarity(self):
        rng = np.random.default_rng(8)
        n = 5
        l_fac = rng.standard_normal((n, n))
        prob = qp.QuadProgram(
            p_mat=l_fac @ l_fac.T + np.eye(n),
            q_vec=rng.standard_normal(n) * 3,
            l1_weights=np.full(n, 0.5),
        )
        sol = qp.solve(prob, tol=1e-9)
        pos, neg = qp.split_parts(sol)
        assert np.max(pos * neg) <= 1e-6
        np.testing.assert_allclose(pos - neg, sol.z, atol=1e-12)

    def test_l1_split_matches_unsplit_oracle(self):
        # 3-variable instance: compare against the subgradient fixed point
        # computed by coordinate descent on the original (unsplit) objective
        rng = np.random.default_rng(9)
        p_mat = np.diag([2.0, 4.0, 1.0])
        q_vec = np.array([-3.0, 2.0, 0.2])
        w = np.array([1.0, 1.0, 1.0])
        x = np.zeros(3)
        for _ in range(500):  # coordinate-wise soft thresholding
            for i in range(3):
                rho = -(q_vec[i] + p_mat[i] @ x - p_mat[i, i] * x[i])
                x[i] = np.sign(rho) * max(abs(rho) - w[i], 0.0) / p_mat[i, i]
        prob = qp.QuadProgram(p_mat=p_mat, q_vec=q_vec, l1_weights=w)
        sol = qp.solve(prob)
        np.testing.assert_allclose(sol.z, x, atol=1e-7)


class TestFactorizationCount:
    @pytest.fixture
    def lu_calls(self, monkeypatch):
        calls = []
        original = scipy.linalg.lu_factor

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
        return calls

    def test_one_lu_per_iteration(self, lu_calls):
        # predictor, corrector and refinement all share one factorization
        rng = np.random.default_rng(11)
        box = random_box_qp(rng, 6)
        prob = qp.QuadProgram(
            p_mat=box.p_mat, q_vec=box.q_vec,
            a_eq=rng.standard_normal((2, 6)), b_eq=0.1 * rng.standard_normal(2),
            lower=box.lower, upper=box.upper,
        )
        sol = qp.solve(prob, tol=1e-9)
        assert sol.status is qp.QpStatus.OPTIMAL
        assert sol.iterations > 0
        assert len(lu_calls) == sol.iterations

    def test_equality_only_path_factors_once(self, lu_calls):
        # the three polish solves of the equality-constrained path share one LU
        rng = np.random.default_rng(12)
        l_fac = rng.standard_normal((5, 5))
        prob = qp.QuadProgram(
            p_mat=l_fac @ l_fac.T + np.eye(5), q_vec=rng.standard_normal(5),
            a_eq=rng.standard_normal((2, 5)), b_eq=rng.standard_normal(2),
        )
        # an unreachable tol forces all three polish solves
        sol = qp.solve(prob, tol=1e-30, accept_tol=1e-9)
        assert sol.status is qp.QpStatus.OPTIMAL
        assert sol.iterations == 3
        assert len(lu_calls) == 1


def deepc_shaped_program(rng, *, l1=True, rows=True, diagonal_r=True,
                         curved_slack=True, shared_row=False):
    """A QP shaped like the DeePC template: 12 dense g (l1-weighted), 3 slacks
    s and 4 boxed inputs u, with rows U_P g = ., Y_P g - s = ., U_F g - u = ."""
    n_g, n_s, n_u, n_p = 12, 3, 4, 2
    n = n_g + n_s + n_u
    p_mat = np.zeros((n, n))
    l_fac = rng.standard_normal((n_g, n_g))
    p_mat[:n_g, :n_g] = 0.1 * l_fac @ l_fac.T
    if curved_slack:
        p_mat[n_g:n_g + n_s, n_g:n_g + n_s] = np.diag(rng.uniform(0.5, 2.0, n_s))
    if diagonal_r:
        p_mat[n_g + n_s:, n_g + n_s:] = np.diag(rng.uniform(0.1, 1.0, n_u))
    else:
        l_fac = rng.standard_normal((n_u, n_u))
        p_mat[n_g + n_s:, n_g + n_s:] = l_fac @ l_fac.T + 0.1 * np.eye(n_u)
    a_eq = np.zeros((n_p + n_s + n_u, n))
    a_eq[:, :n_g] = rng.standard_normal((a_eq.shape[0], n_g))
    a_eq[n_p:n_p + n_s, n_g:n_g + n_s] = -np.eye(n_s)
    a_eq[n_p + n_s:, n_g + n_s:] = -np.eye(n_u)
    if shared_row:  # the second slack moves into the first slack's row
        a_eq[n_p + 1, n_g + 1] = 0.0
        a_eq[n_p, n_g + 1] = -0.5
    lo = np.r_[np.full(n_g + n_s, -np.inf), np.full(n_u, -1.0)]
    return qp.QuadProgram(
        p_mat=p_mat, q_vec=rng.standard_normal(n),
        l1_weights=np.r_[np.full(n_g, 0.3), np.zeros(n_s + n_u)] if l1 else None,
        a_eq=a_eq if rows else None,
        b_eq=rng.standard_normal(a_eq.shape[0]) if rows else None,
        lower=lo, upper=-lo,
    )


def lift_matrices(P, A, idx_l1):
    """P and A over the lifted variables: the negative part of an l1 variable
    enters with the negated column (and row) of its positive part."""
    n, k = P.shape[0], idx_l1.size
    P_l = np.empty((n + k, n + k))
    P_l[:n, :n] = P
    P_l[:n, n:] = -P[:, idx_l1]
    P_l[n:, :n] = -P[idx_l1, :]
    P_l[n:, n:] = P[np.ix_(idx_l1, idx_l1)]
    return P_l, np.hstack([A, -A[:, idx_l1]])


def dense_lifted_kkt(P, diag, A, idx_l1):
    """The lifted KKT matrix [[P_l + diag, A_l'], [A_l, 0]], formed densely
    from the folded P and A."""
    P_l, A_l = lift_matrices(P, A, idx_l1)
    n, me = P_l.shape[0], A_l.shape[0]
    kkt = np.zeros((n + me, n + me))
    kkt[:n, :n] = P_l + np.diag(diag)
    kkt[:n, n:] = A_l.T
    kkt[n:, :n] = A_l
    return kkt


def dense_lifted_step(P, diag, A, idx_l1, rhs):
    """Reference Newton step: the LU of the dense lifted KKT matrix with the
    solver's first regularization level, refined against the unregularized
    matrix while that helps."""
    kkt = dense_lifted_kkt(P, diag, A, idx_l1)
    n = diag.size
    shift = np.full(kkt.shape[0], -1e-12)
    shift[:n] = 1e-12 * (1.0 + np.abs(np.r_[np.diag(P), np.diag(P)[idx_l1]]) + diag)
    lu = scipy.linalg.lu_factor(kkt + np.diag(shift))
    w = scipy.linalg.lu_solve(lu, rhs)
    res = rhs - kkt @ w
    for _ in range(2):
        w_try = w + scipy.linalg.lu_solve(lu, res)
        res_try = rhs - kkt @ w_try
        if not np.abs(res_try).max() < np.abs(res).max():
            break
        w, res = w_try, res_try
    return w


class TestReducedStep:
    """The structured Newton step against the LU of the dense lifted KKT matrix."""

    # keyword arguments of deepc_shaped_program, and the order of the reduced
    # matrix: the 12 folded g, plus kept variables and kept rows
    CASES = {
        "deepc": ({}, 12 + 2),
        "no equality rows": (dict(rows=False), 12 + 3 + 4),
        "no l1 term": (dict(l1=False), 12 + 2),
        "non-diagonal R": (dict(diagonal_r=False), 12 + 4 + 2 + 4),
        "zero-curvature slack": (dict(curved_slack=False), 12 + 3 + 2 + 3),
        "two separable in a row": (dict(shared_row=True), 12 + 2 + 1),
    }

    @pytest.mark.parametrize("d_max", [1e2, 1e8, 1e16])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_lu_step(self, lu_sizes, case, d_max):
        kwargs, order = self.CASES[case]
        rng = np.random.default_rng(list(self.CASES).index(case))
        for _ in range(10):
            P, q, A, b, lo, hi, idx_l1 = qp._lift_program(deepc_shaped_program(rng, **kwargs))
            P, q, A, b, lo, hi, _d, _r = qp._equilibrate(P, q, A, b, lo, hi, idx_l1)
            structure = qp._Structure(P, A, idx_l1)
            assert structure.pos.size or structure.sep.size
            # barrier diagonals on the bounded variables, log-uniform up to d_max
            bounded = np.isfinite(lo).astype(float) + np.isfinite(hi)
            diag = bounded * 10.0 ** rng.uniform(-4.0, np.log10(d_max), q.size)
            rhs = rng.standard_normal(q.size + b.size)
            events = qp._new_events()
            lu_sizes.clear()
            w_reduced = qp._Kkt(structure, diag, events).solve(rhs)
            assert lu_sizes[0] == order
            if d_max < 1e16:
                assert events["reduced_step_fallbacks"] == 0
            assert len(lu_sizes) == 1 + events["reduced_step_fallbacks"]
            w_lu = dense_lifted_step(P, diag, A, idx_l1, rhs)
            assert np.abs(w_reduced - w_lu).max() <= 1e-10 * np.abs(w_lu).max()


class TestFoldedSetup:
    """Equilibration and the least-squares start work on the folded matrices."""

    @staticmethod
    def programs(spread):
        """DeePC-shaped programs with one input pinned (which adds a row);
        ``spread`` scales P and the rows of A by up to 10^+-6."""
        rng = np.random.default_rng(5)
        for kwargs in ({}, dict(rows=False), dict(shared_row=True), dict(l1=False)):
            for _ in range(3):
                prob = deepc_shaped_program(rng, **kwargs)
                if spread:
                    prob.p_mat *= 10.0 ** rng.uniform(-6, 6)
                    prob.a_eq *= 10.0 ** rng.uniform(-6, 6, (prob.a_eq.shape[0], 1))
                prob.lower[-1] = prob.upper[-1] = 0.5
                yield prob

    def test_equilibrate_before_lift_is_bit_identical(self):
        for prob in self.programs(spread=True):
            P, q, A, b, lo, hi, idx_l1 = qp._lift_program(prob)
            P_l, A_l = lift_matrices(P, A, idx_l1)
            lifted_first = qp._equilibrate(P_l, q, A_l, b, lo, hi, np.zeros(0, dtype=int))
            P_s, q_s, A_s, *rest = qp._equilibrate(P, q, A, b, lo, hi, idx_l1)
            P_s, A_s = lift_matrices(P_s, A_s, idx_l1)
            scaled_first = (P_s, q_s, A_s, *rest)
            for ref, got in zip(lifted_first, scaled_first):
                np.testing.assert_array_equal(got, ref)

    @staticmethod
    def assert_matches_lstsq(lsq, A, rng):
        b = rng.standard_normal(A.shape[0])
        g = rng.standard_normal(A.shape[1])
        x_ref = np.linalg.lstsq(A, b)[0]
        y_ref = np.linalg.lstsq(A.T, g)[0]
        assert np.abs(lsq.solve(b) - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
        assert np.abs(lsq.solve_transpose(g) - y_ref).max() <= 1e-12 * np.abs(y_ref).max()

    def test_start_matches_lstsq_on_lifted_matrix(self):
        rng = np.random.default_rng(6)
        for prob in self.programs(spread=False):
            P, q, A, b, lo, hi, idx_l1 = qp._lift_program(prob)
            A = qp._equilibrate(P, q, A, b, lo, hi, idx_l1)[2]
            A_l = lift_matrices(P, A, idx_l1)[1]
            lsq = qp._LeastSquares(A, idx_l1)
            assert lsq.independent
            self.assert_matches_lstsq(lsq, A_l, rng)

    def test_paper_scale_start_takes_the_qr(self):
        # the hybrid program of one paper-scale trial: 100 rows, 249 folded
        # and 406 lifted variables, well conditioned
        cfg = bench.ExperimentConfig()
        plant = bench._make_plant(cfg)
        spec = bench._make_spec(cfg, plant)
        lib, online, _ = bench._instance(cfg, plant, 0)
        prog = qp.assemble_reduced(
            lib.up, lib.yp, lib.uf, lib.yf, online.u_ini, online.y_ini,
            spec.r_bar(), spec.q_bar(), spec.y_ref_vec(), lambda1=spec.lambda1,
            lambda_y=spec.lambda_y, u_box=spec.u_box, y_box=spec.y_box,
        )
        P, q, A, b, lo, hi, idx_l1 = qp._lift_program(prog.qp)
        A = qp._equilibrate(P, q, A, b, lo, hi, idx_l1)[2]
        A_l = lift_matrices(P, A, idx_l1)[1]
        assert A_l.shape == (100, 406)
        lsq = qp._LeastSquares(A, idx_l1)
        assert lsq.independent
        self.assert_matches_lstsq(lsq, A_l, np.random.default_rng(10))

    def test_start_rank_cut_off_is_the_lifted_one(self):
        # B h has singular values (1, 0.5, 0.2, s_min), and s_min lies between
        # lstsq's cut-off for the folded shape (eps * 10) and for the lifted
        # one (eps * 20): the lifted matrix has rank 3
        rng = np.random.default_rng(7)
        n, pos = 10, np.arange(10)
        eps = np.finfo(float).eps
        u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        v = np.linalg.qr(rng.standard_normal((n, 4)))[0]
        c = (u * [1.0, 0.5, 0.2, 15 * eps]) @ v.T
        B = c / np.sqrt(2.0)
        A = np.hstack([B, -B[:, pos]])
        lsq = qp._LeastSquares(B, pos)  # too ill-conditioned for the QR
        assert not lsq.independent
        assert lsq.s.size == 3 == np.linalg.matrix_rank(A)
        self.assert_matches_lstsq(lsq, A, rng)
        # duplicate rows: the cut-off removes the exact null direction
        B = np.vstack([B[:3], B[:1]])
        lsq = qp._LeastSquares(B, pos)
        assert not lsq.independent
        self.assert_matches_lstsq(lsq, np.hstack([B, -B[:, pos]]), rng)


class TestStructureProduct:
    """K w and |K| |w| applied in parts, against the dense lifted KKT matrix."""

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(8)
        for kwargs in ({}, dict(rows=False), dict(diagonal_r=False), dict(shared_row=True),
                       dict(l1=False)):
            P, q, A, b, lo, hi, idx_l1 = qp._lift_program(deepc_shaped_program(rng, **kwargs))
            P, q, A, b, lo, hi, _d, _r = qp._equilibrate(P, q, A, b, lo, hi, idx_l1)
            st = qp._Structure(P, A, idx_l1)
            diag = np.isfinite(lo) * rng.uniform(0.0, 1e4, q.size)
            k0 = dense_lifted_kkt(P, diag, A, idx_l1)
            dx, dy = rng.standard_normal(q.size), rng.standard_normal(b.size)
            w = np.concatenate([dx, dy])
            scale = np.abs(k0) @ np.abs(w)
            assert np.all(np.abs(st.product(diag, dx, dy) - k0 @ w) <= 1e-14 * scale)
            got = st.product(diag, np.abs(dx), np.abs(dy), absolute=True)
            assert np.all(np.abs(got - scale) <= 1e-14 * scale)

    def test_one_sided_zero_pattern_is_not_separable(self):
        # row 1 of P is zero off the diagonal but column 1 is not (a scaled P
        # need not be bitwise symmetric): variable 1 must stay in the dense part
        P = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        A = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
        st = qp._Structure(P, A, np.zeros(0, dtype=int))
        assert st.sep.tolist() == [2]
        rng = np.random.default_rng(9)
        diag = rng.uniform(0.0, 1.0, 3)
        dx, dy = rng.standard_normal(3), rng.standard_normal(3)
        k0 = dense_lifted_kkt(P, diag, A, np.zeros(0, dtype=int))
        np.testing.assert_allclose(st.product(diag, dx, dy), k0 @ np.r_[dx, dy], rtol=1e-14)


class TestEvents:
    def test_reduced_step_fallback_counted(self, lu_sizes):
        # at tol 1e-11 the last iterates' barrier terms grow until one reduced
        # step is no longer at roundoff; that iterate is re-solved with the
        # LU of the folded matrix with nothing eliminated (19 variables + 9 rows)
        prob = deepc_shaped_program(np.random.default_rng(1))
        sol = qp.solve(prob, tol=1e-11, max_iter=200, accept_tol=1e-9)
        assert sol.status is qp.QpStatus.OPTIMAL
        assert max(qp.kkt_residuals(sol)) <= 1e-9
        assert sol.events == {"reduced_step_fallbacks": 1, "regularization_escalations": 0}
        assert sorted(lu_sizes) == [14] * sol.iterations + [28]

    def test_regularization_escalations_counted(self):
        # P = 0 with a free variable: the KKT matrix is singular, and with a
        # linear term this large the regularized solve overflows at the first
        # level, so each solve escalates
        with np.errstate(all="ignore"):
            sol = qp.solve(qp.QuadProgram(p_mat=[[0.0]], q_vec=[1e292]))
        assert sol.status is qp.QpStatus.MAX_ITERATIONS
        assert sol.events["regularization_escalations"] == sol.iterations == 3
        assert sol.events["reduced_step_fallbacks"] == 0

    def test_infeasible_reports_no_events(self):
        prob = qp.QuadProgram(
            p_mat=np.eye(2), q_vec=np.zeros(2), a_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[0.0, 1.0]
        )
        sol = qp.solve(prob)
        assert sol.status is qp.QpStatus.INFEASIBLE
        assert sol.events == {"reduced_step_fallbacks": 0, "regularization_escalations": 0}


class TestFirstLevelShift:
    """The first level is factored unshifted only when its matrix is regular."""

    def test_dependent_rows_keep_the_shift(self):
        # P is positive definite and every variable boxed, but a duplicated
        # equality row makes the KKT matrix singular: without its row shift
        # the step is not bounded, and most of these solves fail
        rng = np.random.default_rng(13)
        for _ in range(8):
            box = random_box_qp(rng, 8)
            a_eq = rng.standard_normal((3, 8))
            a_eq = np.vstack([a_eq, a_eq[:1]])
            prob = qp.QuadProgram(
                p_mat=box.p_mat, q_vec=box.q_vec, a_eq=a_eq,
                b_eq=a_eq @ rng.uniform(-0.1, 0.1, 8), lower=box.lower, upper=box.upper,
            )
            sol = qp.solve(prob)
            assert sol.status is qp.QpStatus.OPTIMAL
            assert max(qp.kkt_residuals(sol)) <= 1e-9


class TestDegeneratePrograms:
    """Programs on which an earlier solver raised or claimed a false optimum."""

    def test_sigma_ratio_does_not_overflow(self):
        # box widths of 1e-53..1e-130 against a gradient of 1e140: the affine
        # step's mu_aff / mu passes 1e103, and cubing it as a Python float raised
        prob = qp.QuadProgram(
            p_mat=[[3.3e-53, -8.3e-54], [-8.3e-54, 1.0e-52]], q_vec=[-1.0e140, -9.5e140],
            lower=[-1.1e-53, -1.4e-53], upper=[5.0e-131, 1.5e-130],
        )
        with np.errstate(all="ignore"):
            sol = qp.solve(prob)
        assert sol.status in (qp.QpStatus.OPTIMAL, qp.QpStatus.MAX_ITERATIONS)

    def test_narrow_box_start_is_strictly_inside(self):
        # scaled box widths of 1e-53..1e-130, as in the program above: a
        # margin of a tenth of the width plus 1e-12 is more than half of it
        width = 10.0 ** -np.arange(53.0, 131.0)
        lo, hi = -0.3 * width, 0.7 * width
        for x in (np.full(width.size, -1.0), np.zeros(width.size), np.full(width.size, 1.0)):
            start = qp._push_interior(x, lo, hi)
            assert np.all(lo < start) and np.all(start < hi)

    def test_wide_box_start_is_unchanged(self):
        lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([3.0, 1e-9, 2.5])
        x = np.array([-5.0, 1.0, 2.25])
        margin = 0.1 * (hi - lo) + 1e-12
        np.testing.assert_array_equal(
            qp._push_interior(x, lo, hi), np.clip(x, lo + margin, hi - margin)
        )

    def test_equality_only_non_finite_step_is_typed(self):
        # the one feasible point is -4.7e71, where P z overflows: the second
        # Newton right-hand side is not finite
        prob = qp.QuadProgram(p_mat=[[6e261]], q_vec=[7e-145], a_eq=[[3e-124]], b_eq=[-1.4e-52])
        with np.errstate(all="ignore"):
            sol = qp.solve(prob)
        assert sol.status is qp.QpStatus.MAX_ITERATIONS
        np.testing.assert_allclose(sol.z, [-1.4e-52 / 3e-124], rtol=1e-12)

    def test_unbounded_program_is_not_optimal(self):
        # unbounded below: the iterate runs to -inf, and its NaN residuals
        # must not pass the acceptance test
        with np.errstate(all="ignore"):
            sol = qp.solve(qp.QuadProgram(p_mat=[[0.0]], q_vec=[1e290]))
        assert sol.status is qp.QpStatus.MAX_ITERATIONS


@st.composite
def degenerate_programs(draw):
    """Small QPs with entries scaled by up to 10^+-150, rank-deficient or zero
    P, duplicate and rank-deficient equality rows, mixed bounds and l1 terms
    on every free variable."""
    n = draw(st.integers(1, 6))
    me = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def scale(limit=150):
        return 10.0 ** draw(st.integers(-limit, limit))

    p_rank = draw(st.integers(0, n))  # 0 gives P = 0
    l_fac = rng.standard_normal((n, p_rank)) * scale(75)
    a_rank = draw(st.integers(0, min(me, n)))
    a_eq = rng.standard_normal((me, a_rank)) @ rng.standard_normal((a_rank, n)) * scale()
    if me >= 2 and draw(st.booleans()):
        a_eq[-1] = a_eq[0]  # duplicate row
    if draw(st.booleans()):
        b_eq = a_eq @ rng.standard_normal(n)  # consistent
    else:
        b_eq = rng.standard_normal(me) * scale()
    kinds = draw(st.lists(st.sampled_from(["free", "lower", "upper", "box", "pinned"]),
                          min_size=n, max_size=n))
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    for i, kind in enumerate(kinds):
        centre, width = rng.standard_normal() * scale(), rng.uniform(0.1, 2.0) * scale()
        if kind in ("lower", "box"):
            lo[i] = centre - width
        if kind in ("upper", "box"):
            hi[i] = centre + width
        if kind == "pinned":
            lo[i] = hi[i] = centre
    free = np.array([kind == "free" for kind in kinds])
    weights = None
    if free.any() and draw(st.booleans()):
        weights = np.where(free, rng.uniform(0.1, 1.0, n) * scale(), 0.0)
    return qp.QuadProgram(
        p_mat=l_fac @ l_fac.T, q_vec=rng.standard_normal(n) * scale(), l1_weights=weights,
        a_eq=a_eq, b_eq=b_eq, lower=lo, upper=hi,
    )


class TestFuzz:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(degenerate_programs())
    def test_never_raises_and_optimal_is_certified(self, prob):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            sol = qp.solve(prob)
            residuals = qp.kkt_residuals(sol) if sol._cert is not None else None
        if sol.status is qp.QpStatus.OPTIMAL:
            assert np.isfinite(sol.z).all()
            assert np.max(residuals) <= 1e-9


class TestAssembleReduced:
    def _blocks(self, rng, n_c=12):
        up = rng.standard_normal((2, n_c))
        yp = rng.standard_normal((3, n_c))
        uf = rng.standard_normal((4, n_c))
        yf = rng.standard_normal((6, n_c))
        return up, yp, uf, yf

    def test_pure_equality_structure_when_unregularized(self):
        rng = np.random.default_rng(10)
        up, yp, uf, yf = self._blocks(rng)
        red = qp.assemble_reduced(
            up, yp, uf, yf,
            rng.standard_normal(2), rng.standard_normal(3),
            np.eye(4), np.eye(6), np.zeros(6),
        )
        assert red.qp.l1_weights.max() == 0.0
        assert not np.isfinite(red.qp.lower).any()
        assert not np.isfinite(red.qp.upper).any()
        # equalities: past inputs, past outputs, future-input coupling
        assert red.qp.a_eq.shape[0] == 2 + 3 + 4

    def test_reduced_objective_equals_four_block_form(self):
        rng = np.random.default_rng(11)
        up, yp, uf, yf = self._blocks(rng)
        u_ini = rng.standard_normal(2)
        y_ini = rng.standard_normal(3)
        r_bar = np.eye(4)
        q_bar = np.eye(6)
        lam_y = 50.0
        red = qp.assemble_reduced(
            up, yp, uf, yf, u_ini, y_ini, r_bar, q_bar, np.zeros(6), lambda_y=lam_y
        )
        sol = qp.solve(red.qp, tol=1e-10)
        sigma, u, y = sol.z[red.sigma_slice], sol.z[red.u_slice], red.outputs(sol.z)
        red_obj = u @ r_bar @ u + y @ q_bar @ y + lam_y * sigma @ sigma

        # unreduced four-block program over (g, sigma, u, y)
        n_c = up.shape[1]
        n_z = n_c + 3 + 4 + 6
        p_mat = np.zeros((n_z, n_z))
        p_mat[n_c:n_c + 3, n_c:n_c + 3] = 2 * lam_y * np.eye(3)
        p_mat[n_c + 3:n_c + 7, n_c + 3:n_c + 7] = 2 * r_bar
        p_mat[n_c + 7:, n_c + 7:] = 2 * q_bar
        a_eq = np.zeros((2 + 3 + 4 + 6, n_z))
        a_eq[:2, :n_c] = up
        a_eq[2:5, :n_c] = yp
        a_eq[2:5, n_c:n_c + 3] = -np.eye(3)
        a_eq[5:9, :n_c] = uf
        a_eq[5:9, n_c + 3:n_c + 7] = -np.eye(4)
        a_eq[9:, :n_c] = yf
        a_eq[9:, n_c + 7:] = -np.eye(6)
        full = qp.QuadProgram(
            p_mat=p_mat, q_vec=np.zeros(n_z),
            a_eq=a_eq, b_eq=np.concatenate([u_ini, y_ini, np.zeros(10)]),
        )
        sol_full = qp.solve(full, tol=1e-10)
        full_obj = (
            sol_full.z[n_c + 3:n_c + 7] @ r_bar @ sol_full.z[n_c + 3:n_c + 7]
            + sol_full.z[n_c + 7:] @ q_bar @ sol_full.z[n_c + 7:]
            + lam_y * sol_full.z[n_c:n_c + 3] @ sol_full.z[n_c:n_c + 3]
        )
        assert red_obj == pytest.approx(full_obj, rel=1e-6, abs=1e-8)

    def test_box_bounds_land_on_u_slots(self):
        rng = np.random.default_rng(12)
        up, yp, uf, yf = self._blocks(rng)
        red = qp.assemble_reduced(
            up, yp, uf, yf,
            rng.standard_normal(2), rng.standard_normal(3),
            np.eye(4), np.eye(6), np.zeros(6),
            lambda_y=10.0,
            u_box=(np.array([-0.5, -0.25]), np.array([0.5, 0.25])),
        )
        lo = red.qp.lower[red.u_slice]
        np.testing.assert_array_equal(lo, [-0.5, -0.25, -0.5, -0.25])
        assert not np.isfinite(red.qp.lower[: red.n_g]).any()


class TestProgramCsv:
    def test_dump_bundle(self, tmp_path):
        prob = qp.QuadProgram(p_mat=np.eye(2), q_vec=[1.0, 2.0])
        paths = qp.save_program_csv(prob, tmp_path)
        assert len(paths) == 7
        p_back = np.loadtxt(tmp_path / "qp_P.csv", delimiter=",")
        np.testing.assert_array_equal(p_back, np.eye(2))
