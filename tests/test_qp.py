import itertools

import numpy as np
import pytest
import scipy.linalg

from deepckit import qp


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

    def test_strict_convexity_uniqueness_from_two_starts(self):
        rng = np.random.default_rng(7)
        prob = random_box_qp(rng, 6)
        tol = 1e-9
        s1 = qp.solve(prob, tol=tol, x0=np.zeros(6))
        s2 = qp.solve(prob, tol=tol, x0=rng.uniform(-1, 1, 6))
        assert np.abs(s1.z - s2.z).max() <= 10 * np.sqrt(tol)

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
        g, sigma, u, y = red.split(sol.z)
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
            u_lower=np.array([-0.5, -0.25]), u_upper=np.array([0.5, 0.25]),
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
