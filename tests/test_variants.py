import warnings

import numpy as np
import pytest

from deepckit import bench, qp
from deepckit import variants as va
from deepckit.matlib import compact_svd, numeric_rank, pinv, rowspace_projector
from deepckit.plants import (
    LinearPlant,
    NoiseSpec,
    collect_trajectory,
    step_linear,
    triple_mass_spring,
)


def make_spec(l1=0.0, l2=0.0, ly=0.0, m=1, p=1, n_horizon=8, t_ini=2, r_scale=0.1,
              u_lim=1.0, y_ref=None):
    return va.ControlSpec(
        t_ini=t_ini,
        n_horizon=n_horizon,
        q_weight=np.eye(p),
        r_weight=r_scale * np.eye(m),
        lambda1=l1,
        lambda2=l2,
        lambda_y=ly,
        u_box=(np.full(m, -u_lim), np.full(m, u_lim)),
        y_ref=y_ref,
    )


@pytest.fixture(scope="module")
def small_instances(small_plant):
    """Noise-free and noisy libraries plus online data for the fast plant."""
    out = {}
    for tag, var in (("clean", 0.0), ("noisy", 0.01)):
        out[tag] = bench.make_instance(
            small_plant, T=60, t_ini=2, n_horizon=8,
            noise_var=var, u_lo=-1.0, u_hi=1.0, seed=7, x0_scale=1.0,
        )
    return out


def deviation(a, b, with_sigma=False):
    d = max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.y_pred - b.y_pred)))
    if with_sigma:
        d = max(d, np.max(np.abs(a.sigma_y - b.sigma_y)))
    return d


class TestGroundTruth:
    def test_regulation_at_equilibrium(self, small_plant):
        spec = make_spec(ly=0.0)
        sol = va.solve_ground_truth(small_plant, np.zeros(2), spec)
        np.testing.assert_allclose(sol.u, 0.0, atol=1e-9)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_scalar_two_step_hand_kkt(self):
        # N=2, D=0: only y(t+1) depends on u(t); the optimal first input is
        # -(B'C'QCB + R)^{-1} B'C'QCA x_ini and the second input is zero
        a, b, c = 0.8, 0.5, 1.0
        plant = LinearPlant(a=[[a]], b=[[b]], c=[[c]], d=[[0.0]])
        q_w, r_w = 1.0, 0.1
        x0 = 1.3
        spec = va.ControlSpec(
            t_ini=1, n_horizon=2, q_weight=[[q_w]], r_weight=[[r_w]],
        )
        sol = va.solve_ground_truth(plant, [x0], spec)
        u0_expected = -(b * c * q_w * c * a * x0) / (b * c * q_w * c * b + r_w)
        assert sol.u[0] == pytest.approx(u0_expected, abs=1e-8)
        assert sol.u[1] == pytest.approx(0.0, abs=1e-8)

    def test_scalar_direct_feedthrough_hand_kkt(self):
        # N=1 with D != 0: u* = -(D'QD + R)^{-1} D'QC x_ini
        plant = LinearPlant(a=[[0.9]], b=[[1.0]], c=[[1.0]], d=[[0.4]])
        spec = va.ControlSpec(t_ini=1, n_horizon=1, q_weight=[[2.0]], r_weight=[[0.3]])
        x0 = -0.7
        sol = va.solve_ground_truth(plant, [x0], spec)
        expected = -(0.4 * 2.0 * 1.0 * x0) / (0.4 * 2.0 * 0.4 + 0.3)
        assert sol.u[0] == pytest.approx(expected, abs=1e-9)

    def test_reported_objective_matches_realized_on_noise_free(self, small_plant):
        spec = make_spec()
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(2)
        sol = va.solve_ground_truth(small_plant, x0, spec)
        realized = va.realized_cost(small_plant, x0, sol.u, spec)
        assert sol.objective == pytest.approx(realized, abs=1e-8)

    @pytest.mark.parametrize("bound_y", [True, False])
    def test_condensed_matches_uncondensed_reference(self, bound_y):
        plant = LinearPlant(
            a=[[0.9, 0.3, 0.0], [-0.2, 0.8, 0.1], [0.0, 0.1, 0.7]],
            b=[[0.5, 0.0], [1.0, 0.2], [0.0, 0.8]],
            c=[[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]],
            d=[[0.3, 0.0], [0.1, -0.2]],
        )
        horizon = 6
        y_box = (np.array([-0.4, -0.5]), np.array([0.5, 0.4]))
        spec = va.ControlSpec(
            t_ini=1, n_horizon=horizon, q_weight=np.diag([2.0, 3.0]),
            r_weight=0.05 * np.eye(2), u_box=(np.full(2, -1.0), np.full(2, 1.0)),
            y_box=y_box if bound_y else None, y_ref=np.tile([1.2, -1.5], horizon),
        )
        x0 = np.array([0.3, -0.2, 0.1])
        u_want, y_want, obj_want = uncondensed_ground_truth(plant, x0, spec)
        if bound_y:  # both sides of the output box bind at the reference optimum
            assert np.min(y_want - np.tile(y_box[0], horizon)) <= 1e-6
            assert np.min(np.tile(y_box[1], horizon) - y_want) <= 1e-6
        sol = va.solve_ground_truth(plant, x0, spec, tol=1e-11, accept_tol=1e-9)
        assert np.max(np.abs(sol.u - u_want)) <= 1e-7
        assert np.max(np.abs(sol.y_pred - y_want)) <= 1e-7
        assert abs(sol.objective - obj_want) <= 1e-7 * max(1.0, abs(obj_want))


def uncondensed_ground_truth(plant, x_ini, spec):
    """Reference model-based QP over (x, u, y) with the dynamics as equalities."""
    n, m, p = plant.n, plant.m, plant.p
    horizon = spec.n_horizon
    n_x, n_u, n_y = n * (horizon + 1), m * horizon, p * horizon
    off_u, off_y = n_x, n_x + n_u
    n_z = off_y + n_y
    p_mat = np.zeros((n_z, n_z))
    p_mat[off_u:off_y, off_u:off_y] = 2.0 * spec.r_bar()
    p_mat[off_y:, off_y:] = 2.0 * spec.q_bar()
    q_vec = np.zeros(n_z)
    q_vec[off_y:] = -2.0 * (spec.q_bar() @ spec.y_ref_vec())
    a_eq = np.zeros((n + n * horizon + p * horizon, n_z))
    b_eq = np.zeros(a_eq.shape[0])
    a_eq[:n, :n] = np.eye(n)
    b_eq[:n] = x_ini
    row = n
    for k in range(horizon):  # x_{k+1} - A x_k - B u_k = 0
        a_eq[row:row + n, (k + 1) * n:(k + 2) * n] = np.eye(n)
        a_eq[row:row + n, k * n:(k + 1) * n] = -plant.a
        a_eq[row:row + n, off_u + k * m:off_u + (k + 1) * m] = -plant.b
        row += n
    for k in range(horizon):  # y_k - C x_k - D u_k = 0
        a_eq[row:row + p, off_y + k * p:off_y + (k + 1) * p] = np.eye(p)
        a_eq[row:row + p, k * n:(k + 1) * n] = -plant.c
        a_eq[row:row + p, off_u + k * m:off_u + (k + 1) * m] = -plant.d
        row += p
    lo = np.full(n_z, -np.inf)
    hi = np.full(n_z, np.inf)
    lo[off_u:off_y] = np.tile(spec.u_box[0], horizon)
    hi[off_u:off_y] = np.tile(spec.u_box[1], horizon)
    if spec.y_box is not None:
        lo[off_y:] = np.tile(spec.y_box[0], horizon)
        hi[off_y:] = np.tile(spec.y_box[1], horizon)
    prob = qp.QuadProgram(p_mat=p_mat, q_vec=q_vec, a_eq=a_eq, b_eq=b_eq, lower=lo, upper=hi)
    sol = qp.solve(prob, tol=1e-11, accept_tol=1e-9)
    assert sol.status is qp.QpStatus.OPTIMAL
    u, y = sol.z[off_u:off_y], sol.z[off_y:]
    dy = y - spec.y_ref_vec()
    return u, y, float(u @ spec.r_bar() @ u + dy @ spec.q_bar() @ dy)


class TestBasicDeePC:
    def test_library_column_is_feasible(self, small_plant, small_instances):
        lib, online, _ = small_instances["clean"]
        # build online data from one library column: g = basis vector
        col = 5
        online_col = va.OnlineData(u_ini=lib.up[:, col], y_ini=lib.yp[:, col])
        spec = make_spec()
        sol = va.solve_basic_deepc(lib, online_col, spec)
        assert sol.solver.status is qp.QpStatus.OPTIMAL
        # the column's own future trajectory is feasible, so the optimal cost
        # can be no worse than the column's cost
        col_cost = (
            lib.uf[:, col] @ va.ControlSpec.r_bar(spec) @ lib.uf[:, col]
            + lib.yf[:, col] @ va.ControlSpec.q_bar(spec) @ lib.yf[:, col]
        )
        assert sol.objective <= col_cost + 1e-6

    def test_inconsistent_online_window_infeasible(self, small_plant):
        # the past window must be over-determined (p * t_ini > n) so that a
        # noisy y_ini falls outside the noise-free library's row space
        lib, online, _ = bench.make_instance(
            small_plant, T=60, t_ini=4, n_horizon=8,
            noise_var=0.0, u_lo=-1.0, u_hi=1.0, seed=7,
        )
        rng = np.random.default_rng(2)
        noisy_online = va.OnlineData(
            u_ini=online.u_ini, y_ini=online.y_ini + 0.1 * rng.standard_normal(4)
        )
        with pytest.raises(va.VariantError) as err:
            va.solve_basic_deepc(lib, noisy_online, make_spec(t_ini=4))
        assert err.value.status is qp.QpStatus.INFEASIBLE

    def test_matches_ground_truth_noise_free(self, small_plant, small_instances):
        lib, online, x_true = small_instances["clean"]
        spec = make_spec()
        gt = va.solve_ground_truth(small_plant, x_true, spec)
        basic = va.solve_basic_deepc(lib, online, spec)
        assert deviation(gt, basic) <= 1e-6


class TestHybrid:
    def test_fact1_matches_basic(self, small_plant, small_instances):
        lib, online, _ = small_instances["clean"]
        spec = make_spec(l1=0.0, l2=0.0, ly=1e14)
        basic = va.solve_basic_deepc(lib, online, make_spec())
        hyb = va.solve_hybrid(lib, online, spec)
        assert deviation(basic, hyb) <= 1e-5
        assert np.max(np.abs(hyb.sigma_y)) <= 1e-6

    def test_theorem2_matches_svd(self, small_instances):
        lib, online, _ = small_instances["noisy"]
        spec = make_spec(l1=0.0, l2=30.0, ly=100.0)
        hyb = va.solve_hybrid(lib, online, spec)
        svd = va.solve_svd(va.preprocess_svd(lib), online, spec)
        assert deviation(hyb, svd, with_sigma=True) <= 1e-5

    def test_theorem3_matches_ddspc_for_large_ridge(self, small_instances):
        lib, online, _ = small_instances["noisy"]
        spec_dd = make_spec(l1=0.0, l2=0.0, ly=100.0)
        dd = va.solve_dd_spc(va.build_spc_library(lib), online, spec_dd)
        scale = bench._instance_scale(lib, online, spec_dd)
        spec3 = make_spec(l1=0.0, l2=1e3 * scale, ly=100.0)
        hyb = va.solve_hybrid(lib, online, spec3, tol=1e-11, max_iter=200, accept_tol=1e-7)
        assert deviation(hyb, dd, with_sigma=True) <= 1e-4

    def test_requires_positive_lambda_y(self, small_instances):
        lib, online, _ = small_instances["noisy"]
        with pytest.raises(ValueError):
            va.solve_hybrid(lib, online, make_spec(ly=0.0))


class TestPreprocessSvd:
    def test_column_space_preserved(self, small_instances):
        lib, _, _ = small_instances["noisy"]
        pre = va.preprocess_svd(lib)
        h_raw = va.stack_library(lib)
        h_bar = va.stack_library(pre)
        proj_raw = rowspace_projector(h_raw.T)
        proj_bar = rowspace_projector(h_bar.T)
        assert np.abs(proj_raw - proj_bar).max() <= 1e-8

    def test_noise_free_column_count_is_rank(self, small_instances):
        lib, _, _ = small_instances["clean"]
        pre = va.preprocess_svd(lib)
        # m*L + n with m=1, L=10, n=2
        assert pre.n_cols == 1 * 10 + 2
        assert pre.n_cols == numeric_rank(va.stack_library(lib), 1e-8)

    def test_orthogonal_library_spans_same_space(self):
        rng = np.random.default_rng(3)
        q_mat, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        lib = va.PreprocessedLibrary(
            up=q_mat[:2], yp=q_mat[2:4], uf=q_mat[4:8], yf=q_mat[8:],
            t_ini=2, n_horizon=4, m=1, p=1, provenance="raw",
        )
        pre = va.preprocess_svd(lib)
        assert pre.n_cols == 5
        pr = rowspace_projector(va.stack_library(lib).T)
        pb = rowspace_projector(va.stack_library(pre).T)
        assert np.abs(pr - pb).max() <= 1e-8

    def test_provenance_enforced(self, small_instances):
        lib, online, _ = small_instances["noisy"]
        pre = va.build_spc_library(lib)
        with pytest.raises(ValueError):
            va.solve_svd(pre, online, make_spec(ly=100.0))


class TestSpcLibrary:
    def test_noise_free_projection_is_identity_on_yf(self, small_instances):
        lib, _, _ = small_instances["clean"]
        pre = va.build_spc_library(lib)
        np.testing.assert_allclose(pre.yf, lib.yf, atol=1e-8)

    def test_projected_rows_lie_in_h1_rowspace(self, small_instances):
        lib, _, _ = small_instances["noisy"]
        pre = va.build_spc_library(lib)
        h1 = va.stack_past_inputs(lib)
        pi1 = rowspace_projector(h1)
        np.testing.assert_allclose(pre.yf @ (np.eye(pi1.shape[0]) - pi1), 0.0, atol=1e-8)

    def test_theorem1_matches_classical_spc(self, small_instances):
        lib, online, _ = small_instances["noisy"]
        h1 = va.stack_past_inputs(lib)
        assert numeric_rank(h1) == h1.shape[0]
        spec = make_spec(l1=0.0, ly=100.0)
        dd = va.solve_dd_spc(va.build_spc_library(lib), online, spec,
                             tol=1e-11, max_iter=200, accept_tol=1e-9)
        sp = va.solve_classical_spc(lib, online, spec,
                                    tol=1e-11, max_iter=200, accept_tol=1e-9)
        assert deviation(dd, sp, with_sigma=True) <= 1e-6

    def test_predictor_matrix_identity(self, small_instances):
        lib, _, _ = small_instances["noisy"]
        h1 = va.stack_past_inputs(lib)
        pre = va.build_spc_library(lib)
        np.testing.assert_allclose(lib.yf @ pinv(h1) @ h1, pre.yf, atol=1e-8)

    def test_ddspc_objective_monotone_in_lambda1(self, small_instances):
        lib, online, _ = small_instances["noisy"]
        pre = va.build_spc_library(lib)
        objs = []
        norms = []
        for l1 in (0.0, 30.0, 1e6):
            spec = make_spec(l1=l1, ly=100.0, u_lim=50.0)
            sol = va.solve_dd_spc(pre, online, spec)
            objs.append(sol.objective)
            norms.append(np.abs(sol.g).sum())
        assert objs[0] <= objs[1] + 1e-9 <= objs[2] + 2e-9
        assert norms[2] <= norms[0] + 1e-9


class TestClassicalSpc:
    def test_zero_data_zero_solution(self, small_instances):
        lib, _, _ = small_instances["noisy"]
        online0 = va.OnlineData(u_ini=np.zeros(2), y_ini=np.zeros(2))
        spec = make_spec(ly=100.0)
        sol = va.solve_classical_spc(lib, online0, spec)
        np.testing.assert_allclose(sol.u, 0.0, atol=1e-7)
        np.testing.assert_allclose(sol.sigma_y, 0.0, atol=1e-7)


class TestSvdIter:
    def test_library_column_count(self, small_instances):
        lib, _, _ = small_instances["noisy"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pre = va.preprocess_svd_iter(lib, 2)
        assert pre.n_cols == 1 * 10 + 2   # m*L + n_order
        assert pre.provenance == "slra-svd"

    def test_noise_free_column_space_preserved(self, small_instances):
        lib, _, _ = small_instances["clean"]
        pre = va.preprocess_svd_iter(lib, 2)
        pr = rowspace_projector(va.stack_library(lib).T)
        pb = rowspace_projector(va.stack_library(pre).T)
        assert np.abs(pr - pb).max() <= 1e-8

    def test_noisy_library_closer_to_clean_span(self, small_plant):
        lib_n, _, _ = bench.make_instance(
            small_plant, T=60, t_ini=2, n_horizon=8,
            noise_var=0.01, u_lo=-1.0, u_hi=1.0, seed=21,
        )
        lib_c, _, _ = bench.make_instance(
            small_plant, T=60, t_ini=2, n_horizon=8,
            noise_var=0.0, u_lo=-1.0, u_hi=1.0, seed=21,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pre = va.preprocess_svd_iter(lib_n, 2)
        clean_proj = rowspace_projector(va.stack_library(lib_c).T)
        def dist(blocks):
            h = va.stack_library(blocks)
            basis = compact_svd(h).w
            return np.linalg.norm(basis - clean_proj @ basis)
        assert dist(pre) < dist(lib_n)

    def test_fact1_matches_ground_truth(self, small_plant, small_instances):
        lib, online, x_true = small_instances["clean"]
        spec = make_spec(l1=0.0, l2=0.0, ly=1e14)
        gt = va.solve_ground_truth(small_plant, x_true, spec)
        pre = va.preprocess_svd_iter(lib, 2)
        sol = va.solve_svd_iter(pre, online, spec)
        assert deviation(gt, sol) <= 1e-6

    def test_lambda2_insensitivity_on_reduced_library(self, small_instances):
        # the reduced past-block matrix has full column rank, so the row-space
        # penalty is inert: costs must match across a wide lambda2 range
        lib, online, _ = small_instances["noisy"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pre = va.preprocess_svd_iter(lib, 2)
        h1 = va.stack_past_inputs(pre)
        assert numeric_rank(h1) == h1.shape[1]
        sols = [
            va.solve_svd_iter(pre, online, make_spec(l2=l2, ly=100.0))
            for l2 in (1e-5, 1.0, 1e4)
        ]
        for s in sols[1:]:
            assert deviation(sols[0], s, with_sigma=True) <= 1e-6


class TestRealizedCost:
    def test_zero_everything(self, small_plant):
        spec = make_spec()
        assert va.realized_cost(small_plant, np.zeros(2), np.zeros(8), spec) == 0.0

    def test_variant_cost_at_least_ground_truth(self, small_plant, small_instances):
        lib, online, x_true = small_instances["noisy"]
        spec = make_spec(l1=1.0, l2=30.0, ly=100.0)
        gt = va.solve_ground_truth(small_plant, x_true, make_spec())
        gt_cost = va.realized_cost(small_plant, x_true, gt.u, make_spec())
        hyb = va.solve_hybrid(lib, online, spec)
        hyb_cost = va.realized_cost(small_plant, x_true, hyb.u, make_spec())
        assert hyb_cost >= gt_cost - 1e-8

    def test_tracking_reference_shifts_cost(self, small_plant):
        ref = np.full(8, 0.5)
        spec = make_spec(y_ref=ref)
        cost = va.realized_cost(small_plant, np.zeros(2), np.zeros(8), spec)
        assert cost == pytest.approx(8 * 0.25, abs=1e-12)


class TestStructuralInvariants:
    def test_predictor_uniqueness_noise_free(self, small_instances):
        # two coefficient vectors matching the same window give the same output
        lib, online, _ = small_instances["clean"]
        h1 = va.stack_past_inputs(lib)
        rng = np.random.default_rng(4)
        rhs = np.concatenate([online.u_ini, online.y_ini, rng.uniform(-1, 1, 8)])
        g1, *_ = np.linalg.lstsq(h1, rhs, rcond=None)
        # add a null-space direction of H1
        _, s, vt = np.linalg.svd(h1)
        null_basis = vt[np.sum(s > 1e-9 * s[0]):].T
        g2 = g1 + null_basis @ rng.standard_normal(null_basis.shape[1])
        assert np.abs(h1 @ (g2 - g1)).max() <= 1e-8
        np.testing.assert_allclose(lib.yf @ g1, lib.yf @ g2, atol=1e-8)

    def test_proposition4_conditions(self, small_plant):
        for seed in range(3):
            lib, _, _ = bench.make_instance(
                small_plant, T=60, t_ini=2, n_horizon=8,
                noise_var=0.01, u_lo=-1.0, u_hi=1.0, seed=30 + seed,
            )
            h = va.stack_library(lib)
            h1 = va.stack_past_inputs(lib)
            g_mat = np.eye(h.shape[1]) - rowspace_projector(h1)
            # rowsp(H G'G) inside rowsp(H)
            m_mat = h @ g_mat.T @ g_mat
            proj_h = rowspace_projector(h)
            assert np.abs(m_mat - m_mat @ proj_h).max() / max(1.0, np.abs(h).max()) <= 1e-8
            # V' G'G V equals the reduced complement's gram matrix
            dec = compact_svd(h)
            pre = va.preprocess_svd(lib)
            g_bar = np.eye(pre.n_cols) - rowspace_projector(va.stack_past_inputs(pre))
            lhs = dec.v.T @ g_mat.T @ g_mat @ dec.v
            np.testing.assert_allclose(lhs, g_bar.T @ g_bar, atol=1e-8)

    def test_u_within_box(self, small_instances):
        lib, online, _ = small_instances["noisy"]
        spec = make_spec(l1=1.0, l2=30.0, ly=100.0, u_lim=0.3)
        sol = va.solve_hybrid(lib, online, spec)
        assert np.abs(sol.u).max() <= 0.3 + 1e-8

    def test_output_box_respected(self, small_plant, small_instances):
        lib, online, _ = small_instances["noisy"]
        spec = make_spec(l1=0.0, l2=30.0, ly=100.0)
        spec.y_box = (np.array([-0.4]), np.array([0.4]))
        sol = va.solve_hybrid(lib, online, spec)
        assert np.abs(sol.y_pred).max() <= 0.4 + 1e-7


class TestSolutionCsv:
    def test_round_trip_columns(self, tmp_path, small_instances):
        lib, online, _ = small_instances["noisy"]
        sol = va.solve_hybrid(lib, online, make_spec(l1=1.0, l2=1.0, ly=100.0))
        path = tmp_path / "sol.csv"
        va.save_solution_csv(sol, path, m=1, p=1)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,u_1,y_1"
        assert len(lines) == 1 + 8
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(sol.u[0])
