import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.linalg import block_diag

from deepckit import bench, qp
from deepckit import variants as va
from deepckit.hankel import HankelPartition
from deepckit.matlib import compact_svd, numeric_rank, pinv, rowspace_projector
from deepckit.plants import (
    LinearPlant,
    NoiseSpec,
    NonlinearPlant,
    PlantDiverged,
    collect_trajectory,
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


class TestControlSpec:
    def test_frozen(self):
        spec = make_spec(ly=100.0)
        with pytest.raises(FrozenInstanceError):
            spec.lambda2 = 1.0

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            replace(make_spec(), lambda2=-1.0)


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
        scale = bench.instance_scale(lib, online, spec_dd)
        spec3 = make_spec(l1=0.0, l2=1e3 * scale, ly=100.0)
        hyb = va.solve_hybrid(lib, online, spec3, tol=1e-11, max_iter=200, accept_tol=1e-7)
        assert deviation(hyb, dd, with_sigma=True) <= 1e-4

    def test_requires_positive_lambda_y(self, small_instances):
        lib, online, _ = small_instances["noisy"]
        with pytest.raises(ValueError):
            va.solve_hybrid(lib, online, make_spec(ly=0.0))


@pytest.mark.parametrize("solve", [va.solve_hybrid, va.solve_classical_spc])
@pytest.mark.parametrize("t_ini, n_horizon", [(2, 6), (3, 8)])
def test_spec_windows_must_match_library(small_instances, solve, t_ini, n_horizon):
    lib, online, _ = small_instances["noisy"]  # t_ini=2, n_horizon=8
    spec = make_spec(ly=100.0, t_ini=t_ini, n_horizon=n_horizon)
    want = (rf"spec windows \(t_ini={t_ini}, n_horizon={n_horizon}\) do not match "
            r"the library's \(t_ini=2, n_horizon=8\)")
    with pytest.raises(ValueError, match=want):
        solve(lib, online, spec)


def reference_objective(spec, g, u, y, sigma, *, lambda1=0.0, lambda2=0.0, g2=None):
    """A controller's objective priced term by term from its solution."""
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


@pytest.mark.parametrize("y_box", [None, (np.array([-2.0]), np.array([0.42]))])
@pytest.mark.parametrize(
    "name", ["ground-truth", "basic", "hybrid", "svd", "ddspc", "svd-iter", "spc"]
)
def test_objective_prices_the_solution(small_plant, small_instances, name, y_box):
    # tracking a nonzero reference, so the tracking cost's constant term
    # counts; the box's upper side binds (unboxed, ground truth, basic and
    # hybrid predict outputs above 0.42)
    lib, online, x_true = small_instances["clean" if name == "basic" else "noisy"]
    spec = replace(make_spec(l1=1.0, l2=30.0, ly=100.0, y_ref=np.full(8, 0.4)), y_box=y_box)
    if name == "ground-truth":
        sol = va.solve_ground_truth(small_plant, x_true, spec)
        want = reference_objective(spec, sol.g, sol.u, sol.y_pred, np.zeros(0))
    else:
        variant = va.VARIANTS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if variant.preprocess is None:
                prelib = lib
            elif name == "svd-iter":
                prelib = va.preprocess_svd_iter(lib, 2)
            else:
                prelib = getattr(va, variant.preprocess)(lib)
        sol = getattr(va, variant.solver)(prelib, online, spec)
        g2 = np.eye(prelib.n_cols) - rowspace_projector(va.stack_past_inputs(prelib))
        want = reference_objective(
            spec, sol.g, sol.u, sol.y_pred, sol.sigma_y if variant.slack else np.zeros(0),
            lambda1=spec.lambda1 if variant.l1 else 0.0,
            lambda2=spec.lambda2 if variant.ridge else 0.0, g2=g2,
        )
    assert sol.objective == pytest.approx(want, rel=1e-9)


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
        lib = HankelPartition(
            up=q_mat[:2], yp=q_mat[2:4], uf=q_mat[4:8], yf=q_mat[8:],
            t_ini=2, n_horizon=4, m=1, p=1,
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


class TestLibraryCache:
    """Pi1 of H1 = col(U_P, Y_P, U_F) is factored once per library."""

    @pytest.fixture
    def projector_calls(self, monkeypatch):
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return rowspace_projector(a, *args, **kwargs)

        monkeypatch.setattr(va, "rowspace_projector", counting)
        return calls

    def test_one_projector_per_instance(self, small_instances, projector_calls):
        # hybrid's ridge and ddspc's projected library share the raw Pi1, and
        # the svd library derives its own from it
        lib, online, _ = small_instances["noisy"]
        lib = replace(lib)  # a fresh copy, with nothing cached yet
        spec = make_spec(l1=1.0, l2=30.0, ly=100.0)
        va.solve_hybrid(lib, online, spec)
        va.solve_dd_spc(va.build_spc_library(lib), online, spec)
        assert projector_calls == [(12, 51)]  # H1 of the raw library
        va.solve_svd(va.preprocess_svd(lib), online, spec)
        assert len(projector_calls) == 1

    def test_replaced_library_starts_empty(self, small_instances):
        lib, _, _ = small_instances["noisy"]
        lib = replace(lib)
        pi1 = va._past_projector(lib)
        assert lib._cache["pi1"] is pi1 is va._past_projector(lib)
        assert replace(lib)._cache == {}
        assert va.build_spc_library(lib)._cache == {}

    @pytest.mark.parametrize("source", ["small", "paper"])
    def test_svd_library_projector_is_its_own(self, small_instances, source):
        # V' Pi1 V against an SVD of the reduced library's own H1
        if source == "small":
            lib = small_instances["noisy"][0]
        else:
            cfg = bench.ExperimentConfig()
            lib = bench._instance(cfg, bench._make_plant(cfg), 0)[0]
        pre = va.preprocess_svd(replace(lib))
        got = va._past_projector(pre)
        want = rowspace_projector(va.stack_past_inputs(pre))
        assert np.abs(got - want).max() <= 1e-12


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

    def test_output_box_honoured_and_matches_ddspc(self, small_plant):
        # the box binds: unbounded, this instance predicts max |y| of about 0.58
        lib, online, _ = bench.make_instance(
            small_plant, T=60, t_ini=4, n_horizon=8, noise_var=0.01,
            u_lo=-1.0, u_hi=1.0, seed=3, x0_scale=2.0,
        )
        spec = replace(make_spec(ly=100.0, t_ini=4), y_box=(np.array([-0.2]), np.array([0.2])))
        sp = va.solve_classical_spc(lib, online, spec)
        dd = va.solve_dd_spc(va.build_spc_library(lib), online, spec)
        assert np.abs(sp.y_pred).max() <= 0.2 + 1e-7
        assert np.abs(sp.u - dd.u).max() <= 1e-6


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


def svd_iter_g_form(lib, online, spec, tol):
    """svd-iter as the library QP over g: H1 g = r, a slack, and the ridge
    lambda2 ||(I - Pi1) g||^2 (the reference for the predictor form)."""
    g2 = np.eye(lib.n_cols) - rowspace_projector(va.stack_past_inputs(lib))
    prog = qp.assemble_reduced(
        lib.up, lib.yp, lib.uf, lib.yf, online.u_ini, online.y_ini,
        spec.r_bar(), spec.q_bar(), spec.y_ref_vec(), lambda1=0.0, lambda2=spec.lambda2,
        g2=g2, lambda_y=spec.lambda_y, u_box=spec.u_box, y_box=spec.y_box,
    )
    sol = qp.solve(prog.qp, tol=tol, max_iter=200)
    assert sol.status is qp.QpStatus.OPTIMAL
    return sol.z[prog.u_slice], sol.z[prog.sigma_slice], sol.objective + prog.const


def spc_hand_built(lib, online, spec):
    """Classical SPC as it was built before it shared the predictor path."""
    pred = lib.yf @ pinv(va.stack_past_inputs(lib))
    m_t, p_t, n_u = lib.m * lib.t_ini, lib.p * lib.t_ini, lib.m * lib.n_horizon
    t_up, t_yp, t_uf = np.split(pred, [m_t, m_t + p_t], axis=1)
    p_mat = block_diag(2.0 * spec.r_bar(), 2.0 * spec.lambda_y * np.eye(p_t))
    prog = qp.tracking_program(
        p_mat, np.hstack([t_uf, t_yp]), t_up @ online.u_ini + t_yp @ online.y_ini,
        spec.q_bar(), spec.y_ref_vec(), slice(0, n_u), u_box=spec.u_box, y_box=spec.y_box,
    )
    sol = qp.solve(prog.qp, tol=1e-9, max_iter=100)
    z = sol.z
    return z[:n_u], prog.outputs(z), z[n_u:n_u + p_t], sol.objective + prog.const


def deficient_library():
    """A denoised-library stand-in whose H1 (12 x 14) has rank 10: two left
    null directions (rows L) and four null directions (coordinates nu), with
    Y_F off H1's row space so that nu moves the prediction."""
    rng = np.random.default_rng(11)
    h1 = rng.standard_normal((12, 10)) @ rng.standard_normal((10, 14)) / np.sqrt(10)
    lib = HankelPartition(
        up=h1[:2], yp=h1[2:4], uf=h1[4:], yf=0.3 * rng.standard_normal((8, 14)),
        t_ini=2, n_horizon=8, m=1, p=1, provenance="slra-svd",
    )
    g0 = 0.05 * rng.standard_normal(14)
    online = va.OnlineData(u_ini=lib.up @ g0, y_ini=lib.yp @ g0 + 0.01 * rng.standard_normal(2))
    return lib, online


class TestPredictorPath:
    """svd-iter and classical SPC share the least-squares predictor program."""

    # seed 7067: H1's smallest singular value is 6.9e-4 (the next is 0.23);
    # with g eliminated along that direction too, the solver stalls
    @pytest.mark.parametrize("seed, trial", [(12345, 0), (12345, 1), (7067, 0)])
    def test_svd_iter_matches_g_form_at_paper_scale(self, seed, trial):
        cfg = bench.ExperimentConfig(seed=seed)
        plant = bench._make_plant(cfg)
        spec = bench._make_spec(cfg, plant)
        lib, online, _ = bench._instance(cfg, plant, trial)
        pre = va.preprocess_svd_iter(lib, plant.n, eps=cfg.slra_eps)
        u_ref, sigma_ref, obj_ref = svd_iter_g_form(pre, online, spec, tol=1e-12)
        sol = va.solve_svd_iter(pre, online, spec, tol=1e-12, max_iter=200)
        assert sol.objective == pytest.approx(obj_ref, rel=1e-8)
        assert np.abs(sol.sigma_y - sigma_ref).max() <= 1e-6
        assert np.abs(sol.u - u_ref).max() <= 1e-5

    @pytest.mark.parametrize("lambda2", [0.0, 30.0, 1e4])
    def test_svd_iter_matches_g_form_on_deficient_library(self, lambda2):
        # H1 is short of both row and column rank, so the consistency rows and
        # the null-space coordinates are both live
        lib, online = deficient_library()
        h1 = va.stack_past_inputs(lib)
        assert numeric_rank(h1) == 10
        spec = make_spec(l2=lambda2, ly=100.0, y_ref=np.full(8, 0.3))
        u_ref, sigma_ref, obj_ref = svd_iter_g_form(lib, online, spec, tol=1e-12)
        sol = va.solve_svd_iter(lib, online, spec, tol=1e-12, max_iter=200)
        assert sol.objective == pytest.approx(obj_ref, rel=1e-8)
        assert np.abs(sol.sigma_y - sigma_ref).max() <= 1e-6
        assert np.abs(sol.u - u_ref).max() <= 1e-5
        r = np.concatenate([online.u_ini, online.y_ini + sol.sigma_y, sol.u])
        assert np.abs(h1 @ sol.g - r).max() <= 1e-9

    @pytest.mark.parametrize("name", ["svd-iter", "spc"])
    def test_coefficients_reproduce_window_and_prediction(self, small_instances, name):
        lib, online, _ = small_instances["noisy"]  # raw H1 has full row rank
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prelib = va.preprocess_svd_iter(lib, 2) if name == "svd-iter" else lib
        solve = getattr(va, va.VARIANTS[name].solver)
        sol = solve(prelib, online, make_spec(l2=30.0, ly=100.0, y_ref=np.full(8, 0.4)))
        r = np.concatenate([online.u_ini, online.y_ini + sol.sigma_y, sol.u])
        assert np.abs(va.stack_past_inputs(prelib) @ sol.g - r).max() <= 1e-12
        assert np.abs(prelib.yf @ sol.g - sol.y_pred).max() <= 1e-12

    @pytest.mark.parametrize("y_box", [None, (np.array([-0.2]), np.array([0.2]))])
    @pytest.mark.parametrize("noise_var", [0.0, 0.01])
    def test_spc_bitwise_equal_to_hand_built_program(self, small_plant, noise_var, y_box):
        # t_ini = 4 > lag: noise-free, H1 (16 x 49) has rank 14 < 16 rows
        lib, online, _ = bench.make_instance(
            small_plant, T=60, t_ini=4, n_horizon=8, noise_var=noise_var,
            u_lo=-1.0, u_hi=1.0, seed=3, x0_scale=2.0,
        )
        spec = replace(make_spec(ly=100.0, t_ini=4, y_ref=np.full(8, 0.4)), y_box=y_box)
        u, y, sigma, objective = spc_hand_built(lib, online, spec)
        sol = va.solve_classical_spc(lib, online, spec)
        np.testing.assert_array_equal(sol.u, u)
        np.testing.assert_array_equal(sol.y_pred, y)
        np.testing.assert_array_equal(sol.sigma_y, sigma)
        assert sol.objective == objective


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


    def test_diverged_plant_raises_typed_error(self):
        plant = NonlinearPlant(eps=0.0)
        spec = make_spec(p=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PlantDiverged, match="diverged"):
                va.realized_cost(plant, [1e200, 1e200], np.zeros(8), spec)


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
        spec = replace(spec, y_box=(np.array([-0.4]), np.array([0.4])))
        sol = va.solve_hybrid(lib, online, spec)
        assert np.abs(sol.y_pred).max() <= 0.4 + 1e-7


class TestStructuredNewtonStep:
    """At paper scale an IPM iteration LU-factors only the reduced KKT matrix:
    157 folded g plus the 8 U_P rows; the slacks and inputs are eliminated
    with their Y_P and U_F rows.  svd-iter's predictor program keeps only 8
    of g's coordinates: it factors them, its 80 inputs and 12 slacks plus 12
    rows, and has no eliminated level to fall back from."""

    @pytest.fixture(scope="class")
    def paper_trial(self):
        cfg = bench.ExperimentConfig()
        plant = bench._make_plant(cfg)
        return cfg, plant, bench._make_spec(cfg, plant), bench._instance(cfg, plant, 0)

    @pytest.mark.parametrize(
        "name, order", [("hybrid", 165), ("svd", 165), ("ddspc", 165), ("svd-iter", 112)]
    )
    def test_reduced_kkt_order(self, paper_trial, lu_sizes, name, order):
        cfg, plant, spec, instance = paper_trial
        sol = bench._solve_variant(
            name, plant, instance, spec, cfg, {}, tol=1e-9, max_iter=150, accept_tol=1e-6
        ).solver
        assert sol.status is qp.QpStatus.OPTIMAL
        assert lu_sizes.count(order) == sol.iterations > 0
        assert len(lu_sizes) - sol.iterations == sol.events["reduced_step_fallbacks"]
        if name == "hybrid":
            assert sol.events == {"reduced_step_fallbacks": 0, "regularization_escalations": 0}

    def test_ground_truth_steps_are_not_refined(self, paper_trial, monkeypatch):
        # every input is boxed, so the Newton matrix is positive definite and
        # factored unshifted: its first solve is nearly always at roundoff
        cfg, plant, spec, instance = paper_trial
        counts = {"apply": 0, "solve": 0}
        apply, solve = qp._FoldedStep._apply, qp._Kkt.solve

        def counting_apply(self, rhs):
            counts["apply"] += 1
            return apply(self, rhs)

        def counting_solve(self, rhs):
            counts["solve"] += 1
            return solve(self, rhs)

        monkeypatch.setattr(qp._FoldedStep, "_apply", counting_apply)
        monkeypatch.setattr(qp._Kkt, "solve", counting_solve)
        sol = bench._solve_variant(
            "ground-truth", plant, instance, spec, cfg, {}, tol=1e-9, max_iter=150,
            accept_tol=1e-6,
        ).solver
        assert sol.status is qp.QpStatus.OPTIMAL
        assert counts["solve"] == 2 * sol.iterations > 0
        assert counts["apply"] / counts["solve"] < 1.2

    @pytest.mark.parametrize("name, orders", [("hybrid", [165, 349]), ("ddspc", [165, 349])])
    def test_forced_fallback(self, paper_trial, lu_sizes, monkeypatch, name, orders):
        # with no backward error small enough, every iteration falls back from
        # the reduced matrix to the folded one with nothing eliminated: 249
        # folded variables plus 100 rows
        cfg, plant, spec, instance = paper_trial
        caches = {}
        reference = bench._solve_variant(
            name, plant, instance, spec, cfg, caches, tol=1e-9, max_iter=150, accept_tol=1e-6
        )
        lu_sizes.clear()
        monkeypatch.setattr(qp, "_STEP_BACKWARD_ERROR", 0.0)
        forced = bench._solve_variant(
            name, plant, instance, spec, cfg, caches, tol=1e-9, max_iter=150, accept_tol=1e-6
        )
        sol = forced.solver
        assert sol.status is qp.QpStatus.OPTIMAL
        assert max(qp.kkt_residuals(sol)) <= 1e-6
        assert sol.events == {"reduced_step_fallbacks": sol.iterations,
                              "regularization_escalations": 0}
        assert lu_sizes == orders * sol.iterations
        assert np.abs(forced.u - reference.u).max() <= 1e-10

    def test_non_unique_coefficients(self):
        # basic DeePC on noise-free data: hard equalities, no l1 and no ridge,
        # so g is not unique and the reduced matrix is singular; its
        # regularization must keep the steps bounded (unregularized, this
        # solve stalls near 1e-9 and fails)
        cfg = bench.ExperimentConfig(seed=8)
        plant = bench._make_plant(cfg)
        spec = replace(bench._make_spec(cfg, plant), lambda1=0.0, lambda2=0.0, lambda_y=1e14)
        instance = bench._instance(cfg, plant, 0, noise_var=0.0)
        sol = bench._solve_variant(
            "basic", plant, instance, spec, cfg, {}, tol=1e-11, max_iter=200, accept_tol=1e-9
        ).solver
        assert sol.status is qp.QpStatus.OPTIMAL
        assert max(qp.kkt_residuals(sol)) <= 1e-11


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
