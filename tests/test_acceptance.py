"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass line when it holds.  Exact cost values depend on the
constructed benchmark plant, so cost criteria assert orderings and bounded
increase rates rather than absolute numbers; certification criteria assert
hard numerical tolerances.
"""

import itertools
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from deepckit import bench, matlib, qp, slra
from deepckit import variants as va
from deepckit.hankel import build_block_hankel
from deepckit.matlib import compact_svd, numeric_rank, pinv, rowspace_projector
from deepckit.plants import NoiseSpec, collect_trajectory, triple_mass_spring

from conftest import random_matrix
from test_qp import active_set_enumeration, random_box_qp

MASTER_SEED = 12345
T, T_INI, N_HORIZON = 200, 4, 40
U_LIM = 0.7


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def plant():
    return triple_mass_spring()


def make_spec(plant, l1, l2, ly):
    return va.ControlSpec(
        t_ini=T_INI,
        n_horizon=N_HORIZON,
        q_weight=np.eye(plant.p),
        r_weight=0.1 * np.eye(plant.m),
        lambda1=l1,
        lambda2=l2,
        lambda_y=ly,
        u_box=(np.full(plant.m, -U_LIM), np.full(plant.m, U_LIM)),
    )


@pytest.fixture(scope="module")
def noisy_instances(plant):
    """Ten seeded noisy instances shared by the certification criteria."""
    out = []
    for trial in range(10):
        lib, online, x_true = bench.make_instance(
            plant, T=T, t_ini=T_INI, n_horizon=N_HORIZON,
            noise_var=0.01, u_lo=-U_LIM, u_hi=U_LIM,
            seed=MASTER_SEED + trial, x0_scale=2.0,
        )
        out.append((lib, online, x_true, va.preprocess_svd(lib), va.build_spc_library(lib)))
    return out


def deviation(a, b, with_sigma):
    d = max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.y_pred - b.y_pred)))
    if with_sigma:
        d = max(d, np.max(np.abs(a.sigma_y - b.sigma_y)))
    return d


def test_c01_fact1_equivalence(plant):
    started = time.perf_counter()
    cert = dict(tol=1e-11, max_iter=200, accept_tol=1e-9)
    worst = 0.0
    for trial in range(2):
        lib, online, x_true = bench.make_instance(
            plant, T=T, t_ini=T_INI, n_horizon=N_HORIZON,
            noise_var=0.0, u_lo=-U_LIM, u_hi=U_LIM,
            seed=MASTER_SEED + trial, x0_scale=2.0,
        )
        spec = make_spec(plant, 0.0, 0.0, 1e14)
        sols = {
            "gt": va.solve_ground_truth(plant, x_true, spec, **cert),
            "basic": va.solve_basic_deepc(lib, online, spec, **cert),
            "hybrid": va.solve_hybrid(lib, online, spec, **cert),
            "svd": va.solve_svd(va.preprocess_svd(lib), online, spec, **cert),
            "ddspc": va.solve_dd_spc(va.build_spc_library(lib), online, spec, **cert),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sols["svd-iter"] = va.solve_svd_iter(
                va.preprocess_svd_iter(lib, plant.n), online, spec, **cert
            )
        for sol in sols.values():
            if sol.sigma_y.size:
                assert np.max(np.abs(sol.sigma_y)) <= 1e-6
        for a, b in itertools.combinations(sols.values(), 2):
            worst = max(worst, deviation(a, b, with_sigma=False))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-6, f"max (u, y) deviation {worst:.2e} exceeds 1e-6"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30 s"
    report(1, f"noise-free equivalence, max deviation {worst:.2e} in {elapsed:.1f}s")


def test_c02_theorem2_certification(plant, noisy_instances):
    started = time.perf_counter()
    opts = dict(tol=1e-10, max_iter=200, accept_tol=1e-8)
    worst = 0.0
    for lib, online, _x, pre_svd, _spc in noisy_instances:
        spec = make_spec(plant, 0.0, 30.0, 100.0)
        sol_h = va.solve_hybrid(lib, online, spec, **opts)
        sol_s = va.solve_svd(pre_svd, online, spec, **opts)
        worst = max(worst, deviation(sol_h, sol_s, with_sigma=True))
        assert worst <= 1e-5, f"deviation {worst:.2e} exceeds 1e-5"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60 s"
    report(2, f"hybrid/svd agree to {worst:.2e} on 10 noisy instances in {elapsed:.1f}s")


def test_c03_theorem3_certification(plant, noisy_instances):
    opts = dict(tol=1e-11, max_iter=200, accept_tol=1e-7)
    worst = 0.0
    for lib, online, _x, pre_svd, pre_spc in noisy_instances:
        spec_dd = make_spec(plant, 0.0, 0.0, 100.0)
        sol_d = va.solve_dd_spc(pre_spc, online, spec_dd, **opts)
        spec3 = make_spec(plant, 0.0, 0.0, 100.0)
        spec3 = replace(spec3, lambda2=1e4 * bench.instance_scale(lib, online, spec3))
        sol_h = va.solve_hybrid(lib, online, spec3, **opts)
        sol_s = va.solve_svd(pre_svd, online, spec3, **opts)
        for a, b in itertools.combinations((sol_h, sol_s, sol_d), 2):
            worst = max(worst, deviation(a, b, with_sigma=True))
    assert worst <= 1e-4, f"pairwise deviation {worst:.2e} exceeds 1e-4"
    report(3, f"hybrid/svd/ddspc agree to {worst:.2e} under the large ridge")


def test_c04_theorem1_certification(plant, noisy_instances):
    opts = dict(tol=1e-11, max_iter=200, accept_tol=1e-9)
    worst = 0.0
    for lib, online, _x, _svd, pre_spc in noisy_instances:
        h1 = va.stack_past_inputs(lib)
        assert numeric_rank(h1) == h1.shape[0], "H1 must have full row rank"
        spec = make_spec(plant, 0.0, 0.0, 100.0)
        sol_d = va.solve_dd_spc(pre_spc, online, spec, **opts)
        sol_c = va.solve_classical_spc(lib, online, spec, **opts)
        worst = max(worst, deviation(sol_d, sol_c, with_sigma=True))
    assert worst <= 1e-6, f"deviation {worst:.2e} exceeds 1e-6"
    report(4, f"ddspc matches the least-squares predictor to {worst:.2e}")


def test_c05_projector_containment_conditions(plant, small_plant):
    worst_contain = 0.0
    worst_reduced = 0.0
    cases = [(plant, T, T_INI, N_HORIZON, U_LIM)] * 5 + [(small_plant, 60, 2, 8, 1.0)] * 5
    for idx, (pl, t_len, t_ini, n_hor, lim) in enumerate(cases):
        lib, _, _ = bench.make_instance(
            pl, T=t_len, t_ini=t_ini, n_horizon=n_hor,
            noise_var=0.01, u_lo=-lim, u_hi=lim, seed=900 + idx,
        )
        h = va.stack_library(lib)
        g_mat = np.eye(h.shape[1]) - rowspace_projector(va.stack_past_inputs(lib))
        m_mat = h @ g_mat.T @ g_mat
        resid = np.abs(m_mat - m_mat @ rowspace_projector(h)).max() / max(
            1.0, np.abs(h).max()
        )
        worst_contain = max(worst_contain, resid)
        dec = compact_svd(h)
        pre = va.preprocess_svd(lib)
        g_bar = np.eye(pre.n_cols) - rowspace_projector(va.stack_past_inputs(pre))
        diff = np.abs(dec.v.T @ g_mat.T @ g_mat @ dec.v - g_bar.T @ g_bar).max()
        worst_reduced = max(worst_reduced, diff)
    assert worst_contain <= 1e-8
    assert worst_reduced <= 1e-8
    report(5, f"projector conditions hold to {max(worst_contain, worst_reduced):.2e} on 10 libraries")


def test_c06_pseudoinverse_property_suite():
    rng = np.random.default_rng(606)
    worst = 0.0
    for case in range(100):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        rank = None if case % 3 == 0 else int(rng.integers(1, min(rows, cols) + 1))
        a = random_matrix(rng, rows, cols, rank=rank)
        a_pinv = pinv(a)
        scale = max(1.0, np.abs(a).max())
        residuals = (
            np.abs(a @ a_pinv @ a - a).max() / scale,
            np.abs(a_pinv @ a @ a_pinv - a_pinv).max() / scale,
            np.abs((a @ a_pinv).T - a @ a_pinv).max(),
            np.abs((a_pinv @ a).T - a_pinv @ a).max(),
        )
        worst = max(worst, *residuals)
    assert worst <= 1e-8
    report(6, f"four pseudoinverse identities hold to {worst:.2e} over 100 matrices")


def test_c07_slra_fixed_point_and_denoising(plant):
    box = (np.full(2, -U_LIM), np.full(2, U_LIM))
    depth = T_INI + N_HORIZON
    # fixed point on exact data
    clean = collect_trajectory(plant, T, box, NoiseSpec(0.0, 707))
    h_u = build_block_hankel(clean.u_d, depth)
    h_y = build_block_hankel(clean.y_d, depth)
    rep = slra.iterative_slra(h_y, h_u, plant.n, eps=1e-6, block_size=plant.p)
    assert rep.converged and rep.iterations <= 2
    rel = np.linalg.norm(rep.h_y_star - h_y) / np.linalg.norm(h_y)
    assert rel <= 1e-10
    # denoising on 20 seeded noisy records
    improved = 0
    for seed in range(20):
        noisy = collect_trajectory(plant, T, box, NoiseSpec(0.01, 7000 + seed))
        ref = collect_trajectory(plant, T, box, NoiseSpec(0.0, 7000 + seed))
        h_u = build_block_hankel(noisy.u_d, depth)
        h_y_n = build_block_hankel(noisy.y_d, depth)
        h_y_c = build_block_hankel(ref.y_d, depth)
        rep = slra.iterative_slra(h_y_n, h_u, plant.n, eps=1e-6, max_iter=200,
                                  block_size=plant.p)
        if np.linalg.norm(rep.h_y_star - h_y_c) < np.linalg.norm(h_y_n - h_y_c):
            improved += 1
    assert improved >= 18, f"denoising improved only {improved}/20 instances"
    report(7, f"fixed point exact; denoising improved {improved}/20 noisy records")


def test_c08_benchmark_cost_ordering(tmp_path):
    started = time.perf_counter()
    cfg = bench.ExperimentConfig(
        trials=100,
        seed=MASTER_SEED,
        noise_var=0.01,
        lambda1=30.0,
        lambda2=30.0,
        lambda_y=100.0,
        out_dir=str(tmp_path / "bench"),
    )
    _, rows = bench.cmd_benchmark(cfg)
    elapsed = time.perf_counter() - started
    by_name = {r.variant: r for r in rows}
    means = {k: by_name[k].mean_cost for k in by_name}
    assert all(by_name[k].failures == 0 for k in by_name)
    order = ("hybrid", "svd", "ddspc", "svd-iter", "ground-truth")
    chain = " > ".join(f"{k}={means[k]:.2f}" for k in order)
    for a, b in zip(order, order[1:]):
        assert means[a] > means[b], f"ordering violated: {chain}"
    rate = by_name["svd-iter"].increase_rate_pct
    assert rate < 15.0, f"svd-iter increase rate {rate:.1f}% exceeds 15%"
    assert elapsed < 1200.0, f"runtime {elapsed:.0f}s exceeds 20 min"
    report(8, f"{chain}; svd-iter rate {rate:.1f}% in {elapsed:.0f}s")


def test_c09_qp_active_set_oracle():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(50):
        n_vars = int(rng.integers(2, 7))
        prob = random_box_qp(rng, n_vars)
        sol = qp.solve(prob, tol=1e-10)
        assert sol.status is qp.QpStatus.OPTIMAL
        x_ref = active_set_enumeration(prob)
        worst = max(worst, float(np.abs(sol.z - x_ref).max()))
    assert worst <= 1e-6
    report(9, f"50 box QPs match active-set enumeration to {worst:.2e}")


def test_c10_nonlinearity_sweep(tmp_path):
    started = time.perf_counter()
    cfg = bench.ExperimentConfig(
        trials=20,
        seed=MASTER_SEED,
        noise_var=0.0,
        out_dir=str(tmp_path / "nl"),
        variants=("hybrid", "svd", "ddspc", "svd-iter"),
    )
    path = bench.cmd_nonlinearity(cfg, [0.0])
    elapsed = time.perf_counter() - started
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    means = {r[1]: float(r[2]) for r in rows}
    assert means["svd-iter"] < means["hybrid"], (
        f"svd-iter {means['svd-iter']:.2f} not below hybrid {means['hybrid']:.2f}"
    )
    assert elapsed < 900.0, f"runtime {elapsed:.0f}s exceeds 15 min"
    report(
        10,
        f"fully nonlinear regime: svd-iter {means['svd-iter']:.2f} < "
        f"hybrid {means['hybrid']:.2f} in {elapsed:.0f}s",
    )
