"""Numerical certification of the cross-variant agreement regimes.

Four regimes on one desk-scale plant:

  1. noise-free data, both regularizers off, slack suppressed: every library
     variant matches the model-based controller;
  2. any positive row-space ridge: the raw-library and reduced-library
     controllers return the same (u, y, sigma_y);
  3. a sufficiently large ridge: both collapse onto the projected-library
     controller;
  4. the projected-library controller matches the classical least-squares
     subspace predictor whenever the past-block matrix has full row rank.

Run:  python3 demos/02_controller_equivalences.py
"""

import itertools
import warnings

import numpy as np

from deepckit import bench
from deepckit import variants as va
from deepckit.matlib import numeric_rank
from deepckit.plants import LinearPlant

plant = LinearPlant(
    a=[[0.9, 0.2], [-0.15, 0.8]], b=[[0.4], [1.0]], c=[[1.0, 0.0]], d=[[0.0]]
)
T, T_INI, HORIZON = 60, 2, 8


def spec_of(l1, l2, ly):
    return va.ControlSpec(
        t_ini=T_INI, n_horizon=HORIZON,
        q_weight=np.eye(1), r_weight=0.1 * np.eye(1),
        lambda1=l1, lambda2=l2, lambda_y=ly,
        u_box=(np.array([-1.0]), np.array([1.0])),
    )


def deviation(a, b, with_sigma=False):
    d = max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.y_pred - b.y_pred)))
    if with_sigma:
        d = max(d, np.max(np.abs(a.sigma_y - b.sigma_y)))
    return d


print("regime 1: noise-free equivalence of every variant with the model-based optimum")
lib, online, x_true = bench.make_instance(
    plant, T=T, t_ini=T_INI, n_horizon=HORIZON,
    noise_var=0.0, u_lo=-1.0, u_hi=1.0, seed=1,
)
spec = spec_of(0.0, 0.0, 1e14)
sols = {
    "model-based": va.solve_ground_truth(plant, x_true, spec),
    "raw library": va.solve_basic_deepc(lib, online, spec),
    "regularized": va.solve_hybrid(lib, online, spec),
    "svd-reduced": va.solve_svd(va.preprocess_svd(lib), online, spec),
    "projected": va.solve_dd_spc(va.build_spc_library(lib), online, spec),
}
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    sols["denoised"] = va.solve_svd_iter(va.preprocess_svd_iter(lib, plant.n), online, spec)
worst = max(deviation(a, b) for a, b in itertools.combinations(sols.values(), 2))
print(f"  max (u, y) deviation across {len(sols)} solvers: {worst:.2e}\n")

print("regime 2/3/4: noisy data")
lib, online, x_true = bench.make_instance(
    plant, T=T, t_ini=T_INI, n_horizon=HORIZON,
    noise_var=0.01, u_lo=-1.0, u_hi=1.0, seed=1,
)
pre_svd = va.preprocess_svd(lib)
pre_spc = va.build_spc_library(lib)

s2 = spec_of(0.0, 30.0, 100.0)
d2 = deviation(
    va.solve_hybrid(lib, online, s2), va.solve_svd(pre_svd, online, s2), with_sigma=True
)
print(f"  ridge 30: raw vs reduced deviation {d2:.2e}")

s_dd = spec_of(0.0, 0.0, 100.0)
dd = va.solve_dd_spc(pre_spc, online, s_dd)
s3 = spec_of(0.0, 1e4 * bench.instance_scale(lib, online, s_dd), 100.0)
h3 = va.solve_hybrid(lib, online, s3, tol=1e-11, max_iter=200, accept_tol=1e-7)
print(f"  large ridge {s3.lambda2:.2g}: raw vs projected deviation "
      f"{deviation(h3, dd, with_sigma=True):.2e}")

h1 = va.stack_past_inputs(lib)
print(f"  past-block matrix full row rank: {numeric_rank(h1) == h1.shape[0]}")
sp = va.solve_classical_spc(lib, online, s_dd)
print(f"  projected vs least-squares predictor deviation "
      f"{deviation(dd, sp, with_sigma=True):.2e}")
