"""Trajectory libraries from one excitation record.

Collects a single input/output record from the triple-mass-spring benchmark,
builds its block-Hankel library, and checks the facts that make the library a
valid predictor: persistent excitation of the input, the m*L + n rank of the
stacked library, and the containment of fresh trajectories in its column
space.

Run:  python3 demos/01_trajectory_libraries.py
"""

import numpy as np

from deepckit.hankel import build_block_hankel, is_persistently_exciting, partition
from deepckit.matlib import numeric_rank
from deepckit.plants import NoiseSpec, collect_trajectory, rollout, triple_mass_spring

T, T_INI, HORIZON = 200, 4, 40

plant = triple_mass_spring()
print(f"benchmark plant: n={plant.n} states, m={plant.m} inputs, p={plant.p} outputs")
print(f"spectral radius: {np.max(np.abs(np.linalg.eigvals(plant.a))):.4f}")

box = (np.full(plant.m, -0.7), np.full(plant.m, 0.7))
traj = collect_trajectory(plant, T, box, NoiseSpec(variance=0.0, seed=2024))
print(f"\ncollected T={traj.T} samples with uniform box excitation, no noise")

depth = T_INI + HORIZON
order = depth + plant.n
print(f"input persistently exciting of order {order}:",
      is_persistently_exciting(traj.u_d, order))

lib = partition(traj, T_INI, HORIZON)
stacked = np.vstack([lib.up, lib.yp, lib.uf, lib.yf])
print(f"\nlibrary column count: {lib.n_cols} (= T - L + 1 with L = {depth})")
print(f"stacked library shape: {stacked.shape}")
rank = numeric_rank(stacked, 1e-8)
print(f"numeric rank: {rank}  (m*L + n = {plant.m * depth + plant.n})")

# a fresh trajectory of the same plant is a combination of library columns
rng = np.random.default_rng(7)
x0 = rng.standard_normal(plant.n)
u_new = rng.uniform(-0.7, 0.7, size=(depth, plant.m))
y_new, _ = rollout(plant, x0, u_new)
h_u = build_block_hankel(traj.u_d, depth)
h_y = build_block_hankel(traj.y_d, depth)
h = np.vstack([h_u, h_y])
window = np.concatenate([u_new.ravel(), y_new.ravel()])
coeffs, *_ = np.linalg.lstsq(h, window, rcond=None)
resid = np.abs(h @ coeffs - window).max()
print(f"\nfresh 44-step trajectory reproduced by the library, residual {resid:.2e}")

# noise raises the rank: every direction becomes populated
noisy = collect_trajectory(plant, T, box, NoiseSpec(variance=0.01, seed=2024))
lib_n = partition(noisy, T_INI, HORIZON)
stacked_n = np.vstack([lib_n.up, lib_n.yp, lib_n.uf, lib_n.yf])
print(f"with measurement noise 0.01 the rank becomes {numeric_rank(stacked_n, 1e-8)}"
      f" of {min(stacked_n.shape)} possible")
