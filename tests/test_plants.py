import numpy as np
import pytest

from deepckit import plants
from deepckit.hankel import build_block_hankel, is_persistently_exciting
from deepckit.matlib import numeric_rank


class TestStepLinear:
    def test_identity_plant(self):
        plant = plants.LinearPlant(a=np.eye(2), b=np.eye(2), c=np.eye(2), d=np.zeros((2, 2)))
        x_next, y = plant.step([0.0, 0.0], [1.0, 0.0])
        np.testing.assert_array_equal(x_next, [1.0, 0.0])
        np.testing.assert_array_equal(y, [0.0, 0.0])

    def test_equilibrium(self, small_plant):
        x_next, y = small_plant.step([0.0, 0.0], [0.0])
        np.testing.assert_array_equal(x_next, [0.0, 0.0])
        np.testing.assert_array_equal(y, [0.0])

    def test_two_steps_equal_rollout(self, small_plant):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(2)
        u = rng.standard_normal((2, 1))
        x1, y0 = small_plant.step(x0, u[0])
        _, y1 = small_plant.step(x1, u[1])
        y_seq, _ = plants.rollout(small_plant, x0, u)
        np.testing.assert_allclose(y_seq, np.vstack([y0, y1]))

    def test_dimension_mismatch(self, small_plant):
        with pytest.raises(ValueError):
            small_plant.step([0.0, 0.0, 0.0], [0.0])


class TestSimulateLinear:
    def test_k1_reduces_to_step(self, small_plant):
        x0 = np.array([0.3, -0.2])
        _, y = small_plant.step(x0, [0.5])
        np.testing.assert_allclose(plants.rollout(small_plant, x0, [[0.5]])[0], [y])

    def test_zero_everything(self, small_plant):
        y, _ = plants.rollout(small_plant, np.zeros(2), np.zeros((5, 1)))
        np.testing.assert_array_equal(y, np.zeros((5, 1)))

    def test_superposition(self, small_plant):
        rng = np.random.default_rng(1)
        u1 = rng.standard_normal((6, 1))
        u2 = rng.standard_normal((6, 1))
        y1, _ = plants.rollout(small_plant, np.zeros(2), u1)
        y2, _ = plants.rollout(small_plant, np.zeros(2), u2)
        y12, _ = plants.rollout(small_plant, np.zeros(2), u1 + u2)
        np.testing.assert_allclose(y12, y1 + y2, atol=1e-12)


class TestTripleMassSpring:
    def test_dimensions(self):
        plant = plants.triple_mass_spring()
        assert (plant.n, plant.m, plant.p) == (8, 2, 3)

    def test_stable(self):
        plant = plants.triple_mass_spring()
        assert np.max(np.abs(np.linalg.eigvals(plant.a))) <= 1.0 + 1e-9

    def test_controllable_observable(self):
        plant = plants.triple_mass_spring()
        ctrb = np.hstack(
            [np.linalg.matrix_power(plant.a, k) @ plant.b for k in range(8)]
        )
        obsv = np.vstack(
            [plant.c @ np.linalg.matrix_power(plant.a, k) for k in range(8)]
        )
        assert numeric_rank(ctrb, 1e-9) == 8
        assert numeric_rank(obsv, 1e-9) == 8

    def test_random_excitation_persistently_exciting(self):
        plant = plants.triple_mass_spring()
        traj = plants.collect_trajectory(
            plant, 200, (np.full(2, -0.7), np.full(2, 0.7)), plants.NoiseSpec(0.0, 3)
        )
        assert is_persistently_exciting(traj.u_d, 44 + 8)

    def test_noise_free_hankel_rank(self):
        plant = plants.triple_mass_spring()
        traj = plants.collect_trajectory(
            plant, 200, (np.full(2, -0.7), np.full(2, 0.7)), plants.NoiseSpec(0.0, 4)
        )
        depth = 44
        h = np.vstack(
            [build_block_hankel(traj.u_d, depth), build_block_hankel(traj.y_d, depth)]
        )
        assert numeric_rank(h, 1e-8) == 2 * depth + 8


class TestLotkaVolterra:
    def test_equilibrium_any_eps(self):
        for eps in (0.0, 0.3, 1.0):
            plant = plants.NonlinearPlant(eps=eps)
            np.testing.assert_allclose(plants.lv_step(plant, [0.0, 0.0], 0.0), [0.0, 0.0])

    def test_linear_branch_value(self):
        plant = plants.NonlinearPlant(eps=1.0)
        np.testing.assert_allclose(
            plants.lv_step(plant, [1.0, 0.0], 0.0), [1.0, 0.01], atol=1e-15
        )

    def test_equilibrium_constants(self):
        plant = plants.NonlinearPlant(eps=0.5)
        np.testing.assert_allclose(plant.x_bar, [100.0, 20.0])

    def test_eps1_is_linear(self):
        plant = plants.NonlinearPlant(eps=1.0)
        rng = np.random.default_rng(2)
        xa, xb = rng.standard_normal(2), rng.standard_normal(2)
        ua, ub = rng.standard_normal(), rng.standard_normal()
        lhs = plants.lv_step(plant, xa + xb, ua + ub)
        rhs = plants.lv_step(plant, xa, ua) + plants.lv_step(plant, xb, ub)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_linearized_plant_matches_eps1(self):
        plant = plants.NonlinearPlant(eps=1.0)
        lin = plants.lv_linearized_plant(plant)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2)
        u = rng.standard_normal()
        x_next, y = lin.step(x, [u])
        np.testing.assert_allclose(x_next, plants.lv_step(plant, x, u), atol=1e-14)
        np.testing.assert_allclose(y, x, atol=1e-14)

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            plants.NonlinearPlant(eps=1.5)


class TestCollectTrajectory:
    def test_zero_variance_matches_rollout(self, small_plant):
        traj = plants.collect_trajectory(
            small_plant, 30, (np.array([-1.0]), np.array([1.0])), plants.NoiseSpec(0.0, 9)
        )
        y_clean, _ = plants.rollout(small_plant, np.zeros(2), traj.u_d)
        np.testing.assert_array_equal(traj.y_d, y_clean)

    @pytest.mark.parametrize("variance", [-0.01, np.nan, np.inf])
    def test_bad_noise_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="variance must be finite and nonnegative"):
            plants.NoiseSpec(variance, 0)

    def test_seed_determinism(self, small_plant):
        spec = plants.NoiseSpec(0.01, 42)
        t1 = plants.collect_trajectory(small_plant, 50, ([-1.0], [1.0]), spec)
        t2 = plants.collect_trajectory(small_plant, 50, ([-1.0], [1.0]), spec)
        np.testing.assert_array_equal(t1.u_d, t2.u_d)
        np.testing.assert_array_equal(t1.y_d, t2.y_d)

    def test_same_inputs_regardless_of_variance(self, small_plant):
        t0 = plants.collect_trajectory(small_plant, 50, ([-1.0], [1.0]), plants.NoiseSpec(0.0, 5))
        t1 = plants.collect_trajectory(small_plant, 50, ([-1.0], [1.0]), plants.NoiseSpec(0.01, 5))
        np.testing.assert_array_equal(t0.u_d, t1.u_d)

    def test_noise_variance_statistic(self):
        plant = plants.triple_mass_spring()
        box = (np.full(2, -0.7), np.full(2, 0.7))
        noisy = plants.collect_trajectory(plant, 200, box, plants.NoiseSpec(0.01, 77))
        clean = plants.collect_trajectory(plant, 200, box, plants.NoiseSpec(0.0, 77))
        resid = noisy.y_d - clean.y_d
        var = resid.var()
        assert 0.007 <= var <= 0.013  # within 30% of 0.01

    def test_inputs_respect_box(self, small_plant):
        traj = plants.collect_trajectory(
            small_plant, 40, (np.array([0.2]), np.array([0.5])), plants.NoiseSpec(0.0, 6)
        )
        assert traj.u_d.min() >= 0.2 and traj.u_d.max() <= 0.5

    def test_nonlinear_plant_outputs_are_states(self):
        plant = plants.NonlinearPlant(eps=0.5)
        traj = plants.collect_trajectory(
            plant, 25, (np.array([-20.0]), np.array([20.0])), plants.NoiseSpec(0.0, 8)
        )
        x = np.zeros(2)
        for k in range(25):
            np.testing.assert_allclose(traj.y_d[k], x, atol=1e-12)
            x = plants.lv_step(plant, x, traj.u_d[k, 0])


class TestRandomHelpers:
    def test_box_muller_moments(self):
        rng = plants.seeded_generator(123)
        z = plants.standard_normal(rng, 20000)
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 1.0) < 0.05

    def test_generator_repeatability(self):
        a = plants.standard_normal(plants.seeded_generator(9), (3, 4))
        b = plants.standard_normal(plants.seeded_generator(9), (3, 4))
        np.testing.assert_array_equal(a, b)


class TestPlantCsv:
    def test_export_files(self, tmp_path, small_plant):
        paths = plants.save_plant_csv(small_plant, tmp_path)
        assert len(paths) == 4
        a_back = np.loadtxt(tmp_path / "plant_A.csv", delimiter=",")
        np.testing.assert_array_equal(a_back, small_plant.a)
