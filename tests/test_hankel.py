import numpy as np
import pytest

from deepckit import hankel
from deepckit.matlib import numeric_rank, rowspace_projector
from deepckit.plants import NoiseSpec, collect_trajectory, rollout


class TestBuildBlockHankel:
    def test_scalar_depth2(self):
        h = hankel.build_block_hankel([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_array_equal(h, [[1, 2, 3], [2, 3, 4]])

    def test_scalar_depth3(self):
        h = hankel.build_block_hankel([1.0, 2.0, 3.0, 4.0, 5.0], 3)
        np.testing.assert_array_equal(h, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_two_channel_index_arithmetic(self):
        rng = np.random.default_rng(0)
        sig = rng.standard_normal((4, 2))
        h = hankel.build_block_hankel(sig, 2)
        assert h.shape == (4, 3)
        for i in range(2):
            for j in range(3):
                for c in range(2):
                    assert h[i * 2 + c, j] == sig[i + j, c]

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            hankel.build_block_hankel([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            hankel.build_block_hankel([1.0, 2.0, 3.0], 0)


class TestPersistentExcitation:
    def test_constant_signal(self):
        assert not hankel.is_persistently_exciting([1.0] * 5, 2)

    def test_geometric_signal(self):
        assert not hankel.is_persistently_exciting([1.0, 2.0, 4.0, 8.0], 2)

    def test_random_two_channel_order_44(self):
        rng = np.random.default_rng(1)
        sig = rng.uniform(-1, 1, size=(200, 2))
        assert hankel.is_persistently_exciting(sig, 44)


class TestPartition:
    def test_dimensions_at_benchmark_scale(self):
        rng = np.random.default_rng(2)
        traj = hankel.Trajectory(
            u_d=rng.standard_normal((200, 2)), y_d=rng.standard_normal((200, 3))
        )
        part = hankel.partition(traj, 4, 40)
        assert part.n_cols == 157
        stacked = np.vstack([part.up, part.yp, part.uf, part.yf])
        assert stacked.shape == (220, 157)
        assert part.up.shape == (8, 157)
        assert part.yp.shape == (12, 157)
        assert part.uf.shape == (80, 157)
        assert part.yf.shape == (120, 157)

    def test_scalar_depth2_rows(self):
        vals = np.arange(1.0, 7.0)
        traj = hankel.Trajectory(u_d=vals, y_d=vals)
        part = hankel.partition(traj, 1, 1)
        h = hankel.build_block_hankel(vals, 2)
        np.testing.assert_array_equal(part.up, h[:1])
        np.testing.assert_array_equal(part.yf, h[1:])

    def test_restacking_reproduces_hankels(self):
        rng = np.random.default_rng(3)
        traj = hankel.Trajectory(
            u_d=rng.standard_normal((30, 2)), y_d=rng.standard_normal((30, 1))
        )
        part = hankel.partition(traj, 3, 5)
        np.testing.assert_array_equal(
            np.vstack([part.up, part.uf]), hankel.build_block_hankel(traj.u_d, 8)
        )
        np.testing.assert_array_equal(
            np.vstack([part.yp, part.yf]), hankel.build_block_hankel(traj.y_d, 8)
        )

    def test_horizon_too_long(self):
        traj = hankel.Trajectory(u_d=np.zeros((5, 1)), y_d=np.zeros((5, 1)))
        with pytest.raises(ValueError):
            hankel.partition(traj, 3, 2)


class TestHankelProject:
    def test_anti_diagonal_average(self):
        out = hankel.hankel_project(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
        np.testing.assert_allclose(out, [[1.0, 2.5], [2.5, 4.0]])

    def test_fixed_point(self):
        h = hankel.build_block_hankel(np.arange(12.0).reshape(6, 2), 3)
        np.testing.assert_allclose(hankel.hankel_project(h, 2), h, atol=1e-14)

    def test_frobenius_nearest(self):
        # compare against the explicit least-squares fit of anti-diagonal values
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((3, 3))
        design = np.zeros((9, 5))
        for i in range(3):
            for j in range(3):
                design[i * 3 + j, i + j] = 1.0
        vals, *_ = np.linalg.lstsq(design, mat.ravel(), rcond=None)
        expected = (design @ vals).reshape(3, 3)
        np.testing.assert_allclose(hankel.hankel_project(mat, 1), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_idempotent_and_linear(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((6, 5))
        pa = hankel.hankel_project(a, 2)
        np.testing.assert_allclose(hankel.hankel_project(pa, 2), pa, atol=1e-12)
        np.testing.assert_allclose(
            hankel.hankel_project(2.0 * a + b, 2),
            2.0 * pa + hankel.hankel_project(b, 2),
            atol=1e-12,
        )

    def test_never_increases_distance_to_hankel_matrices(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 6))
        target = hankel.build_block_hankel(rng.standard_normal((9, 1)), 4)
        proj = hankel.hankel_project(a, 1)
        assert np.linalg.norm(proj - target) <= np.linalg.norm(a - target) + 1e-12

    def test_indivisible_rows_rejected(self):
        with pytest.raises(ValueError):
            hankel.hankel_project(np.zeros((5, 4)), 2)

    @pytest.mark.parametrize("rows,n_cols,block_size",
                             [(1, 1, 1), (4, 6, 1), (6, 5, 2), (6, 5, 3), (132, 157, 3)])
    def test_bitwise_equal_to_bincount_formula(self, rows, n_cols, block_size):
        rng = np.random.default_rng(rows + n_cols)
        for _ in range(2):  # the second call reads the cached index
            mat = rng.standard_normal((rows, n_cols))
            idx = (np.arange(rows)[:, None] + block_size * np.arange(n_cols)).ravel()
            means = np.bincount(idx, weights=mat.ravel()) / np.bincount(idx)
            expected = means[np.arange(rows)[:, None] + block_size * np.arange(n_cols)]
            np.testing.assert_array_equal(hankel.hankel_project(mat, block_size), expected)

    def test_cached_index_is_read_only(self):
        hankel.hankel_project(np.ones((6, 5)), 2)
        for arr in hankel._anti_diagonals(6, 5, 2):
            with pytest.raises(ValueError):
                arr[0] = 7


class TestFundamentalLemmaConsistency:
    def test_columns_and_fresh_trajectories_in_column_space(self, small_plant):
        traj = collect_trajectory(
            small_plant, 60, (np.array([-1.0]), np.array([1.0])), NoiseSpec(0.0, 11)
        )
        depth = 10
        h = np.vstack(
            [
                hankel.build_block_hankel(traj.u_d, depth),
                hankel.build_block_hankel(traj.y_d, depth),
            ]
        )
        assert numeric_rank(h, 1e-8) == small_plant.m * depth + small_plant.n
        # every column reproduces itself with a canonical basis vector
        g = np.zeros(h.shape[1])
        g[3] = 1.0
        np.testing.assert_allclose(h @ g, h[:, 3])
        # a fresh trajectory of the same plant lies in the column space
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal(2)
        u_new = rng.uniform(-1, 1, size=(depth, 1))
        y_new, _ = rollout(small_plant, x0, u_new)
        w = np.concatenate([u_new.ravel(), y_new.ravel()])
        coeffs, *_ = np.linalg.lstsq(h, w, rcond=None)
        assert np.abs(h @ coeffs - w).max() <= 1e-8


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        traj = hankel.Trajectory(
            u_d=rng.standard_normal((7, 2)), y_d=rng.standard_normal((7, 3))
        )
        path = tmp_path / "traj.csv"
        hankel.save_trajectory_csv(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,u1,u2,y1,y2,y3"
        back = hankel.load_trajectory_csv(path)
        np.testing.assert_array_equal(back.u_d, traj.u_d)
        np.testing.assert_array_equal(back.y_d, traj.y_d)

    @pytest.mark.parametrize("text, match", [
        ("t,u1,y1\n", "no data rows"),
        ("t,y1,u1\n0,1.0,2.0\n", "unexpected trajectory CSV header"),
        ("t,u2,y1\n0,1.0,2.0\n", "unexpected trajectory CSV header"),
        ("t,u1,u2\n0,1.0,2.0\n", "unexpected trajectory CSV header"),
        ("time,u1,y1\n0,1.0,2.0\n", "unexpected trajectory CSV header"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            hankel.load_trajectory_csv(path)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            hankel.Trajectory(u_d=np.zeros((4, 1)), y_d=np.zeros((5, 1)))
