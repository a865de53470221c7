import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

from deepckit import matlib
from deepckit.hankel import build_block_hankel
from deepckit.plants import LinearPlant, NoiseSpec, collect_trajectory

from conftest import random_matrix


def penrose_residuals(a, a_pinv):
    """Max-abs residuals of the four defining pseudoinverse identities."""
    return (
        np.abs(a @ a_pinv @ a - a).max(),
        np.abs(a_pinv @ a @ a_pinv - a_pinv).max(),
        np.abs((a @ a_pinv).T - a @ a_pinv).max(),
        np.abs((a_pinv @ a).T - a_pinv @ a).max(),
    )


class TestCompactSvd:
    def test_identity(self):
        dec = matlib.compact_svd(np.eye(2), 1e-12)
        assert dec.rank == 2
        np.testing.assert_allclose(dec.sigma, [1.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.w), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(dec.reconstruct(), np.eye(2), atol=1e-14)

    def test_one_zero_singular_value(self):
        dec = matlib.compact_svd(np.diag([3.0, 0.0]), 1e-12)
        assert dec.rank == 1
        np.testing.assert_allclose(dec.sigma, [3.0])
        np.testing.assert_allclose(dec.w.ravel(), [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(dec.v.ravel(), [1.0, 0.0], atol=1e-14)

    def test_reconstruction_3x2(self):
        a = np.arange(1.0, 7.0).reshape(3, 2)
        dec = matlib.compact_svd(a)
        rel = np.abs(dec.reconstruct() - a).max() / np.abs(a).max()
        assert rel < 1e-10

    def test_zero_matrix_rank_zero(self):
        dec = matlib.compact_svd(np.zeros((3, 4)))
        assert dec.rank == 0
        assert dec.w.shape == (3, 0)
        assert dec.v.shape == (4, 0)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(0)
        a = random_matrix(rng, 7, 5, rank=3)
        dec = matlib.compact_svd(a)
        assert dec.rank == 3
        np.testing.assert_allclose(dec.w.T @ dec.w, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(dec.v.T @ dec.v, np.eye(3), atol=1e-10)
        assert np.all(np.diff(dec.sigma) <= 0)
        assert np.all(dec.sigma > 0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 4))
        dec1 = matlib.compact_svd(a)
        dec2 = matlib.compact_svd(a.copy())
        np.testing.assert_array_equal(dec1.v, dec2.v)
        for j in range(dec1.rank):
            first = dec1.v[np.flatnonzero(dec1.v[:, j])[0], j]
            assert first >= 0

    def test_sign_flip_matches_column_loop(self):
        # reference: the per-column loop the vectorized flip replaced
        rng = np.random.default_rng(3)
        v = rng.standard_normal((6, 5))
        v[:2, 1] = 0.0  # first nonzero further down
        v[:4, 2] = 0.0
        v[4, 2] = -abs(v[4, 2])
        v[:, 3] = 0.0  # all-zero column must not flip
        w = rng.standard_normal((4, 5))
        w_ref, v_ref = w.copy(), v.copy()
        for j in range(v_ref.shape[1]):
            nz = np.flatnonzero(v_ref[:, j])
            if nz.size and v_ref[nz[0], j] < 0.0:
                v_ref[:, j] *= -1.0
                w_ref[:, j] *= -1.0
        matlib._fix_signs(w, v)
        np.testing.assert_array_equal(v, v_ref)
        np.testing.assert_array_equal(w, w_ref)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matlib.compact_svd([[1.0, np.nan]])
        with pytest.raises(ValueError):
            matlib.compact_svd([[np.inf, 1.0]])

    def test_rejects_bad_rank_tol(self):
        with pytest.raises(ValueError):
            matlib.compact_svd(np.eye(2), 0.0)


    @pytest.mark.parametrize("shape, rank", [((7, 5), 3), ((4, 9), 4), ((9, 4), 4)])
    def test_complements_complete_both_bases(self, shape, rank):
        # one full SVD gives the compact factors and both null-space bases
        rng = np.random.default_rng(rank)
        a = random_matrix(rng, *shape, rank=rank)
        compact = matlib.compact_svd(a)
        dec = matlib.compact_svd(a, complements=True)
        assert compact.w_perp is None and compact.v_perp is None
        assert dec.rank == rank
        assert dec.w_perp.shape == (shape[0], shape[0] - rank)
        assert dec.v_perp.shape == (shape[1], shape[1] - rank)
        for basis, full in ((dec.w, dec.w_perp), (dec.v, dec.v_perp)):
            q = np.hstack([basis, full])
            np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
        np.testing.assert_allclose(dec.reconstruct(), a, atol=1e-12)
        for name in ("w", "sigma", "v"):
            np.testing.assert_allclose(getattr(dec, name), getattr(compact, name), atol=1e-12)


class TestPinv:
    def test_diagonal(self):
        np.testing.assert_allclose(
            matlib.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_column_vector(self):
        np.testing.assert_allclose(
            matlib.pinv(np.array([[1.0], [1.0]])), [[0.5, 0.5]], atol=1e-14
        )

    def test_penrose_random_4x6(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 6))
        for r in penrose_residuals(a, matlib.pinv(a)):
            assert r <= 1e-8

    @pytest.mark.parametrize("shape,rank", [
        ((8, 3), None), ((3, 8), None), ((5, 5), None),
        ((6, 6), 2), ((9, 4), 2), ((4, 9), 3),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_penrose_all_shape_classes(self, shape, rank, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, *shape, rank=rank)
        for r in penrose_residuals(a, matlib.pinv(a)):
            assert r <= 1e-8

    def test_full_column_rank_left_inverse(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 4))
        np.testing.assert_allclose(matlib.pinv(a) @ a, np.eye(4), atol=1e-8)

    def test_orthonormal_rows_composition(self):
        # pinv(A B) = pinv(B) pinv(A) when B has orthonormal rows
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((7, 4)))
        b = q.T  # 4x7 orthonormal rows
        a = rng.standard_normal((5, 4))
        lhs = matlib.pinv(a @ b)
        rhs = matlib.pinv(b) @ matlib.pinv(a)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_range_of_pinv_is_row_space(self):
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 6, 8, rank=4)
        api = matlib.pinv(a)
        proj = matlib.rowspace_projector(a)
        np.testing.assert_allclose(proj @ api, api, atol=1e-8)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(matlib.pinv(np.zeros((2, 3))), np.zeros((3, 2)))


class TestRowspaceProjector:
    def test_span_one_one(self):
        proj = matlib.rowspace_projector(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(proj, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_identity_rows(self):
        np.testing.assert_allclose(
            matlib.rowspace_projector(np.eye(3)), np.eye(3), atol=1e-14
        )

    def test_zero_matrix(self):
        np.testing.assert_array_equal(
            matlib.rowspace_projector(np.zeros((2, 3))), np.zeros((3, 3))
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, 5, 7, rank=3)
        proj = matlib.rowspace_projector(a)
        assert np.abs(proj - proj.T).max() <= 1e-8
        assert np.abs(proj @ proj - proj).max() <= 1e-8
        np.testing.assert_allclose(proj, matlib.pinv(a) @ a, atol=1e-8)


class TestRowspaceComplement:
    @pytest.mark.parametrize("shape, rank", [((5, 7), 3), ((4, 9), 4), ((7, 5), 5), ((2, 3), 0)])
    def test_orthonormal_complement_of_projector(self, shape, rank):
        rng = np.random.default_rng(rank)
        a = random_matrix(rng, *shape, rank=rank) if rank else np.zeros(shape)
        n = matlib.rowspace_complement(a)
        assert n.shape == (shape[1], shape[1] - rank)
        np.testing.assert_allclose(n.T @ n, np.eye(n.shape[1]), atol=1e-12)
        np.testing.assert_allclose(
            n @ n.T, np.eye(shape[1]) - matlib.rowspace_projector(a), atol=1e-12
        )


class TestNumericRank:
    def test_tiny_singular_value_filtered(self):
        assert matlib.numeric_rank(np.diag([1.0, 1e-14]), 1e-8) == 1

    def test_zero_matrix(self):
        assert matlib.numeric_rank(np.zeros((3, 3))) == 0

    def test_lti_hankel_rank(self):
        # depth-L stacked Hankel of noise-free LTI data has rank m*L + n
        plant = LinearPlant(
            a=[[0.9, 0.3], [-0.2, 0.7]], b=[[1.0], [0.5]], c=[[1.0, 1.0]], d=[[0.2]]
        )
        traj = collect_trajectory(
            plant, 80, (np.array([-1.0]), np.array([1.0])), NoiseSpec(0.0, 7)
        )
        depth = 6
        h = np.vstack(
            [build_block_hankel(traj.u_d, depth), build_block_hankel(traj.y_d, depth)]
        )
        assert matlib.numeric_rank(h, 1e-8) == 1 * depth + 2


class TestProjectRows:
    def test_identity_projector(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((3, 4))
        np.testing.assert_allclose(matlib.project_rows(b, np.eye(4)), b, atol=1e-12)

    def test_projection_onto_span(self):
        out = matlib.project_rows(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_residual_orthogonal_to_row_space(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, 4, 9, rank=3)
        b = rng.standard_normal((5, 9))
        resid = b - matlib.project_rows(b, a)
        assert np.abs(resid @ matlib.pinv(a) @ a).max() <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(10 + seed)
        a = random_matrix(rng, 4, 6, rank=2)
        b = rng.standard_normal((3, 6))
        once = matlib.project_rows(b, a)
        twice = matlib.project_rows(once, a)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matlib.project_rows(np.ones((2, 3)), np.ones((2, 4)))


class TestBlasThreads:
    def test_openblas_pinned_by_conftest(self):
        # conftest.py sets OPENBLAS_NUM_THREADS (default 1) before numpy loads
        # OpenBLAS; ask every loaded OpenBLAS how many threads it runs
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("needs /proc/self/maps to find the loaded BLAS")
        libs = {
            line.split()[-1]
            for line in maps.read_text(errors="replace").splitlines()
            if "openblas" in line.lower() and ".so" in line
        }
        if not libs:
            pytest.skip("numpy is not linked against OpenBLAS")
        threads = {}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    threads[Path(path).name] = fn()
                    break
        assert threads, f"no thread-count symbol in {sorted(libs)}"
        expected = int(os.environ["OPENBLAS_NUM_THREADS"])
        assert set(threads.values()) == {expected}, threads
