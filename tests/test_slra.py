import numpy as np
import pytest
import scipy.linalg

from deepckit import slra
from deepckit.hankel import build_block_hankel, hankel_project
from deepckit.matlib import compact_svd, numeric_rank, rowspace_projector
from deepckit.plants import NoiseSpec, collect_trajectory, triple_mass_spring


def noisy_pair(seed, variance=0.01, T=200, t_ini=4, n_horizon=40):
    """(H_u, H_y noisy, H_y clean) for one seeded mass-spring record."""
    plant = triple_mass_spring()
    box = (np.full(2, -0.7), np.full(2, 0.7))
    depth = t_ini + n_horizon
    noisy = collect_trajectory(plant, T, box, NoiseSpec(variance, seed))
    clean = collect_trajectory(plant, T, box, NoiseSpec(0.0, seed))
    h_u = build_block_hankel(noisy.u_d, depth)
    return h_u, build_block_hankel(noisy.y_d, depth), build_block_hankel(clean.y_d, depth)


def reference_slra(h_y, h_u, n_order, eps, max_iter, block_size):
    """The loop in projector coordinates: full compact SVD of the null-space part per pass."""
    pi2 = rowspace_projector(h_u)
    h1 = h_y.copy()
    rel_changes = []
    for _ in range(max_iter):
        null_part = h1 - h1 @ pi2
        dec = compact_svd(null_part) if np.any(null_part) else None
        h2 = h1 @ pi2
        if dec is not None and dec.rank:
            k = min(n_order, dec.rank)
            h2 = h2 + (dec.w[:, :k] * dec.sigma[:k]) @ dec.v[:, :k].T
        h1 = hankel_project(h2, block_size)
        denom = np.linalg.norm(h1)
        diff = np.linalg.norm(h1 - h2)
        rel_changes.append(diff / denom if denom > 0.0 else 0.0)
        if diff <= eps * denom:
            return h1, rel_changes, True
    return h1, rel_changes, False


class TestRangeTruncate:
    def test_low_rank_null_component_is_identity(self):
        rng = np.random.default_rng(0)
        basis = rng.standard_normal((10, 4))
        pi2 = rowspace_projector(basis.T @ rng.standard_normal((10, 10)))
        # build h_y whose null-space component has rank 2
        h_y = rng.standard_normal((6, 10)) @ pi2
        h_y += rng.standard_normal((6, 2)) @ rng.standard_normal((2, 10)) @ (np.eye(10) - pi2)
        out = slra.range_truncate(h_y, pi2, 2)
        np.testing.assert_allclose(out, h_y, atol=1e-10)

    def test_full_projector_is_identity(self):
        rng = np.random.default_rng(1)
        h_y = rng.standard_normal((5, 7))
        out = slra.range_truncate(h_y, np.eye(7), 0)
        np.testing.assert_allclose(out, h_y, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_output_null_rank_bounded(self, seed):
        rng = np.random.default_rng(seed)
        sub = rng.standard_normal((4, 9))
        pi2 = rowspace_projector(sub)
        h_y = rng.standard_normal((7, 9))
        out = slra.range_truncate(h_y, pi2, 2)
        assert numeric_rank(out @ (np.eye(9) - pi2), 1e-9) <= 2

    def test_invalid_projector_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="idempotent"):
            slra.range_truncate(rng.standard_normal((4, 5)), rng.standard_normal((5, 5)), 1)

    def test_oblique_projector_rejected(self):
        # idempotent but not symmetric: its range is not an orthogonal split
        rng = np.random.default_rng(3)
        oblique = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            slra.range_truncate(rng.standard_normal((4, 2)), oblique, 1)

    def test_directions_below_rank_tol_dropped(self):
        # null-space singular values 1 and 1e-12: the second is below compact_svd's
        # 1e-10 relative rank threshold, so even n_order=2 keeps one direction
        rng = np.random.default_rng(5)
        pi2 = rowspace_projector(rng.standard_normal((3, 9)))
        q = np.linalg.qr(rng.standard_normal((9, 9)) @ (np.eye(9) - pi2))[0][:, :2]
        w = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        h_y = rng.standard_normal((6, 9)) @ pi2 + (w * [1.0, 1e-12]) @ q.T
        out = slra.range_truncate(h_y, pi2, 2)
        assert numeric_rank(out @ (np.eye(9) - pi2), 1e-13) == 1

    def test_zero_order_keeps_only_projected_part(self):
        rng = np.random.default_rng(4)
        pi2 = rowspace_projector(rng.standard_normal((3, 8)))
        h_y = rng.standard_normal((5, 8))
        np.testing.assert_allclose(slra.range_truncate(h_y, pi2, 0), h_y @ pi2, atol=1e-12)


class TestIterativeSlra:
    def test_noise_free_fixed_point(self):
        h_u, _, h_y_clean = noisy_pair(seed=3, variance=0.0)
        report = slra.iterative_slra(h_y_clean, h_u, 8, eps=1e-6, block_size=3)
        assert report.converged
        assert report.iterations <= 2
        assert report.full_eigensolves == 1
        rel = np.linalg.norm(report.h_y_star - h_y_clean) / np.linalg.norm(h_y_clean)
        assert rel <= 1e-10

    def test_loose_eps_single_pass(self):
        h_u, h_y, _ = noisy_pair(seed=4)
        report = slra.iterative_slra(h_y, h_u, 8, eps=1.0, block_size=3)
        assert report.converged
        assert report.iterations == 1

    def test_denoises_seeded_instance(self):
        h_u, h_y, h_y_clean = noisy_pair(seed=5)
        report = slra.iterative_slra(h_y, h_u, 8, eps=1e-6, max_iter=200, block_size=3)
        before = np.linalg.norm(h_y - h_y_clean)
        after = np.linalg.norm(report.h_y_star - h_y_clean)
        assert after < before

    def test_output_exactly_block_hankel(self):
        h_u, h_y, _ = noisy_pair(seed=6)
        report = slra.iterative_slra(h_y, h_u, 8, eps=1e-4, max_iter=50, block_size=3)
        out = report.h_y_star
        depth, n_c = out.shape[0] // 3, out.shape[1]
        blocks = out.reshape(depth, 3, n_c)
        # every block on a block-anti-diagonal is bit-identical
        for i in range(depth - 1):
            for j in range(n_c - 1):
                np.testing.assert_array_equal(blocks[i + 1, :, j], blocks[i, :, j + 1])

    def test_input_hankel_untouched(self):
        h_u, h_y, _ = noisy_pair(seed=7)
        h_u_copy = h_u.copy()
        slra.iterative_slra(h_y, h_u, 8, eps=1e-3, max_iter=20, block_size=3)
        np.testing.assert_array_equal(h_u, h_u_copy)

    def test_rel_change_sequence_recorded(self):
        h_u, h_y, _ = noisy_pair(seed=8)
        report = slra.iterative_slra(h_y, h_u, 8, eps=1e-4, max_iter=30, block_size=3)
        assert len(report.rel_changes) == report.iterations
        assert all(np.isfinite(r) for r in report.rel_changes)
        assert report.final_rel_change == report.rel_changes[-1]
        if report.converged:
            assert report.final_rel_change <= 1e-4

    def test_max_iter_exhaustion_flagged(self):
        h_u, h_y, _ = noisy_pair(seed=9)
        report = slra.iterative_slra(h_y, h_u, 8, eps=1e-12, max_iter=3, block_size=3)
        assert not report.converged
        assert report.iterations == 3

    def test_near_fixed_point_after_convergence(self):
        # one more truncation changes a converged iterate by <= eps relative
        h_u, h_y, _ = noisy_pair(seed=10)
        eps = 1e-4
        report = slra.iterative_slra(h_y, h_u, 8, eps=eps, max_iter=2000, block_size=3)
        assert report.converged
        pi2 = rowspace_projector(h_u)
        again = slra.range_truncate(report.h_y_star, pi2, 8)
        rel = np.linalg.norm(again - report.h_y_star) / np.linalg.norm(report.h_y_star)
        assert rel <= eps

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            slra.iterative_slra(np.zeros((4, 5)), np.zeros((2, 6)), 1, block_size=2)

    def test_full_column_rank_input_single_pass(self):
        # the complement of h_u's row space is empty, so nothing is truncated
        rng = np.random.default_rng(12)
        h_u = rng.standard_normal((12, 9))
        h_y = build_block_hankel(rng.standard_normal((10, 3)), 2)
        report = slra.iterative_slra(h_y, h_u, 2, eps=1e-6, block_size=3)
        assert report.converged
        assert report.iterations == 1
        np.testing.assert_array_equal(report.h_y_star, hankel_project(h_y, 3))

    def test_output_inside_input_row_space_converges_at_once(self):
        # y_t = D u_t makes H_y = (I (x) D) H_u: block-Hankel and inside H_u's row space
        rng = np.random.default_rng(13)
        u = rng.standard_normal((60, 2))
        h_u = build_block_hankel(u, 8)
        h_y = build_block_hankel(u @ rng.standard_normal((2, 3)), 8)
        report = slra.iterative_slra(h_y, h_u, 8, eps=1e-6, block_size=3)
        assert report.converged
        assert report.iterations == 1
        np.testing.assert_allclose(report.h_y_star, h_y, atol=1e-12)

    def test_zero_order_pass_drops_the_complement(self):
        h_u, h_y, _ = noisy_pair(seed=14)
        report = slra.iterative_slra(h_y, h_u, 0, eps=1e-6, max_iter=1, block_size=3)
        first = hankel_project(h_y @ rowspace_projector(h_u), 3)
        np.testing.assert_allclose(report.h_y_star, first, atol=1e-12)

    def test_negative_order_rejected(self):
        h_u, h_y, _ = noisy_pair(seed=15)
        with pytest.raises(ValueError, match="n_order"):
            slra.iterative_slra(h_y, h_u, -1, block_size=3)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0])
    def test_non_finite_eps_rejected(self, eps):
        # eps=nan used to run to max_iter unconverged, and eps=inf to
        # "converge" after one pass
        h_u, h_y, _ = noisy_pair(seed=15)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            slra.iterative_slra(h_y, h_u, 8, eps=eps, block_size=3)

    def test_negative_memory_rejected(self):
        h_u, h_y, _ = noisy_pair(seed=15)
        with pytest.raises(ValueError, match="memory"):
            slra.iterative_slra(h_y, h_u, 8, block_size=3, memory=-1)

    def test_bad_block_size_rejected_before_the_svd(self, monkeypatch):
        calls = []
        monkeypatch.setattr(slra, "compact_svd", lambda *a, **kw: calls.append(a))
        h_u, h_y, _ = noisy_pair(seed=15)
        for block_size in (0, 5):
            with pytest.raises(ValueError, match="block size"):
                slra.iterative_slra(h_y, h_u, 8, block_size=block_size)
        assert calls == []


class TestAcceleration:
    @pytest.mark.parametrize("seed", [*range(1000, 1005), 2110, 2148])
    def test_paper_scale_converges_within_cap(self, seed):
        # the plain loop stops at the 200-pass cap on every one of these; on
        # 2110 and 2148, resuming acceleration right after a refusal stalls
        h_u, h_y, _ = noisy_pair(seed)
        report = slra.iterative_slra(h_y, h_u, 8, eps=1e-6, max_iter=200, block_size=3)
        assert report.converged
        assert report.final_rel_change <= 1e-6
        assert report.full_eigensolves < report.iterations
        # exactly block-Hankel: each block equals its up-right neighbour bit for bit
        blocks = report.h_y_star.reshape(-1, 3, h_y.shape[1])
        np.testing.assert_array_equal(blocks[1:, :, :-1], blocks[:-1, :, 1:])

    def test_first_two_passes_are_the_plain_loop(self):
        h_u, h_y, _ = noisy_pair(seed=1000)
        plain = slra.iterative_slra(h_y, h_u, 8, eps=1e-12, max_iter=2, block_size=3, memory=0)
        fast = slra.iterative_slra(h_y, h_u, 8, eps=1e-12, max_iter=2, block_size=3)
        np.testing.assert_array_equal(fast.h_y_star, plain.h_y_star)
        assert fast.rel_changes == plain.rel_changes

    def test_safeguard_rejection_counted(self, monkeypatch):
        # with memory 1 the safeguard refuses accelerated points on this instance
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return hankel_project(*args, **kwargs)

        monkeypatch.setattr(slra, "hankel_project", spy)
        h_u, h_y, _ = noisy_pair(seed=1001)
        report = slra.iterative_slra(h_y, h_u, 8, eps=1e-6, max_iter=200, block_size=3,
                                     memory=1)
        assert report.rejected >= 1
        assert len(report.rel_changes) == report.iterations == len(calls)


def gram_with_spectrum(eigenvalues, seed):
    """A symmetric matrix with the given eigenvalues and its eigenvectors, as columns in that order."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))[0]
    return (q * eigenvalues) @ q.T, q


def dominant_pairs(gram, k):
    dim = gram.shape[0]
    return scipy.linalg.eigh(gram, subset_by_index=[dim - k, dim - 1])


class TestWarmEigenpairs:
    def test_certified_pairs_match_eigh_within_residual_over_gap(self):
        # paper-scale shape: 69 x 69, 8 kept pairs over a tail at most 1e-6 of the smallest
        lam = np.concatenate([np.geomspace(1e-6, 1e-9, 61), np.geomspace(1.0, 1e3, 8)])
        gram, q = gram_with_spectrum(lam, seed=0)
        start = q[:, -8:] + 1e-4 * np.random.default_rng(1).standard_normal((69, 8))
        pairs = slra._Eigenpairs()
        pairs._v, pairs._tail = np.linalg.qr(start)[0], 0.0
        v = pairs.top(gram, 8)
        assert pairs.full_eigensolves == 0
        theta = np.diag(v.T @ gram @ v)
        residual = np.linalg.norm(gram @ v - v * theta, axis=0)
        assert residual.max() <= 69 * np.finfo(float).eps * theta.max()
        theta_ref, w = dominant_pairs(gram, 8)
        residual_ref = np.linalg.norm(gram @ w - w * theta_ref)
        gap = theta.min() - lam[:61].max()
        # Davis-Kahan: each projector lies within its residual / gap of the exact one
        bound = (np.linalg.norm(residual) + residual_ref) / gap
        assert np.linalg.norm(v @ v.T - w @ w.T, 2) <= bound

    def test_non_dominant_invariant_subspace_falls_back(self):
        # a start spanning eigenvectors 9-16 is invariant, so its Ritz residuals
        # are at roundoff; only the trace test sees that larger eigenvalues remain
        lam = np.concatenate([np.full(53, 1e-6), np.linspace(1.0, 2.0, 8), np.linspace(5.0, 10.0, 8)])
        gram, q = gram_with_spectrum(lam, seed=2)
        start = q[:, 53:61]
        step = np.linalg.qr(gram @ start)[0]
        theta, s = np.linalg.eigh(step.T @ gram @ step)
        v = step @ s
        assert np.linalg.norm(gram @ v - v * theta, axis=0).max() <= 69 * np.finfo(float).eps * theta.max()
        assert np.trace(gram) - theta.sum() >= theta.min() / 2
        pairs = slra._Eigenpairs()
        pairs._v, pairs._tail = start, 0.0
        got = pairs.top(gram, 8)
        assert pairs.full_eigensolves == 1
        _, w = dominant_pairs(gram, 8)
        np.testing.assert_allclose(got @ got.T, w @ w.T, atol=1e-12)

    @pytest.mark.parametrize("seed", [1000, 1003, 2110])
    def test_paper_scale_matches_a_cold_loop(self, seed, monkeypatch):
        h_u, h_y, _ = noisy_pair(seed)
        warm = slra.iterative_slra(h_y, h_u, 8, eps=1e-6, max_iter=200, block_size=3)

        class ColdEigenpairs:
            full_eigensolves = 0

            def top(self, gram, k):
                return dominant_pairs(gram, k)[1]

        monkeypatch.setattr(slra, "_Eigenpairs", ColdEigenpairs)
        cold = slra.iterative_slra(h_y, h_u, 8, eps=1e-6, max_iter=200, block_size=3)
        assert warm.full_eigensolves < warm.iterations
        assert warm.converged == cold.converged
        rel = np.linalg.norm(warm.h_y_star - cold.h_y_star) / np.linalg.norm(cold.h_y_star)
        assert rel <= 1e-8


@pytest.mark.parametrize("n_order", [0, 2, 8, 10])
@pytest.mark.parametrize("variance", [0.01, 0.0])
def test_matches_projector_loop(n_order, variance):
    h_u, h_y, _ = noisy_pair(seed=1000 + n_order, variance=variance)
    eps, max_iter = 1e-6, 25
    h_ref, rel_ref, conv_ref = reference_slra(h_y, h_u, n_order, eps, max_iter, 3)
    report = slra.iterative_slra(h_y, h_u, n_order, eps=eps, max_iter=max_iter, block_size=3,
                                 memory=0)
    assert report.iterations == len(rel_ref)
    assert report.converged == conv_ref
    scale = np.linalg.norm(h_ref)
    assert np.abs(report.h_y_star - h_ref).max() <= 1e-10 * scale
    np.testing.assert_allclose(report.rel_changes, rel_ref, rtol=0.0, atol=1e-10)


def test_paper_scale_micro_benchmark(benchmark):
    # one full default denoise, so the timing follows the passes it takes to converge
    h_u, h_y, _ = noisy_pair(seed=1000)
    report = benchmark.pedantic(
        slra.iterative_slra,
        args=(h_y, h_u, 8),
        kwargs={"eps": 1e-6, "max_iter": 200, "block_size": 3},
        rounds=3,
        iterations=1,
    )
    assert report.converged
    assert report.h_y_star.shape == h_y.shape
