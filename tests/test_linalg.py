import math

import numpy as np
import pytest

from luq.errors import (
    DimMismatchError,
    EmptyInputError,
    NotPositiveDefiniteError,
    RankDeficientWarning,
    TooFewSamplesError,
)
from luq.linalg import (
    PcaModel,
    as_matrix,
    cholesky,
    log_det,
    logsumexp,
    pca_fit,
    pca_transform,
    row_blocks,
)


class TestCholesky:
    def test_identity(self):
        f = cholesky(np.eye(3))
        np.testing.assert_allclose(f.lower, np.eye(3), atol=1e-12)

    def test_hand_expanded_2x2(self):
        # L = [[2, 0], [1, sqrt(2)]] reproduces [[4, 2], [2, 3]]
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(f.lower, expected, atol=1e-12)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimMismatchError):
            cholesky(np.ones((2, 3)))

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_random_spd_reconstruction(self):
        # relative Frobenius error < 1e-8 for random SPD matrices, dim <= 16
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 17))
            a = rng.normal(size=(d, d))
            m = a @ a.T + d * np.eye(d)
            f = cholesky(m)
            err = np.linalg.norm(f.reconstruct() - m) / np.linalg.norm(m)
            assert err < 1e-8


class TestRowBlocks:
    @pytest.mark.parametrize("size", [2, 8, 256])
    def test_blocks_start_at_multiples_and_a_short_tail_joins_the_last(self, size):
        for n in range(4 * size + 3):
            blocks = row_blocks(n, size)
            assert [lo for lo, _ in blocks] == [b * size for b in range(len(blocks))]
            assert [hi for _, hi in blocks] == [lo for lo, _ in blocks[1:]] + [n]
            last = blocks[-1][1] - blocks[-1][0]
            assert len(blocks) == 1 or size // 2 <= last < size + size // 2

    def test_examples(self):
        assert row_blocks(0, 256) == [(0, 0)]
        assert row_blocks(100, 256) == [(0, 100)]
        assert row_blocks(1000, 256) == [(0, 256), (256, 512), (512, 768), (768, 1000)]
        assert row_blocks(639, 256) == [(0, 256), (256, 639)]


class TestLogDet:
    def test_identity(self):
        assert log_det(cholesky(np.eye(4))) == 0.0

    def test_diagonal(self):
        val = log_det(cholesky(np.diag([4.0, 3.0])))
        assert val == pytest.approx(math.log(12.0), abs=1e-12)

    def test_diag_e(self):
        val = log_det(cholesky(np.diag([math.e, math.e])))
        assert val == pytest.approx(2.0, abs=1e-12)


class TestLogSumExp:
    def test_single(self):
        assert logsumexp([-5.0]) == pytest.approx(-5.0, abs=1e-12)

    def test_pair(self):
        assert logsumexp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_negative(self):
        expected = -1000.0 + math.log(1.0 + math.exp(-1.0))
        assert logsumexp([-1000.0, -1001.0]) == pytest.approx(expected, abs=1e-9)
        assert logsumexp([-1000.0, -1001.0]) == pytest.approx(-999.686738, abs=1e-6)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            logsumexp([])

    def test_empty_batch_of_slices(self):
        assert logsumexp(np.zeros((0, 3)), axis=1).shape == (0,)
        with pytest.raises(EmptyInputError):
            logsumexp(np.zeros((2, 0)), axis=1)

    def test_neg_inf_entries(self):
        assert logsumexp([-np.inf, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert logsumexp([-np.inf, -np.inf]) == -np.inf

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = rng.normal(scale=5.0, size=int(rng.integers(1, 20)))
            c = float(rng.normal(scale=100.0))
            assert logsumexp(v + c) == pytest.approx(logsumexp(v) + c, abs=1e-12)

    def test_axis(self):
        v = np.array([[0.0, 0.0], [-1000.0, -1001.0]])
        out = logsumexp(v, axis=1)
        np.testing.assert_allclose(
            out, [math.log(2.0), -1000.0 + math.log(1 + math.exp(-1))], atol=1e-9
        )


class TestPca:
    def test_one_row_is_too_few(self):
        with pytest.raises(TooFewSamplesError):
            pca_fit(np.ones((1, 3)), 1)

    def test_line_in_3d(self):
        # points on a 1-D line embedded in 3-D: single eigenvalue equals the
        # sample variance along the line, zero reconstruction error
        rng = np.random.default_rng(0)
        t = rng.normal(size=40)
        direction = np.array([1.0, 2.0, -1.0])
        direction /= np.linalg.norm(direction)
        x = np.outer(t, direction) + np.array([5.0, -3.0, 0.5])
        p = pca_fit(x, 1)
        assert p.eigenvalues[0] == pytest.approx(np.var(t, ddof=1), rel=1e-10)
        recon = pca_transform(p, x) @ p.basis.T + p.mean
        np.testing.assert_allclose(recon, x, atol=1e-8)

    def test_isotropic_2d(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20000, 2))
        p = pca_fit(x, 2)
        np.testing.assert_allclose(p.eigenvalues, [1.0, 1.0], atol=0.05)

    def test_full_rank_preserves_distances(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 4))
        p = pca_fit(x, 4)
        y = pca_transform(p, x)
        dx = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
        dy = np.linalg.norm(y[:, None, :] - y[None, :, :], axis=-1)
        np.testing.assert_allclose(dx, dy, atol=1e-8)

    def test_transform_of_mean_is_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(15, 3))
        p = pca_fit(x, 2)
        out = pca_transform(p, x.mean(axis=0)[None, :])
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_identity_basis_zero_mean(self):
        # symmetric data spread makes the eigenbasis axis-aligned
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0], [-0.5, 0.0],
                      [0.0, 0.2], [0.0, -0.2]])
        p = pca_fit(x, 2)
        np.testing.assert_allclose(p.mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(p.basis), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(pca_transform(p, x), x @ p.basis, atol=1e-12)

    def test_round_trip_full_dim(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(25, 5))
        p = pca_fit(x, 5)
        recon = pca_transform(p, x) @ p.basis.T + p.mean
        np.testing.assert_allclose(recon, x, atol=1e-8)

    def test_eigenvalues_sorted_and_sum_to_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = rng.normal(size=(40, 6)) * rng.uniform(0.1, 3.0, size=6)
            p = pca_fit(x, 6)
            assert np.all(np.diff(p.eigenvalues) <= 1e-12)
            centered = x - x.mean(axis=0)
            trace = np.trace(centered.T @ centered / (x.shape[0] - 1))
            assert np.sum(p.eigenvalues) == pytest.approx(trace, abs=1e-8)

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 8))
        p = pca_fit(x, 5)
        np.testing.assert_allclose(p.basis.T @ p.basis, np.eye(5), atol=1e-8)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 4))
        p1 = pca_fit(x, 4)
        p2 = pca_fit(np.array(x), 4)
        np.testing.assert_array_equal(p1.basis, p2.basis)
        for j in range(4):
            k = np.argmax(np.abs(p1.basis[:, j]))
            assert p1.basis[k, j] > 0

    def test_rank_deficient_warns_and_pads(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.warns(RankDeficientWarning):
            p = pca_fit(x, 2)
        assert p.eigenvalues[1] == 0.0

    def test_dim_mismatch(self):
        p = pca_fit(np.random.default_rng(0).normal(size=(10, 3)), 2)
        with pytest.raises(DimMismatchError):
            pca_transform(p, np.ones((4, 5)))

    def test_whiten_unit_variance(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(5000, 3)) * np.array([3.0, 1.0, 0.2])
        p = pca_fit(x, 3, whiten=True)
        y = pca_transform(p, x)
        np.testing.assert_allclose(y.var(axis=0, ddof=1), 1.0, atol=1e-8)


class TestAsMatrix:
    def test_one_vector_becomes_one_row(self):
        x = as_matrix([1, 2, 3])
        assert x.shape == (1, 3) and x.dtype == np.float64

    def test_rejects_bad_shape(self):
        with pytest.raises(DimMismatchError):
            as_matrix(np.zeros((2, 2, 2)))


class TestPcaModelShapes:
    @pytest.mark.parametrize("mean, basis, eig", [
        (np.zeros(4), np.eye(3)[:, :2], np.ones(2)),
        (np.zeros(3), np.eye(3)[:, :2], np.ones(3)),
        (np.zeros(3), np.zeros(3), np.ones(1)),
    ], ids=["mean", "eigenvalues", "basis-not-2d"])
    def test_parts_must_match(self, mean, basis, eig):
        with pytest.raises(DimMismatchError, match="do not match"):
            PcaModel(mean=mean, basis=basis, eigenvalues=eig)
