import itertools
import math

import numpy as np
import pytest

from vcomp.laws import GAUSSIAN, RADEMACHER, UNIFORM, SeedSpec, SubGaussianLaw, sample_vector
from vcomp.qform import (
    QuadraticForm,
    build_w,
    napprox_rate,
    qf_covariance,
    qf_variance,
    sigma_k_sq,
)


def random_psd(rng, d, rank=None):
    A = rng.standard_normal((d, rank or d))
    return QuadraticForm(A @ A.T / d)


def enumerate_rademacher_values(Q):
    """Exhaustive z'Qz over all 2^d sign vectors."""
    d = Q.shape[0]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    return np.einsum("ij,jk,ik->i", signs, Q, signs)


class TestQuadraticForm:
    def test_cached_scalars(self):
        rng = np.random.default_rng(0)
        qf = random_psd(rng, 6)
        Q = qf.matrix
        assert qf.trace_sq == pytest.approx(np.trace(Q @ Q), rel=1e-10)
        assert qf.op_norm == pytest.approx(np.max(np.linalg.eigvalsh(Q)), rel=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuadraticForm(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadraticForm(np.diag([1.0, -0.5]))

    def test_accepts_tiny_negative_drift(self):
        Q = np.diag([1.0, -1e-12])
        qf = QuadraticForm(Q)
        assert qf.dim == 2


def centered_qf(qf, z):
    """z'Qz - tr(Q), the first entry of the centered-form vector at z."""
    return build_w([qf], GAUSSIAN).evaluate(z)[0]


class TestEvalQF:
    def test_identity(self):
        qf = QuadraticForm(np.eye(2))
        assert centered_qf(qf, np.array([1.0, 2.0])) == 5.0 - 2.0

    def test_zero(self):
        qf = QuadraticForm(np.zeros((3, 3)))
        assert centered_qf(qf, np.ones(3)) == 0.0

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        qf = random_psd(rng, 6)
        z = rng.standard_normal(6)
        direct = sum(
            qf.matrix[i, j] * z[i] * z[j] for i in range(6) for j in range(6)
        )
        assert centered_qf(qf, z) == pytest.approx(direct - np.trace(qf.matrix), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            centered_qf(QuadraticForm(np.eye(3)), np.ones(4))


class TestVariance:
    def test_gaussian_identity_is_chi_square(self):
        d = 7
        qf = QuadraticForm(np.eye(d))
        assert qf_variance(qf, GAUSSIAN) == pytest.approx(2 * d)

    def test_rademacher_all_ones_matrix(self):
        # z'Qz = 2 + 2 z1 z2 takes values {0, 4}; variance 4
        qf = QuadraticForm(np.ones((2, 2)))
        vals = enumerate_rademacher_values(qf.matrix)
        assert qf_variance(qf, RADEMACHER) == pytest.approx(float(np.var(vals)))
        assert qf_variance(qf, RADEMACHER) == pytest.approx(4.0)

    def test_rademacher_identity_degenerate(self):
        qf = QuadraticForm(np.eye(5))
        assert qf_variance(qf, RADEMACHER) == 0.0

    def test_exhaustive_rademacher(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = int(rng.integers(2, 9))
            qf = random_psd(rng, d)
            vals = enumerate_rademacher_values(qf.matrix)
            assert qf_variance(qf, RADEMACHER) == pytest.approx(
                float(np.var(vals)), abs=1e-10
            )

    @pytest.mark.parametrize("law", [GAUSSIAN, UNIFORM], ids=lambda l: l.name)
    def test_monte_carlo(self, law):
        rng = np.random.default_rng(3)
        d = 5
        qf = random_psd(rng, d)
        n = 1_000_000
        z = sample_vector(law, n * d, SeedSpec(12, 0)).reshape(n, d)
        vals = np.einsum("ij,jk,ik->i", z, qf.matrix, z)
        sample_var = float(np.var(vals, ddof=1))
        # stderr of a sample variance via the fourth moment of the values
        centered = vals - vals.mean()
        se = math.sqrt(
            max(np.mean(centered**4) - sample_var**2, 0.0) / n
        )
        assert abs(qf_variance(qf, law) - sample_var) < 5 * se

    def test_nonnegative_for_all_laws(self):
        rng = np.random.default_rng(4)
        for law in (GAUSSIAN, RADEMACHER, UNIFORM):
            for _ in range(10):
                qf = random_psd(rng, int(rng.integers(2, 8)))
                assert qf_variance(qf, law) >= -1e-12


class TestCovariance:
    def test_reduces_to_variance(self):
        rng = np.random.default_rng(5)
        qf = random_psd(rng, 5)
        for law in (GAUSSIAN, RADEMACHER, UNIFORM):
            assert qf_covariance(qf, qf, law) == pytest.approx(
                qf_variance(qf, law), rel=1e-12
            )

    def test_exhaustive_rademacher_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            d = int(rng.integers(2, 13))
            qa, qb = random_psd(rng, d), random_psd(rng, d)
            va = enumerate_rademacher_values(qa.matrix)
            vb = enumerate_rademacher_values(qb.matrix)
            direct = float(np.mean(va * vb) - np.mean(va) * np.mean(vb))
            assert qf_covariance(qa, qb, RADEMACHER) == pytest.approx(
                direct, abs=1e-10
            )

    def test_gaussian_diagonal_closed_form(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.5, 2.0, 6)
        b = rng.uniform(0.5, 2.0, 6)
        qa, qb = QuadraticForm(np.diag(a)), QuadraticForm(np.diag(b))
        # products of independent chi-squares: Cov = 2 sum a_i b_i
        assert qf_covariance(qa, qb, GAUSSIAN) == pytest.approx(2 * float(a @ b))

    def test_asymmetric_two_point_law_matches_enumeration(self):
        # z_i is 2 with probability 1/5, else -1/2: mean 0, variance 1 and
        # mu3 = 3/2.  No third moment enters the identity, so the fourth
        # moment is all it reads.
        p, hi, lo = 0.2, 2.0, -0.5
        assert p * hi + (1 - p) * lo == 0.0 and p * hi**2 + (1 - p) * lo**2 == 1.0
        assert p * hi**3 + (1 - p) * lo**3 == 1.5
        law = SubGaussianLaw("two_point", gamma=hi, mu4=p * hi**4 + (1 - p) * lo**4)
        rng = np.random.default_rng(9)
        up = np.array(list(itertools.product((False, True), repeat=3)))
        z = np.where(up, hi, lo)
        prob = np.prod(np.where(up, p, 1 - p), axis=1)

        def cov(u, v):
            return float(prob @ (u * v) - (prob @ u) * (prob @ v))

        for _ in range(5):
            qa, qb = random_psd(rng, 3), random_psd(rng, 3)
            va = np.einsum("ij,jk,ik->i", z, qa.matrix, z)
            vb = np.einsum("ij,jk,ik->i", z, qb.matrix, z)
            assert qf_covariance(qa, qb, law) == pytest.approx(cov(va, vb), abs=1e-12)
            wv = build_w([qa, qb], law)
            w = wv.evaluate(z)
            want = [[cov(w[:, i], w[:, j]) for j in range(4)] for i in range(4)]
            np.testing.assert_allclose(wv.v_cov, want, rtol=0, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            qf_covariance(QuadraticForm(np.eye(2)), QuadraticForm(np.eye(3)), GAUSSIAN)


class TestWVector:
    def test_diagonal_form_collapses(self):
        rng = np.random.default_rng(8)
        qf = QuadraticForm(np.diag(rng.uniform(0.5, 2.0, 5)))
        wv = build_w([qf], GAUSSIAN)
        for _ in range(100):
            z = rng.standard_normal(5)
            w = wv.evaluate(z)
            assert w[0] == pytest.approx(w[1], abs=1e-12)

    def test_block_rows_match_the_vector_formula(self):
        # reference: z'Qz - tr(Q) and z'diag(Q)z - tr(Q), one vector at a time
        rng = np.random.default_rng(10)
        qforms = [QuadraticForm(np.eye(7) * 0.3), QuadraticForm(np.cov(rng.standard_normal((7, 30))))]
        wv = build_w(qforms, GAUSSIAN)
        Z = rng.standard_normal((65, 7))
        block = wv.evaluate(Z)
        assert block.shape == (65, 4)
        for z, row in zip(Z, block):
            want = [v for qf in qforms for v in ((qf.matrix @ z) @ z - qf.diag.sum(), qf.diag @ (z * z) - qf.diag.sum())]
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(wv.evaluate(z), row, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError):
            wv.evaluate(Z[:, :6])

    def test_rademacher_identity_block_is_exactly_zero(self):
        wv = build_w([QuadraticForm(np.eye(16) / 4.0)], RADEMACHER)
        z = 2.0 * np.random.default_rng(11).integers(0, 2, (64, 16)) - 1.0
        assert np.all(wv.evaluate(z) == 0.0)

    def test_rademacher_identity_w_is_zero(self):
        wv = build_w([QuadraticForm(np.eye(6))], RADEMACHER)
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = 2.0 * rng.integers(0, 2, 6) - 1.0
            np.testing.assert_allclose(wv.evaluate(z), 0.0, atol=1e-12)
        np.testing.assert_allclose(wv.v_cov, 0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_rademacher_identity_is_psd_at_every_dimension(self, k):
        # the true covariance is 0, so its norm is rounding noise; the PSD check
        # must be judged against the size of the terms (once raised at d = 8)
        for d in range(1, 201):
            wv = build_w([QuadraticForm(np.eye(d) / math.sqrt(d))] * k, RADEMACHER)
            np.testing.assert_allclose(wv.v_cov, 0.0, atol=1e-12)

    def test_gaussian_identity_covariance(self):
        d = 9
        wv = build_w([QuadraticForm(np.eye(d))], GAUSSIAN)
        np.testing.assert_allclose(wv.v_cov, 2.0 * d * np.ones((2, 2)), atol=1e-10)

    def test_v_cov_matches_block_covariance_formulas(self):
        rng = np.random.default_rng(10)
        qa, qb = random_psd(rng, 6), random_psd(rng, 6)
        for law in (GAUSSIAN, UNIFORM, RADEMACHER):
            wv = build_w([qa, qb], law)
            qa_d = QuadraticForm(np.diag(qa.diag))
            qb_d = QuadraticForm(np.diag(qb.diag))
            pairs = [qa, qa_d, qb, qb_d]
            expect = np.array(
                [[qf_covariance(x, y, law) for y in pairs] for x in pairs]
            )
            np.testing.assert_allclose(wv.v_cov, expect, atol=1e-10)

    def test_v_cov_matches_sample_covariance(self):
        rng = np.random.default_rng(11)
        d = 6
        qa, qb = random_psd(rng, d), random_psd(rng, d)
        wv = build_w([qa, qb], UNIFORM)
        n = 100_000
        z = sample_vector(UNIFORM, n * d, SeedSpec(77, 0)).reshape(n, d)
        z_sq = z * z
        samples = np.empty((n, 4))
        for k, qf in enumerate((qa, qb)):
            full = np.einsum("ij,jk,ik->i", z, qf.matrix, z)
            samples[:, 2 * k] = full - np.trace(qf.matrix)
            samples[:, 2 * k + 1] = z_sq @ qf.diag - np.trace(qf.matrix)
        emp = np.cov(samples.T)
        # stderr of a covariance entry is at most ~ sqrt(Var(prod)/n)
        for i in range(4):
            for j in range(4):
                prod = samples[:, i] * samples[:, j]
                se = prod.std(ddof=1) / math.sqrt(n)
                assert abs(emp[i, j] - wv.v_cov[i, j]) < 5 * se + 1e-9

    def test_mean_zero(self):
        rng = np.random.default_rng(12)
        qf = random_psd(rng, 5)
        wv = build_w([qf], GAUSSIAN)
        n = 200_000
        z = sample_vector(GAUSSIAN, n * 5, SeedSpec(78, 0)).reshape(n, 5)
        w0 = np.einsum("ij,jk,ik->i", z, qf.matrix, z) - np.trace(qf.matrix)
        se = w0.std(ddof=1) / math.sqrt(n)
        assert abs(w0.mean()) < 5 * se

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            build_w([QuadraticForm(np.eye(2)), QuadraticForm(np.eye(3))], GAUSSIAN)


class TestSigmaKSq:
    def test_gaussian_identity(self):
        assert sigma_k_sq(QuadraticForm(np.eye(6)), 0.0) == pytest.approx(12.0)

    def test_rademacher_identity(self):
        assert sigma_k_sq(QuadraticForm(np.eye(6)), -2.0) == pytest.approx(0.0)

    def test_gamma2_enters_only_through_diagonal(self):
        # a PSD matrix with zero diagonal is zero, so the zero-diagonal case is
        # vacuous; the substantive content is that gamma2 multiplies tr(diag^2)
        qf = QuadraticForm(np.ones((2, 2)))
        a = sigma_k_sq(qf, 0.0)
        b = sigma_k_sq(qf, -1.2)
        assert a - b == pytest.approx(1.2 * float(qf.diag @ qf.diag))
        zero = QuadraticForm(np.zeros((3, 3)))
        assert sigma_k_sq(zero, -2.0) == sigma_k_sq(zero, 5.0) == 0.0

    def test_matches_variance_for_all_laws(self):
        rng = np.random.default_rng(13)
        for law in (GAUSSIAN, RADEMACHER, UNIFORM):
            for _ in range(10):
                qf = random_psd(rng, int(rng.integers(2, 10)))
                assert sigma_k_sq(qf, law.excess_kurtosis) == pytest.approx(
                    qf_variance(qf, law), abs=1e-10, rel=1e-10
                )


class TestNapproxRate:
    def test_scaled_identity_plugin(self):
        for d in (4, 16, 64):
            qf = QuadraticForm(np.eye(d) / d)
            got = napprox_rate([qf], GAUSSIAN, f_norms=(1.0, 1.0))
            assert got == pytest.approx(2**8 * (d**-1.5 + d**-2.0), rel=1e-12)

    def test_decreases_when_d_doubles(self):
        vals = []
        for d in (8, 16, 32):
            qf = QuadraticForm(np.eye(d) / d)
            vals.append(napprox_rate([qf], GAUSSIAN, (1.0, 1.0)))
        assert vals[0] > vals[1] > vals[2]

    def test_k_scaling_of_first_term(self):
        d = 50
        qf = QuadraticForm(np.eye(d) / d)
        one = napprox_rate([qf], GAUSSIAN, (1.0, 0.0))
        two = napprox_rate([qf, qf], GAUSSIAN, (1.0, 0.0))
        assert two / one == pytest.approx(2**1.5, rel=1e-12)
