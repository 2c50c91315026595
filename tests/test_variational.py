import math

import numpy as np
import pytest

from vbmc.variational import (
    VariationalPosterior,
    entropy_exact_single,
    entropy_mc,
    gaussian_skl,
)


def random_vp(K, D, rng, spread=2.0):
    w = rng.dirichlet(np.ones(K))
    mu = rng.normal(0.0, spread, size=(K, D))
    sigma = rng.uniform(0.5, 1.5, size=K)
    lam = rng.uniform(0.5, 1.5, size=D)
    return VariationalPosterior(w, mu, sigma, lam)


class TestDensity:
    def test_standard_normal_at_origin(self):
        vp = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
        assert vp.logpdf(np.array([[0.0]]))[0] == pytest.approx(
            -0.5 * math.log(2 * math.pi)
        )

    def test_degenerate_weights(self):
        vp = VariationalPosterior([1.0, 0.0], [[0.0], [5.0]], [1.0, 1.0], [1.0])
        only = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
        xs = np.linspace(-3, 3, 11)[:, None]
        assert np.allclose(vp.logpdf(xs), only.logpdf(xs))

    def test_integrates_to_one_on_grid(self):
        rng = np.random.default_rng(0)
        vp = random_vp(3, 2, rng, spread=1.0)
        g = np.linspace(-9, 9, 401)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        mass = np.sum(vp.pdf(pts)) * (g[1] - g[0]) ** 2
        assert mass == pytest.approx(1.0, abs=1e-4)


class TestSampling:
    def test_zero_scale_collapses_to_means(self):
        vp = VariationalPosterior(
            [0.5, 0.5], [[1.0, 2.0], [3.0, 4.0]], [1e-300, 1e-300], [1e-10, 1e-10]
        )
        rng = np.random.default_rng(1)
        xs = vp.sample(100, rng)
        dists = np.min(
            np.sum((xs[:, None, :] - vp.mu[None]) ** 2, axis=2), axis=1
        )
        assert np.max(dists) < 1e-12

    def test_sample_mean_matches_moments(self):
        rng = np.random.default_rng(2)
        vp = random_vp(3, 2, rng)
        xs = vp.sample(10**5, np.random.default_rng(3))
        mean, cov = vp.moments()
        se = np.sqrt(np.diag(cov) / 10**5)
        assert np.all(np.abs(xs.mean(axis=0) - mean) < 4 * se)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        vp = random_vp(2, 3, rng)
        a = vp.sample(50, np.random.default_rng(7))
        b = vp.sample(50, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestMoments:
    def test_single_component(self):
        vp = VariationalPosterior([1.0], [[1.0, -2.0]], [0.5], [2.0, 3.0])
        mean, cov = vp.moments()
        assert np.allclose(mean, [1.0, -2.0])
        assert np.allclose(cov, np.diag([0.25 * 4.0, 0.25 * 9.0]))

    def test_two_symmetric_components(self):
        vp = VariationalPosterior([0.5, 0.5], [[-1.0], [1.0]], [1.0, 1.0], [1.0])
        mean, cov = vp.moments()
        assert mean[0] == pytest.approx(0.0)
        assert cov[0, 0] == pytest.approx(2.0)

    def test_matches_empirical_moments(self):
        rng = np.random.default_rng(5)
        vp = random_vp(4, 2, rng)
        xs = vp.sample(10**6, np.random.default_rng(6))
        mean, cov = vp.moments()
        assert np.allclose(xs.mean(axis=0), mean, atol=0.01)
        assert np.allclose(np.cov(xs.T), cov, atol=0.02)

    def test_covariance_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            _, cov = random_vp(rng.integers(1, 6), rng.integers(1, 4), rng).moments()
            assert np.allclose(cov, cov.T)
            assert np.min(np.linalg.eigvalsh(cov)) > -1e-12


class TestEntropy:
    def test_single_gaussian_closed_form(self):
        vp = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
        target = 0.5 * math.log(2 * math.pi * math.e)
        rng = np.random.default_rng(8)
        H, _ = entropy_mc(vp, 10**4, rng)
        # SE of the estimator is sqrt(Var[log q]) / sqrt(Ns) = sqrt(1/2) / 100
        assert abs(H - target) < 5 * math.sqrt(0.5) / 100

    def test_scaling_law(self):
        rng = np.random.default_rng(9)
        c = 2.5
        vp1 = VariationalPosterior([1.0], [[0.3, -1.0]], [0.8], [1.0, 2.0])
        vp2 = VariationalPosterior([1.0], [[0.3, -1.0]], [0.8 * c], [1.0, 2.0])
        H1, _ = entropy_mc(vp1, 4 * 10**4, np.random.default_rng(10))
        H2, _ = entropy_mc(vp2, 4 * 10**4, np.random.default_rng(10))
        assert H2 - H1 == pytest.approx(2 * math.log(c), abs=0.02)

    def test_value_only_path_matches(self):
        rng = np.random.default_rng(11)
        vp = random_vp(3, 2, rng)
        H1, g = entropy_mc(vp, 500, np.random.default_rng(12))
        H2, none = entropy_mc(vp, 500, np.random.default_rng(12), grad=False)
        assert none is None
        assert H1 == pytest.approx(H2, rel=1e-12)

    def test_exact_single_matches_mc(self):
        vp = VariationalPosterior([1.0], [[0.5, 1.0, -2.0]], [0.7], [1.0, 0.5, 2.0])
        H, grad = entropy_exact_single(vp)
        H_mc, _ = entropy_mc(vp, 2 * 10**4, np.random.default_rng(13))
        assert H == pytest.approx(H_mc, abs=0.05)
        assert grad[vp.D] == pytest.approx(vp.D)

    @pytest.mark.parametrize("K", [1, 2, 5])
    @pytest.mark.parametrize("D", [1, 2, 6])
    def test_gradient_matches_common_random_fd(self, K, D):
        rng = np.random.default_rng(100 * K + D)
        vp = random_vp(K, D, rng)
        Ns = 50
        eps = rng.standard_normal((Ns, K, D))
        _, grad = entropy_mc(vp, Ns, rng, eps=eps)

        theta0 = vp.to_vector()

        def H_at(theta):
            v = VariationalPosterior.from_vector(theta, K, D)
            H, _ = entropy_mc(v, Ns, rng, eps=eps)
            return H

        h = 1e-6
        for i in range(theta0.size):
            tp, tm = theta0.copy(), theta0.copy()
            tp[i] += h
            tm[i] -= h
            fd = (H_at(tp) - H_at(tm)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestGaussianSKL:
    def test_identical_posteriors(self):
        rng = np.random.default_rng(14)
        vp = random_vp(3, 2, rng)
        skl = gaussian_skl(*vp.moments(), *vp.moments())
        assert skl == pytest.approx(0.0, abs=1e-12)

    def test_unit_shift_closed_form(self):
        a = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
        b = VariationalPosterior([1.0], [[1.0]], [1.0], [1.0])
        assert gaussian_skl(*a.moments(), *b.moments()) == pytest.approx(0.5)

    def test_mean_of_directed_divergences(self):
        # N(0, 1) against N(0, 4): KL(a||b) = (1/4 - 1 + ln 4) / 2 and
        # KL(b||a) = (4 - 1 - ln 4) / 2. Their mean is 0.5625; the sum
        # convention would give twice that.
        kl_ab = 0.5 * (0.25 - 1.0 + math.log(4.0))
        kl_ba = 0.5 * (4.0 - 1.0 - math.log(4.0))
        expected = 0.5 * (kl_ab + kl_ba)
        assert expected == pytest.approx(0.5625)
        skl = gaussian_skl([0.0], [[1.0]], [0.0], [[4.0]])
        assert skl == pytest.approx(expected)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = random_vp(2, 3, rng)
            b = random_vp(3, 3, rng)
            s1 = gaussian_skl(*a.moments(), *b.moments())
            s2 = gaussian_skl(*b.moments(), *a.moments())
            assert s1 == pytest.approx(s2, rel=1e-12)
            assert s1 >= 0

    def test_singular_covariance_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_skl(np.zeros(2), np.zeros((2, 2)), np.zeros(2), np.eye(2))


class TestParamVector:
    def test_softmax_symmetry(self):
        vp = VariationalPosterior.from_vector(
            np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 2, 1
        )
        assert np.allclose(vp.w, [0.5, 0.5])

    def test_gauge_invariance(self):
        rng = np.random.default_rng(16)
        vp = random_vp(3, 2, rng)
        theta = vp.to_vector()
        shifted = theta.copy()
        shifted[-3:] += 11.7
        a = VariationalPosterior.from_vector(theta, 3, 2)
        b = VariationalPosterior.from_vector(shifted, 3, 2)
        assert np.allclose(a.w, b.w)

    def test_round_trip_density(self):
        rng = np.random.default_rng(17)
        vp = random_vp(4, 3, rng)
        vp2 = VariationalPosterior.from_vector(vp.to_vector(), 4, 3)
        xs = rng.normal(size=(100, 3))
        assert np.allclose(vp.logpdf(xs), vp2.logpdf(xs), atol=1e-12)

    def test_parameter_count(self):
        vp = VariationalPosterior(
            [0.5, 0.5], np.zeros((2, 3)), [1.0, 1.0], np.ones(3)
        )
        assert vp.n_params == 2 * (3 + 2) + 3
        assert vp.to_vector().size == vp.n_params

    def test_json_round_trip(self):
        rng = np.random.default_rng(18)
        vp = random_vp(3, 2, rng)
        vp2 = VariationalPosterior.from_json(vp.to_json())
        xs = rng.normal(size=(20, 2))
        assert np.allclose(vp.logpdf(xs), vp2.logpdf(xs))
