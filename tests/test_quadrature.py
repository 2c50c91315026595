import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from oracles import oracle_g_mean, oracle_g_var
from per_draw import (
    draws,
    hyp_row,
    per_draw_wJ,
    prior_set,
    random_sample_set,
    row_kernel,
    scales,
)
from vbmc.gp import TrainingSet, gp_fit
from vbmc.quadrature import (
    elbo,
    expected_log_joint,
    expected_log_joint_variance,
    quadrature,
    z_matrix,
)
from vbmc.variational import VariationalPosterior, entropy_mc


def make_hyp(D=1, **kw):
    base = dict(
        log_ell=np.zeros(D), log_sf=0.0, log_sobs=math.log(1e-3),
        m0=0.0, x_m=np.zeros(D), log_omega=np.zeros(D),
    )
    base.update(kw)
    return hyp_row(**base)


def single_vp(D=1, mu=0.0, sigma=1.0, lam=1.0):
    return VariationalPosterior(
        [1.0], np.full((1, D), mu), [sigma], np.full(D, lam)
    )


def random_case(rng, D, K, n):
    """A random one-draw GP fit and mixture with grid-friendly length scales."""
    hyp = make_hyp(
        D,
        log_ell=rng.uniform(math.log(0.4), math.log(1.2), size=D),
        log_sf=rng.uniform(-0.5, 0.5),
        log_sobs=rng.uniform(math.log(1e-3), math.log(0.1)),
        m0=rng.uniform(-1, 1),
        x_m=rng.uniform(-1, 1, size=D),
        log_omega=rng.uniform(0.0, 1.0, size=D),
    )
    X = rng.uniform(-2.5, 2.5, size=(n, D))
    y = rng.normal(0.0, 1.0, size=n)
    post = gp_fit(TrainingSet(X, y), [hyp])
    vp = VariationalPosterior(
        rng.dirichlet(np.ones(K)),
        rng.uniform(-1.5, 1.5, size=(K, D)),
        rng.uniform(0.5, 1.2, size=K),
        rng.uniform(0.7, 1.3, size=D),
    )
    return vp, post


def one_draw(vp, samples, grad=False):
    """Mean, gradient and per-component integrals under a one-draw set."""
    means, grads, i_k = expected_log_joint(
        vp, samples, *z_matrix(vp, samples), grad=grad
    )
    return means[0], None if grads is None else grads[0], i_k[0]


def one_draw_variance(vp, samples):
    return expected_log_joint_variance(vp, samples, z_matrix(vp, samples)[0])[0]


class TestZMatrix:
    def test_coincident_component_and_point(self):
        hyp = make_hyp()
        post = gp_fit(TrainingSet([[0.3]], [1.0]), [hyp])
        z, _ = z_matrix(single_vp(mu=0.3), post)
        assert z[0, 0, 0] == pytest.approx(1.0 / (math.sqrt(2 * math.pi) * math.sqrt(2.0)))

    def test_zero_scale_limit_is_kernel_density(self):
        hyp = make_hyp()
        post = gp_fit(TrainingSet([[1.0]], [0.5]), [hyp])
        vp = single_vp(mu=0.2, sigma=1e-8)
        z, _ = z_matrix(vp, post)
        # sf2 * N(mu; x_p, ell^2)
        expected = (1.0 / math.sqrt(2 * math.pi)) * math.exp(-0.5 * 0.8**2)
        assert z[0, 0, 0] == pytest.approx(expected, rel=1e-8)

    def test_matches_numerical_quadrature(self):
        hyp = make_hyp(log_ell=[0.2], log_sf=0.3)
        post = gp_fit(TrainingSet([[0.7]], [0.0]), [hyp])
        vp = single_vp(mu=-0.4, sigma=0.8, lam=1.1)
        z, _ = z_matrix(vp, post)

        def integrand(x):
            dens = math.exp(-0.5 * ((x + 0.4) / 0.88) ** 2) / (
                0.88 * math.sqrt(2 * math.pi)
            )
            return dens * row_kernel(np.array([x]), np.array([0.7]), hyp)[0, 0]

        ref, _ = scipy_quad(integrand, -12, 12, epsabs=1e-13, epsrel=1e-12)
        # z stores the integral divided by the kernel's Gaussian normalizer
        normalizer = math.sqrt(2 * math.pi) * scales(hyp)[0][0]
        assert z[0, 0, 0] * normalizer == pytest.approx(ref, rel=1e-8)


class TestExpectedLogJoint:
    def test_prior_only_single_component(self):
        hyp = make_hyp(m0=0.0)
        post = prior_set([hyp])
        vp = single_vp(mu=0.0, sigma=1.0, lam=1.0)
        mean, _, _ = one_draw(vp, post)
        assert mean == pytest.approx(-0.5)

    def test_matches_brute_force_quadrature(self):
        rng = np.random.default_rng(0)
        hyp = make_hyp(log_ell=[-0.2], log_sf=0.2, m0=-0.3, log_omega=[0.8])
        post = gp_fit(TrainingSet([[-1.0], [0.2], [1.1]], [0.5, 1.2, 0.3]), [hyp])
        vp = single_vp(mu=0.3, sigma=0.7, lam=1.0)
        mean, _, _ = one_draw(vp, post)
        assert mean == pytest.approx(oracle_g_mean(vp, post), rel=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for D, K in [(1, 1), (2, 2), (2, 3)]:
            vp, post = random_case(rng, D=D, K=K, n=6)
            _, grad, _ = one_draw(vp, post, grad=True)
            theta0 = vp.to_vector()
            h = 1e-6

            def value(theta):
                v = VariationalPosterior.from_vector(theta, K, D)
                m, _, _ = one_draw(v, post)
                return m

            for i in range(theta0.size):
                tp, tm = theta0.copy(), theta0.copy()
                tp[i] += h
                tm[i] -= h
                fd = (value(tp) - value(tm)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_weight_decomposition_exact(self):
        rng = np.random.default_rng(2)
        vp, post = random_case(rng, D=2, K=3, n=5)
        mean, _, i_k = one_draw(vp, post)
        assert mean == pytest.approx(float(vp.w @ i_k), rel=1e-14)


class TestVariance:
    def test_prior_only_value(self):
        # prior variance of the integral: int int q k q = 1/sqrt(3) for
        # unit scales (the normalized-Gaussian form 1/sqrt(6 pi) times the
        # kernel normalizer sqrt(2 pi)); cross-checked by the grid oracle
        hyp = make_hyp()
        post = prior_set([hyp])
        var = one_draw_variance(single_vp(), post)
        assert var == pytest.approx(1.0 / math.sqrt(3.0))
        assert var == pytest.approx(oracle_g_var(single_vp(), post), rel=1e-6)

    def test_matches_brute_force_double_integral(self):
        rng = np.random.default_rng(3)
        vp, post = random_case(rng, D=1, K=2, n=4)
        var = one_draw_variance(vp, post)
        assert var == pytest.approx(oracle_g_var(vp, post), rel=1e-6)

    def test_nested_training_sets_decrease_variance(self):
        rng = np.random.default_rng(4)
        hyp = make_hyp()
        vp = single_vp(sigma=0.8)
        X = np.linspace(-2, 2, 12)[:, None]
        y = np.sin(X[:, 0])
        prev = np.inf
        for n in [0, 3, 6, 12]:
            post = (
                prior_set([hyp])
                if n == 0
                else gp_fit(TrainingSet(X[:n], y[:n]), [hyp])
            )
            var = one_draw_variance(vp, post)
            assert var <= prev + 1e-12
            prev = var

    def test_nonnegative_on_random_configurations(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            vp, post = random_case(
                rng, D=int(rng.integers(1, 3)), K=int(rng.integers(1, 4)), n=6
            )
            assert one_draw_variance(vp, post) >= 0.0


class TestELBO:
    def test_single_sample_matches_direct_computation(self):
        rng = np.random.default_rng(6)
        vp, post = random_case(rng, D=1, K=2, n=5)
        est = elbo(vp, post, 2**12, np.random.default_rng(7))
        H, _ = entropy_mc(vp, 2**12, np.random.default_rng(7), grad=False)
        mean, _, _ = one_draw(vp, post)
        var = one_draw_variance(vp, post)
        assert est.elbo_mean - H == pytest.approx(mean)
        assert est.elbo_sd**2 == pytest.approx(var)
        assert est.elbo_mean == pytest.approx(mean + H)

    def test_marginalization_combines_samples(self):
        rng = np.random.default_rng(8)
        vp, post1 = random_case(rng, D=1, K=1, n=5)
        hyp2 = make_hyp(log_ell=[0.3], log_sf=0.1)
        post2 = gp_fit(post1.train, [hyp2])
        res = quadrature(vp, gp_fit(post1.train, [post1.theta[0], hyp2]))
        m1, _, _ = one_draw(vp, post1)
        m2, _, _ = one_draw(vp, post2)
        assert res.g_mean == pytest.approx(0.5 * (m1 + m2))
        assert res.between_sample_var == pytest.approx(np.var([m1, m2], ddof=1))

    def test_conjugate_gaussian_stays_below_evidence(self):
        # exact 1-D conjugate problem: N(0,1) prior, N(x; y0, s2) likelihood
        y0, s = 0.5, 0.8
        lml = -0.5 * math.log(2 * math.pi * (1 + s**2)) - 0.5 * y0**2 / (1 + s**2)
        post_var = 1.0 / (1 + 1 / s**2)
        post_mean = post_var * y0 / s**2

        def log_joint(x):
            return (
                -0.5 * math.log(2 * math.pi) - 0.5 * x**2
                - 0.5 * math.log(2 * math.pi * s**2) - 0.5 * (y0 - x) ** 2 / s**2
            )

        X = np.linspace(-3.5, 3.5, 25)[:, None]
        y = np.array([log_joint(x) for x in X[:, 0]])
        hyp = make_hyp(
            log_ell=[math.log(0.7)], log_sf=math.log(5.0),
            log_sobs=math.log(1e-4), m0=float(y.max()), log_omega=[math.log(2.0)],
        )
        post = gp_fit(TrainingSet(X, y), [hyp])
        vp = single_vp(mu=post_mean, sigma=math.sqrt(post_var), lam=1.0)
        est = elbo(vp, post, 2**15, np.random.default_rng(9))
        assert est.elbo_mean <= lml + 3 * est.elbo_sd + 1e-3
        assert est.elbo_mean == pytest.approx(lml, abs=0.05)

    def test_elcbo_values(self):
        rng = np.random.default_rng(10)
        vp, post = random_case(rng, D=1, K=1, n=4)
        est = elbo(vp, post, 256, np.random.default_rng(11))
        assert est.elcbo(0.0) == pytest.approx(est.elbo_mean)
        assert est.elcbo(3.0) == pytest.approx(est.elbo_mean - 3 * est.elbo_sd)
        for beta in [0.0, 1.0, 3.0, 5.0]:
            assert est.elcbo(beta) <= est.elbo_mean + 1e-12


class TestBatchedSet:
    @pytest.mark.parametrize(
        "S, K, updates",
        [(1, 1, 0), (1, 3, 2), (5, 1, 0), (5, 1, 2), (5, 3, 0), (5, 4, 1)],
    )
    def test_matches_per_draw(self, S, K, updates):
        # K = 1 makes the variance's solve one column wide
        rng = np.random.default_rng(10 * S + K + updates)
        samples = random_sample_set(rng, S, n=12, D=2, updates=updates)
        vp = VariationalPosterior(
            rng.dirichlet(np.ones(K)),
            rng.uniform(-1.5, 1.5, size=(K, 2)),
            rng.uniform(0.5, 1.2, size=K),
            rng.uniform(0.7, 1.3, size=2),
        )
        parts = [one_draw(vp, post, grad=True) for post in draws(samples)]
        i_k = np.array([i for _, _, i in parts])
        # the sums over components run over the stack, as in the batched pass:
        # a matrix-vector product rounds a row differently among other rows
        means = i_k @ vp.w
        grads = np.array([g for _, g, _ in parts])
        grads[:, -K:] = vp.w * (i_k - means[:, None])  # the eta block reads the means
        wJ = np.array([per_draw_wJ(vp, post) for post in draws(samples)])
        variances = np.maximum(wJ @ vp.w, 0.0)
        between = float(np.var(means, ddof=1)) if S > 1 else 0.0
        res = quadrature(vp, samples, grad=True)
        assert res.g_mean == float(means.mean())
        assert res.g_var == float(variances.mean() + between)
        assert res.between_sample_var == between
        assert np.array_equal(res.grad, grads.mean(axis=0))
