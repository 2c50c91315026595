import math

import numpy as np
import pytest
from scipy import stats

from vbmc import gp as gpm
from vbmc.gp import (
    GPHyperparams,
    GPHyperprior,
    HyperparamSampleSet,
    TrainingSet,
    default_hyperparams,
    gp_fit,
    log_marginal_likelihood,
    log_marginal_likelihood_grad,
    marginal_predict,
    n_gp_schedule,
    nq_mean,
    optimize_hyperparameters,
    sample_hyperparameters,
    se_kernel_matrix,
    sq_dist,
    student_t_logpdf,
)


def simple_hyp(D=1, log_ell=0.0, log_sf=0.0, log_sobs=-4.0, m0=0.0):
    return GPHyperparams(
        log_ell=np.full(D, log_ell),
        log_sf=log_sf,
        log_sobs=log_sobs,
        m0=m0,
        x_m=np.zeros(D),
        log_omega=np.full(D, 2.0),
    )


def draw_gp_data(hyp, n, rng, box=3.0):
    D = hyp.D
    X = rng.uniform(-box, box, size=(n, D))
    K = se_kernel_matrix(X, X, hyp) + (hyp.sobs**2 + 1e-10) * np.eye(n)
    y = nq_mean(X, hyp) + np.linalg.cholesky(K) @ rng.standard_normal(n)
    return TrainingSet(X, y)


class TestKernelAndMean:
    def test_kernel_at_identical_inputs(self):
        hyp = simple_hyp(D=3, log_sf=0.4)
        x = np.array([0.3, -1.0, 2.0])
        assert se_kernel_matrix(x, x, hyp)[0, 0] == pytest.approx(hyp.sf2)

    def test_kernel_unit_distance(self):
        hyp = simple_hyp()
        k = se_kernel_matrix([0.0], [1.0], hyp)[0, 0]
        assert k == pytest.approx(math.exp(-0.5))

    def test_kernel_decay_and_symmetry(self):
        hyp = simple_hyp(D=2)
        xs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0], [50.0, 0.0]])
        k = se_kernel_matrix(xs[:1], xs, hyp)[0]
        assert np.all(np.diff(k) < 0)
        assert k[-1] < 1e-200 or k[-1] == 0.0
        K = se_kernel_matrix(xs, xs, hyp)
        assert np.allclose(K, K.T)

    def test_nq_mean_maximum(self):
        hyp = simple_hyp(D=2, m0=1.5)
        assert nq_mean(hyp.x_m, hyp)[0] == pytest.approx(1.5)

    def test_nq_mean_value(self):
        hyp = GPHyperparams(
            log_ell=[0.0], log_sf=0.0, log_sobs=-4.0, m0=0.0,
            x_m=[0.0], log_omega=[0.0],
        )
        assert nq_mean(np.array([[2.0]]), hyp)[0] == pytest.approx(-2.0)

    def test_nq_mean_dominates_at_infinity(self):
        hyp = simple_hyp(D=1)
        assert nq_mean(np.array([[1e6]]), hyp)[0] < -1e9


class TestSqDist:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(5, 3))
        brute = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        assert np.allclose(sq_dist(a, b), brute, rtol=1e-12, atol=1e-12)

    def test_never_negative_near_identical_rows(self):
        # far from the origin the expansion cancels |a|^2 against 2 a.b,
        # where rounding alone would give negative entries
        rng = np.random.default_rng(21)
        for D in (1, 2, 6):
            a = 1e4 + rng.normal(size=(40, D))
            b = a + 1e-9 * rng.normal(size=a.shape)
            assert np.all(sq_dist(a, b) >= 0.0)
            assert np.all(sq_dist(a, a) >= 0.0)

    def test_identical_rows(self):
        # one dimension: |a|^2 - 2 a a + |a|^2 cancels exactly
        rng = np.random.default_rng(22)
        a = 1e4 + rng.normal(size=(30, 1))
        assert np.all(np.diag(sq_dist(a, a)) == 0.0)
        # more dimensions: BLAS and np.sum round the two dot products
        # differently, so only a few ulps of |a|^2 remain
        a = 1e4 + rng.normal(size=(30, 6))
        norms = np.sum(a * a, axis=1)
        assert np.all(np.diag(sq_dist(a, a)) <= 16 * np.finfo(float).eps * norms)


class TestPosterior:
    def test_single_point_interpolation(self):
        hyp = simple_hyp(log_sobs=math.log(1e-4))
        train = TrainingSet([[0.5]], [2.0])
        post = gp_fit(train, hyp)
        mean, var = post.predict([[0.5]])
        # closed form for one point: f = m + k/(k+s2) (y - m)
        s2 = hyp.sobs**2
        expected_mean = nq_mean([[0.5]], hyp)[0] + 1.0 / (1.0 + s2) * (
            2.0 - nq_mean([[0.5]], hyp)[0]
        )
        expected_var = 1.0 - 1.0 / (1.0 + s2)
        assert mean[0] == pytest.approx(expected_mean, rel=1e-10)
        assert var[0] == pytest.approx(expected_var, rel=1e-4)

    def test_interpolates_training_data(self):
        rng = np.random.default_rng(1)
        hyp = simple_hyp(D=2, log_sobs=math.log(1e-4))
        train = draw_gp_data(hyp, 12, rng, box=1.5)
        post = gp_fit(train, hyp)
        mean, _ = post.predict(train.X)
        assert np.max(np.abs(mean - train.y)) <= 3 * hyp.sobs

    def test_two_point_brute_force(self):
        hyp = simple_hyp(log_sobs=math.log(0.05), m0=-0.5)
        X = np.array([[0.0], [1.3]])
        y = np.array([0.7, -0.2])
        post = gp_fit(TrainingSet(X, y), hyp)
        xs = np.array([[0.4]])
        Kxx = se_kernel_matrix(X, X, hyp) + hyp.sobs**2 * np.eye(2)
        ks = se_kernel_matrix(X, xs, hyp)[:, 0]
        w = np.linalg.inv(Kxx) @ (y - nq_mean(X, hyp))
        mean_bf = nq_mean(xs, hyp)[0] + ks @ w
        var_bf = hyp.sf2 - ks @ np.linalg.inv(Kxx) @ ks
        mean, var = post.predict(xs)
        assert mean[0] == pytest.approx(mean_bf, abs=1e-10)
        assert var[0] == pytest.approx(var_bf, abs=1e-10)

    def test_far_field_reverts_to_prior(self):
        hyp = simple_hyp(D=2)
        rng = np.random.default_rng(2)
        train = draw_gp_data(hyp, 8, rng, box=1.0)
        post = gp_fit(train, hyp)
        far = np.array([[60.0, -55.0]])
        mean, var = post.predict(far)
        assert mean[0] == pytest.approx(nq_mean(far, hyp)[0], abs=1e-9)
        assert var[0] == pytest.approx(hyp.sf2, rel=1e-9)

    def test_variance_shrinks_at_data(self):
        hyp = simple_hyp()
        post = gp_fit(TrainingSet([[0.0]], [1.0]), hyp)
        _, v_at = post.predict([[0.0]])
        _, v_far = post.predict([[30.0]])
        assert v_at[0] <= v_far[0]

    def test_prior_posterior_empty(self):
        hyp = simple_hyp(D=2, m0=0.7)
        post = gpm.GPPosterior.prior(hyp, 2)
        mean, var = post.predict([[1.0, 2.0]])
        assert mean[0] == pytest.approx(nq_mean([[1.0, 2.0]], hyp)[0])
        assert var[0] == pytest.approx(hyp.sf2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        hyp = simple_hyp(D=2, log_sobs=-3.0)
        train = draw_gp_data(hyp, 15, rng)
        perm = rng.permutation(15)
        post1 = gp_fit(train, hyp)
        post2 = gp_fit(TrainingSet(train.X[perm], train.y[perm]), hyp)
        xs = rng.uniform(-3, 3, size=(40, 2))
        m1, v1 = post1.predict(xs)
        m2, v2 = post2.predict(xs)
        assert np.allclose(m1, m2, atol=1e-8)
        assert np.allclose(v1, v2, atol=1e-8)

    def test_variance_nonnegative_everywhere(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            hyp = simple_hyp(
                D=2,
                log_ell=rng.uniform(-1, 1),
                log_sf=rng.uniform(-1, 1),
                log_sobs=rng.uniform(-6, -2),
            )
            train = draw_gp_data(hyp, 25, rng)
            post = gp_fit(train, hyp)
            xs = rng.uniform(-4, 4, size=(2000, 2))
            _, var = post.predict(xs)
            assert np.all(var >= 0)


class TestRank1Update:
    def test_update_equals_refit(self):
        rng = np.random.default_rng(5)
        hyp = simple_hyp(D=2, log_sobs=-3.0)
        for _ in range(5):
            train = draw_gp_data(hyp, 5, rng)
            post = gp_fit(train, hyp)
            xs = rng.uniform(-3, 3, size=(100, 2))
            for _ in range(3):
                x_new = rng.uniform(-3, 3, size=2)
                y_new = rng.normal()
                post = post.with_point(x_new, y_new)
                refit = gp_fit(post.train, hyp)
                m1, v1 = post.predict(xs)
                m2, v2 = refit.predict(xs)
                assert np.allclose(m1, m2, atol=1e-8)
                assert np.allclose(v1, v2, atol=1e-8)

    def test_far_point_leaves_local_predictions(self):
        rng = np.random.default_rng(6)
        hyp = simple_hyp(D=2)
        train = draw_gp_data(hyp, 10, rng, box=1.0)
        post = gp_fit(train, hyp)
        xs = rng.uniform(-1, 1, size=(50, 2))
        m_before, v_before = post.predict(xs)
        post2 = post.with_point(np.array([80.0, 80.0]), 0.3)
        m_after, v_after = post2.predict(xs)
        assert np.allclose(m_before, m_after, atol=1e-6)
        assert np.allclose(v_before, v_after, atol=1e-6)

    def test_variance_at_inserted_point(self):
        hyp = simple_hyp(D=1, log_sobs=math.log(1e-3))
        post = gp_fit(TrainingSet([[0.0]], [0.5]), hyp)
        post2 = post.with_point(np.array([2.0]), -0.1)
        _, var = post2.predict([[2.0]])
        assert var[0] < 10 * hyp.sobs**2 + 1e-6

    def test_duplicate_rejected(self):
        hyp = simple_hyp()
        post = gp_fit(TrainingSet([[1.0]], [0.0]), hyp)
        with pytest.raises(ValueError, match="duplicate"):
            post.train.with_point(np.array([1.0]), 0.2)


class TestMarginalLikelihood:
    def test_single_formula_matches_brute_force(self):
        rng = np.random.default_rng(23)
        hyp = simple_hyp(D=2, log_sobs=-2.0, m0=0.3)
        train = draw_gp_data(hyp, 12, rng)
        lml = log_marginal_likelihood(train, hyp)
        assert lml == gp_fit(train, hyp).lml
        cov = se_kernel_matrix(train.X, train.X, hyp) + hyp.sobs**2 * np.eye(12)
        ref = stats.multivariate_normal(nq_mean(train.X, hyp), cov).logpdf(train.y)
        assert lml == pytest.approx(ref, rel=1e-10)

    def test_empty_training_set(self):
        hyp = simple_hyp(D=2)
        empty = TrainingSet(np.empty((0, 2)), np.empty(0))
        assert log_marginal_likelihood(empty, hyp) == 0.0
        assert gpm.GPPosterior.prior(hyp, 2).lml == 0.0

    def test_jitter_escalation_reports_largest_jitter(self, monkeypatch):
        attempts = []

        def failing_cholesky(K, **kw):
            attempts.append(K[0, 0])
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gpm, "cholesky", failing_cholesky)
        hyp = simple_hyp(D=1, log_sf=0.5, log_sobs=-2.0)
        train = TrainingSet([[0.0], [1.0], [2.5]], [0.1, 0.4, -0.3])
        with pytest.raises(gpm.GPTrainingError) as info:
            gp_fit(train, hyp)
        assert len(attempts) == 6
        # zero, then 1e-10 .. 1e-6 times tr(K)/n = sf2 + sobs^2
        base = hyp.sf2 + hyp.sobs**2
        added = np.array(attempts) - attempts[0]
        assert added[0] == 0.0
        assert added[1:] == pytest.approx(base * 10.0 ** np.arange(-10, -5), rel=1e-4)
        reported = float(str(info.value).rsplit(" ", 1)[1])
        assert reported == pytest.approx(1e-6 * base, rel=1e-5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        hyp = GPHyperparams(
            log_ell=[0.2, -0.3],
            log_sf=0.5,
            log_sobs=-2.0,
            m0=0.4,
            x_m=[0.3, -0.2],
            log_omega=[1.0, 1.4],
        )
        train = draw_gp_data(hyp, 20, rng)
        theta = hyp.to_vector()
        _, grad = log_marginal_likelihood_grad(train, hyp)
        h = 1e-5
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (
                log_marginal_likelihood(train, GPHyperparams.from_vector(tp, 2))
                - log_marginal_likelihood(train, GPHyperparams.from_vector(tm, 2))
            ) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestHyperprior:
    def test_student_t_matches_scipy(self):
        for mu, scale, x in [(0.0, 1.0, 0.0), (-6.9, 0.5, -6.9), (2.0, 3.0, -1.0)]:
            ours = student_t_logpdf(x, mu, scale)
            ref = stats.t.logpdf(x, df=3, loc=mu, scale=scale)
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_uniform_directions_do_not_change_prior(self):
        rng = np.random.default_rng(8)
        train = draw_gp_data(simple_hyp(D=2), 10, rng)
        prior = GPHyperprior(train)
        theta = default_hyperparams(train).to_vector()
        base = prior.logpdf(theta)
        sl = GPHyperprior._slices(2)
        for name in ("log_sf", "x_m", "log_omega"):
            shifted = theta.copy()
            shifted[sl[name]] += 0.37
            assert prior.logpdf(shifted) == pytest.approx(base)

    def test_noise_prior_peaks_at_table_mean(self):
        rng = np.random.default_rng(9)
        train = draw_gp_data(simple_hyp(D=1), 10, rng)
        prior = GPHyperprior(train)
        sl = GPHyperprior._slices(1)
        theta = default_hyperparams(train).to_vector()
        at_mode = theta.copy()
        at_mode[sl["log_sobs"]] = math.log(0.001)
        off = theta.copy()
        off[sl["log_sobs"]] = math.log(0.001) + 0.8
        assert prior.logpdf(at_mode) > prior.logpdf(off)

    def test_degenerate_hpd_scale_floored(self):
        # identical y values: diam[y] = 0, scale must stay positive
        train = TrainingSet([[0.0], [1.0], [2.0]], [1.0, 1.0, 1.0])
        prior = GPHyperprior(train)
        assert np.all(prior.scale >= GPHyperprior.SCALE_FLOOR)
        assert np.isfinite(prior.logpdf(default_hyperparams(train).to_vector()))


class TestHyperparameterInference:
    def test_n_gp_schedule(self):
        assert n_gp_schedule(64) == 10
        assert n_gp_schedule(100) == 8
        assert n_gp_schedule(25) == 16

    def test_slice_samples_concentrate_near_truth(self):
        rng = np.random.default_rng(10)
        true = simple_hyp(D=1, log_ell=0.0, log_sf=0.3, log_sobs=math.log(0.01))
        train = draw_gp_data(true, 40, rng)
        samples = sample_hyperparameters(train, 8, default_hyperparams(train), rng)
        prior = GPHyperprior(train)
        log_ells = np.array([p.hyp.log_ell[0] for p in samples])
        assert abs(np.median(log_ells) - true.log_ell[0]) < prior.scale[0]

    def test_map_no_decrease_from_optimum(self):
        rng = np.random.default_rng(11)
        true = simple_hyp(D=1, log_sobs=math.log(0.05))
        train = draw_gp_data(true, 25, rng)

        def objective(h):
            return log_marginal_likelihood(train, h) + GPHyperprior(train).logpdf(
                h.to_vector()
            )

        opt = optimize_hyperparameters(train, default_hyperparams(train), rng)
        opt2 = optimize_hyperparameters(train, opt, rng)
        assert objective(opt2) >= objective(opt) - 1e-6

    def test_map_gradient_small_at_solution(self):
        rng = np.random.default_rng(12)
        true = simple_hyp(D=1, log_sobs=math.log(0.05))
        train = draw_gp_data(true, 25, rng)
        opt = optimize_hyperparameters(train, default_hyperparams(train), rng)
        prior = GPHyperprior(train)
        lml, grad = log_marginal_likelihood_grad(train, opt)
        total = grad + prior.grad_logpdf(opt.to_vector())
        # flat directions can sit on their rails; check interior coordinates
        theta = opt.to_vector()
        interior = (theta > prior.lower + 1e-9) & (theta < prior.upper - 1e-9)
        scaled = np.abs(total[interior]) / max(1.0, abs(lml))
        assert np.max(scaled) < 1e-5

    def test_map_recovers_length_scale(self):
        rng = np.random.default_rng(13)
        true = simple_hyp(D=1, log_ell=0.3, log_sf=0.5, log_sobs=math.log(0.02))
        train = draw_gp_data(true, 50, rng)
        opt = optimize_hyperparameters(train, default_hyperparams(train), rng)
        assert abs(opt.log_ell[0] - true.log_ell[0]) < 0.5


class TestMarginalPredict:
    def test_single_sample_equals_plain_predict(self):
        rng = np.random.default_rng(14)
        hyp = simple_hyp(D=2)
        train = draw_gp_data(hyp, 10, rng)
        post = gp_fit(train, hyp)
        samples = HyperparamSampleSet([post])
        xs = rng.uniform(-2, 2, size=(20, 2))
        m1, v1 = post.predict(xs)
        m2, v2 = marginal_predict(samples, xs)
        assert np.array_equal(m1, m2)
        assert np.array_equal(v1, v2)

    def test_two_identical_samples(self):
        hyp = simple_hyp()
        post = gp_fit(TrainingSet([[0.0]], [1.0]), hyp)
        samples = HyperparamSampleSet([post, post])
        xs = np.array([[0.5]])
        m, v = marginal_predict(samples, xs)
        m1, v1 = post.predict(xs)
        assert m[0] == pytest.approx(m1[0])
        assert v[0] == pytest.approx(v1[0])

    def test_between_sample_variance_added(self):
        class FakePost:
            def __init__(self, m, v):
                self.m, self.v = m, v

            def predict(self, X):
                n = np.atleast_2d(X).shape[0]
                return np.full(n, self.m), np.full(n, self.v)

        samples = [FakePost(0.0, 1.0), FakePost(2.0, 1.0)]
        m, v = marginal_predict(samples, np.zeros((1, 1)))
        assert m[0] == pytest.approx(1.0)
        assert v[0] == pytest.approx(1.0 + np.var([0.0, 2.0], ddof=1))
