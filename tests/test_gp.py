import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular

from per_draw import (
    blocks,
    draws,
    hyp_row,
    per_draw_latent,
    per_draw_lml,
    per_draw_predict,
    per_draw_sample_hyperparameters,
    per_draw_update,
    prior_set,
    random_hyp,
    random_sample_set,
    row_kernel,
    row_mean,
    scales,
    scipy_factor_gram,
    scipy_lml_grad,
    scipy_solve_lower,
    student_t_logpdf,
    summed_prior_logpdf,
)
from vbmc import gp as gpm
from vbmc.gp import (
    SIGMA_OBS_FLOOR,
    GPHyperprior,
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
    sq_dist,
)


def simple_hyp(D=1, log_ell=0.0, log_sf=0.0, log_sobs=-4.0, m0=0.0):
    return hyp_row(
        log_ell=np.full(D, log_ell),
        log_sf=log_sf,
        log_sobs=log_sobs,
        m0=m0,
        x_m=np.zeros(D),
        log_omega=np.full(D, 2.0),
    )


def draw_gp_data(hyp, n, rng, box=3.0):
    D = blocks(hyp)[0].size
    X = rng.uniform(-box, box, size=(n, D))
    K = row_kernel(X, X, hyp) + (scales(hyp)[2] ** 2 + 1e-10) * np.eye(n)
    y = row_mean(X, hyp) + np.linalg.cholesky(K) @ rng.standard_normal(n)
    return TrainingSet(X, y)


class TestKernelAndMean:
    def test_kernel_at_identical_inputs(self):
        hyp = simple_hyp(D=3, log_sf=0.4)
        x = np.array([0.3, -1.0, 2.0])
        assert row_kernel(x, x, hyp)[0, 0] == pytest.approx(scales(hyp)[1])

    def test_kernel_unit_distance(self):
        hyp = simple_hyp()
        k = row_kernel([0.0], [1.0], hyp)[0, 0]
        assert k == pytest.approx(math.exp(-0.5))

    def test_kernel_decay_and_symmetry(self):
        hyp = simple_hyp(D=2)
        xs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0], [50.0, 0.0]])
        k = row_kernel(xs[:1], xs, hyp)[0]
        assert np.all(np.diff(k) < 0)
        assert k[-1] < 1e-200 or k[-1] == 0.0
        K = row_kernel(xs, xs, hyp)
        assert np.allclose(K, K.T)

    def test_nq_mean_maximum(self):
        hyp = simple_hyp(D=2, m0=1.5)
        assert row_mean(blocks(hyp)[4], hyp)[0] == pytest.approx(1.5)

    def test_nq_mean_value(self):
        hyp = hyp_row(
            log_ell=[0.0], log_sf=0.0, log_sobs=-4.0, m0=0.0,
            x_m=[0.0], log_omega=[0.0],
        )
        assert row_mean(np.array([[2.0]]), hyp)[0] == pytest.approx(-2.0)

    def test_nq_mean_dominates_at_infinity(self):
        hyp = simple_hyp(D=1)
        assert row_mean(np.array([[1e6]]), hyp)[0] < -1e9

    @pytest.mark.parametrize("D", [1, 2, 6, 10])
    def test_nq_mean_of_a_stack_matches_each_draw(self, D):
        # a sample set takes every draw's residual from one call on its
        # unpacked stacks; the slice target calls nq_mean on one row
        rng = np.random.default_rng(70 + D)
        X = rng.uniform(-3.0, 3.0, size=(40, D))
        theta = np.array([random_hyp(rng, D) for _ in range(25)])
        theta[:, gpm._layout(D)["log_omega"]] = rng.uniform(-3.0, 3.0, size=(25, D))
        *_, m0, x_m, omega = gpm._unpack(theta, D)
        stacked = nq_mean(X, m0, x_m, omega)
        sl = gpm._layout(D)
        for s, row in enumerate(theta):
            own = nq_mean(X, row[sl["m0"]], row[sl["x_m"]], np.exp(row[sl["log_omega"]]))
            assert np.array_equal(stacked[s], own), s


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
        post = gp_fit(train, [hyp])
        mean, var = marginal_predict(post, [[0.5]])
        # closed form for one point: f = m + k/(k+s2) (y - m)
        s2 = scales(hyp)[2] ** 2
        expected_mean = row_mean([[0.5]], hyp)[0] + 1.0 / (1.0 + s2) * (
            2.0 - row_mean([[0.5]], hyp)[0]
        )
        expected_var = 1.0 - 1.0 / (1.0 + s2)
        assert mean[0] == pytest.approx(expected_mean, rel=1e-10)
        assert var[0] == pytest.approx(expected_var, rel=1e-4)

    def test_interpolates_training_data(self):
        rng = np.random.default_rng(1)
        hyp = simple_hyp(D=2, log_sobs=math.log(1e-4))
        train = draw_gp_data(hyp, 12, rng, box=1.5)
        post = gp_fit(train, [hyp])
        mean, _ = marginal_predict(post, train.X)
        assert np.max(np.abs(mean - train.y)) <= 3 * scales(hyp)[2]

    def test_two_point_brute_force(self):
        hyp = simple_hyp(log_sobs=math.log(0.05), m0=-0.5)
        X = np.array([[0.0], [1.3]])
        y = np.array([0.7, -0.2])
        post = gp_fit(TrainingSet(X, y), [hyp])
        xs = np.array([[0.4]])
        _, sf2, sobs = scales(hyp)
        Kxx = row_kernel(X, X, hyp) + sobs**2 * np.eye(2)
        ks = row_kernel(X, xs, hyp)[:, 0]
        w = np.linalg.inv(Kxx) @ (y - row_mean(X, hyp))
        mean_bf = row_mean(xs, hyp)[0] + ks @ w
        var_bf = sf2 - ks @ np.linalg.inv(Kxx) @ ks
        mean, var = marginal_predict(post, xs)
        assert mean[0] == pytest.approx(mean_bf, abs=1e-10)
        assert var[0] == pytest.approx(var_bf, abs=1e-10)

    def test_far_field_reverts_to_prior(self):
        hyp = simple_hyp(D=2)
        rng = np.random.default_rng(2)
        train = draw_gp_data(hyp, 8, rng, box=1.0)
        post = gp_fit(train, [hyp])
        far = np.array([[60.0, -55.0]])
        mean, var = marginal_predict(post, far)
        assert mean[0] == pytest.approx(row_mean(far, hyp)[0], abs=1e-9)
        assert var[0] == pytest.approx(scales(hyp)[1], rel=1e-9)

    def test_variance_shrinks_at_data(self):
        hyp = simple_hyp()
        post = gp_fit(TrainingSet([[0.0]], [1.0]), [hyp])
        _, v_at = marginal_predict(post, [[0.0]])
        _, v_far = marginal_predict(post, [[30.0]])
        assert v_at[0] <= v_far[0]

    def test_prior_posterior_empty(self):
        hyp = simple_hyp(D=2, m0=0.7)
        post = prior_set([hyp], 2)
        mean, var = marginal_predict(post, [[1.0, 2.0]])
        assert mean[0] == pytest.approx(row_mean([[1.0, 2.0]], hyp)[0])
        assert var[0] == pytest.approx(scales(hyp)[1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        hyp = simple_hyp(D=2, log_sobs=-3.0)
        train = draw_gp_data(hyp, 15, rng)
        perm = rng.permutation(15)
        post1 = gp_fit(train, [hyp])
        post2 = gp_fit(TrainingSet(train.X[perm], train.y[perm]), [hyp])
        xs = rng.uniform(-3, 3, size=(40, 2))
        m1, v1 = marginal_predict(post1, xs)
        m2, v2 = marginal_predict(post2, xs)
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
            post = gp_fit(train, [hyp])
            xs = rng.uniform(-4, 4, size=(2000, 2))
            _, var = marginal_predict(post, xs)
            assert np.all(var >= 0)


class TestRank1Update:
    def test_update_equals_refit(self):
        rng = np.random.default_rng(5)
        hyp = simple_hyp(D=2, log_sobs=-3.0)
        for _ in range(5):
            train = draw_gp_data(hyp, 5, rng)
            post = gp_fit(train, [hyp])
            xs = rng.uniform(-3, 3, size=(100, 2))
            for _ in range(3):
                x_new = rng.uniform(-3, 3, size=2)
                y_new = rng.normal()
                post = post.with_point(x_new, y_new)
                refit = gp_fit(post.train, [hyp])
                m1, v1 = marginal_predict(post, xs)
                m2, v2 = marginal_predict(refit, xs)
                assert np.allclose(m1, m2, atol=1e-8)
                assert np.allclose(v1, v2, atol=1e-8)

    def test_far_point_leaves_local_predictions(self):
        rng = np.random.default_rng(6)
        hyp = simple_hyp(D=2)
        train = draw_gp_data(hyp, 10, rng, box=1.0)
        post = gp_fit(train, [hyp])
        xs = rng.uniform(-1, 1, size=(50, 2))
        m_before, v_before = marginal_predict(post, xs)
        post2 = post.with_point(np.array([80.0, 80.0]), 0.3)
        m_after, v_after = marginal_predict(post2, xs)
        assert np.allclose(m_before, m_after, atol=1e-6)
        assert np.allclose(v_before, v_after, atol=1e-6)

    def test_variance_at_inserted_point(self):
        hyp = simple_hyp(D=1, log_sobs=math.log(1e-3))
        post = gp_fit(TrainingSet([[0.0]], [0.5]), [hyp])
        post2 = post.with_point(np.array([2.0]), -0.1)
        _, var = marginal_predict(post2, [[2.0]])
        assert var[0] < 10 * scales(hyp)[2] ** 2 + 1e-6

    @pytest.mark.parametrize("S", [1, 6])
    @pytest.mark.parametrize("updates", [0, 1, 2, 3])
    def test_batched_update_matches_per_draw(self, S, updates):
        rng = np.random.default_rng(10 * S + updates)
        samples = random_sample_set(rng, S, n=15, D=2, updates=updates)
        x_new, y_new = rng.uniform(-2, 2, size=2), rng.normal()
        updated = samples.with_point(x_new, y_new)
        # one memory order: a C stack after a fit and after an update
        assert samples.L.flags.c_contiguous
        assert updated.L.flags.c_contiguous
        for s in range(S):
            L, jitter, alpha, lml, refit = per_draw_update(samples, s, x_new, y_new)
            assert not refit
            assert np.array_equal(updated.L[s], L)
            assert np.array_equal(updated.alpha[s], alpha)
            assert updated.jitter[s] == jitter
            assert updated.lml[s] == lml

    def test_lost_pivot_refits_the_draw(self, monkeypatch):
        # tiny noise and a large output scale: bordering a near-duplicate
        # point leaves a pivot of order sobs^2 = 1e-10 against rounding of
        # order eps * sf2 = 2e-9, so some draws lose positive definiteness;
        # their refits need jitter, which the second point's pivots include
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(20, 2))
        y = rng.normal(size=20)
        hyps = []
        for _ in range(6):
            log_ell, _, log_sobs, m0, x_m, log_omega = blocks(
                random_hyp(rng, 2, log_sobs=math.log(1e-5))
            )
            hyps.append(hyp_row(log_ell + 1.0, 8.0, log_sobs, m0, x_m, log_omega))
        samples = gp_fit(TrainingSet(X, y), hyps)
        factor_gram = gpm._factor_gram
        refits = []

        def spy(train, theta):
            refits[-1].append(theta.tolist())
            return factor_gram(train, theta)

        for x_new, y_new in [(X[3] + 1e-6, 0.1), (X[5] + 1e-6, 0.2)]:
            refits.append([])
            monkeypatch.setattr(gpm, "_factor_gram", spy)
            updated = samples.with_point(x_new, y_new)
            monkeypatch.setattr(gpm, "_factor_gram", factor_gram)
            # the reference refits a draw with a fresh gp_fit
            expected = [per_draw_update(samples, s, x_new, y_new) for s in range(6)]
            assert refits[-1] == [h.tolist() for h, e in zip(hyps, expected) if e[4]]
            for s, (L, jitter, alpha, _, refit) in enumerate(expected):
                if refit:
                    assert updated.lml[s] == gp_fit(updated.train, [hyps[s]]).lml[0]
                assert np.array_equal(updated.L[s], L)
                assert np.array_equal(updated.alpha[s], alpha)
                assert updated.jitter[s] == jitter
            samples = updated
            if len(refits) == 1:
                assert refits[0] and np.any(samples.jitter > 0)

    def test_duplicate_rejected(self):
        hyp = simple_hyp()
        post = gp_fit(TrainingSet([[1.0]], [0.0]), [hyp])
        with pytest.raises(ValueError, match="duplicate"):
            post.train.with_point(np.array([1.0]), 0.2)


class TestMarginalLikelihood:
    def test_single_formula_matches_brute_force(self):
        rng = np.random.default_rng(23)
        hyp = simple_hyp(D=2, log_sobs=-2.0, m0=0.3)
        train = draw_gp_data(hyp, 12, rng)
        lml = log_marginal_likelihood(train, hyp, {})
        assert lml == gp_fit(train, [hyp]).lml[0]
        cov = row_kernel(train.X, train.X, hyp) + scales(hyp)[2] ** 2 * np.eye(12)
        ref = stats.multivariate_normal(row_mean(train.X, hyp), cov).logpdf(train.y)
        assert lml == pytest.approx(ref, rel=1e-10)

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="at least one point"):
            TrainingSet(np.empty((0, 2)), np.empty(0))

    def test_jitter_escalation_reports_largest_jitter(self, monkeypatch):
        attempts = []

        def failing_dpotrf(K, **kw):
            attempts.append(K[0, 0])
            return K, 1  # LAPACK's info > 0: a leading minor is not positive

        monkeypatch.setattr(gpm, "dpotrf", failing_dpotrf)
        hyp = simple_hyp(D=1, log_sf=0.5, log_sobs=-2.0)
        train = TrainingSet([[0.0], [1.0], [2.5]], [0.1, 0.4, -0.3])
        with pytest.raises(gpm.GPTrainingError) as info:
            gp_fit(train, [hyp])
        assert len(attempts) == 6
        # zero, then 1e-10 .. 1e-6 times tr(K)/n = sf2 + sobs^2
        _, sf2, sobs = scales(hyp)
        base = sf2 + sobs**2
        added = np.array(attempts) - attempts[0]
        assert added[0] == 0.0
        assert added[1:] == pytest.approx(base * 10.0 ** np.arange(-10, -5), rel=1e-4)
        reported = float(str(info.value).rsplit(" ", 1)[1])
        assert reported == pytest.approx(1e-6 * base, rel=1e-5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        theta = hyp_row(
            log_ell=[0.2, -0.3],
            log_sf=0.5,
            log_sobs=-2.0,
            m0=0.4,
            x_m=[0.3, -0.2],
            log_omega=[1.0, 1.4],
        )
        train = draw_gp_data(theta, 20, rng)
        _, grad = log_marginal_likelihood_grad(train, theta)
        h = 1e-5
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (
                log_marginal_likelihood(train, tp, {})
                - log_marginal_likelihood(train, tm, {})
            ) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def near_duplicate_set(rng):
    """Training data and a draw whose Gram matrix needs jitter: five
    near-duplicate inputs, sf2 = e^16 and sobs = 1e-5."""
    X = rng.uniform(-1, 1, size=(20, 2))
    X = np.vstack([X, X[:5] + 1e-7])
    log_ell, _, log_sobs, m0, x_m, log_omega = blocks(
        random_hyp(rng, 2, log_sobs=math.log(1e-5))
    )
    hyp = hyp_row(log_ell + 1.0, 8.0, log_sobs, m0, x_m, log_omega)
    return TrainingSet(X, rng.normal(size=25)), hyp


class TestDirectLapackMatchesScipy:
    """The direct LAPACK calls give the bits of the scipy wrappers they replace."""

    @pytest.mark.parametrize("S", [1, 6])
    @pytest.mark.parametrize("updates", [0, 1])
    def test_solve_lower(self, S, updates):
        rng = np.random.default_rng(S + 10 * updates)
        L = random_sample_set(rng, S, n=15, D=2, updates=updates).L
        # a C stack after a fit and after an update
        assert L.flags.c_contiguous
        for cols in (1, 7):
            c_rhs = rng.normal(size=(S, 15 + updates, cols))
            f_rhs = np.swapaxes(rng.normal(size=(S, cols, 15 + updates)), -1, -2)
            for B in (c_rhs, f_rhs):
                assert np.array_equal(gpm._solve_lower(L, B), scipy_solve_lower(L, B))

    @pytest.mark.parametrize("S", [1, 6])
    @pytest.mark.parametrize("cols", [1, 7])
    def test_solve_lower_lays_out_blocks_as_a_stack(self, S, cols):
        # a product's BLAS path reads the strides, so the solved blocks keep
        # the layout np.stack gives the Fortran blocks dtrtrs returns
        rng = np.random.default_rng(10 * S + cols)
        L = random_sample_set(rng, S, n=15, D=2).L
        B = rng.normal(size=(S, 15, cols))
        stacked = np.stack([solve_triangular(L_s, B_s, lower=True) for L_s, B_s in zip(L, B)])
        got = gpm._solve_lower(L, B)
        assert got.strides == stacked.strides
        assert np.array_equal(got, stacked)

    def test_factor_gram(self):
        rng = np.random.default_rng(31)
        cases = [(draw_gp_data(hyp, 30, rng), hyp) for hyp in (simple_hyp(D=2),)]
        cases += [near_duplicate_set(rng)]
        for train, hyp in cases:
            L, jitter = gpm._factor_gram(train, hyp)
            L_ref, jitter_ref = scipy_factor_gram(train, hyp)
            assert L.flags.f_contiguous and L_ref.flags.f_contiguous
            assert np.array_equal(L, L_ref)
            assert jitter == jitter_ref
        assert jitter > 0  # the near-duplicate case escalated

    def test_lml_and_gradient(self):
        rng = np.random.default_rng(32)
        cases = [near_duplicate_set(rng)]
        for n, D in [(12, 1), (30, 2), (45, 3)]:
            X = rng.uniform(-2, 2, size=(n, D))
            train = TrainingSet(X, rng.normal(size=n))
            cases += [(train, random_hyp(rng, D)) for _ in range(5)]
        for train, hyp in cases:
            lml_ref, grad_ref = scipy_lml_grad(train, hyp)
            assert log_marginal_likelihood(train, hyp, {}) == lml_ref
            lml, grad = log_marginal_likelihood_grad(train, hyp)
            assert lml == lml_ref
            assert np.array_equal(grad, grad_ref)

    def test_hyperprior_logpdf(self):
        rng = np.random.default_rng(33)
        for D in (1, 2, 6):
            train = draw_gp_data(simple_hyp(D=D), 20, rng)
            prior = GPHyperprior(train)
            center = default_hyperparams(train)
            for _ in range(20):
                theta = prior.sample(center, rng)
                assert prior.logpdf(theta) == summed_prior_logpdf(prior, theta)


class TestHyperprior:
    def test_hard_bounds(self):
        rng = np.random.default_rng(34)
        train = draw_gp_data(simple_hyp(D=2), 20, rng)
        prior = GPHyperprior(train)
        center = default_hyperparams(train)
        for i in range(center.size):
            for bound, step in ((prior.lower[i], -1e-9), (prior.upper[i], 1e-9)):
                if not np.isfinite(bound):
                    continue
                theta = center.copy()
                theta[i] = bound
                assert np.isfinite(prior.logpdf(theta)), i
                theta[i] = bound + step * max(1.0, abs(bound))
                assert prior.logpdf(theta) == -np.inf, i

    @pytest.mark.parametrize("D", [1, 2, 6])
    def test_bounds_are_finite_and_hold_the_restarts(self, D):
        rng = np.random.default_rng(50 + D)
        train = draw_gp_data(simple_hyp(D=D), 20, rng)
        prior = GPHyperprior(train)
        assert prior.lower.shape == prior.upper.shape == (3 * D + 3,)
        assert np.all(np.isfinite(prior.lower)) and np.all(np.isfinite(prior.upper))
        assert np.all(prior.lower < prior.upper)
        center = default_hyperparams(train)
        # far outside every bound: each coordinate is clipped onto one
        for far in (center, center + 1e6, center - 1e6):
            for _ in range(20):
                theta = prior.sample(far, rng)
                assert np.all(prior.lower <= theta) and np.all(theta <= prior.upper)
                assert np.isfinite(prior.logpdf(theta))

    def test_student_t_matches_scipy(self):
        for mu, scale, x in [(0.0, 1.0, 0.0), (-6.9, 0.5, -6.9), (2.0, 3.0, -1.0)]:
            ours = student_t_logpdf(x, mu, scale)
            ref = stats.t.logpdf(x, df=3, loc=mu, scale=scale)
            assert ours == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("D", [1, 2, 6])
    def test_grad_logpdf_matches_central_differences(self, D):
        # logpdf and grad_logpdf read the same HYPERPRIOR_DF
        rng = np.random.default_rng(40 + D)
        train = draw_gp_data(simple_hyp(D=D), 20, rng)
        prior = GPHyperprior(train)
        center = default_hyperparams(train)
        h = 1e-6
        for _ in range(5):
            # keep every central-difference step inside the hard bounds
            theta = np.clip(prior.sample(center, rng), prior.lower + 1e-3, prior.upper - 1e-3)
            fd = np.empty_like(theta)
            for i in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (prior.logpdf(tp) - prior.logpdf(tm)) / (2 * h)
            assert np.allclose(prior.grad_logpdf(theta), fd, rtol=1e-5, atol=1e-7)

    def test_uniform_directions_do_not_change_prior(self):
        rng = np.random.default_rng(8)
        train = draw_gp_data(simple_hyp(D=2), 10, rng)
        prior = GPHyperprior(train)
        theta = default_hyperparams(train)
        base = prior.logpdf(theta)
        sl = gpm._layout(2)
        for name in ("log_sf", "x_m", "log_omega"):
            shifted = theta.copy()
            shifted[sl[name]] += 0.37
            assert prior.logpdf(shifted) == pytest.approx(base)

    def test_noise_prior_peaks_at_table_mean(self):
        rng = np.random.default_rng(9)
        train = draw_gp_data(simple_hyp(D=1), 10, rng)
        prior = GPHyperprior(train)
        sl = gpm._layout(1)
        theta = default_hyperparams(train)
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
        assert np.isfinite(prior.logpdf(default_hyperparams(train)))


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
        log_ells = np.array([blocks(h)[0][0] for h in samples.theta])
        assert abs(np.median(log_ells) - blocks(true)[0][0]) < prior.scale[0]

    def test_map_no_decrease_from_optimum(self):
        rng = np.random.default_rng(11)
        true = simple_hyp(D=1, log_sobs=math.log(0.05))
        train = draw_gp_data(true, 25, rng)

        prior = GPHyperprior(train)

        def objective(theta):
            return log_marginal_likelihood(train, theta, {}) + prior.logpdf(theta)

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
        total = grad + prior.grad_logpdf(opt)
        # flat directions can sit on their rails; check interior coordinates
        theta = opt
        interior = (theta > prior.lower + 1e-9) & (theta < prior.upper - 1e-9)
        scaled = np.abs(total[interior]) / max(1.0, abs(lml))
        assert np.max(scaled) < 1e-5

    def test_map_recovers_length_scale(self):
        rng = np.random.default_rng(13)
        true = simple_hyp(D=1, log_ell=0.3, log_sf=0.5, log_sobs=math.log(0.02))
        train = draw_gp_data(true, 50, rng)
        opt = optimize_hyperparameters(train, default_hyperparams(train), rng)
        assert abs(blocks(opt)[0][0] - blocks(true)[0][0]) < 0.5


class TestHyperparamsChecks:
    @pytest.mark.parametrize("block", ["log_ell", "log_sf", "log_sobs", "log_omega"])
    @pytest.mark.parametrize("log_scale", [1e3, -np.inf, np.nan])
    def test_each_scale_block_rejected(self, block, log_scale):
        fields = dict(
            log_ell=[0.1, 0.2], log_sf=0.0, log_sobs=-3.0, m0=0.0, x_m=[0.0, 0.0],
            log_omega=[1.0, 1.0],
        )
        fields[block] = [0.1, log_scale] if block in ("log_ell", "log_omega") else log_scale
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite positives"):
                prior_set(hyp_row(**fields), 2)

    @pytest.mark.parametrize("log_sf", [400.0, -400.0])
    def test_output_scale_checked_as_used(self, log_sf):
        # exp(log_sf) is a finite positive, but sf2 = exp(2 log_sf) overflows
        # or underflows to 0
        hyp = simple_hyp(D=1, log_sf=log_sf)
        train = TrainingSet([[0.0], [1.0]], [0.0, 0.5])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite positives"):
                gp_fit(train, [hyp])
            with pytest.raises(ValueError, match="finite positives"):
                log_marginal_likelihood(train, hyp, {})


class TestSetFromRows:
    def test_scales_are_np_exp_of_each_row(self):
        # inputs where math.exp and np.exp round differently, so the set's
        # sf2 and sobs show which one made them
        rng = np.random.default_rng(60)
        D = 2
        train = draw_gp_data(simple_hyp(D=D), 12, rng)
        log_sf = [v for v in rng.uniform(-3.0, 3.0, 4000) if math.exp(2 * v) != np.exp(2 * v)]
        log_sobs = [v for v in rng.uniform(-14.0, -1.0, 4000) if math.exp(v) != np.exp(v)]
        theta = np.array([random_hyp(rng, D, log_sobs=v) for v in log_sobs[:24]])
        theta[:, D] = log_sf[:24]
        samples = gp_fit(train, theta)
        assert np.any(samples.sobs == SIGMA_OBS_FLOOR)
        for updated in (samples, samples.with_point(np.array([3.5, -3.5]), 0.2)):
            assert updated.theta.tobytes() == theta.tobytes()
            for s in range(len(theta)):
                assert updated.sf2[s] == np.exp(2 * theta[s, D])
                assert updated.sobs[s] == max(np.exp(theta[s, D + 1]), SIGMA_OBS_FLOOR)


def capture_target(monkeypatch, train, init):
    """The slice target of ``sample_hyperparameters(train, 2, init, ...)``.

    ``slice_sample`` is replaced by a stub that keeps the target and its
    start and returns the start as every draw.
    """
    captured = {}

    def stub(log_density, x0, n_samples, *args, **kwargs):
        captured.update(target=log_density, theta0=np.array(x0))
        return np.repeat(np.asarray(x0)[None, :], n_samples, axis=0)

    monkeypatch.setattr(gpm, "slice_sample", stub)
    sample_hyperparameters(train, 2, init, np.random.default_rng(0))
    monkeypatch.undo()
    return captured["target"], captured["theta0"]


def count_factorizations(monkeypatch, fail=lambda theta: False):
    """Count ``_factor_gram`` calls; a call on a row where ``fail`` holds raises."""
    factor_gram = gpm._factor_gram
    calls = []

    def spy(train, theta):
        calls.append(np.array(theta))
        if fail(theta):
            raise gpm.GPTrainingError("forced")
        return factor_gram(train, theta)

    monkeypatch.setattr(gpm, "_factor_gram", spy)
    return calls


class TestSliceTargetMemo:
    """The slice target factors only when the covariance block changes, and
    computes the residual only when the mean block changes."""

    def fixture(self, D, n, seed):
        rng = np.random.default_rng(seed)
        train = draw_gp_data(random_hyp(rng, D, log_sobs=math.log(0.05)), n, rng)
        return train, default_hyperparams(train)

    @pytest.mark.parametrize("D, n, n_gp", [(2, 25, 6), (6, 30, 3)])
    def test_chain_matches_per_draw_target(self, D, n, n_gp):
        train, init = self.fixture(D, n, 40 + D)
        got = sample_hyperparameters(train, n_gp, init, np.random.default_rng(D))
        ref = per_draw_sample_hyperparameters(train, n_gp, init, np.random.default_rng(D))
        assert np.array_equal(got.theta, ref.theta)
        for name in ("L", "jitter", "alpha", "lml"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    def test_fewer_factorizations_than_evaluations(self, monkeypatch):
        train, init = self.fixture(2, 25, 42)
        evaluations = []
        slice_sample = gpm.slice_sample

        def counting(log_density, *args, **kwargs):
            def counted(theta):
                evaluations.append(len(calls))
                return log_density(theta)

            return slice_sample(counted, *args, **kwargs)

        monkeypatch.setattr(gpm, "slice_sample", counting)
        calls = count_factorizations(monkeypatch)
        sample_hyperparameters(train, 4, init, np.random.default_rng(1))
        # factorizations inside the chain, not counting the final fit's four
        factored = len(calls) - 4 - evaluations[0]
        assert 0 < factored < len(evaluations) / 2

    def test_single_coordinate_changes(self, monkeypatch):
        D = 2
        train, init = self.fixture(D, 25, 42)
        target, theta0 = capture_target(monkeypatch, train, init)
        calls = count_factorizations(monkeypatch)
        prior = GPHyperprior(train)

        def expected(theta):
            return per_draw_lml(train, theta) + prior.logpdf(theta)

        assert target(theta0) == expected(theta0)
        assert calls == []  # the start's block was factored before the chain
        for i in range(3 * D + 3):
            theta = theta0.copy()
            theta[i] += 0.01
            assert np.isfinite(prior.logpdf(theta))
            before = len(calls)
            assert target(theta) == expected(theta)
            assert len(calls) - before == (1 if i < D + 2 else 0), i
            assert target(theta) == expected(theta)  # the same block again
            assert target(theta0) == expected(theta0)
            assert len(calls) - before == (2 if i < D + 2 else 0), i

    def test_residual_only_for_a_new_mean_block(self, monkeypatch):
        D = 2
        train, init = self.fixture(D, 25, 42)
        target, theta0 = capture_target(monkeypatch, train, init)
        residual = gpm._residual
        calls = []
        monkeypatch.setattr(gpm, "_residual", lambda tr, theta: calls.append(1) or residual(tr, theta))
        prior = GPHyperprior(train)

        def expected(theta):
            return per_draw_lml(train, theta) + prior.logpdf(theta)

        assert target(theta0) == expected(theta0)
        assert calls == []  # the start's mean block was seen before the chain
        for i in range(3 * D + 3):
            theta = theta0.copy()
            theta[i] += 0.01
            before = len(calls)
            assert target(theta) == expected(theta)
            assert target(theta) == expected(theta)  # the same blocks again
            assert len(calls) - before == (0 if i < D + 2 else 1), i
            assert target(theta0) == expected(theta0)
            assert len(calls) - before == (0 if i < D + 2 else 2), i

    def test_failed_block_is_not_retried(self, monkeypatch):
        D = 2
        train, init = self.fixture(D, 25, 42)
        target, theta0 = capture_target(monkeypatch, train, init)
        bad_sf = theta0[D] + 0.5
        calls = count_factorizations(monkeypatch, fail=lambda theta: blocks(theta)[1] == bad_sf)
        theta = theta0.copy()
        theta[D] = bad_sf
        assert target(theta) == -np.inf
        assert target(theta) == -np.inf
        theta[D + 2] += 0.3  # a mean coordinate: the same failed block
        assert target(theta) == -np.inf
        assert len(calls) == 1
        assert np.isfinite(target(theta0))
        assert len(calls) == 2

    def test_mean_block_scale_checked_on_a_hit(self):
        D = 2
        train, init = self.fixture(D, 25, 42)
        theta = init.copy()
        memo = {}
        log_marginal_likelihood(train, theta, memo)
        theta[2 * D + 3] = 1e3
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite positives"):
                log_marginal_likelihood(train, theta, memo)


def marginal_reference(samples, xs):
    """``marginal_predict`` from each draw's own solve: ``(mean, var, clamps)``."""
    parts = [per_draw_latent(post, xs) for post in draws(samples)]
    means = np.array([m for m, _ in parts])
    variances = np.array([v for _, v in parts])
    clamps = int(np.sum(variances < 0))
    var = np.maximum(variances, 0.0).mean(axis=0)
    if len(samples) > 1:
        var = var + means.var(axis=0, ddof=1)
    return means.mean(axis=0), var, clamps


class TestMarginalPredict:
    @pytest.mark.parametrize(
        "S, updates", [(1, 0), (1, 2), (6, 0), (6, 1), (6, 3)]
    )
    def test_batched_matches_per_draw(self, S, updates):
        # single query rows make the solves one column wide
        rng = np.random.default_rng(100 * S + updates)
        samples = random_sample_set(rng, S, n=15, D=2, updates=updates)
        queries = [rng.uniform(-3, 3, size=(rows, 2)) for rows in [1] * 20 + [2, 40]]
        for xs in queries:
            parts = [per_draw_predict(post, xs) for post in draws(samples)]
            means = np.array([m for m, _ in parts])
            var = np.array([v for _, v in parts]).mean(axis=0)
            if S > 1:
                var = var + means.var(axis=0, ddof=1)
            m, v = marginal_predict(samples, xs)
            assert np.array_equal(m, means.mean(axis=0))
            assert np.array_equal(v, var)

    @pytest.mark.parametrize("D", [2, 6])
    @pytest.mark.parametrize("n", [20, 65])
    @pytest.mark.parametrize("S", [1, 8, 18])
    def test_probe_and_generation_calls_match_per_draw(self, S, n, D):
        # the search's two call sizes: 1,002 seed probes, which go one draw
        # per kernel block at n = 65, and a 6-row CMA-ES generation, one block
        rng = np.random.default_rng(1000 * S + 10 * n + D)
        samples = random_sample_set(rng, S, n=n, D=D, updates=2)
        for rows in (1002, 6):
            xs = rng.uniform(-3, 3, size=(rows, D))
            mean, var, _ = marginal_reference(samples, xs)
            m, v = marginal_predict(samples, xs)
            assert np.array_equal(m, mean)
            assert np.array_equal(v, var)

    @pytest.mark.parametrize("S", [1, 6])
    def test_clamp_count_matches_per_draw(self, S, monkeypatch):
        # tiny noise and a large output scale: at the training inputs the
        # variance is of order sobs^2 = 1e-10 against rounding of order
        # eps * sf2 = 2e-9, so some rows round negative
        rng = np.random.default_rng(7 + S)
        X = rng.uniform(-1, 1, size=(20, 2))
        hyps = []
        for _ in range(S):
            log_ell, _, _, m0, x_m, log_omega = blocks(random_hyp(rng, 2))
            hyps.append(hyp_row(log_ell + 1.0, 8.0, math.log(1e-5), m0, x_m, log_omega))
        samples = gp_fit(TrainingSet(X, rng.normal(size=20)), hyps)
        xs = np.vstack([X, X + 1e-9, rng.uniform(-1, 1, size=(1002 - 40, 2))])
        mean, var, clamps = marginal_reference(samples, xs)
        assert clamps > 0
        monkeypatch.setattr(gpm, "VARIANCE_CLAMP_COUNT", 0)
        m, v = marginal_predict(samples, xs)
        assert gpm.VARIANCE_CLAMP_COUNT == clamps
        assert np.array_equal(m, mean)
        assert np.array_equal(v, var)

    def test_probe_call_holds_one_kernel_block(self):
        S, n, rows = 18, 65, 1002
        samples = random_sample_set(np.random.default_rng(3), S, n=n, D=2)
        xs = np.random.default_rng(4).uniform(-3, 3, size=(rows, 2))
        marginal_predict(samples, xs)  # first call: imports and caches out of the count
        tracemalloc.start()
        try:
            marginal_predict(samples, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one stacked (S, n, rows) array alone is 9.4 MB
        assert S * n * rows * 8 > 9.3e6
        assert peak < 4e6

    def test_no_rows(self):
        samples = random_sample_set(np.random.default_rng(5), 3, n=10, D=2)
        m, v = marginal_predict(samples, np.empty((0, 2)))
        assert m.shape == v.shape == (0,)

    def test_two_identical_samples(self):
        hyp = simple_hyp()
        post = gp_fit(TrainingSet([[0.0]], [1.0]), [hyp])
        samples = gp_fit(post.train, [hyp, hyp])
        xs = np.array([[0.5]])
        m, v = marginal_predict(samples, xs)
        m1, v1 = marginal_predict(post, xs)
        assert m[0] == pytest.approx(m1[0])
        assert v[0] == pytest.approx(v1[0])

    def test_between_sample_variance_added(self):
        # prior draws at their mean's maximum x_m = 0: mean m0, variance sf2 = 1
        samples = prior_set([simple_hyp(m0=m0) for m0 in (0.0, 2.0)])
        m, v = marginal_predict(samples, np.zeros((1, 1)))
        assert m[0] == pytest.approx(1.0)
        assert v[0] == pytest.approx(1.0 + np.var([0.0, 2.0], ddof=1))
