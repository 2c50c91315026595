import math

import numpy as np
import pytest

from oracles import entropy_exact_single
from per_draw import hyp_row
from vbmc import optim
from vbmc.gp import TrainingSet, gp_fit
from vbmc.optim import (
    ALPHA_MIN,
    TAU,
    adam_step,
    learning_rate,
    optimize_elbo,
    select_starting_points,
    split_component,
)
from vbmc.quadrature import elbo
from vbmc.variational import VariationalPosterior


def conjugate_gaussian_samples(mean=0.4, sd=0.6, n=25, span=4.0):
    """GP trained densely on an exact 1-D Gaussian log density."""

    def log_density(x):
        return -0.5 * math.log(2 * math.pi * sd**2) - 0.5 * (x - mean) ** 2 / sd**2

    X = np.linspace(mean - span, mean + span, n)[:, None]
    y = np.array([log_density(x) for x in X[:, 0]])
    hyp = hyp_row(
        log_ell=[math.log(0.8)],
        log_sf=math.log(5.0),
        log_sobs=math.log(1e-4),
        m0=float(y.max()),
        x_m=[mean],
        log_omega=[math.log(2.0)],
    )
    return gp_fit(TrainingSet(X, y), [hyp])


def exact_entropy(monkeypatch):
    """Make the optimizer's objective deterministic: closed-form entropy."""
    monkeypatch.setattr(
        optim, "entropy_mc", lambda vp, n, rng, grad=True: entropy_exact_single(vp)
    )


def record_elbo_steps(monkeypatch):
    """List that receives the mean ELBO of every optimizer step."""
    elbos = []
    step = optim._neg_elbo_and_grad

    def recording(*args):
        value, grad = step(*args)
        elbos.append(float(-value))
        return value, grad

    monkeypatch.setattr(optim, "_neg_elbo_and_grad", recording)
    return elbos


class TestLearningRate:
    def test_schedule_endpoints(self):
        assert learning_rate(0, 0.1) == pytest.approx(0.1)
        assert learning_rate(10**9, 0.1) == pytest.approx(ALPHA_MIN)

    def test_value_at_tau(self):
        expected = ALPHA_MIN + (0.1 - ALPHA_MIN) / math.e
        assert learning_rate(int(TAU), 0.1) == pytest.approx(expected)


class TestAdamStep:
    def test_zero_gradient_no_move(self):
        theta = np.array([1.0, -2.0, 0.5])
        theta2, _, _ = adam_step(theta, np.zeros(3), np.zeros(3), np.zeros(3), 1, 0.01)
        assert np.array_equal(theta, theta2)

    def test_first_step_is_signed_learning_rate(self):
        theta = np.zeros(2)
        grad = np.array([3.0, -0.2])
        theta2, _, _ = adam_step(theta, grad, np.zeros(2), np.zeros(2), 1, 0.05)
        step = theta2 - theta
        expected = -learning_rate(1, 0.05) * np.sign(grad)
        assert np.allclose(step, expected, rtol=1e-6)

    def test_converges_on_quadratic(self):
        target = np.array([0.3, -0.2, 0.1])
        theta = m = v = np.zeros(3)
        for t in range(1, 2001):
            theta, m, v = adam_step(theta, theta - target, m, v, t, 0.01)
        assert np.max(np.abs(theta - target)) < 1e-4


class TestStartingPoints:
    def test_split_grows_components(self):
        vp = VariationalPosterior([1.0], [[0.0, 0.0]], [0.5], [1.0, 1.0])
        vp2 = split_component(vp, np.random.default_rng(0))
        assert vp2.K == 2
        assert vp2.w.sum() == pytest.approx(1.0)
        assert np.allclose(vp2.w, [0.5, 0.5])

    def test_current_vp_never_regresses(self):
        samples = conjugate_gaussian_samples()
        vp = VariationalPosterior([1.0], [[0.2]], [0.8], [1.0])
        rng = np.random.default_rng(1)
        best = select_starting_points(vp, 1, 5, samples, rng)
        readout = np.random.default_rng(2)
        e_best = elbo(best, samples, 2**14, readout)
        e_base = elbo(vp, samples, 2**14, readout)
        assert e_best.elbo_mean >= e_base.elbo_mean - 0.05

    def test_requested_component_count(self):
        samples = conjugate_gaussian_samples()
        vp = VariationalPosterior([1.0], [[0.0]], [0.5], [1.0])
        best = select_starting_points(vp, 3, 5, samples, np.random.default_rng(3))
        assert best.K == 3

    def test_deterministic_under_seed(self):
        samples = conjugate_gaussian_samples()
        vp = VariationalPosterior([1.0], [[0.0]], [0.5], [1.0])
        a = select_starting_points(vp, 2, 5, samples, np.random.default_rng(4))
        b = select_starting_points(vp, 2, 5, samples, np.random.default_rng(4))
        assert np.array_equal(a.to_vector(), b.to_vector())


class TestOptimizeELBO:
    def test_fits_conjugate_gaussian(self):
        samples = conjugate_gaussian_samples(mean=0.4, sd=0.6)
        vp0 = VariationalPosterior([1.0], [[-0.5]], [0.3], [1.0])
        # cold start far from the target: use the fast (warm-up) step size;
        # its weight freeze is a no-op with one component
        vp, est = optimize_elbo(vp0, samples, np.random.default_rng(5), warmup=True)
        mean, cov = vp.moments()
        assert mean[0] == pytest.approx(0.4, abs=0.05 * 0.6)
        assert math.sqrt(cov[0, 0]) == pytest.approx(0.6, rel=0.05)

    def test_improves_over_start_across_seeds(self):
        samples = conjugate_gaussian_samples()
        vp0 = VariationalPosterior([1.0], [[-1.0]], [0.25], [1.0])
        for seed in range(8):
            rng = np.random.default_rng(seed)
            e0 = elbo(vp0, samples, 2**13, np.random.default_rng(100 + seed))
            vp, est = optimize_elbo(vp0, samples, rng)
            assert est.elbo_mean >= e0.elbo_mean - 2 * max(est.elbo_sd, 1e-3)

    def test_symmetric_target_mode_found(self):
        samples = conjugate_gaussian_samples(mean=0.0, sd=0.5)
        vp0 = VariationalPosterior([1.0], [[0.8]], [0.4], [1.0])
        vp, _ = optimize_elbo(vp0, samples, np.random.default_rng(6))
        assert abs(vp.mu[0, 0]) < 0.05

    def test_deterministic_with_exact_entropy(self, monkeypatch):
        samples = conjugate_gaussian_samples()
        vp0 = VariationalPosterior([1.0], [[-0.3]], [0.4], [1.0])
        exact_entropy(monkeypatch)
        out = []
        for _ in range(2):
            vp, _ = optimize_elbo(vp0, samples, np.random.default_rng(7))
            out.append(vp.to_vector())
        assert np.array_equal(out[0], out[1])

    def test_near_monotone_with_exact_entropy(self, monkeypatch):
        samples = conjugate_gaussian_samples()
        vp0 = VariationalPosterior([1.0], [[-0.6]], [0.35], [1.0])
        exact_entropy(monkeypatch)
        monkeypatch.setattr(optim, "ADAM_MAX_ITER", 400)
        trace = record_elbo_steps(monkeypatch)
        optimize_elbo(vp0, samples, np.random.default_rng(8))
        vals = np.array(trace)
        increases = np.diff(-vals)[50:]
        assert increases.max() < 1e-3

    def test_softmax_gauge_invariance(self, monkeypatch):
        samples = conjugate_gaussian_samples()
        vp0 = VariationalPosterior(
            [0.5, 0.5], [[-0.3], [0.5]], [0.4, 0.4], [1.0]
        )
        theta = vp0.to_vector()
        shifted = theta.copy()
        shifted[-2:] += 37.5
        vp_shift = VariationalPosterior.from_vector(shifted, 2, 1)
        monkeypatch.setattr(optim, "ADAM_MAX_ITER", 50)
        a, _ = optimize_elbo(vp0, samples, np.random.default_rng(9))
        b, _ = optimize_elbo(vp_shift, samples, np.random.default_rng(9))
        assert np.allclose(a.w, b.w)
        assert np.allclose(a.mu, b.mu)

    def test_weight_freeze_holds_exactly(self, monkeypatch):
        samples = conjugate_gaussian_samples()
        vp0 = VariationalPosterior([0.5, 0.5], [[-0.3], [0.5]], [0.4, 0.4], [1.0])
        monkeypatch.setattr(optim, "ADAM_MAX_ITER", 200)
        vp, _ = optimize_elbo(vp0, samples, np.random.default_rng(10), warmup=True)
        assert np.array_equal(vp.w, np.array([0.5, 0.5]))

    @staticmethod
    def calls_until_raise(monkeypatch, value, grad):
        """Evaluations ``optimize_elbo`` makes before it raises when every
        step returns ``value`` and a gradient filled with ``grad``."""
        samples = conjugate_gaussian_samples()
        vp0 = VariationalPosterior([1.0], [[-0.3]], [0.4], [1.0])
        calls = []

        def nonfinite(theta, *args):
            calls.append(theta)
            return value, np.full(theta.size, grad)

        monkeypatch.setattr(optim, "_neg_elbo_and_grad", nonfinite)
        with pytest.raises(RuntimeError, match="non-finite values at step 0"):
            optimize_elbo(vp0, samples, np.random.default_rng(11))
        return len(calls)

    def test_nonfinite_gradient_raises(self, monkeypatch):
        assert self.calls_until_raise(monkeypatch, 1.0, np.nan) == 1

    def test_nonfinite_value_raises(self, monkeypatch):
        assert self.calls_until_raise(monkeypatch, np.nan, 0.0) == 1
