import math

import numpy as np
import pytest

from vbmc.acquisition import (
    AcquisitionContext,
    AcquisitionError,
    V_REG,
    log_acquisition,
    optimize_acquisition,
    search_box,
)
from vbmc.cmaes import cma_maximize
from vbmc.gp import GPHyperparams, HyperparamSampleSet, TrainingSet, gp_fit
from vbmc.variational import VariationalPosterior


def fitted_context(kind="pro", gap=True):
    """1-D GP with a visible gap in the training inputs around x = 0."""
    hyp = GPHyperparams(
        log_ell=[math.log(0.4)], log_sf=0.0, log_sobs=math.log(1e-3),
        m0=0.0, x_m=[0.0], log_omega=[math.log(3.0)],
    )
    if gap:
        xs = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    else:
        xs = np.linspace(-2, 2, 9)
    y = -0.5 * xs**2
    post = gp_fit(TrainingSet(xs[:, None], y), hyp)
    samples = HyperparamSampleSet([post])
    vp = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
    lo, hi = search_box(post.train)
    return AcquisitionContext(samples, vp, lo, hi, kind=kind)


class FixedVariance:
    """One-draw sample set whose predictive variance is ``var`` everywhere."""

    train = TrainingSet([[0.0]], [0.0])

    def __init__(self, var):
        self.var = var

    def __iter__(self):
        return iter([self])

    def __len__(self):
        return 1

    def predict(self, X):
        n = np.atleast_2d(X).shape[0]
        return np.zeros(n), np.full(n, self.var)


def fixed_variance_context(var, kind="us"):
    vp = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
    return AcquisitionContext(
        FixedVariance(var), vp, np.array([-2.0]), np.array([2.0]), kind
    )


class TestCMA:
    def test_finds_quadratic_maximum(self):
        target = np.array([0.7, -0.3])

        def f(X):
            return -np.sum((X - target) ** 2, axis=1)

        x, v = cma_maximize(
            f, np.zeros(2), np.array([-2.0, -2.0]), np.array([2.0, 2.0]),
            np.random.default_rng(0), max_gen=150,
        )
        assert np.max(np.abs(x - target)) < 1e-3

    def test_respects_box(self):
        def f(X):
            return X[:, 0]  # pushes toward the upper bound

        x, _ = cma_maximize(
            f, np.zeros(1), np.array([-1.0]), np.array([1.0]),
            np.random.default_rng(1), max_gen=80,
        )
        assert x[0] <= 1.0
        assert x[0] > 0.99

    def test_deterministic(self):
        def f(X):
            return -np.sum(X**2, axis=1)

        out = [
            cma_maximize(
                f, np.full(3, 0.5), -np.ones(3), np.ones(3),
                np.random.default_rng(2), max_gen=50,
            )[0]
            for _ in range(2)
        ]
        assert np.array_equal(out[0], out[1])


class TestAcquisitionValues:
    def test_nonnegative_and_zero_where_q_zero(self):
        ctx = fitted_context("us")
        # far outside the mixture support the density underflows to zero
        val = np.exp(log_acquisition(ctx, np.array([40.0])[None])[0])
        assert val == 0.0
        assert np.exp(log_acquisition(ctx, np.array([0.2])[None])[0]) >= 0.0

    def test_dense_data_scores_near_zero(self):
        ctx = fitted_context("us", gap=False)
        at_data = np.exp(log_acquisition(ctx, np.array([0.0])[None])[0])
        ctx_gap = fitted_context("us", gap=True)
        in_gap = np.exp(log_acquisition(ctx_gap, np.array([0.0])[None])[0])
        assert at_data < 1e-4 * in_gap

    def test_log_monotone_transform_preserves_argmax(self):
        ctx = fitted_context("us")
        xs = np.linspace(-2.5, 2.5, 301)[:, None]
        logs = log_acquisition(ctx, xs)
        lins = np.array([np.exp(log_acquisition(ctx, x[None])[0]) for x in xs])
        assert np.argmax(logs) == np.argmax(lins)

    def test_pro_rewards_high_mean_regions(self):
        hyp = GPHyperparams(
            log_ell=[math.log(0.5)], log_sf=0.0, log_sobs=math.log(1e-3),
            m0=0.0, x_m=[0.0], log_omega=[math.log(3.0)],
        )
        xs = np.array([-2.0, -1.0, 1.0, 2.0])
        y = np.array([1.5, 1.5, -1.5, -1.5])  # high mean on the left
        post = gp_fit(TrainingSet(xs[:, None], y), hyp)
        vp = VariationalPosterior([1.0], [[0.0]], [1.5], [1.0])
        lo, hi = search_box(post.train)
        ctx = AcquisitionContext(HyperparamSampleSet([post]), vp, lo, hi, "pro")
        left = np.exp(log_acquisition(ctx, np.array([-0.5])[None])[0])
        right = np.exp(log_acquisition(ctx, np.array([0.5])[None])[0])
        assert left > right

    def test_log_and_linear_paths_agree(self):
        ctx = fitted_context("pro")
        for x in [np.array([0.0]), np.array([0.7]), np.array([-1.2])]:
            log_val = log_acquisition(ctx, x[None, :])[0]
            lin_val = np.exp(log_acquisition(ctx, x[None])[0])
            if np.isfinite(log_val):
                assert math.log(lin_val) == pytest.approx(log_val, abs=1e-10)


class TestRegularize:
    """The damping below ``V_REG``, read through ``log_acquisition``.

    With ``kind="us"`` the undamped value is V q(x)^2; the fake sample set
    fixes V, so each case compares against that value at one point.
    """

    X = np.array([[0.3]])

    def log_values(self, var):
        """(damped, undamped) log acquisition at ``X`` for variance ``var``."""
        ctx = fixed_variance_context(var)
        undamped = np.log(np.full(1, var)) + 2.0 * ctx.vp.logpdf(self.X)
        return log_acquisition(ctx, self.X)[0], undamped[0]

    def test_boundary_continuous(self):
        damped, undamped = self.log_values(V_REG)
        assert np.exp(damped) == pytest.approx(np.exp(undamped))

    def test_half_threshold(self):
        damped, undamped = self.log_values(V_REG / 2)
        assert np.exp(damped) == pytest.approx(np.exp(undamped) * math.exp(-1.0))

    def test_above_threshold_unchanged(self):
        damped, undamped = self.log_values(10 * V_REG)
        assert damped == undamped

    def test_zero_variance_limit(self):
        ctx = fixed_variance_context(0.0)
        assert np.exp(log_acquisition(ctx, self.X)[0]) == 0.0

    def test_only_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = 10 ** rng.uniform(-8, 0)
            damped, undamped = self.log_values(v)
            assert damped <= undamped


class TestOptimizeAcquisition:
    def test_finds_variance_gap(self):
        ctx = fitted_context("pro")
        x = optimize_acquisition(ctx, np.random.default_rng(4))
        # dense argmax oracle over the gap region
        grid = np.linspace(ctx.search_lb[0], ctx.search_ub[0], 4001)[:, None]
        oracle = grid[np.argmax(log_acquisition(ctx, grid)), 0]
        assert abs(x[0]) < 1.0  # inside the data gap
        assert abs(x[0] - oracle) < 0.2

    def test_beats_random_probes(self):
        ctx = fitted_context("pro")
        rng = np.random.default_rng(5)
        x = optimize_acquisition(ctx, rng)
        probes = np.random.default_rng(6).uniform(
            ctx.search_lb, ctx.search_ub, size=(1000, 1)
        )
        best_probe = np.max(log_acquisition(ctx, probes))
        assert log_acquisition(ctx, x[None, :])[0] >= best_probe - 1e-9

    def test_never_duplicates_training_point(self):
        ctx = fitted_context("pro")
        X = ctx.samples.train.X
        for seed in range(5):
            x = optimize_acquisition(ctx, np.random.default_rng(seed))
            d2 = np.min(np.sum((X - x) ** 2, axis=1))
            assert d2 > 1e-12

    def test_degenerate_space_raises(self):
        # zero predictive variance everywhere (clamped GP): acquisition is
        # -inf over the whole box and the search must refuse to pick
        bad = fixed_variance_context(0.0, kind="pro")
        grid = np.linspace(-2, 2, 50)[:, None]
        assert np.all(np.isneginf(log_acquisition(bad, grid)))
        with pytest.raises(AcquisitionError):
            optimize_acquisition(bad, np.random.default_rng(7))
