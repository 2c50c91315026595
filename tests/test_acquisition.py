import math

import numpy as np
import pytest

from cmaes_reference import reference_cma_maximize
from per_draw import hyp_row, prior_set
from vbmc import acquisition
from vbmc.acquisition import (
    N_PROBES,
    AcquisitionError,
    V_REG,
    log_acquisition,
    optimize_acquisition,
    search_box,
)
from vbmc.cmaes import cma_maximize
from vbmc.gp import TrainingSet, gp_fit
from vbmc.variational import VariationalPosterior


def fitted_context(gap=True):
    """1-D GP with a visible gap in the training inputs around x = 0.

    Returns ``(samples, vp, lo, hi)``: the GP posterior, the mixture and
    the search box of ``search_box``.
    """
    hyp = hyp_row(
        log_ell=[math.log(0.4)], log_sf=0.0, log_sobs=math.log(1e-3),
        m0=0.0, x_m=[0.0], log_omega=[math.log(3.0)],
    )
    if gap:
        xs = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    else:
        xs = np.linspace(-2, 2, 9)
    y = -0.5 * xs**2
    samples = gp_fit(TrainingSet(xs[:, None], y), [hyp])
    vp = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
    lo, hi = search_box(samples.train)
    return samples, vp, lo, hi


def fixed_variance(var):
    """One-draw sample set whose predictive variance is ``var`` everywhere.

    A prior draw (see ``prior_set``) predicts its output scale ``sf2``;
    that is overwritten because a zero scale is no valid hyperparameter.
    """
    hyp = hyp_row(
        log_ell=[0.0], log_sf=0.0, log_sobs=-4.0, m0=0.0, x_m=[0.0], log_omega=[0.0]
    )
    samples = prior_set([hyp])
    samples.sf2 = np.array([float(var)])
    return samples


def fixed_variance_context(var):
    vp = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
    return fixed_variance(var), vp, np.array([-2.0]), np.array([2.0])


class TestCMA:
    def test_finds_quadratic_maximum(self):
        target = np.array([0.7, -0.3])

        def f(X):
            return -np.sum((X - target) ** 2, axis=1)

        x, v = cma_maximize(
            f, np.zeros(2), np.array([-2.0, -2.0]), np.array([2.0, 2.0]),
            np.random.default_rng(0), max_gen=150, patience=30,
        )
        assert np.max(np.abs(x - target)) < 1e-3

    def test_respects_box(self):
        def f(X):
            return X[:, 0]  # pushes toward the upper bound

        x, _ = cma_maximize(
            f, np.zeros(1), np.array([-1.0]), np.array([1.0]),
            np.random.default_rng(1), max_gen=80, patience=30,
        )
        assert x[0] <= 1.0
        assert x[0] > 0.99

    def test_deterministic(self):
        def f(X):
            return -np.sum(X**2, axis=1)

        out = [
            cma_maximize(
                f, np.full(3, 0.5), -np.ones(3), np.ones(3),
                np.random.default_rng(2), max_gen=50, patience=30,
            )[0]
            for _ in range(2)
        ]
        assert np.array_equal(out[0], out[1])


def cma_problem(seed, D):
    """A seeded box problem for ``cma_maximize``: ``(f, x0, lb, ub)``.

    A bumpy quadratic; seed 0 puts its peak outside the box, so the search
    is clipped at the box, and seed 1 scores -inf on half of the box.
    """
    rng = np.random.default_rng(seed)
    lb, ub = rng.uniform(-3.0, -1.0, size=D), rng.uniform(1.0, 3.0, size=D)
    center = rng.uniform(lb, ub)
    if seed == 0:
        center = ub + 1.0
    widths = rng.uniform(0.2, 2.0, size=D)
    freq = rng.uniform(1.0, 5.0, size=D)

    def f(X):
        val = -np.sum(((X - center) / widths) ** 2, axis=1) + 0.3 * np.sin(X @ freq)
        if seed == 1:
            val = np.where(X[:, 0] > center[0], -np.inf, val)
        return val

    return f, rng.uniform(lb, ub), lb, ub


class TestCMAReference:
    """``cma_maximize`` runs the reference loop in ``cmaes_reference``, bit for bit."""

    @pytest.mark.parametrize("D", [2, 6])
    def test_same_result_and_generator_state(self, D):
        clipped = 0
        for seed in range(50):
            f, x0, lb, ub = cma_problem(seed, D)
            rng, rng_ref = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
            budget = {"max_gen": 40 + seed, "patience": 5 + seed % 20}
            x, v = cma_maximize(f, x0, lb, ub, rng, **budget)
            x_ref, v_ref = reference_cma_maximize(f, x0, lb, ub, rng_ref, **budget)
            assert np.array_equal(x, x_ref)
            assert v == v_ref
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            clipped += bool(np.any(x == ub))
        assert clipped >= 1


class TestAcquisitionValues:
    def test_nonnegative_and_zero_where_q_zero(self):
        samples, vp, _, _ = fitted_context()
        # far outside the mixture support the density underflows to zero
        val = np.exp(log_acquisition(samples, vp, np.array([40.0])[None], "us")[0])
        assert val == 0.0
        assert np.exp(log_acquisition(samples, vp, np.array([0.2])[None], "us")[0]) >= 0.0

    def test_dense_data_scores_near_zero(self):
        samples, vp, _, _ = fitted_context(gap=False)
        at_data = np.exp(log_acquisition(samples, vp, np.array([0.0])[None], "us")[0])
        samples_gap, vp_gap, _, _ = fitted_context(gap=True)
        in_gap = np.exp(log_acquisition(samples_gap, vp_gap, np.array([0.0])[None], "us")[0])
        assert at_data < 1e-4 * in_gap

    def test_log_monotone_transform_preserves_argmax(self):
        samples, vp, _, _ = fitted_context()
        xs = np.linspace(-2.5, 2.5, 301)[:, None]
        logs = log_acquisition(samples, vp, xs, "us")
        lins = np.array([np.exp(log_acquisition(samples, vp, x[None], "us")[0]) for x in xs])
        assert np.argmax(logs) == np.argmax(lins)

    def test_pro_rewards_high_mean_regions(self):
        hyp = hyp_row(
            log_ell=[math.log(0.5)], log_sf=0.0, log_sobs=math.log(1e-3),
            m0=0.0, x_m=[0.0], log_omega=[math.log(3.0)],
        )
        xs = np.array([-2.0, -1.0, 1.0, 2.0])
        y = np.array([1.5, 1.5, -1.5, -1.5])  # high mean on the left
        samples = gp_fit(TrainingSet(xs[:, None], y), [hyp])
        vp = VariationalPosterior([1.0], [[0.0]], [1.5], [1.0])
        left = np.exp(log_acquisition(samples, vp, np.array([-0.5])[None], "pro")[0])
        right = np.exp(log_acquisition(samples, vp, np.array([0.5])[None], "pro")[0])
        assert left > right

    def test_log_and_linear_paths_agree(self):
        samples, vp, _, _ = fitted_context()
        for x in [np.array([0.0]), np.array([0.7]), np.array([-1.2])]:
            log_val = log_acquisition(samples, vp, x[None, :], "pro")[0]
            lin_val = np.exp(log_acquisition(samples, vp, x[None], "pro")[0])
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
        samples, vp, _, _ = fixed_variance_context(var)
        undamped = np.log(np.full(1, var)) + 2.0 * vp.logpdf(self.X)
        return log_acquisition(samples, vp, self.X, "us")[0], undamped[0]

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
        samples, vp, _, _ = fixed_variance_context(0.0)
        assert np.exp(log_acquisition(samples, vp, self.X, "us")[0]) == 0.0

    def test_only_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = 10 ** rng.uniform(-8, 0)
            damped, undamped = self.log_values(v)
            assert damped <= undamped


class TestOptimizeAcquisition:
    def test_finds_variance_gap(self):
        samples, vp, lo, hi = fitted_context()
        x = optimize_acquisition(samples, vp, lo, hi, "pro", np.random.default_rng(4))
        # dense argmax oracle over the gap region
        grid = np.linspace(lo[0], hi[0], 4001)[:, None]
        oracle = grid[np.argmax(log_acquisition(samples, vp, grid, "pro")), 0]
        assert abs(x[0]) < 1.0  # inside the data gap
        assert abs(x[0] - oracle) < 0.2

    def test_beats_random_probes(self):
        samples, vp, lo, hi = fitted_context()
        rng = np.random.default_rng(5)
        x = optimize_acquisition(samples, vp, lo, hi, "pro", rng)
        probes = np.random.default_rng(6).uniform(lo, hi, size=(1000, 1))
        best_probe = np.max(log_acquisition(samples, vp, probes, "pro"))
        assert log_acquisition(samples, vp, x[None, :], "pro")[0] >= best_probe - 1e-9

    def test_never_duplicates_training_point(self):
        samples, vp, lo, hi = fitted_context()
        X = samples.train.X
        for seed in range(5):
            x = optimize_acquisition(samples, vp, lo, hi, "pro", np.random.default_rng(seed))
            d2 = np.min(np.sum((X - x) ** 2, axis=1))
            assert d2 > 1e-12

    def test_cma_on_a_training_input_returns_the_best_other_seed(self, monkeypatch):
        samples, vp, lo, hi = fitted_context()
        X = samples.train.X
        monkeypatch.setattr(
            acquisition, "cma_maximize", lambda f, start, *a, **k: (X[0].copy(), np.inf)
        )
        x = optimize_acquisition(samples, vp, lo, hi, "pro", np.random.default_rng(3))
        # the seeds the search scores, drawn as it draws them
        probes = np.random.default_rng(3).uniform(lo, hi, size=(N_PROBES, 1))
        seeds = np.vstack([probes, vp.mu])
        values = log_acquisition(samples, vp, seeds, "pro")
        assert not any(samples.train.is_duplicate(seed) for seed in seeds)
        assert np.array_equal(x, seeds[np.argmax(values)])

    def test_degenerate_space_raises(self):
        # zero predictive variance everywhere (clamped GP): acquisition is
        # -inf over the whole box and the search must refuse to pick
        samples, vp, lo, hi = fixed_variance_context(0.0)
        grid = np.linspace(-2, 2, 50)[:, None]
        assert np.all(np.isneginf(log_acquisition(samples, vp, grid, "pro")))
        with pytest.raises(AcquisitionError):
            optimize_acquisition(samples, vp, lo, hi, "pro", np.random.default_rng(7))
