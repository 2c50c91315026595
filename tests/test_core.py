import dataclasses
import io
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vbmc import core as core_mod
from vbmc.acquisition import AcquisitionError
from vbmc.benchmark import make_lumpy
from vbmc.core import (
    N_ACTIVE,
    N_FAST,
    N_FAST_FIRST,
    N_INIT,
    WARMUP_NGP_CAP,
    N_MOMENT_SAMPLES,
    WHITEN_SKL,
    Frame,
    InferenceResult,
    IterationRecord,
    ProblemSpec,
    VBMC,
    VBMCError,
    VBMCOptions,
    k_schedule,
    reliability_features,
    termination_status,
    warmup_should_end,
    whitening,
)
from vbmc.gp import TrainingSet, default_hyperparams, gp_fit, n_gp_schedule
from vbmc.slice_sampler import SliceSamplingError
from vbmc.transforms import ParameterTransform
from vbmc.variational import VariationalPosterior, gaussian_skl


def conjugate_problem(y0=0.5, s=0.8, x0=0.3):
    def log_joint(x):
        x = float(x[0])
        return (
            -0.5 * math.log(2 * math.pi) - 0.5 * x**2
            - 0.5 * math.log(2 * math.pi * s**2) - 0.5 * (y0 - x) ** 2 / s**2
        )

    lml = -0.5 * math.log(2 * math.pi * (1 + s**2)) - 0.5 * y0**2 / (1 + s**2)
    post_var = 1.0 / (1 + 1 / s**2)
    post_mean = post_var * y0 / s**2
    spec = ProblemSpec(log_joint, ParameterTransform([-np.inf], [np.inf], [-1.0], [1.0]), x0=[x0])
    return spec, lml, post_mean, post_var


def gaussian_spec(cov, shift=0.0):
    """A 2-D Gaussian log joint with covariance ``cov`` plus ``shift``: the evidence is exp(shift)."""
    mean = np.array([0.3, -0.2])
    L = np.linalg.cholesky(cov)
    log_norm = -math.log(2 * math.pi) - np.log(np.diag(L)).sum()

    def log_joint(x):
        z = np.linalg.solve(L, np.asarray(x) - mean)
        return log_norm - 0.5 * z @ z + shift

    transform = ParameterTransform([-np.inf] * 2, [np.inf] * 2, [-2.5, -2.5], [2.5, 2.5])
    return ProblemSpec(log_joint, transform, x0=[0.0, 0.0])


RHO = 0.95
CORRELATED = np.array([[1.0, RHO], [RHO, 1.0]])
ALIGNED = np.diag([1.0 + RHO, 1.0 - RHO])  # the same Gaussian rotated onto the axes
WHITEN_BUDGET = 40


def frame_changes(history):
    """The records that start a new frame: each one's frame is not its predecessor's."""
    return [b for a, b in zip(history, history[1:]) if b.frame is not a.frame]


def fake_record(t, elbo_mean=0.0, elbo_sd=0.01, elcbo=None, rho=0.5,
                feats=(0.2, 0.3, 0.1), pruned=0, moments=None):
    if elcbo is None:
        elcbo = elbo_mean - 3 * elbo_sd
    if moments is None:
        moments = (np.zeros(1), np.eye(1))
    return IterationRecord(
        t=t, n_train=10 + 5 * t, fevals=10 + 5 * t, K=2,
        elbo_mean=elbo_mean, elbo_sd=elbo_sd, elcbo=elcbo,
        rho=rho, rho_features=feats, warmup=False, stop_sampling=False,
        pruned=pruned, between_sample_sd=0.0,
        vp=VariationalPosterior([1.0], [[0.0]], [1.0], [1.0]),
        frame=None,
        moments=moments,
    )


class TestInitialDesign:
    def test_exact_count_and_box(self):
        spec, *_ = conjugate_problem()
        eng = VBMC(spec)
        rng = np.random.default_rng(0)
        train, _ = eng._initial_design(rng)
        assert eng.fevals == 10
        assert train.n == 10
        # all points except possibly x0 lie inside the internal box
        inside = np.all((train.X >= -0.5) & (train.X <= 0.5), axis=1)
        assert inside.sum() >= 9

    def test_deterministic(self):
        spec, *_ = conjugate_problem()
        t1, _ = VBMC(spec)._initial_design(np.random.default_rng(7))
        t2, _ = VBMC(spec)._initial_design(np.random.default_rng(7))
        assert np.array_equal(t1.X, t2.X)
        assert np.array_equal(t1.y, t2.y)

    def test_all_failures_abort(self):
        spec, *_ = conjugate_problem()
        spec.log_joint = lambda x: float("nan")
        with pytest.raises(VBMCError):
            VBMC(spec)._initial_design(np.random.default_rng(1))

    def test_single_finite_point_aborts_run(self):
        # finite only at x0: one usable point, too few to fit GP hyperparameters
        spec, *_ = conjugate_problem(x0=0.3)
        inner = spec.log_joint
        spec.log_joint = lambda x: inner(x) if abs(x[0] - 0.3) < 1e-9 else -np.inf
        eng = VBMC(spec)
        with pytest.raises(VBMCError, match="only 1 initial-design") as info:
            eng.run(seed=0)
        assert info.value.history == []
        assert eng.fevals == N_INIT

    @pytest.mark.parametrize("max_fevals", [3, 5, 9])
    def test_budget_below_initial_design_raises(self, max_fevals):
        # the initial design alone would spend n_init = 10 evaluations
        spec, *_ = conjugate_problem()
        calls = []
        inner = spec.log_joint
        spec.log_joint = lambda x: calls.append(x) or inner(x)
        with pytest.raises(ValueError, match=f"max_fevals={max_fevals} .*n_init=10"):
            VBMC(spec, VBMCOptions(max_fevals=max_fevals))
        assert calls == []

    @pytest.mark.parametrize("max_fevals", ["abc", "60", 12.5, 40.0, True, 0, -5, [60]])
    def test_budget_not_a_positive_integer_raises(self, max_fevals):
        with pytest.raises(ValueError, match="max_fevals must be a positive integer"):
            VBMCOptions(max_fevals=max_fevals)

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [True]])
    def test_diag_gp_samples_not_a_bool_raises(self, flag):
        with pytest.raises(ValueError, match="diag_gp_samples must be true or false"):
            VBMCOptions(diag_gp_samples=flag)

    def test_numpy_integer_budget_accepted(self):
        assert VBMCOptions(max_fevals=np.int64(40)).max_fevals == 40

    def test_unknown_acquisition_raises_before_any_evaluation(self):
        spec, *_ = conjugate_problem()
        calls = []
        inner = spec.log_joint
        spec.log_joint = lambda x: calls.append(x) or inner(x)
        with pytest.raises(ValueError, match="unknown acquisition 'ucb'; allowed: us, pro"):
            VBMC(spec, VBMCOptions(max_fevals=40, acq="ucb")).run(seed=0)
        assert calls == []

    def test_budget_equal_to_initial_design_runs(self):
        spec, *_ = conjugate_problem()
        res = VBMC(spec, VBMCOptions(max_fevals=10)).run(seed=0)
        assert res.fevals == 10

    def test_jacobian_corrected_values(self):
        spec, *_ = conjugate_problem()
        eng = VBMC(spec)
        train, _ = eng._initial_design(np.random.default_rng(2))
        u = train.X[3]
        x = eng.transform.to_original(u)
        expected = spec.log_joint(x) - eng.transform.log_jacobian(x)
        assert train.y[3] == pytest.approx(expected, rel=1e-12)


class TestWarmupRules:
    def test_small_improvements_end_warmup(self):
        elcbos = [0.0, 0.5, 1.4, 1.7]  # improvements 0.5, 0.9, 0.3
        assert warmup_should_end(elcbos)

    def test_large_improvement_keeps_warming(self):
        assert not warmup_should_end([0.0, 0.5, 2.5, 2.8])

    def test_needs_enough_history(self):
        assert not warmup_should_end([0.0, 0.1])

    def test_trim_thresholds(self):
        spec, *_ = conjugate_problem()
        eng = VBMC(spec)
        eng.D = 2  # threshold 10 * D = 20 below the maximum
        from vbmc.gp import TrainingSet

        train = TrainingSet(
            np.arange(24).reshape(12, 2) * 0.01,
            np.array([0.0, -5, -10, -15, -19, -25, -30, -21, -3, -2, -1, -18]),
        )
        trimmed = eng._trim(train)
        assert trimmed.y.min() >= -20.0
        assert -15.0 in trimmed.y
        assert -25.0 not in trimmed.y

    @pytest.mark.parametrize("D, floor", [(2, 4), (3, 5)])
    def test_trim_keeps_a_floor_of_the_best_points(self, D, floor):
        # only 0 and -5 lie within 10 * D of the maximum, fewer than
        # max(4, D + 2): the best `floor` points are kept, in their order
        spec, *_ = conjugate_problem()
        eng = VBMC(spec)
        eng.D = D
        y = np.array([-50.0, 0.0, -40.0, -35.0, -5.0, -60.0, -38.0])
        X = np.arange(7.0)[:, None] * 0.1
        trimmed = eng._trim(TrainingSet(X, y))
        keep = np.sort(np.argsort(y)[::-1][:floor])
        assert np.array_equal(trimmed.y, y[keep])
        assert np.array_equal(trimmed.X, X[keep])


class TestSchedules:
    def test_n_gp_warmup_cap_applies(self):
        assert n_gp_schedule(25) == 16
        assert min(n_gp_schedule(25), WARMUP_NGP_CAP) == 8
        assert n_gp_schedule(100) == 8

    def test_k_max_clamp(self):
        history = [fake_record(1), fake_record(2, elbo_mean=10.0, elcbo=100.0)]
        K = k_schedule(history, 8, 27)
        assert K <= 9

    def test_grow_when_improving(self):
        history = [fake_record(t, elcbo=float(t)) for t in range(1, 6)]
        # stable (rho < 1) and improving, nothing pruned: +3
        K = k_schedule(history, 4, 1000)
        assert K == 7

    def test_no_growth_after_prune(self):
        history = [fake_record(t, elcbo=float(t)) for t in range(1, 5)]
        history.append(fake_record(5, elcbo=5.0, pruned=1))
        K = k_schedule(history, 4, 1000)
        assert K == 4

    def test_no_growth_when_flat_and_unstable(self):
        history = [fake_record(t, elcbo=1.0, rho=2.0) for t in range(1, 6)]
        K = k_schedule(history, 4, 1000)
        assert K == 4


class TestReliability:
    def test_identical_iterations_zero(self):
        history = [
            fake_record(1, elbo_mean=1.0, elbo_sd=0.0),
            fake_record(2, elbo_mean=1.0, elbo_sd=0.0),
        ]
        rho, feats = reliability_features(history, D=1)
        assert rho == pytest.approx(0.0)
        assert feats == (0.0, 0.0, 0.0)

    def test_elbo_change_scaling(self):
        history = [
            fake_record(1, elbo_mean=0.0, elbo_sd=0.0),
            fake_record(2, elbo_mean=0.1, elbo_sd=0.0),
        ]
        rho, feats = reliability_features(history, D=3)
        assert feats[0] == pytest.approx(1.0)

    def test_kl_tolerance_scales_with_dimension(self):
        m1 = (np.zeros(4), np.eye(4))
        m2 = (np.array([1.0, 0, 0, 0]), np.eye(4))  # skl = 0.5
        history = [fake_record(1, moments=m1), fake_record(2, moments=m2)]
        rho, feats = reliability_features(history, D=4)
        assert feats[2] == pytest.approx(0.5 / 0.02)

    def test_needs_two_iterations(self):
        rho, feats = reliability_features([fake_record(1)], D=1)
        assert rho is None


class TestTermination:
    def make_history(self, n=9, rho=0.5, feats=(0.2, 0.3, 0.1), slope=0.001):
        return [
            fake_record(t, elcbo=slope * t, rho=rho, feats=feats)
            for t in range(1, n + 1)
        ]

    def test_stable_termination(self):
        history = self.make_history()
        done, stable = termination_status(history, 100, 400, warmup=False)
        assert done and stable

    def test_steep_slope_blocks(self):
        history = self.make_history(slope=0.5)
        done, stable = termination_status(history, 100, 400, warmup=False)
        assert not done

    def test_budget_exhaustion(self):
        history = self.make_history(slope=0.5)
        done, stable = termination_status(history, 400, 400, warmup=False)
        assert done and not stable

    def test_one_unstable_iteration_tolerated(self):
        history = self.make_history()
        history[4].rho = 3.0
        done, stable = termination_status(history, 100, 400, warmup=False)
        assert done and stable

    def test_two_unstable_iterations_block(self):
        history = self.make_history()
        history[3].rho = 3.0
        history[5].rho = 3.0
        done, stable = termination_status(history, 100, 400, warmup=False)
        assert not done

    def test_warmup_blocks_stable_exit(self):
        history = self.make_history()
        done, stable = termination_status(history, 100, 400, warmup=True)
        assert not done

    def test_current_feature_at_one_blocks_stable_exit(self):
        history = self.make_history()
        history[-1].rho_features = (0.2, 1.0, 0.1)
        assert termination_status(history, 100, 400, warmup=False) == (False, False)
        assert termination_status(history, 400, 400, warmup=False) == (True, False)


class TestPruning:
    def test_prune_decisions(self, monkeypatch):
        spec, *_ = conjugate_problem()
        eng = VBMC(spec)

        class StubEst:
            def __init__(self, val):
                self.val = val
                self.elbo_mean = val
                self.elbo_sd = 0.0
                self.between_sample_var = 0.0

            def elcbo(self, beta):
                return self.val

        vp = VariationalPosterior(
            [0.005, 0.495, 0.5], [[0.0], [1.0], [2.0]], [1.0, 1.0, 1.0], [1.0]
        )

        # removal barely moves the ELCBO: prune
        monkeypatch.setattr(core_mod, "elbo", lambda *a, **k: StubEst(0.002))
        vp2, est2, pruned = eng._prune(vp, StubEst(0.0), None, np.random.default_rng(0))
        assert pruned == 1
        assert vp2.K == 2
        assert vp2.w.sum() == pytest.approx(1.0)

        # removal moves the ELCBO a lot: keep
        monkeypatch.setattr(core_mod, "elbo", lambda *a, **k: StubEst(0.5))
        vp3, est3, pruned = eng._prune(vp, StubEst(0.0), None, np.random.default_rng(0))
        assert pruned == 0
        assert vp3.K == 3


def raising_after(spec, n_ok):
    """Make call ``n_ok + 1`` (and later ones) of ``spec.log_joint`` raise."""
    inner = spec.log_joint
    calls = []

    def log_joint(x):
        calls.append(x)
        if len(calls) > n_ok:
            raise RuntimeError("simulator crashed")
        return inner(x)

    spec.log_joint = log_joint
    return spec


class TestRaisingLogJoint:
    def test_raise_in_initial_design(self):
        spec, *_ = conjugate_problem()
        eng = VBMC(raising_after(spec, 3))
        with pytest.raises(VBMCError, match="simulator crashed") as info:
            eng.run(seed=0)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert info.value.history == []
        assert eng.fevals == 3

    def test_raise_after_first_iteration(self, tmp_path, monkeypatch):
        writers = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            writers.append(fh)
            return fh

        # the engine opens a diagnostics path with the module-level name open
        monkeypatch.setattr(core_mod, "open", recording_open, raising=False)
        spec, *_ = conjugate_problem()
        # the first active-sampling batch starts after iteration 1
        eng = VBMC(raising_after(spec, N_INIT + 2))
        path = tmp_path / "diag.jsonl"
        with pytest.raises(VBMCError) as info:
            eng.run(seed=0, diagnostics=str(path))
        assert isinstance(info.value.__cause__, RuntimeError)
        assert [r.t for r in info.value.history] == [1]
        assert eng.fevals == N_INIT + 2
        assert len(writers) == 1 and writers[0].closed
        assert len(path.read_text().splitlines()) == 1


def inf_spikes(inner):
    """Every 7th call returns +inf and every 11th -inf."""
    calls = []

    def log_joint(x):
        calls.append(x)
        if len(calls) % 7 == 0:
            return np.inf
        return -np.inf if len(calls) % 11 == 0 else inner(x)

    return log_joint


class TestFailureInjection:
    @pytest.mark.parametrize("case", ["nan_half_space", "inf_spikes", "constant", "huge"])
    def test_ends_in_result_or_error_with_history(self, case):
        spec, *_ = conjugate_problem()
        inner = spec.log_joint
        spec.log_joint = {
            "nan_half_space": lambda x: float("nan") if x[0] > 0.4 else inner(x),
            "inf_spikes": inf_spikes(inner),
            "constant": lambda x: -1.5,
            "huge": lambda x: 1e300 - x[0] ** 2,
        }[case]
        eng = VBMC(spec, VBMCOptions(max_fevals=40))
        try:
            res = eng.run(seed=0)
        except VBMCError as err:
            assert isinstance(err.history, list)
            assert all(isinstance(r, IterationRecord) for r in err.history)
        else:
            assert isinstance(res, InferenceResult)
            assert np.isfinite(res.elbo_mean) and res.elbo_sd >= 0.0
            assert res.fevals <= 40
        assert eng.fevals <= 40


class TestHyperparameterUpdate:
    def test_slice_failure_fits_the_last_sample(self, monkeypatch):
        spec, *_ = conjugate_problem()
        engine = VBMC(spec)
        rng = np.random.default_rng(0)
        train = TrainingSet(rng.uniform(-1, 1, size=(12, 1)), rng.normal(size=12))
        last = default_hyperparams(train) + rng.normal(0.0, 0.01, size=6)
        engine._last_hyp = default_hyperparams(train)

        def failing(train, n_gp, init, rng):
            raise SliceSamplingError("forced", last.copy())

        monkeypatch.setattr(core_mod, "sample_hyperparameters", failing)
        samples = engine._update_hyperparameters(train, True, False, rng)
        ref = gp_fit(train, last)
        assert len(samples) == 1
        assert samples.theta.tobytes() == last.tobytes()
        for name in ("L", "jitter", "alpha", "lml"):
            assert np.array_equal(getattr(samples, name), getattr(ref, name)), name
        assert engine._last_hyp.tobytes() == last.tobytes()


class TestActiveSampling:
    def test_degenerate_acquisition_falls_back_to_uniform_draws(self, monkeypatch, caplog):
        spec, *_ = conjugate_problem()
        eng = VBMC(spec)
        draws = np.random.default_rng(4).uniform(-0.5, 0.5, size=(N_ACTIVE + 1, 1))
        # the first draw duplicates a training input, so it is drawn again
        train = TrainingSet(np.vstack([draws[:1], [[-0.9], [0.9]]]), np.array([0.0, -1.0, -1.2]))
        samples = gp_fit(train, default_hyperparams(train))

        def degenerate(*args):
            raise AcquisitionError("forced")

        monkeypatch.setattr(core_mod, "optimize_acquisition", degenerate)
        vp = VariationalPosterior([1.0], [[0.0]], [0.5], [1.0])
        out = eng._active_sample_batch(samples, vp, np.random.default_rng(4))
        assert np.array_equal(out.train.X[train.n:], draws[1:])
        assert eng.fevals == N_ACTIVE
        assert caplog.text.count("degenerate acquisition") == N_ACTIVE


class TestFreshIterations:
    def test_first_and_post_warmup_iterations_skip_sampling(self, monkeypatch):
        # iteration 1 and the iteration after warm-up's trim add no
        # evaluations and start from N_FAST_FIRST candidates per component
        n_fast = []
        select = core_mod.select_starting_points

        def recording(vp, K, n, *args, **kwargs):
            n_fast.append(n)
            return select(vp, K, n, *args, **kwargs)

        monkeypatch.setattr(core_mod, "select_starting_points", recording)
        spec, *_ = conjugate_problem()
        res = VBMC(spec, VBMCOptions(max_fevals=80)).run(seed=0)
        hist = res.history
        first_after_warmup = next(i for i, r in enumerate(hist) if not r.warmup)
        assert first_after_warmup > 0
        fresh = {0, first_after_warmup}
        new_fevals = np.diff([N_INIT] + [r.fevals for r in hist])
        assert len(n_fast) == len(hist)
        for i in range(len(hist)):
            if i in fresh:
                assert (new_fevals[i], n_fast[i]) == (0, N_FAST_FIRST)
            else:
                assert (new_fevals[i], n_fast[i]) == (N_ACTIVE, N_FAST)


class TestX0:
    @pytest.mark.parametrize(
        "bounds, x0, message",
        [
            ((-np.inf, np.inf), [0.1, 0.2, 0.3], "x0 has 3 values; the problem has D=1"),
            ((-2.0, 2.0), [2.5], "out of bounds on bounded dimension 0"),
            ((-np.inf, np.inf), [np.nan], r"x0 must be finite, got \[nan\]"),
            ((-np.inf, np.inf), [np.inf], r"x0 must be finite, got \[inf\]"),
            ((-2.0, 2.0), [np.nan], r"x0 must be finite, got \[nan\]"),
        ],
        ids=["wrong_length", "outside_bounds", "nan", "inf", "nan_bounded"],
    )
    def test_bad_x0_raises_when_built(self, bounds, x0, message):
        spec, *_ = conjugate_problem()
        calls = []
        inner = spec.log_joint
        spec.log_joint = lambda x: calls.append(x) or inner(x)
        spec.transform = ParameterTransform([bounds[0]], [bounds[1]], [-1.0], [1.0])
        spec.x0 = x0
        with pytest.raises(ValueError, match=message):
            VBMC(spec)
        assert calls == []

    def test_zero_dimensions_raise_when_built(self):
        spec, *_ = conjugate_problem()
        calls = []
        inner = spec.log_joint
        spec.log_joint = lambda x: calls.append(x) or inner(x)
        spec.x0 = None
        with pytest.raises(ValueError, match="bounds are empty"):
            spec.transform = ParameterTransform([], [], [], [])
            VBMC(spec)
        assert calls == []


class TestMomentsOriginal:
    def test_bounded_moments_match_quadrature(self):
        transform = ParameterTransform([0.0], [1.0], [0.2], [0.8])
        vp = VariationalPosterior([0.3, 0.7], [[-0.2], [0.4]], [0.3, 0.5], [1.0])
        res = InferenceResult(vp, None, transform, 0.0, 0.0, False, 0, 0)

        def moment(f):
            return quad(lambda u: f(transform.to_original([u])[0]) * math.exp(vp.logpdf([u])),
                        -np.inf, np.inf, epsabs=1e-12)[0]

        m1 = moment(lambda x: x)
        var = moment(lambda x: (x - m1) ** 2)
        m4 = moment(lambda x: (x - m1) ** 4)
        mean, cov = res.moments_original()
        assert cov.shape == (1, 1)
        # the sampled moments are within 5 standard errors of the integrals
        assert abs(mean[0] - m1) < 5 * math.sqrt(var / N_MOMENT_SAMPLES)
        assert abs(cov[0, 0] - var) < 5 * math.sqrt((m4 - var**2) / N_MOMENT_SAMPLES)


class TestFullRun:
    @pytest.fixture(scope="class")
    def conjugate_result(self):
        spec, lml, post_mean, post_var = conjugate_problem()
        result = VBMC(spec).run(seed=0)
        return spec, lml, post_mean, post_var, result

    def test_recovers_evidence_and_posterior(self, conjugate_result):
        spec, lml, post_mean, post_var, res = conjugate_result
        assert abs(res.elbo_mean - lml) < 0.5
        mean, cov = res.moments_original()
        from vbmc.variational import gaussian_skl

        gskl = gaussian_skl(
            mean, cov, np.array([post_mean]), np.array([[post_var]])
        )
        assert gskl < 0.1

    def test_budget_respected(self, conjugate_result):
        *_, res = conjugate_result
        assert res.fevals <= 150  # 50 * (1 + 2)

    def test_evaluation_accounting(self, conjugate_result):
        *_, res = conjugate_result
        sampling_iters = sum(
            1
            for a, b in zip(res.history, res.history[1:])
            if b.fevals > a.fevals
        )
        assert res.fevals == N_INIT + N_ACTIVE * sampling_iters

    def test_warmup_clamps_components(self, conjugate_result):
        *_, res = conjugate_result
        warm = [r for r in res.history if r.warmup]
        assert warm, "run never warmed up"
        for r in warm:
            assert r.K == 2
            assert np.allclose(r.vp.w, [0.5, 0.5])

    def test_k_max_invariant(self, conjugate_result):
        *_, res = conjugate_result
        for r in res.history:
            if not r.warmup:
                assert r.K <= math.ceil(r.n_train ** (2.0 / 3.0))

    def test_stop_sampling_latches(self, conjugate_result):
        *_, res = conjugate_result
        flags = [r.stop_sampling for r in res.history]
        if any(flags):
            first = flags.index(True)
            assert all(flags[first:])

    def test_elbo_below_evidence(self, conjugate_result):
        spec, lml, *_, res = conjugate_result
        for r in res.history:
            if not r.warmup:
                assert r.elbo_mean <= lml + 3 * r.elbo_sd + 0.05

    def test_bit_identical_reruns(self):
        spec, *_ = conjugate_problem()
        opts = VBMCOptions(max_fevals=60)
        r1 = VBMC(spec, opts).run(seed=11)
        r2 = VBMC(spec, opts).run(seed=11)
        assert r1.elbo_mean == r2.elbo_mean
        assert r1.elbo_sd == r2.elbo_sd
        assert np.array_equal(r1.vp.to_vector(), r2.vp.to_vector())
        assert [r.elcbo for r in r1.history] == [r.elcbo for r in r2.history]
        assert r1.fevals == r2.fevals

    def test_second_run_on_one_engine_starts_from_zero(self):
        engine = VBMC(make_lumpy(2, 0).problem_spec(), VBMCOptions(max_fevals=40))
        r1 = engine.run(seed=0)
        r2 = engine.run(seed=0)
        assert r2.elbo_mean == r1.elbo_mean
        assert r2.fevals == r1.fevals <= 40
        assert r2.iterations == r1.iterations

    def test_gp_sample_lines(self, tmp_path, monkeypatch):
        draws = []
        update = core_mod.VBMC._update_hyperparameters

        def recording(self, *args):
            samples = update(self, *args)
            draws.append(samples)
            return samples

        monkeypatch.setattr(core_mod.VBMC, "_update_hyperparameters", recording)
        spec, *_ = conjugate_problem()
        path = tmp_path / "diag.jsonl"
        opts = VBMCOptions(max_fevals=30, diag_gp_samples=True)
        res = VBMC(spec, opts).run(seed=3, diagnostics=str(path))
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        gp_lines = [l["gp_sample"] for l in lines if "gp_sample" in l]
        assert [l["t"] for l in lines if "t" in l] == [r.t for r in res.history]
        assert len(draws) == res.iterations
        for t, samples in enumerate(draws, start=1):
            assert sum(1 for g in gp_lines if g["iteration"] == t) == len(samples)
            # each psi is its draw's row, bit for bit
            assert [g["psi"] for g in gp_lines if g["iteration"] == t] == samples.theta.tolist()
        assert len(gp_lines) == sum(len(samples) for samples in draws)
        for g in gp_lines:
            assert len(g["psi"]) == 3 * 1 + 3
            assert math.isfinite(g["lml"])

    def test_file_like_target_gets_the_lines_of_a_path(self, tmp_path):
        spec, *_ = conjugate_problem()
        opts = VBMCOptions(max_fevals=30, diag_gp_samples=True)
        path = tmp_path / "diag.jsonl"
        VBMC(spec, opts).run(seed=3, diagnostics=str(path))
        target = io.StringIO()
        VBMC(spec, opts).run(seed=3, diagnostics=target)
        assert not target.closed
        assert target.getvalue() == path.read_text()
        assert any("gp_sample" in line for line in target.getvalue().splitlines())

    def test_diagnostics_stream(self, tmp_path):
        spec, *_ = conjugate_problem()
        path = tmp_path / "diag.jsonl"
        VBMC(spec, VBMCOptions(max_fevals=40)).run(seed=3, diagnostics=str(path))
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) >= 2
        for line in lines:
            assert {"t", "n", "K", "elbo_mean", "elbo_sd", "elcbo", "rho",
                    "warmup", "stop_sampling"} <= set(line)


class TestFrame:
    def frames(self):
        first = Frame(np.array([0.4, -1.0]), np.array([[2.0, 0.0], [-0.7, 0.3]]))
        step = Frame(np.array([0.1, 0.2]), np.array([[0.5, 0.0], [0.4, 1.5]]))
        return first, step, first.then(step)

    def test_points_round_trip(self):
        first, step, frame = self.frames()
        U = np.random.default_rng(0).standard_normal((6, 2))
        V = frame.to_internal(U)
        assert np.allclose(V, first.to_internal(step.to_internal(U)), rtol=0, atol=1e-14)
        assert np.allclose(frame.to_working(V), U, rtol=0, atol=1e-13)
        assert np.allclose(frame.to_working(frame.to_internal(U[0])), U[0], rtol=0, atol=1e-13)
        assert frame.log_det == pytest.approx(first.log_det + step.log_det, abs=1e-14)
        assert frame.log_det == pytest.approx(np.log(np.linalg.det(frame.matrix)), abs=1e-14)

    def test_points_round_trip_through_the_transform(self):
        *_, frame = self.frames()
        transform = ParameterTransform([-np.inf, 0.0], [np.inf, 5.0], [-1.0, 1.0], [1.0, 4.0])
        U = np.random.default_rng(1).uniform(-0.5, 0.5, size=(6, 2))
        x = transform.to_original(frame.to_internal(U))
        assert np.allclose(frame.to_working(transform.to_internal(x)), U, rtol=0, atol=1e-12)

    def whitened_result(self):
        *_, frame = self.frames()
        transform = ParameterTransform([-np.inf] * 2, [np.inf] * 2, [2.0, -1.0], [6.0, 0.0])
        vp = VariationalPosterior(
            [0.2, 0.5, 0.3], [[0.1, -0.3], [0.6, 0.2], [-0.4, 0.5]], [0.3, 0.5, 0.2], [1.0, 0.7]
        )
        return InferenceResult(vp, frame, transform, 0.0, 0.0, False, 0, 0, [])

    def test_moments_original_is_the_affine_map(self):
        res = self.whitened_result()
        mean_u, cov_u = res.vp.moments()
        W, c = res.frame.matrix, res.frame.center
        expected = res.transform.moments_to_original(c + W @ mean_u, W @ cov_u @ W.T)
        mean, cov = res.moments_original()
        assert np.allclose(mean, expected[0], rtol=1e-14, atol=0)
        assert np.allclose(cov, expected[1], rtol=1e-14, atol=1e-15)

    def test_moments_original_match_samples(self):
        res = self.whitened_result()
        mean, cov = res.moments_original()
        n = 200_000
        xs = res.sample_original(n, np.random.default_rng(2))
        d = xs - mean
        # each coordinate's mean and variance within 5 standard errors
        assert np.all(np.abs(d.mean(axis=0)) < 5 * np.sqrt(np.diag(cov) / n))
        var = (d**2).mean(axis=0)
        se_var = np.sqrt(((d**4).mean(axis=0) - var**2) / n)
        assert np.all(np.abs(var - np.diag(cov)) < 5 * se_var)
        cross = d[:, 0] * d[:, 1]
        assert abs(cross.mean() - cov[0, 1]) < 5 * cross.std() / math.sqrt(n)

    def test_rule_fires_above_its_threshold(self):
        m = np.array([0.2, -0.1])
        sd = np.array([0.3, 2.0])
        # at D = 2 the sKL to the diagonal is rho^2 / (2 (1 - rho^2))
        for rho, fires in ((0.0, False), (0.55, False), (0.6, True), (-0.95, True)):
            C = np.outer(sd, sd) * np.array([[1.0, rho], [rho, 1.0]])
            assert (0.5 * rho**2 / (1 - rho**2) > WHITEN_SKL) == fires
            step = whitening((m, C))
            if not fires:
                assert step is None
                continue
            assert np.array_equal(step.center, m)
            assert np.array_equal(step.matrix, np.linalg.cholesky(C))

    def test_whiten_maps_the_training_set_and_the_mixture(self):
        eng = VBMC(gaussian_spec(CORRELATED))
        eng._frame = None
        rng = np.random.default_rng(3)
        train = TrainingSet(rng.uniform(-0.5, 0.5, size=(12, 2)), rng.standard_normal(12))
        vp = VariationalPosterior([0.4, 0.6], [[0.1, 0.0], [-0.2, 0.3]], [0.2, 0.5], [0.5, 1.5])
        steps = [Frame(np.array([0.1, -0.1]), np.array([[0.3, 0.0], [0.25, 0.1]])),
                 Frame(np.array([0.5, 0.0]), np.array([[2.0, 0.0], [-0.5, 1.0]]))]
        for step in steps:
            new_train, new_vp = eng._whiten(train, vp, step)
            assert np.array_equal(new_train.X, step.to_working(train.X))
            assert np.array_equal(new_train.y, train.y + step.log_det)
            assert np.array_equal(eng._last_hyp, default_hyperparams(new_train))
            assert np.array_equal(new_vp.w, vp.w)
            assert np.array_equal(new_vp.mu, step.to_working(vp.mu))
            assert np.array_equal(new_vp.lam, np.ones(2))
            # each component keeps its volume: det(sigma^2 diag(lam^2)) / det(L)^2
            volume = 2 * np.log(vp.sigma) + np.sum(np.log(vp.lam)) - step.log_det
            assert np.allclose(2 * np.log(new_vp.sigma), volume, rtol=0, atol=1e-14)
            train, vp = new_train, new_vp
        assert np.allclose(eng._frame.matrix, steps[0].matrix @ steps[1].matrix, rtol=1e-15)
        assert np.allclose(eng._frame.center, steps[0].to_internal(steps[1].center), rtol=1e-15)


class TestWhitening:
    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for name, cov in (("correlated", CORRELATED), ("aligned", ALIGNED)):
            diag = io.StringIO()
            engine = VBMC(gaussian_spec(cov), VBMCOptions(max_fevals=WHITEN_BUDGET))
            out[name] = engine.run(seed=0, diagnostics=diag), diag.getvalue()
        return out

    def test_both_reach_the_evidence(self, runs):
        for res, _ in runs.values():
            assert res.fevals <= WHITEN_BUDGET
            assert abs(res.elbo_mean) < 0.05  # the evidence is 1

    def test_only_the_correlated_target_changes_frame(self, runs):
        res, _ = runs["correlated"]
        assert frame_changes(res.history)
        assert res.frame is not None
        assert res.history[0].frame is None
        res, _ = runs["aligned"]
        assert all(r.frame is None for r in res.history)
        assert res.frame is None

    def test_frame_change_starts_fresh(self, runs):
        res, _ = runs["correlated"]
        for record in frame_changes(res.history):
            before = res.history[record.t - 2]
            assert record.fevals == before.fevals  # no active sampling after a change
            assert not record.warmup and not record.stop_sampling

    def test_records_keep_internal_moments(self, runs):
        res, _ = runs["correlated"]
        for record in res.history:
            moments = record.vp.moments()
            if record.frame is not None:
                moments = record.frame.moments_to_internal(*moments)
            assert np.array_equal(record.moments[0], moments[0])
            assert np.array_equal(record.moments[1], moments[1])

    def test_diagnostic_lines_say_whitened(self, runs):
        import json

        for res, text in runs.values():
            lines = [json.loads(line) for line in text.splitlines()]
            assert [line["whitened"] for line in lines] == [r.frame is not None for r in res.history]

    def test_result_moments_match_the_truth(self, runs):
        for name, cov in (("correlated", CORRELATED), ("aligned", ALIGNED)):
            res, _ = runs[name]
            mean, sample_cov = res.moments_original()
            assert gaussian_skl(mean, sample_cov, np.array([0.3, -0.2]), cov) < 0.05

    def test_a_constant_offset_moves_the_evidence_by_itself(self, runs):
        base, _ = runs["correlated"]
        for shift in (100.0, -50.0):
            res = VBMC(gaussian_spec(CORRELATED, shift), VBMCOptions(max_fevals=WHITEN_BUDGET)).run(seed=0)
            assert frame_changes(res.history)
            # the offset redraws the trajectory, so the two estimates differ
            # by about the run's own accuracy, not by any part of the offset
            assert abs(res.elbo_mean - shift - base.elbo_mean) < 1e-2

    @pytest.fixture(scope="class")
    def always_whitening(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core_mod, "WHITEN_SKL", -1.0)
            engine = VBMC(gaussian_spec(CORRELATED), VBMCOptions(max_fevals=WHITEN_BUDGET))
            return engine, engine.run(seed=0)

    def test_a_rule_that_always_fires_still_spends_its_budget(self, always_whitening):
        _, res = always_whitening
        changes = frame_changes(res.history)
        assert len(changes) >= 2
        assert res.fevals <= WHITEN_BUDGET
        assert res.history[-1].fevals + N_ACTIVE > WHITEN_BUDGET  # it ended on its budget
        fevals = [record.fevals for record in changes]
        assert all(a < b for a, b in zip(fevals, fevals[1:]))

    def test_fallback_returns_its_own_record_across_frame_changes(self, always_whitening):
        engine, res = always_whitening
        history = res.history
        last = history[-1].frame
        # the newest iterate whose frame a later change replaced
        pick = max(i for i, r in enumerate(history) if r.frame is not last and not r.warmup)
        engine._history = [
            r if i == pick else dataclasses.replace(r, elbo_mean=r.elbo_mean - 1e3)
            for i, r in enumerate(history)
        ]
        out = engine._assemble_result(stable=False)
        chosen = history[pick]
        assert out.vp is chosen.vp and out.frame is chosen.frame
        assert out.frame is not engine._frame
        mean, cov = out.moments_original()
        expected = engine.transform.moments_to_original(*chosen.moments)
        assert np.array_equal(mean, expected[0]) and np.array_equal(cov, expected[1])
