import math

import numpy as np
import pytest

from vbmc import core as core_mod
from vbmc.core import (
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
)
from vbmc.gp import n_gp_schedule
from vbmc.variational import VariationalPosterior


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
    spec = ProblemSpec(
        log_joint, lb=[-np.inf], ub=[np.inf], plb=[-1.0], pub=[1.0], x0=[x0]
    )
    return spec, lml, post_mean, post_var


def fake_record(t, elbo_mean=0.0, elbo_sd=0.01, elcbo=None, rho=0.5,
                feats=(0.2, 0.3, 0.1), pruned=0, moments=None):
    if elcbo is None:
        elcbo = elbo_mean - 3 * elbo_sd
    if moments is None:
        moments = (np.zeros(1), np.eye(1))
    return IterationRecord(
        t=t, n_train=10 + 5 * t, fevals=10 + 5 * t, K=2,
        elbo_mean=elbo_mean, elbo_sd=elbo_sd, elcbo=elcbo, entropy=1.0,
        rho=rho, rho_features=feats, warmup=False, stop_sampling=False,
        pruned=pruned, between_sample_sd=0.0,
        vp=VariationalPosterior([1.0], [[0.0]], [1.0], [1.0]),
        moments=moments,
    )


class TestInitialDesign:
    def test_exact_count_and_box(self):
        spec, *_ = conjugate_problem()
        eng = VBMC(spec, VBMCOptions())
        rng = np.random.default_rng(0)
        train = eng._initial_design(rng)
        assert eng.fevals == 10
        assert train.n == 10
        # all points except possibly x0 lie inside the internal box
        inside = np.all((train.X >= -0.5) & (train.X <= 0.5), axis=1)
        assert inside.sum() >= 9

    def test_deterministic(self):
        spec, *_ = conjugate_problem()
        t1 = VBMC(spec)._initial_design(np.random.default_rng(7))
        t2 = VBMC(spec)._initial_design(np.random.default_rng(7))
        assert np.array_equal(t1.X, t2.X)
        assert np.array_equal(t1.y, t2.y)

    def test_all_failures_abort(self):
        spec, *_ = conjugate_problem()
        spec.log_joint = lambda x: float("nan")
        with pytest.raises(VBMCError):
            VBMC(spec)._initial_design(np.random.default_rng(1))

    def test_jacobian_corrected_values(self):
        spec, *_ = conjugate_problem()
        eng = VBMC(spec)
        train = eng._initial_design(np.random.default_rng(2))
        u = train.X[3]
        x = eng.transform.to_original(u)
        expected = spec.log_joint(x) - eng.transform.log_jacobian(x)
        assert train.y[3] == pytest.approx(expected, rel=1e-12)


class TestWarmupRules:
    def test_small_improvements_end_warmup(self):
        opts = VBMCOptions()
        elcbos = [0.0, 0.5, 1.4, 1.7]  # improvements 0.5, 0.9, 0.3
        assert warmup_should_end(elcbos, opts)

    def test_large_improvement_keeps_warming(self):
        opts = VBMCOptions()
        assert not warmup_should_end([0.0, 0.5, 2.5, 2.8], opts)

    def test_needs_enough_history(self):
        opts = VBMCOptions()
        assert not warmup_should_end([0.0, 0.1], opts)

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


class TestSchedules:
    def test_n_gp_warmup_cap_applies(self):
        assert n_gp_schedule(25) == 16
        assert min(n_gp_schedule(25), VBMCOptions().warmup_ngp_cap) == 8
        assert n_gp_schedule(100) == 8

    def test_k_max_clamp(self):
        history = [fake_record(1), fake_record(2, elbo_mean=10.0, elcbo=100.0)]
        K = k_schedule(history, 8, 27, VBMCOptions())
        assert K <= 9

    def test_grow_when_improving(self):
        history = [fake_record(t, elcbo=float(t)) for t in range(1, 6)]
        # stable (rho < 1) and improving, nothing pruned: +3
        K = k_schedule(history, 4, 1000, VBMCOptions())
        assert K == 7

    def test_no_growth_after_prune(self):
        history = [fake_record(t, elcbo=float(t)) for t in range(1, 5)]
        history.append(fake_record(5, elcbo=5.0, pruned=1))
        K = k_schedule(history, 4, 1000, VBMCOptions())
        assert K == 4

    def test_no_growth_when_flat_and_unstable(self):
        history = [fake_record(t, elcbo=1.0, rho=2.0) for t in range(1, 6)]
        K = k_schedule(history, 4, 1000, VBMCOptions())
        assert K == 4


class TestReliability:
    def test_identical_iterations_zero(self):
        opts = VBMCOptions()
        history = [
            fake_record(1, elbo_mean=1.0, elbo_sd=0.0),
            fake_record(2, elbo_mean=1.0, elbo_sd=0.0),
        ]
        rho, feats = reliability_features(history, opts, D=1)
        assert rho == pytest.approx(0.0)
        assert feats == (0.0, 0.0, 0.0)

    def test_elbo_change_scaling(self):
        opts = VBMCOptions()
        history = [
            fake_record(1, elbo_mean=0.0, elbo_sd=0.0),
            fake_record(2, elbo_mean=0.1, elbo_sd=0.0),
        ]
        rho, feats = reliability_features(history, opts, D=3)
        assert feats[0] == pytest.approx(1.0)

    def test_kl_tolerance_scales_with_dimension(self):
        opts = VBMCOptions()
        m1 = (np.zeros(4), np.eye(4))
        m2 = (np.array([1.0, 0, 0, 0]), np.eye(4))  # skl = 0.5
        history = [fake_record(1, moments=m1), fake_record(2, moments=m2)]
        rho, feats = reliability_features(history, opts, D=4)
        assert feats[2] == pytest.approx(0.5 / 0.02)

    def test_needs_two_iterations(self):
        rho, feats = reliability_features([fake_record(1)], VBMCOptions(), D=1)
        assert rho is None


class TestTermination:
    def make_history(self, n=9, rho=0.5, feats=(0.2, 0.3, 0.1), slope=0.001):
        return [
            fake_record(t, elcbo=slope * t, rho=rho, feats=feats)
            for t in range(1, n + 1)
        ]

    def test_stable_termination(self):
        history = self.make_history()
        done, stable = termination_status(
            history, 100, 400, VBMCOptions(), warmup=False, n_active=5
        )
        assert done and stable

    def test_steep_slope_blocks(self):
        history = self.make_history(slope=0.5)
        done, stable = termination_status(
            history, 100, 400, VBMCOptions(), warmup=False, n_active=5
        )
        assert not done

    def test_budget_exhaustion(self):
        history = self.make_history(slope=0.5)
        done, stable = termination_status(
            history, 400, 400, VBMCOptions(), warmup=False, n_active=5
        )
        assert done and not stable

    def test_one_unstable_iteration_tolerated(self):
        history = self.make_history()
        history[4].rho = 3.0
        done, stable = termination_status(
            history, 100, 400, VBMCOptions(), warmup=False, n_active=5
        )
        assert done and stable

    def test_two_unstable_iterations_block(self):
        history = self.make_history()
        history[3].rho = 3.0
        history[5].rho = 3.0
        done, stable = termination_status(
            history, 100, 400, VBMCOptions(), warmup=False, n_active=5
        )
        assert not done

    def test_warmup_blocks_stable_exit(self):
        history = self.make_history()
        done, stable = termination_status(
            history, 100, 400, VBMCOptions(), warmup=True, n_active=5
        )
        assert not done


class TestPruning:
    def test_prune_decisions(self, monkeypatch):
        spec, *_ = conjugate_problem()
        eng = VBMC(spec)

        class StubEst:
            def __init__(self, val):
                self.val = val
                self.elbo_mean = val
                self.elbo_sd = 0.0
                self.entropy = 0.0
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

        class RecordingWriter(core_mod._DiagnosticsWriter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                writers.append(self)

        monkeypatch.setattr(core_mod, "_DiagnosticsWriter", RecordingWriter)
        spec, *_ = conjugate_problem()
        opts = VBMCOptions()
        # the first active-sampling batch starts after iteration 1
        eng = VBMC(raising_after(spec, opts.n_init + 2), opts)
        path = tmp_path / "diag.jsonl"
        with pytest.raises(VBMCError) as info:
            eng.run(seed=0, diagnostics=str(path))
        assert isinstance(info.value.__cause__, RuntimeError)
        assert [r.t for r in info.value.history] == [1]
        assert eng.fevals == opts.n_init + 2
        assert len(writers) == 1 and writers[0].fh.closed
        assert len(path.read_text().splitlines()) == 1


class TestFullRun:
    @pytest.fixture(scope="class")
    def conjugate_result(self):
        spec, lml, post_mean, post_var = conjugate_problem()
        result = VBMC(spec, VBMCOptions()).run(seed=0)
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
        opts = VBMCOptions()
        sampling_iters = sum(
            1
            for a, b in zip(res.history, res.history[1:])
            if b.fevals > a.fevals
        )
        assert res.fevals == opts.n_init + opts.n_active * sampling_iters

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
