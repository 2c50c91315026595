"""Top-level inference loop.

Each iteration actively samples a batch of log-joint evaluations, refreshes
the GP hyperparameters (sampling early, MAP once sampling stops paying),
adapts the mixture size, optimizes the ELBO, and scores the solution's
reliability. A warm-up phase with two clamped components moves the
posterior into the high-density region before the machinery unlocks.
"""

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .acquisition import (
    AcquisitionContext,
    AcquisitionError,
    optimize_acquisition,
    search_box,
)
from .gp import (
    GPHyperparams,
    HyperparamSampleSet,
    TrainingSet,
    default_hyperparams,
    gp_fit,
    n_gp_schedule,
    optimize_hyperparameters,
    sample_hyperparameters,
)
from .optim import OptimOptions, optimize_elbo, select_starting_points
from .quadrature import elbo
from .slice_sampler import SliceSamplingError
from .transforms import ParameterTransform
from .variational import VariationalPosterior, gaussian_skl

logger = logging.getLogger("vbmc")

__all__ = [
    "ProblemSpec",
    "VBMCOptions",
    "IterationRecord",
    "InferenceResult",
    "VBMCError",
    "VBMC",
    "run",
]


class VBMCError(RuntimeError):
    """Unrecoverable failure; carries partial per-iteration diagnostics."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


@dataclass
class ProblemSpec:
    """A target posterior: log-joint callable plus bound metadata.

    ``log_joint`` takes a point in original coordinates and returns the
    unnormalized log posterior density (log likelihood + log prior).
    """

    log_joint: callable
    lb: np.ndarray
    ub: np.ndarray
    plb: np.ndarray
    pub: np.ndarray
    x0: np.ndarray | None = None
    name: str = ""

    def transform(self):
        return ParameterTransform(self.lb, self.ub, self.plb, self.pub)

    @property
    def D(self):
        return np.atleast_1d(np.asarray(self.plb)).size


@dataclass
class VBMCOptions:
    """Algorithm settings; defaults follow the reference configuration."""

    max_fevals: int | None = None  # defaults to 50 (D + 2)
    n_init: int = 10
    n_active: int = 5
    acq: str = "pro"
    beta_lcb: float = 3.0
    beta_lcb_fallback: float = 5.0
    w_min: float = 0.01
    eps_prune: float = 0.01
    n_recent: int = 4
    n_stable: int = 8
    delta_sd: float = 0.1
    delta_kl_unit: float = 0.01  # scaled by sqrt(D)
    delta_impro: float = 0.01
    warmup_improvement: float = 1.0
    warmup_patience: int = 3
    warmup_ngp_cap: int = 8
    trim_multiplier: float = 10.0  # scaled by D
    kmax_power: float = 2.0 / 3.0
    stop_sampling_frac: float = 0.1  # of delta_sd
    stop_sampling_patience: int = 3
    n_entropy: int = 100
    n_entropy_readout: int = 2**15
    n_entropy_prune: int = 2**13
    adam_max_iter: int = 5000
    alpha_max_warmup: float = 0.1
    alpha_max_main: float = 0.01
    n_fast: int = 5
    n_fast_first: int = 50
    acq_probes: int = 1000
    cma_max_gen: int = 200
    search_box_scale: float = 3.0
    init_sigma: float = 0.1
    init_mu_jitter: float = 0.1
    diag_gp_samples: bool = False

    def resolve_max_fevals(self, D):
        return self.max_fevals if self.max_fevals is not None else 50 * (D + 2)


@dataclass
class IterationRecord:
    """Per-iteration diagnostics and solution snapshot."""

    t: int
    n_train: int
    fevals: int
    K: int
    elbo_mean: float
    elbo_sd: float
    elcbo: float
    entropy: float
    rho: float | None
    rho_features: tuple | None
    warmup: bool
    stop_sampling: bool
    pruned: int
    between_sample_sd: float
    vp: VariationalPosterior
    moments: tuple

    def to_json(self):
        return {
            "t": self.t,
            "n": self.n_train,
            "fevals": self.fevals,
            "K": self.K,
            "elbo_mean": self.elbo_mean,
            "elbo_sd": self.elbo_sd,
            "elcbo": self.elcbo,
            "rho": self.rho,
            "rho_features": list(self.rho_features) if self.rho_features else None,
            "warmup": self.warmup,
            "stop_sampling": self.stop_sampling,
            "pruned": self.pruned,
        }


@dataclass
class InferenceResult:
    """Final variational posterior with evidence estimates and diagnostics."""

    vp: VariationalPosterior
    transform: ParameterTransform
    elbo_mean: float
    elbo_sd: float
    stable: bool
    iterations: int
    fevals: int
    reliability_trace: list
    history: list = field(repr=False, default_factory=list)

    def sample_original(self, n, rng):
        """Posterior draws mapped back to original coordinates."""
        return self.transform.to_original(self.vp.sample(n, rng))

    def moments_original(self, n_samples=2**16, rng=None):
        """Posterior mean/covariance in original coordinates.

        Exact affine inversion when every dimension is unbounded;
        otherwise estimated from mapped samples.
        """
        if not np.any(self.transform.bounded):
            return self.transform.moments_to_original(*self.vp.moments())
        rng = np.random.default_rng(0) if rng is None else rng
        xs = self.sample_original(n_samples, rng)
        return xs.mean(axis=0), np.cov(xs.T).reshape(self.vp.D, self.vp.D)


def reliability_features(history, options, D):
    """Reliability index and its three features for the newest record."""
    if len(history) < 2:
        return None, None
    cur, prev = history[-1], history[-2]
    rho1 = abs(cur.elbo_mean - prev.elbo_mean) / options.delta_sd
    rho2 = cur.elbo_sd / options.delta_sd
    delta_kl = options.delta_kl_unit * math.sqrt(D)
    try:
        skl = gaussian_skl(*cur.moments, *prev.moments)
    except np.linalg.LinAlgError:
        skl = np.inf
    rho3 = skl / delta_kl
    feats = (rho1, rho2, rho3)
    return float(np.mean(feats)), feats


def termination_status(history, fevals, max_fevals, options, warmup, n_active):
    """(done, stable): long-term stability or exhausted budget."""
    budget_done = fevals >= max_fevals or fevals + n_active > max_fevals
    if warmup or len(history) < options.n_stable:
        return budget_done, False
    cur = history[-1]
    if cur.rho_features is None or not all(f < 1.0 for f in cur.rho_features):
        return budget_done, False
    window = history[-options.n_stable :]
    violations = sum(
        1 for r in window[:-1] if r.rho is None or r.rho >= 1.0
    )
    if violations > 1:
        return budget_done, False
    ts = np.array([r.t for r in window], dtype=float)
    es = np.array([r.elcbo for r in window])
    slope = np.polyfit(ts, es, 1)[0]
    if slope >= options.delta_impro:
        return budget_done, False
    return True, True


def warmup_should_end(elcbos, options):
    """Warm-up ends after ``warmup_patience`` consecutive small improvements."""
    if len(elcbos) < options.warmup_patience + 1:
        return False
    improvements = np.diff(elcbos)[-options.warmup_patience :]
    return bool(np.all(improvements < options.warmup_improvement))


def k_schedule(history, K_current, n_train, options):
    """Next component count: grow when improving/stable, clamp at n^(2/3)."""
    k_max = max(2, math.ceil(n_train**options.kmax_power))
    K = K_current
    if len(history) >= 2:
        recent = history[-1]
        window = history[-1 - options.n_recent : -1]
        improving = bool(window) and recent.elcbo > max(r.elcbo for r in window)
        pruned_last = recent.pruned > 0
        if improving and not pruned_last:
            K += 1
        stable = recent.rho is not None and recent.rho < 1.0
        if stable and not pruned_last:
            K += 2
    return min(K, k_max)


class VBMC:
    """Single-run inference engine over one :class:`ProblemSpec`."""

    def __init__(self, problem, options=None):
        self.problem = problem
        self.options = options or VBMCOptions()
        self.transform = problem.transform()
        self.D = self.transform.D
        self.max_fevals = self.options.resolve_max_fevals(self.D)
        self.fevals = 0
        self.archive = []  # dicts: u, y (internal), ok
        self._consecutive_failures = 0
        self._history = []

    # -- evaluation ----------------------------------------------------

    def _evaluate(self, u):
        """Evaluate the log joint at internal coordinates ``u``.

        Returns (y_internal, ok); non-finite values are archived and
        excluded from the GP training data. An exception raised by the log
        joint ends the run with a :class:`VBMCError` carrying the history.
        """
        x = self.transform.to_original(u)
        try:
            y_orig = float(self.problem.log_joint(x))
        except Exception as err:
            raise VBMCError(
                f"log joint raised at {np.array_str(np.asarray(x), precision=4)}: "
                f"{err!r}",
                history=self._history,
            ) from err
        self.fevals += 1
        if np.isfinite(y_orig):
            y = y_orig - float(self.transform.log_jacobian(x))
            if np.isfinite(y):
                self.archive.append({"u": np.array(u), "y": y, "ok": True})
                self._consecutive_failures = 0
                return y, True
        self._consecutive_failures += 1
        logger.warning("non-finite log joint at %s (failure #%d)",
                       np.array_str(np.asarray(x), precision=4),
                       self._consecutive_failures)
        self.archive.append({"u": np.array(u), "y": None, "ok": False})
        return None, False

    def _penalty_value(self):
        ys = [a["y"] for a in self.archive if a["ok"]]
        y_max = max(ys) if ys else 0.0
        return y_max - self.options.trim_multiplier * self.D - 10.0

    # -- iteration pieces ----------------------------------------------

    def _initial_design(self, rng):
        opts = self.options
        if self.problem.x0 is not None:
            u0 = self.transform.to_internal(np.asarray(self.problem.x0, float))
        else:
            u0 = rng.uniform(-0.5, 0.5, size=self.D)
        points = [u0] + [
            rng.uniform(-0.5, 0.5, size=self.D) for _ in range(opts.n_init - 1)
        ]
        X, y = [], []
        for u in points:
            val, ok = self._evaluate(u)
            if ok:
                X.append(u)
                y.append(val)
        if not X:
            raise VBMCError("all initial-design evaluations were non-finite")
        self._x0_internal = u0
        return TrainingSet(np.array(X), np.array(y))

    def _initial_vp(self, rng):
        opts = self.options
        mu = self._x0_internal + opts.init_mu_jitter * rng.standard_normal((2, self.D))
        return VariationalPosterior(
            [0.5, 0.5], mu, [opts.init_sigma, opts.init_sigma], np.ones(self.D)
        )

    def _active_sample_batch(self, train, samples, vp, rng):
        opts = self.options
        for _ in range(opts.n_active):
            lo, hi = search_box(train, opts.search_box_scale)
            ctx = AcquisitionContext(samples, vp, lo, hi, kind=opts.acq)
            try:
                u_next = optimize_acquisition(
                    ctx, rng, n_probes=opts.acq_probes, max_gen=opts.cma_max_gen
                )
            except AcquisitionError:
                logger.warning("degenerate acquisition; falling back to a uniform draw")
                u_next = rng.uniform(-0.5, 0.5, size=self.D)
                for _ in range(100):
                    if not train.is_duplicate(u_next):
                        break
                    u_next = rng.uniform(-0.5, 0.5, size=self.D)
            y, ok = self._evaluate(u_next)
            if ok:
                samples = samples.with_point(u_next, y)
                train = samples.train
            else:
                logger.error(
                    "excluding failed evaluation from the surrogate "
                    "(recorded penalty %.1f)", self._penalty_value(),
                )
                self.archive[-1]["y"] = self._penalty_value()
                if self._consecutive_failures >= 2 * opts.n_active:
                    raise VBMCError(
                        "repeated log-joint failures during active sampling",
                        history=self._history,
                    )
        return train, samples

    def _update_hyperparameters(self, train, warmup, stop_sampling, rng):
        opts = self.options
        if not stop_sampling:
            n_gp = n_gp_schedule(train.n)
            if warmup:
                n_gp = min(n_gp, opts.warmup_ngp_cap)
            try:
                samples = sample_hyperparameters(train, n_gp, self._last_hyp, rng)
            except SliceSamplingError as err:
                logger.warning("slice sampling failed (%s); using last valid sample", err)
                hyp = GPHyperparams.from_vector(err.last_sample, train.D)
                samples = HyperparamSampleSet([gp_fit(train, hyp)])
        else:
            hyp = optimize_hyperparameters(train, self._last_hyp, rng)
            samples = HyperparamSampleSet([gp_fit(train, hyp)])
        self._last_hyp = samples.posteriors[-1].hyp
        return samples

    def _prune(self, vp, est, samples, rng):
        """Remove negligible-weight components that do not move the ELCBO.

        Candidates (weight below threshold) are visited in random order;
        each removal renormalizes the remaining weights and is kept only
        if the ELCBO barely changes.
        """
        opts = self.options
        pruned = 0
        order = rng.permutation(vp.K)
        removed = []
        for orig_k in order:
            if vp.K == 1:
                break
            k = int(orig_k - sum(1 for r in removed if r < orig_k))
            if vp.w[k] >= opts.w_min:
                continue
            vp_try = vp.without_component(k)
            est_try = elbo(vp_try, samples, opts.n_entropy_prune, rng)
            change = abs(est_try.elcbo(opts.beta_lcb) - est.elcbo(opts.beta_lcb))
            if change < opts.eps_prune:
                vp, est = vp_try, est_try
                removed.append(orig_k)
                pruned += 1
        return vp, est, pruned

    # -- main loop -------------------------------------------------------

    def run(self, seed=0, diagnostics=None):
        """Run inference to termination; deterministic for a fixed seed.

        An owned diagnostics file is closed however the run ends.
        """
        diag = _DiagnosticsWriter(diagnostics, include_gp=self.options.diag_gp_samples)
        try:
            return self._iterate(np.random.default_rng(seed), diag)
        finally:
            diag.close()

    def _iterate(self, rng, diag):
        """The main loop of :meth:`run`; returns the assembled result."""
        opts = self.options
        self._history = []

        train = self._initial_design(rng)
        self._last_hyp = default_hyperparams(train)
        vp = self._initial_vp(rng)

        warmup = True
        stop_sampling = False
        stop_strikes = 0
        skip_active = False
        boost_fast = False
        samples = None
        t = 0
        stable_done = False

        while True:
            t += 1
            if t > 1 and not skip_active:
                train, samples = self._active_sample_batch(train, samples, vp, rng)
            skip_active = False

            samples = self._update_hyperparameters(train, warmup, stop_sampling, rng)

            if warmup:
                K_target = 2
            else:
                # growth only; shrinking happens through pruning
                K_target = max(vp.K, k_schedule(self._history, vp.K, train.n, opts))

            n_fast = opts.n_fast_first if (t == 1 or boost_fast) else opts.n_fast
            boost_fast = False
            optim_opts = OptimOptions(
                n_entropy=opts.n_entropy,
                n_entropy_readout=opts.n_entropy_readout,
                max_iter=opts.adam_max_iter,
                freeze_weights=warmup,
                alpha_max=opts.alpha_max_warmup if warmup else opts.alpha_max_main,
            )
            vp_init = select_starting_points(
                vp, K_target, n_fast, samples, rng, optim_opts
            )
            vp, est = optimize_elbo(vp_init, samples, optim_opts, rng)

            pruned = 0
            if not warmup:
                vp, est, pruned = self._prune(vp, est, samples, rng)

            record = IterationRecord(
                t=t,
                n_train=train.n,
                fevals=self.fevals,
                K=vp.K,
                elbo_mean=est.elbo_mean,
                elbo_sd=est.elbo_sd,
                elcbo=est.elcbo(opts.beta_lcb),
                entropy=est.entropy,
                rho=None,
                rho_features=None,
                warmup=warmup,
                stop_sampling=stop_sampling,
                pruned=pruned,
                between_sample_sd=math.sqrt(max(est.between_sample_var, 0.0)),
                vp=vp,
                moments=vp.moments(),
            )
            self._history.append(record)
            record.rho, record.rho_features = reliability_features(
                self._history, opts, self.D
            )
            diag.iteration(record, samples)

            if warmup and warmup_should_end([r.elcbo for r in self._history], opts):
                warmup = False
                train = self._trim(train)
                skip_active = True
                boost_fast = True
                logger.info("warm-up ended at iteration %d (n=%d after trim)",
                            t, train.n)

            if not warmup and not stop_sampling and record.warmup is False:
                threshold = opts.stop_sampling_frac * opts.delta_sd
                if record.between_sample_sd < threshold:
                    stop_strikes += 1
                else:
                    stop_strikes = 0
                if stop_strikes >= opts.stop_sampling_patience:
                    stop_sampling = True
                    logger.info("switching to MAP hyperparameters at iteration %d", t)

            done, stable_done = termination_status(
                self._history, self.fevals, self.max_fevals, opts, warmup,
                opts.n_active,
            )
            if done:
                break

        return self._assemble_result(stable_done)

    def _trim(self, train):
        cutoff = train.y.max() - self.options.trim_multiplier * self.D
        keep = train.y >= cutoff
        floor = min(train.n, max(4, self.D + 2))  # enough points to refit
        if keep.sum() < floor:
            order = np.argsort(train.y)[::-1][:floor]
            keep = np.zeros(train.n, dtype=bool)
            keep[order] = True
        return train.subset(keep)

    def _assemble_result(self, stable):
        opts = self.options
        if stable:
            final = self._history[-1]
        else:
            logger.warning(
                "terminated without long-term stability; returning the "
                "iterate with the best conservative ELCBO"
            )
            scores = [
                r.elbo_mean - opts.beta_lcb_fallback * r.elbo_sd
                for r in self._history
            ]
            final = self._history[int(np.argmax(scores))]
        return InferenceResult(
            vp=final.vp,
            transform=self.transform,
            elbo_mean=final.elbo_mean,
            elbo_sd=final.elbo_sd,
            stable=stable,
            iterations=len(self._history),
            fevals=self.fevals,
            reliability_trace=[r.rho for r in self._history],
            history=self._history,
        )


class _DiagnosticsWriter:
    """JSON-lines stream of per-iteration records (optionally GP samples)."""

    def __init__(self, target, include_gp=False):
        self._own = False
        self.include_gp = include_gp
        if target is None:
            self.fh = None
        elif hasattr(target, "write"):
            self.fh = target
        else:
            self.fh = open(target, "w")
            self._own = True

    def iteration(self, record, samples):
        if self.fh is None:
            return
        self.fh.write(json.dumps(record.to_json()) + "\n")
        if self.include_gp and samples is not None:
            for post in samples:
                line = {
                    "gp_sample": {
                        "iteration": record.t,
                        "psi": post.hyp.to_vector().tolist(),
                        "lml": post.lml,
                    }
                }
                self.fh.write(json.dumps(line) + "\n")
        self.fh.flush()

    def close(self):
        if self.fh is not None and self._own:
            self.fh.close()


def run(problem, options=None, seed=0, diagnostics=None):
    """Convenience wrapper: build a :class:`VBMC` engine and run it."""
    return VBMC(problem, options).run(seed=seed, diagnostics=diagnostics)
