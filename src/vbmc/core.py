"""Top-level inference loop.

Each iteration actively samples a batch of log-joint evaluations, refreshes
the GP hyperparameters (sampling early, MAP once sampling stops paying),
adapts the mixture size, optimizes the ELBO, and scores the solution's
reliability. A warm-up phase with two clamped components moves the
posterior into the high-density region before the machinery unlocks.

The GP kernel is axis-aligned and the mixture's components share one
diagonal covariance, so a correlated posterior is hard for both. So the
run works in a frame of its own: an affine map v = c + W u (:class:`Frame`)
from working coordinates u to the transform's internal coordinates v. It
starts as no map at all (None). At the end of warm-up, and then after each
iteration that did active sampling, the whitening rule compares the
mixture's covariance C with its own diagonal; when their sKL exceeds
``WHITEN_SKL``, the working frame is composed with u = m + chol(C) u', and
the run starts over in u' as it does after warm-up's trim: the training
inputs are mapped, every value gains log det chol(C) (so the evidence does
not change), the GP hyperparameters restart from their defaults, the
mixture's means are mapped and its shared scales reset, and the next
iteration draws ``N_FAST_FIRST`` starting candidates and samples nothing.
A run whose rule never fires computes no frame arithmetic at all.
"""

import json
import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .acquisition import (
    ACQUISITION_KINDS,
    AcquisitionError,
    optimize_acquisition,
    search_box,
)
from .gp import (
    GPTrainingError,
    TrainingSet,
    default_hyperparams,
    gp_fit,
    n_gp_schedule,
    optimize_hyperparameters,
    sample_hyperparameters,
)
from .optim import optimize_elbo, select_starting_points
from .quadrature import elbo
from .slice_sampler import SliceSamplingError
from .transforms import ParameterTransform
from .variational import VariationalPosterior, gaussian_skl

logger = logging.getLogger("vbmc")

N_INIT = 10  # evaluations in the initial design
N_ACTIVE = 5  # evaluations per active-sampling batch
INIT_SIGMA = 0.1  # component scale of the initial two-component posterior
INIT_MU_JITTER = 0.1  # jitter of its means around x0
BETA_LCB = 3.0  # ELCBO = ELBO - BETA_LCB * SD
BETA_LCB_FALLBACK = 5.0  # conservative score of the fallback solution
W_MIN = 0.01  # components below this weight are pruning candidates
EPS_PRUNE = 0.01  # largest ELCBO change a kept pruning may cause
N_ENTROPY_PRUNE = 2**13  # entropy draws per pruning trial
N_FAST = 5  # starting candidates per component
N_FAST_FIRST = 50  # the same on the first iteration and after warm-up
N_RECENT = 4  # earlier iterations the ELCBO must beat for K to grow
KMAX_POWER = 2.0 / 3.0  # K is capped at n_train**KMAX_POWER
DELTA_SD = 0.1  # ELBO tolerance of the reliability features
DELTA_KL_UNIT = 0.01  # sKL tolerance, scaled by sqrt(D)
N_STABLE = 8  # iterations in the stability window
DELTA_IMPRO = 0.01  # ELCBO slope below which the window counts as flat
WARMUP_IMPROVEMENT = 1.0  # ELCBO gain below which a warm-up step is small
WARMUP_PATIENCE = 3  # small gains in a row that end warm-up
WARMUP_NGP_CAP = 8  # hyperparameter draws per iteration during warm-up
TRIM_MULTIPLIER = 10.0  # the end of warm-up keeps y above max - TRIM_MULTIPLIER * D
STOP_SAMPLING_FRAC = 0.1  # of DELTA_SD: between-draw ELBO SD that counts as settled
STOP_SAMPLING_PATIENCE = 3  # settled iterations in a row before MAP hyperparameters
N_MOMENT_SAMPLES = 2**16  # draws of the sampled original-space moments
MOMENT_SEED = 0  # seed of those draws
WHITEN_SKL = 0.25  # sKL between the mixture's covariance and its diagonal that whitens

__all__ = [
    "ProblemSpec",
    "VBMCOptions",
    "Frame",
    "IterationRecord",
    "InferenceResult",
    "VBMCError",
    "VBMC",
]


class VBMCError(RuntimeError):
    """Unrecoverable failure; carries partial per-iteration diagnostics."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


@dataclass
class ProblemSpec:
    """A target posterior: the log joint, its parameter transform and a start.

    ``log_joint`` takes a point in original coordinates and returns the
    unnormalized log posterior density (log likelihood + log prior).
    ``transform`` maps its hard and plausible bounds (and fixes D); ``x0``,
    in original coordinates, is the first point, or None to draw one.
    """

    log_joint: callable
    transform: ParameterTransform
    x0: np.ndarray | None = None


@dataclass
class VBMCOptions:
    """Per-run settings: the budget, the acquisition and the diagnostics.

    ``max_fevals`` is a positive integer and defaults to 50 (D + 2)
    evaluations, ``acq`` is ``"pro"`` or ``"us"``, and ``diag_gp_samples``
    is a bool that adds one diagnostics line per GP hyperparameter draw.
    Any other value of the three raises ``ValueError`` here, before a run
    spends an evaluation. Every other value of the reference
    configuration is a module constant of the one module that reads it
    (``core``, ``optim``, ``acquisition``, ``cmaes``, ``gp``,
    ``slice_sampler``, ``benchmark``).
    """

    max_fevals: int | None = None
    acq: str = "pro"
    diag_gp_samples: bool = False

    def __post_init__(self):
        m = self.max_fevals
        if m is not None and (
            isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1
        ):
            raise ValueError(f"max_fevals must be a positive integer, got {m!r}")
        if self.acq not in ACQUISITION_KINDS:
            raise ValueError(
                f"unknown acquisition {self.acq!r}; allowed: {', '.join(ACQUISITION_KINDS)}"
            )
        if not isinstance(self.diag_gp_samples, bool):
            raise ValueError(
                f"diag_gp_samples must be true or false, got {self.diag_gp_samples!r}"
            )


class Frame:
    """An affine map v = ``center`` + ``matrix`` u from working to internal coordinates.

    ``matrix`` is lower triangular with a positive diagonal, so its log
    determinant ``log_det`` is the sum of the logs of its diagonal, and a
    log density in u is the one in v plus ``log_det``.
    """

    def __init__(self, center, matrix):
        self.center = center
        self.matrix = matrix
        self.log_det = float(np.sum(np.log(np.diag(matrix))))

    def to_internal(self, u):
        """Internal coordinates of a point ``u`` (D,) or of rows (m, D)."""
        return self.center + u @ self.matrix.T

    def to_working(self, v):
        """Working coordinates of a point ``v`` (D,) or of rows (m, D): :meth:`to_internal` inverted."""
        return solve_triangular(self.matrix, (v - self.center).T, lower=True).T

    def moments_to_internal(self, mean, cov):
        """The internal-frame mean and covariance of working-frame moments."""
        return self.center + self.matrix @ mean, self.matrix @ cov @ self.matrix.T

    def then(self, step):
        """This frame composed after the frame ``step``: v = center + matrix (step's map of u')."""
        return Frame(self.to_internal(step.center), self.matrix @ step.matrix)

    def to_json(self):
        return {"center": self.center.tolist(), "matrix": self.matrix.tolist()}


def whitening(moments):
    """The frame u = m + chol(C) u' of the mixture moments ``(m, C)`` when the rule fires, else None.

    The rule fires when the sKL between N(m, C) and N(m, diag C) exceeds
    ``WHITEN_SKL``: at D = 2 that is a correlation |rho| above about 0.58.
    """
    m, C = moments
    skl = gaussian_skl(m, C, m, np.diag(np.diag(C)))
    if not WHITEN_SKL < skl < math.inf:  # inf: C is singular and has no factor
        return None
    return Frame(m, np.linalg.cholesky(C))


@dataclass
class IterationRecord:
    """Per-iteration diagnostics and solution snapshot.

    ``vp`` lives in the working frame ``frame`` (None: the internal
    coordinates), and ``moments`` are its mean and covariance mapped to
    the transform's internal coordinates, so records compare across frame
    changes.
    """

    t: int
    n_train: int
    fevals: int
    K: int
    elbo_mean: float
    elbo_sd: float
    elcbo: float
    rho: float | None
    rho_features: tuple | None
    warmup: bool
    stop_sampling: bool
    pruned: int
    between_sample_sd: float
    vp: VariationalPosterior
    frame: Frame | None
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
            "whitened": self.frame is not None,
        }


@dataclass
class InferenceResult:
    """Final variational posterior with evidence estimates and diagnostics.

    ``vp`` lives in the working frame ``frame`` of the iterate it was taken
    from: None when the run never whitened, so ``vp`` is in the
    transform's internal coordinates; otherwise a :class:`Frame` whose map
    of ``vp`` is the posterior in those coordinates. ``sample_original``
    and ``moments_original`` map through it.
    """

    vp: VariationalPosterior
    frame: Frame | None
    transform: ParameterTransform
    elbo_mean: float
    elbo_sd: float
    stable: bool
    iterations: int
    fevals: int
    history: list = field(repr=False, default_factory=list)

    def sample_original(self, n, rng):
        """Posterior draws mapped back to original coordinates."""
        u = self.vp.sample(n, rng)
        return self.transform.to_original(u if self.frame is None else self.frame.to_internal(u))

    def moments_original(self):
        """Posterior mean/covariance in original coordinates.

        Exact affine inversion when every dimension is unbounded;
        otherwise estimated from ``N_MOMENT_SAMPLES`` mapped draws seeded
        with ``MOMENT_SEED``.
        """
        if not np.any(self.transform.bounded):
            moments = self.vp.moments()
            if self.frame is not None:
                moments = self.frame.moments_to_internal(*moments)
            return self.transform.moments_to_original(*moments)
        xs = self.sample_original(N_MOMENT_SAMPLES, np.random.default_rng(MOMENT_SEED))
        return xs.mean(axis=0), np.cov(xs.T).reshape(self.vp.D, self.vp.D)


def reliability_features(history, D):
    """Reliability index and its three features for the newest record."""
    if len(history) < 2:
        return None, None
    cur, prev = history[-1], history[-2]
    rho1 = abs(cur.elbo_mean - prev.elbo_mean) / DELTA_SD
    rho2 = cur.elbo_sd / DELTA_SD
    delta_kl = DELTA_KL_UNIT * math.sqrt(D)
    rho3 = gaussian_skl(*cur.moments, *prev.moments) / delta_kl
    feats = (rho1, rho2, rho3)
    return float(np.mean(feats)), feats


def termination_status(history, fevals, max_fevals, warmup):
    """(done, stable): long-term stability or exhausted budget."""
    budget_done = fevals + N_ACTIVE > max_fevals
    if warmup or len(history) < N_STABLE:
        return budget_done, False
    cur = history[-1]
    if cur.rho_features is None or not all(f < 1.0 for f in cur.rho_features):
        return budget_done, False
    window = history[-N_STABLE:]
    violations = sum(
        1 for r in window[:-1] if r.rho is None or r.rho >= 1.0
    )
    if violations > 1:
        return budget_done, False
    ts = np.array([r.t for r in window], dtype=float)
    es = np.array([r.elcbo for r in window])
    slope = np.polyfit(ts, es, 1)[0]
    if slope >= DELTA_IMPRO:
        return budget_done, False
    return True, True


def warmup_should_end(elcbos):
    """Warm-up ends after ``WARMUP_PATIENCE`` consecutive small improvements."""
    if len(elcbos) < WARMUP_PATIENCE + 1:
        return False
    improvements = np.diff(elcbos)[-WARMUP_PATIENCE:]
    return bool(np.all(improvements < WARMUP_IMPROVEMENT))


def k_schedule(history, K_current, n_train):
    """Next component count: grow when improving/stable, clamp at n^(2/3)."""
    k_max = max(2, math.ceil(n_train**KMAX_POWER))
    K = K_current
    if len(history) >= 2:
        recent = history[-1]
        window = history[-1 - N_RECENT : -1]
        improving = bool(window) and recent.elcbo > max(r.elcbo for r in window)
        pruned_last = recent.pruned > 0
        if improving and not pruned_last:
            K += 1
        stable = recent.rho is not None and recent.rho < 1.0
        if stable and not pruned_last:
            K += 2
    return min(K, k_max)


class VBMC:
    """Single-run inference engine over one :class:`ProblemSpec`, in the working
    frame over the internal coordinates of its transform:
    ``VBMC(problem, options).run(seed, diagnostics)``."""

    def __init__(self, problem, options=None):
        self.problem = problem
        self.options = options or VBMCOptions()
        self.transform = problem.transform
        self.D = self.transform.D
        self.max_fevals = self.options.max_fevals
        if self.max_fevals is None:
            self.max_fevals = 50 * (self.D + 2)
        if self.max_fevals < N_INIT:
            raise ValueError(
                f"max_fevals={self.max_fevals} is below n_init={N_INIT}, "
                "the evaluations of the initial design"
            )
        # x0 in internal coordinates, checked here so that a bad one ends
        # the run before any evaluation; None draws it in the initial design
        self._u0 = None
        if problem.x0 is not None:
            x0 = np.atleast_1d(np.asarray(problem.x0, float))
            if x0.shape != (self.D,):
                raise ValueError(f"x0 has {x0.size} values; the problem has D={self.D}")
            if not np.all(np.isfinite(x0)):
                raise ValueError(f"x0 must be finite, got {x0.tolist()}")
            self._u0 = self.transform.to_internal(x0)
        self.fevals = 0
        self._consecutive_failures = 0
        self._history = []
        self._frame = None

    # -- evaluation ----------------------------------------------------

    def _evaluate(self, u):
        """Evaluate the log joint at working coordinates ``u``.

        Returns (y_working, ok): the value less the transform's log Jacobian,
        plus the frame's log determinant. Non-finite values are counted as
        failures and excluded from the GP training data. An exception raised
        by the log joint ends the run with a :class:`VBMCError` carrying the
        history.
        """
        x = self.transform.to_original(u if self._frame is None else self._frame.to_internal(u))
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
            if self._frame is not None:
                y += self._frame.log_det
            if np.isfinite(y):
                self._consecutive_failures = 0
                return y, True
        self._consecutive_failures += 1
        logger.warning("non-finite log joint at %s (failure #%d)",
                       np.array_str(np.asarray(x), precision=4),
                       self._consecutive_failures)
        return None, False

    # -- iteration pieces ----------------------------------------------

    def _initial_design(self, rng):
        """Evaluate ``N_INIT`` points; returns the training set and the first point."""
        u0 = self._u0 if self._u0 is not None else rng.uniform(-0.5, 0.5, size=self.D)
        points = [u0] + [
            rng.uniform(-0.5, 0.5, size=self.D) for _ in range(N_INIT - 1)
        ]
        X, y = [], []
        for u in points:
            val, ok = self._evaluate(u)
            if ok:
                X.append(u)
                y.append(val)
        if len(X) < 2:
            raise VBMCError(f"only {len(X)} initial-design values were finite; the GP needs 2")
        return TrainingSet(np.array(X), np.array(y)), u0

    def _initial_vp(self, u0, rng):
        mu = u0 + INIT_MU_JITTER * rng.standard_normal((2, self.D))
        return VariationalPosterior(
            [0.5, 0.5], mu, [INIT_SIGMA, INIT_SIGMA], np.ones(self.D)
        )

    def _active_sample_batch(self, samples, vp, rng):
        """Add ``N_ACTIVE`` acquisition-chosen evaluations to ``samples``."""
        for _ in range(N_ACTIVE):
            train = samples.train
            lo, hi = search_box(train)
            try:
                u_next = optimize_acquisition(samples, vp, lo, hi, self.options.acq, rng)
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
            else:
                logger.error("excluding failed evaluation from the surrogate")
                if self._consecutive_failures >= 2 * N_ACTIVE:
                    raise VBMCError(
                        "repeated log-joint failures during active sampling",
                        history=self._history,
                    )
        return samples

    def _update_hyperparameters(self, train, warmup, stop_sampling, rng):
        if not stop_sampling:
            n_gp = n_gp_schedule(train.n)
            if warmup:
                n_gp = min(n_gp, WARMUP_NGP_CAP)
            try:
                samples = sample_hyperparameters(train, n_gp, self._last_hyp, rng)
            except SliceSamplingError as err:
                logger.warning("slice sampling failed (%s); using last valid sample", err)
                samples = gp_fit(train, err.last_sample)
        else:
            samples = gp_fit(train, optimize_hyperparameters(train, self._last_hyp, rng))
        self._last_hyp = samples.theta[-1]
        return samples

    def _prune(self, vp, est, samples, rng):
        """Remove negligible-weight components that do not move the ELCBO.

        Candidates (weight below threshold) are visited in random order;
        each removal renormalizes the remaining weights and is kept only
        if the ELCBO barely changes.
        """
        pruned = 0
        order = rng.permutation(vp.K)
        removed = []
        for orig_k in order:
            if vp.K == 1:
                break
            k = int(orig_k - sum(1 for r in removed if r < orig_k))
            if vp.w[k] >= W_MIN:
                continue
            vp_try = vp.without_component(k)
            est_try = elbo(vp_try, samples, N_ENTROPY_PRUNE, rng)
            change = abs(est_try.elcbo(BETA_LCB) - est.elcbo(BETA_LCB))
            if change < EPS_PRUNE:
                vp, est = vp_try, est_try
                removed.append(orig_k)
                pruned += 1
        return vp, est, pruned

    # -- main loop -------------------------------------------------------

    def run(self, seed=0, diagnostics=None):
        """Run inference to termination; deterministic for a fixed seed.

        ``diagnostics`` is None, a file-like target, or a path. Each iteration
        writes one JSON line to it (see :func:`_write_iteration`). A
        file-like target is left open; a path is opened for writing here and
        closed however the run ends. A GP that cannot be trained ends the
        run with a :class:`VBMCError` carrying the history.
        """
        rng = np.random.default_rng(seed)
        try:
            if diagnostics is None or hasattr(diagnostics, "write"):
                return self._iterate(rng, diagnostics)
            with open(diagnostics, "w") as fh:
                return self._iterate(rng, fh)
        except GPTrainingError as err:
            raise VBMCError(f"GP training failed: {err}", history=self._history) from err

    def _iterate(self, rng, diag):
        """The main loop of :meth:`run`, writing to the file-like ``diag`` unless it is None."""
        self.fevals = 0
        self._consecutive_failures = 0
        self._history = []
        self._frame = None

        train, u0 = self._initial_design(rng)
        self._last_hyp = default_hyperparams(train)
        vp = self._initial_vp(u0, rng)

        warmup = True
        stop_sampling = False
        stop_strikes = 0
        # None on the first iteration, after warm-up's trim and after a frame
        # change: no active sampling, and N_FAST_FIRST starting candidates
        samples = None
        t = 0

        while True:
            t += 1
            sampled = samples is not None
            n_fast = N_FAST if sampled else N_FAST_FIRST
            if sampled:
                # warm-up's trim and a frame change replace train and clear
                # samples, so here train is always samples.train
                samples = self._active_sample_batch(samples, vp, rng)
                train = samples.train

            samples = self._update_hyperparameters(train, warmup, stop_sampling, rng)

            if warmup:
                K_target = 2
            else:
                # growth only; shrinking happens through pruning
                K_target = max(vp.K, k_schedule(self._history, vp.K, train.n))

            vp_init = select_starting_points(
                vp, K_target, n_fast, samples, rng, warmup=warmup
            )
            vp, est = optimize_elbo(vp_init, samples, rng, warmup=warmup)

            pruned = 0
            if not warmup:
                vp, est, pruned = self._prune(vp, est, samples, rng)

            moments = vp.moments()
            record = IterationRecord(
                t=t,
                n_train=train.n,
                fevals=self.fevals,
                K=vp.K,
                elbo_mean=est.elbo_mean,
                elbo_sd=est.elbo_sd,
                elcbo=est.elcbo(BETA_LCB),
                rho=None,
                rho_features=None,
                warmup=warmup,
                stop_sampling=stop_sampling,
                pruned=pruned,
                between_sample_sd=math.sqrt(max(est.between_sample_var, 0.0)),
                vp=vp,
                frame=self._frame,
                moments=moments if self._frame is None
                else self._frame.moments_to_internal(*moments),
            )
            self._history.append(record)
            record.rho, record.rho_features = reliability_features(self._history, self.D)
            if diag is not None:
                _write_iteration(diag, record, samples, self.options.diag_gp_samples)

            if warmup and warmup_should_end([r.elcbo for r in self._history]):
                warmup = False
                train = self._trim(train)
                samples = None
                logger.info("warm-up ended at iteration %d (n=%d after trim)",
                            t, train.n)

            if not record.warmup and not stop_sampling:
                threshold = STOP_SAMPLING_FRAC * DELTA_SD
                if record.between_sample_sd < threshold:
                    stop_strikes += 1
                else:
                    stop_strikes = 0
                if stop_strikes >= STOP_SAMPLING_PATIENCE:
                    stop_sampling = True
                    logger.info("switching to MAP hyperparameters at iteration %d", t)

            done, stable = termination_status(
                self._history, self.fevals, self.max_fevals, warmup
            )
            if done:
                return self._assemble_result(stable)

            # the rule runs once warm-up is over: at its end, and then after
            # each iteration that did active sampling, so every frame change
            # is followed by at least one batch of evaluations
            step = whitening(moments) if not warmup and (record.warmup or sampled) else None
            if step is not None:
                train, vp = self._whiten(train, vp, step)
                samples = None
                stop_sampling, stop_strikes = False, 0
                logger.info("whitened the working frame at iteration %d", t)

    def _trim(self, train):
        cutoff = train.y.max() - TRIM_MULTIPLIER * self.D
        keep = train.y >= cutoff
        floor = min(train.n, max(4, self.D + 2))  # enough points to refit
        if keep.sum() < floor:
            order = np.argsort(train.y)[::-1][:floor]
            keep = np.zeros(train.n, dtype=bool)
            keep[order] = True
        return train.subset(keep)

    def _whiten(self, train, vp, step):
        """Compose the frame with ``step``, u = m + L u'; the training set and the mixture in u'.

        The inputs map to L^-1 (u - m) and every value gains log det L. The
        mixture keeps its weights and its mapped means; its shared scales
        become ones and each sigma_k is scaled so that the component keeps
        its volume. The GP hyperparameters restart from the defaults of the
        mapped set.
        """
        self._frame = step if self._frame is None else self._frame.then(step)
        train = TrainingSet(step.to_working(train.X), train.y + step.log_det)
        self._last_hyp = default_hyperparams(train)
        scale = math.exp((float(np.sum(np.log(vp.lam))) - step.log_det) / self.D)
        return train, VariationalPosterior(
            vp.w, step.to_working(vp.mu), vp.sigma * scale, np.ones(self.D)
        )

    def _assemble_result(self, stable):
        if stable:
            final = self._history[-1]
        else:
            logger.warning(
                "terminated without long-term stability; returning the "
                "iterate with the best conservative ELCBO"
            )
            scores = [
                r.elbo_mean - BETA_LCB_FALLBACK * r.elbo_sd
                for r in self._history
            ]
            final = self._history[int(np.argmax(scores))]
        return InferenceResult(
            vp=final.vp,
            frame=final.frame,
            transform=self.transform,
            elbo_mean=final.elbo_mean,
            elbo_sd=final.elbo_sd,
            stable=stable,
            iterations=len(self._history),
            fevals=self.fevals,
            history=self._history,
        )


def _write_iteration(fh, record, samples, include_gp):
    """One iteration's JSON line and, with ``include_gp``, one ``gp_sample`` line per draw."""
    fh.write(json.dumps(record.to_json()) + "\n")
    if include_gp:
        for theta, lml in zip(samples.theta, samples.lml):
            line = {"gp_sample": {"iteration": record.t, "psi": theta.tolist(), "lml": float(lml)}}
            fh.write(json.dumps(line) + "\n")
    fh.flush()

