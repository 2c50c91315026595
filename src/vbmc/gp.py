"""Gaussian-process surrogate of the log joint density.

Squared-exponential kernel, negative-quadratic mean (so the exponentiated
predictive mean is integrable), Gaussian observation noise, empirical-Bayes
hyperpriors, and either slice-sampled or MAP hyperparameters. Posteriors are
immutable; adding an observation produces a new posterior via a rank-1
Cholesky extension.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

from .slice_sampler import slice_sample

__all__ = [
    "GPTrainingError",
    "GPHyperparams",
    "TrainingSet",
    "GPPosterior",
    "GPHyperprior",
    "HyperparamSampleSet",
    "gp_fit",
    "n_gp_schedule",
    "sample_hyperparameters",
    "optimize_hyperparameters",
    "marginal_predict",
    "sq_dist",
]

DUPLICATE_TOL_SQ = 1e-12
SIGMA_OBS_FLOOR = 1e-5

# Diagnostics: number of times a numerically negative predictive variance
# was clamped to zero.
VARIANCE_CLAMP_COUNT = 0


class GPTrainingError(RuntimeError):
    """Gram matrix not positive definite after jitter escalation."""


@dataclass(frozen=True)
class GPHyperparams:
    """Kernel, noise, and mean hyperparameters (3D+3 values).

    Scales are stored in log space: input length scales ``log_ell`` and
    output scale ``log_sf`` for the kernel, observation noise ``log_sobs``,
    and the negative-quadratic mean's maximum ``m0``, location ``x_m`` and
    log length scales ``log_omega``.
    """

    log_ell: np.ndarray
    log_sf: float
    log_sobs: float
    m0: float
    x_m: np.ndarray
    log_omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_ell", np.atleast_1d(np.asarray(self.log_ell, float)))
        object.__setattr__(self, "x_m", np.atleast_1d(np.asarray(self.x_m, float)))
        object.__setattr__(self, "log_omega", np.atleast_1d(np.asarray(self.log_omega, float)))
        D = self.log_ell.size
        if self.x_m.size != D or self.log_omega.size != D:
            raise ValueError("hyperparameter blocks disagree on dimension")
        scales = np.concatenate([self.log_ell, [self.log_sf, self.log_sobs], self.log_omega])
        if not np.all(np.isfinite(np.exp(scales))) or np.any(np.exp(scales) <= 0):
            raise ValueError("scale hyperparameters must exponentiate to finite positives")

    @property
    def D(self):
        return self.log_ell.size

    @property
    def ell(self):
        return np.exp(self.log_ell)

    @property
    def sf2(self):
        return math.exp(2.0 * self.log_sf)

    @property
    def sobs(self):
        return max(math.exp(self.log_sobs), SIGMA_OBS_FLOOR)

    @property
    def omega(self):
        return np.exp(self.log_omega)

    def to_vector(self):
        return np.concatenate(
            [self.log_ell, [self.log_sf, self.log_sobs, self.m0], self.x_m, self.log_omega]
        )

    @classmethod
    def from_vector(cls, theta, D):
        theta = np.asarray(theta, dtype=float)
        if theta.size != 3 * D + 3:
            raise ValueError(f"expected {3 * D + 3} hyperparameters, got {theta.size}")
        return cls(
            log_ell=theta[:D],
            log_sf=float(theta[D]),
            log_sobs=float(theta[D + 1]),
            m0=float(theta[D + 2]),
            x_m=theta[D + 3 : 2 * D + 3],
            log_omega=theta[2 * D + 3 :],
        )


class TrainingSet:
    """Internal-space inputs with Jacobian-corrected log-joint values."""

    def __init__(self, X, y):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        if self.X.shape[0] != self.y.size:
            raise ValueError("X and y disagree on the number of points")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("training values must be finite")

    @property
    def n(self):
        return self.y.size

    @property
    def D(self):
        return self.X.shape[1]

    def is_duplicate(self, x):
        if self.n == 0:
            return False
        d2 = np.sum((self.X - np.asarray(x)) ** 2, axis=1)
        return bool(np.min(d2) < DUPLICATE_TOL_SQ)

    def with_point(self, x, y):
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if self.is_duplicate(x[0]):
            raise ValueError("point duplicates an existing training input")
        return TrainingSet(np.vstack([self.X, x]), np.append(self.y, y))

    def subset(self, mask):
        return TrainingSet(self.X[mask], self.y[mask])

    def hpd(self, fraction=0.8):
        """Highest-density subset: top ``fraction`` of points by value."""
        keep = max(1, math.ceil(fraction * self.n))
        order = np.argsort(self.y)[::-1][:keep]
        return self.subset(np.sort(order))


def sq_dist(a, b):
    """Squared Euclidean distances between the rows of ``a`` and ``b``.

    Uses the Gram expansion |a|^2 - 2 a.b + |b|^2, so callers pass rows
    already divided by their shared length scales; rounding can make the
    expansion slightly negative, so it is clamped at zero.
    """
    d2 = np.sum(a * a, 1)[:, None] - 2.0 * (a @ b.T) + np.sum(b * b, 1)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def se_kernel_matrix(X1, X2, hyp):
    """Squared-exponential kernel; ``sf2`` on the diagonal."""
    ell = hyp.ell
    d2 = sq_dist(np.atleast_2d(X1) / ell, np.atleast_2d(X2) / ell)
    return hyp.sf2 * np.exp(-0.5 * d2)


def nq_mean(X, hyp):
    """Negative-quadratic mean function, maximum ``m0`` at ``x_m``."""
    X = np.atleast_2d(X)
    return hyp.m0 - 0.5 * np.sum(((X - hyp.x_m) / hyp.omega) ** 2, axis=1)


class GPPosterior:
    """Factored GP posterior for a fixed hyperparameter value.

    Holds the lower Cholesky factor of ``K + sobs^2 I`` (plus any jitter
    that was required), the weight vector ``alpha`` and the log marginal
    likelihood ``lml`` of the training data; immutable after construction.
    """

    def __init__(self, train, hyp, L, jitter):
        self.train = train
        self.hyp = hyp
        self.L = L
        self.jitter = jitter
        resid = train.y - nq_mean(train.X, hyp)
        self.alpha = (
            cho_solve((L, True), resid, check_finite=False)
            if train.n > 0
            else np.empty(0)
        )
        self.lml = float(
            -0.5 * resid @ self.alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * train.n * math.log(2.0 * math.pi)
        )

    @classmethod
    def prior(cls, hyp, D):
        """Posterior conditioned on no data (prior predictive)."""
        empty = TrainingSet(np.empty((0, D)), np.empty(0))
        return cls(empty, hyp, np.empty((0, 0)), 0.0)

    @property
    def n(self):
        return self.train.n

    def predict(self, X):
        """Latent predictive mean and variance at rows of ``X``.

        Variance is the posterior variance of the latent function (no
        observation noise), clamped at zero if numerically negative.
        """
        global VARIANCE_CLAMP_COUNT
        X = np.atleast_2d(X)
        mean = nq_mean(X, self.hyp)
        var = np.full(X.shape[0], self.hyp.sf2)
        if self.n > 0:
            Ks = se_kernel_matrix(self.train.X, X, self.hyp)
            mean = mean + Ks.T @ self.alpha
            U = solve_triangular(
                self.L, Ks, lower=True, check_finite=False, overwrite_b=True
            )
            var = var - np.sum(U * U, axis=0)
        if np.any(var < 0):
            VARIANCE_CLAMP_COUNT += int(np.sum(var < 0))
            var = np.maximum(var, 0.0)
        return mean, var

    def with_point(self, x_new, y_new, new_train=None):
        """Rank-1 posterior update with one observation; O(n^2).

        Falls back to a full refit if the extended factorization loses
        positive definiteness. ``new_train`` lets callers share one
        extended training set across several posteriors.
        """
        x_new = np.asarray(x_new, dtype=float)
        if new_train is None:
            new_train = self.train.with_point(x_new, y_new)
        if self.n == 0:
            return gp_fit(new_train, self.hyp)
        k = se_kernel_matrix(self.train.X, x_new[None, :], self.hyp)[:, 0]
        c = solve_triangular(self.L, k, lower=True)
        d2 = self.hyp.sf2 + self.hyp.sobs**2 + self.jitter - c @ c
        if d2 <= 0:
            return gp_fit(new_train, self.hyp)
        n = self.n
        L = np.zeros((n + 1, n + 1))
        L[:n, :n] = self.L
        L[n, :n] = c
        L[n, n] = math.sqrt(d2)
        return GPPosterior(new_train, self.hyp, L, self.jitter)


def _factor_gram(train, hyp):
    """Cholesky of the noisy Gram matrix with escalating jitter."""
    K = se_kernel_matrix(train.X, train.X, hyp)
    diag = np.diag_indices_from(K)
    K[diag] += hyp.sobs**2
    diag0 = K[diag].copy()
    jitters = [0.0, 1e-10 * np.trace(K) / train.n]
    while len(jitters) < 6:
        jitters.append(jitters[-1] * 10.0)
    for jitter in jitters:
        try:
            K[diag] = diag0 + jitter
            return cholesky(K, lower=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
            pass
    raise GPTrainingError(
        f"Gram matrix not positive definite after jitter {jitter:g}"
    )


def gp_fit(train, hyp):
    """Factor the Gram matrix and build a :class:`GPPosterior`.

    The factorization is tried without jitter, then with five jitters from
    ``1e-10`` to ``1e-6`` times ``tr(K)/n``, before giving up with
    :class:`GPTrainingError`.
    """
    if train.n == 0:
        return GPPosterior.prior(hyp, hyp.D)
    L, jitter = _factor_gram(train, hyp)
    return GPPosterior(train, hyp, L, jitter)


def log_marginal_likelihood(train, hyp):
    """GP log marginal likelihood of the training data under ``hyp``."""
    return gp_fit(train, hyp).lml


def log_marginal_likelihood_grad(train, hyp):
    """Log marginal likelihood and its gradient in the 3D+3 vector order."""
    post = gp_fit(train, hyp)
    X, n, D = train.X, train.n, train.D
    alpha = post.alpha
    Kinv = cho_solve((post.L, True), np.eye(n))
    A = np.outer(alpha, alpha) - Kinv

    Kk = se_kernel_matrix(X, X, hyp)
    grad = np.empty(3 * D + 3)
    # covariance block: log input scales, then log output scale
    for i in range(D):
        Dist = (X[:, i, None] - X[None, :, i]) ** 2 / hyp.ell[i] ** 2
        grad[i] = 0.5 * np.sum(A * (Kk * Dist))
    grad[D] = np.sum(A * Kk)  # d K / d log_sf = 2 K, halved by the 1/2
    grad[D + 1] = hyp.sobs**2 * np.trace(A)
    # mean block: d lml / d theta = (d m / d theta)^T alpha
    grad[D + 2] = np.sum(alpha)
    diff = X - hyp.x_m
    grad[D + 3 : 2 * D + 3] = (diff / hyp.omega**2).T @ alpha
    grad[2 * D + 3 :] = (diff**2 / hyp.omega**2).T @ alpha
    return post.lml, grad


def student_t_logpdf(x, mu, scale, df=3.0):
    """Log density of a scaled Student-t distribution."""
    z = (x - mu) / scale
    return (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - np.log(scale)
        - 0.5 * (df + 1.0) * np.log1p(z * z / df)
    )


class GPHyperprior:
    """Independent hyperparameter priors, partly empirical-Bayes.

    Student-t (3 degrees of freedom) priors are placed on the log input
    scales, the log observation noise, and the mean maximum, with means and
    scales derived from the highest-density subset of the training data;
    the remaining hyperparameters get flat priors. Wide hard bounds keep
    flat directions from drifting during sampling.
    """

    HPD_FRACTION = 0.8
    SCALE_FLOOR = 1e-3

    def __init__(self, train):
        hpd = train.hpd(self.HPD_FRACTION)
        D = train.D
        m = 3 * D + 3

        ddof = 1 if hpd.n > 1 else 0
        sd_x = np.maximum(np.std(hpd.X, axis=0, ddof=ddof), self.SCALE_FLOOR)
        diam_x = np.maximum(hpd.X.max(axis=0) - hpd.X.min(axis=0), self.SCALE_FLOOR)
        diam_y = max(float(hpd.y.max() - hpd.y.min()), self.SCALE_FLOOR)

        mean = np.zeros(m)
        scale = np.ones(m)
        has_prior = np.zeros(m, dtype=bool)

        sl = self._slices(D)
        mean[sl["log_ell"]] = np.log(sd_x)
        scale[sl["log_ell"]] = np.maximum(2.0, np.log(diam_x / sd_x))
        has_prior[sl["log_ell"]] = True

        mean[sl["log_sobs"]] = math.log(0.001)
        scale[sl["log_sobs"]] = 0.5
        has_prior[sl["log_sobs"]] = True

        mean[sl["m0"]] = float(hpd.y.max())
        scale[sl["m0"]] = diam_y
        has_prior[sl["m0"]] = True

        self.D = D
        self.mean = mean
        self.scale = np.maximum(scale, self.SCALE_FLOOR)
        self.has_prior = has_prior

        # hard bounds: safety rails for the flat-prior directions
        lo = np.full(m, -np.inf)
        hi = np.full(m, np.inf)
        span = np.maximum(train.X.max(axis=0) - train.X.min(axis=0), 1.0)
        lo[sl["log_ell"]], hi[sl["log_ell"]] = -7.0, 7.0
        sd_y = max(float(np.std(train.y)), self.SCALE_FLOOR)
        lo[sl["log_sf"]] = math.log(sd_y) - 12.0
        hi[sl["log_sf"]] = math.log(max(diam_y, 1.0)) + 8.0
        lo[sl["log_sobs"]] = math.log(SIGMA_OBS_FLOOR)
        hi[sl["log_sobs"]] = math.log(max(diam_y, 1e-2))
        lo[sl["m0"]] = float(hpd.y.max()) - 20.0 * diam_y - 10.0
        hi[sl["m0"]] = float(hpd.y.max()) + 20.0 * diam_y + 10.0
        lo[sl["x_m"]] = train.X.min(axis=0) - 2.0 * span
        hi[sl["x_m"]] = train.X.max(axis=0) + 2.0 * span
        lo[sl["log_omega"]], hi[sl["log_omega"]] = math.log(1e-2), math.log(1e4)
        self.lower = lo
        self.upper = hi

        # slice-sampling bracket widths: prior scales, 1 on flat priors;
        # clipped so huge empirical scales do not inflate the shrink loop
        self.widths = np.clip(np.where(self.has_prior, self.scale, 1.0), 0.1, 2.0)

    @staticmethod
    def _slices(D):
        return {
            "log_ell": slice(0, D),
            "log_sf": slice(D, D + 1),
            "log_sobs": slice(D + 1, D + 2),
            "m0": slice(D + 2, D + 3),
            "x_m": slice(D + 3, 2 * D + 3),
            "log_omega": slice(2 * D + 3, 3 * D + 3),
        }

    def logpdf(self, theta):
        theta = np.asarray(theta)
        if np.any(theta < self.lower) or np.any(theta > self.upper):
            return -np.inf
        p = self.has_prior
        return float(
            np.sum(student_t_logpdf(theta[p], self.mean[p], self.scale[p]))
        )

    def grad_logpdf(self, theta):
        g = np.zeros_like(theta)
        p = self.has_prior
        z = theta[p] - self.mean[p]
        g[p] = -4.0 * z / (3.0 * self.scale[p] ** 2 + z * z)  # (df+1) = 4
        return g

    def sample(self, center, rng):
        """Draw a restart point: prior draws where a prior exists,
        jittered ``center`` on the flat directions; clipped to bounds."""
        theta = np.array(center, dtype=float)
        p = self.has_prior
        theta[p] = self.mean[p] + self.scale[p] * rng.standard_t(3.0, size=int(p.sum()))
        theta[~p] = theta[~p] + rng.normal(0.0, 1.0, size=int((~p).sum()))
        finite_lo = np.where(np.isfinite(self.lower), self.lower, theta - 1.0)
        finite_hi = np.where(np.isfinite(self.upper), self.upper, theta + 1.0)
        return np.clip(theta, finite_lo, finite_hi)


class HyperparamSampleSet:
    """Hyperparameter draws with one fitted posterior each."""

    def __init__(self, posteriors):
        if len(posteriors) < 1:
            raise ValueError("need at least one hyperparameter sample")
        self.posteriors = list(posteriors)

    def __iter__(self):
        return iter(self.posteriors)

    def __len__(self):
        return len(self.posteriors)

    @property
    def train(self):
        return self.posteriors[0].train

    @property
    def D(self):
        return self.train.D

    def with_point(self, x_new, y_new):
        """Rank-1 update of every posterior with the same observation."""
        new_train = self.train.with_point(x_new, y_new)
        return HyperparamSampleSet(
            [p.with_point(x_new, y_new, new_train=new_train) for p in self.posteriors]
        )


def n_gp_schedule(n):
    """Number of hyperparameter samples to draw for ``n`` training points."""
    return max(1, round(80.0 / math.sqrt(max(n, 1))))


def default_hyperparams(train):
    """Heuristic hyperparameters used to start the first chain."""
    hpd = train.hpd(GPHyperprior.HPD_FRACTION)
    sd_x = np.maximum(np.std(hpd.X, axis=0), 1e-3)
    sd_y = max(float(np.std(hpd.y)), 1e-3)
    top = train.X[int(np.argmax(train.y))]
    span = np.maximum(train.X.max(axis=0) - train.X.min(axis=0), 1.0)
    return GPHyperparams(
        log_ell=np.log(sd_x),
        log_sf=math.log(sd_y),
        log_sobs=math.log(0.001),
        m0=float(train.y.max()),
        x_m=top.copy(),
        log_omega=np.log(span),
    )


def _clip_to(theta, prior):
    return np.clip(theta, prior.lower, prior.upper)


def sample_hyperparameters(train, n_gp, init, rng, burn_sweeps=10, thin_sweeps=3):
    """Slice-sample ``n_gp`` hyperparameter draws from the GP posterior.

    The target is the GP log marginal likelihood plus the empirical-Bayes
    hyperprior; one chain is thinned after burn-in. Each retained draw is
    paired with a fitted posterior.
    """
    if train.n < 2:
        raise ValueError("hyperparameter sampling requires at least 2 points")
    prior = GPHyperprior(train)
    D = train.D

    def target(theta):
        lp = prior.logpdf(theta)
        if not np.isfinite(lp):
            return -np.inf
        try:
            lml = log_marginal_likelihood(train, GPHyperparams.from_vector(theta, D))
        except (GPTrainingError, FloatingPointError):
            return -np.inf
        return lml + lp

    theta0 = _clip_to(init.to_vector(), prior)
    if not np.isfinite(target(theta0)):
        theta0 = _clip_to(default_hyperparams(train).to_vector(), prior)
    thetas = slice_sample(
        target,
        theta0,
        n_gp,
        prior.widths,
        rng,
        burn_sweeps=burn_sweeps,
        thin_sweeps=thin_sweeps,
    )
    return HyperparamSampleSet(
        [gp_fit(train, GPHyperparams.from_vector(t, D)) for t in thetas]
    )


def optimize_hyperparameters(train, init, rng=None, n_restarts=3):
    """MAP hyperparameters by quasi-Newton ascent with analytic gradients.

    Restarts from hyperprior draws; returns the best local maximizer seen,
    never worse than the initial point.
    """
    if train.n < 2:
        raise ValueError("hyperparameter optimization requires at least 2 points")
    prior = GPHyperprior(train)
    D = train.D
    rng = np.random.default_rng(0) if rng is None else rng

    def neg_objective(theta):
        if np.any(theta < prior.lower) or np.any(theta > prior.upper):
            return np.inf, np.zeros_like(theta)
        try:
            lml, grad = log_marginal_likelihood_grad(
                train, GPHyperparams.from_vector(theta, D)
            )
        except (GPTrainingError, FloatingPointError):
            return np.inf, np.zeros_like(theta)
        lp = prior.logpdf(theta)
        gp_prior = prior.grad_logpdf(theta)
        return -(lml + lp), -(grad + gp_prior)

    theta0 = _clip_to(init.to_vector(), prior)
    starts = [theta0] + [prior.sample(theta0, rng) for _ in range(n_restarts)]
    bounds = list(zip(prior.lower, prior.upper))

    best_theta, best_val = theta0, neg_objective(theta0)[0]
    for start in starts:
        res = minimize(
            neg_objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 500, "ftol": 1e-11, "gtol": 1e-7},
        )
        if np.isfinite(res.fun) and res.fun < best_val:
            best_theta, best_val = res.x, res.fun
    return GPHyperparams.from_vector(best_theta, D)


def marginal_predict(samples, X):
    """Predictive mean/variance marginalized over hyperparameter draws.

    The mean averages the per-draw means; the variance averages the
    per-draw variances and adds the unbiased sample variance of the means
    (zero for a single draw).
    """
    means, variances = [], []
    for post in samples:
        m, v = post.predict(X)
        means.append(m)
        variances.append(v)
    means = np.asarray(means)
    variances = np.asarray(variances)
    mean = means.mean(axis=0)
    var = variances.mean(axis=0)
    if len(samples) > 1:
        var = var + means.var(axis=0, ddof=1)
    return mean, var
