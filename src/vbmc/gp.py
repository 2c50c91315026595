"""Gaussian-process surrogate of the log joint density.

Squared-exponential kernel, negative-quadratic mean (so the exponentiated
predictive mean is integrable), Gaussian observation noise, empirical-Bayes
hyperpriors, and either slice-sampled or MAP hyperparameters.

A hyperparameter draw is a row ``theta`` of 3D+3 numbers, and draws stack
as rows (S, 3D+3). :func:`_layout` alone says which slice holds which block:
``log_ell``, ``log_sf``, ``log_sobs`` (the covariance block), then ``m0``,
``x_m``, ``log_omega`` (the mean block). :func:`_unpack` is the one checked
unpacking, and :func:`_unpack_covariance` its covariance half.

The GP posterior has one type, :class:`HyperparamSampleSet`: S
hyperparameter draws on one :class:`TrainingSet`, with their Cholesky
factors, weights and log marginal likelihoods stacked along a leading axis
S. A training set is never empty (the engine fits only after its initial
design), so no path here handles n = 0. :func:`gp_fit` factors each
draw's Gram matrix, :meth:`HyperparamSampleSet.with_point` borders every
factor with one new observation in one batched pass, and the set fits its
own draws from those factors. :func:`marginal_predict` and
``vbmc.quadrature`` read it.
:func:`log_marginal_likelihood` is the slice sampler's view of one draw: it
builds no set, it factors the Gram matrix only when the covariance block
of the draw changes, and it computes the residual only when the mean block
changes (see :func:`sample_hyperparameters`).
:func:`_weights_and_lml` writes the weights and the log marginal likelihood
once for the set, the slice target and the MAP gradient.

The hyperprior's Student-t density and the benchmark's ``student`` family
share :func:`student_t_log_norm` and :func:`student_t_log_kernel`.

The factor, the weights and the triangular solves call LAPACK directly
(``dpotrf``, ``dpotrs``, ``dtrtrs``), with the arguments scipy's wrappers
pass, so they give the same bits without the wrappers' per-call overhead.
"""

import copy
import math

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import minimize

from .slice_sampler import slice_sample

__all__ = [
    "GPTrainingError",
    "TrainingSet",
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
BURN_SWEEPS = 10  # slice-sampling sweeps discarded before the first draw
THIN_SWEEPS = 3  # slice-sampling sweeps per retained draw
N_RESTARTS = 3  # MAP restarts from hyperprior draws
HPD_FRACTION = 0.8  # share of the training points, by value, in the highest-density subset
HYPERPRIOR_DF = 3.0  # degrees of freedom of the Student-t hyperpriors
# entries of one (draws, n, rows) kernel block of ``marginal_predict``: 512 KB
PREDICT_BLOCK = 2**16

# Diagnostics: number of times a numerically negative predictive variance
# was clamped to zero.
VARIANCE_CLAMP_COUNT = 0


class GPTrainingError(RuntimeError):
    """Gram matrix not positive definite after jitter escalation."""


_LAYOUTS = {}  # D -> _layout(D), built once: every slice-target evaluation reads it


def _layout(D):
    """Where each block of a hyperparameter row sits: the layout, written only here.

    One-value blocks are integer indices, so a stack of rows (S, 3D+3) gives
    one value per row. The dict is shared; do not change it.
    """
    if D not in _LAYOUTS:
        _LAYOUTS[D] = {
            "log_ell": slice(0, D), "log_sf": D, "log_sobs": D + 1, "m0": D + 2,
            "x_m": slice(D + 3, 2 * D + 3), "log_omega": slice(2 * D + 3, 3 * D + 3),
            "covariance": slice(0, D + 2), "mean": slice(D + 2, 3 * D + 3),
        }
    return _LAYOUTS[D]


def _unpack(theta, D):
    """``(ell, sf2, sobs, m0, x_m, omega)`` of a stack of rows (S, 3D+3), checked.

    Every scale is ``np.exp`` of its block: ``sf2`` = exp(2 log_sf), ``sobs``
    = exp(log_sobs), ``ell`` and ``omega``. The covariance block is
    :func:`_unpack_covariance`; ``omega`` gets the same check.
    """
    ell, sf2, sobs = _unpack_covariance(theta, D)
    sl = _layout(D)
    omega = np.exp(theta[:, sl["log_omega"]])
    _check_scales(omega.ravel())
    m0, x_m = theta[:, sl["m0"]].copy(), theta[:, sl["x_m"]].copy()  # contiguous, as read
    return ell, sf2, sobs, m0, x_m, omega


def _unpack_covariance(theta, D):
    """``(ell, sf2, sobs)`` of a stack of rows (S, 3D+3), checked.

    The scales are checked before the noise is floored at
    ``SIGMA_OBS_FLOOR``.
    """
    if theta.ndim != 2 or theta.shape[1] != 3 * D + 3:
        raise ValueError(f"expected rows of {3 * D + 3} hyperparameters, got {theta.shape}")
    sl = _layout(D)
    ell = np.exp(theta[:, sl["log_ell"]])
    sf2 = np.exp(2.0 * theta[:, sl["log_sf"]])
    sobs = np.exp(theta[:, sl["log_sobs"]])
    _check_scales(ell.ravel(), sf2, sobs)
    return ell, sf2, np.maximum(sobs, SIGMA_OBS_FLOOR)


def _unpack_row(theta, D):
    """:func:`_unpack` of one row."""
    return [block[0] for block in _unpack(theta[None], D)]


def _check_scales(*scales):
    """Raise ``ValueError`` unless every value of the 1-D ``scales`` is finite and positive.

    Compared as Python floats: on a few values this is several times faster
    than NumPy's reductions, and it runs on every slice-target evaluation.
    """
    for scale in scales:
        for value in scale.tolist():
            if not 0.0 < value < math.inf:  # also rejects NaN
                raise ValueError("scale hyperparameters must exponentiate to finite positives")


class TrainingSet:
    """Internal-space inputs with Jacobian-corrected log-joint values; at least one point."""

    def __init__(self, X, y):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        if self.X.shape[0] != self.y.size:
            raise ValueError("X and y disagree on the number of points")
        if self.y.size == 0:
            raise ValueError("a training set needs at least one point")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("training values must be finite")

    @property
    def n(self):
        return self.y.size

    @property
    def D(self):
        return self.X.shape[1]

    def is_duplicate(self, x):
        d2 = np.sum((self.X - np.asarray(x)) ** 2, axis=1)
        return bool(np.min(d2) < DUPLICATE_TOL_SQ)

    def with_point(self, x, y):
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if self.is_duplicate(x[0]):
            raise ValueError("point duplicates an existing training input")
        return TrainingSet(np.vstack([self.X, x]), np.append(self.y, y))

    def subset(self, mask):
        return TrainingSet(self.X[mask], self.y[mask])

    def hpd(self):
        """Highest-density subset: top ``HPD_FRACTION`` of points by value."""
        keep = max(1, math.ceil(HPD_FRACTION * self.n))
        order = np.argsort(self.y)[::-1][:keep]
        return self.subset(np.sort(order))


def sq_dist(a, b):
    """Squared Euclidean distances between the rows of ``a`` and ``b``.

    Uses the Gram expansion |a|^2 - 2 a.b + |b|^2, so callers pass rows
    already divided by their shared length scales; rounding can make the
    expansion slightly negative, so it is clamped at zero. Axes before the
    last two are batch axes: one distance matrix per hyperparameter draw.
    The row norms |a|^2 and |b|^2 are :func:`_sq_norms`: the bits of
    ``(a * a).sum(-1)`` without NumPy's slow reduction over short rows.
    """
    return _sq_dist_to(None, a, _sq_norms(a), b, _sq_norms(b))


def _sq_dist_to(out, a, a2, b, b2):
    """:func:`sq_dist` of ``a`` and ``b`` with their row norms ``a2`` and ``b2``, in ``out``.

    ``out`` is a C-ordered buffer of the result's shape, or None for a new
    one. The three terms are combined in the buffer of the product
    ``a b^T``, left to right, with no (m, k) temporary. Callers may pass
    norms they keep, as :func:`_sq_norms` computed them.
    """
    d2 = np.matmul(a, b.swapaxes(-1, -2), out=out)
    np.multiply(d2, 2.0, out=d2)
    np.subtract(a2[..., :, None], d2, out=d2)
    np.add(d2, b2[..., None, :], out=d2)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _sq_norms(a):
    """``(a * a).sum(-1)`` with the same bits.

    NumPy sums a row shorter than 8 left to right, one value at a time, but
    over a long stack of such rows its reduction is slow: for 32,768 rows
    of D = 2 it took 600 µs, against 60 µs for adding the D columns left to
    right, which gives the same bits and is done here. Rows of 8 or more
    keep ``.sum(-1)``, whose pairwise order a column loop would not follow.
    """
    sq = a * a
    if sq.shape[-1] >= 8:
        return sq.sum(-1)
    out = sq[..., 0].copy()
    for j in range(1, sq.shape[-1]):
        out += sq[..., j]
    return out


def se_kernel_matrix(X1, X2, ell, sf2):
    """Squared-exponential kernel with length scales ``ell``; ``sf2`` on the diagonal."""
    return _se_in_place(sq_dist(np.atleast_2d(X1) / ell, np.atleast_2d(X2) / ell), sf2)


def _se_in_place(d2, sf2):
    """The one SE-kernel formula, sf2 exp(-d2 / 2), written over the squared distances ``d2``."""
    np.multiply(d2, -0.5, out=d2)
    np.exp(d2, out=d2)
    np.multiply(d2, sf2, out=d2)
    return d2


def nq_mean(X, m0, x_m, omega):
    """Negative-quadratic mean function of the mean block at the rows of ``X`` (m, D).

    Maximum ``m0`` at ``x_m``, widths ``omega``. Stacked ``m0`` (S,), ``x_m``
    and ``omega`` (S, D) give one row per draw.
    """
    quad = ((X - x_m[..., None, :]) / omega[..., None, :]) ** 2
    return np.asarray(m0)[..., None] - 0.5 * quad.sum(axis=-1)


def _factor_gram(train, theta):
    """:func:`_factor_kernel` of the row ``theta`` on ``train``; only its covariance block is read.

    :func:`se_kernel_matrix` scales the inputs into two separate arrays. One
    array times its own transpose would take NumPy's SYRK path, which rounds
    the Gram matrix differently.
    """
    ell, sf2, sobs = [block[0] for block in _unpack_covariance(theta[None], train.D)]
    return _factor_kernel(se_kernel_matrix(train.X, train.X, ell, sf2), sobs)


def _factor_kernel(K, sobs):
    """Cholesky of ``K + sobs^2 I`` with escalating jitter; the diagonal of ``K`` is overwritten.

    Returns ``(L, jitter)``; ``L`` is Fortran-ordered, as LAPACK returns it.
    The factorization is tried without jitter, then with five jitters from
    ``1e-10`` to ``1e-6`` times ``tr(K)/n``, before giving up with
    :class:`GPTrainingError`.
    """
    n = K.shape[0]
    diag = K.reshape(-1)[:: n + 1]
    diag += sobs**2
    L, info = dpotrf(K, lower=1, clean=1, overwrite_a=0)
    if info == 0:
        return L, 0.0
    diag0 = diag.copy()
    jitter = 1e-10 * np.trace(K) / n
    for attempt in range(5):
        if attempt:
            jitter *= 10.0
        diag[:] = diag0 + jitter
        L, info = dpotrf(K, lower=1, clean=1, overwrite_a=0)
        if info == 0:
            return L, jitter
    raise GPTrainingError(f"Gram matrix not positive definite after jitter {jitter:g}")


def _weights_and_lml(resid, L, log_det):
    """One draw's weights ``alpha`` and log marginal likelihood.

    From the residual ``resid`` = y - m(X), the factor ``L`` and ``log_det``
    = sum log diag L. This is the one place the expression
    -1/2 r^T alpha - sum log diag L - (n/2) log 2 pi is written.
    """
    n = resid.size
    alpha = dpotrs(L, resid, lower=1)[0]
    lml = float(-0.5 * resid @ alpha - log_det - 0.5 * n * math.log(2.0 * math.pi))
    return alpha, lml


def _residual(train, theta):
    """``y - m(X)`` under the mean block of the row ``theta``; exp(``log_omega``) is checked."""
    sl = _layout(train.D)
    omega = np.exp(theta[sl["log_omega"]])
    _check_scales(omega)
    return train.y - nq_mean(train.X, theta[sl["m0"]], theta[sl["x_m"]], omega)


def _solve_lower(L, B):
    """``L[s]^-1 B[s]`` for every draw s of stacked lower factors ``L`` (S, n, n).

    One ``dtrtrs`` call per draw, on the draw's factor as its transpose,
    upper, with ``trans=1``: the branch scipy's triangular solver takes for
    a C block. ``B`` (S, n, m) is copied once into a stack of
    Fortran-ordered blocks, laid out as ``np.stack`` lays out the blocks
    ``dtrtrs`` returns (an m = 1 block is C-ordered too), and each draw is
    solved in place in its block. So a sum over axis -2 runs down
    contiguous columns, as it does for one draw, and no per-draw copy or
    restacking is made.
    """
    S, n, m = B.shape
    X = np.empty((S, m, n)).swapaxes(1, 2) if m > 1 else np.empty(B.shape)
    np.copyto(X, B)
    for L_s, X_s in zip(L, X):
        info = dtrtrs(L_s.T, X_s, lower=0, trans=1, overwrite_b=1)[1]
        if info > 0:
            raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return X


def gp_fit(train, theta):
    """Factor the Gram matrix of each row of ``theta``: a :class:`HyperparamSampleSet`.

    ``theta`` is one row or a stack of rows (S, 3D+3), copied. The factors
    are stacked as a C-ordered (S, n, n) array, and the set fits the draws on
    them.
    Raises :class:`GPTrainingError` when a draw's Gram matrix stays
    indefinite under the largest jitter.
    """
    theta = np.array(theta, dtype=float, ndmin=2)
    factors = [_factor_gram(train, row) for row in theta]
    return HyperparamSampleSet(
        train,
        theta,
        np.array([L for L, _ in factors]),
        np.array([jitter for _, jitter in factors]),
    )


def log_marginal_likelihood(train, theta, memo):
    """GP log marginal likelihood of the training data at the 3D+3 vector ``theta``.

    ``memo`` is a dict that one slice chain on ``train`` owns (an empty dict
    for a single call). It holds two entries, each a pair of a block's exact
    bytes and what was computed from it:
    - ``"covariance"``: the last covariance block (``log_ell``, ``log_sf``,
      ``log_sobs``) seen, and its factor as ``(L, sum log diag L)``, or the
      :class:`GPTrainingError` it raised, which is raised again. Only a new
      block is unpacked, with its scale check, and factors the Gram matrix
      (:func:`_factor_gram`).
    - ``"mean"``: the last mean block (``m0``, ``x_m``, ``log_omega``) seen,
      and its residual y - m(X). Only a new block computes it, with the
      scale check of exp(``log_omega``); a block that fails the check is
      not kept.
    A call that finds both costs one ``dpotrs``.
    """
    sl = _layout(train.D)
    key = theta[sl["covariance"]].tobytes()
    entry = memo.get("covariance")
    if entry is None or entry[0] != key:
        try:
            L, _ = _factor_gram(train, theta)
            factor = (L, np.log(np.diag(L)).sum())
        except GPTrainingError as err:
            factor = err
        entry = memo["covariance"] = (key, factor)
    factor = entry[1]
    if isinstance(factor, GPTrainingError):
        raise factor.with_traceback(None)
    key = theta[sl["mean"]].tobytes()
    entry = memo.get("mean")
    if entry is None or entry[0] != key:
        entry = memo["mean"] = (key, _residual(train, theta))
    return _weights_and_lml(entry[1], *factor)[1]


def log_marginal_likelihood_grad(train, theta):
    """Log marginal likelihood at the row ``theta`` and its gradient, laid out as a row."""
    X, n, D = train.X, train.n, train.D
    ell, sf2, sobs, _, x_m, omega = _unpack_row(theta, D)
    Kk = se_kernel_matrix(X, X, ell, sf2)
    L, _ = _factor_kernel(Kk.copy(), sobs)
    alpha, lml = _weights_and_lml(_residual(train, theta), L, np.log(np.diag(L)).sum())
    Kinv = dpotrs(L, np.eye(n), lower=1)[0]
    A = np.outer(alpha, alpha) - Kinv

    sl = _layout(D)
    grad = np.empty(3 * D + 3)
    # covariance block: log input scales, log output scale, log noise
    grad[sl["log_ell"]] = [
        0.5 * np.sum(A * (Kk * ((X[:, i, None] - X[None, :, i]) ** 2 / ell[i] ** 2)))
        for i in range(D)
    ]
    grad[sl["log_sf"]] = np.sum(A * Kk)  # d K / d log_sf = 2 K, halved by the 1/2
    grad[sl["log_sobs"]] = sobs**2 * np.trace(A)
    # mean block: d lml / d theta = (d m / d theta)^T alpha
    grad[sl["m0"]] = np.sum(alpha)
    diff = X - x_m
    grad[sl["x_m"]] = (diff / omega**2).T @ alpha
    grad[sl["log_omega"]] = (diff**2 / omega**2).T @ alpha
    return lml, grad


def student_t_log_norm(df):
    """Log normalizer of the standard Student-t with ``df`` degrees of freedom."""
    return (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
    )


def student_t_log_kernel(z, df):
    """The part of the standard Student-t log density with ``df`` that depends on ``z``."""
    return 0.5 * (df + 1.0) * np.log1p(z * z / df)


class GPHyperprior:
    """Independent hyperparameter priors, partly empirical-Bayes.

    Student-t priors with ``HYPERPRIOR_DF`` degrees of freedom are placed on
    the log input scales, the log observation noise, and the mean maximum,
    with means and scales derived from the highest-density subset of the
    training data; the remaining hyperparameters get flat priors. Wide hard
    bounds keep flat directions from drifting during sampling.
    """

    SCALE_FLOOR = 1e-3

    def __init__(self, train):
        hpd = train.hpd()
        D = train.D
        m = 3 * D + 3

        ddof = 1 if hpd.n > 1 else 0
        sd_x = np.maximum(np.std(hpd.X, axis=0, ddof=ddof), self.SCALE_FLOOR)
        diam_x = np.maximum(hpd.X.max(axis=0) - hpd.X.min(axis=0), self.SCALE_FLOOR)
        diam_y = max(float(hpd.y.max() - hpd.y.min()), self.SCALE_FLOOR)

        mean = np.zeros(m)
        scale = np.ones(m)
        has_prior = np.zeros(m, dtype=bool)

        sl = _layout(D)
        mean[sl["log_ell"]] = np.log(sd_x)
        scale[sl["log_ell"]] = np.maximum(2.0, np.log(diam_x / sd_x))
        has_prior[sl["log_ell"]] = True

        mean[sl["log_sobs"]] = math.log(0.001)
        scale[sl["log_sobs"]] = 0.5
        has_prior[sl["log_sobs"]] = True

        mean[sl["m0"]] = float(hpd.y.max())
        scale[sl["m0"]] = diam_y
        has_prior[sl["m0"]] = True

        self.mean = mean
        self.scale = np.maximum(scale, self.SCALE_FLOOR)
        self.has_prior = has_prior
        # the Student-t entries and the terms that do not depend on theta, for logpdf
        self._prior_index = np.flatnonzero(has_prior)
        self._mean_p = mean[has_prior]
        self._scale_p = self.scale[has_prior]
        self._log_norm_p = student_t_log_norm(HYPERPRIOR_DF) - np.log(self._scale_p)

        # hard bounds: safety rails for the flat-prior directions
        lo, hi = np.empty(m), np.empty(m)  # every entry is assigned below
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
        # for logpdf, which runs on every slice-target evaluation: compared as
        # Python floats, the 3D+3 bounds cost a quarter of two NumPy comparisons
        self._bounds = list(zip(lo.tolist(), hi.tolist()))

        # slice-sampling bracket widths: prior scales, 1 on flat priors;
        # clipped so huge empirical scales do not inflate the shrink loop
        self.widths = np.clip(np.where(self.has_prior, self.scale, 1.0), 0.1, 2.0)

    def logpdf(self, theta):
        """Log density at the row ``theta`` (an array); -inf outside the hard bounds.

        It runs on every slice-target evaluation, so the Student-t entries
        are gathered by a precomputed integer index, which is cheaper than
        a boolean mask and gives the same values in the same order.
        """
        for value, (lo, hi) in zip(theta.tolist(), self._bounds):
            if value < lo or value > hi:
                return -np.inf
        z = (theta[self._prior_index] - self._mean_p) / self._scale_p
        return float((self._log_norm_p - student_t_log_kernel(z, HYPERPRIOR_DF)).sum())

    def grad_logpdf(self, theta):
        g = np.zeros_like(theta)
        z = theta[self.has_prior] - self._mean_p
        df = HYPERPRIOR_DF
        g[self.has_prior] = -(df + 1.0) * z / (df * self._scale_p**2 + z * z)
        return g

    def sample(self, center, rng):
        """Draw a restart point: prior draws where a prior exists,
        jittered ``center`` on the flat directions; clipped to bounds."""
        theta = np.array(center, dtype=float)
        p = self.has_prior
        draws = rng.standard_t(HYPERPRIOR_DF, size=int(p.sum()))
        theta[p] = self.mean[p] + self.scale[p] * draws
        theta[~p] = theta[~p] + rng.normal(0.0, 1.0, size=int((~p).sum()))
        return _clip_to(theta, self)


class HyperparamSampleSet:
    """The GP posterior: hyperparameter draws on one training set, stacked along axis S.

    Built from the training set ``train``, the draws ``theta`` (S, 3D+3),
    rows laid out as :func:`_layout` says, the lower Cholesky factors ``L``
    (S, n, n) of ``K + sobs^2 I`` and each draw's ``jitter`` (S,). It
    unpacks ``theta`` once by :func:`_unpack` into ``ell``, ``x_m`` and
    ``omega`` (S, D), and ``sf2``, ``sobs`` and ``m0`` (S,). It then fits its
    draws (:meth:`_fit`): the training inputs divided by each draw's length
    scales and their squared norms, which every prediction reads, one
    batched residual y - m(X) and, per draw, :func:`_weights_and_lml` on
    ``L[s]``, which give the weights ``alpha`` (S, n) and log marginal
    likelihoods ``lml`` (S,). Every solve against ``L`` goes through
    :func:`_solve_lower`. Built by :func:`gp_fit` and :meth:`with_point`;
    immutable.
    """

    def __init__(self, train, theta, L, jitter):
        if len(theta) < 1:
            raise ValueError("need at least one hyperparameter sample")
        self.theta = theta
        self.ell, self.sf2, self.sobs, self.m0, self.x_m, self.omega = _unpack(theta, train.D)
        self._fit(train, L, jitter)

    def _fit(self, train, L, jitter):
        """Fit the unpacked draws to ``train`` on the factors ``L``: every array that reads the data."""
        self.train, self.L, self.jitter = train, L, jitter
        self._Xs = train.X / self.ell[:, None, :]  # (S, n, D), and its row norms (S, n)
        self._Xs2 = _sq_norms(self._Xs)
        resid = train.y - nq_mean(train.X, self.m0, self.x_m, self.omega)
        self.alpha, self.lml = np.empty((len(self.theta), train.n)), np.empty(len(self.theta))
        for s, L_s in enumerate(L):
            log_det = np.log(np.diag(L_s)).sum()
            self.alpha[s], self.lml[s] = _weights_and_lml(resid[s], L_s, log_det)

    def __len__(self):
        return len(self.theta)

    def with_point(self, x_new, y_new):
        """Rank-1 update of every draw with one observation; O(S n^2).

        One batched pass borders each factor with the new kernel column.
        A draw whose new pivot is not positive gets a fresh factor. The new
        set keeps this set's unpacked draws and fits them on its factors.
        """
        x_new = np.asarray(x_new, dtype=float)
        train = self.train.with_point(x_new, y_new)
        n = self.train.n
        b = x_new[None, :] / self.ell[:, None, :]
        k = _se_in_place(_sq_dist_to(None, self._Xs, self._Xs2, b, _sq_norms(b)),
                         self.sf2[:, None, None])
        c = _solve_lower(self.L, k)
        pivot = self.sf2 + self.sobs**2 + self.jitter - (np.swapaxes(c, -1, -2) @ c)[:, 0, 0]
        L = np.zeros((len(self), n + 1, n + 1))
        L[:, :n, :n] = self.L
        L[:, n, :n] = c[..., 0]
        L[:, n, n] = np.sqrt(np.maximum(pivot, 0.0))
        jitter = self.jitter.copy()
        for s in np.flatnonzero(pivot <= 0):  # the bordered factor lost positive definiteness
            L[s], jitter[s] = _factor_gram(train, self.theta[s])
        updated = copy.copy(self)
        updated._fit(train, L, jitter)
        return updated


def n_gp_schedule(n):
    """Number of hyperparameter samples to draw for ``n`` training points."""
    return max(1, round(80.0 / math.sqrt(n)))


def default_hyperparams(train):
    """Heuristic hyperparameter row used to start the first chain."""
    hpd = train.hpd()
    sd_x = np.maximum(np.std(hpd.X, axis=0), 1e-3)
    sd_y = max(float(np.std(hpd.y)), 1e-3)
    span = np.maximum(train.X.max(axis=0) - train.X.min(axis=0), 1.0)
    sl = _layout(train.D)
    theta = np.empty(3 * train.D + 3)
    theta[sl["log_ell"]] = np.log(sd_x)
    theta[sl["log_sf"]] = math.log(sd_y)
    theta[sl["log_sobs"]] = math.log(0.001)
    theta[sl["m0"]] = train.y.max()
    theta[sl["x_m"]] = train.X[int(np.argmax(train.y))]
    theta[sl["log_omega"]] = np.log(span)
    return theta


def _clip_to(theta, prior):
    return np.clip(theta, prior.lower, prior.upper)


def sample_hyperparameters(train, n_gp, init, rng):
    """Slice-sample ``n_gp`` hyperparameter draws from the GP posterior.

    The target is the GP log marginal likelihood plus the empirical-Bayes
    hyperprior; one chain runs ``BURN_SWEEPS`` sweeps of burn-in and keeps
    a draw every ``THIN_SWEEPS`` sweeps, starting from the row ``init``.
    The draws are fitted as one set.

    The chain moves one coordinate at a time, so each move leaves either
    the covariance block ``theta[:D+2]`` or the mean block alone. So the
    target keeps a memo: the factor of the last covariance block, or the
    :class:`GPTrainingError` that block raised, and the residual of the
    last mean block, each keyed by its block's exact bytes (see
    :func:`log_marginal_likelihood`). Equal bytes give the same factor and
    residual, so the draws are those of a target that computes both on
    every evaluation, bit for bit. Raises :class:`GPTrainingError` when
    neither start, ``init`` nor the default hyperparameters, has a finite
    target.
    """
    if train.n < 2:
        raise ValueError("hyperparameter sampling requires at least 2 points")
    prior = GPHyperprior(train)
    memo = {}

    def target(theta):
        lp = prior.logpdf(theta)
        if not np.isfinite(lp):
            return -np.inf
        try:
            lml = log_marginal_likelihood(train, theta, memo)
        except (GPTrainingError, FloatingPointError):
            return -np.inf
        return lml + lp

    theta0 = _clip_to(init, prior)
    if not np.isfinite(target(theta0)):
        theta0 = _clip_to(default_hyperparams(train), prior)
        if not np.isfinite(target(theta0)):
            raise GPTrainingError(
                "the hyperparameter posterior is not finite at the last or the default start"
            )
    thetas = slice_sample(
        target,
        theta0,
        n_gp,
        prior.widths,
        rng,
        burn_sweeps=BURN_SWEEPS,
        thin_sweeps=THIN_SWEEPS,
    )
    return gp_fit(train, thetas)


def optimize_hyperparameters(train, init, rng):
    """MAP hyperparameters by quasi-Newton ascent with analytic gradients.

    Starts from the row ``init`` and restarts from ``N_RESTARTS``
    hyperprior draws; returns the best local maximizer seen as a row, never
    worse than the initial point.
    """
    if train.n < 2:
        raise ValueError("hyperparameter optimization requires at least 2 points")
    prior = GPHyperprior(train)

    def neg_objective(theta):
        lp = prior.logpdf(theta)
        if not np.isfinite(lp):
            return np.inf, np.zeros_like(theta)
        try:
            lml, grad = log_marginal_likelihood_grad(train, theta)
        except (GPTrainingError, FloatingPointError):
            return np.inf, np.zeros_like(theta)
        gp_prior = prior.grad_logpdf(theta)
        return -(lml + lp), -(grad + gp_prior)

    theta0 = _clip_to(init, prior)
    starts = [theta0] + [prior.sample(theta0, rng) for _ in range(N_RESTARTS)]
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
    return best_theta


def marginal_predict(samples, X):
    """Predictive mean and variance marginalized over hyperparameter draws.

    Each draw's latent mean and variance (no observation noise; a variance
    that rounds negative is clamped at zero) are built in blocks of draws,
    as many as fit ``PREDICT_BLOCK`` kernel entries (draws, n, rows), at
    least one. A block's kernel is written in one reused buffer from the
    set's scaled training inputs and their norms, and its solves are
    squared in place. So a call on the 1,002 seed probes of a search holds
    one (n, rows) kernel at a time, and a CMA-ES generation's few rows are
    one batched block. Every product and solve is per draw, so a value
    does not depend on how the draws are blocked. It does depend on the
    number of rows scored with it: that count changes how BLAS rounds the
    mean's matrix-vector product and the triangular solves.
    The mean averages the per-draw means; the variance averages the
    per-draw variances and adds the unbiased sample variance of the means
    (zero for a single draw).
    """
    global VARIANCE_CLAMP_COUNT
    X = np.atleast_2d(X)
    S, n, m = len(samples), samples.train.n, X.shape[0]
    step = max(1, PREDICT_BLOCK // max(1, n * m))
    buf = np.empty((min(step, S), n, m))
    means, variances = np.empty((S, m)), np.empty((S, m))
    for start in range(0, S, step):
        blk = slice(start, start + step)
        b = X / samples.ell[blk, None, :]
        d2 = _sq_dist_to(buf[: len(b)], samples._Xs[blk], samples._Xs2[blk], b, _sq_norms(b))
        Ks = _se_in_place(d2, samples.sf2[blk, None, None])
        np.add(nq_mean(X, samples.m0[blk], samples.x_m[blk], samples.omega[blk]),
               (np.swapaxes(Ks, -1, -2) @ samples.alpha[blk, :, None])[..., 0], out=means[blk])
        U = _solve_lower(samples.L[blk], Ks)
        np.multiply(U, U, out=U)
        np.subtract(samples.sf2[blk, None], U.sum(axis=-2), out=variances[blk])
    if (variances < 0).any():
        VARIANCE_CLAMP_COUNT += int(np.count_nonzero(variances < 0))
        np.maximum(variances, 0.0, out=variances)
    mean = means.mean(axis=0, keepdims=True)
    var = variances.mean(axis=0)
    if S > 1:
        var += means.var(axis=0, ddof=1, mean=mean)
    return mean[0], var
