"""Per-draw and scipy-wrapper references for the GP's fast paths.

``HyperparamSampleSet.with_point``, ``marginal_predict`` and ``quadrature``
treat all GP hyperparameter draws of a set in one batched pass. The
functions here redo the solve-dependent parts one draw at a time, on each
draw's own Cholesky factor, so tests can demand bit-identical results from
the batched path.

:func:`per_draw_sample_hyperparameters` runs the slice chain of
``gp.sample_hyperparameters`` on a target that factors the Gram matrix on
every evaluation (:func:`per_draw_lml`), so tests can demand the bits of
the memoized target.

``vbmc.gp`` calls LAPACK directly. The ``scipy_*`` functions below compute
the same quantities through ``scipy.linalg``'s wrappers (``cholesky``,
``cho_solve``, ``solve_triangular``) and the summed :func:`student_t_logpdf`,
so tests can demand the same bits from the direct calls.

A GP hyperparameter draw is a row of 3D+3 numbers. :func:`hyp_row` builds
one from named blocks and :func:`blocks` names them again; :func:`scales`
and :func:`mean_block` exponentiate them here with ``np.exp``,
independently of ``vbmc.gp``'s own unpacking.
"""

import math

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from vbmc.gp import (
    BURN_SWEEPS,
    HYPERPRIOR_DF,
    SIGMA_OBS_FLOOR,
    THIN_SWEEPS,
    GPHyperprior,
    GPTrainingError,
    HyperparamSampleSet,
    TrainingSet,
    default_hyperparams,
    gp_fit,
    _factor_gram,
    _residual,
    _weights_and_lml,
    nq_mean,
    se_kernel_matrix,
    student_t_log_kernel,
    student_t_log_norm,
)
from vbmc.slice_sampler import slice_sample
from vbmc.quadrature import z_matrix


def hyp_row(log_ell, log_sf, log_sobs, m0, x_m, log_omega):
    """The row of 3D+3 numbers with these blocks, in ``vbmc.gp``'s order."""
    return np.concatenate(
        [np.ravel(log_ell), [log_sf, log_sobs, m0], np.ravel(x_m), np.ravel(log_omega)]
    ).astype(float)


def blocks(theta):
    """The blocks of a row: ``(log_ell, log_sf, log_sobs, m0, x_m, log_omega)``."""
    D = (len(theta) - 3) // 3
    return (
        theta[:D], theta[D], theta[D + 1], theta[D + 2], theta[D + 3 : 2 * D + 3],
        theta[2 * D + 3 :],
    )


def scales(theta):
    """``(ell, sf2, sobs)`` of a row: ``np.exp`` of the length scales, the
    output scale and the noise, which is then floored."""
    log_ell, log_sf, log_sobs, *_ = blocks(theta)
    sf2, sobs = np.exp(2.0 * log_sf), np.exp(log_sobs)
    return np.exp(log_ell), sf2, max(sobs, SIGMA_OBS_FLOOR)


def mean_block(theta):
    """``(m0, x_m, omega)`` of a row, the arguments of ``nq_mean``."""
    *_, m0, x_m, log_omega = blocks(theta)
    return m0, x_m, np.exp(log_omega)


def row_kernel(X1, X2, theta):
    """``se_kernel_matrix`` at the length scales and output scale of a row."""
    ell, sf2, _ = scales(theta)
    return se_kernel_matrix(X1, X2, ell, sf2)


def row_mean(X, theta):
    """``nq_mean`` at the rows of ``X`` and the mean block of a row."""
    return nq_mean(np.atleast_2d(X), *mean_block(theta))


FAR = 100.0  # every coordinate of the one training point of prior_set


def prior_set(hyps, D=1):
    """The rows ``hyps`` fitted to one point at ``FAR``: the prior, bit for bit.

    A training set is never empty. At length scales up to e^0.5, every
    kernel value between ``FAR`` and the points the tests read (and every
    ``z`` entry of the mixtures they integrate) underflows to exactly 0.0,
    so the set predicts and integrates as the prior does.
    """
    return gp_fit(TrainingSet(np.full((1, D), FAR), [0.0]), hyps)


def random_hyp(rng, D, log_sobs=math.log(1e-3)):
    return hyp_row(
        log_ell=rng.uniform(-1.0, 0.5, size=D),
        log_sf=rng.uniform(-0.5, 0.5),
        log_sobs=log_sobs,
        m0=rng.uniform(-1.0, 1.0),
        x_m=rng.uniform(-1.0, 1.0, size=D),
        log_omega=rng.uniform(0.0, 1.0, size=D),
    )


def random_sample_set(rng, S, n, D, updates=0):
    """``S`` random draws fitted to ``n`` random points, then ``updates``
    rank-1 updates."""
    X = rng.uniform(-2.0, 2.0, size=(n, D))
    y = rng.normal(size=n)
    samples = gp_fit(TrainingSet(X, y), [random_hyp(rng, D) for _ in range(S)])
    for _ in range(updates):
        samples = samples.with_point(rng.uniform(-2.0, 2.0, size=D), rng.normal())
    return samples


def draws(samples):
    """One-draw sets sliced from ``samples``; each fits its draw again on its factor."""
    return [
        HyperparamSampleSet(
            samples.train,
            samples.theta[s : s + 1],
            samples.L[s : s + 1],
            samples.jitter[s : s + 1],
        )
        for s in range(len(samples))
    ]


def per_draw_update(samples, s, x_new, y_new):
    """Draw ``s`` updated with one observation on its own factor.

    Borders the factor with the solved kernel column and the pivot, or
    refits the draw when the pivot is not positive. Returns
    ``(L, jitter, alpha, lml, refit)``.
    """
    theta, L, jitter = samples.theta[s], samples.L[s], samples.jitter[s]
    train = samples.train.with_point(x_new, y_new)
    n = samples.train.n
    k = row_kernel(samples.train.X, x_new[None, :], theta)[:, 0]
    c = solve_triangular(L, k, lower=True)
    _, sf2, sobs = scales(theta)
    d2 = sf2 + sobs * sobs + jitter - c @ c  # with_point squares the noise stack: x*x
    if d2 <= 0:
        refit = gp_fit(train, theta)
        return refit.L[0], refit.jitter[0], refit.alpha[0], refit.lml[0], True
    L_new = np.zeros((n + 1, n + 1))
    L_new[:n, :n] = L
    L_new[n, :n] = c
    L_new[n, n] = math.sqrt(d2)
    resid = train.y - row_mean(train.X, theta)
    alpha = cho_solve((L_new, True), resid)
    lml = float(
        -0.5 * resid @ alpha
        - np.sum(np.log(np.diag(L_new)))
        - 0.5 * train.n * math.log(2.0 * math.pi)
    )
    return L_new, jitter, alpha, lml, False


def per_draw_latent(post, X):
    """A one-draw set's latent mean and variance at rows of ``X``, not clamped."""
    X = np.atleast_2d(X)
    theta = post.theta[0]
    Ks = row_kernel(post.train.X, X, theta)
    mean = row_mean(X, theta) + Ks.T @ post.alpha[0]
    U = solve_triangular(post.L[0], Ks, lower=True, check_finite=False)
    return mean, scales(theta)[1] - np.sum(U * U, axis=0)


def per_draw_predict(post, X):
    """A one-draw set's latent mean and clamped variance at rows of ``X``."""
    mean, var = per_draw_latent(post, X)
    return mean, np.maximum(var, 0.0)


def per_draw_wJ(vp, post):
    """A one-draw set's row w^T J of the posterior variance w^T J w of E_q[f].

    The last product with ``w`` is left to the caller: a matrix-vector
    product rounds a row differently with other rows around it, so the
    variances of a stack of draws are the stacked rows times ``w``.
    """
    ell, sf2, _ = scales(post.theta[0])
    z = z_matrix(vp, post)[0][0]
    lam_k = (2.0 * math.pi) ** (0.5 * vp.D) * float(np.prod(ell))
    s2sum = vp.sigma[:, None] ** 2 + vp.sigma[None, :] ** 2
    rho2 = ell**2 + s2sum[:, :, None] * vp.lam**2
    diff = vp.mu[:, None, :] - vp.mu[None, :, :]
    logn = -0.5 * vp.D * math.log(2.0 * math.pi) - 0.5 * np.sum(
        np.log(rho2) + diff**2 / rho2, axis=2
    )
    U = lam_k * solve_triangular(post.L[0], z.T, lower=True)
    J = lam_k * sf2 * np.exp(logn) - U.T @ U
    return vp.w @ J


def scipy_solve_lower(L, B):
    """``L[s]^-1 B[s]`` for every draw through scipy's batched triangular solve."""
    return solve_triangular(L, B, lower=True, check_finite=False)


def scipy_factor_gram(train, theta):
    """``(L, jitter)`` of the noisy Gram matrix through ``scipy.linalg.cholesky``,
    with the jitter ladder 0, then 1e-10 .. 1e-6 times ``tr(K)/n``."""
    K = row_kernel(train.X, train.X, theta)
    diag = np.diag_indices_from(K)
    K[diag] += scales(theta)[2] ** 2
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
    raise GPTrainingError(f"Gram matrix not positive definite after jitter {jitter:g}")


def scipy_lml_grad(train, theta):
    """Log marginal likelihood and its gradient through ``cho_solve``."""
    L, _ = scipy_factor_gram(train, theta)
    resid = train.y - row_mean(train.X, theta)
    alpha = cho_solve((L, True), resid, check_finite=False)
    lml = float(
        -0.5 * resid @ alpha
        - np.sum(np.log(np.diag(L)))
        - 0.5 * train.n * math.log(2.0 * math.pi)
    )
    X, n, D = train.X, train.n, train.D
    A = np.outer(alpha, alpha) - cho_solve((L, True), np.eye(n))
    Kk = row_kernel(X, X, theta)
    ell, _, sobs = scales(theta)
    _, x_m, omega = mean_block(theta)
    grad = np.empty(3 * D + 3)
    for i in range(D):
        Dist = (X[:, i, None] - X[None, :, i]) ** 2 / ell[i] ** 2
        grad[i] = 0.5 * np.sum(A * (Kk * Dist))
    grad[D] = np.sum(A * Kk)
    grad[D + 1] = sobs**2 * np.trace(A)
    grad[D + 2] = np.sum(alpha)
    diff = X - x_m
    grad[D + 3 : 2 * D + 3] = (diff / omega**2).T @ alpha
    grad[2 * D + 3 :] = (diff**2 / omega**2).T @ alpha
    return lml, grad


def student_t_logpdf(x, mu, scale):
    """Log density of the hyperpriors' scaled Student-t (``gp.HYPERPRIOR_DF``)."""
    log_norm = student_t_log_norm(HYPERPRIOR_DF) - np.log(scale)
    return log_norm - student_t_log_kernel((x - mu) / scale, HYPERPRIOR_DF)


def summed_prior_logpdf(prior, theta):
    """``GPHyperprior.logpdf`` inside the bounds: the summed Student-t densities."""
    p = prior.has_prior
    return float(np.sum(student_t_logpdf(theta[p], prior.mean[p], prior.scale[p])))


def per_draw_lml(train, theta):
    """One draw's log marginal likelihood, its Gram matrix factored afresh.

    ``_factor_gram``, ``_weights_and_lml`` and ``_residual`` are bound at
    import, so a test that counts ``gp._factor_gram`` calls does not count
    these.
    """
    L, _ = _factor_gram(train, theta)
    return _weights_and_lml(_residual(train, theta), L, np.log(np.diag(L)).sum())[1]


def per_draw_sample_hyperparameters(train, n_gp, init, rng):
    """``gp.sample_hyperparameters`` with a target that keeps no factor."""
    prior = GPHyperprior(train)

    def target(theta):
        lp = prior.logpdf(theta)
        if not np.isfinite(lp):
            return -np.inf
        try:
            lml = per_draw_lml(train, theta)
        except (GPTrainingError, FloatingPointError):
            return -np.inf
        return lml + lp

    theta0 = np.clip(init, prior.lower, prior.upper)
    if not np.isfinite(target(theta0)):
        theta0 = np.clip(default_hyperparams(train), prior.lower, prior.upper)
    thetas = slice_sample(
        target, theta0, n_gp, prior.widths, rng,
        burn_sweeps=BURN_SWEEPS, thin_sweeps=THIN_SWEEPS,
    )
    return gp_fit(train, thetas)
