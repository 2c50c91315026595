"""Per-draw references for the batched hyperparameter-set path.

``marginal_predict`` and ``quadrature`` treat all GP hyperparameter draws
of a ``HyperparamSampleSet`` in one batched pass. The functions here redo
the solve-dependent parts one draw at a time, on each draw's own Cholesky
factor, so tests can demand bit-identical results from the batched path.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular

from vbmc.gp import (
    GPHyperparams,
    HyperparamSampleSet,
    TrainingSet,
    gp_fit,
    nq_mean,
    se_kernel_matrix,
)
from vbmc.quadrature import z_matrix


def random_sample_set(rng, S, n, D, updates=0):
    """``S`` random draws fitted to ``n`` random points, then ``updates``
    rank-1 updates (which turn the factors from Fortran to C order)."""
    X = rng.uniform(-2.0, 2.0, size=(n, D))
    y = rng.normal(size=n)
    posts = [
        gp_fit(
            TrainingSet(X, y),
            GPHyperparams(
                log_ell=rng.uniform(-1.0, 0.5, size=D),
                log_sf=rng.uniform(-0.5, 0.5),
                log_sobs=math.log(1e-3),
                m0=rng.uniform(-1.0, 1.0),
                x_m=rng.uniform(-1.0, 1.0, size=D),
                log_omega=rng.uniform(0.0, 1.0, size=D),
            ),
        )
        for _ in range(S)
    ]
    samples = HyperparamSampleSet(posts)
    for _ in range(updates):
        samples = samples.with_point(rng.uniform(-2.0, 2.0, size=D), rng.normal())
    return samples


def per_draw_predict(post, X):
    """One draw's latent mean and clamped variance at rows of ``X``."""
    X = np.atleast_2d(X)
    hyp = post.hyp
    mean, var = nq_mean(X, hyp), np.full(X.shape[0], hyp.sf2)
    if post.n > 0:
        Ks = se_kernel_matrix(post.train.X, X, hyp)
        mean = mean + Ks.T @ post.alpha
        U = solve_triangular(post.L, Ks, lower=True, check_finite=False)
        var = var - np.sum(U * U, axis=0)
    return mean, np.maximum(var, 0.0)


def per_draw_variance(vp, post):
    """One draw's clamped posterior variance of E_q[f]."""
    hyp = post.hyp
    z = z_matrix(vp, HyperparamSampleSet([post]))[0][0]
    lam_k = (2.0 * math.pi) ** (0.5 * vp.D) * float(np.prod(hyp.ell))
    s2sum = vp.sigma[:, None] ** 2 + vp.sigma[None, :] ** 2
    rho2 = hyp.ell**2 + s2sum[:, :, None] * vp.lam**2
    diff = vp.mu[:, None, :] - vp.mu[None, :, :]
    logn = -0.5 * vp.D * math.log(2.0 * math.pi) - 0.5 * np.sum(
        np.log(rho2) + diff**2 / rho2, axis=2
    )
    J = lam_k * hyp.sf2 * np.exp(logn)
    if post.n > 0:
        U = lam_k * solve_triangular(post.L, z.T, lower=True)
        J = J - U.T @ U
    return max(float(vp.w @ J @ vp.w), 0.0)
