"""Brute-force numerical oracles used by the test suite.

These deliberately avoid the closed-form quadrature identities in the
package: integrals are computed on dense tensor grids from the kernel and
mixture definitions, with explicit matrix inverses. Kept independent so
they can certify the analytic path. ``post`` is a one-draw
``HyperparamSampleSet``. ``entropy_exact_single`` is the closed-form
entropy of one Gaussian, a noise-free reference for the Monte Carlo
entropy estimator.
"""

import math

import numpy as np

from per_draw import row_kernel, scales
from vbmc.gp import marginal_predict


def _grid_1d(vp, post, points):
    """Uniform grid covering the mixture mass and all training points."""
    s = vp.sigma.max() * vp.lam.max()
    ell = scales(post.theta[0])[0].max()
    lo = min(vp.mu.min() - 8.5 * s, -1.0, post.train.X.min() - 5 * ell)
    hi = max(vp.mu.max() + 8.5 * s, 1.0, post.train.X.max() + 5 * ell)
    return np.linspace(lo, hi, points)


def oracle_g_mean_1d(vp, post, points=4001):
    g = _grid_1d(vp, post, points)
    q = np.exp(vp.logpdf(g[:, None]))
    fbar, _ = marginal_predict(post, g[:, None])
    return np.trapezoid(q * fbar, g)


def oracle_g_var_1d(vp, post, points=3001):
    g = _grid_1d(vp, post, points)
    h = g[1] - g[0]
    wq = np.exp(vp.logpdf(g[:, None])) * h
    wq[0] *= 0.5
    wq[-1] *= 0.5
    theta = post.theta[0]
    Kg = row_kernel(g[:, None], g[:, None], theta)
    term1 = wq @ Kg @ wq
    X = post.train.X
    noise = scales(theta)[2] ** 2 + post.jitter[0]
    Kxx = row_kernel(X, X, theta) + noise * np.eye(post.train.n)
    b = row_kernel(g[:, None], X, theta).T @ wq
    return term1 - b @ np.linalg.inv(Kxx) @ b


def _grid_2d(vp, post, points):
    axes = []
    for d in range(2):
        s = vp.sigma.max() * vp.lam[d]
        ell = scales(post.theta[0])[0][d]
        lo = min(vp.mu[:, d].min() - 8.5 * s, post.train.X[:, d].min() - 5 * ell)
        hi = max(vp.mu[:, d].max() + 8.5 * s, post.train.X[:, d].max() + 5 * ell)
        axes.append(np.linspace(lo, hi, points))
    return axes


def oracle_g_mean_2d(vp, post, points=451):
    ax1, ax2 = _grid_2d(vp, post, points)
    xx, yy = np.meshgrid(ax1, ax2, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    q = np.exp(vp.logpdf(pts))
    fbar, _ = marginal_predict(post, pts)
    vals = (q * fbar).reshape(points, points)
    return np.trapezoid(np.trapezoid(vals, ax2, axis=1), ax1)


def oracle_g_var_2d(vp, post, points=351):
    ax1, ax2 = _grid_2d(vp, post, points)
    theta = post.theta[0]
    ell, sf2, sobs = scales(theta)

    def trap_w(ax):
        w = np.full(ax.size, ax[1] - ax[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    xx, yy = np.meshgrid(ax1, ax2, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    WQ = np.exp(vp.logpdf(pts)).reshape(points, points) * np.outer(trap_w(ax1), trap_w(ax2))

    # separable kernel: the double integral over the tensor grid reduces to
    # two per-axis kernel contractions
    K1 = np.exp(-0.5 * (ax1[:, None] - ax1[None, :]) ** 2 / ell[0] ** 2)
    K2 = np.exp(-0.5 * (ax2[:, None] - ax2[None, :]) ** 2 / ell[1] ** 2)
    term1 = sf2 * float(np.sum(WQ * (K1 @ WQ @ K2.T)))
    X = post.train.X
    noise = sobs**2 + post.jitter[0]
    Kxx = row_kernel(X, X, theta) + noise * np.eye(post.train.n)
    b = row_kernel(pts, X, theta).T @ WQ.ravel()
    return term1 - b @ np.linalg.inv(Kxx) @ b


def oracle_g_mean(vp, post):
    return oracle_g_mean_1d(vp, post) if vp.D == 1 else oracle_g_mean_2d(vp, post)


def oracle_g_var(vp, post):
    return oracle_g_var_1d(vp, post) if vp.D == 1 else oracle_g_var_2d(vp, post)


def entropy_exact_single(vp):
    """Closed-form entropy of a single-Gaussian posterior (K = 1 only).

    Returns the entropy and its gradient in vector-space layout; a
    noise-free stand-in for the Monte Carlo estimator.
    """
    if vp.K != 1:
        raise ValueError("closed form requires K = 1")
    D = vp.D
    H = (
        0.5 * D * (math.log(2.0 * math.pi) + 1.0)
        + D * math.log(vp.sigma[0])
        + np.sum(np.log(vp.lam))
    )
    grad = np.zeros(vp.K * (D + 2) + D)
    grad[D] = D  # d/d log sigma
    grad[D + 1 : 2 * D + 1] = 1.0  # d/d log lambda
    return float(H), grad
