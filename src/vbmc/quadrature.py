"""Closed-form quadrature of the expected log joint under the mixture.

With a squared-exponential kernel, Gaussian observation noise, and a
negative-quadratic mean, the posterior mean and variance of
E_q[f] for a Gaussian-mixture q are available analytically, along with
gradients of the mean with respect to the variational parameters. Results
are marginalized over GP hyperparameter draws by averaging means and
variances and adding the between-draw variance of the means.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .variational import entropy_mc

__all__ = [
    "QuadratureResult",
    "ELBOEstimate",
    "z_matrix",
    "expected_log_joint",
    "expected_log_joint_variance",
    "quadrature",
    "elbo",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Diagnostics: number of times a numerically negative quadrature variance
# was clamped to zero.
VARIANCE_CLAMP_COUNT = 0


def _tau2(vp, hyp):
    """Per-component, per-dimension tau^2 = sigma_k^2 lam^2 + ell^2."""
    return vp.sigma[:, None] ** 2 * vp.lam[None, :] ** 2 + hyp.ell[None, :] ** 2


def _kernel_normalizer(hyp):
    """Gaussian normalizer of the kernel: (2 pi)^(D/2) prod(ell).

    The z entries are normalized Gaussian densities; the actual integral
    of a mixture component against the kernel carries this extra factor,
    since the kernel equals the normalizer times a Gaussian density.
    """
    D = hyp.ell.size
    return (2.0 * math.pi) ** (0.5 * D) * float(np.prod(hyp.ell))


def z_matrix(vp, post):
    """Cross integrals of each mixture component against the kernel.

    Returns a (K, n) matrix whose (k, p) entry is the integral of
    component k's density times the kernel at training point p; equals
    ``sf2 N(mu_k; x_p, sigma_k^2 Sigma + Sigma_ell)``. The squared
    distances are expanded here rather than by ``gp.sq_dist`` because
    the metric ``tau_k^2`` differs per component, so no shared rescaling
    of the rows exists.
    """
    hyp = post.hyp
    X = post.train.X
    t2 = _tau2(vp, hyp)
    if post.n == 0:
        return np.zeros((vp.K, 0)), t2
    A = vp.mu / t2
    M = (
        np.sum(vp.mu * A, axis=1)[:, None]
        - 2.0 * A @ X.T
        + (1.0 / t2) @ (X * X).T
    )
    np.maximum(M, 0.0, out=M)
    log_norm = -0.5 * vp.D * _LOG_2PI - 0.5 * np.sum(np.log(t2), axis=1)
    z = hyp.sf2 * np.exp(log_norm[:, None] - 0.5 * M)
    return z, t2


def _nu(vp, hyp):
    """Quadrature of the negative-quadratic mean against each component."""
    quad = (
        vp.mu**2
        + vp.sigma[:, None] ** 2 * vp.lam[None, :] ** 2
        - 2.0 * vp.mu * hyp.x_m[None, :]
        + hyp.x_m[None, :] ** 2
    )
    return -0.5 * np.sum(quad / hyp.omega[None, :] ** 2, axis=1)


def expected_log_joint(vp, post, grad=False):
    """Posterior mean of E_q[f] for one GP posterior.

    Returns ``(mean, grad_vec, i_k)``: the scalar mean, its gradient in
    vector-space layout (or None), and the per-component integrals.
    """
    hyp = post.hyp
    K, D = vp.K, vp.D
    z, t2 = z_matrix(vp, post)
    z = _kernel_normalizer(hyp) * z
    nu = _nu(vp, hyp)
    i_k = z @ post.alpha + hyp.m0 + nu
    mean = float(vp.w @ i_k)
    if not grad:
        return mean, None, i_k

    w, mu, sigma, lam = vp.w, vp.mu, vp.sigma, vp.lam
    om2 = hyp.omega**2
    if post.n > 0:
        X = post.train.X
        v = z * post.alpha[None, :]
        S = v.sum(axis=1)  # (K,)
        V1 = v @ X  # (K, D)
        V2 = v @ (X * X)  # (K, D)
        quad = mu**2 * S[:, None] - 2.0 * mu * V1 + V2  # sum_p a_p z (mu - x)^2
    else:
        S = np.zeros(K)
        V1 = V2 = np.zeros((K, D))
        quad = np.zeros((K, D))

    d_mu = (V1 - mu * S[:, None]) / t2 - (mu - hyp.x_m[None, :]) / om2[None, :]
    lam2 = lam[None, :] ** 2
    d_sigma = sigma * (
        np.sum(lam2 * quad / t2**2, axis=1)
        - S * np.sum(lam2 / t2, axis=1)
        - np.sum(lam2 / om2[None, :], axis=1)
    )
    d_lam = lam[None, :] * (
        sigma[:, None] ** 2 * (quad / t2**2 - S[:, None] / t2)
        - sigma[:, None] ** 2 / om2[None, :]
    )

    grad_vec = np.concatenate(
        [
            (w[:, None] * d_mu).ravel(),
            w * d_sigma * sigma,
            lam * np.sum(w[:, None] * d_lam, axis=0),
            w * (i_k - mean),
        ]
    )
    return mean, grad_vec, i_k


def expected_log_joint_variance(vp, post):
    """Posterior variance of E_q[f] for one GP posterior (clamped at 0)."""
    global VARIANCE_CLAMP_COUNT
    hyp = post.hyp
    z, _ = z_matrix(vp, post)
    lam_k = _kernel_normalizer(hyp)
    # cross-component Gaussian overlap term
    s2sum = vp.sigma[:, None] ** 2 + vp.sigma[None, :] ** 2  # (K, K)
    rho2 = (
        hyp.ell[None, None, :] ** 2
        + s2sum[:, :, None] * vp.lam[None, None, :] ** 2
    )  # (K, K, D)
    diff = vp.mu[:, None, :] - vp.mu[None, :, :]
    logn = -0.5 * vp.D * _LOG_2PI - 0.5 * np.sum(
        np.log(rho2) + diff**2 / rho2, axis=2
    )
    J = lam_k * hyp.sf2 * np.exp(logn)
    if post.n > 0:
        U = lam_k * solve_triangular(post.L, z.T, lower=True)  # (n, K)
        J = J - U.T @ U
    var = float(vp.w @ J @ vp.w)
    if var < 0:
        VARIANCE_CLAMP_COUNT += 1
        var = 0.0
    return var


@dataclass
class QuadratureResult:
    """Expected log joint marginalized over GP hyperparameter draws."""

    g_mean: float
    g_var: float
    grad: np.ndarray | None
    between_sample_var: float


def quadrature(vp, samples, grad=False, variance=True):
    """Mean/variance of E_q[f] over a hyperparameter sample set.

    ``variance=False`` skips the per-sample variance terms; the optimizer
    only follows the mean.
    """
    means, variances, grads = [], [], []
    for post in samples:
        m, g, _ = expected_log_joint(vp, post, grad=grad)
        if variance:
            variances.append(expected_log_joint_variance(vp, post))
        means.append(m)
        if grad:
            grads.append(g)
    means = np.asarray(means)
    variances = np.asarray(variances) if variance else np.zeros_like(means)
    between = float(np.var(means, ddof=1)) if means.size > 1 else 0.0
    return QuadratureResult(
        g_mean=float(means.mean()),
        g_var=float(variances.mean() + between),
        grad=np.mean(grads, axis=0) if grad else None,
        between_sample_var=between,
    )


@dataclass
class ELBOEstimate:
    """ELBO readout: quadrature moments plus a Monte Carlo entropy."""

    elbo_mean: float
    elbo_sd: float
    entropy: float
    g_mean: float
    g_var: float
    between_sample_var: float = 0.0

    def elcbo(self, beta_lcb):
        """Evidence lower confidence bound at risk sensitivity ``beta_lcb``."""
        return self.elbo_mean - beta_lcb * self.elbo_sd


def elbo(vp, samples, n_entropy, rng):
    """ELBO estimate at ``vp``: marginalized quadrature plus MC entropy.

    The reported uncertainty covers only the quadrature variance; entropy
    noise is controlled by the caller through ``n_entropy``.
    """
    quad = quadrature(vp, samples, grad=False)
    H, _ = entropy_mc(vp, n_entropy, rng, grad=False)
    return ELBOEstimate(
        elbo_mean=quad.g_mean + H,
        elbo_sd=math.sqrt(max(quad.g_var, 0.0)),
        entropy=H,
        g_mean=quad.g_mean,
        g_var=quad.g_var,
        between_sample_var=quad.between_sample_var,
    )
