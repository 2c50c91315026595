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

from .gp import _solve_lower
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


def _kernel_normalizer(samples):
    """Gaussian normalizer of each draw's kernel: (2 pi)^(D/2) prod(ell).

    The z entries are normalized Gaussian densities; the actual integral
    of a mixture component against the kernel carries this extra factor,
    since the kernel equals the normalizer times a Gaussian density.
    """
    D = samples.ell.shape[1]
    return (2.0 * math.pi) ** (0.5 * D) * np.prod(samples.ell, axis=1)


def z_matrix(vp, samples):
    """Cross integrals of each mixture component against each draw's kernel.

    Returns ``(z, t2)``: ``z`` (S, K, n) has entry (s, k, p) equal to the
    integral of component k's density times draw s's kernel at training
    point p, ``sf2 N(mu_k; x_p, sigma_k^2 Sigma + Sigma_ell)``, and ``t2``
    (S, K, D) is tau^2 = sigma_k^2 lam^2 + ell^2. The squared distances are
    expanded here rather than by ``gp.sq_dist`` because the metric
    ``tau_k^2`` differs per component, so no shared rescaling of the rows
    exists.
    """
    X = samples.train.X
    t2 = vp.sigma[:, None] ** 2 * vp.lam[None, :] ** 2 + samples.ell[:, None, :] ** 2
    A = vp.mu / t2
    M = (
        np.sum(vp.mu * A, axis=-1)[..., None]
        - 2.0 * A @ X.T
        + (1.0 / t2) @ (X * X).T
    )
    np.maximum(M, 0.0, out=M)
    log_norm = -0.5 * vp.D * _LOG_2PI - 0.5 * np.sum(np.log(t2), axis=-1)
    z = samples.sf2[:, None, None] * np.exp(log_norm[..., None] - 0.5 * M)
    return z, t2


def expected_log_joint(vp, samples, z, t2, grad=False):
    """Posterior mean of E_q[f] under each draw, from ``z_matrix`` output.

    Returns ``(means, grads, i_k)``: the (S,) means, their (S, P) gradients
    in vector space (or None), and the (S, K) per-component integrals. The
    gradients are packed by :meth:`VariationalPosterior.vector_grad`, which
    holds the layout.
    """
    w, mu, sigma, lam = vp.w, vp.mu, vp.sigma, vp.lam
    x_m, om2 = samples.x_m[:, None, :], samples.omega[:, None, :] ** 2
    z = _kernel_normalizer(samples)[:, None, None] * z
    # quadrature of the negative-quadratic mean against each component
    quad_m = mu**2 + sigma[:, None] ** 2 * lam[None, :] ** 2 - 2.0 * mu * x_m + x_m**2
    nu = -0.5 * np.sum(quad_m / om2, axis=-1)
    alpha = samples.alpha
    i_k = (z @ alpha[..., None])[..., 0] + samples.m0[:, None] + nu
    means = i_k @ w
    if not grad:
        return means, None, i_k

    X = samples.train.X
    v = z * alpha[:, None, :]
    v_sum = v.sum(axis=-1)  # (S, K)
    V1 = v @ X  # (S, K, D)
    V2 = v @ (X * X)  # (S, K, D)
    quad = mu**2 * v_sum[..., None] - 2.0 * mu * V1 + V2  # sum_p a_p z (mu - x)^2

    d_mu = (V1 - mu * v_sum[..., None]) / t2 - (mu - x_m) / om2
    lam2 = lam[None, :] ** 2
    d_sigma = sigma * (
        np.sum(lam2 * quad / t2**2, axis=-1)
        - v_sum * np.sum(lam2 / t2, axis=-1)
        - np.sum(lam2 / om2, axis=-1)
    )
    d_lam = lam[None, :] * (
        sigma[:, None] ** 2 * (quad / t2**2 - v_sum[..., None] / t2)
        - sigma[:, None] ** 2 / om2
    )

    grads = vp.vector_grad(
        w[:, None] * d_mu, w * d_sigma, np.sum(w[:, None] * d_lam, axis=-2), i_k
    )
    return means, grads, i_k


def expected_log_joint_variance(vp, samples, z):
    """Posterior variance of E_q[f] under each draw from ``z_matrix``'s ``z``
    (clamped at 0)."""
    global VARIANCE_CLAMP_COUNT
    lam_k = _kernel_normalizer(samples)
    # cross-component Gaussian overlap term
    s2sum = vp.sigma[:, None] ** 2 + vp.sigma[None, :] ** 2  # (K, K)
    rho2 = (
        samples.ell[:, None, None, :] ** 2
        + s2sum[:, :, None] * vp.lam[None, None, :] ** 2
    )  # (S, K, K, D)
    diff = vp.mu[:, None, :] - vp.mu[None, :, :]
    logn = -0.5 * vp.D * _LOG_2PI - 0.5 * np.sum(
        np.log(rho2) + diff**2 / rho2, axis=-1
    )
    J = (lam_k * samples.sf2)[:, None, None] * np.exp(logn)
    if not (np.isfinite(samples.L).all() and np.isfinite(z).all()):
        raise ValueError("array must not contain infs or NaNs")
    U = lam_k[:, None, None] * _solve_lower(samples.L, np.swapaxes(z, -1, -2))  # (S, n, K)
    J = J - np.swapaxes(U, -1, -2) @ U
    var = (vp.w @ J) @ vp.w
    if np.any(var < 0):
        VARIANCE_CLAMP_COUNT += int(np.sum(var < 0))
        var = np.maximum(var, 0.0)
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

    All draws go through one batched pass that builds ``z`` once for the
    mean, the gradient and the variance. ``variance=False`` skips the
    variance terms; the optimizer only follows the mean.
    """
    z, t2 = z_matrix(vp, samples)
    means, grads, _ = expected_log_joint(vp, samples, z, t2, grad=grad)
    variances = (
        expected_log_joint_variance(vp, samples, z) if variance else np.zeros_like(means)
    )
    between = float(np.var(means, ddof=1)) if means.size > 1 else 0.0
    return QuadratureResult(
        g_mean=float(means.mean()),
        g_var=float(variances.mean() + between),
        grad=grads.mean(axis=0) if grad else None,
        between_sample_var=between,
    )


@dataclass
class ELBOEstimate:
    """ELBO readout: quadrature moments plus a Monte Carlo entropy."""

    elbo_mean: float
    elbo_sd: float
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
        between_sample_var=quad.between_sample_var,
    )
