"""Gaussian-mixture variational family with shared diagonal covariance.

A posterior with K components over D dimensions has weights ``w``, means
``mu``, per-component scales ``sigma`` and shared per-dimension scales
``lam``; component k is N(mu_k, sigma_k^2 diag(lam^2)). The unbounded
parameter vector used by the optimizer stacks all means, log sigma,
log lambda, and weight logits eta (softmax gauge).
"""

import math

import numpy as np
from scipy.linalg import solve_triangular

from .gp import sq_dist

__all__ = [
    "VariationalPosterior",
    "entropy_mc",
    "entropy_exact_single",
    "gaussian_skl",
]

_LOG_2PI = math.log(2.0 * math.pi)


class VariationalPosterior:
    """Mixture of K Gaussians with shared diagonal covariance."""

    def __init__(self, w, mu, sigma, lam):
        self.w = np.atleast_1d(np.asarray(w, dtype=float))
        self.mu = np.atleast_2d(np.asarray(mu, dtype=float))
        self.sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        self.lam = np.atleast_1d(np.asarray(lam, dtype=float))
        K, D = self.mu.shape
        if self.w.size != K or self.sigma.size != K or self.lam.size != D:
            raise ValueError("inconsistent mixture shapes")
        if abs(self.w.sum() - 1.0) > 1e-12 or np.any(self.w < 0):
            raise ValueError("weights must be nonnegative and sum to one")
        if np.any(self.sigma <= 0) or np.any(self.lam <= 0):
            raise ValueError("scales must be strictly positive")

    @property
    def K(self):
        return self.w.size

    @property
    def D(self):
        return self.mu.shape[1]

    @property
    def n_params(self):
        return self.K * (self.D + 2) + self.D

    def component_logpdf(self, X):
        """Log density of each component at rows of ``X``; shape (m, K)."""
        X = np.atleast_2d(X)
        d2 = sq_dist(X / self.lam, self.mu / self.lam)
        base = -0.5 * self.D * _LOG_2PI - np.sum(np.log(self.lam))
        return base - self.D * np.log(self.sigma)[None, :] - 0.5 * d2 / (
            self.sigma**2
        )[None, :]

    def logpdf(self, X):
        """Mixture log density at rows of ``X`` (max-shifted log-sum-exp)."""
        with np.errstate(divide="ignore"):
            comp = self.component_logpdf(X) + np.log(self.w)
        shift = comp.max(axis=1)
        out = shift + np.log(np.sum(np.exp(comp - shift[:, None]), axis=1))
        return out if np.ndim(X) > 1 else float(out[0])

    def pdf(self, X):
        return np.exp(self.logpdf(X))

    def sample(self, n, rng):
        """Draw ``n`` points: component by weight, then a Gaussian draw."""
        ks = rng.choice(self.K, size=n, p=self.w)
        eps = rng.standard_normal((n, self.D))
        return self.mu[ks] + self.sigma[ks, None] * (self.lam * eps)

    def moments(self):
        """Exact mean and covariance of the mixture."""
        mean = self.w @ self.mu
        diff = self.mu - mean
        cov = np.einsum("k,ki,kj->ij", self.w, diff, diff)
        cov += np.diag((self.w @ self.sigma**2) * self.lam**2)
        return mean, cov

    def to_vector(self):
        """Flat unbounded parameters: means, log sigma, log lambda, eta."""
        return np.concatenate(
            [self.mu.ravel(), np.log(self.sigma), np.log(self.lam), np.log(self.w)]
        )

    @classmethod
    def from_vector(cls, theta, K, D):
        theta = np.asarray(theta, dtype=float)
        if theta.size != K * (D + 2) + D:
            raise ValueError(
                f"expected {K * (D + 2) + D} parameters, got {theta.size}"
            )
        mu = theta[: K * D].reshape(K, D)
        sigma = np.exp(theta[K * D : K * D + K])
        lam = np.exp(theta[K * D + K : K * D + K + D])
        eta = theta[K * D + K + D :]
        w = np.exp(eta - eta.max())
        w /= w.sum()
        return cls(w, mu, sigma, lam)

    def without_component(self, k):
        """Drop component ``k`` and renormalize the remaining weights."""
        if self.K == 1:
            raise ValueError("cannot remove the only component")
        keep = np.arange(self.K) != k
        w = self.w[keep]
        return VariationalPosterior(w / w.sum(), self.mu[keep], self.sigma[keep], self.lam)

    def to_json(self):
        return {
            "K": int(self.K),
            "D": int(self.D),
            "w": self.w.tolist(),
            "mu": self.mu.ravel().tolist(),
            "sigma": self.sigma.tolist(),
            "lambda": self.lam.tolist(),
        }

    @classmethod
    def from_json(cls, data):
        K, D = int(data["K"]), int(data["D"])
        return cls(
            data["w"], np.asarray(data["mu"], dtype=float).reshape(K, D),
            data["sigma"], data["lambda"],
        )


def entropy_exact_single(vp):
    """Closed-form entropy of a single-Gaussian posterior (K = 1 only).

    Returns the entropy and its gradient in vector-space layout; used as a
    noise-free stand-in for the Monte Carlo estimator in tests.
    """
    if vp.K != 1:
        raise ValueError("closed form requires K = 1")
    D = vp.D
    H = 0.5 * D * (_LOG_2PI + 1.0) + D * math.log(vp.sigma[0]) + np.sum(np.log(vp.lam))
    grad = np.zeros(vp.n_params)
    grad[D] = D  # d/d log sigma
    grad[D + 1 : 2 * D + 1] = 1.0  # d/d log lambda
    return float(H), grad


def entropy_mc(vp, n_samples, rng, grad=True, eps=None):
    """Monte Carlo entropy estimate, optionally with its exact gradient.

    Draws ``n_samples`` standard-normal vectors per component and averages
    the mixture log density at the reparameterized points. The gradient is
    the derivative of this estimate holding the draws fixed (common random
    numbers), so it matches finite differences of the estimator itself; it
    is an unbiased estimate of the entropy gradient. Returned in
    vector-space layout (means, log sigma, log lambda, eta).
    """
    K, D = vp.K, vp.D
    w, mu, sigma, lam = vp.w, vp.mu, vp.sigma, vp.lam

    if not grad:
        # value only; chunked so large sample counts stay in cache
        total = 0.0
        block = max(1, 65536 // max(K, 1))
        done = 0
        while done < n_samples:
            b = min(block, n_samples - done)
            e = rng.standard_normal((b, K, D))
            xi = mu + sigma[:, None] * (lam * e)
            logq = vp.logpdf(xi.reshape(b * K, D)).reshape(b, K)
            total += float(np.sum(logq @ w))
            done += b
        return -total / n_samples, None

    if eps is None:
        eps = rng.standard_normal((n_samples, K, D))
    Ns = eps.shape[0]
    xi = mu + sigma[:, None] * (lam * eps)  # (Ns, K, D)
    P = Ns * K
    xif = xi.reshape(P, D)
    epsf = eps.reshape(P, D)

    # component log densities: squared distances in lambda units, (P, K)
    M0 = sq_dist(xif / lam, mu / lam)
    base = -0.5 * D * _LOG_2PI - np.sum(np.log(lam))
    logG = base - D * np.log(sigma)[None, :] - 0.5 * M0 / (sigma**2)[None, :]
    logwG = logG + np.log(w)
    shift = logwG.max(axis=1)
    logq = shift + np.log(np.sum(np.exp(logwG - shift[:, None]), axis=1))  # (P,)
    r = np.exp(logwG - logq[:, None])  # responsibilities, rows sum to 1

    wk = np.tile(w, Ns)  # weight of the component each row was drawn from
    H = -float(wk @ logq) / Ns

    inv_s2 = 1.0 / sigma**2
    Rs = r * inv_s2[None, :]  # r / sigma_l^2
    S1 = Rs.sum(axis=1)  # (P,)
    T1 = Rs @ mu  # (P, D)
    U1 = Rs @ (mu * mu)  # (P, D)

    # d log q / d xi at each sample point
    dlogq_dxi = -(xif * S1[:, None] - T1) / lam**2  # (P, D)

    Rw = r * wk[:, None]  # (P, K)
    c = Rw.sum(axis=0)  # (K,)
    A1 = Rw.T @ xif  # (K, D)

    # means: path term (sample k moves with mu_k) + score term
    path_mu = w[:, None] * dlogq_dxi.reshape(Ns, K, D).sum(axis=0)
    score_mu = (A1 - mu * c[:, None]) * inv_s2[:, None] / lam**2
    d_mu = -(path_mu + score_mu) / Ns

    # sigmas
    lam_eps = lam * epsf
    path_sig = w * np.sum(
        (lam_eps * dlogq_dxi).reshape(Ns, K, D).sum(axis=0), axis=1
    )
    score_sig = -D / sigma * c + (Rw * M0).sum(axis=0) / sigma**3
    d_sigma = -(path_sig + score_sig) / Ns

    # lambdas
    sig_k = np.tile(sigma, Ns)
    path_lam = np.sum((wk * sig_k)[:, None] * epsf * dlogq_dxi, axis=0)
    quad = xif**2 * S1[:, None] - 2.0 * xif * T1 + U1
    score_lam = -Ns / lam + (wk[:, None] * quad).sum(axis=0) / lam**3
    d_lam = -(path_lam + score_lam) / Ns

    # weights (exact derivative of the estimate; includes the log q term)
    LQ = logq.reshape(Ns, K).sum(axis=0)
    d_w = -(LQ + c / w) / Ns

    grad_vec = np.concatenate(
        [
            d_mu.ravel(),
            d_sigma * sigma,
            d_lam * lam,
            vp.w * (d_w - vp.w @ d_w),
        ]
    )
    return H, grad_vec


def gaussian_skl(mean_a, cov_a, mean_b, cov_b):
    """Symmetrized KL divergence between two multivariate normals.

    Returns ``(KL(a||b) + KL(b||a)) / 2``, the arithmetic mean of the two
    directed divergences, not their sum. For equal covariances this is
    ``delta' inv(Sigma) delta / 2`` with ``delta = mean_a - mean_b``.

    The paper calls the benchmark metric "Gaussianized symmetrized KL"
    without fixing, in its abstract, whether the two directions are
    averaged or added; the sum convention is exactly twice this value, so
    a gsKL compared across packages must use the same convention. The mean
    is kept because ``core.reliability_features`` divides this quantity by
    ``delta_kl_unit * sqrt(D)`` to get the stability feature rho_3, and the
    sum would change when runs stop and double every recorded ``gskl``.

    Raises ``numpy.linalg.LinAlgError`` if either covariance is singular.
    """
    mean_a = np.atleast_1d(mean_a)
    mean_b = np.atleast_1d(mean_b)
    cov_a = np.atleast_2d(cov_a)
    cov_b = np.atleast_2d(cov_b)
    D = mean_a.size
    La = np.linalg.cholesky(cov_a)
    Lb = np.linalg.cholesky(cov_b)
    logdet_a = 2.0 * np.sum(np.log(np.diag(La)))
    logdet_b = 2.0 * np.sum(np.log(np.diag(Lb)))

    def directed(m1, L1, logdet1, m2, L2, logdet2):
        W = solve_triangular(L2, L1, lower=True)
        v = solve_triangular(L2, m2 - m1, lower=True)
        return 0.5 * (np.sum(W * W) + v @ v - D + logdet2 - logdet1)

    return 0.5 * (
        directed(mean_a, La, logdet_a, mean_b, Lb, logdet_b)
        + directed(mean_b, Lb, logdet_b, mean_a, La, logdet_a)
    )
