"""Gaussian-mixture variational family with shared diagonal covariance.

A posterior with K components over D dimensions has weights ``w``, means
``mu``, per-component scales ``sigma`` and shared per-dimension scales
``lam``; component k is N(mu_k, sigma_k^2 diag(lam^2)). The unbounded
parameter vector used by the optimizer stacks all means, log sigma,
log lambda, and weight logits eta (softmax gauge).
:meth:`VariationalPosterior.layout` alone says where each block sits, and
:meth:`VariationalPosterior.vector_grad` alone maps a gradient into it.
"""

import math
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .gp import _sq_dist_to, _sq_norms

__all__ = [
    "VariationalPosterior",
    "entropy_mc",
    "gaussian_skl",
]

_LOG_2PI = math.log(2.0 * math.pi)
# entries of one (rows, K) block of ``logpdf``: 512 KB, so a block's few
# temporaries stay in cache. At K = 20 the densities of one value-only
# entropy block (65,520 rows) took 23 ms this way and 34 ms in one pass
# (2-core Xeon, 1 BLAS thread).
LOGPDF_BLOCK = 2**16


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

    @cached_property
    def _density_terms(self):
        """What :meth:`log_components` reads of the mixture, computed on its first call.

        ``(mu_s, mu_s2, sigma2, log_norm, log_w)``: the means in lambda units
        and their squared norms, sigma_k^2, each component's log normalizer
        base - D log sigma_k, and log w_k (-inf for a zero weight). A
        posterior is never changed after it is built.
        """
        mu_s = self.mu / self.lam
        base = -0.5 * self.D * _LOG_2PI - np.sum(np.log(self.lam))
        with np.errstate(divide="ignore"):
            log_w = np.log(self.w)
        return mu_s, _sq_norms(mu_s), self.sigma**2, base - self.D * np.log(self.sigma), log_w

    def log_components(self, X):
        """Squared distances and weighted component log densities at rows of ``X``.

        Returns ``(d2, logwG)``, both (m, K): ``d2`` is each row's squared
        distance to each mean in lambda units (``gp.sq_dist``), and
        ``logwG`` is log w_k + log N_k(x). These are the only two (m, K)
        arrays made: ``logwG`` is built in one buffer, with the operations
        and the order of base - D log sigma_k - (d2 / 2) / sigma_k^2 +
        log w_k. The terms that do not depend on ``X`` are
        :attr:`_density_terms`.
        """
        X = np.atleast_2d(X)
        mu_s, mu_s2, sigma2, log_norm, log_w = self._density_terms
        a = X / self.lam
        d2 = _sq_dist_to(None, a, _sq_norms(a), mu_s, mu_s2)
        logwG = np.multiply(d2, 0.5)
        np.divide(logwG, sigma2, out=logwG)
        np.subtract(log_norm, logwG, out=logwG)
        np.add(logwG, log_w, out=logwG)
        return d2, logwG

    def logpdf(self, X):
        """Mixture log density at rows of ``X`` (max-shifted log-sum-exp).

        Rows go in blocks of ``LOGPDF_BLOCK // K``. Every operation acts row
        by row, so a row's value does not depend on the block it is in. The
        mixture's own terms are :attr:`_density_terms`, computed once.
        """
        X2 = np.atleast_2d(X)
        out = np.empty(X2.shape[0])
        rows = max(1, LOGPDF_BLOCK // self.K)
        for start in range(0, X2.shape[0], rows):
            block = slice(start, start + rows)
            out[block] = _logsumexp_rows(self.log_components(X2[block])[1])
        return out if np.ndim(X) > 1 else float(out[0])

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

    @staticmethod
    def layout(K, D):
        """Where each block of the parameter vector sits: the layout, written only here.

        ``mu`` (the K x D means, row by row), ``log_sigma`` (K), ``log_lam``
        (D) and ``eta`` (K weight logits, softmax gauge), in that order.
        """
        a, b, c = K * D, K * (D + 1), K * (D + 1) + D
        return {"mu": slice(0, a), "log_sigma": slice(a, b), "log_lam": slice(b, c),
                "eta": slice(c, c + K)}

    def _stack(self, mu, log_sigma, log_lam, eta):
        """Vectors in :meth:`layout` order from four blocks with the same leading axes."""
        sl = self.layout(self.K, self.D)
        lead = np.shape(eta)[:-1]
        theta = np.empty(lead + (sl["eta"].stop,))
        theta[..., sl["mu"]] = np.reshape(mu, lead + (-1,))
        theta[..., sl["log_sigma"]] = log_sigma
        theta[..., sl["log_lam"]] = log_lam
        theta[..., sl["eta"]] = eta
        return theta

    def to_vector(self):
        """Flat unbounded parameters in :meth:`layout` order."""
        return self._stack(self.mu, np.log(self.sigma), np.log(self.lam), np.log(self.w))

    def vector_grad(self, g_mu, g_sigma, g_lam, g_w):
        """Gradient in vector space from gradients with respect to mu, sigma, lam and w.

        The four take shapes (..., K, D), (..., K), (..., D) and (..., K)
        with the same leading axes, one per gradient. The chain rule is
        written only here: x sigma for log sigma, x lam for log lam, and the
        softmax projection w (g_w - g_w . w) for eta.
        """
        w = self.w
        return self._stack(
            g_mu, g_sigma * self.sigma, g_lam * self.lam, w * (g_w - (g_w @ w)[..., None])
        )

    @classmethod
    def from_vector(cls, theta, K, D):
        theta = np.asarray(theta, dtype=float)
        sl = cls.layout(K, D)
        if theta.size != sl["eta"].stop:
            raise ValueError(f"expected {sl['eta'].stop} parameters, got {theta.size}")
        mu = theta[sl["mu"]].reshape(K, D)
        sigma = np.exp(theta[sl["log_sigma"]])
        lam = np.exp(theta[sl["log_lam"]])
        eta = theta[sl["eta"]]
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


# lanes at or above this cut take NumPy's fast exp lane: exp(-707.0) is about
# 4 DBL_MIN, and the fast lane holds down to 2 DBL_MIN (x = -707.70)
_EXP_FAST_MIN = -707.0


def _exp_inplace(x):
    """``np.exp(x, out=x)`` for a C-contiguous ``x``, with 0.0 below ``_EXP_FAST_MIN``; returns ``x``.

    NumPy's AVX-512 ``exp`` leaves its fast lane for a whole 8-lane vector
    when one lane's result is below 2 DBL_MIN (x < -707.70): the result
    underflows to 0, is subnormal, or is a normal number that close to the
    bottom. Such a vector costs about 15 times as much as a fast one, and
    one of subnormal results about 150 times. Log-sum-exp blocks of a
    well-separated mixture hold many such lanes: in a 65,520-entry readout
    block of cigar-d2, 21% of the lanes underflow and 1.5% are subnormal,
    and ``np.exp`` took about 1 ms, against 60 us for the same block with
    only fast lanes (2-core Xeon).

    So every lane below the cut is raised to the cut, one contiguous
    ``np.exp`` runs on the fast lane only, and the result is multiplied by
    the 0/1 mask of the lanes at or above the cut. A lane below the cut,
    -inf included, ends as exactly 0.0, where ``np.exp`` gives at most
    4 DBL_MIN; a lane at or above it, NaN and +inf included, keeps
    ``np.exp``'s bits. This holds because NumPy's ``exp`` gives a lane the
    same bits whichever vector it sits in; ``tests/test_variational.py``
    pins that premise. A row of a max-shifted log-sum-exp sums to at least
    1, so zeroing lanes that small leaves its bits, which the tests pin too.
    Below 1024 lanes the plain call is cheaper than these steps (about
    10 us), so it is used.
    """
    flat = x.reshape(-1)
    if flat.size < 1024:
        return np.exp(x, out=x)
    keep = flat >= _EXP_FAST_MIN
    if keep.all():
        return np.exp(x, out=x)
    np.maximum(x, _EXP_FAST_MIN, out=x)
    np.exp(x, out=x)
    np.multiply(flat, keep, out=flat)
    return x


def _row_max(a):
    """``a.max(axis=1)`` of a (rows, K) array; a loop of ``np.maximum`` over
    the K columns when there are at least 16 rows per column.

    NumPy's reduction along short rows costs about 55 ns per row (K = 2 to
    20), and each column of the loop about 0.7 us, so on a 65k-entry block
    the loop is 3 (K = 20) to 40 (K = 2) times faster, and on a few rows
    slower. A
    maximum does not depend on the order of comparison, so both give the
    same number, NaN included. Only on a tie of +0.0 and -0.0 may the sign
    of the zero differ, which :func:`_logsumexp_rows` cannot see: x - (+0)
    and x - (-0) have the same ``exp``, and the shift is added to a log of
    at least +0.
    """
    if a.shape[0] < 16 * a.shape[1]:
        return a.max(axis=1)
    out = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        np.maximum(out, a[:, k], out=out)
    return out


def _logsumexp_rows(a):
    """Max-shifted log-sum-exp of each row of ``a``; ``a`` is left unchanged.

    The one log-sum-exp of the package: the mixture density (readout,
    pruning, start scoring, acquisition), the entropy's Adam steps and
    lumpy's likelihood. The shifted copy is the one temporary of a's size,
    and ``exp`` runs on it in place. Two NumPy slow paths are kept off,
    both exactly: the row max is :func:`_row_max`, and ``exp`` is
    :func:`_exp_inplace`, which zeroes underflowing lanes. The row sum
    stays ``np.sum(axis=1)``, so its order of addition is NumPy's.
    """
    shift = _row_max(a)
    shifted = np.subtract(a, shift[:, None], order="C")
    _exp_inplace(shifted)
    return shift + np.log(np.sum(shifted, axis=1))


def entropy_mc(vp, n_samples, rng, grad=True):
    """Monte Carlo entropy estimate, optionally with its exact gradient.

    Draws ``n_samples`` standard-normal vectors per component and averages
    the mixture log density at the reparameterized points, in one pass over
    blocks of draws that consume the generator's stream in order: blocks of
    ``65536 // K`` draws for a value-only call, so large counts need little
    memory, with the densities from :meth:`VariationalPosterior.logpdf`;
    and one block for a gradient call, which reuses its draws and
    densities. A value-only block builds its points in the buffer of its
    draws; a gradient block keeps its draws. The gradient is the derivative of this estimate holding
    the draws fixed (common random numbers), so it matches finite
    differences of the estimator itself; it is an unbiased estimate of the
    entropy gradient. It is returned in vector space, packed by
    :meth:`VariationalPosterior.vector_grad`, which holds the layout.

    A large share of the time goes to exponentials of the (draws x K)
    log-density block: its log-sum-exp and, for a gradient call, the
    responsibilities. On a well-separated mixture many of them underflow
    (about 18% of the log-sum-exp lanes over a cigar-d2 run), which sends
    NumPy's ``exp`` off its fast path, so both go through
    :func:`_exp_inplace`, which zeroes the lanes below 4 DBL_MIN.
    """
    K, D = vp.K, vp.D
    w, mu, sigma, lam = vp.w, vp.mu, vp.sigma, vp.lam

    block = n_samples if grad else max(1, 65536 // K)
    total = 0.0
    done = 0
    while done < n_samples:
        Ns = min(block, n_samples - done)
        P = Ns * K
        eps = rng.standard_normal((Ns, K, D))
        # mu + sigma_k (lam * eps), built in eps itself when only the value is needed
        xi = np.multiply(eps, lam, out=None if grad else eps)
        np.multiply(xi, sigma[:, None], out=xi)
        np.add(xi, mu, out=xi)
        xif = xi.reshape(P, D)
        if grad:
            # squared distances in lambda units and weighted log densities, (P, K)
            M0, logwG = vp.log_components(xif)
            logq = _logsumexp_rows(logwG)  # (P,)
        else:
            logq = vp.logpdf(xif)
        total += float(np.sum(logq.reshape(Ns, K) @ w))
        done += Ns
    H = -total / n_samples
    if not grad:
        return H, None

    epsf = eps.reshape(P, D)
    # responsibilities, rows sum to 1; many lanes underflow
    r = _exp_inplace(np.subtract(logwG, logq[:, None]))
    wk = np.tile(w, Ns)  # weight of the component each row was drawn from

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

    return H, vp.vector_grad(d_mu, d_sigma, d_lam, d_w)


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

    Returns ``inf``, and raises nothing, when either covariance is singular
    (its Cholesky factorization fails), so every caller reads a failed
    comparison the same way.
    """
    mean_a = np.atleast_1d(mean_a)
    mean_b = np.atleast_1d(mean_b)
    D = mean_a.size
    try:
        La = np.linalg.cholesky(np.atleast_2d(cov_a))
        Lb = np.linalg.cholesky(np.atleast_2d(cov_b))
    except np.linalg.LinAlgError:
        return np.inf
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
