"""Stochastic optimization of the mean ELBO over variational parameters.

Uses Adam with a time-decaying learning rate on the unbounded parameter
vector, whose layout :meth:`VariationalPosterior.layout` holds. The
quadrature part of the gradient is analytic; the entropy part is a Monte
Carlo estimate with fresh draws per step. :func:`adam_step` and
:func:`learning_rate` are pure functions: Adam's moments and step count are
locals of :func:`optimize_elbo`'s loop, which stops the run with a
``RuntimeError`` at the first non-finite value or gradient. Candidate
starting points are generated by jittering, rescaling, and reweighting the
current posterior (splitting components first when K grows).
"""

import math

import numpy as np

from .quadrature import elbo, quadrature
from .variational import VariationalPosterior, entropy_mc

__all__ = [
    "learning_rate",
    "adam_step",
    "split_component",
    "select_starting_points",
    "optimize_elbo",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = math.sqrt(np.finfo(float).eps)  # ~1.49e-8
ADAM_MAX_ITER = 5000  # Adam steps per optimization at most
ALPHA_MAX_WARMUP = 0.1  # starting learning rate during warm-up
ALPHA_MAX_MAIN = 0.01  # starting learning rate after warm-up
ALPHA_MIN = 0.001  # the learning rate decays from alpha_max towards this
TAU = 200.0  # decay time of the learning rate, in steps
N_BATCH = 20  # steps per window of the stopping checks
TOL_VALUE = 0.01  # windowed ELBO improvement below which a window stalls
TOL_PARAM = 0.001  # RMS parameter move per window below which Adam stops
JITTER_MU = 0.1  # candidate jitter of the means, in component SDs
JITTER_LOG_SIGMA = 0.2  # candidate jitter of the log scales
JITTER_ETA = 0.2  # candidate jitter of the log weights
SPLIT_JITTER = 0.5  # mean offset of a split-off component, in parent SDs
N_ENTROPY = 100  # entropy draws per Adam step and per starting candidate
N_ENTROPY_READOUT = 2**15  # entropy draws of the final ELBO estimate


def learning_rate(t, alpha_max):
    """Decaying step size: ALPHA_MIN + (alpha_max - ALPHA_MIN) e^{-t/TAU}."""
    return ALPHA_MIN + (alpha_max - ALPHA_MIN) * math.exp(-t / TAU)


def adam_step(theta, grad, m, v, t, alpha_max):
    """Bias-corrected Adam descent step ``t`` (counted from 1); returns (theta, m, v)."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    theta = theta - learning_rate(t, alpha_max) * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return theta, m, v


def _neg_elbo_and_grad(theta, K, D, samples, rng, freeze_weights):
    """Negative mean ELBO and gradient at ``theta`` (vector space)."""
    vp = VariationalPosterior.from_vector(theta, K, D)
    quad = quadrature(vp, samples, grad=True, variance=False)
    H, gH = entropy_mc(vp, N_ENTROPY, rng, grad=True)
    value = quad.g_mean + H
    grad = quad.grad + gH
    if freeze_weights:
        grad[VariationalPosterior.layout(K, D)["eta"]] = 0.0
    return -value, -grad


def split_component(vp, rng):
    """Add one component by splitting a weight-proportional choice.

    The child copies the parent's scale, jitters the mean by
    ``SPLIT_JITTER * sigma_k * lam``, and splits the parent's weight in half.
    """
    k = int(rng.choice(vp.K, p=vp.w))
    mu_child = vp.mu[k] + SPLIT_JITTER * vp.sigma[k] * vp.lam * rng.standard_normal(vp.D)
    w = np.append(vp.w, vp.w[k] / 2.0)
    w[k] /= 2.0
    return VariationalPosterior(
        w / w.sum(),
        np.vstack([vp.mu, mu_child]),
        np.append(vp.sigma, vp.sigma[k]),
        vp.lam,
    )


def _jittered(vp, rng, freeze_weights):
    mu = vp.mu + JITTER_MU * vp.sigma[:, None] * vp.lam * rng.standard_normal(vp.mu.shape)
    sigma = vp.sigma * np.exp(JITTER_LOG_SIGMA * rng.standard_normal(vp.K))
    if freeze_weights:
        w = vp.w
    else:
        eta = np.log(vp.w) + JITTER_ETA * rng.standard_normal(vp.K)
        w = np.exp(eta - eta.max())
        w = w / w.sum()
    return VariationalPosterior(w, mu, sigma, vp.lam)


def select_starting_points(vp, K_target, n_fast, samples, rng, warmup=False):
    """Pick the best of ``n_fast * K_target`` candidate posteriors.

    The unjittered current posterior (grown to ``K_target`` by splitting
    if needed) is always among the candidates, so the selected start is
    never worse than it under the evaluation noise. During warm-up the
    candidates keep the current weights.
    """
    base = vp
    while base.K < K_target:
        base = split_component(base, rng)

    candidates = [base]
    for _ in range(max(0, n_fast * K_target - 1)):
        candidates.append(_jittered(base, rng, warmup))

    best, best_val = None, -np.inf
    for cand in candidates:
        quad = quadrature(cand, samples, grad=False, variance=False)
        H, _ = entropy_mc(cand, N_ENTROPY, rng, grad=False)
        val = quad.g_mean + H
        if val > best_val:
            best, best_val = cand, val
    return best


def optimize_elbo(vp0, samples, rng, warmup=False):
    """Run Adam on the negative mean ELBO from ``vp0``.

    Stops when the windowed objective value or the parameter vector
    stabilizes (or at ``ADAM_MAX_ITER``), then re-estimates the ELBO with a
    large fresh entropy sample. During warm-up the weights stay frozen and
    the learning rate starts at ``ALPHA_MAX_WARMUP`` instead of
    ``ALPHA_MAX_MAIN``. Raises ``RuntimeError`` at the first step whose
    value or gradient is not finite.
    """
    K, D = vp0.K, vp0.D
    theta = vp0.to_vector()
    alpha_max = ALPHA_MAX_WARMUP if warmup else ALPHA_MAX_MAIN
    m = v = np.zeros(theta.size)

    values = []
    theta_boundary = theta  # the parameters at the last window boundary
    stalls = 0
    for it in range(ADAM_MAX_ITER):
        value, grad = _neg_elbo_and_grad(theta, K, D, samples, rng, warmup)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            raise RuntimeError(
                f"ELBO optimization produced non-finite values at step {it} (K={K}, D={D})"
            )
        theta, m, v = adam_step(theta, grad, m, v, it + 1, alpha_max)
        values.append(-value)
        if len(values) % N_BATCH:
            continue

        # check on disjoint windows; per-step checks over-trigger on noise.
        # The value test is one-sided (improvement below tolerance) and must
        # hold on two consecutive windows, so an entropy-noise dip while the
        # objective is still climbing rarely stops the run early.
        if len(values) >= 2 * N_BATCH:
            recent = np.mean(values[-N_BATCH:])
            previous = np.mean(values[-2 * N_BATCH : -N_BATCH])
            stalls = stalls + 1 if recent - previous < TOL_VALUE else 0
            moved = math.sqrt(np.mean((theta - theta_boundary) ** 2))
            if stalls >= 2 or moved < TOL_PARAM:
                break
        theta_boundary = theta

    vp = VariationalPosterior.from_vector(theta, K, D)
    est = elbo(vp, samples, N_ENTROPY_READOUT, rng)
    return vp, est
