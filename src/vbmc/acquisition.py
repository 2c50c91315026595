"""Acquisition functions for active sampling and their global search.

Two uncertainty-sampling rules over the hyperparameter-marginalized GP:
plain (variance times squared mixture density) and prospective (variance
times density times exponentiated predictive mean). Values are regularized
to avoid points whose predictive variance is already tiny, which would
ill-condition the Gram matrix, and all scoring happens in log space.
"""

from dataclasses import dataclass

import numpy as np

from .cmaes import cma_maximize
from .gp import marginal_predict

__all__ = [
    "AcquisitionError",
    "AcquisitionContext",
    "log_acquisition",
    "optimize_acquisition",
]

V_REG = 1e-4


class AcquisitionError(RuntimeError):
    """The whole search space scored zero (fully regularized)."""


@dataclass
class AcquisitionContext:
    """Immutable inputs for one point selection."""

    samples: object  # HyperparamSampleSet
    vp: object  # VariationalPosterior
    search_lb: np.ndarray
    search_ub: np.ndarray
    kind: str = "pro"

    def __post_init__(self):
        if self.kind not in ("us", "pro"):
            raise ValueError(f"unknown acquisition kind {self.kind!r}")
        self.search_lb = np.asarray(self.search_lb, dtype=float)
        self.search_ub = np.asarray(self.search_ub, dtype=float)


def search_box(train, scale=3.0):
    """Bounding box of the training inputs, expanded on each side.

    The expansion is in internal plausible-range units (one unit per
    dimension after the input transform).
    """
    lo = train.X.min(axis=0) - scale
    hi = train.X.max(axis=0) + scale
    return lo, hi


def log_acquisition(ctx, X):
    """Log of the regularized acquisition at rows of ``X``.

    ``us`` scores V(x) q(x)^2 and ``pro`` scores V(x) q(x) e^{fbar(x)}.
    Below the variance threshold ``V_REG`` the value is damped by the
    factor exp{-(V_REG/V - 1)}, which is continuous at the threshold and
    sends the score to zero (log -inf) as V goes to zero.
    """
    X = np.atleast_2d(X)
    fbar, var = marginal_predict(ctx.samples, X)
    logq = ctx.vp.logpdf(X)
    with np.errstate(divide="ignore"):
        log_v = np.where(var > 0, np.log(np.maximum(var, 1e-300)), -np.inf)
    if ctx.kind == "us":
        out = log_v + 2.0 * logq
    else:
        out = log_v + logq + fbar
    # regularization: exp{-(V_reg/V - 1)} below the variance threshold
    small = var < V_REG
    if np.any(small):
        with np.errstate(divide="ignore"):
            penalty = np.where(var > 0, V_REG / np.maximum(var, 1e-300) - 1.0, np.inf)
        out = np.where(small, out - penalty, out)
    return out


def optimize_acquisition(ctx, rng, n_probes=1000, max_gen=200, patience=20):
    """Search the box for the acquisition maximizer.

    Seeds with uniform probes plus the mixture means, then runs CMA-ES
    from the best seed with one restart from the runner-up (splitting the
    generation budget). The returned point is at least as good as every
    probe and is never within duplicate tolerance of a training input.
    """
    lb, ub = ctx.search_lb, ctx.search_ub
    probes = rng.uniform(lb, ub, size=(n_probes, lb.size))
    seeds = np.vstack([probes, np.clip(ctx.vp.mu, lb, ub)])
    values = log_acquisition(ctx, seeds)
    order = np.argsort(values)[::-1]

    if not np.isfinite(values[order[0]]):
        raise AcquisitionError("acquisition is zero everywhere in the search box")

    def f_batch(X):
        return log_acquisition(ctx, X)

    best_x = seeds[order[0]]
    best_val = values[order[0]]
    starts = [seeds[order[0]]]
    if len(order) > 1 and np.isfinite(values[order[1]]):
        starts.append(seeds[order[1]])
    for start in starts:
        x_cand, v_cand = cma_maximize(
            f_batch, start, lb, ub, rng,
            max_gen=max_gen // len(starts), patience=patience,
        )
        if v_cand > best_val:
            best_x, best_val = x_cand, v_cand

    train = ctx.samples.train
    if not train.is_duplicate(best_x):
        return best_x
    for idx in order:
        cand = seeds[idx]
        if np.isfinite(values[idx]) and not train.is_duplicate(cand):
            return cand
    raise AcquisitionError("all acquisition candidates duplicate training inputs")
