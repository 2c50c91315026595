"""Acquisition functions for active sampling and their global search.

Two uncertainty-sampling rules over the hyperparameter-marginalized GP:
plain (variance times squared mixture density) and prospective (variance
times density times exponentiated predictive mean). Values are regularized
to avoid points whose predictive variance is already tiny, which would
ill-condition the Gram matrix, and all scoring happens in log space.

The inputs of one point selection are passed directly: the GP posterior
``samples`` (a ``gp.HyperparamSampleSet``), the variational posterior
``vp``, the search box ``lb``/``ub`` from :func:`search_box`, and the rule
``kind``, one of ``ACQUISITION_KINDS``; ``core.VBMCOptions`` rejects any
other kind before a run starts.
"""

import numpy as np

from .cmaes import cma_maximize
from .gp import marginal_predict

__all__ = [
    "AcquisitionError",
    "log_acquisition",
    "optimize_acquisition",
]

V_REG = 1e-4
SEARCH_MARGIN = 3.0  # search-box expansion beyond the training inputs, per side
N_PROBES = 1000  # uniform probes that seed the search
CMA_MAX_GEN = 200  # CMA-ES generations per search, split between its starts
CMA_PATIENCE = 20  # CMA-ES generations without improvement before a start stops


class AcquisitionError(RuntimeError):
    """The whole search space scored zero (fully regularized)."""


ACQUISITION_KINDS = ("us", "pro")


def search_box(train):
    """Bounding box of the training inputs, expanded by ``SEARCH_MARGIN`` per side.

    The expansion is in internal plausible-range units (one unit per
    dimension after the input transform).
    """
    lo = train.X.min(axis=0) - SEARCH_MARGIN
    hi = train.X.max(axis=0) + SEARCH_MARGIN
    return lo, hi


def log_acquisition(samples, vp, X, kind):
    """Log of the regularized acquisition at rows of ``X``.

    ``us`` scores V(x) q(x)^2 and ``pro`` scores V(x) q(x) e^{fbar(x)}.
    Below the variance threshold ``V_REG`` the value is damped by the
    factor exp{-(V_REG/V - 1)}, which is continuous at the threshold and
    sends the score to zero (log -inf) as V goes to zero.
    """
    X = np.atleast_2d(X)
    fbar, var = marginal_predict(samples, X)
    logq = vp.logpdf(X)
    # the log and the quotient read max(V, 1e-300) > 0, so neither warns
    log_v = np.where(var > 0, np.log(np.maximum(var, 1e-300)), -np.inf)
    if kind == "us":
        out = log_v + 2.0 * logq
    else:
        out = log_v + logq + fbar
    # regularization: exp{-(V_reg/V - 1)} below the variance threshold
    small = var < V_REG
    if small.any():
        penalty = np.where(var > 0, V_REG / np.maximum(var, 1e-300) - 1.0, np.inf)
        out = np.where(small, out - penalty, out)
    return out


def optimize_acquisition(samples, vp, lb, ub, kind, rng):
    """Search the box ``[lb, ub]`` for the acquisition maximizer.

    Seeds with ``N_PROBES`` uniform probes plus the mixture means, then runs
    CMA-ES from the best seed with one restart from the runner-up (splitting
    the ``CMA_MAX_GEN`` generation budget). The returned point is at least
    as good as every probe and is never within duplicate tolerance of a
    training input.
    """
    probes = rng.uniform(lb, ub, size=(N_PROBES, lb.size))
    seeds = np.vstack([probes, np.clip(vp.mu, lb, ub)])
    values = log_acquisition(samples, vp, seeds, kind)
    order = np.argsort(values)[::-1]

    if not np.isfinite(values[order[0]]):
        raise AcquisitionError("acquisition is zero everywhere in the search box")

    def f_batch(X):
        return log_acquisition(samples, vp, X, kind)

    best_x = seeds[order[0]]
    best_val = values[order[0]]
    starts = [seeds[order[0]]]
    if len(order) > 1 and np.isfinite(values[order[1]]):
        starts.append(seeds[order[1]])
    for start in starts:
        x_cand, v_cand = cma_maximize(
            f_batch, start, lb, ub, rng,
            max_gen=CMA_MAX_GEN // len(starts), patience=CMA_PATIENCE,
        )
        if v_cand > best_val:
            best_x, best_val = x_cand, v_cand

    train = samples.train
    if not train.is_duplicate(best_x):
        return best_x
    for idx in order:
        cand = seeds[idx]
        if np.isfinite(values[idx]) and not train.is_duplicate(cand):
            return cand
    raise AcquisitionError("all acquisition candidates duplicate training inputs")
