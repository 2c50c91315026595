"""Outside-in tracing of the vbmc package.

The tracer replaces a module attribute with a timing wrapper, so a span is
recorded whenever a caller looks the name up. The package itself is not
edited. Because ``vbmc.core`` imports with ``from .gp import ...``, each
function is wrapped at the name its caller resolves (for example
``vbmc.acquisition.marginal_predict``, not ``vbmc.gp.marginal_predict``).

Spans are aggregated per name as they close: call count, inclusive time,
self time (inclusive time minus the time of spans opened inside it),
exceptions raised, and one work count chosen per layer. Only one thread
runs inside the package, so one stack of open spans suffices.
"""

import contextlib
import functools
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from vbmc import acquisition, core, gp, optim, quadrature


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    work: float = 0.0

    def us_per_call(self):
        return 1e6 * self.total_s / self.calls if self.calls else 0.0


class Tracer:
    """Aggregated spans of wrapped callables; patches are undone by ``restore``."""

    def __init__(self):
        self.stats = {}
        self._open = []  # child-time accumulator of each open span
        self._patches = []

    def span(self, name):
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped in a span; ``work(args, result)`` adds to its count."""
        stats = self.span(name)
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
            if work is not None:
                stats.work += work(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, work=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, work))
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_s_sum(self):
        return sum(s.self_s for s in self.stats.values())


def _chol_flops(args, result):
    # computed, not measured: one Cholesky of the n x n Gram matrix
    return args[0].n ** 3 / 3.0


def _rows(args, result):
    return np.atleast_2d(args[1]).shape[0]


def _draws(args, result):
    return args[2]


def _failed_eval(args, result):
    return 0 if result[1] else 1


# (owner, attribute the caller resolves, span name, work count)
VBMC_LAYERS = (
    (core, "sample_hyperparameters", "gp.sample_hyperparameters", None),
    (core, "optimize_hyperparameters", "gp.optimize_hyperparameters", None),
    (core, "optimize_acquisition", "acquisition.optimize_acquisition", None),
    (core, "select_starting_points", "optim.select_starting_points", None),
    (core, "optimize_elbo", "optim.optimize_elbo", None),
    (core, "elbo", "quadrature.elbo", None),
    (core.VBMC, "_evaluate", "core.evaluate", _failed_eval),
    (gp, "log_marginal_likelihood", "gp.log_marginal_likelihood", _chol_flops),
    (gp, "log_marginal_likelihood_grad", "gp.log_marginal_likelihood_grad", None),
    (gp, "slice_sample", "slice_sampler.slice_sample", _draws),
    (gp.HyperparamSampleSet, "with_point", "gp.with_point", None),
    (acquisition, "marginal_predict", "gp.marginal_predict", _rows),
    (acquisition, "cma_maximize", "cmaes.cma_maximize", None),
    (optim, "quadrature", "quadrature.quadrature", None),
    (optim, "elbo", "quadrature.elbo", None),
    (optim, "entropy_mc", "variational.entropy_mc", None),
    (optim, "adam_step", "optim.adam_step", None),
    (quadrature, "quadrature", "quadrature.quadrature", None),
    (quadrature, "entropy_mc", "variational.entropy_mc_readout", None),
)


@contextlib.contextmanager
def traced_vbmc(tracer):
    """Wrap every layer in ``VBMC_LAYERS`` for the duration of the block."""
    try:
        for owner, attr, name, work in VBMC_LAYERS:
            tracer.patch(owner, attr, name, work)
        yield tracer
    finally:
        tracer.restore()
