"""Coordinate-wise slice sampling with step-out (Neal, 2003)."""

import numpy as np

__all__ = ["SliceSamplingError", "slice_sample"]

MAX_STEPS_OUT = 100  # bracket widenings per side and coordinate update at most
MAX_SHRINK = 100  # bracket shrinks per coordinate update before giving up


class SliceSamplingError(RuntimeError):
    """Raised when the shrink loop collapses without acceptance.

    Carries the last valid sample in ``last_sample``.
    """

    def __init__(self, message, last_sample):
        super().__init__(message)
        self.last_sample = np.asarray(last_sample)


def _update_coord(log_density, x, i, logp_x, width, rng):
    """One slice-sampling update of coordinate ``i``; returns (x, logp)."""
    log_y = logp_x - rng.exponential()

    xi = x[i]
    left = xi - width * rng.uniform()
    right = left + width

    def logp_at(v):
        x[i] = v
        return log_density(x)

    steps = 0
    while logp_at(left) > log_y and steps < MAX_STEPS_OUT:
        left -= width
        steps += 1
    steps = 0
    while logp_at(right) > log_y and steps < MAX_STEPS_OUT:
        right += width
        steps += 1

    for _ in range(MAX_SHRINK):
        prop = left + (right - left) * rng.uniform()
        logp = logp_at(prop)
        if logp > log_y:
            return x, logp
        if prop < xi:
            left = prop
        else:
            right = prop
    x[i] = xi
    raise SliceSamplingError(
        f"slice shrinkage failed on coordinate {i}", x.copy()
    )


def slice_sample(log_density, x0, n_samples, widths, rng, burn_sweeps, thin_sweeps):
    """Draw ``n_samples`` from ``log_density`` starting at ``x0``.

    Runs a single chain of full coordinate sweeps: ``burn_sweeps`` sweeps
    are discarded, then one sample is retained every ``thin_sweeps``
    sweeps. ``widths`` sets the per-coordinate initial bracket size.
    ``log_density`` may return ``-inf`` to encode hard bounds.
    """
    x = np.array(x0, dtype=float)
    widths = np.broadcast_to(np.asarray(widths, dtype=float), x.shape)
    d = x.size

    logp = log_density(x)
    if not np.isfinite(logp):
        raise ValueError("slice sampling requires a finite starting density")

    def sweep(x, logp):
        for i in range(d):
            x, logp = _update_coord(log_density, x, i, logp, widths[i], rng)
        return x, logp

    for _ in range(burn_sweeps):
        x, logp = sweep(x, logp)

    samples = np.empty((n_samples, d))
    for s in range(n_samples):
        for _ in range(thin_sweeps):
            x, logp = sweep(x, logp)
        samples[s] = x
    return samples
