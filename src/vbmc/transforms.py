"""Mappings between original (possibly bounded) and internal coordinates.

Inference runs in an unbounded internal space. Each coordinate is mapped
independently: unbounded coordinates are standardized with respect to the
plausible box, bounded coordinates go through a logit first and are then
standardized using the remapped plausible values. Log densities evaluated
in the original space must be corrected by the log Jacobian of the map.
"""

import numpy as np

__all__ = ["ParameterTransform"]

# Relative clipping of the unit-box coordinate inside the logit; densities
# at clipped points are unreliable (the map is no longer exactly invertible
# there).
_LOGIT_EPS = 1e-12


def _logit(z):
    return np.log(z) - np.log1p(-z)


def _sigmoid(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


class ParameterTransform:
    """Per-dimension map between original and internal coordinates.

    Parameters
    ----------
    lb, ub : array_like, shape (D,)
        Hard bounds in original coordinates. Use ``-inf``/``+inf`` for
        unbounded dimensions. Half-bounded dimensions are rejected.
    plb, pub : array_like, shape (D,)
        Plausible bounds in original coordinates, identifying a region of
        high posterior mass. Must satisfy ``lb < plb < pub < ub`` on
        bounded dimensions and ``plb < pub`` everywhere.

    Notes
    -----
    Unbounded dimensions map the plausible interval exactly onto
    ``[-0.5, 0.5]``; bounded dimensions do the same after the logit, using
    the logit images of ``plb``/``pub`` verbatim.
    """

    def __init__(self, lb, ub, plb, pub):
        self.lb = np.atleast_1d(np.asarray(lb, dtype=float))
        self.ub = np.atleast_1d(np.asarray(ub, dtype=float))
        self.plb = np.atleast_1d(np.asarray(plb, dtype=float))
        self.pub = np.atleast_1d(np.asarray(pub, dtype=float))
        if not (self.lb.shape == self.ub.shape == self.plb.shape == self.pub.shape):
            raise ValueError("lb, ub, plb, pub must have identical shapes")
        self.D = self.lb.size

        lb_fin = np.isfinite(self.lb)
        ub_fin = np.isfinite(self.ub)
        if np.any(lb_fin != ub_fin):
            bad = int(np.flatnonzero(lb_fin != ub_fin)[0])
            raise ValueError(
                f"dimension {bad} is half-bounded; only fully bounded or "
                "fully unbounded dimensions are supported"
            )
        self.bounded = lb_fin

        if not np.all(np.isfinite(self.plb) & np.isfinite(self.pub)):
            raise ValueError("plausible bounds must be finite")
        if np.any(self.plb >= self.pub):
            bad = int(np.flatnonzero(self.plb >= self.pub)[0])
            raise ValueError(f"plb < pub violated on dimension {bad}")
        if np.any(self.bounded & ((self.lb >= self.plb) | (self.pub >= self.ub))):
            bad = int(
                np.flatnonzero(
                    self.bounded & ((self.lb >= self.plb) | (self.pub >= self.ub))
                )[0]
            )
            raise ValueError(f"lb < plb < pub < ub violated on dimension {bad}")

        # Standardization constants: center and width of the plausible
        # interval, after the logit on bounded dimensions.
        t_plb = np.where(self.bounded, self._to_logit_space(self.plb), self.plb)
        t_pub = np.where(self.bounded, self._to_logit_space(self.pub), self.pub)
        self._center = 0.5 * (t_plb + t_pub)
        self._width = t_pub - t_plb

        self.internal_plb = np.full(self.D, -0.5)
        self.internal_pub = np.full(self.D, 0.5)

    def _to_logit_space(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (x - self.lb) / (self.ub - self.lb)
        z = np.clip(z, _LOGIT_EPS, 1.0 - _LOGIT_EPS)
        return _logit(z)

    def _check_domain(self, x):
        bad = self.bounded & ((x <= self.lb) | (x >= self.ub))
        if bad.ndim > 1:
            bad = np.any(bad, axis=0)
        if np.any(bad):
            dim = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"coordinate out of bounds on bounded dimension {dim}"
            )

    def to_internal(self, x_orig):
        """Map original coordinates to the internal space.

        Accepts a single point of shape ``(D,)`` or a batch ``(m, D)``.
        """
        x = np.asarray(x_orig, dtype=float)
        self._check_domain(x)
        t = np.where(self.bounded, self._to_logit_space(np.where(self.bounded, x, 0.5)), x)
        return (t - self._center) / self._width

    def to_original(self, x_internal):
        """Map internal coordinates back; inverse of :meth:`to_internal`.

        Bounded dimensions return values strictly inside ``(lb, ub)``: the
        sigmoid saturates in floating point, so outputs are nudged off the
        bounds by one ulp when necessary.
        """
        u = np.asarray(x_internal, dtype=float)
        t = u * self._width + self._center
        z = _sigmoid(t)
        with np.errstate(invalid="ignore"):
            x_bnd = self.lb + z * (self.ub - self.lb)
            if np.any(self.bounded):
                lo = np.nextafter(self.lb, self.ub)
                hi = np.nextafter(self.ub, self.lb)
                x_bnd = np.clip(x_bnd, lo, hi)
        return np.where(self.bounded, x_bnd, t)

    def moments_to_original(self, mean, cov):
        """Map an internal-space mean and covariance to original space.

        Exact for the affine map of unbounded dimensions; raises
        ``ValueError`` if any dimension is bounded, where the logit makes
        the original-space moments depend on more than these two.
        """
        if np.any(self.bounded):
            raise ValueError(
                "moments map exactly only when every dimension is unbounded"
            )
        mean = np.asarray(mean, dtype=float) * self._width + self._center
        cov = np.asarray(cov, dtype=float) * np.outer(self._width, self._width)
        return mean, cov

    def log_jacobian_terms(self, x_orig):
        """Per-dimension ``log g_i'(x_orig)`` of the forward map."""
        x = np.asarray(x_orig, dtype=float)
        self._check_domain(x)
        terms = np.broadcast_to(-np.log(self._width), x.shape).copy()
        if np.any(self.bounded):
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (x - self.lb) / (self.ub - self.lb)
            z = np.clip(z, _LOGIT_EPS, 1.0 - _LOGIT_EPS)
            bnd = terms - np.log(self.ub - self.lb) - np.log(z) - np.log1p(-z)
            terms = np.where(self.bounded, bnd, terms)
        return terms

    def log_jacobian(self, x_orig):
        """Total log Jacobian of the forward map at ``x_orig``.

        The internal-space log density equals the original-space log
        density minus this value.
        """
        return np.sum(self.log_jacobian_terms(x_orig), axis=-1)

    def to_config(self):
        """JSON-ready bound arrays; infinities encoded as ``None``."""
        enc = lambda v: [None if not np.isfinite(x) else float(x) for x in v]
        return {
            "lb": enc(self.lb),
            "ub": enc(self.ub),
            "plb": [float(x) for x in self.plb],
            "pub": [float(x) for x in self.pub],
        }

    @classmethod
    def from_config(cls, config):
        """Build from a config dict as produced by :meth:`to_config`.

        Infinite hard bounds may be encoded as ``None``, ``"inf"``/
        ``"-inf"`` strings, or IEEE infinities.
        """

        def dec(values, sign):
            return [sign * np.inf if v is None else float(v) for v in values]

        return cls(
            dec(config["lb"], -1.0),
            dec(config["ub"], +1.0),
            config["plb"],
            config["pub"],
        )
