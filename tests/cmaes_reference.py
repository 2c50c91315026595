"""The CMA-ES loop of ``vbmc.cmaes.cma_maximize`` as it was written before its
per-generation constants were hoisted, kept as the reference that the
faster loop must match bit for bit: the same ``(x, f)`` and the same
generator state after the search.
"""

import math

import numpy as np

from vbmc.cmaes import FTOL, SIGMA0


def reference_cma_maximize(f_batch, x0, lb, ub, rng, max_gen, patience):
    """Maximize ``f_batch`` over the box ``[lb, ub]`` starting near ``x0``.

    ``f_batch`` maps an (m, D) array to m values (may contain ``-inf``).
    Returns ``(x_best, f_best)``. The search stops after ``max_gen``
    generations, or after ``patience`` generations without a gain above
    ``FTOL``. The population size is the standard 4 + floor(3 ln n).
    """
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    span = ub - lb
    n = lb.size

    def to_x(u):
        return lb + u * span

    u_mean = np.clip((np.asarray(x0, dtype=float) - lb) / span, 0.0, 1.0)
    sigma = SIGMA0

    lam = 4 + int(3 * math.log(max(n, 2)))
    mu = lam // 2
    weights = math.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights /= weights.sum()
    mu_eff = 1.0 / np.sum(weights**2)

    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))

    p_sigma = np.zeros(n)
    p_c = np.zeros(n)
    C = np.eye(n)

    x_best = to_x(u_mean)
    f_best = float(f_batch(x_best[None, :])[0])
    last_improved = 0

    for gen in range(max_gen):
        # sampling basis; C stays small (D <= ~10), eigen every generation
        C = 0.5 * (C + C.T)
        evals, B = np.linalg.eigh(C)
        d = np.sqrt(np.maximum(evals, 1e-20))

        z = rng.standard_normal((lam, n))
        y = z * d @ B.T
        u = np.clip(u_mean + sigma * y, 0.0, 1.0)
        y = (u - u_mean) / sigma  # repair after projection

        f = f_batch(to_x(u))
        f = np.where(np.isfinite(f), f, -np.inf)
        order = np.argsort(f)[::-1]
        if f[order[0]] > f_best + FTOL:
            last_improved = gen
        if f[order[0]] > f_best:
            f_best = float(f[order[0]])
            x_best = to_x(u[order[0]])

        sel = order[:mu]
        y_w = weights @ y[sel]
        u_mean = np.clip(u_mean + sigma * y_w, 0.0, 1.0)

        inv_sqrt_y = B @ ((B.T @ y_w) / d)
        p_sigma = (1.0 - c_sigma) * p_sigma + math.sqrt(
            c_sigma * (2.0 - c_sigma) * mu_eff
        ) * inv_sqrt_y
        norm_ps = np.linalg.norm(p_sigma)
        h_sigma = norm_ps / math.sqrt(
            1.0 - (1.0 - c_sigma) ** (2 * (gen + 1))
        ) < (1.4 + 2.0 / (n + 1.0)) * chi_n
        p_c = (1.0 - c_c) * p_c + (
            math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w if h_sigma else 0.0
        )

        rank_mu = (y[sel] * weights[:, None]).T @ y[sel]
        C = (
            (1.0 - c_1 - c_mu) * C
            + c_1 * (np.outer(p_c, p_c) + (0.0 if h_sigma else c_c * (2.0 - c_c)) * C)
            + c_mu * rank_mu
        )
        sigma *= math.exp((c_sigma / d_sigma) * (norm_ps / chi_n - 1.0))

        if gen - last_improved >= patience or sigma * d.max() < 1e-11:
            break

    return x_best, f_best
