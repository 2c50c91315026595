"""Synthetic inference problems with ground truth, metrics, and seeded runs.

Three target families exercise distinct difficulties: ``lumpy`` (a mildly
multimodal 12-component Gaussian mixture), ``student`` (heavy tails,
per-dimension Student-t), and ``cigar`` (a randomly rotated Gaussian with
a 100:1 axis ratio). Each problem pairs a likelihood with a broad Gaussian
prior and carries its analytic (or quadrature) log marginal likelihood and
posterior moments. :func:`execute_run` makes one seeded inference run and
records its per-iteration metrics; :func:`summarize_records` takes the
JSON records of a sweep (``vbmc run``) to medians with bootstrap intervals.
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad as scipy_quad

from .core import N_INIT, VBMC, ProblemSpec, VBMCOptions
from .gp import student_t_log_kernel, student_t_log_norm
from .transforms import ParameterTransform
from .variational import _logsumexp_rows, gaussian_skl

__all__ = [
    "SyntheticProblem",
    "make_lumpy",
    "make_student",
    "make_cigar",
    "make_problem",
    "metric_lml_error",
    "metric_gskl",
    "verify_ground_truth",
    "run_budget",
    "BenchmarkRecord",
    "execute_run",
    "summarize_records",
]

PRIOR_SD_MULTIPLIER = 3.5
FAMILIES = ("lumpy", "student", "cigar")
N_GRID = 220  # grid points per axis of the D = 2 ground-truth check
N_BOOT = 1000  # bootstrap resamples of each summary interval
CI_LEVEL = 0.95  # coverage of the summary intervals


@dataclass
class SyntheticProblem:
    """A synthetic target with analytic ground truth."""

    family: str
    D: int
    seed: int
    prior_mean: np.ndarray
    prior_sd: np.ndarray
    lml_true: float
    post_mean: np.ndarray
    post_cov: np.ndarray
    params: dict = field(repr=False, default_factory=dict)

    @property
    def problem_id(self):
        return f"{self.family}_D{self.D}_s{self.seed}"

    def log_joint(self, x):
        return float(self.log_joint_rows(np.asarray(x, dtype=float)[None, :])[0])

    def log_likelihood_rows(self, X):
        raise NotImplementedError

    def log_joint_rows(self, X):
        """Log joint of each row of ``X`` (N, D): the one formula behind
        ``log_joint`` (the engine's target) and :func:`verify_ground_truth`."""
        X = np.asarray(X, dtype=float)
        z = (X - self.prior_mean) / self.prior_sd
        # a stacked matmul rounds each row as the one-point BLAS dot does
        zz = (z[:, None, :] @ z[:, :, None])[:, 0, 0]
        log_prior = (
            -0.5 * zz
            - np.sum(np.log(self.prior_sd))
            - 0.5 * self.D * math.log(2 * math.pi)
        )
        return self.log_likelihood_rows(X) + log_prior

    def problem_spec(self, x0=None):
        """The problem for the engine: unbounded, plausible box at one prior SD around the mean."""
        D = self.D
        transform = ParameterTransform(
            np.full(D, -np.inf), np.full(D, np.inf),
            self.prior_mean - self.prior_sd, self.prior_mean + self.prior_sd,
        )
        return ProblemSpec(log_joint=self.log_joint, transform=transform, x0=x0)

    def draw_x0(self, rng):
        return rng.uniform(
            self.prior_mean - self.prior_sd, self.prior_mean + self.prior_sd
        )

    def to_json(self):
        return {
            "family": self.family,
            "D": self.D,
            "seed": self.seed,
            "prior_mean": self.prior_mean.tolist(),
            "prior_sd": self.prior_sd.tolist(),
            "lml_true": self.lml_true,
            "post_mean": self.post_mean.tolist(),
            "post_cov": self.post_cov.tolist(),
        }


class LumpyProblem(SyntheticProblem):
    def log_likelihood_rows(self, X):
        mu, sd, w = self.params["mu"], self.params["sd"], self.params["w"]
        z = (X[:, None, :] - mu) / sd
        logs = (
            np.log(w)
            - 0.5 * np.sum(z * z, axis=2)
            - np.sum(np.log(sd), axis=1)
            - 0.5 * self.D * math.log(2 * math.pi)
        )
        return _logsumexp_rows(logs)


class StudentProblem(SyntheticProblem):
    def log_likelihood_rows(self, X):
        kernel = student_t_log_kernel(X, self.params["dof"])
        return np.sum(self.params["log_norm"] - kernel, axis=1)


class CigarProblem(SyntheticProblem):
    def log_likelihood_rows(self, X):
        # stacked matmuls round each row as the one-point gemv and dot do
        sol = (self.params["chol_inv"] @ X[:, :, None])[:, :, 0]
        sol_sq = (sol[:, None, :] @ sol[:, :, None])[:, 0, 0]
        return -0.5 * sol_sq - self.params["log_norm"]


def _diag_gaussian_product_posterior(w, mu, sd, prior_mean, prior_sd):
    """Posterior mixture for a diagonal-Gaussian mixture likelihood."""
    var_post = 1.0 / (1.0 / sd**2 + 1.0 / prior_sd**2)  # (J, D)
    m_post = var_post * (mu / sd**2 + prior_mean / prior_sd**2)
    # log of each component's evidence: N(prior_mean; mu_j, sd_j^2 + prior_sd^2)
    tot = sd**2 + prior_sd**2
    log_ev = (
        np.log(w)
        - 0.5 * np.sum((mu - prior_mean) ** 2 / tot, axis=1)
        - 0.5 * np.sum(np.log(tot), axis=1)
        - 0.5 * mu.shape[1] * math.log(2 * math.pi)
    )
    m = log_ev.max()
    lml = float(m + math.log(np.sum(np.exp(log_ev - m))))
    w_post = np.exp(log_ev - log_ev.max())
    w_post /= w_post.sum()
    mean = w_post @ m_post
    diff = m_post - mean
    cov = np.einsum("j,ji,jk->ik", w_post, diff, diff) + np.diag(
        w_post @ var_post
    )
    return lml, mean, cov


def make_lumpy(D, seed):
    """Mixture of 12 diagonal Gaussians in the unit hypercube."""
    rng = np.random.default_rng(seed)
    J = 12
    mu = rng.uniform(0.0, 1.0, size=(J, D))
    sd = rng.uniform(0.2, 0.6, size=(J, D))
    w = rng.dirichlet(np.ones(J))
    prior_mean = np.full(D, 0.5)
    # per-dimension SD of the mixture itself
    mix_mean = w @ mu
    mix_var = w @ (sd**2 + mu**2) - mix_mean**2
    prior_sd = PRIOR_SD_MULTIPLIER * np.sqrt(mix_var)
    lml, mean, cov = _diag_gaussian_product_posterior(w, mu, sd, prior_mean, prior_sd)
    return LumpyProblem(
        family="lumpy", D=D, seed=seed,
        prior_mean=prior_mean, prior_sd=prior_sd,
        lml_true=lml, post_mean=mean, post_cov=cov,
        params={"mu": mu, "sd": sd, "w": w},
    )


def make_student(D, seed=0):
    """Independent Student-t coordinates with heavy, varying tails."""
    dof = np.linspace(2.5, 2.0 + D / 2.0, D)
    sd_t = np.sqrt(dof / (dof - 2.0))
    prior_mean = np.zeros(D)
    prior_sd = PRIOR_SD_MULTIPLIER * sd_t
    log_norm = np.array([student_t_log_norm(v) for v in dof])
    log_z = np.empty(D)
    var = np.empty(D)
    for i in range(D):
        def joint(x, i=i):
            log_t = log_norm[i] - student_t_log_kernel(x, dof[i])
            return math.exp(log_t - 0.5 * (x / prior_sd[i]) ** 2) / (
                prior_sd[i] * math.sqrt(2 * math.pi)
            )

        z, err_z = scipy_quad(joint, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-10)
        m2, err_m = scipy_quad(
            lambda x, i=i: x * x * joint(x, i), -np.inf, np.inf,
            epsabs=1e-12, epsrel=1e-10,
        )
        if err_z > 1e-8 * z or not np.isfinite(z) or z <= 0:
            raise RuntimeError(f"ground-truth quadrature failed on dimension {i}")
        log_z[i] = math.log(z)
        var[i] = m2 / z
    return StudentProblem(
        family="student", D=D, seed=seed,
        prior_mean=prior_mean, prior_sd=prior_sd,
        lml_true=float(np.sum(log_z)),
        post_mean=np.zeros(D),
        post_cov=np.diag(var),
        params={"dof": dof, "log_norm": log_norm},
    )


def make_cigar(D, seed):
    """Rotated Gaussian likelihood with one axis 100 times longer."""
    if D < 2:
        raise ValueError("the cigar family needs D >= 2")
    rng = np.random.default_rng(seed)
    axis_sd = np.ones(D)
    axis_sd[0] = 100.0
    Q, R = np.linalg.qr(rng.standard_normal((D, D)))
    Q *= np.sign(np.diag(R))
    cov_lik = (Q * axis_sd**2) @ Q.T
    prior_mean = np.zeros(D)
    prior_sd = PRIOR_SD_MULTIPLIER * np.sqrt(np.diag(cov_lik))
    cov_prior = np.diag(prior_sd**2)
    cov_sum = cov_lik + cov_prior
    sign, logdet = np.linalg.slogdet(cov_sum)
    lml = -0.5 * (D * math.log(2 * math.pi) + logdet)
    prec = np.linalg.inv(cov_lik) + np.linalg.inv(cov_prior)
    post_cov = np.linalg.inv(prec)
    L = np.linalg.cholesky(cov_lik)
    chol_inv = np.linalg.inv(L)
    log_norm = 0.5 * D * math.log(2 * math.pi) + np.sum(np.log(np.diag(L)))
    return CigarProblem(
        family="cigar", D=D, seed=seed,
        prior_mean=prior_mean, prior_sd=prior_sd,
        lml_true=float(lml),
        post_mean=np.zeros(D),
        post_cov=post_cov,
        params={"cov_lik": cov_lik, "chol_inv": chol_inv, "log_norm": log_norm},
    )


def make_problem(family, D, seed=0):
    if D < 1:
        raise ValueError(f"D={D}; a problem needs D >= 1")
    if seed < 0:
        raise ValueError(f"seed={seed}; a problem needs seed >= 0")
    if family == "lumpy":
        return make_lumpy(D, seed)
    if family == "student":
        return make_student(D, seed)
    if family == "cigar":
        return make_cigar(D, seed)
    raise ValueError(f"unknown family {family!r}; pick from {FAMILIES}")


# -- metrics -----------------------------------------------------------


def metric_lml_error(elbo_mean, problem):
    """Absolute error of the evidence estimate ``elbo_mean``."""
    return abs(elbo_mean - problem.lml_true)


def metric_gskl(mean, cov, problem):
    """Symmetrized KL between moment-matched Gaussians, original space.

    ``mean`` and ``cov`` are the posterior moments in original coordinates.
    This is ``gaussian_skl`` of them against the true moments, so it is the
    mean of the two directed KLs (half the sum convention). A singular
    covariance gives ``inf``.
    """
    return float(gaussian_skl(mean, cov, problem.post_mean, problem.post_cov))


GROUND_TRUTH_TOL = 0.05  # largest |lml - lml_true| a verify_ground_truth report may show
VERIFY_CHUNK_ROWS = 4096  # rows per log_joint_rows call: bounds the (rows, 12, D) lumpy array


def _log_joint_chunked(problem, X):
    return np.concatenate(
        [problem.log_joint_rows(X[i : i + VERIFY_CHUNK_ROWS])
         for i in range(0, X.shape[0], VERIFY_CHUNK_ROWS)]
    )


def verify_ground_truth(problem, rng=None, n_is=200_000):
    """Cross-check stored ground truth with an independent estimator.

    Uses dense grid quadrature (``N_GRID`` points per axis) for D = 2 and
    self-normalized importance sampling from an inflated moment-matched
    Gaussian for D > 2. Returns a report dict including the effective
    sample size for the IS branch.
    """
    D = problem.D
    if D == 2:
        half = 8.0 * np.sqrt(np.diag(problem.post_cov))
        axes = [
            np.linspace(problem.post_mean[d] - half[d], problem.post_mean[d] + half[d], N_GRID)
            for d in range(2)
        ]
        xx, yy = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        logj = _log_joint_chunked(problem, pts).reshape(N_GRID, N_GRID)
        from numpy import trapezoid

        pj = np.exp(logj - logj.max())
        mass = trapezoid(trapezoid(pj, axes[1], axis=1), axes[0])
        lml = math.log(mass) + logj.max()
        mean = np.array(
            [
                trapezoid(trapezoid(pj * (xx if d == 0 else yy), axes[1], axis=1), axes[0])
                for d in range(2)
            ]
        ) / mass
        return {"method": "grid", "lml": lml, "mean": mean, "ess": float(N_GRID**2)}
    rng = np.random.default_rng(0) if rng is None else rng
    cov = 1.5 * problem.post_cov
    L = np.linalg.cholesky(cov)
    xs = problem.post_mean + rng.standard_normal((n_is, D)) @ L.T
    sol = np.linalg.solve(L, (xs - problem.post_mean).T)
    log_prop = (
        -0.5 * np.sum(sol * sol, axis=0)
        - np.sum(np.log(np.diag(L)))
        - 0.5 * D * math.log(2 * math.pi)
    )
    logj = _log_joint_chunked(problem, xs)
    lw = logj - log_prop
    m = lw.max()
    w = np.exp(lw - m)
    lml = m + math.log(w.mean())
    ess = float(w.sum() ** 2 / np.sum(w**2))
    mean = (w[:, None] * xs).sum(axis=0) / w.sum()
    return {"method": "importance", "lml": float(lml), "mean": mean, "ess": ess}


# -- runs --------------------------------------------------------------


@dataclass
class BenchmarkRecord:
    """One (problem, seed) inference run with per-iteration checkpoints."""

    problem_id: str
    family: str
    D: int
    problem_seed: int
    run_seed: int
    acq: str
    budget: int
    checkpoints: list  # (fevals, lml_err, gskl) per iteration
    wall_time: float
    final: dict

    def to_json(self):
        return {
            "problem_id": self.problem_id,
            "family": self.family,
            "D": self.D,
            "problem_seed": self.problem_seed,
            "run_seed": self.run_seed,
            "acq": self.acq,
            "budget": self.budget,
            "checkpoints": [list(c) for c in self.checkpoints],
            "wall_time": self.wall_time,
            "final": self.final,
        }

    def content_equal(self, other):
        """Equality ignoring wall time (never reproducible)."""
        a, b = self.to_json(), other.to_json()
        a.pop("wall_time")
        b.pop("wall_time")
        return a == b


def run_budget(D, budget_multiplier):
    """Evaluations of one run at dimension ``D``: ``budget_multiplier`` x 50 (D + 2).

    Raises ``ValueError`` when the multiplier is not finite, or when the
    budget is fewer than the ``N_INIT`` evaluations of the initial design.
    """
    if not math.isfinite(budget_multiplier):
        raise ValueError(f"budget multiplier {budget_multiplier} is not finite")
    budget = int(round(budget_multiplier * 50 * (D + 2)))
    if budget < N_INIT:
        raise ValueError(
            f"budget {budget} at D={D} is below the {N_INIT} evaluations "
            "of the initial design"
        )
    return budget


def execute_run(family, D, problem_seed, run_seed, acq, budget_multiplier, meta_seed):
    """One seeded benchmark run; fully deterministic given its arguments."""
    problem = make_problem(family, D, problem_seed)
    fam_idx = FAMILIES.index(family)
    ss = np.random.SeedSequence((meta_seed, fam_idx, D, problem_seed, run_seed))
    x0_child, run_child = ss.spawn(2)
    x0 = problem.draw_x0(np.random.default_rng(x0_child))
    spec = problem.problem_spec(x0=x0)
    budget = run_budget(D, budget_multiplier)
    options = VBMCOptions(max_fevals=budget, acq=acq)
    engine = VBMC(spec, options)
    t0 = time.perf_counter()
    result = engine.run(seed=run_child)
    wall = time.perf_counter() - t0
    transform = engine.transform
    checkpoints = [
        (
            r.fevals,
            metric_lml_error(r.elbo_mean, problem),
            metric_gskl(*transform.moments_to_original(*r.moments), problem),
        )
        for r in result.history
    ]
    final = {
        "elbo_mean": result.elbo_mean,
        "elbo_sd": result.elbo_sd,
        "lml_err": metric_lml_error(result.elbo_mean, problem),
        "gskl": metric_gskl(*result.moments_original(), problem),
        "stable": result.stable,
        "iterations": result.iterations,
        "fevals": result.fevals,
        "K": result.vp.K,
    }
    return BenchmarkRecord(
        problem_id=problem.problem_id,
        family=family,
        D=D,
        problem_seed=problem_seed,
        run_seed=run_seed,
        acq=acq,
        budget=budget,
        checkpoints=checkpoints,
        wall_time=wall,
        final=final,
    )


def _bootstrap_ci(values, rng):
    """``CI_LEVEL`` interval of the median over ``N_BOOT`` bootstrap resamples."""
    values = np.asarray(values, dtype=float)
    medians = np.median(
        rng.choice(values, size=(N_BOOT, values.size), replace=True), axis=1
    )
    alpha = 0.5 * (1.0 - CI_LEVEL)
    return (
        float(np.quantile(medians, alpha)),
        float(np.quantile(medians, 1.0 - alpha)),
    )


def summarize_records(records, boot_seed=0):
    """Per-problem medians of the final metrics with bootstrap 95% CIs, and
    the shares of runs that end stable and whose final ELBO SD is exactly 0.

    ``records`` are JSON records: ``BenchmarkRecord.to_json`` dicts, as a
    records file holds them."""
    groups = {}
    for rec in records:
        groups.setdefault((rec["family"], rec["D"]), []).append(rec)
    rows = []
    rng = np.random.default_rng(boot_seed)
    for (family, D), recs in sorted(groups.items()):
        lml = [r["final"]["lml_err"] for r in recs]
        gskl = [r["final"]["gskl"] for r in recs]
        lml_ci = _bootstrap_ci(lml, rng)
        gskl_ci = _bootstrap_ci(gskl, rng)
        rows.append(
            {
                "family": family,
                "D": D,
                "runs": len(recs),
                "lml_err_median": float(np.median(lml)),
                "lml_err_ci_lo": lml_ci[0],
                "lml_err_ci_hi": lml_ci[1],
                "gskl_median": float(np.median(gskl)),
                "gskl_ci_lo": gskl_ci[0],
                "gskl_ci_hi": gskl_ci[1],
                "stable_share": float(np.mean([r["final"]["stable"] for r in recs])),
                "sd_zero_share": float(np.mean([r["final"]["elbo_sd"] == 0.0 for r in recs])),
            }
        )
    return rows


def write_summary_csv(rows, path):
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def write_long_csv(records, path):
    """Plot-ready long format: one row per (run, checkpoint) of the JSON ``records``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "D", "seed", "evals", "lml_err", "gskl"])
        for rec in records:
            for evals, lml_err, gskl in rec["checkpoints"]:
                writer.writerow(
                    [rec["family"], rec["D"], rec["run_seed"], evals, lml_err, gskl]
                )
