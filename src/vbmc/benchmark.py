"""Synthetic inference problems with ground truth, metrics, and the runner.

Three target families exercise distinct difficulties: ``lumpy`` (a mildly
multimodal 12-component Gaussian mixture), ``student`` (heavy tails,
per-dimension Student-t), and ``cigar`` (a randomly rotated Gaussian with
a 100:1 axis ratio). Each problem pairs a likelihood with a broad Gaussian
prior and carries its analytic (or quadrature) log marginal likelihood and
posterior moments. The runner executes seeded inference sweeps, records
per-iteration metrics, and summarizes medians with bootstrap intervals.
"""

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad as scipy_quad
from scipy.stats import t as student_t

from .core import VBMC, ProblemSpec, VBMCOptions
from .variational import gaussian_skl

__all__ = [
    "SyntheticProblem",
    "make_lumpy",
    "make_student",
    "make_cigar",
    "make_problem",
    "metric_lml_error",
    "metric_gskl",
    "verify_ground_truth",
    "RunConfig",
    "BenchmarkRecord",
    "run_benchmark",
    "summarize_records",
]

PRIOR_SD_MULTIPLIER = 3.5
FAMILIES = ("lumpy", "student", "cigar")


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

    def log_likelihood(self, x):
        raise NotImplementedError

    def log_prior(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.prior_mean) / self.prior_sd
        return float(
            -0.5 * z @ z
            - np.sum(np.log(self.prior_sd))
            - 0.5 * self.D * math.log(2 * math.pi)
        )

    def log_joint(self, x):
        return self.log_likelihood(x) + self.log_prior(x)

    def problem_spec(self, x0=None):
        """Bounds metadata: plausible box at one prior SD around the mean."""
        D = self.D
        return ProblemSpec(
            log_joint=self.log_joint,
            lb=np.full(D, -np.inf),
            ub=np.full(D, np.inf),
            plb=self.prior_mean - self.prior_sd,
            pub=self.prior_mean + self.prior_sd,
            x0=x0,
            name=self.problem_id,
        )

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
    def log_likelihood(self, x):
        x = np.asarray(x, dtype=float)
        mu = self.params["mu"]
        sd = self.params["sd"]
        w = self.params["w"]
        z = (x[None, :] - mu) / sd
        logs = (
            np.log(w)
            - 0.5 * np.sum(z * z, axis=1)
            - np.sum(np.log(sd), axis=1)
            - 0.5 * self.D * math.log(2 * math.pi)
        )
        m = logs.max()
        return float(m + math.log(np.sum(np.exp(logs - m))))


class StudentProblem(SyntheticProblem):
    def log_likelihood(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(student_t.logpdf(x, df=self.params["dof"])))


class CigarProblem(SyntheticProblem):
    def log_likelihood(self, x):
        x = np.asarray(x, dtype=float)
        sol = self.params["chol_inv"] @ x
        return float(-0.5 * sol @ sol - self.params["log_norm"])


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
    log_z = np.empty(D)
    var = np.empty(D)
    for i in range(D):
        def joint(x, i=i):
            return student_t.pdf(x, df=dof[i]) * math.exp(
                -0.5 * (x / prior_sd[i]) ** 2
            ) / (prior_sd[i] * math.sqrt(2 * math.pi))

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
        params={"dof": dof},
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
    if family == "lumpy":
        return make_lumpy(D, seed)
    if family == "student":
        return make_student(D, seed)
    if family == "cigar":
        return make_cigar(D, seed)
    raise ValueError(f"unknown family {family!r}; pick from {FAMILIES}")


# -- metrics -----------------------------------------------------------


def metric_lml_error(result, problem):
    """Absolute error of the evidence estimate."""
    return abs(result.elbo_mean - problem.lml_true)


def metric_gskl(result, problem):
    """Symmetrized KL between moment-matched Gaussians, original space.

    This is ``gaussian_skl`` of the original-space moments, so it is the
    mean of the two directed KLs (half the sum convention).
    """
    mean, cov = result.moments_original()
    return float(gaussian_skl(mean, cov, problem.post_mean, problem.post_cov))


def _gskl_from_internal(moments, transform, problem):
    mean, cov = transform.moments_to_original(*moments)
    try:
        return float(gaussian_skl(mean, cov, problem.post_mean, problem.post_cov))
    except np.linalg.LinAlgError:
        return float("inf")


def verify_ground_truth(problem, rng=None, n_grid=220, n_is=200_000):
    """Cross-check stored ground truth with an independent estimator.

    Uses dense grid quadrature for D = 2 and self-normalized importance
    sampling from an inflated moment-matched Gaussian for D > 2. Returns a
    report dict including the effective sample size for the IS branch.
    """
    D = problem.D
    if D == 2:
        half = 8.0 * np.sqrt(np.diag(problem.post_cov))
        axes = [
            np.linspace(problem.post_mean[d] - half[d], problem.post_mean[d] + half[d], n_grid)
            for d in range(2)
        ]
        xx, yy = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        logj = np.array([problem.log_joint(p) for p in pts]).reshape(n_grid, n_grid)
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
        return {"method": "grid", "lml": lml, "mean": mean, "ess": float(n_grid**2)}
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
    logj = np.array([problem.log_joint(x) for x in xs])
    lw = logj - log_prop
    m = lw.max()
    w = np.exp(lw - m)
    lml = m + math.log(w.mean())
    ess = float(w.sum() ** 2 / np.sum(w**2))
    mean = (w[:, None] * xs).sum(axis=0) / w.sum()
    return {"method": "importance", "lml": float(lml), "mean": mean, "ess": ess}


# -- runner ------------------------------------------------------------


@dataclass
class RunConfig:
    """A benchmark sweep: problems x seeds under one algorithm config."""

    families: tuple = ("lumpy",)
    dims: tuple = (2,)
    seeds: tuple = tuple(range(20))
    acq: str = "pro"
    budget_multiplier: float = 1.0
    problem_seed: int = 0
    meta_seed: int = 0
    out: str = "records.jsonl"


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


def execute_run(family, D, problem_seed, run_seed, acq, budget_multiplier, meta_seed):
    """One seeded benchmark run; fully deterministic given its arguments."""
    problem = make_problem(family, D, problem_seed)
    fam_idx = FAMILIES.index(family)
    ss = np.random.SeedSequence((meta_seed, fam_idx, D, problem_seed, run_seed))
    x0_child, run_child = ss.spawn(2)
    x0 = problem.draw_x0(np.random.default_rng(x0_child))
    spec = problem.problem_spec(x0=x0)
    budget = int(round(budget_multiplier * 50 * (D + 2)))
    options = VBMCOptions(max_fevals=budget, acq=acq)
    engine = VBMC(spec, options)
    t0 = time.perf_counter()
    result = engine.run(seed=run_child)
    wall = time.perf_counter() - t0
    transform = engine.transform
    checkpoints = [
        (
            r.fevals,
            abs(r.elbo_mean - problem.lml_true),
            _gskl_from_internal(r.moments, transform, problem),
        )
        for r in result.history
    ]
    final = {
        "elbo_mean": result.elbo_mean,
        "elbo_sd": result.elbo_sd,
        "lml_err": metric_lml_error(result, problem),
        "gskl": metric_gskl(result, problem),
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


def _execute_run_tuple(args):
    return execute_run(*args)


def run_benchmark(config, progress=None):
    """Execute the sweep and append records to ``config.out`` (JSON lines).

    Ground truth is cross-checked once per problem before any run. Runs
    use ``VBMC_WORKERS`` processes (default 1). Records are written in
    deterministic task order regardless of worker count.
    """
    tasks = []
    for family in config.families:
        for D in config.dims:
            problem = make_problem(family, D, config.problem_seed)
            report = verify_ground_truth(problem)
            if abs(report["lml"] - problem.lml_true) > 0.05:
                raise RuntimeError(
                    f"ground-truth cross-check failed for {problem.problem_id}: "
                    f"{problem.lml_true:.4f} vs {report['lml']:.4f} "
                    f"({report['method']})"
                )
            for seed in config.seeds:
                tasks.append(
                    (family, D, config.problem_seed, seed, config.acq,
                     config.budget_multiplier, config.meta_seed)
                )

    workers = int(os.environ.get("VBMC_WORKERS") or 1)
    records = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rec in pool.map(_execute_run_tuple, tasks):
                records.append(rec)
                if progress:
                    progress(rec)
    else:
        for task in tasks:
            rec = _execute_run_tuple(task)
            records.append(rec)
            if progress:
                progress(rec)

    if config.out:
        with open(config.out, "a") as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_json()) + "\n")
    return records


def _bootstrap_ci(values, rng, n_boot=1000, level=0.95):
    values = np.asarray(values, dtype=float)
    medians = np.median(
        rng.choice(values, size=(n_boot, values.size), replace=True), axis=1
    )
    alpha = 0.5 * (1.0 - level)
    return (
        float(np.quantile(medians, alpha)),
        float(np.quantile(medians, 1.0 - alpha)),
    )


def summarize_records(records, boot_seed=0):
    """Per-problem medians of the final metrics with bootstrap 95% CIs."""
    groups = {}
    for rec in records:
        rec = rec.to_json() if isinstance(rec, BenchmarkRecord) else rec
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
    """Plot-ready long format: one row per (run, checkpoint)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "D", "seed", "evals", "lml_err", "gskl"])
        for rec in records:
            rec = rec.to_json() if isinstance(rec, BenchmarkRecord) else rec
            for evals, lml_err, gskl in rec["checkpoints"]:
                writer.writerow(
                    [rec["family"], rec["D"], rec["run_seed"], evals, lml_err, gskl]
                )
