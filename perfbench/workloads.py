"""Workloads, correctness checks and metrics of the VBMC benchmark.

Imported by ``run.py`` only after the BLAS thread count is pinned and the
checkout's ``src`` directory is on ``sys.path``.
"""

import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy

from vbmc import benchmark as vb
from vbmc import gp, quadrature

import spans

ACQ = "pro"
PROBLEM_SEED = 0
META_SEED = 0
GROUND_TRUTH_TOL = 0.05  # the cross-check tolerance run_benchmark applies
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """One problem run at fixed seeds; ``budget_multiplier`` scales 50(D+2)."""

    name: str
    family: str
    D: int
    run_seeds: tuple
    budget_multiplier: float

    def budget(self):
        return int(round(self.budget_multiplier * 50 * (self.D + 2)))


# Why each workload exists is recorded in README.md. lumpy-d6 and cigar-d2
# stop at a share of the paper budget: their full runs (about 55 s and 60 s
# on a 2-core box) do not fit the time one benchmark run may take.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lumpy-d2", "lumpy", 2, (0, 1, 2), 1.0),
        Workload("lumpy-d6", "lumpy", 6, (0,), 0.1375),
        Workload("cigar-d2", "cigar", 2, (0,), 0.5),
    )
}


class SetupError(RuntimeError):
    """The ground-truth cross-check disagreed with the stored truth."""


@dataclass
class Outcome:
    """One ``execute_run`` call: its record, clamp counts and failure reasons."""

    run_seed: int
    record: vb.BenchmarkRecord | None
    gp_clamps: int = 0
    quad_clamps: int = 0
    reasons: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.reasons


def environment():
    """The settings that change wall time or results, as a JSON-ready dict."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "VBMC_WORKERS": os.environ.get("VBMC_WORKERS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
    }


def set_up(workload, tracer=None):
    """Build the problem and cross-check its ground truth ``SETUP_REPEATS`` times.

    Returns the median seconds of one set-up. Raises :class:`SetupError`
    when the independent estimate misses the stored evidence.
    """
    verify = vb.verify_ground_truth
    if tracer is not None:
        verify = tracer.wrap("benchmark.verify_ground_truth", verify)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        problem = vb.make_problem(workload.family, workload.D, PROBLEM_SEED)
        if tracer is not None:
            # verify_ground_truth looks log_joint up on the instance
            problem.log_joint = tracer.wrap("benchmark.log_joint", problem.log_joint)
        report = verify(problem)
        times.append(perf_counter() - t0)
        diff = abs(report["lml"] - problem.lml_true)
        if not diff <= GROUND_TRUTH_TOL:
            raise SetupError(
                f"{problem.problem_id}: stored lml {problem.lml_true:.4f}, "
                f"{report['method']} estimate {report['lml']:.4f}"
            )
    return statistics.median(times)


def check_record(record):
    """Reasons a finished run counts as failed (empty when it is correct)."""
    f = record.final
    reasons = []
    if not math.isfinite(f["elbo_mean"]):
        reasons.append("ELBO not finite")
    if not f["elbo_sd"] >= 0:
        reasons.append(f"elbo_sd {f['elbo_sd']} < 0")
    if f["fevals"] > record.budget:
        reasons.append(f"fevals {f['fevals']} > budget {record.budget}")
    if not f["lml_err"] < 1:
        reasons.append(f"lml_err {f['lml_err']} >= 1")
    if not f["gskl"] < 1:
        reasons.append(f"gskl {f['gskl']} >= 1")
    return reasons


def run_once(workload, run_seed):
    """One ``execute_run`` with the clamp counters read around it.

    The counters are module globals of ``vbmc.gp`` and ``vbmc.quadrature``;
    they are reset before the run so the counts belong to it.
    """
    gp.VARIANCE_CLAMP_COUNT = 0
    quadrature.VARIANCE_CLAMP_COUNT = 0
    try:
        record = vb.execute_run(
            workload.family, workload.D, PROBLEM_SEED, run_seed, ACQ,
            workload.budget_multiplier, META_SEED,
        )
    except Exception as err:  # a raising run is a failed run, not a crash
        return Outcome(run_seed, None, reasons=[f"raised {type(err).__name__}: {err}"])
    return Outcome(
        run_seed, record, gp.VARIANCE_CLAMP_COUNT, quadrature.VARIANCE_CLAMP_COUNT,
        check_record(record),
    )


def run_pass(workload, run_seeds, log, reference=None):
    """Run every seed once; runs that differ from ``reference`` fail."""
    outcomes = []
    for seed in run_seeds:
        out = run_once(workload, seed)
        ref = reference.get(seed) if reference else None
        if out.record and ref and ref.record and not out.record.content_equal(ref.record):
            out.reasons.append("record differs from the first run of this seed")
        log(describe(out))
        outcomes.append(out)
    return outcomes


def describe(out):
    if out.record is None:
        return f"run seed {out.run_seed}: FAILED {'; '.join(out.reasons)}"
    f = out.record.final
    status = "ok" if out.ok else "FAILED " + "; ".join(out.reasons)
    return (
        f"run {out.record.problem_id} seed {out.run_seed}: "
        f"{out.record.wall_time:.3f} s, {f['fevals']} fevals, "
        f"{f['iterations']} iterations, stable {f['stable']}, "
        f"lml_err {f['lml_err']:.6g}, gskl {f['gskl']:.6g}, "
        f"elbo_sd {f['elbo_sd']:.3g}, clamps {out.gp_clamps}/{out.quad_clamps}: {status}"
    )


def end_to_end_metrics(passes, setup_s):
    """The user-facing metrics over the correct runs of all passes."""
    good = [o for p in passes for o in p if o.ok]
    by_seed = {}
    for o in good:
        by_seed.setdefault(o.run_seed, []).append(o.record)
    firsts = [recs[0].final for recs in by_seed.values()]
    wall = sum(o.record.wall_time for o in good)
    fevals = sum(o.record.final["fevals"] for o in good)
    return {
        "run_s": (statistics.fmean(
            statistics.median(r.wall_time for r in recs) for recs in by_seed.values()
        ), "s"),
        "ms_per_feval": (1e3 * wall / fevals, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "lml_err": (statistics.median(f["lml_err"] for f in firsts), "nats"),
        "gskl": (statistics.median(f["gskl"] for f in firsts), "nats"),
        "fevals": (statistics.median(f["fevals"] for f in firsts), "count"),
    }


def layer_metrics(tracer, traced, untraced_run_s):
    """Per-layer metrics of one traced pass; sums over its runs unless noted."""
    s = tracer.span
    lml, pred = s("gp.log_marginal_likelihood"), s("gp.marginal_predict")
    quad, slice_ = s("quadrature.quadrature"), s("slice_sampler.slice_sample")
    acq = s("acquisition.optimize_acquisition")
    elbo_opt, evals = s("optim.optimize_elbo"), s("core.evaluate")
    finals = [o.record.final for o in traced]
    traced_run_s = statistics.fmean(o.record.wall_time for o in traced)
    traced_wall = sum(o.record.wall_time for o in traced)
    setup_self = s("benchmark.verify_ground_truth").self_s + s("benchmark.log_joint").self_s
    return {
        "gp.log_marginal_likelihood.s": (lml.total_s, "s"),
        "gp.log_marginal_likelihood.calls": (lml.calls, "count"),
        "gp.log_marginal_likelihood.us_per_call": (lml.us_per_call(), "us"),
        "gp.log_marginal_likelihood.chol_gflop": (lml.work / 1e9, "GFLOP_computed"),
        "slice_sampler.slice_sample.self_s": (slice_.self_s, "s"),
        "slice_sampler.evals_per_draw": (lml.calls / slice_.work if slice_.work else 0.0, "evals/draw"),
        "slice_sampler.failures": (slice_.errors, "count"),
        "gp.marginal_predict.s": (pred.total_s, "s"),
        "gp.marginal_predict.calls": (pred.calls, "count"),
        "gp.marginal_predict.rows": (pred.work, "count"),
        "gp.marginal_predict.us_per_call": (pred.us_per_call(), "us"),
        "quadrature.quadrature.s": (quad.total_s, "s"),
        "quadrature.quadrature.calls": (quad.calls, "count"),
        "quadrature.quadrature.us_per_call": (quad.us_per_call(), "us"),
        "cmaes.cma_maximize.self_s": (s("cmaes.cma_maximize").self_s, "s"),
        "acquisition.optimize_acquisition.s": (acq.total_s, "s"),
        "acquisition.rows_per_point": (pred.work / acq.calls if acq.calls else 0.0, "rows/point"),
        "acquisition.fallbacks": (acq.errors, "count"),
        "variational.entropy_mc.s": (s("variational.entropy_mc").total_s, "s"),
        "variational.entropy_mc_readout.s": (s("variational.entropy_mc_readout").total_s, "s"),
        "gp.optimize_hyperparameters.s": (s("gp.optimize_hyperparameters").total_s, "s"),
        "gp.log_marginal_likelihood_grad.s": (s("gp.log_marginal_likelihood_grad").total_s, "s"),
        "gp.log_marginal_likelihood_grad.calls": (s("gp.log_marginal_likelihood_grad").calls, "count"),
        "gp.with_point.s": (s("gp.with_point").total_s, "s"),
        "optim.optimize_elbo.s": (elbo_opt.total_s, "s"),
        "optim.optimize_elbo.calls": (elbo_opt.calls, "count"),
        "optim.select_starting_points.s": (s("optim.select_starting_points").total_s, "s"),
        "optim.adam_steps_per_call": (
            s("optim.adam_step").calls / elbo_opt.calls if elbo_opt.calls else 0.0, "steps/call"),
        "core.iterations": (sum(f["iterations"] for f in finals), "count"),
        "core.map_iterations": (s("gp.optimize_hyperparameters").calls, "count"),
        "core.stable": (sum(bool(f["stable"]) for f in finals), "count"),
        "core.final_K": (statistics.fmean(f["K"] for f in finals), "components"),
        "core.feval_s": (evals.total_s, "s"),
        "core.fevals_failed": (evals.work, "count"),
        "gp.variance_clamps": (sum(o.gp_clamps for o in traced), "count"),
        "quadrature.variance_clamps": (sum(o.quad_clamps for o in traced), "count"),
        "benchmark.verify_ground_truth.s": (
            s("benchmark.verify_ground_truth").total_s / SETUP_REPEATS, "s"),
        "benchmark.log_joint_calls": (s("benchmark.log_joint").calls / SETUP_REPEATS, "count"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead": (traced_run_s / untraced_run_s - 1.0, "share"),
        "trace.unattributed_s": (traced_wall - (tracer.self_s_sum() - setup_self), "s"),
    }


def measure(workload, run_seeds, seconds, trace, order_seed, import_s, log=print):
    """Set up and run one workload; returns (correct, attempted, failed, metrics).

    Untraced, whole passes over ``run_seeds`` repeat while the next pass is
    expected to end within ``seconds``; there is always one. Traced, one
    untraced pass is followed by one traced pass, which must give equal
    records.
    """
    seeds = list(run_seeds)
    random.Random(order_seed).shuffle(seeds)
    log(f"workload {workload.name}: {workload.family} D={workload.D}, run seeds "
        f"{seeds}, budget {workload.budget()} fevals, acq {ACQ}, problem seed "
        f"{PROBLEM_SEED}, meta seed {META_SEED}")
    tracer = spans.Tracer() if trace else None
    try:
        setup_s = import_s + set_up(workload, tracer)
    except SetupError as err:
        log(f"set-up FAILED: {err}")
        return False, len(seeds), len(seeds), None
    log(f"setup: {setup_s:.3f} s (import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups)")

    t_start = perf_counter()
    first = run_pass(workload, seeds, log)
    passes = [first]
    reference = {o.run_seed: o for o in first}
    if trace:
        with spans.traced_vbmc(tracer):
            passes.append(run_pass(workload, seeds, log, reference))
    else:
        last = perf_counter() - t_start
        while (perf_counter() - t_start) + last <= seconds:
            t_pass = perf_counter()
            passes.append(run_pass(workload, seeds, log, reference))
            last = perf_counter() - t_pass

    attempted = sum(len(p) for p in passes)
    failed = sum(not o.ok for p in passes for o in p)
    if failed == attempted:
        return False, attempted, failed, None
    if trace:
        untraced_run_s = statistics.fmean(o.record.wall_time for o in first if o.ok)
        metrics = layer_metrics(tracer, [o for o in passes[1] if o.ok], untraced_run_s)
    else:
        metrics = end_to_end_metrics(passes, setup_s)
    return failed == 0, attempted, failed, metrics


def report(name, correct, attempted, failed, metrics, log=print):
    """Print the metric table and return the result object."""
    log(f"{name}: {attempted} runs attempted, {failed} failed "
        f"({100.0 * failed / attempted:.1f}%), correct {correct}")
    for key, (value, unit) in metrics.items():
        log(f"  {key:42s} {value:>16.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(args, import_s):
    workload = WORKLOADS[args.workload]
    run_seeds = args.run_seeds if args.run_seeds is not None else workload.run_seeds
    print("env " + json.dumps(environment()), flush=True)
    correct, attempted, failed, metrics = measure(
        workload, run_seeds, args.seconds, args.trace, args.seed, import_s,
        log=lambda line: print(line, flush=True),
    )
    if metrics is None:
        print(f"{workload.name}: no correct run; no metrics", file=sys.stderr)
        return 1
    print(json.dumps(report(workload.name, correct, attempted, failed, metrics)))
    return 0
