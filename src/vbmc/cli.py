"""Command-line interface: problem generation, benchmark sweeps, inference.

A sweep is ``vbmc run``, one JSON line per ``benchmark.execute_run``;
``vbmc summarize`` and ``--long-csv`` read those JSON records.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .acquisition import ACQUISITION_KINDS
from .benchmark import (
    FAMILIES,
    GROUND_TRUTH_TOL,
    execute_run,
    make_problem,
    run_budget,
    summarize_records,
    verify_ground_truth,
    write_long_csv,
    write_summary_csv,
)
from .core import VBMC, VBMCOptions
from .transforms import ParameterTransform


def _add_generate(sub):
    p = sub.add_parser("generate", help="emit problem definitions with ground truth")
    p.add_argument("--family", nargs="+", default=list(FAMILIES), choices=FAMILIES)
    p.add_argument("--dims", nargs="+", type=int, default=[2])
    p.add_argument("--problem-seed", type=int, default=0)
    p.add_argument("--check", action="store_true",
                   help="cross-check ground truth with an independent oracle")
    p.add_argument("--out", default="-", help="output JSON-lines path ('-' = stdout)")


def _add_run(sub):
    p = sub.add_parser("run", help="execute a benchmark sweep")
    p.add_argument("--family", nargs="+", default=["lumpy"], choices=FAMILIES)
    p.add_argument("--dims", nargs="+", type=int, default=[2])
    p.add_argument("--seeds", type=int, default=20, help="number of seeded runs")
    p.add_argument("--seed-start", type=int, default=0)
    p.add_argument("--acq", choices=ACQUISITION_KINDS, default="pro")
    p.add_argument("--budget-multiplier", type=float, default=1.0)
    p.add_argument("--problem-seed", type=int, default=0)
    p.add_argument("--meta-seed", type=int, default=0)
    p.add_argument("--out", default="records.jsonl")
    p.add_argument("--long-csv", default=None,
                   help="also write per-checkpoint long-format CSV")


def _add_summarize(sub):
    p = sub.add_parser("summarize", help="medians + bootstrap CIs from records")
    p.add_argument("records", help="JSON-lines records file")
    p.add_argument("--out", default="summary.csv")
    p.add_argument("--boot-seed", type=int, default=0)


def _add_infer(sub):
    p = sub.add_parser(
        "infer",
        help="run inference on a single problem config",
        description="Run inference on one problem config and write the result as JSON. "
        "The mixture in 'posterior' lives in the run's working frame: 'frame' is null "
        "when the run never whitened, so the mixture is in the internal coordinates of "
        "'transform'; otherwise internal = center + matrix @ working. 'lml_true' is null "
        "when a 'bounds' block sets a finite hard bound, since the stored truth is the "
        "unbounded problem's.",
    )
    p.add_argument("config", help="JSON config file")
    p.add_argument("--out", default="-", help="result JSON path ('-' = stdout)")
    p.add_argument("--diagnostics", default=None,
                   help="per-iteration JSONL path; each line's 'whitened' says whether "
                   "its iterate ran in a whitened frame")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vbmc",
        description="Variational Bayesian Monte Carlo: sample-efficient "
        "posterior and model-evidence estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_run(sub)
    _add_summarize(sub)
    _add_infer(sub)
    args = parser.parse_args(argv)

    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "summarize":
        return _cmd_summarize(args)
    if args.command == "infer":
        return _cmd_infer(args)
    return 2


def _open_out(path):
    return sys.stdout if path == "-" else open(path, "w")


def _build_problems(command, pairs, seed):
    """The problem of each (family, D) pair, built before any ground-truth
    check; None after one stderr line when a pair is rejected."""
    try:
        return [make_problem(family, D, seed) for family, D in pairs]
    except ValueError as err:
        print(f"vbmc {command}: {err}", file=sys.stderr)
        return None


def _cmd_generate(args):
    pairs = [
        (family, D) for family in args.family for D in args.dims
        if not (family == "cigar" and D == 1)
    ]
    problems = _build_problems("generate", pairs, args.problem_seed)
    if problems is None:
        return 2
    fh = _open_out(args.out)
    for problem in problems:
        entry = problem.to_json()
        if args.check:
            report = verify_ground_truth(problem)
            entry["check"] = {
                "method": report["method"],
                "lml": report["lml"],
                "ess": report["ess"],
            }
        fh.write(json.dumps(entry) + "\n")
    if fh is not sys.stdout:
        fh.close()
    return 0


def _cmd_run(args):
    """Check every input and each problem's ground truth, then append each run's
    record to ``--out`` as it ends; disjoint seed ranges shard a sweep."""
    for flag, value, least in (
        ("--seeds", args.seeds, 1), ("--seed-start", args.seed_start, 0),
        ("--meta-seed", args.meta_seed, 0),
    ):
        if value < least:
            print(f"vbmc run: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 2
    pairs = [(family, D) for family in args.family for D in args.dims]
    problems = _build_problems("run", pairs, args.problem_seed)
    if problems is None:
        return 2
    try:
        for D in args.dims:
            run_budget(D, args.budget_multiplier)
    except ValueError as err:
        print(f"vbmc run: {err}", file=sys.stderr)
        return 2
    for problem in problems:
        report = verify_ground_truth(problem)
        if abs(report["lml"] - problem.lml_true) > GROUND_TRUTH_TOL:
            raise RuntimeError(
                f"ground-truth cross-check failed for {problem.problem_id}: "
                f"{problem.lml_true:.4f} vs {report['lml']:.4f} "
                f"({report['method']})"
            )
    records = []
    for problem in problems:
        for seed in range(args.seed_start, args.seed_start + args.seeds):
            rec = execute_run(problem.family, problem.D, args.problem_seed, seed, args.acq,
                              args.budget_multiplier, args.meta_seed).to_json()
            records.append(rec)
            with open(args.out, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            print(
                f"{rec['problem_id']} seed {seed}: "
                f"lml_err {rec['final']['lml_err']:.3f} gskl {rec['final']['gskl']:.3f} "
                f"({rec['wall_time']:.0f}s)",
                flush=True,
            )
    if args.long_csv:
        write_long_csv(records, args.long_csv)
    for row in summarize_records(records):
        print(
            f"{row['family']} D={row['D']}: median lml_err "
            f"{row['lml_err_median']:.3f} gskl {row['gskl_median']:.3f} "
            f"({row['runs']} runs)"
        )
    return 0


def _read_json(command, path, lines=False):
    """The JSON value in ``path``, or with ``lines`` the list of the values
    of its nonblank lines; None after one stderr line when the file cannot
    be read or a value is not JSON."""
    number = 0
    try:
        with open(path) as fh:
            if not lines:
                return json.load(fh)
            values = []
            for number, line in enumerate(fh, 1):
                if line.strip():
                    values.append(json.loads(line))
            return values
    except OSError as err:
        message = f"cannot read {path}: {err.strerror or err}"
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        where = f"line {number} of {path}" if lines else path
        message = f"{where} is not JSON: {err}"
    print(f"vbmc {command}: {message}", file=sys.stderr)
    return None


# each field summarize_records reads of a JSON record, with the types it can use
_SUMMARY_FIELDS = (("family", (str,)), ("D", (int,)), ("final", (dict,)),
                   ("final.lml_err", (int, float)), ("final.gskl", (int, float)),
                   ("final.elbo_sd", (int, float)), ("final.stable", (bool,)))


def _cmd_summarize(args):
    records = _read_json("summarize", args.records, lines=True)
    if records is None:
        return 2
    if not records:
        print(f"vbmc summarize: no records in {args.records}", file=sys.stderr)
        return 2
    if not all(isinstance(rec, dict) for rec in records):
        print(f"vbmc summarize: a line of {args.records} is not a JSON object",
              file=sys.stderr)
        return 2
    try:
        for rec in records:
            for path, types in _SUMMARY_FIELDS:
                value = rec
                for key in path.split("."):  # "final" is checked before its fields
                    value = value[key]
                if type(value) not in types:  # so a bool is no int
                    names = " or ".join(t.__name__ for t in types)
                    raise TypeError(f"{path} {value!r}, not of type {names}")
    except KeyError as err:
        print(f"vbmc summarize: a record in {args.records} has no key {err}",
              file=sys.stderr)
        return 2
    except TypeError as err:
        print(f"vbmc summarize: a record in {args.records} has {err}", file=sys.stderr)
        return 2
    rows = summarize_records(records, boot_seed=args.boot_seed)
    write_summary_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _integer(value, name):
    """``value`` when it is a JSON integer (of type int, so not a bool); else ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _cmd_infer(args):
    config = _read_json("infer", args.config)
    if config is None:
        return 2
    blocks = [("config", config)]
    if isinstance(config, dict):
        blocks += [(key, config[key]) for key in ("options", "problem", "bounds")
                   if key in config]
    for name, block in blocks:
        if not isinstance(block, dict):
            print(f"vbmc infer: the {name} in {args.config} is not a JSON object",
                  file=sys.stderr)
            return 2
    x0 = config.get("x0")
    if x0 is not None and not (isinstance(x0, list) and all(type(v) in (int, float) for v in x0)):
        print(f"vbmc infer: the x0 in {args.config} is not a JSON array of numbers",
              file=sys.stderr)
        return 2
    given = config.get("options", {})
    allowed = [f.name for f in dataclasses.fields(VBMCOptions)]
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        print(
            f"vbmc infer: unknown option(s) {', '.join(unknown)} in {args.config}; "
            f"allowed: {', '.join(allowed)}",
            file=sys.stderr,
        )
        return 2
    # a bad options, problem, bounds or seed entry ends here, before any evaluation
    try:
        options = VBMCOptions(**given)
        pspec = config["problem"]
        problem = make_problem(pspec["family"], _integer(pspec["D"], "problem.D"),
                               _integer(pspec.get("seed", 0), "problem.seed"))
        spec = problem.problem_spec(x0=None if x0 is None else np.asarray(x0, float))
        lml_true = problem.lml_true
        if "bounds" in config:
            spec.transform = ParameterTransform.from_config(config["bounds"])
            if np.any(spec.transform.bounded):  # a truncated target: the truth is not known
                lml_true = None
        engine = VBMC(spec, options)
        seed = _integer(config.get("seed", 0), "seed")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
    except KeyError as err:
        print(f"vbmc infer: missing key {err} in {args.config}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"vbmc infer: {err} in {args.config}", file=sys.stderr)
        return 2
    result = engine.run(seed=seed, diagnostics=args.diagnostics)
    out = {
        "problem_id": problem.problem_id,
        "elbo_mean": result.elbo_mean,
        "elbo_sd": result.elbo_sd,
        "stable": result.stable,
        "iterations": result.iterations,
        "fevals": result.fevals,
        "lml_true": lml_true,
        "posterior": result.vp.to_json(),
        "frame": None if result.frame is None else result.frame.to_json(),
        "transform": result.transform.to_config(),
    }
    fh = _open_out(args.out)
    fh.write(json.dumps(out, indent=2) + "\n")
    if fh is not sys.stdout:
        fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
