"""Benchmark of the vbmc package: one workload per call, or all of them.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lumpy-d2 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("lumpy-d2", "lumpy-d6", "cigar-d2")


def pin_environment():
    """One BLAS thread and no worker pool; must run before numpy is imported.

    The ELBO changes with the BLAS thread count, so results are only
    comparable at a fixed count.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("VBMC_WORKERS", None)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the runs of a workload; results do not depend on it")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="untraced: repeat whole passes while they fit in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-seeds", type=lambda s: tuple(int(x) for x in s.split(",")),
                        default=None, help="comma-separated run seeds replacing the defaults")
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in its own process, so peak RSS is that workload's alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.run_seeds is not None:
            cmd += ["--run-seeds", ",".join(map(str, args.run_seeds))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "vbmc", "__init__.py")):
        print(f"no vbmc source under {SOURCE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_environment()
    sys.path.insert(0, SOURCE)
    t0 = perf_counter()
    import vbmc.benchmark  # noqa: F401  (timed: part of the set-up a user pays)
    import_s = perf_counter() - t0

    import workloads

    return workloads.main(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
