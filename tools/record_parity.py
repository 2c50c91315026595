"""Compare the benchmark records of two checkouts, run by run.

    python3 tools/record_parity.py SRC_A SRC_B [--workload lumpy-d2 ...] [--run-seeds 0,1,2]

SRC_A and SRC_B are checkout roots. Each runs in its own child process at
one BLAS thread, importing its own ``src`` and ``perfbench/workloads.py``,
and calls ``execute_run`` for the chosen ``WORKLOADS`` entries (all of them
by default) at their run seeds, or at ``--run-seeds``. Each run prints
``content_equal`` when the two records agree apart from wall time, or else
the first checkpoint that differs with both sides' ``lml_err``, ``gskl``
and variance-clamp counts (GP predictive / quadrature). After each
workload's verdicts, one ``summary`` line gives its count of
``content_equal`` runs, each side's median ``lml_err``, ``gskl`` and
``fevals`` over the runs both sides finished, and each side's seeds whose
``lml_err`` or ``gskl`` is at least 1. A ``paired`` line follows it: over
the same runs, the number of seeds where B's ``lml_err`` is lower than A's
and where it is higher, the same two counts for ``gskl``, and each side's
largest ``lml_err``. Values are compared at the six significant digits
the lines print, so a run that moved only in its last bits counts neither
way. Medians alone can hide a run that got much worse.
After all verdicts, one ``peak_rss`` line gives each child's peak resident
set size (``ru_maxrss``), so one command shows both a change's bits and its
memory. The children run side by side, each with its own memory.
Exits 1 on any difference; when a child process fails, names its side (A or
B) and exit code. A child given an unknown workload name runs nothing and
exits 2 with one line that lists the known names.

Before the verdicts it prints one ``env`` line: the BLAS thread settings
of the children, the numpy and scipy versions, and the SIMD target numpy
dispatches float64 ``exp`` to. Parity holds for one thread count, and the
mixture log-sum-exp relies on numpy's ``exp`` giving a value the same bits
in every SIMD lane of that target.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child(root, names, seeds):
    """Run the workloads of the checkout at ``root``; print the records and the
    process's peak resident set size in MB as JSON. An unknown name in
    ``names`` ends the child before any run, with one line and exit 2."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads

    unknown = [name for name in names or () if name not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {', '.join(unknown)}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        sys.exit(2)
    out = {}
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        out[name] = {}
        for seed in seeds or w.run_seeds:
            o = workloads.run_once(w, seed)
            record = o.record.to_json() if o.record else None
            out[name][seed] = [record, o.gp_clamps, o.quad_clamps, o.reasons]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"records": out, "peak_rss_mb": peak}))


def start(root, args):
    env = dict(os.environ)
    env.update(THREADS)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", os.path.abspath(root)]
    cmd += ["--workload", *args.workload] if args.workload else []
    cmd += ["--run-seeds", ",".join(map(str, args.run_seeds))] if args.run_seeds else []
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)


def env_line():
    """The settings and builds that parity depends on, as one JSON line."""
    import numpy
    import scipy

    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 does not report its dispatch
        target = "unknown"
    else:
        (exp,) = opt_func_info(func_name="^exp$", signature="float64")["exp"].values()
        target = exp["current"]
    env = {**THREADS, "numpy": numpy.__version__, "scipy": scipy.__version__,
           "numpy_exp_float64": target}
    return "env " + json.dumps(env)


def compare(a, b):
    (ra, ga, qa, why_a), (rb, gb, qb, why_b) = a, b
    if ra is None or rb is None:
        return f"a run failed: A {why_a or 'ok'}; B {why_b or 'ok'}"
    ra.pop("wall_time")
    rb.pop("wall_time")
    if ra == rb:
        return "content_equal"
    cps = list(zip(ra["checkpoints"], rb["checkpoints"]))
    i = next((i for i, (x, y) in enumerate(cps) if x != y), len(cps))
    where = f"checkpoint {i} (fevals {cps[i][0][0]} vs {cps[i][1][0]})" if i < len(cps) else "final"
    fa, fb = ra["final"], rb["final"]
    return (
        f"differs from {where}; lml_err {fa['lml_err']:.6g} vs {fb['lml_err']:.6g}, "
        f"gskl {fa['gskl']:.6g} vs {fb['gskl']:.6g}, fevals {fa['fevals']} vs {fb['fevals']}, "
        f"clamps {ga}/{qa} vs {gb}/{qb}"
    )


def finished_by_both(a, b):
    """The run seeds whose records both sides have."""
    return [seed for seed in a if a[seed][0] and b[seed][0]]


def summary(name, a, b, verdicts):
    """The ``summary`` line of workload ``name``: ``a`` and ``b`` map each run
    seed to a side's child result, ``verdicts`` are the runs' verdicts."""
    equal = sum(v == "content_equal" for v in verdicts)
    parts = [f"summary {name}: {equal} of {len(verdicts)} runs content_equal"]
    both = finished_by_both(a, b)

    def median(side, key):
        return statistics.median(side[seed][0]["final"][key] for seed in both)

    if both:
        medians = ", ".join(
            f"{key} {median(a, key):.6g} vs {median(b, key):.6g}"
            for key in ("lml_err", "gskl", "fevals")
        )
        parts.append(f"medians over the {len(both)} runs both sides finished, A vs B: {medians}")
    else:
        parts.append("no run finished on both sides")
    large = []
    for label, side in zip("AB", (a, b)):
        seeds = [
            seed for seed, (rec, *_) in side.items()
            if rec and (rec["final"]["lml_err"] >= 1 or rec["final"]["gskl"] >= 1)
        ]
        large.append(f"{label} {' '.join(seeds) or 'none'}")
    parts.append("lml_err or gskl >= 1: " + ", ".join(large))
    return "; ".join(parts)


def paired(name, a, b):
    """The ``paired`` line of workload ``name``, seed by seed over the runs
    both sides finished; ``a`` and ``b`` are as for :func:`summary`."""
    both = finished_by_both(a, b)
    if not both:
        return f"paired {name}: no run finished on both sides"
    finals = [(a[seed][0]["final"], b[seed][0]["final"]) for seed in both]
    counts = []
    for key in ("lml_err", "gskl"):
        pairs = [(float(f"{fa[key]:.6g}"), float(f"{fb[key]:.6g}")) for fa, fb in finals]
        lower = sum(vb < va for va, vb in pairs)
        higher = sum(vb > va for va, vb in pairs)
        counts.append(f"{key} lower {lower}, higher {higher}")
    top_a, top_b = (max(f[side]["lml_err"] for f in finals) for side in (0, 1))
    return (
        f"paired {name}: over the {len(both)} runs both sides finished, B against A: "
        f"{'; '.join(counts)}; largest lml_err {top_a:.6g} vs {top_b:.6g}"
    )


def peak_rss(a_mb, b_mb):
    """The ``peak_rss`` line: each side's peak resident set size in MB."""
    return f"peak_rss A {a_mb:.1f} MB, B {b_mb:.1f} MB"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("roots", nargs="*", metavar="SRC")
    parser.add_argument("--workload", nargs="+", default=None)
    parser.add_argument("--run-seeds", type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child, args.workload, args.run_seeds)
    if len(args.roots) != 2:
        parser.error("give two checkout roots, SRC_A and SRC_B")
    procs = [start(root, args) for root in args.roots]
    outs = [p.communicate()[0] for p in procs]
    failed = [
        f"side {side} ({root}) exited with code {p.returncode}"
        for side, root, p in zip("AB", args.roots, procs)
        if p.returncode
    ]
    if failed:
        sys.exit("child process failed: " + "; ".join(failed))
    side_a, side_b = (json.loads(o.splitlines()[-1]) for o in outs)
    a, b = side_a["records"], side_b["records"]
    print(env_line())
    all_equal = True
    for name in a:
        verdicts = [compare(a[name][seed], b[name][seed]) for seed in a[name]]
        for seed, verdict in zip(a[name], verdicts):
            print(f"{name} seed {seed}: {verdict}")
        print(summary(name, a[name], b[name], verdicts))
        print(paired(name, a[name], b[name]))
        all_equal = all_equal and all(v == "content_equal" for v in verdicts)
    print(peak_rss(side_a["peak_rss_mb"], side_b["peak_rss_mb"]))
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
