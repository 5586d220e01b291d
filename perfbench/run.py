#!/usr/bin/env python3
"""Benchmark of the freedgl package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads are tower, build, series and cli (workloads.py; README.md says
why each is there).  A run imports freedgl from ./src in a fresh process
with one thread, sets up several times, then repeats the workload's job
list for a number of passes set by --seconds, checking every answer.  The
timings are scaled to a reference host speed (CAL_REF_S; README.md says
why).

With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs one
pass with spans around the public functions of every freedgl module and
reports per-layer call counts and self times.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Each result, with the Python version, core count, seed and job
counts, is also written under perfbench/.work/results/.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, import_freedgl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# the medians over the passes need samples spread over the run
MIN_PASSES = 4
# the planned passes stop early when the next pass would end after this
# multiple of --seconds, so that a slow host cannot stretch a run further
DEADLINE_FACTOR = 1.1

# (module, qualified name) of every traced callable
LAYERS = (
    ("linalg", "FractionFreeReducer.reduce"),
    ("linalg", "FractionFreeReducer.insert"),
    ("linalg", "SpanReducer.reduce"),
    ("linalg", "SpanReducer.insert"),
    ("linalg", "solve_columns"),
    ("lie", "bracket"),
    ("lie", "concat_terms"),
    ("lie", "Derivation.__call__"),
    ("lie", "substitute"),
    ("lie", "lyndon_slice_basis"),
    ("lie", "slice_coordinates"),
    ("lie", "dynkin_verify"),
    ("series", "bch"),
    ("series", "exp_ad"),
    ("series", "gauge"),
    ("series", "twist"),
    ("homology", "homology"),
    ("homology", "malcev_tower"),
    ("homology", "pi_n"),
    ("homology", "MalcevQuotient.product"),
    ("homology", "linear_homology"),
    ("complexes", "parse_complex"),
    ("complexes", "model_of_complex"),
    ("complexes", "minimal_model"),
    ("simplex", "solve_boundary"),
    ("simplex", "inductive_top_diff"),
    ("simplex", "symmetric_top_diff"),
    ("simplex", "check_model_axioms"),
    ("serialize", "emit_dgl"),
    ("serialize", "parse_dgl"),
    ("serialize", "emit_element"),
    ("serialize", "parse_element"),
    ("whitney", "whitney_i"),
    ("whitney", "integrate_p"),
    ("whitney", "exterior_d"),
    ("whitney", "wedge"),
    ("cli", "run"),
)


def layer_name(module, qualname):
    return "%s.%s" % (module, qualname.replace("__call__", "call"))


def metric(value, unit):
    return {"value": value, "unit": unit}


# The shared host's speed drifts by up to 1.9x over seconds to minutes, and
# every timing drifts with it (README.md).  So a fixed pure-Python integer
# loop, which calls nothing in freedgl, is timed before every job, and each
# pass's timings are scaled by CAL_REF_S over the median loop latency of
# that pass: they read as seconds on a host where the loop takes CAL_REF_S,
# its latency on a quiet host.  A change to freedgl moves them as it moves
# the raw times, which the result file keeps.  Of the kernels tried, this
# loop tracked the jobs best: log pass walls against log kernel latencies
# had slopes of 0.84-1.23, against 0.54-0.76 for loops of Fraction and dict
# work, which swing more with the host than freedgl does.
CAL_REF_S = 0.003


def kernel_latency():
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_pass(jobs, kernel_times=None):
    """Run every job once; returns (wall seconds, latencies, failures).

    The wall is the sum of the job latencies.  With a list for
    kernel_times, the calibration kernel is timed before each job and its
    latencies are appended there.
    """
    gc.collect()
    latencies = []
    failures = []
    for label, job in jobs:
        if kernel_times is not None:
            kernel_times.append(kernel_latency())
        t0 = time.perf_counter()
        try:
            job()
            error = None
        except Exception as e:  # a failed job is counted, not fatal
            error = "%s: %s" % (type(e).__name__, e)
        latencies.append(time.perf_counter() - t0)
        if error is not None:
            failures.append((label, error))
    return sum(latencies), latencies, failures


def tail(latencies):
    """(p, latency) at the highest whole percentile, by nearest rank, with
    at least ten latencies above it; (100, max) below eleven latencies."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def run_probes(wl):
    """Run the known-defect probes once; [(label, error or None)]."""
    out = []
    for label, job in wl.probes():
        try:
            job()
            out.append((label, None))
        except Exception as e:  # the probe records the failure
            out.append((label, "%s: %s" % (type(e).__name__, e)))
    return out


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_untraced(wl, seconds):
    setups = []
    setup_kernel = []
    for _ in range(wl.setup_repeats):
        gc.collect()
        setup_kernel.append(kernel_latency())
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    jobs = wl.jobs()
    passes = max(MIN_PASSES, round(seconds / wl.nominal_pass_s))
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    raw_walls = []
    scales = []
    by_job = [[] for _ in jobs]
    failures = []
    for _ in range(passes):
        if (len(raw_walls) >= MIN_PASSES
                and time.perf_counter() + raw_walls[-1] > deadline):
            break
        kernel = []
        wall, lat, fails = run_pass(jobs, kernel)
        scale = CAL_REF_S / statistics.median(kernel)
        raw_walls.append(wall)
        scales.append(scale)
        for samples, t in zip(by_job, lat):
            samples.append(t * scale)
        failures += fails
    rss = peak_rss_mb(wl.rss_of_children)
    walls = [wall * scale for wall, scale in zip(raw_walls, scales)]
    latencies = [t for samples in by_job for t in samples]
    p, tail_s = tail(latencies)
    # each job's median over the passes keeps the jobs in their cost order;
    # the median of the pooled samples would mix neighbouring jobs
    job_medians = [statistics.median(samples) for samples in by_job]
    setup_scale = CAL_REF_S / statistics.median(setup_kernel)
    metrics = {
        "setup_s": metric(statistics.median(setups) * setup_scale, "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "job_p50_s": metric(statistics.median(job_medians), "s"),
        "job_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    info = {
        "passes": len(walls), "jobs_per_pass": len(jobs),
        "jobs": len(latencies), "tail_percentile": p,
        "setup_repeats": wl.setup_repeats,
        "fail_ratio": len(failures) / len(latencies),
        "cal_ref_s": CAL_REF_S,
        "pass_scales": scales, "setup_scale": setup_scale,
        "pass_walls_s": walls, "raw_pass_walls_s": raw_walls,
        "raw_wall_median_s": statistics.median(raw_walls),
        "raw_setups_s": setups,
        "job_medians_s": {label: t for (label, _), t
                          in zip(jobs, job_medians)},
    }
    return metrics, len(latencies), failures, info


def install_layers(tracer):
    """Wrap every traced callable; returns the counters the hooks fill."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "freedgl" or n.startswith("freedgl.")]
    counts = {"inserts": 0, "pivots": 0, "max_bits": 0,
              "basis_calls": 0, "basis_repeats": 0}
    seen = set()

    def basis_key(args, kwargs):
        gens, degree, length = args[:3]
        subset = args[3] if len(args) > 3 else kwargs.get("subset")
        subset = (tuple(range(len(gens))) if subset is None
                  else tuple(sorted(subset)))
        key = (gens, subset, degree, length)
        counts["basis_calls"] += 1
        if key in seen:
            counts["basis_repeats"] += 1
        else:
            seen.add(key)

    def pivot_row(args, result):
        counts["inserts"] += 1
        if result is None:
            counts["pivots"] += 1
            # rows only grow, so the row just installed is the last one
            row = next(reversed(args[0].rows.values()))
            bits = max(abs(c).bit_length() for c in row.values())
            counts["max_bits"] = max(counts["max_bits"], bits)

    hooks = {("linalg", "FractionFreeReducer.insert"): (None, pivot_row),
             ("lie", "lyndon_slice_basis"): (basis_key, None)}
    for module, qualname in LAYERS:
        owner = sys.modules["freedgl." + module]
        attr = qualname
        if "." in qualname:
            cls, attr = qualname.split(".")
            owner = getattr(owner, cls)
        before, after = hooks.get((module, qualname), (None, None))
        tracer.install(owner, attr, layer_name(module, qualname), modules,
                       before, after)
    return counts


def time_import():
    """Seconds for a bare interpreter to import freedgl.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import freedgl.cli"], env=env,
                   check=True, cwd=str(ROOT), timeout=60)
    return time.perf_counter() - t0


def run_traced(wl, seconds, stem):
    start = time.perf_counter()
    wl.setup()
    if wl.fd is None:
        wl.fd = import_freedgl()
    importlib.import_module("freedgl.cli")
    jobs = wl.jobs(in_process=True)
    untraced = [run_pass(jobs)[0]]
    tracer = Tracer()
    counts = install_layers(tracer)
    try:
        wall, latencies, failures = run_pass(jobs)
    finally:
        tracer.uninstall()
    while len(untraced) < 2 or time.perf_counter() - start < seconds:
        untraced.append(run_pass(jobs)[0])
    metrics = {}
    for name, (calls, own) in tracer.layer_stats().items():
        metrics[name + ".calls"] = metric(calls, "count")
        metrics[name + ".self_s"] = metric(own, "s")
    metrics["linalg.FractionFreeReducer.pivot_ratio"] = metric(
        counts["pivots"] / counts["inserts"] if counts["inserts"] else 0.0,
        "ratio")
    metrics["linalg.FractionFreeReducer.max_bits"] = metric(
        counts["max_bits"], "bits")
    metrics["lie.lyndon_slice_basis.hit_ratio"] = metric(
        counts["basis_repeats"] / counts["basis_calls"]
        if counts["basis_calls"] else 0.0, "ratio")
    metrics["cli.import_s"] = metric(
        statistics.median(time_import() for _ in range(3)), "s")
    metrics["trace.overhead"] = metric(
        wall / statistics.median(untraced), "ratio")
    info = {
        "passes": 1, "jobs_per_pass": len(jobs), "jobs": len(latencies),
        "traced_wall_s": wall, "untraced_walls_s": untraced,
        "spans": len(tracer.span_name),
        "spans_file": str(stem) + ".bin",
    }
    tracer.dump(stem)
    return metrics, len(latencies), failures, info


def run_one(args):
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, WORK / args.workload)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        metrics, attempted, failures, info = run_traced(
            wl, args.seconds, WORK / ("trace-" + tag))
    else:
        metrics, attempted, failures, info = run_untraced(wl, args.seconds)
    probes = run_probes(wl)
    if args.trace:
        metrics["defects.failed"] = metric(
            sum(1 for _, err in probes if err), "count")

    meta = dict(machine(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, **info)
    print("workload %s seed %d trace %d | python %s | nproc %d | "
          "%d passes x %d jobs = %d jobs"
          % (args.workload, args.seed, args.trace, meta["python"],
             meta["nproc"], meta["passes"], meta["jobs_per_pass"],
             meta["jobs"]))
    for name, m in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = "  (p%d of %d jobs)" % (info["tail_percentile"],
                                           info["jobs"])
        print("  %-44s %14.6g %s%s" % (name, m["value"], m["unit"], note))
    if not args.trace:
        print("  %-44s %14.6g ratio  (%d of %d jobs)"
              % ("fail_ratio", info["fail_ratio"], len(failures), attempted))
        print("  %-44s %14.6g s  (unscaled, not a metric)"
              % ("median pass wall", info["raw_wall_median_s"]))
        print("  %-44s %14.6g     (kernel reference over its median)"
              % ("median host speed", statistics.median(info["pass_scales"])))
    for label, err in failures:
        print("  FAILED %s: %s" % (label, err))
    for label, err in probes:
        print("  known defect probe %s: %s"
              % (label, "FAIL " + err if err else "ok (defect gone)"))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = dict(result, meta=meta, failures=failures, probes=probes)
    with open(results / (tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write("perfbench: workload %s exited with %d\n"
                             % (name, proc.returncode))
            return proc.returncode or 1
        one = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for key, m in one["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freedgl" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no freedgl sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
