"""slhkit benchmark: seeded, closed-loop CLI workloads with one client.

    python3 bench/run.py --workload sweep-plot --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each workload runs in one process.  Jobs call ``slhkit.cli.main`` in-process
back to back, so interpreter start and ``import slhkit`` count once, in
``setup_s``.  The timed loop runs jobs until their summed wall time reaches
``--seconds``; each job's outputs are checked outside its timer, and a
seeded sample gets the full numpy reference check after the loop.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` every second job runs with per-layer spans
(``tracing.py``) and the last line reports per-layer metrics per traced
job, plus the traced and untraced job medians and their difference.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads; probes inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SLHKIT_TOL", None)

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import numpy
import scipy

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"job_s.p50": "s", "job_s.p90": "s", "jobs_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics as (span name, aggregate key, unit), reported as
# "<span>.<key>" per traced job.
LAYER_METRICS = [
    ("operators.inverse", "calls", "count/job"),
    ("operators.inverse", "busy_s", "s/job"),
    ("operators.inverse", "raised", "count/job"),
    ("operators.inverse", "gflop_computed", "GFLOP/job"),
    ("characteristic.char_op", "calls", "count/job"),
    ("characteristic.char_op", "busy_s", "s/job"),
    ("characteristic.char_op", "self_s", "s/job"),
    ("characteristic.sweep", "busy_s", "s/job"),
    ("characteristic.sweep", "self_s", "s/job"),
    ("characteristic.sweep", "points", "count/job"),
    ("characteristic.sweep", "points_singular", "count/job"),
    ("modelfile.write_sweep_csv", "busy_s", "s/job"),
    ("modelfile.write_sweep_csv", "rows", "count/job"),
    ("modelfile.loads", "busy_s", "s/job"),
    ("modelfile.loads", "mb", "MB/job"),
    ("modelfile.dumps", "busy_s", "s/job"),
    ("modelfile.dumps", "mb", "MB/job"),
    ("adiabatic.check_assumptions", "calls", "count/job"),
    ("adiabatic.check_assumptions", "busy_s", "s/job"),
    ("adiabatic.limit_slh", "calls", "count/job"),
    ("adiabatic.limit_slh", "busy_s", "s/job"),
    ("adiabatic.convergence_study", "calls", "count/job"),
    ("adiabatic.convergence_study", "busy_s", "s/job"),
    ("model.series_product", "calls", "count/job"),
    ("model.series_product", "busy_s", "s/job"),
    ("zoo.build", "busy_s", "s/job"),
    ("svgplot.magnitude_phase_svg", "busy_s", "s/job"),
    ("cli.eval", "busy_s", "s/job"),
    ("cli.compose", "busy_s", "s/job"),
    ("cli.zoo", "busy_s", "s/job"),
    ("cli.limit", "busy_s", "s/job"),
]
TRACE_UNITS = {"trace.job_s.p50": "s", "trace.untraced_job_s.p50": "s",
               "trace.overhead_s": "s"}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_slhkit():
    if not os.path.isfile(os.path.join(SRC, "slhkit", "__init__.py")):
        fail(f"no slhkit source under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import slhkit.cli
    if not os.path.abspath(slhkit.__file__).startswith(SRC + os.sep):
        fail(f"imported slhkit from {slhkit.__file__}, not from {SRC}")
    return slhkit.cli


def make_cli_runner(cli):
    def run_cli(argv):
        """(exit code, stdout, stderr) of one in-process CLI command."""
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(argv, prog_name="slhkit")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()
    return run_cli


def checked(check, *args):
    """Error message from an output check; a check that raises has failed."""
    try:
        return check(*args)
    except Exception as exc:  # malformed or missing output
        return f"check raised {type(exc).__name__}: {exc}"


def run_job(job, run_cli):
    """Run one job's commands; returns (outputs, error message or None)."""
    outputs = []
    for argv in job.commands:
        code, out, err = run_cli(argv)
        outputs.append((code, out, err))
        if code != 0:
            return outputs, f"{argv[0]} exited {code}: {err.strip()[:200]}"
    return outputs, None


def blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.dirname(os.path.dirname(pkg.__file__))
        for path in glob.glob(os.path.join(libdir, f"{pkg.__name__}.libs", "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def environment(args, workload):
    def blas_version(pkg):
        try:
            return pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": workload.sizes(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "blas_threads": blas_threads(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy), "machine": platform.machine(),
    }


def setup_workload(args, workdir):
    """Import slhkit, make the input pool and run one warm-up job."""
    cli = import_slhkit()
    run_cli = make_cli_runner(cli)
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup(run_cli)
    warm = workload.next_job()
    outputs, error = run_job(warm, run_cli)
    error = error or checked(workload.check, warm, outputs)
    if error:
        fail(f"warm-up job failed: {error}")
    return run_cli, workload


def probe_setup(args):
    """Seconds from a fresh interpreter to the first timed job, median of probes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"setup probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        times.append(elapsed)
    return statistics.median(times), times


def timed_loop(args, workload, run_cli, tracer, keep_root):
    """Run jobs until their summed wall time reaches args.seconds.

    At least two jobs run, so a traced run has a traced and an untraced one.
    """
    records = []  # [job, seconds, traced, error, kept output dir]
    timed = 0.0
    while timed < args.seconds or len(records) < 2:
        job = workload.next_job()
        traced = tracer is not None and job.index % 2 == 1
        # A CLI user starts each command with a fresh heap; collecting here,
        # outside the timer, keeps one job's garbage out of the next one.
        # Set-up froze everything older, so this scans only job garbage.
        gc.collect()
        if traced:
            tracer.begin(job.index)
        t0 = time.perf_counter()
        try:
            outputs, error = run_job(job, run_cli)
        except Exception:  # a job that raises is a failed job, not a crash
            outputs, error = None, traceback.format_exc(limit=-3)
        dt = time.perf_counter() - t0
        if traced:
            tracer.end()
        timed += dt
        if error is None:
            error = checked(workload.check, job, outputs)
        kept = workload.keep(job, keep_root) if error is None and job.sample else None
        records.append([job, dt, traced, error, kept])
    return records, timed


def run_workload(args):
    t_start = time.perf_counter()
    workdir = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    try:
        run_cli, workload = setup_workload(args, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return
        main_setup_s = time.perf_counter() - t_start
        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        keep_root = os.path.join(workdir, "keep")
        records, timed = timed_loop(args, workload, run_cli, tracer, keep_root)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for rec in records:
            job, _, _, error, kept = rec
            if error is None and kept is not None:
                rec[3] = checked(workload.deep_check, job, kept)
        env = environment(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [(r[0].index, r[3]) for r in records if r[3] is not None]
    for index, error in errors[:5]:
        print(f"job {index} failed: {error}", file=sys.stderr)
    sampled = sum(1 for r in records if r[4] is not None)
    times = [r[1] for r in records]
    print("env: " + json.dumps(env))
    print(f"jobs: {len(records)}  failed: {len(errors)}  reference-checked: {sampled}  "
          f"timed: {timed:.3f} s  main-process setup: {main_setup_s:.3f} s")

    if args.trace:
        totals = tracer.totals()
        metrics = layer_metrics(totals, records)
        traced_s = sum(r[1] for r in records if r[2])
        print("share of traced job time (busy / self):")
        for name, agg in sorted(totals.items(), key=lambda kv: -kv[1]["busy_s"]):
            print(f"  {name:34s} {agg['busy_s'] / traced_s:7.1%} {agg['self_s'] / traced_s:7.1%}")
        os.makedirs(RUN_DIR, exist_ok=True)
        spans = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
    else:
        setup_s, probes = probe_setup(args)
        print("setup probes (s): " + ", ".join(f"{t:.4f}" for t in probes))
        values = {"job_s.p50": statistics.median(times), "job_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8],
                  "jobs_per_s": len(records) / timed, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": len(records),
                      "failed": len(errors), "metrics": metrics}))


def layer_metrics(totals, records):
    traced = [r[1] for r in records if r[2]]
    untraced = [r[1] for r in records if not r[2]]
    n = max(len(traced), 1)
    metrics = {}
    for span, key, unit in LAYER_METRICS:
        metrics[f"{span}.{key}"] = {"value": totals.get(span, {}).get(key, 0) / n, "unit": unit}
    values = {"trace.job_s.p50": statistics.median(traced),
              "trace.untraced_job_s.p50": statistics.median(untraced)}
    values["trace.overhead_s"] = values["trace.job_s.p50"] - values["trace.untraced_job_s.p50"]
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": TRACE_UNITS[name]}
    return metrics


def run_all(args):
    """Each workload in its own process; prints a table and one JSON line."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':40s}" + "".join(f"{w:>16s}" for w in results) + "  unit")
    for metric in names:
        row = "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values())
        unit = next(iter(results.values()))["metrics"][metric]["unit"]
        print(f"{metric:40s}{row}  {unit}")
    print(f"{'jobs / failed':40s}" + "".join(
        f"{str(r['attempted']) + ' / ' + str(r['failed']):>16s}" for r in results.values()))
    print(json.dumps(results))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
