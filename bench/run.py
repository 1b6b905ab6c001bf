"""fredstab benchmark: timed CLI stages on seeded workloads, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload pipeline-heat --seed 1 --seconds 40 --trace 0

Each repetition generates the workload's config from the seed, starts a
fresh interpreter (bench/worker.py) with a fresh output directory, and runs
every CLI stage through ``fredstab.cli_io.main``.  Repetitions continue
until the next one would end after ``--seconds``, with at least three.
Outputs are checked after every repetition (bench/checks.py).

``--trace 0`` reports the end-to-end metrics (means over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (means) plus the tracing overhead.  Summary
lines go to stdout; the last stdout line is one JSON object
{correct, attempted, failed, metrics}.  A record with the environment,
every repetition and the quartiles is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_ROOT = ROOT / ".bench_out"
BLAS_THREADS = 1
MIN_REPS = 3              # untraced repetitions per run
MIN_TRACED = 2            # traced (and untraced) repetitions per --trace 1 run
HARD_LIMIT_S = 170.0      # a run must end within 180 s

END_TO_END = {
    "setup_s": "s", "synthesize_s": "s", "verify_s": "s", "simulate_s": "s",
    "report_s": "s", "sweep_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "_mb": "MB", "_us": "us", "_gflop": "GFLOP",
                   "_share": "ratio"}


class SetupError(RuntimeError):
    """The program under test cannot be started; no result is printed."""


def sweep_jobs(workload: str) -> int:
    """Sweep workers, keeping BLAS threads x jobs within the usable cores."""
    cores = len(os.sched_getaffinity(0))
    return max(1, min(workloads.WORKLOADS[workload].sweep_jobs, cores // BLAS_THREADS))


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int, jobs: int) -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "sweep_jobs": jobs,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("OUTPUT_DIR", None)          # it would override --out
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_rep(args, index: int, traced: bool, stages, jobs: int, deadline: float) -> dict:
    rep_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}-{index}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    out = rep_dir / "out"
    try:
        t0 = time.monotonic()
        config = workloads.make_config(args.workload, args.seed, str(out),
                                       tiny=args.size == "tiny")
        config_path = rep_dir / "config.json"
        config_path.write_text(json.dumps(config, indent=1))
        snapshots = {st: str(rep_dir / f"report_{st}.json") for st in ("verify", "simulate")}
        job = {"workload": args.workload, "config": str(config_path), "out": str(out),
               "stages": list(stages), "jobs": jobs, "trace": traced,
               "snapshots": snapshots, "result": str(rep_dir / "result.json")}
        (rep_dir / "job.json").write_text(json.dumps(job))
        config_s = time.monotonic() - t0
        spawn = time.monotonic()
        timeout = max(5.0, deadline - spawn)
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                                   str(rep_dir / "job.json")],
                                  env=worker_env(), cwd=rep_dir, capture_output=True,
                                  text=True, timeout=timeout)
            log = proc.stdout + proc.stderr
        except subprocess.TimeoutExpired as exc:
            log = f"worker timed out after {timeout:.0f} s: {exc}"
        rep = {"traced": traced, "duration_s": time.monotonic() - spawn + config_s}
        result_path = rep_dir / "result.json"
        if not result_path.exists():
            rep.update(failed=len(stages) + workloads.sweep_points(config),
                       attempted=len(stages) + workloads.sweep_points(config),
                       errors=[f"worker produced no result: {log[-2000:]}"])
            return rep
        result = json.loads(result_path.read_text())
        src = str(ROOT / "src") + os.sep
        if not result["fredstab_file"].startswith(src):
            raise SetupError(f"fredstab imported from {result['fredstab_file']}, not {src}")
        rep["setup_s"] = config_s + (result["ready"] - spawn)
        rep["peak_rss_mb"] = result["peak_rss_mb"]
        if traced:
            rep["trace"] = result["trace"]
        rep.update(evaluate(result, config, out, snapshots, stages))
        if any(st["code"] != 0 for st in result["stages"]):
            rep["errors"].append(log[-2000:])
        return rep
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def evaluate(result: dict, config: dict, out: Path, snapshots: dict, stages) -> dict:
    """Stage times, artifact size, and failed operations after the checks."""
    done = {st["stage"]: st for st in result["stages"]}
    points = workloads.sweep_points(config)
    errors = []
    failed = 0
    times = {}
    for stage in stages:
        st = done.get(stage)
        if st is None or st["code"] != 0:
            failed += 1 + (points if stage == "sweep" else 0)
            errors.append(f"{stage}: " + ("not run" if st is None else
                                          f"exit {st['code']} {st['error'][-2000:]}"))
            continue
        times[f"{stage}_s"] = st["wall_s"]
        if stage == "synthesize":
            problems = checks.check_synthesize(str(out))
        elif stage == "verify":
            problems = checks.check_report(snapshots["verify"], "verify")
        elif stage == "simulate":
            problems = checks.check_simulate(str(out), snapshots["simulate"], config)
        elif stage == "report":
            problems = checks.check_report_stage(str(out))
        else:
            bad_points, problems = checks.check_sweep(str(out), config, points)
            failed += bad_points
        if problems and stage != "sweep":
            failed += 1
        errors.extend(problems)
    size = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) if out.exists() else 0
    metrics = dict(times)
    if len(times) == len(stages):
        metrics["pipeline_s"] = sum(times.values())
    metrics["artifact_mb"] = size / 1e6
    return {"metrics": metrics, "failed": failed,
            "attempted": len(stages) + points, "errors": errors}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(reps: list, trace: bool) -> dict:
    """name -> {unit, value, q1, median, q3, n}; the value is the mean.

    The host is shared, and a repetition runs at one of two speeds about
    1.5x apart.  The median of a run's 3-8 repetitions jumps between the
    two; the mean moves with the share of slow repetitions.  In one set of
    10 seeds per workload, per-run medians spread up to 0.27 of their
    median and per-run means up to 0.17 (bench/README.md, Noise).
    """
    plain = [r for r in reps if not r["traced"]]
    series: dict = {}
    for rep in plain:
        for name in ("setup_s", "peak_rss_mb"):
            if name in rep:
                series.setdefault(name, []).append(rep[name])
        for name, value in rep.get("metrics", {}).items():
            series.setdefault(name, []).append(value)
    units = {name: END_TO_END.get(name, "s") for name in series}
    if trace:
        traced = [r for r in reps if r["traced"] and "trace" in r]
        totals = [[r["metrics"]["pipeline_s"] for r in group
                   if "pipeline_s" in r.get("metrics", {})] for group in (plain, traced)]
        series = {}
        for rep in traced:
            for name, value in rep["trace"]["metrics"].items():
                series.setdefault(name, []).append(value)
        if all(totals):
            series["trace.overhead_share"] = [
                statistics.fmean(totals[1]) / statistics.fmean(totals[0]) - 1.0]
        units = {name: per_layer_unit(name) for name in series}
    summary = {}
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        summary[name] = {"unit": units[name], "value": statistics.fmean(values),
                         "q1": q1, "median": med, "q3": q3, "n": len(values)}
    return summary


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small N for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fredstab" / "__init__.py").is_file():
        print(f"fredstab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    soft = start + args.seconds
    hard = start + HARD_LIMIT_S
    jobs = sweep_jobs(args.workload)
    stages = workloads.STAGES
    OUT_ROOT.mkdir(exist_ok=True)
    env = environment(args.seed, jobs)
    try:
        reps = []
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_rep(args, len(reps) + 1, traced, stages, jobs, hard))
            if "setup_s" not in reps[-1] and not any("setup_s" in r for r in reps[:-1]):
                raise SetupError("; ".join(reps[-1]["errors"]))
            n_plain = sum(not r["traced"] for r in reps)
            n_traced = len(reps) - n_plain
            enough = (n_plain >= MIN_TRACED and n_traced >= MIN_TRACED if args.trace
                      else n_plain >= MIN_REPS)
            now = time.monotonic()
            typical = statistics.median(r["duration_s"] for r in reps)
            if now + 1.5 * typical > hard or (enough and now + typical > soft):
                break
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    summary = summarize(reps, bool(args.trace))
    names = sorted(summary) if args.trace else list(END_TO_END)
    print(json.dumps({"environment": env}))
    print(f"{args.workload} seed={args.seed} trace={args.trace} repetitions={len(reps)} "
          f"({sum(r['traced'] for r in reps)} traced) in {time.monotonic() - start:.1f} s")
    for name in names:
        if name in summary:
            m = summary[name]
            print(f"  {name:32s} {m['value']:12.6g} {m['unit']:6s} q1={m['q1']:.6g} "
                  f"median={m['median']:.6g} q3={m['q3']:.6g} n={m['n']}")
    print(f"  {'failure_share':32s} {failed / max(attempted, 1):12.6g} ratio  "
          f"({failed} failed / {attempted} attempted)")
    for rep in reps:
        for err in rep.get("errors", []):
            print(f"  error: {err}")
    record = {"environment": env, "workload": args.workload,
              "why": workloads.WORKLOADS[args.workload].why, "trace": args.trace,
              "summary": summary,
              "attempted": attempted, "failed": failed, "repetitions": reps}
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    metrics = {name: {"value": float(summary[name]["value"]), "unit": summary[name]["unit"]}
               for name in names if name in summary}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
