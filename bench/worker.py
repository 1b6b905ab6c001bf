"""One benchmark repetition in a fresh interpreter.

Usage: python3 bench/worker.py JOB.json

The job file names the config, the output directory, the stages and the
result file.  The parent sets the BLAS thread count and PYTHONPATH before
this interpreter starts.  The worker imports fredstab, notes when the
import finished (the end of set-up), then calls ``fredstab.cli_io.main``
once per stage and times each call.  With tracing on, the spans module
wraps fredstab's public functions after the import and before the first
stage.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback


def write_result(job: dict, result: dict) -> None:
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from fredstab import cli_io
    result = {"ready": time.monotonic(), "stages": [],
              "fredstab_file": os.path.abspath(cli_io.__file__)}
    # written after the import and after every stage, so a crash leaves
    # the stages that finished
    write_result(job, result)
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer(job["workload"])
        tracer.install()
    for stage in job["stages"]:
        argv = [stage, "--config", job["config"], "--out", job["out"]]
        if stage == "sweep":
            argv += ["--jobs", str(job["jobs"])]
        if tracer is not None:
            tracer.stage = stage
        error = ""
        t0 = time.perf_counter()
        try:
            code = cli_io.main(argv)
        except Exception:     # a crash is a failed stage, reported to the parent
            code, error = -1, traceback.format_exc()
        wall = time.perf_counter() - t0
        result["stages"].append({"stage": stage, "code": code, "wall_s": wall,
                                 "error": error})
        if stage in job["snapshots"] and code == 0:
            # later stages rewrite report.json (report drops the decay fits)
            shutil.copyfile(os.path.join(job["out"], "report.json"),
                            job["snapshots"][stage])
        if code != 0:
            break
        write_result(job, result)
    if tracer is not None:
        result["trace"] = tracer.summary(job["jobs"])
    write_result(job, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
