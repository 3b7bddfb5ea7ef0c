"""Benchmark worker processes; started by run.py with PYTHONPATH pointing at src.

    worker.py session JOBS OUT TRACE   one interpreter runs a job list in-process
    worker.py setup GROUPS             set-up only: import, build the groups, exit
    worker.py cold SPANS ARGV...       one traced CLI invocation (fresh interpreter)

A session worker first imports permdeg and builds and validates the catalog
groups its jobs name, then prints ``ready`` and runs the jobs one after
another through ``permdeg.cli.main``, each with ``--json`` pointing at a
scratch file.  It writes per-job exit codes, latencies and report bytes,
plus its own wall, CPU and peak RSS for the job list, to OUT.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _tracer(enabled: bool):
    if not enabled:
        return None
    import tracer
    t = tracer.Tracer()
    tracer.install(t)
    return t


def _setup(groups: list[str]) -> None:
    from permdeg import catalog
    for name in groups:
        catalog.parse_group_name(name)
    print("ready", flush=True)


def _run_job(main, argv: list[str], json_path: str) -> tuple[int, float, str | None, str]:
    with contextlib.suppress(FileNotFoundError):
        os.remove(json_path)
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--json", json_path])
    except Exception:   # a crashing job is a failed job, not a crashed benchmark
        code = -1
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    try:
        with open(json_path, encoding="utf-8") as handle:
            report = handle.read()
    except FileNotFoundError:
        report = None
    return code, latency, report, err.getvalue()[-2000:]


def session(jobs_path: str, out_path: str, trace: bool) -> None:
    with open(jobs_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = _tracer(trace)
    _setup(spec["groups"])
    from permdeg import cli

    json_path = out_path + ".report.json"
    results = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for i, argv in enumerate(spec["argv"]):
        if tracer is not None:
            tracer.job = str(i)
        code, latency, report, err = _run_job(cli.main, argv, json_path)
        if tracer is not None:
            tracer.job_walls[str(i)] = latency
        results.append({"code": code, "latency": latency, "report": report, "stderr": err})
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with contextlib.suppress(FileNotFoundError):
        os.remove(json_path)
    if tracer is not None:
        tracer.dump(out_path + ".spans.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"wall": wall, "cpu": cpu, "rss_kb": rss_kb, "jobs": results}, handle)


def cold(spans_path: str, argv: list[str]) -> int:
    tracer = _tracer(True)
    from permdeg import cli
    tracer.job = "0"
    start = time.perf_counter()
    code = cli.main(argv)
    tracer.job_walls["0"] = time.perf_counter() - start
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "session":
        session(sys.argv[2], sys.argv[3], sys.argv[4] == "1")
    elif mode == "setup":
        _setup(sys.argv[2:])
    elif mode == "cold":
        sys.exit(cold(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown worker mode {mode!r}")
