"""permdeg benchmark: run one seeded workload, check every output, report metrics.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Run it from the repository root.  Workloads (see bench/README.md):

    cli-cold        one fresh ``python3 -m permdeg.cli`` per job
    verify-session  one interpreter runs ``verify`` jobs in-process
    trace-session   one interpreter runs the four traces on M12, M23, M24

Every workload is a closed loop with one client: a job starts when the one
before it has finished.  With ``--trace 0`` the last line of standard output
is a JSON object holding the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` the job list runs once untraced and once traced and the line
holds the per-layer metrics.  Any wrong exit code, value or report makes the
run incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
SETUPS = 5            # set-ups per run; setup_s is their median
DEADLINE_S = 165.0    # a run stops starting jobs after this long


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """One pass over a job list: its timings, resources and job results."""

    def __init__(self, jobs: list[dict]):
        self.jobs = jobs
        self.wall = self.cpu = 0.0
        self.rss_kb = 0
        self.payloads: list[dict] = []   # tracer output, one per process


def _remaining(started: float) -> float:
    return max(1.0, DEADLINE_S - (time.perf_counter() - started))


def _fail_rest(jobs: list[dict], why: str) -> None:
    for job in jobs:
        job.setdefault("code", None)
        job.setdefault("latency", 0.0)
        job.setdefault("report", None)
        job.setdefault("stderr", why)


# ---------------------------------------------------------------------------
# cli-cold


def cold_setup(seed: int, rounds: int, work: Path) -> tuple[list[dict], float]:
    """Write the relabelled inputs and check that a fresh interpreter can
    import permdeg (which also leaves its bytecode cache warm)."""
    start = time.perf_counter()
    files = work / "inputs"
    files.mkdir(parents=True, exist_ok=True)
    jobs = workloads.cold_jobs(random.Random(seed), rounds, files)
    subprocess.run([sys.executable, "-c", "import permdeg.cli"], env=_env(), cwd=ROOT,
                   check=True, timeout=60)
    return jobs, time.perf_counter() - start


def cold_run(jobs: list[dict], work: Path, trace: bool, started: float) -> Run:
    run = Run(jobs)
    env = _env()
    begin = time.perf_counter()
    for i, job in enumerate(jobs):
        if time.perf_counter() - started > DEADLINE_S:
            _fail_rest(jobs[i:], "not run: time budget spent")
            break
        report_path = work / f"report-{i}.json"
        spans_path = work / f"spans-{i}.json"
        argv = [*job["argv"], "--json", str(report_path)]
        if trace:
            cmd = [sys.executable, WORKER, "cold", str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "permdeg.cli", *argv]
        err_path = work / "stderr.txt"
        with open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(_remaining(started), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            job["latency"] = time.perf_counter() - start
            timer.cancel()
        proc.returncode = job["code"] = os.waitstatus_to_exitcode(status)
        run.cpu += usage.ru_utime + usage.ru_stime
        run.rss_kb = max(run.rss_kb, usage.ru_maxrss)
        job["report"] = report_path.read_text("utf-8") if report_path.exists() else None
        job["stderr"] = err_path.read_text("utf-8")[-2000:]
        if trace and spans_path.exists():
            run.payloads.append(json.loads(spans_path.read_text("utf-8")))
    run.wall = time.perf_counter() - begin
    return run


# ---------------------------------------------------------------------------
# sessions


def _spawn(cmd: list[str], work: Path) -> tuple[subprocess.Popen, bool]:
    """Start a worker and wait for its ``ready`` line."""
    err = open(work / "worker-stderr.txt", "w", encoding="utf-8")
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=_env(),
                                cwd=ROOT, text=True)
    finally:
        err.close()
    return proc, proc.stdout.readline().strip() == "ready"


def session_setup(workload: str, seed: int, rounds: int, work: Path,
                  trace: bool, setup_only: bool):
    """Generate the job list, start a worker, and wait until it has imported
    permdeg and built and validated the session's catalog groups."""
    start = time.perf_counter()
    rng = random.Random(seed)
    if workload == "verify-session":
        jobs = workloads.verify_jobs(rng, rounds)
    else:
        jobs = workloads.trace_jobs(rng, rounds)
    groups = workloads.session_groups(workload)
    if setup_only:
        cmd = [sys.executable, WORKER, "setup", *groups]
    else:
        spec_path = work / "jobs.json"
        spec_path.write_text(json.dumps({"groups": groups,
                                         "argv": [j["argv"] for j in jobs]}), "utf-8")
        cmd = [sys.executable, WORKER, "session", str(spec_path),
               str(work / "out.json"), "1" if trace else "0"]
    proc, ready = _spawn(cmd, work)
    elapsed = time.perf_counter() - start
    if setup_only:
        proc.communicate(timeout=60)
    return jobs, elapsed, proc, ready


def session_run(jobs: list[dict], proc: subprocess.Popen, ready: bool, work: Path,
                trace: bool, started: float) -> Run:
    run = Run(jobs)
    try:
        proc.communicate(timeout=_remaining(started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    out_path = work / "out.json"
    if not ready or proc.returncode != 0 or not out_path.exists():
        why = (work / "worker-stderr.txt").read_text("utf-8")[-2000:]
        _fail_rest(jobs, f"worker failed (exit {proc.returncode}): {why}")
        return run
    out = json.loads(out_path.read_text("utf-8"))
    for job, result in zip(jobs, out["jobs"]):
        job.update(result)
    run.wall, run.cpu, run.rss_kb = out["wall"], out["cpu"], out["rss_kb"]
    if trace:
        run.payloads.append(json.loads((work / "out.json.spans.json").read_text("utf-8")))
    out_path.unlink()
    return run


# ---------------------------------------------------------------------------
# checks and metrics


def check(run: Run) -> list[str]:
    """Gate every job; returns one line per failed job."""
    failures = []
    for i, job in enumerate(run.jobs):
        report = None
        if job.get("report"):
            try:
                report = json.loads(job["report"])
            except ValueError:
                pass
        why = workloads.check_job(job, job.get("code"), report)
        pair = job.get("pair")
        if why is None and pair is not None and run.jobs[pair].get("report") != job["report"]:
            why = "--json bytes differ between --jobs 1 and --jobs 2"
        job["ok"] = why is None
        if why is not None:
            failures.append(f"job {i} {' '.join(job['argv'])}: {why}; "
                            f"stderr: {job.get('stderr', '')[-300:]!r}")
    return failures


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten jobs beyond it: its value,
    the percentile and the number of jobs beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def end_to_end(setups: list[float], run: Run) -> dict:
    latencies = [job["latency"] for job in run.jobs]
    value, pct, beyond = tail(latencies)
    print(f"jobs: {len(latencies)}; job_tail_ms is p{pct:.1f} ({beyond} jobs beyond it)")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": run.wall,
        "cpu_s": run.cpu,
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_tail_ms": 1000 * value,
        "peak_rss_mb": run.rss_kb / 1024,
        "ok_share": sum(1 for job in run.jobs if job.get("ok")) / len(run.jobs),
    }


def per_layer(plain: Run, traced: Run) -> dict:
    layers = tracer.aggregate(traced.payloads)
    layers["cli.json_bytes"] = sum(len(job["report"].encode("utf-8"))
                                   for job in traced.jobs if job.get("report"))
    layers["trace.overhead_ratio"] = traced.wall / plain.wall if plain.wall else 0.0
    single = {1: 0.0, 2: 0.0}
    for job in plain.jobs:
        if "--jobs" in job["argv"]:
            single[int(job["argv"][job["argv"].index("--jobs") + 1])] += job["latency"]
    layers["verify.jobs2_over_jobs1"] = single[2] / single[1] if single[1] else 0.0
    return layers


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "verify-session", "trace-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "permdeg" / "cli.py").is_file():
        print(f"error: no permdeg source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    started = time.perf_counter()
    rounds = max(1, round(args.seconds / workloads.ROUND_S[args.workload]))
    if args.trace:
        rounds = max(1, rounds // 2)   # the list runs twice: untraced, then traced
    work = ROOT / ".bench_build" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runs = []
        setups = []
        for traced in ((False, True) if args.trace else (False,)):
            if args.workload == "cli-cold":
                for _ in range(1 if args.trace else SETUPS):
                    jobs, elapsed = cold_setup(args.seed, rounds, work)
                    setups.append(elapsed)
                runs.append(cold_run(jobs, work, traced, started))
            else:
                count = 1 if args.trace else SETUPS
                for k in range(count):
                    jobs, elapsed, proc, ready = session_setup(
                        args.workload, args.seed, rounds, work, traced, k < count - 1)
                    setups.append(elapsed)
                runs.append(session_run(jobs, proc, ready, work, traced, started))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [line for run in runs for line in check(run)]
    attempted = sum(len(run.jobs) for run in runs)
    if args.trace:
        values = per_layer(runs[0], runs[1])
        coverage = values["trace.coverage"]
        if not 0.95 <= coverage <= 1.0 + 1e-9:
            failures.append(f"layer self times cover {coverage:.3f} of job wall time")
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setups, runs[0])
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if m["unit"] in ("count", "B"):
            value = int(value)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:48s} {value:>16.6g} {m['unit']}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    failed = sum(1 for run in runs for job in run.jobs if not job.get("ok"))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
