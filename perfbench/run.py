"""The minrel benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {network,select,repro} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

It generates the workload's inputs from the seed into ``perfbench/_work``
and starts a worker process (``worker.py``) that imports minrel once. Then,
until S seconds have passed, each round times ``import minrel`` in a fresh
interpreter and has the worker run one job: one client, a closed loop,
jobs back to back. Afterwards it checks the files the jobs wrote against
an independent recomputation and prints as its last line one JSON object,
``{"correct", "attempted", "failed", "metrics"}``, with medians over the
run. With ``--trace 0`` the metrics are the end-to-end ones, from an
untraced worker; with ``--trace 1`` they are the per-layer ones, from a
traced worker. The line before it holds the facts that explain noise:
CPU count, versions, load, CPU steal and the spread within the run.

minrel is imported from ``src/`` of the checkout. Without it the command
exits with status 2 and prints no result. See README.md for the metrics,
the inputs and how the bounds were set.
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
import threading
import time

import numpy

from workloads import PREPARE, SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.numpy_import_s": "s",
    "setup.minrel_import_s": "s",
    "cli.read_s": "s",
    "cli.read_bytes": "B",
    "cli.rows_read": "count",
    "cli.emit_s": "s",
    "cli.emit_bytes": "B",
    "ranks.sorts": "count",
    "ranks.sort_s": "s",
    "matrix.transform_cache_s": "s",
    "matrix.pairwise_iota_s": "s",
    "matrix.pairwise_max_iota_sq_s": "s",
    "matrix.pairwise_spearman_s": "s",
    "matrix.cells": "count",
    "ranking.score_s": "s",
    "coeff.direct_s": "s",
    "coeff.direct_calls": "count",
    "experiments.run_s": "s",
    "experiments.reps": "count",
    "synth.generate_s": "s",
    "trace.job_s": "s",
}

# Longest a run may overrun --seconds (one job and one import timing)
# before the worker is killed.
WORKER_GRACE_S = 120

IMPORT_TIMER = """
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import minrel
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

MINREL_TIMER = """
import time
t0 = time.perf_counter()
import minrel
print(time.perf_counter() - t0)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def _time_import(code: str) -> list[float]:
    """Run ``code`` in a fresh interpreter and return the times it prints."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=_child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return [float(v) for v in done.stdout.split()]


def _cpu_times() -> list[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(v) for v in handle.readline().split()[1:9]]


def _loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return [float(v) for v in handle.read().split()[:3]]


def _blas() -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _environment(cpu_start, cpu_end, load_start, load_end) -> dict:
    spent = [end - start for start, end in zip(cpu_start, cpu_end)]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        # /proc/stat cpu fields: user nice system idle iowait irq softirq steal
        "steal_pct": 100.0 * spent[7] / max(1, sum(spent)),
    }


def _expect(worker: subprocess.Popen, word: str) -> None:
    line = worker.stdout.readline()
    if line.strip() != word:
        raise RuntimeError(f"worker said {line!r}, expected {word!r}")


def _run(workdir: str, job, seconds: float, trace: bool) -> tuple[dict, list[list[float]]]:
    """The measured loop: each round times one fresh interpreter's imports,
    then has the worker run one job; rounds start until ``seconds`` pass."""
    spec = os.path.join(workdir, "spec.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump({"calls": job.calls, "outputs": job.outputs, "trace": trace}, handle)
    code = IMPORT_TIMER if trace else MINREL_TIMER
    imports = []
    with open(os.path.join(workdir, "worker.err"), "w+", encoding="utf-8") as errors:
        worker = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec],
            env=_child_env(),
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=errors,
            text=True,
        )
        watchdog = threading.Timer(seconds + WORKER_GRACE_S, worker.kill)
        watchdog.start()
        try:
            _expect(worker, "ready")
            _time_import(code)  # writes the byte-code cache; not counted
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                imports.append(_time_import(code))
                worker.stdin.write("job\n")
                worker.stdin.flush()
                _expect(worker, "done")
            worker.stdin.close()
            summary = json.loads(worker.stdout.readline())
            worker.wait()
        finally:
            watchdog.cancel()
            if worker.poll() is None:
                worker.kill()
            worker.wait()
            worker.stdout.close()
            errors.seek(0)
            sys.stderr.write(errors.read())
    if worker.returncode != 0:
        raise RuntimeError(f"worker exited with status {worker.returncode}")
    return summary, imports


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _metrics(trace: bool, worker: dict, imports) -> dict:
    """Medians over the run: of the import timings and of the jobs."""
    setup = [statistics.median(column) for column in zip(*imports)]
    job_s = statistics.median(worker["job_s"])
    if trace:
        values = {"setup.numpy_import_s": setup[0], "setup.minrel_import_s": setup[1], "trace.job_s": job_s}
        for name in PER_LAYER:
            if name not in values:
                values[name] = statistics.median(job.get(name, 0) for job in worker["layers"])
        units = PER_LAYER
    else:
        values = {"setup_s": setup[0], "job_s": job_s, "peak_rss_mb": worker["peak_rss_kb"] / 1024.0}
        units = END_TO_END
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minrel", "__init__.py")):
        print(f"error: no minrel package under {SRC}", file=sys.stderr)
        return 2
    cpu_start, load_start = _cpu_times(), _loadavg()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        job = PREPARE[args.workload](workdir, args.seed, SIZES[args.size])
        worker, imports = _run(workdir, job, args.seconds, bool(args.trace))
        if not worker["job_s"]:
            print("error: every job failed", file=sys.stderr)
            return 1
        problems = job.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if worker["distinct_outputs"] > 1:
        problems.append(f"{worker['distinct_outputs']} different outputs from identical jobs")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = _metrics(bool(args.trace), worker, imports)
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": worker["jobs"],
        "job_s_quartiles": _quartiles(worker["job_s"]),
        "import_s_quartiles": _quartiles([sum(sample) for sample in imports]),
        **_environment(cpu_start, _cpu_times(), load_start, _loadavg()),
    }
    print(json.dumps({"facts": facts}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": worker["calls"],
                "failed": worker["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
