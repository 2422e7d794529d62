"""Smoke test of the benchmark itself; finishes in seconds.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py

It runs every workload at the tiny "smoke" size in both modes, output
checks included, makes sure the checks reject a tampered output, and makes
sure the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
from workloads import PREPARE, SIZES, WORKLOADS  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_checked_at_smoke_size(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                  "--trace", trace, "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    facts = json.loads(done.stdout.splitlines()[-2])["facts"]
    assert {"nproc", "python", "numpy", "blas", "loadavg_end", "steal_pct"} <= set(facts)


def _tamper_json(path, edit):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    edit(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


TAMPER = {
    "network": lambda p: p["values"]["T1"].update(F01=p["values"]["T1"]["F01"] + 1e-9),
    "select": lambda p: p["ranking"][-1].update(score=p["ranking"][-1]["score"] + 1e-9),
    "repro": lambda p: p["cells"][0].update(mean=p["cells"][0]["mean"] + 0.5),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_on_real_output_and_reject_tampered(tmp_path, workload):
    from minrel.cli import main

    job = PREPARE[workload](str(tmp_path), 7, SIZES["smoke"])
    assert all(main(list(argv)) == 0 for argv in job.calls)
    assert job.check() == []
    _tamper_json(job.outputs[0], TAMPER[workload])
    assert job.check() != []


def test_self_time_excludes_child_spans():
    tracer = worker.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.05), "inner")
    outer = tracer.wrap(lambda: (inner(), time.sleep(0.01)), "outer")
    start = time.perf_counter()
    outer()
    total = time.perf_counter() - start
    assert tracer.self_s["inner"] >= 0.05
    assert tracer.self_s["outer"] >= 0.01
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(total, abs=0.005)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _bench("--workload", "network", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
