"""Job runner: one client in one process runs jobs back to back.

Usage: python3 worker.py SPEC.json

SPEC names the job's ``minrel.cli.main`` calls, their output files and
whether to trace. The process imports minrel once, runs one untimed
warm-up job and prints ``ready``. Then, for each ``job`` line on stdin, it
runs one job and prints ``done``; at the end of stdin it prints one JSON
object with its figures. ``run.py`` decides when the run ends. A job's
clock starts when it enters its first ``main(argv)`` call and stops when its last call has returned, by
which time that call has written and closed its ``--output`` file.

With tracing on, public functions of minrel are wrapped with timers and
counters, at every module binding that refers to them, and each layer's
self time (its span minus its child spans) is summed per job. Tracing is
off in the runs that give the end-to-end numbers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
import time
from collections import defaultdict


class Tracer:
    """Nested spans and counters, kept in memory for the current job."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, function, span, count=None):
        """``span`` is a name or a function of the call's arguments giving one;
        ``count(counts, args, kwargs, result)`` adds the call's work counts."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            name = span(*args, **kwargs) if callable(span) else span
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced


def _rebind(function, wrapper, modules) -> None:
    """Point every binding of ``function`` in ``modules`` at ``wrapper``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is function:
                setattr(module, attr, wrapper)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def install_tracer(tracer: Tracer) -> None:
    """Wrap the public functions of each layer the benchmark reports."""
    import minrel.cli
    import minrel.coeff
    import minrel.experiments
    import minrel.matrix
    import minrel.ranking
    import minrel.ranks
    import minrel.synth

    package = [m for n, m in sorted(sys.modules.items()) if n == "minrel" or n.startswith("minrel.")]

    def add(key):
        def count(counts, args, kwargs, result):
            counts[key] += 1

        return count

    def count_read(counts, args, kwargs, result):
        counts["cli.read_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        counts["cli.rows_read"] += result.m

    def count_cells(counts, args, kwargs, result):
        counts["matrix.cells"] += result.values.size

    def count_reps(counts, args, kwargs, result):
        counts["experiments.reps"] += _arg(args, kwargs, 1, "reps")

    # (defining module, function, span, counter, modules whose bindings to wrap)
    layers = [
        (minrel.cli, "main", "cli.emit_s", None, package),
        (minrel.cli, "read_dataset", "cli.read_s", count_read, package),
        (minrel.ranks, "fractional_ranks", "ranks.sort_s", add("ranks.sorts"), package),
        (minrel.matrix, "transform_cache", "matrix.transform_cache_s", None, package),
        (
            minrel.matrix,
            "pairwise_matrix",
            lambda dataset, metric, **_: f"matrix.pairwise_{metric}_s",
            count_cells,
            package,
        ),
        (minrel.ranking, "rank_variables", "ranking.score_s", None, package),
        (minrel.experiments, "run_experiment", "experiments.run_s", count_reps, package),
        (minrel.synth, "gen_multiplication", "synth.generate_s", None, package),
        (minrel.synth, "gen_linear", "synth.generate_s", None, package),
        (minrel.synth, "gen_combined", "synth.generate_s", None, package),
        # The direct two-column path, as the experiments call it.
        (minrel.coeff, "minrel_profile", "coeff.direct_s", add("coeff.direct_calls"), [minrel.experiments]),
        (minrel.coeff, "spearman", "coeff.direct_s", add("coeff.direct_calls"), [minrel.experiments]),
    ]
    for module, attr, span, count, where in layers:
        function = getattr(module, attr)
        _rebind(function, tracer.wrap(function, span, count), where)


def _digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    import minrel.cli as cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install_tracer(tracer)
    calls = [list(argv) for argv in spec["calls"]]
    outputs = spec["outputs"]

    def run_job():
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        codes = [cli.main(argv) for argv in calls]
        elapsed = time.perf_counter() - start
        return elapsed, sum(code != 0 for code in codes)

    run_job()  # warm-up, untimed
    job_s, layers, digests = [], [], set()
    jobs = failed = 0
    print("ready", flush=True)
    for command in sys.stdin:
        if command.strip() != "job":
            raise ValueError(f"unknown command {command!r}")
        elapsed, job_failed = run_job()
        jobs += 1
        failed += job_failed
        if not job_failed:
            job_s.append(elapsed)
            if tracer is not None:
                sizes = sum(os.path.getsize(path) for path in outputs)
                layers.append({**tracer.self_s, **tracer.counts, "cli.emit_bytes": sizes})
            digests.add(_digest(outputs))
        print("done", flush=True)
    print(
        json.dumps(
            {
                "jobs": jobs,
                "calls": jobs * len(calls),
                "failed": failed,
                "distinct_outputs": len(digests),
                "job_s": job_s,
                "layers": layers,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
