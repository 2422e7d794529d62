"""Reference figure: the pairwise pass at workers=1 against workers=2.

Usage, from the root of a checkout:

    python3 perfbench/workers_ref.py [--seed N] [--repeats K]

Builds the network workload's input in memory, ranks it once, and prints
as JSON the median wall time of ``pairwise_matrix`` per metric and worker
count over K repeats, the transform cache excluded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from minrel import Dataset, pairwise_matrix, transform_cache  # noqa: E402
from workloads import SIZES, _product_blocks  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    size = SIZES["full"]
    names, data, _ = _product_blocks(
        np.random.default_rng([args.seed, 1]),
        size["network_m"],
        size["network_blocks"],
        size["network_noise"],
    )
    dataset = Dataset(names=tuple(names), values=data)
    cache = transform_cache(dataset)
    figures = {}
    for metric in ("iota", "max_iota_sq", "spearman"):
        for workers in (1, 2):
            times = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                pairwise_matrix(dataset, metric, cache=cache, workers=workers)
                times.append(time.perf_counter() - start)
            figures[f"{metric} workers={workers}"] = statistics.median(times)
    print(json.dumps({"shape": list(data.shape), "seed": args.seed, "median_s": figures}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
