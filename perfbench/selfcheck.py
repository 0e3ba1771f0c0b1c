"""Self-check of perfbench: every workload, end to end, on tiny corpora.

    python3 perfbench/selfcheck.py

Runs each workload untraced and traced at a corpus size that finishes
in seconds, and fails unless every run is correct and reports every
metric ``BENCHMARK.json`` names, each end-to-end metric above zero.
It checks the benchmark's plumbing, not the program's speed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run

#: tiny corpus sizes; batch-2k-full keeps an upper rung for its growth exponents
TINY_ENTITIES = {"batch-10k": 150, "batch-2k-full": 60, "stream-2k": 60, "serve-1k": 40}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    failures = []
    for workload in bench["workloads"]:
        full = run.WORKLOADS[workload["name"]]
        upper = full.upper and dataclasses.replace(
            full.upper, entities=TINY_ENTITIES[full.upper.name]
        )
        tiny = dataclasses.replace(full, entities=TINY_ENTITIES[full.name], upper=upper)
        for trace, table in ((False, "end_to_end"), (True, "per_layer")):
            lines, result = run.measure(tiny, seed=1, seconds=0.0, trace=trace, references={})
            label = f"{tiny.name} trace={int(trace)}"
            if result is None or not result["correct"]:
                failures.append(f"{label}: " + "; ".join(lines[-3:]))
                continue
            names = {entry["name"] for entry in bench[table]}
            if set(result["metrics"]) != names:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            if not trace:
                zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                if zero:
                    failures.append(f"{label}: zero end-to-end metrics {zero}")
            print(f"{label}: attempted {result['attempted']} failed {result['failed']}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
