"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py <workload> <seed> <pass|traced>

The memo caches of the library start empty, as in every command-line
call.  Set-up time runs from before the library is imported to the
last seeded input.  The record is printed as one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

from spans import NullTracer, Tracer, coverage, layer_totals, us_per_letter

# word lengths of the short and long jmap buckets
SHORT_LETTERS = 8
LONG_LETTERS = 40


def layer_metrics(spans: list, counts: dict) -> dict:
    """The per-layer metrics of one traced pass, by their benchmark names."""
    metrics: dict[str, float] = {}
    totals = layer_totals(spans)
    for name, entry in totals.items():
        metrics[f"{name}.s"] = entry["s"]
        metrics[f"{name}.calls"] = entry["calls"]
    jmap = "free_postgroup.jmap"
    for bucket, low, high in (("short", 0, SHORT_LETTERS), ("long", LONG_LETTERS, 1e9)):
        metrics[f"{jmap}.us_per_letter.{bucket}"] = us_per_letter(spans, jmap, low, high)
    metrics["free_postgroup.letters"] = sum(
        totals.get(name, {"size": 0})["size"] for name in (jmap, "free_postgroup.kmap")
    )
    metrics["trace.coverage"] = coverage(spans)
    metrics.update(counts)
    return metrics


def run(name: str, seed: int, mode: str, **size) -> dict:
    """Set up, then run one pass.

    mode is "pass" or "traced".  Size overrides shrink a
    workload for tests and switch the pinned digest off.
    """
    traced = mode == "traced"
    tracer = Tracer() if traced else NullTracer()
    start = perf_counter()
    import workloads  # imports postgroup_lab, so it counts as set-up

    workloads.require_checkout_package()
    inputs = workloads.WORKLOADS[name].setup(seed, tracer, **size)
    setup_s = perf_counter() - start
    expected = None if size else workloads.pinned_digest(name, seed)
    record = workloads.run_pass(name, inputs, tracer, expected)
    record["setup_s"] = setup_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["package"] = workloads.postgroup_lab.__file__
    record["traced"] = traced
    if traced:
        record["layers"] = layer_metrics(tracer.spans, record["counts"])
        record["spans"] = tracer.spans
    return record


def main(argv: list[str]) -> int:
    print(json.dumps(run(argv[1], int(argv[2]), argv[3])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
