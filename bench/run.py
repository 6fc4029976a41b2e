"""Benchmark of postgroup-lab: time to a verified result on four workloads.

Run from anywhere, against the checkout this file sits in:

    python3 bench/run.py --workload free-words --seed 0 --seconds 20 --trace 0

Without --workload every workload in BENCHMARK.json runs, one after
another.  Each pass runs in a fresh single-threaded interpreter
(bench/worker.py) with PYTHONPATH set to this checkout's src/, so every
pass starts with empty memo caches.  Passes repeat until --seconds have
gone by.  Times are taken with each op at its fastest over the passes
of the run; set-up time and memory are medians.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer
metrics, taken from spans around the benchmark's own library calls,
and the tracing overhead.  A human-readable report comes first; the
last line of standard output is one JSON object.  The full record,
with the environment and, when traced, every span, is written to
bench/results/ when the run ends.

Exit codes: 0 every op verified, 1 some op failed or the layer calls
left too much of a traced pass's op time uncovered, 2 no result (no
library in this checkout, or a pass that crashed or ran out of time).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
RESULTS = BENCH / "results"

PASS_TIMEOUT_S = 150
# the fastest time of an op is taken over at least this many passes
MIN_PASSES = 3
# the layer calls must cover this share of the ops' time in a traced
# pass.  The rest is the benchmark's own checks and glue, about 3.6 % on
# tensor-twist and finite-tables; the margin lets their layers get about
# three times faster before the glue alone reaches the floor.
COVERAGE_FLOOR = 0.9


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_worker(name: str, seed: int, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    command = [sys.executable, str(BENCH / "worker.py"), name, str(seed), mode]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {name} {mode} run took over {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"a {name} {mode} run exited with code {proc.returncode}: "
            f"{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop of passes, each in a fresh interpreter.

    With tracing, untraced and traced passes alternate, and one more
    pass makes at least two of each kind.  After that, a pass starts
    only if a pass of median length still ends within the measuring
    time, so that runs do not overshoot it.
    """
    passes: list[dict] = []
    lengths: list[float] = []
    start = perf_counter()
    while len(passes) < MIN_PASSES + trace or (
        perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        begun = perf_counter()
        mode = "traced" if trace and len(passes) % 2 else "pass"
        passes.append(run_worker(name, seed, mode))
        lengths.append(perf_counter() - begun)
    return passes


def fastest_ops(passes: list[dict]) -> list[float]:
    """Each op's fastest latency over the passes, in ms.

    Every pass of a run does the same work from the same cold start,
    so an op's fastest time is its cost with the least interference
    from other work on the host.
    """
    if len({len(p["op_ms"]) for p in passes}) != 1:
        raise BenchError("the passes of one run did not run the same ops")
    return [min(times) for times in zip(*(p["op_ms"] for p in passes))]


def fastest_wall(passes: list[dict]) -> float:
    """One pass with every op at its fastest, plus the least time between ops."""
    between = min(p["wall_s"] - sum(p["op_ms"]) / 1e3 for p in passes)
    return sum(fastest_ops(passes)) / 1e3 + between


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10), interpolating between ranks."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    return {
        "wall_s": fastest_wall(passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "op_p90_ms": percentile(fastest_ops(passes), 90),
    }


def per_layer(spec: dict, passes: list[dict]) -> dict[str, float]:
    """Medians over the traced passes; a layer a workload never enters reads 0."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = {
        m["name"]: statistics.median(p["layers"].get(m["name"], 0) for p in traced)
        for m in spec["per_layer"]
    }
    values["trace.overhead_ratio"] = fastest_wall(traced) / fastest_wall(untraced)
    return values


def summarize(spec: dict, passes: list[dict], trace: bool) -> dict:
    """The result line: verdict, op counts and the metrics of this mode."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    covered = all(
        p["layers"]["trace.coverage"] >= COVERAGE_FLOOR for p in passes if p["traced"]
    )
    if trace:
        values, listed = per_layer(spec, passes), spec["per_layer"]
    else:
        untraced = [p for p in passes if not p["traced"]]
        values, listed = end_to_end(untraced), spec["end_to_end"]
    return {
        "correct": failed == 0 and covered,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def report(name: str, env: dict, passes: list[dict], result: dict) -> None:
    traced = sum(p["traced"] for p in passes)
    print(f"[{name}] {len(passes)} passes ({traced} traced), env {json.dumps(env)}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    if not traced:
        # printed only: where op sizes leave a gap at the middle, the
        # median jumps across it from run to run
        p50 = percentile(fastest_ops(passes), 50)
        print(f"  op_p50_ms = {p50:.6g} ms (not a listed metric)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    checked = sum(p["digest_checked"] for p in passes)
    print(f"  output digest {passes[0]['digest']}, checked against the pin in "
          f"{checked} of {len(passes)} passes")
    for p in passes:
        for failure in p["failures"]:
            print(f"  FAILED {failure}")
    if not result["correct"] and not failed:
        print(f"  FAILED layer calls cover less than {COVERAGE_FLOOR} of a traced pass")


def write_results(name, seed, trace, env, passes, result) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    spans = [p.pop("spans") for p in passes if "spans" in p]
    record = {
        "workload": name, "environment": env, "result": result, "passes": passes,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        columns = ["name", "start", "end", "parent", "op", "size"]
        stem.with_name(stem.name + "-spans.json").write_text(
            json.dumps({"columns": columns, "passes": spans}) + "\n"
        )


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(seed)
    passes = measure(name, seed, seconds, trace)
    env["package"] = passes[0]["package"]
    result = summarize(spec, passes, trace)
    report(name, env, passes, result)
    write_results(name, seed, trace, env, passes, result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "postgroup_lab" / "__init__.py").is_file():
        print(f"no postgroup_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    code = 0
    for name in [args.workload] if args.workload else names:
        try:
            status = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
            code = max(code, status)
        except BenchError as exc:
            print(f"[{name}] no result: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
