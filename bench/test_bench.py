"""Tests of the benchmark harness itself.

    python3 -m pytest bench

Smoke passes of every workload run in-process at tiny sizes; the
negative controls show that a wrong result lands in failed_ratio and
in the exit code.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from postgroup_lab.errors import AxiomError  # noqa: E402
from postgroup_lab.finite_postgroup import validate_postgroup  # noqa: E402
from postgroup_lab.tensor_postlie import TensorPoly, kmap_tensor_inverse  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = {
    "free-words": {"words_per_magma": 3, "max_len": 12},
    # the workload's own size: at degree 3 the ops are so short that the
    # benchmark's own glue lowers trace.coverage below its floor
    "tensor-twist": {"degree": 4},
    "magnus-series": {"order": 2},
    "finite-tables": {"max_order": 6},
}


def smoke_passes(name: str) -> list[dict]:
    return [worker.run(name, 7, mode, **SMOKE[name]) for mode in ("pass", "traced")]


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_pass_verifies_every_op(name):
    passes = smoke_passes(name)
    for trace in (False, True):
        result = run.summarize(SPEC, passes, trace)
        assert result["correct"], passes[0]["failures"]
        assert result["attempted"] >= 2 and result["failed"] == 0
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in listed]


def test_per_layer_list_names_every_span_and_count():
    names = {m["name"] for m in SPEC["per_layer"]}
    produced = {"trace.overhead_ratio"}
    for name in SMOKE:
        produced |= set(smoke_passes(name)[1]["layers"])
    assert produced == names


def test_wrong_inverse_image_is_a_failed_op(monkeypatch, tmp_path):
    def off_by_one(poly, max_degree=8):
        image = kmap_tensor_inverse(poly, max_degree)
        word, coeff = next(iter(image.terms.items()))
        return TensorPoly({**image.terms, word: coeff + 1})

    monkeypatch.setattr(workloads, "kmap_tensor_inverse", off_by_one)
    passes = [worker.run("tensor-twist", 0, "pass", degree=2)]
    # every K^-1 op fails; the product law holds on all pairs
    assert passes[0]["failed"] == len(workloads.words_of_degree(2, 2))
    monkeypatch.setattr(run, "measure", lambda *args: passes)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.run_workload(SPEC, "tensor-twist", 0, 1, False) == 1


def test_accepted_corruption_is_a_failed_op(monkeypatch):
    def accepting(*args):
        try:
            return validate_postgroup(*args)
        except AxiomError:
            return None

    monkeypatch.setattr(workloads, "validate_postgroup", accepting)
    record = worker.run("finite-tables", 0, "pass", max_order=4)
    # the refusal ops fail, and only they
    assert record["failed"] > 0
    assert all("accepted" in f for f in record["failures"])
    assert "finite_postgroup.rejections" not in record["counts"]


def checkout_copy(tmp_path: Path, with_library: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=skip)
    if with_library:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
        shutil.copytree(ROOT / "data", tmp_path / "data")
    return tmp_path


def run_command(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=checkout,
        capture_output=True, text=True, timeout=170,
    )


def test_digest_mismatch_fails_the_command(tmp_path):
    checkout = checkout_copy(tmp_path, with_library=True)
    pinned_path = checkout / "bench" / "pinned.json"
    pinned = json.loads(pinned_path.read_text())
    pinned["digests"]["magnus-series"] = "0" * 64
    pinned_path.write_text(json.dumps(pinned))
    proc = run_command(
        checkout, "--workload", "magnus-series", "--seed", "3", "--seconds", "0"
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] * 4 == result["attempted"]  # the op that prints Omega
    assert (checkout / "bench/results/magnus-series-seed3-trace0.json").is_file()


def test_no_result_without_the_library(tmp_path):
    checkout = checkout_copy(tmp_path, with_library=False)
    proc = run_command(checkout, "--workload", "free-words")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_package_outside_the_checkout_is_refused(monkeypatch):
    monkeypatch.setattr(
        workloads.postgroup_lab, "__file__", "/elsewhere/postgroup_lab/__init__.py"
    )
    with pytest.raises(SystemExit, match="refusing"):
        workloads.require_checkout_package()


def test_self_time_and_coverage():
    recorded = [
        ("bench.op", 0.0, 4.0, None, 0, 0),
        ("free_postgroup.jmap", 0.5, 3.5, 0, 0, 10),
        ("magma.load_magma", -2.0, -1.0, None, None, 0),
    ]
    totals = spans.layer_totals(recorded)
    assert totals["bench.op"]["s"] == 1.0
    assert totals["free_postgroup.jmap"] == {"s": 3.0, "calls": 1, "size": 10}
    assert spans.coverage(recorded) == 0.75
    assert spans.us_per_letter(recorded, "free_postgroup.jmap", 0, 50) == 3e5


def traced_run(layer_start: float, layer_end: float) -> list[dict]:
    """An untraced and a traced record of one op over 0..5 s whose single
    layer call runs from layer_start to layer_end."""
    recorded = [
        ("bench.op", 0.0, 5.0, None, 0, 0),
        ("free_postgroup.jmap", layer_start, layer_end, 0, 0, 10),
    ]
    record = {"op_ms": [5e3], "wall_s": 5.0, "attempted": 1, "failed": 0}
    return [
        {**record, "traced": False},
        {**record, "traced": True, "layers": worker.layer_metrics(recorded, {})},
    ]


def test_op_self_time_beyond_the_floor_fails_the_run():
    covered = traced_run(0.1, 4.9)
    assert covered[1]["layers"]["trace.coverage"] > run.COVERAGE_FLOOR
    assert run.summarize(SPEC, covered, True)["correct"]
    # the op spends 2 of its 5 s outside any layer call
    uncovered = traced_run(1.0, 4.0)
    assert uncovered[1]["layers"]["trace.coverage"] < run.COVERAGE_FLOOR
    assert not run.summarize(SPEC, uncovered, True)["correct"]
