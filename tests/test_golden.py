"""The command line still does what tests/golden.json recorded.

scripts/make_golden.py holds the case list and writes the file; this
test re-runs every case in process and names the first argv whose exit
code, stdout, stderr or --out file differs.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _make_golden():
    spec = importlib.util.spec_from_file_location(
        "make_golden", ROOT / "scripts" / "make_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_matches_the_golden_file():
    make_golden = _make_golden()
    expected = json.loads(make_golden.GOLDEN.read_text())
    assert [r["argv"] for r in expected] == make_golden.cases()
    for want, got in zip(expected, make_golden.run_cases()):
        assert got == want, f"postgroup-lab {' '.join(want['argv'])!r} changed"
