"""Write tests/golden.json: what the command line does on a fixed case list.

Run from anywhere:  python scripts/make_golden.py

Each case runs cli.main in process, inside a temporary directory that
holds a copy of data/ and the extra inputs below, so every path in an
argv or a message is relative and the same on every machine.  For each
case the file stores the argv, the exit code and the SHA-256 of stdout,
of stderr and of the --out file, if the case wrote one.  Later cases
may read what earlier ones wrote (from-brace reads to-brace's --out).

tests/test_golden.py re-runs the cases against the file.  A change that
alters an output regenerates the file and names each changed argv, with
the reason, in CHANGES.md.  The selftest is left out: it prints timings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from postgroup_lab import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = ROOT / "tests" / "golden.json"


def _cyclic(n: int) -> dict:
    names = [str(i) for i in range(n)]
    return {"elements": names, "dot": [[names[(i + j) % n] for j in range(n)] for i in range(n)]}


def _z2_action(n_points: int, swap: bool = False) -> dict:
    points = [f"p{m}" for m in range(n_points)]
    moved = {"p0": "p1", "p1": "p0"} if swap else {}
    return {
        "group": {"elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]},
        "set": points,
        "action": {p: {"0": p, "1": moved.get(p, p)} for p in points},
    }


def _inputs() -> dict[str, object]:
    """Input files beyond data/, written as plain JSON without the library."""
    z3 = json.loads((DATA / "z3-trivial.json").read_text())
    s3 = json.loads((DATA / "s3-conj.json").read_text())
    klein = [[str(i ^ j) for j in range(4)] for i in range(4)]
    return {
        "z4-group.json": _cyclic(4),
        "s3-group.json": {"elements": s3["elements"], "dot": s3["dot"]},
        # conjugation rows do not commute, unlike the rows of data/'s magmas
        "s3-conj-magma.json": {"elements": s3["elements"], "triangle": s3["triangle"]},
        "z65-group.json": _cyclic(65),
        "z2-swap-action.json": _z2_action(2, swap=True),
        "z2-fix6-action.json": _z2_action(6),
        "z2-fix7-action.json": _z2_action(7),
        "z3-bad-triangle.json": z3 | {"triangle": [["1", "0", "2"], *z3["triangle"][1:]]},
        "z3-bad-dot.json": z3 | {"dot": [z3["dot"][0], ["1", "0", "2"], z3["dot"][2]]},
        "s3-short-row.json": s3 | {
            "triangle": [row[:-1] if i == 2 else row for i, row in enumerate(s3["triangle"])]
        },
        "s3-unknown-key.json": s3 | {"extra": []},
        "not-left-regular.json": {
            "elements": ["x0", "x1"], "triangle": [["x0", "x1"], ["x1", "x1"]],
        },
        "not-diagonal.json": {
            "elements": ["x0", "x1"], "triangle": [["x0", "x1"], ["x1", "x0"]],
        },
        "z4-klein-brace.json": _cyclic(4) | {"star": klein},
        "not-json.json": '{"elements": ["x0"], "triangle": [["x0"]]',
    }


MAGMAS = ("data/trivial3.json", "data/shift3.json")
POSTGROUPS = ("data/s3-conj.json", "data/z3-trivial.json")
BAD_POSTGROUPS = (
    "inputs/z3-bad-triangle.json", "inputs/z3-bad-dot.json",
    "inputs/s3-short-row.json", "inputs/s3-unknown-key.json",
    "inputs/not-json.json", "missing.json",
)
WORDS = (
    ("act", "x0", "x1 x2'"), ("act", "x0 x1' x2", "x2 x2 x0'"), ("act", "e", "x1"),
    ("star", "x0", "x1"), ("star", "x0 x1", "x1' x0'"), ("star-inv", "x0 x1"),
    ("star-inv", "e"), ("jmap", "x0 x1' x2"), ("jmap", "x2' x2' x1 x0'"),
    ("kmap", "x0 x1' x2"), ("kmap", "x2' x2' x1 x0'"),
)
BAD_WORDS = (("act", "x0", "y9"), ("jmap", "e'"), ("kmap", "x0''"), ("star", "x0 x0'", "3"))
S3_WORDS = (
    ("act", "(01) (12)", "(02) (012)'"), ("act", "(012) (01)' (12)", "(01) (02)"),
    ("star", "(01) (12)'", "(012) (02)"), ("star-inv", "(01) (12) (012)"),
    ("jmap", "(01) (12)' (02) (021)"), ("jmap", "(12)' (01)' (012) (12)"),
    ("kmap", "(01) (12)' (02) (021)"), ("kmap", "(12)' (01)' (012) (12)"),
)


def cases() -> list[list[str]]:
    """The argv of every case, in the order they run."""
    out: list[list[str]] = []
    for magma in (*MAGMAS, "inputs/not-left-regular.json", "inputs/not-diagonal.json",
                  "data/s3-conj.json", "missing.json"):
        out.append(["validate-magma", magma])
    out.append(["validate-magma", "data/shift3.json", "--out", "out/shift3.json"])
    out.append(["validate-magma", "data/shift3.json", "--out", "no-dir/x.json"])
    for magma in MAGMAS:
        for verb, *words in WORDS + BAD_WORDS:
            out.append([verb, "--magma", magma, *words])
    for verb, *words in S3_WORDS:
        out.append([verb, "--magma", "inputs/s3-conj-magma.json", *words])
    out.append(["act", "--magma", "missing.json", "x0", "x1"])
    out.append(["act", "--magma", "inputs/not-diagonal.json", "x0", "x1"])
    for pg in POSTGROUPS + BAD_POSTGROUPS:
        out += [
            ["check-postgroup", pg],
            ["braiding", pg],
            ["ybe", pg],
            ["to-brace", pg],
            ["opposite", pg],
        ]
    for pg in POSTGROUPS:
        stem = Path(pg).stem
        out += [
            ["braiding", pg, "--out", f"out/{stem}-braid.json"],
            ["to-brace", pg, "--out", f"out/{stem}-brace.json"],
            ["from-brace", f"out/{stem}-brace.json"],
            ["from-brace", f"out/{stem}-brace.json", "--out", f"out/{stem}-back.json"],
            ["check-postgroup", f"out/{stem}-back.json"],
            ["opposite", pg, "--out", f"out/{stem}-opposite.json"],
            ["opposite", f"out/{stem}-opposite.json"],
            ["check-postgroup", f"out/{stem}-opposite.json"],
        ]
    out += [
        ["from-brace", "inputs/z4-klein-brace.json"],
        ["from-brace", "data/z3-trivial.json"],
        ["to-brace", "data/z3-trivial.json", "--out", "out"],
    ]
    for group in ("inputs/z4-group.json", "inputs/s3-group.json",
                  "inputs/z65-group.json", "data/shift3.json", "missing.json"):
        out.append(["make-trivial", "--group", group])
        out.append(["make-conjugation", "--group", group])
    out.append(["make-conjugation", "--group", "inputs/s3-group.json",
                "--out", "out/s3-conjugation.json"])
    out.append(["check-postgroup", "out/s3-conjugation.json"])
    for action in ("data/z2-fix2-action.json", "inputs/z2-swap-action.json",
                   "inputs/z2-fix6-action.json", "inputs/z2-fix7-action.json",
                   "data/z3-trivial.json"):
        out.append(["from-action", action])
    out.append(["from-action", "data/z2-fix2-action.json", "--out", "out/fix2.json"])
    out.append(["check-postgroup", "out/fix2.json"])
    # the braid kernel's verdict at the 64-element cap
    out.append(["from-action", "inputs/z2-fix6-action.json", "--out", "out/fix6.json"])
    out.append(["ybe", "out/fix6.json"])
    for generators, degree in (("1", "0"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "3")):
        out.append(["kmap-tensor", "--generators", generators, "--degree", degree])
        out.append(["kmap-tensor", "--generators", generators, "--degree", degree,
                    "--inverse"])
    for generators, degree in (("1", "9"), ("3", "7"), ("1000000", "8")):
        out.append(["kmap-tensor", "--generators", generators, "--degree", degree])
    for degree in ("0", "1", "2", "3", "4", "6"):
        out.append(["check-posthopf", "--degree", degree])
    for order in ("0", "1", "2", "3", "4", "5", "8"):
        out.append(["magnus", "--order", order])
    out += [
        ["magnus", "--order", "2", "--generators", "2"],
        ["frobnicate"],
        ["act", "x0", "x1"],
        ["kmap-tensor", "--generators", "2", "--degree", "-1"],
        ["magnus", "--order", "two"],
    ]
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _workdir():
    """A temporary directory with data/ and inputs/, made the working directory."""
    old_cwd, old_columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(DATA, work / "data")
        (work / "inputs").mkdir()
        (work / "out").mkdir()
        for name, content in _inputs().items():
            text = content if isinstance(content, str) else json.dumps(content, indent=2)
            (work / "inputs" / name).write_text(text)
        os.chdir(work)
        os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to this width
        try:
            yield work
        finally:
            os.chdir(old_cwd)
            if old_columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = old_columns


def run_case(argv: list[str]) -> dict:
    """Run one argv in process and record its exit code and output digests."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    out_file = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.is_file():
            out_file = _sha(path.read_bytes())
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "out": out_file,
    }


def run_cases():
    """Yield the record of every case, in order, each run in the shared workdir."""
    with _workdir():
        for argv in cases():
            yield run_case(argv)


def main() -> None:
    records = list(run_cases())
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(records)} cases")


if __name__ == "__main__":
    main()
