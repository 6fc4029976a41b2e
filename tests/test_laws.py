"""The identity sweeps of laws.py: their failure paths and their isolation.

Each failure test breaks one un-memoised public function in laws'
namespace and asserts the first witness of the sweep.  The witnesses
are pinned: they are the ones the sweeps printed under the same patch
while they lived inline in the acceptance suite.  Only the public
wrappers are patched, never a memoised _*_word rule, so no wrong entry
is left in a memo table for later tests.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from postgroup_lab import laws, tensor_postlie
from postgroup_lab.tensor_postlie import TensorPoly, word_key

ROOT = Path(__file__).resolve().parent.parent


def _negative(poly):
    return any(c < 0 for c in poly.terms.values())


def _first_negative(poly):
    return not poly.is_zero() and poly.terms[min(poly.terms, key=word_key)] < 0


def _doubled_when(test):
    """triangle, doubled when test(left, right) holds."""
    real = tensor_postlie.triangle

    def patched(left, right, *args, **kwargs):
        value = real(left, right, *args, **kwargs)
        return 2 * value if test(left, right) else value

    return patched


UNIT = TensorPoly.unit()

PATCHES = {
    "concat plus the unit": (
        "concat", lambda left, right: tensor_postlie.concat(left, right) + UNIT),
    "gl_star with swapped arguments": (
        "gl_star", lambda left, right: tensor_postlie.gl_star(right, left)),
    # no word triple through degree 3 acts on a right side with a
    # negative coefficient, or with a negative left side on a nonunit;
    # the bracket x1.x2 - x2.x1 leads with a positive term, and its
    # opposite with a negative one
    "triangle doubled on a negative right side": (
        "triangle", _doubled_when(lambda left, right: _negative(right) and left != UNIT)),
    "triangle doubled by a negative left side": (
        "triangle", _doubled_when(lambda left, right: _negative(left) and right != UNIT)),
    "triangle doubled on a right side led by a negative term": (
        "triangle",
        _doubled_when(lambda left, right: _first_negative(right) and left != UNIT)),
    "triangle doubled by a left side led by a negative term": (
        "triangle",
        _doubled_when(lambda left, right: _first_negative(left) and right != UNIT)),
    "negated twisted bracket": (
        "gl_lie_bracket", lambda left, right: -tensor_postlie.gl_lie_bracket(left, right)),
    "identity for the antipode": ("antipode_star", lambda poly: poly),
    "doubled pair tensor": (
        "pair_tensor", lambda left, right: 2 * tensor_postlie.pair_tensor(left, right)),
}

X1, X2 = "Leaf(index=0)", "Leaf(index=1)"


@pytest.mark.parametrize("patch, witness", [
    ("concat plus the unit", f"product split fails on ({X1},), (), ()"),
    ("gl_star with swapped arguments", f"action law fails on ({X1},), ({X2},), ({X1},)"),
    ("triangle doubled on a negative right side",
     f"derivation axiom fails on trees {X1}, {X1}, {X2}"),
    ("triangle doubled by a negative left side",
     f"associator axiom fails on trees {X1}, {X2}, {X1}"),
    ("triangle doubled on a right side led by a negative term",
     f"opposite derivation axiom fails on trees {X1}, {X1}, {X2}"),
    ("triangle doubled by a left side led by a negative term",
     f"opposite associator axiom fails on trees {X1}, {X2}, {X1}"),
    ("negated twisted bracket",
     f"twisted bracket is not the star commutator on {X1}, {X2}"),
    ("identity for the antipode", f"twisted recovery of a.b fails on ({X1},), ({X1},)"),
])
def test_posthopf_sweep_names_the_first_witness(monkeypatch, patch, witness):
    monkeypatch.setattr(laws, *PATCHES[patch])
    assert laws.check_posthopf_laws(3) == (False, witness)


@pytest.mark.parametrize("patch, witness", [
    ("doubled pair tensor", "coproduct does not commute with the twist on ()"),
    ("concat plus the unit", "product law fails on (), ()"),
    ("gl_star with swapped arguments", f"product law fails on ({X1},), ({X2},)"),
])
def test_twist_sweep_names_the_first_witness(monkeypatch, patch, witness):
    monkeypatch.setattr(laws, *PATCHES[patch])
    assert laws.check_twist_hopf(4) == (False, witness)


def _benchmark_library_modules():
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return sorted(n for n in names if n.split(".")[0] == "postgroup_lab")


def _loaded_after_importing(modules, *flags):
    """The names in sys.modules of a fresh interpreter that imported modules."""
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return set(done.stdout.split())


def test_benchmark_imports_no_check_module():
    modules = _benchmark_library_modules()
    assert "postgroup_lab.magnus" in modules
    loaded = _loaded_after_importing(modules)
    assert "postgroup_lab.tensor_postlie" in loaded
    for name in ("postgroup_lab.laws", "postgroup_lab.selftest", "postgroup_lab.cli"):
        assert name not in loaded


def test_cold_start_imports_no_dataclasses_inspect_or_typing():
    # dataclasses brings inspect, ast, dis and tokenize, most of a cold
    # start; -S keeps what site imports out of the count.  The CLI
    # imports laws and selftest only in the verbs that use them.
    modules = _benchmark_library_modules() + ["postgroup_lab.cli"]
    loaded = _loaded_after_importing(modules, "-S")
    assert "postgroup_lab.cli" in loaded and "site" not in loaded
    for name in ("dataclasses", "inspect", "typing", "postgroup_lab.laws", "postgroup_lab.selftest"):
        assert name not in loaded
