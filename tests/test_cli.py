"""End-to-end checks of the command line, driven in process."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postgroup_lab import laws, magnus
from postgroup_lab.action_postgroup import action_to_json, validate_action
from postgroup_lab.cli import _resolve_seed, main
from postgroup_lab.finite_postgroup import (
    cyclic_group,
    postgroup_to_json,
    save_postgroup,
    save_skew_brace,
    symmetric_group,
    to_skew_brace,
    trivial_postgroup,
)
from postgroup_lab.jsonio import dump_json, tables_to_json
from postgroup_lab.magma import save_magma, shift_family_magma

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("POSTGROUP_LAB_SEED", raising=False)


@pytest.fixture
def shift3(tmp_path):
    path = tmp_path / "shift3.json"
    save_magma(shift_family_magma((1, 1, 1)), path)
    return str(path)


@pytest.fixture
def z3_trivial(tmp_path):
    path = tmp_path / "z3-trivial.json"
    save_postgroup(trivial_postgroup(cyclic_group(3)), path)
    return str(path)


class TestWordVerbs:
    def test_validate_magma(self, tmp_path, capsys):
        path = tmp_path / "trivial3.json"
        save_magma(shift_family_magma((0, 0, 0)), path)
        assert main(["validate-magma", str(path)]) == 0
        assert capsys.readouterr().out == "diagonal left-regular: OK\n"

    def test_act_example(self, shift3, capsys):
        assert main(["act", "--magma", shift3, "x0", "x1 x2'"]) == 0
        assert capsys.readouterr().out == "x2 x0'\n"

    def test_star_matches_act_after_dot(self, shift3, capsys):
        assert main(["star", "--magma", shift3, "x0", "x1"]) == 0
        star = capsys.readouterr().out.strip()
        assert main(["act", "--magma", shift3, "x0", "x1"]) == 0
        acted = capsys.readouterr().out.strip()
        assert star == f"x0 {acted}"

    def test_star_inv_inverts(self, shift3, capsys):
        assert main(["star-inv", "--magma", shift3, "x0 x1"]) == 0
        inverse = capsys.readouterr().out.strip()
        assert main(["star", "--magma", shift3, "x0 x1", inverse]) == 0
        assert capsys.readouterr().out.strip() == "e"

    def test_jmap_kmap_roundtrip(self, shift3, capsys):
        assert main(["jmap", "--magma", shift3, "x0 x1' x2"]) == 0
        image = capsys.readouterr().out.strip()
        assert main(["kmap", "--magma", shift3, image]) == 0
        assert capsys.readouterr().out.strip() == "x0 x1' x2"

    def test_bad_word_is_a_schema_error(self, shift3, capsys):
        assert main(["act", "--magma", shift3, "x0", "y9"]) == 2
        assert "y9" in capsys.readouterr().err


class TestTableVerbs:
    def test_check_postgroup_summary(self, tmp_path, capsys):
        path = tmp_path / "s3.json"
        save_postgroup(trivial_postgroup(symmetric_group(3)), path)
        assert main(["check-postgroup", str(path)]) == 0
        out = capsys.readouterr().out
        for line in (
            "post-group laws: OK",
            "braid equation: OK",
            "Yang-Baxter: OK",
            "skew brace: OK",
        ):
            assert line in out

    def test_corrupted_table_fails_with_witness(self, tmp_path, capsys):
        obj = postgroup_to_json(trivial_postgroup(cyclic_group(3)))
        obj["triangle"][0] = ["1", "0", "2"]
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(obj))
        assert main(["check-postgroup", str(path)]) == 1
        assert "0 |>" in capsys.readouterr().err

    def test_braiding_prints_all_pairs(self, z3_trivial, capsys):
        assert main(["braiding", z3_trivial]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert "sigma(1, 2) = (2, 1)" in lines

    def test_braiding_out_file(self, z3_trivial, tmp_path, capsys):
        out = tmp_path / "braid.json"
        assert main(["braiding", z3_trivial, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert sorted(obj) == ["elements", "left", "right"]
        assert obj["left"][1][2] == "2"

    def test_ybe(self, z3_trivial, capsys):
        assert main(["ybe", z3_trivial]) == 0
        assert capsys.readouterr().out == "Yang-Baxter: OK\n"

    def test_brace_roundtrip_is_identity(self, z3_trivial, tmp_path, capsys):
        brace = tmp_path / "brace.json"
        back = tmp_path / "back.json"
        assert main(["to-brace", z3_trivial, "--out", str(brace)]) == 0
        assert main(["from-brace", str(brace), "--out", str(back)]) == 0
        assert json.loads(back.read_text()) == json.loads(
            Path(z3_trivial).read_text()
        )
        assert capsys.readouterr().out == ""

    def test_to_brace_prints_without_out(self, z3_trivial, capsys):
        assert main(["to-brace", z3_trivial]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert sorted(obj) == ["dot", "elements", "star"]

    def test_opposite_twice_is_identity(self, tmp_path, capsys):
        start = tmp_path / "s3.json"
        once = tmp_path / "once.json"
        save_postgroup(trivial_postgroup(symmetric_group(3)), start)
        assert main(["opposite", str(start), "--out", str(once)]) == 0
        assert main(["opposite", str(once)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(start.read_text())

    def test_make_verbs_agree_on_abelian_groups(self, tmp_path, capsys):
        group = tmp_path / "z4.json"
        z4 = cyclic_group(4)
        dump_json(tables_to_json(z4.elements, dot=z4.table), group)
        assert main(["make-trivial", "--group", str(group)]) == 0
        trivial = capsys.readouterr().out
        assert main(["make-conjugation", "--group", str(group)]) == 0
        assert capsys.readouterr().out == trivial

    def test_from_action_builds_the_fixing_gauge_table(self, capsys):
        assert main(["from-action", str(DATA / "z2-fix2-action.json")]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["elements"] == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
        # points never move, so f |> g = g: each triangle row lists
        # the elements in order
        assert obj["triangle"] == [obj["elements"]] * 4

    def test_from_action_refuses_a_malformed_group_table(self, tmp_path, capsys):
        obj = json.loads((DATA / "z2-fix2-action.json").read_text())
        obj["group"]["table"][0] = ["0", "2"]
        path = tmp_path / "action.json"
        path.write_text(json.dumps(obj))
        assert main(["from-action", str(path)]) == 2
        assert "unknown element '2'" in capsys.readouterr().err

    def test_from_action_refuses_128_maps_before_building(self, tmp_path, capsys):
        points = tuple(f"p{m}" for m in range(7))
        fixing = validate_action(cyclic_group(2), points, tuple((m, m) for m in range(7)))
        path = tmp_path / "z2-fix7.json"
        dump_json(action_to_json(fixing), path)
        assert main(["from-action", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: gauge post-group on 128 elements exceeds the exhaustive-check "
            "cap of 64\n"
        )


class TestTensorVerbs:
    def test_kmap_tensor_two_letter_line(self, capsys):
        assert main(["kmap-tensor", "--generators", "2", "--degree", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "K(x1.x2) = -(x1>x2) + x1.x2" in out

    def test_kmap_tensor_inverse_flag(self, capsys):
        assert main(
            ["kmap-tensor", "--generators", "1", "--degree", "2", "--inverse"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert "K^-1(x1.x1) = (x1>x1) + x1.x1" in out

    def test_kmap_tensor_rejects_degree_past_cap(self, capsys):
        assert main(["kmap-tensor", "--generators", "1", "--degree", "9"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_check_posthopf(self, capsys):
        assert main(["check-posthopf", "--degree", "2"]) == 0
        assert capsys.readouterr().out.startswith("operator and bracket axioms: OK")

    @pytest.mark.parametrize("degree, counts", [
        (0, "1 word triples, 0 tree triples, 1 recovery pairs"),
        (1, "7 word triples, 0 tree triples, 5 recovery pairs"),
        (2, "43 word triples, 0 tree triples, 25 recovery pairs"),
        (3, "267 word triples, 8 tree triples, 137 recovery pairs"),
        (4, "1707 word triples, 56 tree triples, 809 recovery pairs"),
    ])
    def test_check_posthopf_line_is_pinned(self, capsys, degree, counts):
        assert main(["check-posthopf", "--degree", str(degree)]) == 0
        assert capsys.readouterr().out == (
            f"operator and bracket axioms: OK; {counts} through total degree {degree}\n"
        )

    def test_check_posthopf_refuses_degree_past_cap(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(laws, "words_of_degree", lambda *args: calls.append(args))
        assert main(["check-posthopf", "--degree", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "cap 5" in captured.err
        assert calls == []

    def test_magnus_prints_coefficients_and_checks(self, capsys):
        assert main(["magnus", "--order", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "Omega[1] = x1" in out
        assert "Omega[2] = -1/2*(x1>x1)" in out
        assert sum(1 for line in out if line.endswith(": OK")) == 3

    def test_magnus_needs_one_generator(self, capsys):
        # the solver works on one generator, so there is no flag to pick more
        assert main(["magnus", "--order", "2", "--generators", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --generators 2" in captured.err

    def test_magnus_refuses_order_past_cap_before_work(self, capsys, monkeypatch):
        calls = []
        for name in ("_gl_word", "_sstar_word", "_tri_word"):
            monkeypatch.setattr(magnus, name, lambda *args, name=name: calls.append(name))
        assert main(["magnus", "--order", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "past the cap 8" in captured.err
        assert calls == []

    # SHA-256 of the stdout of the order-by-order solver, before Omega
    # became the twisted log of exp^.(tx); order 7 is pinned from the
    # twisted log
    @pytest.mark.parametrize("order, digest", [
        (0, "9602e949d2e2f36e51bee4623abe975910ccd9c9ff3a98111f811da8335d647f"),
        (1, "6935857cef29bc22162b8eb7e1642d1acf7746c83924bd6f2696cd66ca134688"),
        (2, "bf73c61692edd74a10c2114431d80531b33ba1adeaf66e9ad37bbbe31755b2d2"),
        (3, "d0497dd5f65a42e130dd520cf7476d6471664ec63fd3cf5e77aecc9cf5a148ef"),
        (4, "2b9fd45830b7835e9eb9463b301df2607ed25f51f659303f292924fb55ae9913"),
        (5, "1e0b425e43c82f12ec103121a17c2639893d154831bae4d027bf547e9e2085bc"),
        (6, "55ea33a71fbea9fa7777a99e4d7071bd824040388bf6fa66d45d6a3cada59740"),
        (7, "cec861390ff187b96ea418288dd9bad5b2d27938071a428cdef542b0a423cdff"),
    ])
    def test_magnus_output_is_pinned(self, capsys, order, digest):
        assert main(["magnus", "--order", str(order)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_kmap_tensor_inverse_output_is_pinned(self, capsys):
        # SHA-256 of the stdout while letters and trees were dataclasses
        argv = ["kmap-tensor", "--generators", "2", "--degree", "5", "--inverse"]
        assert main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 161_152
        assert hashlib.sha256(out).hexdigest() == (
            "73bb64e49fce6fd812344f0d8509da264c6e4540d4fdc84a18f43031fce4e09b"
        )

    @pytest.mark.parametrize("generators, degree", [("3", "7"), ("1000000", "8")])
    def test_kmap_tensor_refuses_too_many_words(self, capsys, generators, degree):
        argv = ["kmap-tensor", "--generators", generators, "--degree", degree]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "100000 words" in captured.err


class TestSelftestAndPlumbing:
    def test_selftest_quick(self, capsys):
        assert main(["selftest", "--level", "quick"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for line in lines if line.startswith("PASS ")) == 9
        assert lines[-1] == "9/9 criteria passed"

    def test_unknown_verb_exits_2_with_usage(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["act", "x0", "x1"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "verb" in capsys.readouterr().out

    # kmap-tensor's output (about 160 kB) outgrows the pipe, so the verb is
    # still printing when the reader goes; validate-magma's one line sits
    # in the stdout buffer until main flushes it
    @pytest.mark.parametrize("argv, lines", [
        (["kmap-tensor", "--generators", "2", "--degree", "5"], 1),
        (["validate-magma", str(DATA / "shift3.json")], 0),
    ])
    def test_closed_stdout_exits_141_quietly(self, argv, lines):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        ))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "postgroup_lab.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_env_seed_overrides_flag(self, monkeypatch):
        namespace = argparse.Namespace(seed=3)
        assert _resolve_seed(namespace) == 3
        monkeypatch.setenv("POSTGROUP_LAB_SEED", "11")
        assert _resolve_seed(namespace) == 11

    def test_env_seed_must_be_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("POSTGROUP_LAB_SEED", "banana")
        assert main(["selftest"]) == 2
        assert "POSTGROUP_LAB_SEED" in capsys.readouterr().err

    # SHA-256 of the --help text of each verb at 80 columns (Python 3.11
    # argparse), while every verb still had its own handler function;
    # magnus is pinned from after its --generators flag went
    @pytest.mark.parametrize("verb, digest", [
        ("--help", "e1157862e2986cf25727818e74351368acfa5b09ca0b40925e0f8ccaa4e8be41"),
        ("validate-magma", "6f5b1e6a730c79c3ea6ab507d9a59190ca0971d8283b11a2dd663a42ec950106"),
        ("act", "90d020c5b4d6603897f4c1db4a6cc997e6d1dea430c0fedba18d9a0485168479"),
        ("star", "6b56fcac59766e308948656e6437a1d7aed0ec5202375b7da8eea967b08f8e3c"),
        ("star-inv", "39c584164a6799392d441818360df1fd45798cf9eb09435fee1b8e378560784b"),
        ("jmap", "50b8f86cb82c88cd16e90bf3ce10d915292669ab85aa1a7e0deecabc2635f6c9"),
        ("kmap", "b4e9cd5f104791ad858ccfdeda55255e83388c9beb431978de45f5ab38cd10c9"),
        ("check-postgroup", "51882e913b2420edfb637cad6199107f1bc7f831b8092dbb9ece18d4a6afea65"),
        ("braiding", "c9a725beeb94f881feb1944faaf411c7a4b4bd62030c3f689cc1a587777667d2"),
        ("ybe", "3676482a32cbcc56e54dde9c6846482306a4a0f5c5623ad88c20670b9f0f2ea3"),
        ("to-brace", "f4a3910193973a282b0c409f8df8ac4a4a5461fdfb1a0286238300bdc2f6c87b"),
        ("from-brace", "807178481435909e532e8c79d43e9c4f814b970fdb66c0eb565a43ce1cb8a622"),
        ("opposite", "da5d006fad6c85c1def7bd12760943818891607ce2fb7b028fe86168c18351a4"),
        ("make-trivial", "a3b39923c3de04d33404ff88e595d799ea12090c78b0ae0639efd425164145c2"),
        ("make-conjugation", "ba94139b58a7bce0a93afbc9a612f59034b87cce94abd06fea7a8f2a9232bea9"),
        ("from-action", "cac99af282681065048e3ebf5e533888119de7177f0a8948a8b28aeb0a2a9273"),
        ("kmap-tensor", "8b0495f7d7e03138a5a3094a26817ba93c33f6dfbaaf741561fd978dc0757fad"),
        ("check-posthopf", "0839dd508d74409c2f9b6c4386be349219ac8f0643ee558a697e1e7d14b59b63"),
        ("magnus", "acfe656008fd1ad0e2894eaf94905e9065af7806ab5f04b8c88ac5354250d910"),
        ("selftest", "02f6b2425cdef3e5384dd48eef8a33f44c3053bc07328941d5166bf4e001787e"),
    ])
    def test_help_text_is_pinned(self, monkeypatch, capsys, verb, digest):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [verb] if verb == "--help" else [verb, "--help"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSampleCorpus:
    def test_samples_validate_through_the_cli(self, capsys):
        assert main(["validate-magma", str(DATA / "trivial3.json")]) == 0
        assert main(["validate-magma", str(DATA / "shift3.json")]) == 0
        assert main(["check-postgroup", str(DATA / "s3-conj.json")]) == 0
        assert main(["check-postgroup", str(DATA / "z3-trivial.json")]) == 0
        capsys.readouterr()

    def test_magma_file_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "copy.json"
        src = DATA / "shift3.json"
        assert main(["validate-magma", str(src), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(src.read_text())
        capsys.readouterr()


# Every verb that reads a table file, with a valid input of its kind.
TABLE_VERBS = {
    "validate-magma": ("magma", lambda f: ["validate-magma", f]),
    "act": ("magma", lambda f: ["act", "--magma", f, "x0", "x1"]),
    "star": ("magma", lambda f: ["star", "--magma", f, "x0", "x1"]),
    "star-inv": ("magma", lambda f: ["star-inv", "--magma", f, "x0"]),
    "jmap": ("magma", lambda f: ["jmap", "--magma", f, "x0"]),
    "kmap": ("magma", lambda f: ["kmap", "--magma", f, "x0"]),
    "check-postgroup": ("postgroup", lambda f: ["check-postgroup", f]),
    "braiding": ("postgroup", lambda f: ["braiding", f]),
    "ybe": ("postgroup", lambda f: ["ybe", f]),
    "to-brace": ("postgroup", lambda f: ["to-brace", f]),
    "opposite": ("postgroup", lambda f: ["opposite", f]),
    "from-brace": ("brace", lambda f: ["from-brace", f]),
    "make-trivial": ("group", lambda f: ["make-trivial", "--group", f]),
    "make-conjugation": ("group", lambda f: ["make-conjugation", "--group", f]),
    "from-action": ("action", lambda f: ["from-action", f]),
}

DEEP = 200_000


def _first_key(text: str) -> str:
    return json.dumps(next(iter(json.loads(text))))


# Each fault turns the text of a valid file into bytes the loader must
# refuse before any table is read.
FILE_FAULTS = {
    "not-utf8": lambda text: text.encode().replace(b'"', b'"\xff', 1),
    "deep-nesting": lambda text: text.replace(
        "{", '{"nested": ' + "[" * DEEP + "]" * DEEP + ", ", 1
    ).encode(),
    "duplicate-key": lambda text: text.replace(
        "{", "{" + _first_key(text) + ": null, ", 1
    ).encode(),
    "huge-integer": lambda text: text.replace(
        "{", '{"size": ' + "9" * 5000 + ", ", 1
    ).encode(),
}


@pytest.fixture(scope="module")
def valid_tables(tmp_path_factory):
    brace = tmp_path_factory.mktemp("tables") / "brace.json"
    save_skew_brace(to_skew_brace(trivial_postgroup(cyclic_group(3))), brace)
    group = brace.with_name("group.json")
    z3 = cyclic_group(3)
    dump_json(tables_to_json(z3.elements, dot=z3.table), group)
    return {
        "magma": (DATA / "shift3.json").read_text(),
        "postgroup": (DATA / "z3-trivial.json").read_text(),
        "brace": brace.read_text(),
        "group": group.read_text(),
        "action": (DATA / "z2-fix2-action.json").read_text(),
    }


class TestUnreadableTableFiles:
    @pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
    @pytest.mark.parametrize("verb", sorted(TABLE_VERBS))
    def test_refused_as_bad_input(
        self, verb, fault, valid_tables, tmp_path, capsys
    ):
        kind, argv = TABLE_VERBS[verb]
        path = tmp_path / "table.json"
        path.write_bytes(FILE_FAULTS[fault](valid_tables[kind]))
        assert main(argv(str(path))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        refusals = ("is not valid JSON: ", "is nested too deeply")
        assert captured.err.startswith(tuple(f"error: {path} {r}" for r in refusals))
        assert len(captured.err.splitlines()) == 1


OUT_VERBS = (
    "validate-magma", "braiding", "to-brace", "from-brace", "opposite",
    "make-trivial", "make-conjugation", "from-action",
)


class TestUnwritableOut:
    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    @pytest.mark.parametrize("verb", OUT_VERBS)
    def test_refused_as_bad_input(self, verb, where, valid_tables, tmp_path, capsys):
        kind, argv = TABLE_VERBS[verb]
        path = tmp_path / "table.json"
        path.write_text(valid_tables[kind])
        out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        assert main([*argv(str(path)), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        # validate-magma and braiding print their report before they write
        if verb not in ("validate-magma", "braiding"):
            assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1


def _nodes(value, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, path + (key,))


OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 70), st.just(10**40),
    st.floats(), st.text(max_size=3), st.just([]), st.just({}),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.none(), max_size=2),
)


@st.composite
def mutated_files(draw, text):
    """The bytes of a valid table file after one mutation: a flipped or
    truncated byte, a name replaced by another name of the file, a value
    swapped for a value of another type, a deleted entry, a duplicated
    key, or deep nesting."""
    data = bytearray(text.encode())
    kinds = ("flip", "truncate", "rename", "swap", "delete", "duplicate", "nest")
    kind = draw(st.sampled_from(kinds))
    if kind == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    if kind == "truncate":
        return bytes(data[:draw(st.integers(0, len(data) - 1))])
    if kind == "duplicate":
        keys = [m.start() for m in re.finditer(r'"[^"]*": ', text)]
        at = draw(st.sampled_from(keys))
        key = text[at:text.index(":", at)]
        return (text[:at] + f"{key}: {json.dumps(draw(OTHER_VALUES))}, " + text[at:]).encode()
    doc = json.loads(text)
    # below the root: a top level that is not an object is refused first
    nodes = list(_nodes(doc))[1:]
    names = sorted({v for _, v in nodes if isinstance(v, str)})
    if kind == "rename":
        nodes = [(p, v) for p, v in nodes if isinstance(v, str)]
    path, value = draw(st.sampled_from(nodes))
    if kind == "rename":
        new = draw(st.sampled_from(names))
    elif kind == "swap":
        new = draw(OTHER_VALUES)
    elif kind == "nest":
        new = value
        for _ in range(draw(st.integers(1, 60))):
            new = [new] if draw(st.booleans()) else {"k": new}
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return json.dumps(doc, indent=2).encode()


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.json"


class TestFuzzedTableFiles:
    """Mutated copies of valid table files end in exit 0, 1 or 2 with no
    exception; exit 1 comes with a law-failure line, exit 2 with an error line."""

    @pytest.mark.parametrize("verb", sorted(TABLE_VERBS))
    def test_every_outcome_is_an_exit_code(self, verb, valid_tables, fuzz_file):
        kind, argv = TABLE_VERBS[verb]

        @settings(max_examples=25, deadline=None)
        @given(data=mutated_files(valid_tables[kind]))
        def run(data):
            fuzz_file.write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv(str(fuzz_file)))
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2)
            if code == 1:
                assert err.startswith("verification failed: ") or ": FAIL at " in out
            if code == 2:
                assert err.startswith("error: ")

        run()
