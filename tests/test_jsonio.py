"""The named-table codec: byte-exact round trips and the one shape check."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from postgroup_lab.action_postgroup import action_to_json, load_action, validate_action
from postgroup_lab.cli import main
from postgroup_lab.errors import ShapeError
from postgroup_lab.finite_postgroup import (
    braiding,
    cyclic_group,
    load_group,
    load_postgroup,
    load_skew_brace,
    save_postgroup,
    save_skew_brace,
    validate_group,
)
from postgroup_lab.jsonio import dump_json, load_tables, tables_to_json
from postgroup_lab.magma import load_magma, save_magma, validate_magma

DATA = Path(__file__).resolve().parent.parent / "data"

# Each file kind, told apart by its top-level keys: its loader and writer.
CODECS = {
    ("elements", "triangle"): (load_magma, save_magma),
    ("elements", "dot"): (
        load_group,
        lambda group, path: dump_json(tables_to_json(group.elements, dot=group.table), path),
    ),
    ("elements", "dot", "triangle"): (load_postgroup, save_postgroup),
    ("elements", "dot", "star"): (load_skew_brace, save_skew_brace),
    ("group", "set", "action"): (
        load_action,
        lambda action, path: dump_json(action_to_json(action), path),
    ),
}


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_data_file_saves_back_byte_for_byte(path):
    load, save = CODECS[tuple(json.loads(path.read_text()))]
    assert save(load(path), None).encode("utf-8") == path.read_bytes()


def test_braiding_file_lists_elements_then_left_then_right(tmp_path):
    out = tmp_path / "braid.json"
    assert main(["braiding", str(DATA / "s3-conj.json"), "--out", str(out)]) == 0
    assert list(json.loads(out.read_text())) == ["elements", "left", "right"]
    braid = braiding(load_postgroup(DATA / "s3-conj.json"))
    elements, (left, right) = load_tables(out, ("left", "right"))
    assert elements == braid.elements
    assert left == [list(row) for row in braid.left]
    assert right == [list(row) for row in braid.right]


Z2 = cyclic_group(2)

# Each validator, a table it accepts, and the name of that table's second row.
VALIDATORS = {
    "group": (lambda rows: validate_group(("e", "s"), rows), [[0, 1], [1, 0]], "s"),
    "magma": (lambda rows: validate_magma(("p", "q"), rows), [[1, 0], [1, 0]], "q"),
    "action": (
        lambda rows: validate_action(Z2, ("p", "q"), rows),
        [[0, 1], [1, 0]],
        "q",
    ),
}


@pytest.mark.parametrize(
    "second_row, problem",
    [([1], "has length 1, expected 2"), ([1, 7], "has out-of-range entry 7")],
    ids=["short-row", "out-of-range"],
)
@pytest.mark.parametrize("kind", sorted(VALIDATORS))
def test_shape_error_names_the_row(kind, second_row, problem):
    validate, rows, row_name = VALIDATORS[kind]
    validate(rows)
    with pytest.raises(ShapeError, match=f"row '{row_name}' {problem}$"):
        validate([rows[0], second_row])
