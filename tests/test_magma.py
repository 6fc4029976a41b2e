"""Magma validation, the diagonal solution map, and letter permutations.

The forward letter permutation generator_perm is the oracle kept in
reference_free; the library reads only the inverse, generator_perm_inv.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_free import generator_perm

from postgroup_lab.errors import (
    DiagonalityError,
    LeftRegularityError,
    SchemaError,
    ShapeError,
)
from postgroup_lab.magma import (
    generator_perm_inv,
    load_magma,
    magma_to_json,
    save_magma,
    shift_family_magma,
    validate_magma,
)
from postgroup_lab.jsonio import rows_from_names
from postgroup_lab.perms import compose_perm, identity_perm, invert_perm
from postgroup_lab.words import Letter

SHIFT3 = shift_family_magma((1, 1, 1))
TRIV3 = shift_family_magma((0, 0, 0))
MIXED3 = shift_family_magma((0, 2, 1))
DATA = Path(__file__).resolve().parent.parent / "data"


def naive_lambda(triangle: list[list[int]], m: int) -> int:
    """Oracle: the unique b with m |> b == m, found by scanning the row."""
    hits = [b for b in range(len(triangle)) if triangle[m][b] == m]
    assert len(hits) == 1
    return hits[0]


class TestValidation:
    def test_cyclic_shift_lambda(self):
        assert SHIFT3.lam == (2, 0, 1)
        for m in range(3):
            assert SHIFT3.lam[m] == naive_lambda([list(r) for r in SHIFT3.triangle], m)

    def test_trivial_lambda_is_identity(self):
        assert TRIV3.lam == (0, 1, 2)

    def test_mixed_shift_lambda(self):
        # rows are shifts by 0, 2, 1, so lam(m) = m - shift(m) mod 3
        assert MIXED3.lam == (0, 2, 1)

    def test_additive_z2_fails_diagonality(self):
        # a |> b = a + b mod 2: both rows are permutations but lam is constant
        with pytest.raises(DiagonalityError, match="lam"):
            validate_magma(["0", "1"], [[0, 1], [1, 0]])

    def test_left_regularity_failure_names_witness(self):
        with pytest.raises(LeftRegularityError, match="row 'a'"):
            validate_magma(["a", "b"], [[0, 0], [0, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            validate_magma(["a", "b"], [[0, 1]])
        with pytest.raises(ShapeError):
            validate_magma(["a", "b"], [[0], [1, 0]])

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ShapeError):
            validate_magma(["a", "b"], [[0, 2], [0, 1]])

    def test_constant_shift_family_needs_bijective_diagonal(self):
        with pytest.raises(DiagonalityError):
            shift_family_magma((0, 1, 2))


class TestPrecomputedMaps:
    def test_lam_inverse(self):
        for magma in (SHIFT3, TRIV3, MIXED3):
            assert compose_perm(magma.lam, magma.lam_inv) == identity_perm(3)

    def test_generator_perm_positive_is_row(self):
        for gen in range(3):
            assert generator_perm(SHIFT3, Letter(gen, 1)) == SHIFT3.triangle[gen]

    def test_generator_perm_negative_example(self):
        # on the cyclic shift, the inverse letter of x0 acts by shift -1
        assert generator_perm(SHIFT3, Letter(0, -1)) == (2, 0, 1)

    def test_generator_perm_inverse_pairing(self):
        # the negative letter of m undoes the row of lam^{-1}(m)
        for magma in (SHIFT3, TRIV3, MIXED3):
            for gen in range(3):
                neg = generator_perm(magma, Letter(gen, -1))
                pos = magma.triangle[magma.lam_inv[gen]]
                assert compose_perm(pos, neg) == identity_perm(3)
                assert sorted(neg) == [0, 1, 2]

    def test_generator_perm_inv_undoes_generator_perm(self):
        for magma in (SHIFT3, TRIV3, MIXED3, shift_family_magma((0, 2, 4, 1, 3))):
            n = len(magma)
            for gen in range(n):
                for sign in (1, -1):
                    perm = generator_perm(magma, Letter(gen, sign))
                    inv = generator_perm_inv(magma, Letter(gen, sign))
                    assert compose_perm(perm, inv) == identity_perm(n)
                    assert compose_perm(inv, perm) == identity_perm(n)


@given(st.integers(1, 6))
def test_cyclic_shift_any_size_validates(n):
    magma = shift_family_magma((1,) * n)
    assert len(magma) == n
    for row in magma.triangle:
        assert sorted(row) == list(range(n))
    assert sorted(magma.lam) == list(range(n))


def compose_perm_oracle(p, q):
    """The index-loop composition compose_perm replaced."""
    return tuple(p[q[i]] for i in range(len(q)))


@given(st.integers(0, 7).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
))
def test_compose_perm_matches_index_loop(pq):
    p, q = pq
    for a, b in ((p, q), (tuple(p), tuple(q))):
        assert compose_perm(a, b) == compose_perm_oracle(a, b)
        assert type(compose_perm(a, b)) is tuple


@given(st.lists(st.permutations(range(3)), min_size=3, max_size=3))
def test_row_permutations_validate_iff_diagonal_bijective(rows):
    lam = [invert_perm(tuple(row))[m] for m, row in enumerate(rows)]
    if len(set(lam)) == len(lam):
        magma = validate_magma(["a", "b", "c"], rows)
        assert magma.lam == tuple(lam)
    else:
        with pytest.raises(DiagonalityError):
            validate_magma(["a", "b", "c"], rows)


@pytest.mark.parametrize("shifts, name", [((1, 1, 1), "shift3.json"), ((0, 0, 0), "trivial3.json")])
def test_shift_family_regenerates_the_sample_file(shifts, name):
    # the cyclic shift and the trivial magma are members of the family
    assert save_magma(shift_family_magma(shifts), None) == (DATA / name).read_text(encoding="utf-8")


class TestJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        save_magma(MIXED3, path)
        again = load_magma(path)
        assert again == MIXED3

    def test_names_table(self):
        names = ["p", "q"]
        magma = validate_magma(
            names, rows_from_names(names, [["q", "p"], ["q", "p"]], "triangle")
        )
        assert magma.triangle == ((1, 0), (1, 0))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"elements": ["a"], "triangle": [["a"]], "extra": 1}')
        with pytest.raises(SchemaError, match="unknown key"):
            load_magma(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"elements": ["a"]}')
        with pytest.raises(SchemaError, match="missing key"):
            load_magma(path)

    def test_unknown_name_in_row_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"elements": ["a"], "triangle": [["z"]]}')
        with pytest.raises(SchemaError):
            load_magma(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{")
        with pytest.raises(SchemaError):
            load_magma(path)

    def test_json_shape(self):
        obj = magma_to_json(SHIFT3)
        assert obj["elements"] == ["x0", "x1", "x2"]
        assert obj["triangle"][0] == ["x1", "x2", "x0"]
