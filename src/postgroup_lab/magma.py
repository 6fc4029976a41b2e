"""Finite diagonal left-regular magmas given by their triangle table.

A table row ``triangle[m]`` is the left translation L_m, sending b to
m |> b.  Left regularity asks every row to be a permutation.  The
diagonal condition asks the solution map lam, where lam(m) is the
unique b with m |> b = m, to be a bijection as well.  Both checks are
exhaustive and produce concrete witnesses on failure.

Validation precomputes everything the free post-group needs per
letter: lam, its inverse, the inverse of each row and jmap's step
table, so that every letter permutation, and the inverse that
generator_perm_inv reads, is a plain table lookup.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from .errors import DiagonalityError, LeftRegularityError
from .interned import Record
from .jsonio import check_rows, dump_json, load_tables, tables_to_json
from .perms import invert_perm
from .words import Alphabet, Letter


class MagmaTable(Record):
    """A validated diagonal left-regular magma.

    Build through validate_magma or load_magma; the constructor trusts
    its inputs and builds jmap's step table: _steps[sign][gen] holds the
    letters of the sign, the image m or lam(m)^{-1} and L_m or L_m^{-1}.
    """

    __slots__ = ("alphabet", "triangle", "lam", "lam_inv", "row_inv", "_steps")
    alphabet: Alphabet
    triangle: tuple[tuple[int, ...], ...]
    lam: tuple[int, ...]
    lam_inv: tuple[int, ...]
    row_inv: tuple[tuple[int, ...], ...]
    _steps: dict[int, tuple[tuple, ...]]

    def __init__(self, alphabet, triangle, lam, lam_inv, row_inv) -> None:
        *set_fields, set_steps = self._setters
        for set_field, value in zip(set_fields, (alphabet, triangle, lam, lam_inv, row_inv)):
            set_field(self, value)
        pos, neg = (tuple(Letter(g, sign) for g in range(len(lam))) for sign in (1, -1))
        set_steps(self, {
            1: tuple((pos, g, row) for g, row in enumerate(triangle)),
            -1: tuple((neg, lam[g], row) for g, row in enumerate(row_inv)),
        })

    def __len__(self) -> int:
        return len(self.alphabet)


def validate_magma(
    elements: Sequence[str], triangle: Sequence[Sequence[int]]
) -> MagmaTable:
    """Check shape, left regularity, and diagonality, in that order."""
    alphabet = Alphabet(tuple(elements))
    n = len(alphabet)
    rows = check_rows(triangle, alphabet.names, n, n, "triangle")

    for i, row in enumerate(rows):
        seen: dict[int, int] = {}
        for j, value in enumerate(row):
            if value in seen:
                a, b1, b2 = alphabet.names[i], alphabet.names[seen[value]], alphabet.names[j]
                raise LeftRegularityError(
                    f"row {a!r} is not a permutation: "
                    f"{a} |> {b1} == {a} |> {b2} == {alphabet.names[value]}",
                    witness=(i, seen[value], j),
                )
            seen[value] = j

    row_inv = tuple(invert_perm(row) for row in rows)
    lam = tuple(row_inv[m][m] for m in range(n))
    seen_lam: dict[int, int] = {}
    for m, value in enumerate(lam):
        if value in seen_lam:
            m1, m2 = alphabet.names[seen_lam[value]], alphabet.names[m]
            raise DiagonalityError(
                f"diagonal map is not injective: "
                f"lam({m1}) == lam({m2}) == {alphabet.names[value]}",
                witness=(seen_lam[value], m),
            )
        seen_lam[value] = m

    return MagmaTable(
        alphabet=alphabet,
        triangle=rows,
        lam=lam,
        lam_inv=invert_perm(lam),
        row_inv=row_inv,
    )


def generator_perm_inv(magma: MagmaTable, letter: Letter) -> tuple[int, ...]:
    """The inverse of the permutation of the generator set attached to a letter.

    A positive letter m acts by its row L_m.  A negative letter m^{-1}
    acts by the inverse of the row of lam^{-1}(m), the unique choice
    that makes the extended action multiplicative on inverse pairs.
    """
    if letter.sign == 1:
        return magma.row_inv[letter.gen]
    return magma.triangle[magma.lam_inv[letter.gen]]


def load_magma(path: str | Path) -> MagmaTable:
    """Read a magma file: {"elements": [...], "triangle": [[names]]}."""
    elements, (triangle,) = load_tables(path, ("triangle",))
    return validate_magma(elements, triangle)


def magma_to_json(magma: MagmaTable) -> dict:
    return tables_to_json(magma.alphabet.names, triangle=magma.triangle)


def save_magma(magma: MagmaTable, path: str | Path | None) -> str:
    return dump_json(magma_to_json(magma), path)


def shift_family_magma(shifts: Sequence[int]) -> MagmaTable:
    """a |> b = b + shifts[a] mod n, diagonal when a - shifts[a] is bijective.

    All shifts 1 give the cyclic shift magma, all shifts 0 the trivial
    magma a |> b = b.
    """
    n = len(shifts)
    elements = [f"x{i}" for i in range(n)]
    rows = [[(j + s) % n for j in range(n)] for s in shifts]
    return validate_magma(elements, rows)
