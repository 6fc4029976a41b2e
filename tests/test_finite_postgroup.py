"""Finite post-group tables and their braided-group and skew-brace faces.

The S3 frozen values were computed by hand with products composing
right to left, so (01)(012) means apply (012) first.  The skew-brace
negative case relabels Z/4 through the non-automorphism swapping 2 and
3, which keeps both tables groups with unit 0 but breaks the brace law
at (2, 1, 1).
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
import reference_finite as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from postgroup_lab.errors import (
    ActionLawError,
    AutomorphismError,
    BraidedGroupError,
    CheckResult,
    GroupAxiomError,
    PostGroupLawError,
    PostgroupLabError,
    ShapeError,
    SizeCapError,
    SkewBraceLawError,
)
from postgroup_lab import finite_postgroup
from postgroup_lab.action_postgroup import build_gauge_postgroup, validate_action
from postgroup_lab.finite_postgroup import (
    BraidMap,
    braiding,
    check_braid_equation,
    check_braid_laws,
    check_involutive,
    check_ybe,
    conjugation_postgroup,
    cyclic_group,
    gl_group,
    gl_star_inverse,
    gl_star_table,
    invert_braiding,
    is_pregroup,
    load_group,
    load_postgroup,
    load_skew_brace,
    opposite,
    postgroup_from_braided,
    save_postgroup,
    save_skew_brace,
    skew_brace_to_postgroup,
    symmetric_group,
    to_skew_brace,
    trivial_postgroup,
    validate_group,
    validate_postgroup,
    validate_skew_brace,
    verify_braided_group,
)
from postgroup_lab.jsonio import dump_json, tables_to_json
from postgroup_lab.selftest import acceptance_corpus

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group(3)
GROUPS = (Z2, Z3, Z4, S3)

CORPUS = [trivial_postgroup(g) for g in GROUPS] + [
    conjugation_postgroup(g) for g in GROUPS
]
Z3_BRAID = braiding(trivial_postgroup(Z3))


def with_entries(table, entries):
    """A list copy of table with the entries {(row, col): value} set."""
    rows = [list(r) for r in table]
    for (r, c), value in entries.items():
        rows[r][c] = value
    return rows


def idx(group, name):
    return group.elements.index(name)


class TestGroupValidation:
    def test_s3_has_expected_names(self):
        assert set(S3.elements) == {"id", "(12)", "(01)", "(012)", "(021)", "(02)"}
        assert S3.elements[S3.unit] == "id"

    def test_s3_product_convention(self):
        # (01)(012) applies (012) first: 0->1->0, 1->2, 2->0->1
        a, b = idx(S3, "(01)"), idx(S3, "(012)")
        assert S3.elements[S3.table[a][b]] == "(12)"

    def test_no_unit(self):
        with pytest.raises(GroupAxiomError, match="unit"):
            validate_group(["a", "b"], [[1, 1], [1, 1]])

    def test_not_associative(self):
        with pytest.raises(GroupAxiomError, match="associative"):
            validate_group(["a", "b", "c"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])

    def test_missing_inverse(self):
        with pytest.raises(GroupAxiomError, match="inverse"):
            validate_group(["a", "b"], [[0, 1], [1, 1]])

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            cyclic_group(65)

    @pytest.mark.parametrize("build, n, patched", [
        (cyclic_group, 65, "validate_group"),
        (cyclic_group, 2000, "validate_group"),
        (symmetric_group, 6, "compose_perm"),
        (symmetric_group, 7, "compose_perm"),
    ])
    def test_size_cap_comes_before_any_table(self, monkeypatch, build, n, patched):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{patched} ran before the size check")

        monkeypatch.setattr(finite_postgroup, patched, unreachable)
        with pytest.raises(SizeCapError, match="cap of 64$"):
            build(n)

    @pytest.mark.parametrize("names", [("a", "a"), ("a", ""), ("a", 1)])
    def test_names_are_distinct_nonempty_strings(self, names):
        with pytest.raises(ShapeError):
            validate_group(names, [[0, 1], [1, 0]])
        with pytest.raises(ShapeError):
            validate_postgroup(names, [[0, 1], [1, 0]], [[0, 1], [0, 1]])


class TestPostGroupValidation:
    def test_corpus_validates(self):
        for pg in CORPUS:
            assert validate_postgroup(pg.elements, pg.dot, pg.triangle) == pg

    def test_additive_triangle_rejected(self):
        # rows of a |> b = a + b are shifts, which are not automorphisms
        add = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(AutomorphismError):
            validate_postgroup(Z3.elements, Z3.table, add)

    def test_weighted_associativity_rejected(self):
        # rows are honest automorphisms of Z/4 but L_{a*b} != L_a L_b
        neg = (0, 3, 2, 1)
        ident = (0, 1, 2, 3)
        triangle = (ident, neg, neg, ident)
        with pytest.raises(PostGroupLawError, match="weighted associativity"):
            validate_postgroup(Z4.elements, Z4.table, triangle)

    def test_non_bijective_row_rejected(self):
        with pytest.raises(AutomorphismError, match="bijection"):
            validate_postgroup(Z2.elements, Z2.table, [[0, 0], [0, 1]])


class TestStarProduct:
    def test_trivial_star_is_the_group(self):
        for group in GROUPS:
            pg = trivial_postgroup(group)
            assert gl_star_table(pg) == group.table
            assert gl_group(pg) == group

    def test_conjugation_star_is_the_original_product(self):
        for group in GROUPS:
            pg = conjugation_postgroup(group)
            assert gl_star_table(pg) == group.table

    def test_star_inverse_formula(self):
        for pg in CORPUS:
            star = gl_star_table(pg)
            e = pg.unit
            for a, ai in enumerate(gl_star_inverse(pg)):
                assert star[a][ai] == e
                assert star[ai][a] == e


class TestOpposite:
    def test_opposite_is_an_involution(self):
        for pg in CORPUS:
            assert opposite(opposite(pg)) == pg

    def test_opposite_fixes_pregroups(self):
        for group in (Z2, Z3, Z4):
            pg = trivial_postgroup(group)
            assert opposite(pg) == pg

    def test_opposite_swaps_trivial_and_conjugation(self):
        for group in GROUPS:
            assert opposite(trivial_postgroup(group)) == conjugation_postgroup(group)

    def test_opposite_keeps_the_star_product(self):
        for pg in CORPUS:
            assert gl_star_table(opposite(pg)) == gl_star_table(pg)


class TestBraiding:
    def test_trivial_braiding_on_abelian_group_is_the_flip(self):
        braid = braiding(trivial_postgroup(Z3))
        for g in range(3):
            for h in range(3):
                assert (braid.left[g][h], braid.right[g][h]) == (h, g)

    def test_trivial_braiding_is_conjugation_by_the_second(self):
        braid = braiding(trivial_postgroup(S3))
        for g in range(6):
            for h in range(6):
                hi = S3.inv[h]
                assert (braid.left[g][h], braid.right[g][h]) == (
                    h, S3.table[S3.table[hi][g]][h]
                )

    def test_conjugation_braiding_frozen_value(self):
        braid = braiding(conjugation_postgroup(S3))
        g, h = idx(S3, "(01)"), idx(S3, "(012)")
        a, b = braid.left[g][h], braid.right[g][h]
        assert (S3.elements[a], S3.elements[b]) == ("(021)", "(01)")

    def test_braid_equation_and_ybe_on_corpus(self):
        for pg in CORPUS:
            braid = braiding(pg)
            assert check_braid_equation(braid).ok
            assert check_ybe(braid).ok

    def test_pregroup_braidings_are_involutive(self):
        for pg in CORPUS:
            if is_pregroup(pg):
                assert check_involutive(braiding(pg)).ok

    def test_nonabelian_braiding_is_not_involutive(self):
        assert not check_involutive(braiding(trivial_postgroup(S3))).ok

    def test_opposite_braiding_is_the_inverse(self):
        for pg in CORPUS:
            assert braiding(opposite(pg)) == invert_braiding(braiding(pg))

    def test_roundtrip_through_braided_group(self):
        for pg in CORPUS:
            rebuilt = postgroup_from_braided(gl_group(pg), braiding(pg))
            assert rebuilt == pg

    def test_corrupted_braiding_fails_with_witness(self):
        # swap the whole values sigma(0,0) <-> sigma(0,1); note that some
        # value swaps produce another exchange solution, but this one does
        # not even satisfy the Yang-Baxter equation
        braid = braiding(trivial_postgroup(Z3))
        left = [list(row) for row in braid.left]
        right = [list(row) for row in braid.right]
        left[0][0], left[0][1] = left[0][1], left[0][0]
        right[0][0], right[0][1] = right[0][1], right[0][0]
        bad = BraidMap(
            braid.elements,
            tuple(tuple(r) for r in left),
            tuple(tuple(r) for r in right),
        )
        assert check_braid_equation(bad).witness == (
            "braid equation fails at (0, 0, 0): lhs (1, 1, 0) != rhs (0, 1, 0)"
        )
        # the same triple, with both sides reversed and swapped
        assert check_ybe(bad).witness == (
            "Yang-Baxter fails at (0, 0, 0): lhs (0, 1, 0) != rhs (0, 1, 1)"
        )
        with pytest.raises(BraidedGroupError):
            postgroup_from_braided(Z3, bad)

    def test_benign_value_swap_still_needs_the_action_laws(self):
        # swapping sigma(1,2) = (2,1) with sigma(2,1) = (1,2) keeps sigma a
        # bijection, leaves the unit's row and column alone, keeps
        # (g -> h) * (g <- h) = g * h and keeps the braid equation true,
        # yet the left component stops being an action
        bad = BraidMap(
            Z3_BRAID.elements,
            with_entries(Z3_BRAID.left, {(1, 2): 1, (2, 1): 2}),
            with_entries(Z3_BRAID.right, {(1, 2): 2, (2, 1): 1}),
        )
        assert check_braid_equation(bad).ok
        with pytest.raises(
            BraidedGroupError, match=r"^left component is not an action at \(1, 1, 1\)$"
        ) as info:
            postgroup_from_braided(Z3, bad)
        assert info.value.witness == (1, 1, 1)

    @pytest.mark.parametrize("side", ("left", "right"))
    @pytest.mark.parametrize("entry", (3, -1))
    def test_out_of_range_entry_is_refused(self, side, entry):
        # the flat braid kernel would read entry 3 in the next row and
        # entry -1 at the end of the table
        tables = {"left": Z3_BRAID.left, "right": Z3_BRAID.right}
        tables[side] = with_entries(tables[side], {(0, 1): entry})
        with pytest.raises(
            ShapeError, match=rf"^braiding {side} row '0' has out-of-range entry {entry}$"
        ):
            BraidMap(Z3_BRAID.elements, **tables)

    @pytest.mark.parametrize("side", ("left", "right"))
    def test_short_row_is_refused(self, side):
        tables = {"left": Z3_BRAID.left, "right": Z3_BRAID.right}
        tables[side] = [row[:2] if g == 2 else row for g, row in enumerate(tables[side])]
        with pytest.raises(
            ShapeError, match=rf"^braiding {side} row '2' has length 2, expected 3$"
        ):
            BraidMap(Z3_BRAID.elements, **tables)

    def test_size_cap(self):
        rows = [list(range(65))] * 65
        with pytest.raises(SizeCapError, match="^braiding on 65 elements"):
            BraidMap([f"x{i}" for i in range(65)], rows, rows)


CORPUS_BRAIDINGS = [braiding(pg) for _, pg in acceptance_corpus()]


@st.composite
def corrupted_braidings(draw):
    """A corpus braiding with one or two entries of left or right changed."""
    braid = draw(st.sampled_from(CORPUS_BRAIDINGS))
    n = len(braid)
    tables = {"left": [list(r) for r in braid.left], "right": [list(r) for r in braid.right]}
    for _ in range(draw(st.integers(1, 2))):
        side = draw(st.sampled_from(sorted(tables)))
        g, h = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        tables[side][g][h] = (tables[side][g][h] + draw(st.integers(1, n - 1))) % n
    left, right = (tuple(map(tuple, tables[side])) for side in ("left", "right"))
    return BraidMap(braid.elements, left, right)


def fixing(points: int):
    """Z/2 acting trivially on the given number of points."""
    names = [f"p{i}" for i in range(points)]
    return validate_action(Z2, names, [(i, i) for i in range(points)])


# the 16-element braidings of the benchmark's finite-tables workload
BENCH_BRAIDINGS = {
    "z16-conjugation": lambda: braiding(conjugation_postgroup(cyclic_group(16))),
    "gauge-fix4": lambda: braiding(build_gauge_postgroup(fixing(4))),
}


@st.composite
def arbitrary_braidings(draw):
    """Any in-range left and right tables on 2 to 5 elements."""
    n = draw(st.integers(2, 5))
    table = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                     min_size=n, max_size=n)
    left, right = (tuple(map(tuple, draw(table))) for _ in range(2))
    return BraidMap(tuple(f"x{i}" for i in range(n)), left, right)


class TestBraidKernelAgainstReference:
    """Both checks share one braid kernel; the closure-based triple loops
    they replaced give the same verdict and witness on broken braidings."""

    @settings(max_examples=300, deadline=None)
    @given(braid=corrupted_braidings())
    def test_same_check_results(self, braid):
        assert check_braid_equation(braid) == ref.check_braid_equation(braid)
        assert check_ybe(braid) == ref.check_ybe(braid)

    def test_every_single_entry_change(self):
        for braid in CORPUS_BRAIDINGS:
            n = len(braid)
            for side, g, h, shift in itertools.product(
                ("left", "right"), range(n), range(n), range(1, n)
            ):
                table = [list(r) for r in getattr(braid, side)]
                table[g][h] = (table[g][h] + shift) % n
                tables = {"left": braid.left, "right": braid.right}
                tables[side] = tuple(map(tuple, table))
                bad = BraidMap(braid.elements, **tables)
                assert check_braid_equation(bad) == ref.check_braid_equation(bad)
                assert check_ybe(bad) == ref.check_ybe(bad)

    def test_corpus_braidings_pass_both(self):
        for braid in CORPUS_BRAIDINGS:
            assert check_ybe(braid) == ref.check_ybe(braid) == CheckResult(True)

    @pytest.mark.parametrize("side", ("left", "right"))
    @pytest.mark.parametrize("name", sorted(BENCH_BRAIDINGS))
    def test_last_row_changes_at_sixteen_elements(self, name, side):
        # a change in the last row first shows late in lexicographic order.
        # No single-entry change there breaks these braidings, so entry h
        # of the row moves by h * shift
        braid = BENCH_BRAIDINGS[name]()
        n = len(braid)
        for shift in range(1, n):
            table = [list(r) for r in getattr(braid, side)]
            table[n - 1] = [(x + h * shift) % n for h, x in enumerate(table[n - 1])]
            tables = {"left": braid.left, "right": braid.right}
            tables[side] = tuple(map(tuple, table))
            bad = BraidMap(braid.elements, **tables)
            assert check_braid_equation(bad) == ref.check_braid_equation(bad)
            assert check_ybe(bad) == ref.check_ybe(bad)

    def test_gauge_braiding_at_the_size_cap_passes(self):
        braid = braiding(build_gauge_postgroup(fixing(6)))
        assert len(braid) == finite_postgroup.TABLE_SIZE_CAP
        assert check_braid_equation(braid) == check_ybe(braid) == CheckResult(True)

    @settings(max_examples=200, deadline=None)
    @given(braid=arbitrary_braidings())
    def test_arbitrary_tables(self, braid):
        # a loaded braiding need not come from a post-group
        assert check_braid_equation(braid) == ref.check_braid_equation(braid)
        assert check_ybe(braid) == ref.check_ybe(braid)


CONJ_S3 = conjugation_postgroup(S3)
SWAP23 = (0, 1, 3, 2)
Z4_RELABELED = [[SWAP23[Z4.table[SWAP23[a]][SWAP23[b]]] for b in range(4)] for a in range(4)]

# one broken corpus table per exhaustive triple loop: the check, the
# error, its full message and its witness
WITNESSES = {
    # (12).(12) set to (012); the unit's row and column are untouched
    "group associativity": (
        lambda: validate_group(S3.elements, with_entries(S3.table, {(1, 1): 3})),
        GroupAxiomError,
        "group is not associative at ((12), (12), (12)): "
        "((12).(12)).(12) = (01) but (12).((12).(12)) = (02)",
        (1, 1, 1),
    ),
    # (12) |> (012) and (12) |> (021) swapped, so the row stays a bijection
    "triangle automorphism": (
        lambda: validate_postgroup(
            CONJ_S3.elements, CONJ_S3.dot,
            with_entries(CONJ_S3.triangle, {(1, 3): 3, (1, 4): 4}),
        ),
        AutomorphismError,
        "(12) |> - does not respect the dot product at ((12), (01)): "
        "(12) |> ((12).(01)) = (012) but ((12) |> (12)).((12) |> (01)) = (021)",
        (1, 1, 2),
    ),
    # the row of (12) replaced by the row of (01), another automorphism
    "weighted associativity": (
        lambda: validate_postgroup(
            CONJ_S3.elements, CONJ_S3.dot,
            with_entries(CONJ_S3.triangle, {(1, b): CONJ_S3.triangle[2][b] for b in range(6)}),
        ),
        PostGroupLawError,
        "weighted associativity fails at ((12), (12), (12)): "
        "((12)*(12)) |> (12) = (01) but (12) |> ((12) |> (12)) = (12)",
        (1, 1, 1),
    ),
    # left[1][1] and left[1][2] swapped: sigma stays a bijection
    "braided left action": (
        lambda: verify_braided_group(Z3, BraidMap(
            Z3_BRAID.elements, with_entries(Z3_BRAID.left, {(1, 1): 2, (1, 2): 1}),
            Z3_BRAID.right,
        )),
        BraidedGroupError,
        "left component is not an action at (1, 2, 1)",
        (1, 2, 1),
    ),
    # right[1][1] and right[2][1] swapped
    "braided right action": (
        lambda: verify_braided_group(Z3, BraidMap(
            Z3_BRAID.elements, Z3_BRAID.left,
            with_entries(Z3_BRAID.right, {(1, 1): 2, (2, 1): 1}),
        )),
        BraidedGroupError,
        "right component is not an action at (1, 1, 2)",
        (1, 1, 2),
    ),
    # the star product is Z/4 relabeled by swapping 2 and 3
    "skew brace law": (
        lambda: validate_skew_brace(Z4.elements, Z4.table, Z4_RELABELED),
        SkewBraceLawError,
        "skew brace law fails at (1, 1, 1): g*(h.k) = 0 but (g*h).g^(-1).(g*k) = 1",
        (1, 1, 1),
    ),
    # the trivial action of Z/2 on two points with q.1 set to p
    "action composition": (
        lambda: validate_action(Z2, ("p", "q"), with_entries(((0, 0), (1, 1)), {(1, 1): 0})),
        ActionLawError,
        "composition fails at (q, 1, 1): (m.g).h = p but m.(g.h) = q",
        (1, 1, 1),
    ),
}


@pytest.mark.parametrize("law", sorted(WITNESSES))
def test_law_failure_message_and_witness(law):
    check, error, message, witness = WITNESSES[law]
    with pytest.raises(error) as failure:
        check()
    assert str(failure.value) == message
    assert failure.value.witness == witness


class TestSkewBrace:
    def test_roundtrip_from_postgroup(self):
        for pg in CORPUS:
            brace = to_skew_brace(pg)
            assert brace.star == gl_star_table(pg)
            assert skew_brace_to_postgroup(brace) == pg

    def test_roundtrip_from_brace(self):
        for pg in CORPUS:
            brace = to_skew_brace(pg)
            assert to_skew_brace(skew_brace_to_postgroup(brace)) == brace

    def test_relabeled_z4_breaks_the_law(self):
        sigma = (0, 1, 3, 2)
        star = [
            [sigma[(sigma[i] + sigma[j]) % 4] for j in range(4)] for i in range(4)
        ]
        with pytest.raises(SkewBraceLawError, match="skew brace law fails"):
            validate_skew_brace(Z4.elements, Z4.table, star)

    def test_different_units_rejected(self):
        # star = addition relabeled by the swap 0 <-> 1, whose unit is 1
        sigma = (1, 0, 2)
        star = [
            [sigma[(sigma[i] + sigma[j]) % 3] for j in range(3)] for i in range(3)
        ]
        with pytest.raises(SkewBraceLawError, match="unit"):
            validate_skew_brace(Z3.elements, Z3.table, star)


def outcome(run):
    """run's result, or the type, message and witness of its refusal."""
    try:
        return run()
    except PostgroupLabError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def relabel(tables, perm):
    """Each table with element i renamed perm[i]."""
    n = len(perm)
    out = []
    for table in tables:
        rows = [[0] * n for _ in range(n)]
        for a, b in itertools.product(range(n), repeat=2):
            rows[perm[a]][perm[b]] = perm[table[a][b]]
        out.append(rows)
    return out


@st.composite
def random_tables(draw, faces):
    """The tables of a relabeled corpus post-group read through faces,
    with up to two entries changed."""
    _, pg = draw(st.sampled_from(acceptance_corpus()))
    n = len(pg)
    perm = draw(st.permutations(range(n)))
    names = [None] * n
    for i, name in enumerate(pg.elements):
        names[perm[i]] = name
    tables = relabel(faces(pg), perm)
    for _ in range(draw(st.integers(0, 2))):
        table = draw(st.sampled_from(tables))
        g, h, x = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[g][h] = x
    return names, tables


class TestTrustedConversionsAgainstReference:
    """The conversions trust the records they are handed; the versions
    that re-validate everything give the same result or the same
    refusal, with the same message and witness."""

    @settings(max_examples=150, deadline=None)
    @given(data=random_tables(lambda pg: (pg.dot, pg.triangle)))
    def test_postgroup_to_brace_and_back(self, data):
        names, (dot, tri) = data

        def convert(to_brace, from_brace):
            brace = to_brace(validate_postgroup(names, dot, tri))
            return brace, from_brace(brace)

        assert outcome(lambda: convert(to_skew_brace, skew_brace_to_postgroup)) == outcome(
            lambda: convert(ref.to_skew_brace, ref.skew_brace_to_postgroup)
        )

    @settings(max_examples=150, deadline=None)
    @given(data=random_tables(lambda pg: (pg.dot, gl_star_table(pg))))
    def test_brace_to_postgroup(self, data):
        names, (dot, star) = data
        assert outcome(lambda: skew_brace_to_postgroup(validate_skew_brace(names, dot, star))) == (
            outcome(lambda: ref.skew_brace_to_postgroup(validate_skew_brace(names, dot, star)))
        )



def corrupted(pg, rng):
    """pg's dot and triangle tables as lists, one of them corrupted: one or
    two entries changed, two entries of a row swapped, or two rows swapped."""
    n = len(pg)
    tables = [[list(r) for r in pg.dot], [list(r) for r in pg.triangle]]
    table = rng.choice(tables)
    a, b = rng.sample(range(n), 2)
    kind = rng.choice(("one entry", "two entries", "entries of a row", "rows"))
    if kind == "rows":
        table[a], table[b] = table[b], table[a]
    elif kind == "entries of a row":
        row = table[rng.randrange(n)]
        row[a], row[b] = row[b], row[a]
    else:
        for _ in range(1 if kind == "one entry" else 2):
            a, b = rng.randrange(n), rng.randrange(n)
            table[a][b] = (table[a][b] + rng.randrange(1, n)) % n
    return tables


def same_as_reference(pg, tables):
    """The outcome of validate_postgroup on pg's names and tables, once the
    triple loops of the reference have given the same one."""
    dot, tri = tables
    got = outcome(lambda: validate_postgroup(pg.elements, dot, tri))
    assert got == outcome(lambda: ref.validate_postgroup(pg.elements, dot, tri))
    return got


# the message of each row kernel, as it begins after the element names
KERNEL_LAWS = ("is not associative", "does not respect the dot product", "weighted associativity")
GAUGE_16 = build_gauge_postgroup(fixing(4))
GAUGE_64 = build_gauge_postgroup(fixing(6))
KERNEL_TABLES = [pg for _, pg in acceptance_corpus()] + [
    GAUGE_16, conjugation_postgroup(symmetric_group(4))
]


def laws_reached(outcomes):
    return {law for law in KERNEL_LAWS for got in outcomes if law in str(got)}


class TestRowKernelsAgainstReference:
    """Associativity, the automorphism law and weighted associativity
    compare byte rows; the triple loops they replaced refuse every
    corrupted table with the same error, message and witness, or accept
    it as the same record."""

    @settings(max_examples=400, deadline=None)
    @given(pg=st.sampled_from(KERNEL_TABLES), rng=st.randoms(use_true_random=False))
    def test_corrupted_tables(self, pg, rng):
        same_as_reference(pg, corrupted(pg, rng))

    def test_seeded_corruptions_reach_every_kernel(self):
        rng = random.Random(0)
        outcomes = []
        for pg in KERNEL_TABLES:
            outcomes += [same_as_reference(pg, corrupted(pg, rng)) for _ in range(40)]
        assert laws_reached(outcomes) == set(KERNEL_LAWS)

    def test_seeded_corruptions_at_the_size_cap(self):
        # the triangle of this gauge table is the identity; these seeded
        # corruptions stop at the dot product or the automorphism law
        rng = random.Random(64)
        outcomes = [same_as_reference(GAUGE_64, corrupted(GAUGE_64, rng)) for _ in range(48)]
        assert laws_reached(outcomes) == set(KERNEL_LAWS[:2])


def test_the_size_cap_fits_the_byte_rows(monkeypatch):
    assert finite_postgroup.TABLE_SIZE_CAP <= 255, (
        "the row kernels of validate_group and _with_triangle keep element "
        "indices in bytes and pad each row to a 256-byte translation table"
    )
    sizes = []
    byte_rows = finite_postgroup._byte_rows

    def counted(rows):
        sizes.append(len(rows))
        return byte_rows(rows)

    monkeypatch.setattr(finite_postgroup, "_byte_rows", counted)
    pg = GAUGE_64
    assert validate_postgroup(pg.elements, pg.dot, pg.triangle) == pg
    assert sizes == [finite_postgroup.TABLE_SIZE_CAP] * 3

def test_each_law_runs_once_per_record(monkeypatch):
    calls = {}
    kernel, validate = finite_postgroup._braid_failure, finite_postgroup.validate_group

    def counted_kernel(braid):
        calls["braid kernel"] = calls.get("braid kernel", 0) + 1
        return kernel(braid)

    def counted_validate(*args, what="group"):
        calls[what] = calls.get(what, 0) + 1
        return validate(*args, what=what)

    monkeypatch.setattr(finite_postgroup, "_braid_failure", counted_kernel)
    monkeypatch.setattr(finite_postgroup, "validate_group", counted_validate)
    for _, pg in acceptance_corpus():
        pg = validate_postgroup(pg.elements, pg.dot, pg.triangle)
        calls.clear()
        # the work of check-postgroup: both braid laws from one kernel pass
        braid = braiding(pg)
        check_braid_laws(braid)
        assert gl_group(pg) is gl_group(pg)
        to_skew_brace(pg)
        assert calls == {"braid kernel": 1, "star product": 1}
        # the rebuilt post-group's dot table is new, so it is validated
        assert postgroup_from_braided(gl_group(pg), braid) == pg
        assert calls == {"braid kernel": 1, "star product": 1, "dot product": 1}


class TestJson:
    def test_postgroup_roundtrip(self, tmp_path):
        for i, pg in enumerate(CORPUS):
            path = tmp_path / f"pg{i}.json"
            save_postgroup(pg, path)
            assert load_postgroup(path) == pg

    def test_skew_brace_roundtrip(self, tmp_path):
        brace = to_skew_brace(conjugation_postgroup(S3))
        path = tmp_path / "brace.json"
        save_skew_brace(brace, path)
        assert load_skew_brace(path) == brace

    def test_group_roundtrip(self, tmp_path):
        path = tmp_path / "g.json"
        dump_json(tables_to_json(S3.elements, dot=S3.table), path)
        assert load_group(path) == S3

    def test_every_validated_table_loads_back(self, tmp_path):
        # the validator and the file reader share one name check, so a
        # duplicate name is refused before a table is saved, and what is
        # saved loads back
        path = tmp_path / "pg.json"
        with pytest.raises(ShapeError, match="distinct"):
            save_postgroup(
                validate_postgroup(("a", "a"), Z2.table, [[0, 1], [0, 1]]), path
            )
        rows = [["a", "a"], ["a", "a"]]
        path.write_text(json.dumps({"elements": ["a", "a"], "dot": rows, "triangle": rows}))
        with pytest.raises(ShapeError, match="distinct"):
            load_postgroup(path)
        pg = validate_postgroup(("a", "b"), Z2.table, [[0, 1], [0, 1]])
        save_postgroup(pg, path)
        assert load_postgroup(path) == pg

    def test_unknown_entry_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"elements": ["a"], "dot": [["z"]]}')
        with pytest.raises(Exception, match="unknown element"):
            load_group(path)
