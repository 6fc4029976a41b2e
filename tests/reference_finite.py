"""Reference versions of finite-layer checks, kept only as oracles.

check_braid_equation and check_ybe are the closure-based triple loops
that the library had before both checks shared one braid kernel.  Each
composes its own maps of triples, so the YBE oracle never goes through
the braid relation.  gauge_gl is the derived product of gauge maps,
built from gauge_dot and gauge_act, a second path to the * table.

to_skew_brace and skew_brace_to_postgroup are the conversions as they
were before the records carried their proofs: each validates every
group and table it reads or derives from scratch.

validate_group and _with_triangle (and so validate_postgroup) are the
exhaustive triple loops that the library ran before associativity, the
automorphism law and weighted associativity became byte-row kernels.
"""

from __future__ import annotations

from collections.abc import Sequence

from postgroup_lab.action_postgroup import GaugeMap, gauge_act, gauge_dot
from postgroup_lab.errors import (
    AutomorphismError,
    CheckResult,
    GroupAxiomError,
    PostGroupLawError,
)
from postgroup_lab.finite_postgroup import (
    BraidMap,
    GroupTable,
    PostGroupTable,
    SkewBrace,
    check_size,
    gl_star_table,
    validate_skew_brace,
)
from postgroup_lab.jsonio import check_rows, name_list


def sigma(braid: BraidMap, g: int, h: int) -> tuple[int, int]:
    return (braid.left[g][h], braid.right[g][h])


def _triple(names: tuple[str, ...], t: tuple[int, int, int]) -> str:
    return "(" + ", ".join(names[i] for i in t) + ")"


def check_braid_equation(braid: BraidMap) -> CheckResult:
    """(sigma x 1)(1 x sigma)(sigma x 1) == (1 x sigma)(sigma x 1)(1 x sigma)
    on all triples."""
    names = braid.elements
    n = len(names)
    check_size(n, "braid equation check")

    def s12(t):
        a, b = sigma(braid, t[0], t[1])
        return (a, b, t[2])

    def s23(t):
        a, b = sigma(braid, t[1], t[2])
        return (t[0], a, b)

    for g in range(n):
        for h in range(n):
            for k in range(n):
                t = (g, h, k)
                lhs = s12(s23(s12(t)))
                rhs = s23(s12(s23(t)))
                if lhs != rhs:
                    return CheckResult(
                        False,
                        f"braid equation fails at ({names[g]}, {names[h]}, "
                        f"{names[k]}): lhs {_triple(names, lhs)} != rhs "
                        f"{_triple(names, rhs)}",
                    )
    return CheckResult(True)


def check_ybe(braid: BraidMap) -> CheckResult:
    """R12 R13 R23 == R23 R13 R12 for R = flip after sigma."""
    names = braid.elements
    n = len(names)
    check_size(n, "Yang-Baxter check")

    def rmap(g, h):
        a, b = sigma(braid, g, h)
        return (b, a)

    def r12(t):
        a, b = rmap(t[0], t[1])
        return (a, b, t[2])

    def r23(t):
        a, b = rmap(t[1], t[2])
        return (t[0], a, b)

    def r13(t):
        a, b = rmap(t[0], t[2])
        return (a, t[1], b)

    for g in range(n):
        for h in range(n):
            for k in range(n):
                t = (g, h, k)
                lhs = r12(r13(r23(t)))
                rhs = r23(r13(r12(t)))
                if lhs != rhs:
                    return CheckResult(
                        False,
                        f"Yang-Baxter fails at ({names[g]}, {names[h]}, "
                        f"{names[k]}): lhs {_triple(names, lhs)} != rhs "
                        f"{_triple(names, rhs)}",
                    )
    return CheckResult(True)


def gauge_gl(f: GaugeMap, g: GaugeMap) -> GaugeMap:
    """(f * g)(m) = f(m) . g(m . f(m)), the derived group product."""
    return gauge_dot(f, gauge_act(f, g))


def to_skew_brace(pg: PostGroupTable) -> SkewBrace:
    """Forget the action, keep the two products."""
    return validate_skew_brace(pg.elements, pg.dot, gl_star_table(pg))


def skew_brace_to_postgroup(brace: SkewBrace) -> PostGroupTable:
    """Recover the action as g |> h := g^{.-1} . (g * h)."""
    dot_group = validate_group(brace.elements, brace.dot, what="dot product")
    n = len(brace)
    triangle = tuple(
        tuple(brace.dot[dot_group.inv[g]][brace.star[g][h]] for h in range(n))
        for g in range(n)
    )
    return validate_postgroup(brace.elements, brace.dot, triangle)


def validate_group(
    elements: Sequence[str],
    table: Sequence[Sequence[int]],
    *,
    what: str = "group",
) -> GroupTable:
    """Exhaustive group axioms: unit, associativity, inverses."""
    names = name_list(elements, what)
    n = len(names)
    check_size(n, f"{what} validation")
    rows = check_rows(table, names, n, n, what)

    unit = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            unit = e
            break
    if unit is None:
        raise GroupAxiomError(f"{what} has no two-sided unit")

    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            row_ab = rows[ab]
            row_a = rows[a]
            for c in range(n):
                if row_ab[c] != row_a[rows[b][c]]:
                    raise GroupAxiomError(
                        f"{what} is not associative at "
                        f"({names[a]}, {names[b]}, {names[c]}): "
                        f"({names[a]}.{names[b]}).{names[c]} = "
                        f"{names[row_ab[c]]} but "
                        f"{names[a]}.({names[b]}.{names[c]}) = "
                        f"{names[row_a[rows[b][c]]]}",
                        witness=(a, b, c),
                    )

    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if rows[a][b] == unit and rows[b][a] == unit:
                inv[a] = b
                break
        if inv[a] is None:
            raise GroupAxiomError(
                f"{what} element {names[a]} has no inverse", witness=(a,)
            )

    return GroupTable._of(names, rows, unit, tuple(inv))


def validate_postgroup(
    elements: Sequence[str],
    dot: Sequence[Sequence[int]],
    triangle: Sequence[Sequence[int]],
) -> PostGroupTable:
    return _with_triangle(validate_group(elements, dot, what="dot product"), triangle)


def _with_triangle(group: GroupTable, triangle) -> PostGroupTable:
    """validate_postgroup's triangle laws over an already validated group."""
    names = group.elements
    n = len(names)
    rows = check_rows(triangle, names, n, n, "triangle")

    for a in range(n):
        row = rows[a]
        seen = set(row)
        if len(seen) != n:
            raise AutomorphismError(
                f"triangle row {names[a]} is not a bijection", witness=(a,)
            )
        for b in range(n):
            for c in range(n):
                if row[group.table[b][c]] != group.table[row[b]][row[c]]:
                    raise AutomorphismError(
                        f"{names[a]} |> - does not respect the dot product at "
                        f"({names[b]}, {names[c]}): "
                        f"{names[a]} |> ({names[b]}.{names[c]}) = "
                        f"{names[row[group.table[b][c]]]} but "
                        f"({names[a]} |> {names[b]}).({names[a]} |> {names[c]}) = "
                        f"{names[group.table[row[b]][row[c]]]}",
                        witness=(a, b, c),
                    )

    for a in range(n):
        for b in range(n):
            star_ab = group.table[a][rows[a][b]]
            for c in range(n):
                if rows[star_ab][c] != rows[a][rows[b][c]]:
                    raise PostGroupLawError(
                        f"weighted associativity fails at "
                        f"({names[a]}, {names[b]}, {names[c]}): "
                        f"({names[a]}*{names[b]}) |> {names[c]} = "
                        f"{names[rows[star_ab][c]]} but "
                        f"{names[a]} |> ({names[b]} |> {names[c]}) = "
                        f"{names[rows[a][rows[b][c]]]}",
                        witness=(a, b, c),
                    )

    return PostGroupTable._of(names, group.table, rows, group.unit, group.inv, None)
