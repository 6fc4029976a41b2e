"""Finite post-groups as pairs of tables, with braided-group,
Yang-Baxter, and skew-brace conversions.

A post-group here is a group table (the dot product) together with a
triangle table whose rows are dot automorphisms satisfying the
weighted associativity law (a * b) |> c = a |> (b |> c), where
a * b := a . (a |> b).  The derived * table is again a group on the
same elements, the Grossman-Larson group of the structure.

Every check in this module is exhaustive and reports a witness in
element names.  Tables of more than TABLE_SIZE_CAP = 64 elements are
refused by check_size, before any table of that size is built.

A record carries its proofs: GroupTable the group axioms, SkewBrace the
brace law, PostGroupTable the triangle laws and the star group of gl_group.

The set-theoretic Yang-Baxter equation for R = flip after sigma is the
braid relation of sigma read on reversed triples, so check_braid_laws
gets both results from one pass of the kernel, _braid_failure, at the
same first failing triple.  The kernel reads sigma from flat index
lists, L[g*n + h] and R[g*n + h], built once per call.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import permutations
from math import factorial
from pathlib import Path

from .errors import (
    AutomorphismError,
    BraidedGroupError,
    CheckResult,
    GroupAxiomError,
    PostGroupLawError,
    SchemaError,
    SizeCapError,
    SkewBraceLawError,
)
from .interned import Record
from .jsonio import check_rows, dump_json, load_tables, name_list, tables_to_json
from .perms import compose_perm, invert_perm

TABLE_SIZE_CAP = 64


def check_size(n: int, what: str) -> None:
    """The size check of the finite and gauge layers: at most
    TABLE_SIZE_CAP elements, checked before the table is built."""
    if n > TABLE_SIZE_CAP:
        count = n if n.bit_length() <= 64 else "more than 2^64"
        raise SizeCapError(
            f"{what} on {count} elements exceeds the exhaustive-check cap "
            f"of {TABLE_SIZE_CAP}"
        )


def _given(record, *derived):
    """record, if its last fields are the derived ones its caller passed."""
    if derived != record._values(record)[-len(derived):]:
        fields = ", ".join(record._fields[-len(derived):])
        raise SchemaError(f"{type(record).__name__}: {fields} must be derived from its tables")
    return record


class GroupTable(Record):
    """A finite group: multiplication table plus unit and inverses."""

    __slots__ = ("elements", "table", "unit", "inv")
    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    unit: int
    inv: tuple[int, ...]

    def __new__(cls, elements, table, unit, inv):
        return _given(validate_group(elements, table), unit, tuple(inv))

    def __len__(self) -> int:
        return len(self.elements)


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


class PostGroupTable(Record):
    """A validated finite post-group: dot group plus triangle action."""

    __slots__ = ("elements", "dot", "triangle", "unit", "inv", "_star")
    elements: tuple[str, ...]
    dot: tuple[tuple[int, ...], ...]
    triangle: tuple[tuple[int, ...], ...]
    unit: int
    inv: tuple[int, ...]

    def __new__(cls, elements, dot, triangle, unit, inv):
        return _given(validate_postgroup(elements, dot, triangle), unit, tuple(inv))

    def __len__(self) -> int:
        return len(self.elements)


def validate_postgroup(
    elements: Sequence[str],
    dot: Sequence[Sequence[int]],
    triangle: Sequence[Sequence[int]],
) -> PostGroupTable:
    """Check the dot group, the automorphism property of every row of
    the triangle table, and the weighted associativity law."""
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


def gl_star_table(pg: PostGroupTable) -> tuple[tuple[int, ...], ...]:
    n = len(pg)
    return tuple(
        tuple(pg.dot[a][pg.triangle[a][b]] for b in range(n)) for a in range(n)
    )


def gl_star_inverse(pg: PostGroupTable) -> tuple[int, ...]:
    """The *-inverse column: a^{*-1} = L_a^{-1}(a^{.-1})."""
    out = []
    for a in range(len(pg)):
        row_inv = invert_perm(pg.triangle[a])
        out.append(row_inv[pg.inv[a]])
    return tuple(out)


def gl_group(pg: PostGroupTable) -> GroupTable:
    """The * product as a validated group with the same unit, kept in pg."""
    if pg._star is None:
        group = validate_group(pg.elements, gl_star_table(pg), what="star product")
        if group.unit != pg.unit:
            raise PostGroupLawError("star product changed the unit")
        if group.inv != gl_star_inverse(pg):
            raise PostGroupLawError("star inverses disagree with L_a^{-1}(a^{.-1})")
        object.__setattr__(pg, "_star", group)
    return pg._star


def opposite(pg: PostGroupTable) -> PostGroupTable:
    """The opposite post-group on the reversed dot product.

    The companion action a |>' b = a . (a |> b) . a^{.-1} keeps the
    same * product while the dot product reverses.
    """
    n = len(pg)
    dot_op = tuple(tuple(pg.dot[b][a] for b in range(n)) for a in range(n))
    tri_op = tuple(
        tuple(
            pg.dot[pg.dot[a][pg.triangle[a][b]]][pg.inv[a]] for b in range(n)
        )
        for a in range(n)
    )
    return validate_postgroup(pg.elements, dot_op, tri_op)


def is_pregroup(pg: PostGroupTable) -> bool:
    """A pre-group is a post-group whose dot product is abelian."""
    n = len(pg)
    return all(pg.dot[a][b] == pg.dot[b][a] for a in range(n) for b in range(n))


class BraidMap(Record):
    """A candidate braiding sigma(g, h) = (left[g][h], right[g][h])."""

    __slots__ = ("elements", "left", "right")
    elements: tuple[str, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]

    def __new__(cls, elements, left, right):
        # the braid kernel reads flat index lists, where an out-of-range
        # entry would silently index another row
        names = name_list(elements, "braiding elements")
        n = len(names)
        check_size(n, "braiding")
        left = check_rows(left, names, n, n, "braiding left")
        return cls._of(names, left, check_rows(right, names, n, n, "braiding right"))

    def __len__(self) -> int:
        return len(self.elements)


def braiding(pg: PostGroupTable) -> BraidMap:
    """The braiding sigma(g, h) = (g |> h, (g |> h)^{*-1} * g * h).

    The result is verified to satisfy the braided-group axioms over
    the * group before being returned.
    """
    n = len(pg)
    group = gl_group(pg)
    star, left = group.table, pg.triangle
    right = tuple(
        tuple(star[group.inv[left[g][h]]][star[g][h]] for h in range(n))
        for g in range(n)
    )
    braid = BraidMap(pg.elements, left, right)
    verify_braided_group(group, braid)
    return braid


def verify_braided_group(group: GroupTable, braid: BraidMap) -> None:
    """Braided-group axioms for sigma over the group product.

    Checks that sigma is a bijection of pairs, that the two components
    are a left and a right action of the group on itself, and that
    multiplying the components recovers the product.  Together these
    force the braid equation to hold, which check_braid_equation
    confirms independently.
    """
    names = group.elements
    n = len(names)
    if braid.elements != names:
        raise BraidedGroupError("braiding and group use different element names")
    mul = group.table
    e = group.unit

    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for g in range(n):
        for h in range(n):
            image = (braid.left[g][h], braid.right[g][h])
            if image in seen:
                g0, h0 = seen[image]
                raise BraidedGroupError(
                    f"sigma is not injective: sigma({names[g0]}, {names[h0]}) "
                    f"== sigma({names[g]}, {names[h]})",
                    witness=(g0, h0, g, h),
                )
            seen[image] = (g, h)

    for h in range(n):
        if braid.left[e][h] != h:
            raise BraidedGroupError(
                f"unit fails to act trivially on the left: "
                f"e -> {names[h]} gives {names[braid.left[e][h]]}",
                witness=(e, h),
            )
    for g in range(n):
        if braid.right[g][e] != g:
            raise BraidedGroupError(
                f"unit fails to act trivially on the right: "
                f"{names[g]} <- e gives {names[braid.right[g][e]]}",
                witness=(g, e),
            )

    for g in range(n):
        for h in range(n):
            gh = mul[g][h]
            for k in range(n):
                if braid.left[gh][k] != braid.left[g][braid.left[h][k]]:
                    raise BraidedGroupError(
                        f"left component is not an action at "
                        f"({names[g]}, {names[h]}, {names[k]})",
                        witness=(g, h, k),
                    )
                if braid.right[k][gh] != braid.right[braid.right[k][g]][h]:
                    raise BraidedGroupError(
                        f"right component is not an action at "
                        f"({names[k]}, {names[g]}, {names[h]})",
                        witness=(k, g, h),
                    )

    for g in range(n):
        for h in range(n):
            if mul[braid.left[g][h]][braid.right[g][h]] != mul[g][h]:
                raise BraidedGroupError(
                    f"compatibility fails at ({names[g]}, {names[h]}): "
                    f"(g -> h) * (g <- h) is not g * h",
                    witness=(g, h),
                )


def invert_braiding(braid: BraidMap) -> BraidMap:
    """The inverse bijection of pairs, as another BraidMap."""
    n = len(braid)
    left = [[0] * n for _ in range(n)]
    right = [[0] * n for _ in range(n)]
    for g in range(n):
        for h in range(n):
            a, b = braid.left[g][h], braid.right[g][h]
            left[a][b] = g
            right[a][b] = h
    return BraidMap(braid.elements, left, right)


def _braid_failure(braid: BraidMap):
    """The first triple (g, h, k), in lexicographic order, at which
    s12 s23 s12 and s23 s12 s23 differ, with both images; None if the
    braid relation holds on every triple."""
    n = len(braid)
    L = [x for row in braid.left for x in row]
    R = [x for row in braid.right for x in row]
    for g in range(n):
        gn = g * n
        for h in range(n):
            # s12 (g, h, k) = (a, b, k); keep a*n and b*n
            an, bn, hn = L[gn + h] * n, R[gn + h] * n, h * n
            for k in range(n):
                c, d = L[bn + k], R[bn + k]  # s23 (a, b, k) = (a, c, d)
                p, q = L[hn + k], R[hn + k]  # s23 (g, h, k) = (g, p, q)
                u, v = L[gn + p], R[gn + p]  # s12 (g, p, q) = (u, v, q)
                # lhs = s12 (a, c, d), rhs = s23 (u, v, q)
                x, y = an + c, v * n + q
                if L[x] != u or R[x] != L[y] or d != R[y]:
                    return (g, h, k), (L[x], R[x], d), (u, L[y], R[y])
    return None


def check_braid_laws(braid: BraidMap) -> dict:
    """check_braid_equation and check_ybe, keyed by law, from one kernel
    pass.  Reversing a triple turns R12 R13 R23 into s23 s12 s23 and
    R23 R13 R12 into s12 s23 s12, so both fail at the same first triple."""
    failure = _braid_failure(braid)
    if failure is None:
        return dict.fromkeys(("braid equation", "Yang-Baxter"), CheckResult(True))
    t, lhs, rhs = failure
    return {
        "braid equation": _triple_failure("braid equation", braid.elements, t, lhs, rhs),
        "Yang-Baxter": _triple_failure("Yang-Baxter", braid.elements, t, rhs[::-1], lhs[::-1]),
    }


def check_braid_equation(braid: BraidMap) -> CheckResult:
    """(sigma x 1)(1 x sigma)(sigma x 1) == (1 x sigma)(sigma x 1)(1 x sigma)
    on all triples."""
    return check_braid_laws(braid)["braid equation"]


def check_ybe(braid: BraidMap) -> CheckResult:
    """R12 R13 R23 == R23 R13 R12 for R = flip after sigma."""
    return check_braid_laws(braid)["Yang-Baxter"]


def _triple_failure(law: str, names: tuple[str, ...], *triples) -> CheckResult:
    """The failed result of a law at triple t, both sides in element names."""
    t, lhs, rhs = ("(" + ", ".join(names[i] for i in x) + ")" for x in triples)
    return CheckResult(False, f"{law} fails at {t}: lhs {lhs} != rhs {rhs}")


def check_involutive(braid: BraidMap) -> CheckResult:
    """sigma after sigma is the identity on pairs."""
    names, left, right = braid.elements, braid.left, braid.right
    n = len(names)
    for g in range(n):
        for h in range(n):
            a, b = left[g][h], right[g][h]
            if (left[a][b], right[a][b]) != (g, h):
                return CheckResult(
                    False,
                    f"sigma^2 moves the pair ({names[g]}, {names[h]})",
                )
    return CheckResult(True)


def postgroup_from_braided(group: GroupTable, braid: BraidMap) -> PostGroupTable:
    """Rebuild the post-group from a braided group over (G, *).

    The action is the left component of sigma and the dot product is
    g . h := g * (g^{*-1} -> h).
    """
    verify_braided_group(group, braid)
    n = len(group)
    dot = tuple(
        tuple(group.table[g][braid.left[group.inv[g]][h]] for h in range(n))
        for g in range(n)
    )
    return validate_postgroup(group.elements, dot, braid.left)


class SkewBrace(Record):
    """One set with two group structures tied by the brace law."""

    __slots__ = ("elements", "dot", "star", "unit")
    elements: tuple[str, ...]
    dot: tuple[tuple[int, ...], ...]
    star: tuple[tuple[int, ...], ...]
    unit: int

    def __new__(cls, elements, dot, star, unit):
        return _given(validate_skew_brace(elements, dot, star), unit)

    def __len__(self) -> int:
        return len(self.elements)


def validate_skew_brace(
    elements: Sequence[str],
    dot: Sequence[Sequence[int]],
    star: Sequence[Sequence[int]],
) -> SkewBrace:
    """Both tables must be groups with one unit, and the law
    g * (h . k) = (g * h) . g^{.-1} . (g * k) must hold on all triples."""
    dot_group = validate_group(elements, dot, what="dot product")
    star_group = validate_group(elements, star, what="star product")
    names = dot_group.elements
    if dot_group.unit != star_group.unit:
        raise SkewBraceLawError(
            f"the two products have different units: "
            f"{names[dot_group.unit]} and {names[star_group.unit]}"
        )
    return _brace(names, dot_group.table, star_group.table, dot_group.unit, dot_group.inv)


def _brace(names, d, s, unit, inv) -> SkewBrace:
    """validate_skew_brace's brace law over validated groups with one unit."""
    n = len(names)
    for g in range(n):
        for h in range(n):
            for k in range(n):
                lhs = s[g][d[h][k]]
                rhs = d[d[s[g][h]][inv[g]]][s[g][k]]
                if lhs != rhs:
                    raise SkewBraceLawError(
                        f"skew brace law fails at ({names[g]}, {names[h]}, "
                        f"{names[k]}): g*(h.k) = {names[lhs]} but "
                        f"(g*h).g^(-1).(g*k) = {names[rhs]}",
                        witness=(g, h, k),
                    )
    return SkewBrace._of(names, d, s, unit)


def to_skew_brace(pg: PostGroupTable) -> SkewBrace:
    """Forget the action, keep the two products."""
    return _brace(pg.elements, pg.dot, gl_group(pg).table, pg.unit, pg.inv)


def skew_brace_to_postgroup(brace: SkewBrace) -> PostGroupTable:
    """Recover the action as g |> h := g^{.-1} . (g * h)."""
    n = len(brace)
    inv = tuple(row.index(brace.unit) for row in brace.dot)
    triangle = tuple(
        tuple(brace.dot[inv[g]][brace.star[g][h]] for h in range(n))
        for g in range(n)
    )
    return _with_triangle(GroupTable._of(brace.elements, brace.dot, brace.unit, inv), triangle)


def trivial_postgroup(group: GroupTable) -> PostGroupTable:
    """g |> h = h.  The * product is the group itself."""
    n = len(group)
    return _with_triangle(group, tuple(tuple(range(n)) for _ in range(n)))


def conjugation_postgroup(group: GroupTable) -> PostGroupTable:
    """The opposite product with the conjugation action g h g^{.-1}.

    Its * product is the original group product.
    """
    n = len(group)
    dot_op = tuple(tuple(group.table[h][g] for h in range(n)) for g in range(n))
    triangle = tuple(
        tuple(group.table[group.table[g][h]][group.inv[g]] for h in range(n))
        for g in range(n)
    )
    return validate_postgroup(group.elements, dot_op, triangle)


def cyclic_group(n: int) -> GroupTable:
    """Z/n with elements named 0 .. n-1."""
    check_size(n, "cyclic group")
    elements = tuple(str(i) for i in range(n))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(elements, table)


def _cycle_name(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + "".join(str(i) for i in cycle) + ")")
    return "".join(parts) if parts else "id"


def symmetric_group(n: int) -> GroupTable:
    """S_n with cycle-notation names; products compose right to left."""
    check_size(factorial(n), "symmetric group")
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    elements = tuple(_cycle_name(p) for p in perms)
    table = [
        [index[compose_perm(p, q)] for q in perms] for p in perms
    ]
    return validate_group(elements, table)


def postgroup_to_json(pg: PostGroupTable) -> dict:
    return tables_to_json(pg.elements, dot=pg.dot, triangle=pg.triangle)


def skew_brace_to_json(brace: SkewBrace) -> dict:
    return tables_to_json(brace.elements, dot=brace.dot, star=brace.star)


def load_postgroup(path: str | Path) -> PostGroupTable:
    elements, (dot, triangle) = load_tables(path, ("dot", "triangle"))
    return validate_postgroup(elements, dot, triangle)


def load_skew_brace(path: str | Path) -> SkewBrace:
    elements, (dot, star) = load_tables(path, ("dot", "star"))
    return validate_skew_brace(elements, dot, star)


def load_group(path: str | Path) -> GroupTable:
    elements, (dot,) = load_tables(path, ("dot",))
    return validate_group(elements, dot)


def save_postgroup(pg: PostGroupTable, path: str | Path | None) -> str:
    return dump_json(postgroup_to_json(pg), path)


def save_skew_brace(brace: SkewBrace, path: str | Path | None) -> str:
    return dump_json(skew_brace_to_json(brace), path)
