"""Reference versions of finite-layer checks, kept only as oracles.

check_braid_equation and check_ybe are the closure-based triple loops
that the library had before both checks shared one braid kernel.  Each
composes its own maps of triples, so the YBE oracle never goes through
the braid relation.  gauge_gl is the derived product of gauge maps,
built from gauge_dot and gauge_act, a second path to the * table.

to_skew_brace and skew_brace_to_postgroup are the conversions as they
were before the records carried their proofs: each validates every
group and table it reads or derives from scratch.
"""

from __future__ import annotations

from postgroup_lab.action_postgroup import GaugeMap, gauge_act, gauge_dot
from postgroup_lab.errors import CheckResult
from postgroup_lab.finite_postgroup import (
    BraidMap,
    PostGroupTable,
    SkewBrace,
    check_size,
    gl_star_table,
    validate_group,
    validate_postgroup,
    validate_skew_brace,
)


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
