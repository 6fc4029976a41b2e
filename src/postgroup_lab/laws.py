"""Exhaustive identity checks of the tensor and series layers.

The post-Hopf operator and bracket axioms and the Hopf laws of K, swept
over every basis tuple through a total degree, and the flow and Magnus
identities of one generator.  The verbs and the acceptance suite print
what these return; the benchmark imports none of it.
"""

from __future__ import annotations

from .errors import CheckResult, SizeCapError
from .magnus import (
    alpha_series,
    check_alpha_ode,
    check_primitivity_of_log,
    check_twisted_flow,
    magnus_gl,
    right_flow,
)
from .tensor_postlie import (
    MagmaTree,
    TensorPoly,
    _linear,
    _require_primitive,
    antipode_star,
    concat,
    gl_lie_bracket,
    gl_star,
    kmap_tensor,
    pair_tensor,
    trees_of_degree,
    triangle,
    unshuffle,
    words_of_degree,
)

# the full selftest's degree; degree 6 runs past a minute
POSTHOPF_DEGREE_CAP = 5

_word = TensorPoly.from_word


def _tuples(by_degree: dict, size: int, limit: int):
    """Every size-tuple over by_degree ({degree: basis}, ascending) of
    total degree <= limit, in the order of nested loops."""
    if size == 0:
        yield ()
        return
    for degree, basis in by_degree.items():
        if degree <= limit:
            for item in basis:
                for rest in _tuples(by_degree, size - 1, limit - degree):
                    yield (item,) + rest


def check_postlie_axioms(x: TensorPoly, y: TensorPoly, z: TensorPoly) -> CheckResult:
    """Both post-Lie axioms for the primitives x, y, z, and the same
    axioms for the opposite structure (negated bracket, twisted act)."""
    _require_primitive(x, y, z)

    def bra(a, b):
        return concat(a, b) - concat(b, a)

    def opp_tri(a, b):
        return triangle(a, b) + bra(a, b)

    def opp_bra(a, b):
        return bra(b, a)

    for name, t, b in (("", triangle, bra), ("opposite ", opp_tri, opp_bra)):
        lhs = t(x, b(y, z))
        rhs = b(t(x, y), z) + b(y, t(x, z))
        if lhs != rhs:
            return CheckResult(False, f"{name}derivation axiom fails")
        assoc_xy = t(x, t(y, z)) - t(t(x, y), z)
        assoc_yx = t(y, t(x, z)) - t(t(y, x), z)
        if t(b(x, y), z) != assoc_xy - assoc_yx:
            return CheckResult(False, f"{name}associator axiom fails")
    return CheckResult(True)


def check_posthopf_laws(limit: int):
    """Exhaustive operator and bracket axiom suite through a total degree.

    Checks the product splitting of the triangle, the star action law,
    both axioms of the induced bracket action in the original and
    opposite form, the twisted bracket as the star commutator on
    primitives, and the recovery of the plain product from the twisted
    one.  Refuses a degree past POSTHOPF_DEGREE_CAP before it enumerates.
    """
    if limit > POSTHOPF_DEGREE_CAP:
        raise SizeCapError(f"degree {limit} is past the sweep's cap {POSTHOPF_DEGREE_CAP}")
    words = {d: words_of_degree(d, 2) for d in range(limit + 1)}
    word_triples = 0
    for a, b, c in _tuples(words, 3, limit):
        word_triples += 1
        pa, pb, pc = _word(a), _word(b), _word(c)
        split = _linear(
            lambda legs: concat(triangle(_word(legs[0]), pb), triangle(_word(legs[1]), pc)),
            unshuffle(pa),
        )
        if triangle(pa, concat(pb, pc)) != split:
            return False, f"product split fails on {a}, {b}, {c}"
        if triangle(gl_star(pa, pb), pc) != triangle(pa, triangle(pb, pc)):
            return False, f"action law fails on {a}, {b}, {c}"
    trees = {d: trees_of_degree(d, 2) for d in range(1, limit)}
    tree_triples = 0
    for x, y, z in _tuples(trees, 3, limit):
        tree_triples += 1
        report = check_postlie_axioms(_word((x,)), _word((y,)), _word((z,)))
        if not report.ok:
            return False, f"{report.witness} on trees {x}, {y}, {z}"
    for x, y in _tuples(trees, 2, limit):
        px, py = _word((x,)), _word((y,))
        if gl_lie_bracket(px, py) != gl_star(px, py) - gl_star(py, px):
            return False, f"twisted bracket is not the star commutator on {x}, {y}"
    recovery_pairs = 0
    for a, b in _tuples(words, 2, limit):
        recovery_pairs += 1
        pa, pb = _word(a), _word(b)
        total = _linear(
            lambda legs: gl_star(_word(legs[0]), triangle(antipode_star(_word(legs[1])), pb)),
            unshuffle(pa),
        )
        if total != concat(pa, pb):
            return False, f"twisted recovery of a.b fails on {a}, {b}"
    return True, (
        f"{word_triples} word triples, {tree_triples} tree triples, "
        f"{recovery_pairs} recovery pairs through total degree {limit}"
    )


def check_twist_hopf(limit: int):
    """K is a Hopf isomorphism through a total degree: it commutes with
    the unshuffle coproduct, and K(a*b) = K(a).K(b) on basis pairs."""
    words = {d: words_of_degree(d, 2) for d in range(limit + 1)}
    images = {a: kmap_tensor(_word(a)) for basis in words.values() for a in basis}
    pairs = 0
    for a, b in _tuples(words, 2, limit):
        # (a, ()) is the first pair of each a: check a's coproduct there
        if not b:
            expected = _linear(
                lambda legs: pair_tensor(images[legs[0]], images[legs[1]]),
                unshuffle(_word(a)),
            )
            if unshuffle(images[a]) != expected:
                return False, f"coproduct does not commute with the twist on {a}"
        pairs += 1
        if kmap_tensor(gl_star(_word(a), _word(b))) != concat(images[a], images[b]):
            return False, f"product law fails on {a}, {b}"
    return True, f"{pairs} basis pairs through total degree {limit}"


def magnus_identities(x: MagmaTree, order: int):
    """Omega of x through an order, and the three labelled flow and
    Magnus checks on it; alpha, the flow and Omega are each built once."""
    alpha = alpha_series(x, order)
    flow = right_flow(alpha)
    omega = magnus_gl(x, order)
    return omega, (
        ("deformation ODE", check_alpha_ode(x, order, alpha)),
        ("flow equals the twist of exp", check_twisted_flow(x, alpha, flow, omega)),
        ("log of the flow is primitive", check_primitivity_of_log(flow)),
    )
