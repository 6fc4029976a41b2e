"""Acceptance suite: nine exact criteria over the whole library.

Each criterion is a function returning (ok, detail); the runner times
them, enforces the per-criterion budgets, and never converts an
exception into silence: a crash is reported as a failure with the
exception text.  The quick level is the contract; the full level
widens the sweeps (extra magma, degree 5 sweeps, order 6 series) and
scales the budgets accordingly.
"""

from __future__ import annotations

import random
from time import perf_counter

from .errors import DiagonalityError, ShapeError
from .interned import Record
from .words import dot
from .perms import compose_perm
from .magma import shift_family_magma, validate_magma
from .free_postgroup import (
    act,
    act_perm,
    gl_product,
    jmap,
    kmap,
    random_word,
)
from .finite_postgroup import (
    BraidMap,
    braiding,
    check_braid_equation,
    check_braid_laws,
    check_involutive,
    conjugation_postgroup,
    cyclic_group,
    gl_group,
    invert_braiding,
    is_pregroup,
    opposite,
    postgroup_from_braided,
    skew_brace_to_postgroup,
    symmetric_group,
    to_skew_brace,
    trivial_postgroup,
)
from .action_postgroup import build_gauge_postgroup, validate_action
from .tensor_postlie import Leaf, Node, TensorPoly, kmap_tensor
from .magnus import TruncatedSeries, alpha_series, bernoulli_modified, check_alpha_ode
from .laws import check_posthopf_laws, check_twist_hopf, magnus_identities
from fractions import Fraction


class CriterionResult(Record):
    __slots__ = ("name", "ok", "detail", "seconds")
    name: str
    ok: bool
    detail: str
    seconds: float

    def __bool__(self) -> bool:
        return self.ok


def acceptance_corpus():
    """The finite tables every exhaustive criterion runs over."""
    groups = (
        ("Z/2", cyclic_group(2)),
        ("Z/3", cyclic_group(3)),
        ("Z/4", cyclic_group(4)),
        ("S3", symmetric_group(3)),
    )
    entries = []
    for label, group in groups:
        entries.append((f"trivial {label}", trivial_postgroup(group)))
        entries.append((f"conjugation {label}", conjugation_postgroup(group)))
    fixing = validate_action(cyclic_group(2), ("p", "q"), ((0, 0), (1, 1)))
    entries.append(("gauge Z/2 on 2 points", build_gauge_postgroup(fixing)))
    return entries


def _criterion_free_laws(seed: int, level: str):
    magmas = [shift_family_magma((1, 1, 1)), shift_family_magma((0, 0, 0))]
    if level == "full":
        magmas.append(shift_family_magma((0, 2, 1)))
    rng = random.Random(seed)
    rounds = 2000
    for magma in magmas:
        for _ in range(rounds):
            u = random_word(magma.alphabet, rng, 10)
            v = random_word(magma.alphabet, rng, 10)
            w = random_word(magma.alphabet, rng, 10)
            if act(magma, gl_product(magma, u, v), w) != act(magma, u, act(magma, v, w)):
                return False, f"star action law fails on {u} {v} {w}"
            if act(magma, u, dot(v, w)) != dot(act(magma, u, v), act(magma, u, w)):
                return False, f"automorphism law fails on {u} {v} {w}"
            if act_perm(magma, gl_product(magma, u, v)) != compose_perm(
                act_perm(magma, u), act_perm(magma, v)
            ):
                return False, f"permutation homomorphism fails on {u} {v}"
    return True, f"{rounds} random triples on each of {len(magmas)} magmas"


def _criterion_jk_roundtrips(seed: int, level: str):
    magmas = [shift_family_magma((1, 1, 1))]
    if level == "full":
        magmas.append(shift_family_magma((0, 2, 1)))
    rng = random.Random(seed)
    rounds, max_len = 1000, 64
    for magma in magmas:
        previous = None
        for _ in range(rounds):
            u = random_word(magma.alphabet, rng, max_len)
            if kmap(magma, jmap(magma, u)) != u:
                return False, f"kmap does not undo jmap on {u}"
            if jmap(magma, kmap(magma, u)) != u:
                return False, f"jmap does not undo kmap on {u}"
            if previous is not None:
                left = jmap(magma, dot(previous, u))
                right = gl_product(magma, jmap(magma, previous), jmap(magma, u))
                if left != right:
                    return False, f"jmap is not multiplicative on {previous}, {u}"
            previous = u
    return True, f"{rounds} words of <= {max_len} letters per magma, roundtrips, products"


def _criterion_finite_corpus(seed: int, level: str):
    entries = acceptance_corpus()
    for label, pg in entries:
        braid = braiding(pg)
        for law, result in check_braid_laws(braid).items():
            if not result.ok:
                return False, f"{label}: {law} fails at {result.witness}"
        brace = to_skew_brace(pg)
        if skew_brace_to_postgroup(brace) != pg:
            return False, f"{label}: brace roundtrip is not the identity"
        rebuilt = postgroup_from_braided(gl_group(pg), braid)
        if rebuilt != pg:
            return False, f"{label}: braided roundtrip is not the identity"
        flipped = opposite(pg)
        if braiding(flipped) != invert_braiding(braid):
            return False, f"{label}: opposite braiding is not the inverse"
        if gl_group(flipped) != gl_group(pg):
            return False, f"{label}: opposite has a different star group"
    return True, f"{len(entries)} tables, exhaustive law suite"


def _criterion_pregroup_involutive(seed: int, level: str):
    entries = acceptance_corpus()
    checked = 0
    for label, pg in entries:
        if not is_pregroup(pg):
            continue
        checked += 1
        result = check_involutive(braiding(pg))
        if not result.ok:
            return False, f"{label}: braiding squared is not the identity"
    return True, f"{checked} pre-groups, sigma is an involution on each"


def _criterion_twist_golden_values(seed: int, level: str):
    x1, x2, x3 = Leaf(0), Leaf(1), Leaf(2)
    two = kmap_tensor(TensorPoly.from_word((x1, x2)))
    expected_two = TensorPoly({(x1, x2): 1, (Node(x1, x2),): -1})
    if two != expected_two:
        return False, "two letter expansion is wrong"
    three = kmap_tensor(TensorPoly.from_word((x1, x2, x3)))
    expected_three = TensorPoly({
        (x1, x2, x3): 1,
        (x1, Node(x2, x3)): -1,
        (Node(x1, x2), x3): -1,
        (x2, Node(x1, x3)): -1,
        (Node(x2, Node(x1, x3)),): 1,
        (Node(Node(x1, x2), x3),): 1,
    })
    if three != expected_three:
        return False, "three letter expansion is wrong"
    if not all(abs(c) == 1 for c in three.terms.values()):
        return False, "three letter expansion has a coefficient off unit size"
    return True, "two and six term expansions match with unit coefficients"


def _sweep(check):
    """The criterion that runs check through degree 5 at full level, 4 at quick."""
    return lambda seed, level: check(5 if level == "full" else 4)


def _criterion_magnus_flow(seed: int, level: str):
    order = 6 if level == "full" else 5
    for _, report in magnus_identities(Leaf(0), order)[1]:
        if not report.ok:
            return False, report.witness
    listed = tuple(map(Fraction, ("1", "1/2", "1/6", "0", "-1/30", "0", "1/42")))
    got = tuple(bernoulli_modified(n) for n in range(7))
    if got != listed:
        return False, f"modified Bernoulli prefix is {got}"
    return True, f"all flow and Magnus identities through order {order}"


def _criterion_negative_controls(seed: int, level: str):
    try:
        validate_magma(("0", "1"), ((0, 1), (1, 0)))
        return False, "the additive two element magma was not rejected"
    except DiagonalityError:
        pass
    braid = braiding(trivial_postgroup(cyclic_group(3)))
    left = [list(row) for row in braid.left]
    right = [list(row) for row in braid.right]
    left[0][0], left[0][1] = left[0][1], left[0][0]
    right[0][0], right[0][1] = right[0][1], right[0][0]
    result = check_braid_equation(BraidMap(braid.elements, left, right))
    if result.ok:
        return False, "the corrupted braiding still satisfies the braid equation"
    if result.witness is None:
        return False, "the corrupted braiding failed without a witness"
    x = Leaf(0)
    alpha = alpha_series(x, 4)
    broken = list(alpha.coeffs)
    broken[2] = broken[2] + TensorPoly.from_word((Node(x, Node(x, x)),))
    report = check_alpha_ode(x, 4, series=TruncatedSeries(tuple(broken)))
    if report.ok:
        return False, "the perturbed deformation series passed the flow check"
    if "order 1" not in (report.witness or ""):
        return False, f"perturbation was caught at the wrong place: {report.witness}"
    return True, f"all three controls rejected; braid witness {result.witness}"


CRITERIA = (
    ("free-postgroup-laws", _criterion_free_laws, 5.0),
    ("jmap-kmap-isomorphism", _criterion_jk_roundtrips, 5.0),
    ("finite-corpus-suite", _criterion_finite_corpus, 10.0),
    ("pregroup-involutivity", _criterion_pregroup_involutive, 10.0),
    ("twist-golden-values", _criterion_twist_golden_values, 5.0),
    ("twist-hopf-isomorphism", _sweep(check_twist_hopf), 60.0),
    ("posthopf-postlie-axioms", _sweep(check_posthopf_laws), 60.0),
    ("magnus-flow-identities", _criterion_magnus_flow, 120.0),
    ("negative-controls", _criterion_negative_controls, 10.0),
)


def run_acceptance(seed: int = 0, level: str = "quick"):
    """Run all nine criteria; returns a tuple of CriterionResult."""
    if level not in ("quick", "full"):
        raise ShapeError(f"unknown level {level!r}, expected quick or full")
    scale = 4.0 if level == "full" else 1.0
    results = []
    for name, fn, budget in CRITERIA:
        start = perf_counter()
        try:
            ok, detail = fn(seed, level)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if ok and seconds >= budget * scale:
            ok = False
            detail = f"{detail}; took {seconds:.1f}s against {budget * scale:.0f}s"
        results.append(CriterionResult(name, ok, detail, seconds))
    return tuple(results)
