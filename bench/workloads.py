"""The four benchmark workloads and the checks that verify their outputs.

Each workload is a set-up function, which builds the seeded inputs,
and a pass function, which runs the ops one after another and checks
every result exactly.  Ops call the library only through its public
functions, each call wrapped by the tracer under the name of the layer
function it enters.  Why each workload exists is written down in
README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from math import factorial
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import postgroup_lab
from postgroup_lab.action_postgroup import (
    build_gauge_postgroup,
    load_action,
    validate_action,
)
from postgroup_lab.errors import AxiomError
from postgroup_lab.finite_postgroup import (
    braiding,
    check_braid_equation,
    check_ybe,
    conjugation_postgroup,
    cyclic_group,
    gl_group,
    gl_star_table,
    load_postgroup,
    opposite,
    postgroup_from_braided,
    postgroup_to_json,
    skew_brace_to_json,
    skew_brace_to_postgroup,
    symmetric_group,
    to_skew_brace,
    trivial_postgroup,
    validate_postgroup,
)
from postgroup_lab.free_postgroup import gl_product, jmap, kmap, random_word
from postgroup_lab.magma import load_magma, shift_family_magma
from postgroup_lab.magnus import (
    alpha_series,
    check_alpha_ode,
    check_primitivity_of_log,
    flow_matches_twisted_exp,
    magnus_gl,
    solve_right_flow,
)
from postgroup_lab.tensor_postlie import (
    Leaf,
    TensorPoly,
    concat,
    format_poly,
    format_word,
    gl_star,
    kmap_tensor,
    kmap_tensor_inverse,
    words_of_degree,
)
from postgroup_lab.words import ReducedWord, dot, word_str

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = ROOT / "data"
PINNED = BENCH / "pinned.json"

# Tables of the finite-tables corpus.  Z/16 and the gauge table on four
# points are the largest, at 16 elements.
CYCLIC_ORDERS = (2, 3, 4, 6, 8, 12, 16)
SYMMETRIC_DEGREES = (3,)
GAUGE_POINTS = (2, 3, 4)


def require_checkout_package() -> None:
    """Refuse to time a postgroup_lab that is not this checkout's src/."""
    package = Path(postgroup_lab.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        raise SystemExit(
            f"postgroup_lab resolves to {package}, outside {ROOT / 'src'}; "
            "refusing to time code that is not this checkout"
        )


class Pass:
    """Outcomes of the ops of one pass: latencies, failures and outputs."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.op_ms: list[float] = []
        self.failed: set[int] = set()
        self.failures: list[str] = []
        self.outputs: list[str] = []
        self.emitting: set[int] = set()
        self.counts: dict[str, int] = {}
        self._op: int | None = None

    @contextmanager
    def op(self):
        """One closed-loop op; an exception inside it fails the op only."""
        self._op = self.tracer.op = len(self.op_ms)
        start = perf_counter()
        try:
            with self.tracer.span("bench.op"):
                yield
        except Exception as exc:  # the pass goes on; the op counts as failed
            self.fail(f"raised {type(exc).__name__}: {exc}")
        finally:
            self.op_ms.append((perf_counter() - start) * 1e3)
            self._op = self.tracer.op = None

    def fail(self, message: str) -> None:
        self.failed.add(self._op)
        if len(self.failures) < 10:
            self.failures.append(f"op {self._op}: {message}")

    def check(self, ok: bool, message: str | None) -> None:
        if not ok:
            self.fail(message or "check failed")

    def emit(self, text: str) -> None:
        """A canonical output line; the pass digest covers all of them."""
        self.outputs.append(text)
        self.emitting.add(self._op)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


# ---------------------------------------------------------------- free-words


def setup_free_words(seed: int, t, words_per_magma: int = 16, max_len: int = 32):
    """Seeded reduced words whose lengths are spread evenly up to max_len.

    The lengths are fixed and only the letters depend on the seed, so
    the quadratic cost of a pass does not change from seed to seed.
    """
    rng = random.Random(seed)
    magmas = (
        t.call(load_magma, DATA / "shift3.json"),
        t.call(shift_family_magma, (0, 2, 1)),
    )
    lengths = [max_len * (i + 1) // words_per_magma for i in range(words_per_magma)]
    return [
        (magma, [_word_of_length(t, magma.alphabet, rng, n) for n in lengths])
        for magma in magmas
    ]


def _word_of_length(t, alphabet, rng, length: int) -> ReducedWord:
    # every prefix of a reduced word is reduced
    while True:
        word = t.call(random_word, alphabet, rng, 4 * length)
        if len(word) >= length:
            return ReducedWord(alphabet, word.letters[:length])


def run_free_words(inputs, p: Pass) -> None:
    """Three ops per word u: each roundtrip, then the product law with
    the word before it."""
    t = p.tracer
    for magma, words in inputs:
        previous = None
        for u in words:
            j = None  # stays None if the first op fails; the product op then fails
            with p.op():
                j = t.call(jmap, magma, u, size=len(u))
                back = t.call(kmap, magma, j, size=len(j))
                p.check(back == u, "kmap(jmap(u)) != u")
                p.emit(t.call(word_str, u))
                p.emit(t.call(word_str, j))
            with p.op():
                k = t.call(kmap, magma, u, size=len(u))
                back = t.call(jmap, magma, k, size=len(k))
                p.check(back == u, "jmap(kmap(u)) != u")
                p.emit(t.call(word_str, k))
            if previous is not None:
                with p.op():
                    prev, prev_j = previous
                    joined = t.call(dot, prev, u)
                    left = t.call(jmap, magma, joined, size=len(joined))
                    right = t.call(gl_product, magma, prev_j, j)
                    p.check(left == right, "jmap(prev . u) != jmap(prev) * jmap(u)")
            previous = (u, j)


# -------------------------------------------------------------- tensor-twist


def setup_tensor_twist(seed: int, t, degree: int = 4):
    """The basis of this degree over 2 generators in seeded order, and
    every basis pair of that total degree in canonical order."""
    by_degree = [t.call(words_of_degree, d, 2) for d in range(degree + 1)]
    words = list(by_degree[degree])
    random.Random(seed).shuffle(words)
    pairs = [
        (a, b)
        for d in range(degree + 1)
        for a in by_degree[d]
        for b in by_degree[degree - d]
    ]
    return words, pairs


def _tensor(p: Pass, fn, *args) -> TensorPoly:
    out = p.tracer.call(fn, *args)
    p.count("tensor_postlie.terms_out", len(out.terms))
    return out


def run_tensor_twist(inputs, p: Pass) -> None:
    words, pairs = inputs
    t = p.tracer
    for word in words:
        with p.op():
            poly = t.call(TensorPoly.from_word, word)
            image = _tensor(p, kmap_tensor, poly)
            inverse = _tensor(p, kmap_tensor_inverse, poly)
            p.check(_tensor(p, kmap_tensor, inverse) == poly, "K(K^-1(w)) != w")
            name = t.call(format_word, word)
            for label, value in (("K", image), ("K^-1", inverse)):
                p.emit(f"{label}({name}) = {t.call(format_poly, value)}")
    images: dict = {}
    for a, b in pairs:
        with p.op():
            polys = [t.call(TensorPoly.from_word, w) for w in (a, b)]
            for w, poly in zip((a, b), polys):
                if w not in images:
                    images[w] = _tensor(p, kmap_tensor, poly)
            product = _tensor(p, gl_star, *polys)
            lhs = _tensor(p, kmap_tensor, product)
            rhs = _tensor(p, concat, images[a], images[b])
            p.check(lhs == rhs, "K(a*b) != K(a).K(b)")


# ------------------------------------------------------------- magnus-series


def setup_magnus_series(seed: int, t, order: int = 3):
    """No random input: the pass is the CLI's magnus verb at this order."""
    return order


def run_magnus_series(order: int, p: Pass) -> None:
    t = p.tracer
    x = Leaf(0)
    with p.op():
        omega = t.call(magnus_gl, x, order)
        for k, coeff in enumerate(omega.coeffs):
            p.emit(f"Omega[{k}] = {t.call(format_poly, coeff)}")
        p.count("magnus.omega_terms", sum(len(c.terms) for c in omega.coeffs))
        p.counts["magnus.omega_max_denominator_bits"] = max(
            v.denominator.bit_length() for c in omega.coeffs for v in c.terms.values()
        )
    with p.op():
        report = t.call(check_alpha_ode, x, order, t.call(alpha_series, x, order))
        p.check(report.ok, report.witness)
    with p.op():
        report = t.call(flow_matches_twisted_exp, x, order)
        p.check(report.ok, report.witness)
    with p.op():
        report = t.call(check_primitivity_of_log, t.call(solve_right_flow, x, order))
        p.check(report.ok, report.witness)


# ------------------------------------------------------------- finite-tables


def setup_finite_tables(seed: int, t, max_order: int = 16):
    """The data/ tables, and the seeded generator that picks corruptions."""
    loaded = [
        t.call(load_postgroup, DATA / name)
        for name in ("s3-conj.json", "z3-trivial.json")
    ]
    action = t.call(load_action, DATA / "z2-fix2-action.json")
    return random.Random(seed), loaded, action, max_order


def run_finite_tables(inputs, p: Pass) -> None:
    t = p.tracer
    rng, loaded, action, max_order = inputs

    def fixing(points: int):
        names = tuple(f"p{i}" for i in range(points))
        rows = tuple((i, i) for i in range(points))
        return t.call(validate_action, t.call(cyclic_group, 2), names, rows)

    groups = [(cyclic_group, n) for n in CYCLIC_ORDERS if n <= max_order]
    groups += [
        (symmetric_group, d) for d in SYMMETRIC_DEGREES if factorial(d) <= max_order
    ]
    for make, n in groups:
        for build in (trivial_postgroup, conjugation_postgroup):
            _table(p, rng, lambda: t.call(build, t.call(make, n)))
    for points in GAUGE_POINTS:
        if 2**points <= max_order:
            _table(p, rng, lambda: t.call(build_gauge_postgroup, fixing(points)))
    for pg in loaded:
        _table(p, rng, lambda: pg)
    _table(p, rng, lambda: t.call(build_gauge_postgroup, action))


def _table(p: Pass, rng: random.Random, build) -> None:
    """An op that builds a table and revalidates it, one op per law of
    the suite, then an op that refuses a corrupted copy of the table."""
    pg = None
    with p.op():
        pg = build()
        p.count("finite_postgroup.triples", len(pg) ** 3)
        again = p.tracer.call(validate_postgroup, pg.elements, pg.dot, pg.triangle)
        p.check(again == pg, "revalidation changed the table")
    if pg is None:
        return
    _suite(p, pg)
    if len(pg) >= 3:
        _reject(p, rng, pg)


def _suite(p: Pass, pg) -> None:
    """Acceptance criterion 3's exhaustive law suite on one table.

    Each law is its own op, so that no op runs long; a law whose input
    an earlier op failed to make fails too.
    """
    t = p.tracer
    braid = None
    with p.op():
        braid = t.call(braiding, pg)
        result = t.call(check_braid_equation, braid)
        p.check(result.ok, result.witness)
        p.emit(json.dumps(
            {"elements": pg.elements, "left": braid.left, "right": braid.right},
            sort_keys=True,
        ))
    with p.op():
        result = t.call(check_ybe, braid)
        p.check(result.ok, result.witness)
    with p.op():
        brace = t.call(to_skew_brace, pg)
        back = t.call(skew_brace_to_postgroup, brace)
        p.check(back == pg, "brace roundtrip moved the table")
        p.emit(json.dumps(t.call(skew_brace_to_json, brace), sort_keys=True))
    with p.op():
        flipped = t.call(opposite, pg)
        p.check(
            t.call(gl_star_table, flipped) == t.call(gl_star_table, pg),
            "the opposite has another star product",
        )
        p.emit(json.dumps(t.call(postgroup_to_json, flipped), sort_keys=True))
    with p.op():
        rebuilt = t.call(postgroup_from_braided, t.call(gl_group, pg), braid)
        p.check(rebuilt == pg, "braided roundtrip moved the table")


def _reject(p: Pass, rng: random.Random, pg) -> None:
    """Swap two seeded entries of the last non-unit dot row; the table
    must be refused with a witness that really breaks the group axioms.

    Neither column is the unit's, so the unit survives and the refusal
    names a failing triple or an element with no inverse.  The scan
    reaches the last row at a point that does not depend on the seed,
    so neither does the cost of a refusal.
    """
    with p.op():
        others = [i for i in range(len(pg)) if i != pg.unit]
        row = others[-1]
        c1, c2 = rng.sample(others, 2)
        bad = [list(r) for r in pg.dot]
        bad[row][c1], bad[row][c2] = bad[row][c2], bad[row][c1]
        try:
            p.tracer.call(
                validate_postgroup,
                pg.elements,
                bad,
                pg.triangle,
                name="finite_postgroup.reject",
            )
        except AxiomError as exc:
            p.check(
                _witness_holds(bad, pg.unit, exc.witness),
                f"refused without a valid witness: {exc}",
            )
            p.count("finite_postgroup.rejections", 1)
        else:
            p.fail("a corrupted table was accepted")


def _witness_holds(table, unit: int, witness) -> bool:
    if witness is None:
        return False
    if len(witness) == 3:
        a, b, c = witness
        return table[table[a][b]][c] != table[a][table[b][c]]
    (a,) = witness
    return not any(
        table[a][b] == unit and table[b][a] == unit for b in range(len(table))
    )


# ------------------------------------------------------------------ registry


class Workload(NamedTuple):
    setup: Callable
    run: Callable
    seeded_outputs: bool  # whether the canonical outputs change with the seed


WORKLOADS = {
    "free-words": Workload(setup_free_words, run_free_words, True),
    "tensor-twist": Workload(setup_tensor_twist, run_tensor_twist, False),
    "magnus-series": Workload(setup_magnus_series, run_magnus_series, False),
    "finite-tables": Workload(setup_finite_tables, run_finite_tables, False),
}


def pinned_digest(name: str, seed: int) -> str | None:
    """The pinned output digest that applies to this run, if any.

    Digests are pinned for one seed.  A workload whose outputs do not
    depend on the seed is held to its digest on every seed.
    """
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    if WORKLOADS[name].seeded_outputs and seed != pinned["seed"]:
        return None
    return pinned["digests"].get(name)


def run_pass(name: str, inputs, tracer, expected_digest: str | None) -> dict:
    """Run every op of one pass and check it; time from first op to last check."""
    p = Pass(tracer)
    start = perf_counter()
    WORKLOADS[name].run(inputs, p)
    digest = hashlib.sha256("\n".join(sorted(p.outputs)).encode()).hexdigest()
    if expected_digest is not None and digest != expected_digest:
        p.failed |= p.emitting
        p.failures.append(f"output digest {digest} is not the pinned {expected_digest}")
    end = perf_counter()
    return {
        "wall_s": end - start,
        "op_ms": p.op_ms,
        "attempted": len(p.op_ms),
        "failed": len(p.failed),
        "failures": p.failures,
        "digest": digest,
        "digest_checked": expected_digest is not None,
        "counts": p.counts,
    }
