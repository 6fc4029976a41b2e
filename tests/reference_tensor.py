"""Reference tensor-layer loops, kept only as oracles.

is_primitive is the library's test before it stopped building the full
coproduct: it compares all 2^k splits of every word, the unshuffle of
P, with P (x) 1 + 1 (x) P term by term.

antipode_star_word is the twisted antipode of one word as the library
computed it before it summed the split terms into one dict: one
TensorPoly subtraction per proper split, memoised in its own table.
"""

from __future__ import annotations

from postgroup_lab.tensor_postlie import TensorPoly, gl_star, unshuffle


def is_primitive(poly: TensorPoly) -> bool:
    expected = {}
    for word, coeff in poly.terms.items():
        for key in ((word, ()), ((), word)):
            expected[key] = expected.get(key, 0) + coeff
    return unshuffle(poly) == TensorPoly(expected)


_SSTAR: dict = {}


def antipode_star_word(word: tuple) -> TensorPoly:
    """S_*(word) from sum S(w_1) * w_2 = 0 over the splits of a nonunit word."""
    hit = _SSTAR.get(word)
    if hit is not None:
        return hit
    if not word:
        out = TensorPoly.unit()
    else:
        out = -TensorPoly.from_word(word)
        n = len(word)
        for mask in range(1, (1 << n) - 1):
            sub = tuple(word[i] for i in range(n) if mask >> i & 1)
            comp = tuple(word[i] for i in range(n) if not mask >> i & 1)
            out = out - gl_star(antipode_star_word(sub), TensorPoly.from_word(comp))
    _SSTAR[word] = out
    return out
