"""Reference tensor-layer loops, kept only as oracles.

is_primitive is the library's test before it stopped building the full
coproduct: it compares all 2^k splits of every word, the unshuffle of
P, with P (x) 1 + 1 (x) P term by term.

antipode_star_word is the twisted antipode of one word as the library
computed it before it summed the split terms into one dict: one
TensorPoly subtraction per proper split, memoised in its own table.

kmap_tensor_inverse is K^-1 as the finite series the library summed
before it inverted K word by word.  tree_degree, _tree_struct and
tree_key recompute by recursion what an interned tree now stores.

gl_lie_bracket is the twisted bracket as four polynomial products, as
the library wrote it before it extended the series layer's word kernel.
"""

from __future__ import annotations

from postgroup_lab.tensor_postlie import (
    Leaf,
    TensorPoly,
    concat,
    gl_star,
    kmap_tensor,
    triangle,
    unshuffle,
)


def is_primitive(poly: TensorPoly) -> bool:
    expected = {}
    for word, coeff in poly.terms.items():
        for key in ((word, ()), ((), word)):
            expected[key] = expected.get(key, 0) + coeff
    return unshuffle(poly) == TensorPoly(expected)


def gl_lie_bracket(left: TensorPoly, right: TensorPoly) -> TensorPoly:
    """[X,Y] + X |> Y - Y |> X, with no primitivity check."""
    return (
        concat(left, right)
        - concat(right, left)
        + triangle(left, right)
        - triangle(right, left)
    )


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


def kmap_tensor_inverse(poly: TensorPoly) -> TensorPoly:
    """Invert K by the finite series K^-1(A) = sum over n of (1 - K)^n A.

    (1 - K) keeps only words strictly shorter than the longest word of
    its input, so the n-th term vanishes once n exceeds that length.
    """
    total, term = TensorPoly.zero(), poly
    while not term.is_zero():
        total = total + term
        term = term - kmap_tensor(term)
    return total


def tree_degree(tree) -> int:
    if isinstance(tree, Leaf):
        return 1
    return tree_degree(tree.left) + tree_degree(tree.right)


def _tree_struct(tree) -> tuple:
    # flat self-delimiting encoding; lexicographic comparison of two
    # encodings agrees with "leaf < node, recurse left then right"
    if isinstance(tree, Leaf):
        return (0, tree.index)
    return (1,) + _tree_struct(tree.left) + _tree_struct(tree.right)


def tree_key(tree) -> tuple:
    return (tree_degree(tree), _tree_struct(tree))
