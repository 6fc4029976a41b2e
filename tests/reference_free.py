"""Letter-at-a-time reference versions of the free post-group kernels.

These are the original quadratic implementations of act_perm_raw,
jmap and kmap, kept only as oracles for the single-pass library code.
They rest on nothing but the magma table, the permutation helpers and
dot, so a fault in the library's running-permutation kernels cannot
hide in the reference.  act, inverse_act and gl_product are rebuilt
here on top of the reference act_perm_raw for the same reason, and
opposite_act, the companion action of the opposite post-group, on top
of that.  generator_perm, the forward permutation of one letter, was
the library's until the action came to share kmap's solve, which reads
only the inverse permutations.
"""

from __future__ import annotations

from collections.abc import Sequence

from postgroup_lab.magma import MagmaTable
from postgroup_lab.perms import compose_perm, identity_perm, invert_perm
from postgroup_lab.words import Letter, ReducedWord, dot, invert


def generator_perm(magma: MagmaTable, letter: Letter) -> tuple[int, ...]:
    """The permutation of the generator set attached to one letter.

    A positive letter m acts by its row L_m.  A negative letter m^{-1}
    acts by the inverse of the row of lam^{-1}(m), the unique choice
    that makes the extended action multiplicative on inverse pairs.
    """
    if letter.sign == 1:
        return magma.triangle[letter.gen]
    return magma.row_inv[magma.lam_inv[letter.gen]]


def act_perm_raw(magma: MagmaTable, letters: Sequence[Letter]) -> tuple[int, ...]:
    """Run the extension recursion over any letter sequence, reduced or not."""
    n = len(magma)
    pi = identity_perm(n)
    pi_inv = identity_perm(n)
    for letter in letters:
        b = Letter(pi_inv[letter.gen], letter.sign)
        step = generator_perm(magma, b)
        pi = compose_perm(pi, step)
        pi_inv = compose_perm(invert_perm(step), pi_inv)
    return pi


def _moved(perm: tuple[int, ...], v: ReducedWord) -> ReducedWord:
    return ReducedWord(v.alphabet, tuple(Letter(perm[l.gen], l.sign) for l in v.letters))


def act(magma: MagmaTable, u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """u |> v: every letter of v moved by the permutation of u."""
    return _moved(act_perm_raw(magma, u.letters), v)


def inverse_act(magma: MagmaTable, u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """The w with u |> w = v: every letter of v moved back by u's permutation."""
    return _moved(invert_perm(act_perm_raw(magma, u.letters)), v)


def gl_product(magma: MagmaTable, u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """The group law u * v = u . (u |> v) of the free post-group."""
    return dot(u, act(magma, u, v))


def opposite_act(magma: MagmaTable, u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """The companion action u . (u |> v) . u^{-1} of the opposite post-group."""
    return dot(gl_product(magma, u, v), invert(u))


def jmap(magma: MagmaTable, u: ReducedWord) -> ReducedWord:
    """Rewrite a dot-word as a *-word, one letter at a time.

    Positive letters map to themselves.  The negative letter of m maps
    to its *-inverse, the single letter lam(m)^{-1}.  The images are
    then multiplied with the * product from the left.
    """
    out = ReducedWord(u.alphabet, ())
    for letter in u.letters:
        if letter.sign == 1:
            image = letter
        else:
            image = Letter(magma.lam[letter.gen], -1)
        out = gl_product(magma, out, ReducedWord(u.alphabet, (image,)))
    return out


def kmap(magma: MagmaTable, v: ReducedWord) -> ReducedWord:
    """Invert jmap by a triangular solve along the running permutation.

    Peeling letters from the left, the k-th letter b of the input must
    equal pi(a'), where pi is the permutation accumulated from the
    previous solved letters, so a' = pi^{-1}(b).  A positive a' came
    from itself; a negative letter p^{-1} came from lam^{-1}(p)^{-1}.
    The recovered letters are concatenated with the dot product.
    """
    n = len(magma)
    pi_inv = identity_perm(n)
    recovered: list[Letter] = []
    for letter in v.letters:
        solved = Letter(pi_inv[letter.gen], letter.sign)
        step = generator_perm(magma, solved)
        pi_inv = compose_perm(invert_perm(step), pi_inv)
        if solved.sign == 1:
            recovered.append(solved)
        else:
            recovered.append(Letter(magma.lam_inv[solved.gen], -1))
    out = ReducedWord(v.alphabet, ())
    for letter in recovered:
        out = dot(out, ReducedWord(v.alphabet, (letter,)))
    return out
