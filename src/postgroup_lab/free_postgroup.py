"""The free post-group over a diagonal left-regular magma.

Elements are reduced words over the magma's generator set.  The action
of a word on the generators extends the magma rows letter by letter:
a running permutation pi starts at the identity and, for each letter a
of the acting word, absorbs the letter permutation of b := pi^{-1}(a),
where pi^{-1} moves a negative letter by acting on its base generator.
This is the unique extension with pi(u * v) = pi(u) o pi(v) for the
group law u * v := u . (u |> v), and it is well defined on unreduced
spellings of the same group element.

The letterwise action on a target word sends each letter of v through
the finished permutation, preserving signs and reducedness.

jmap and kmap are mutually inverse bijections of the set of reduced
words that exchange the free-group product with the * product; jmap is
the identity on generators and a homomorphism from dot to *.  By that
law, both run in one linear pass that carries pi along the letters,
jmap reading the magma's step table.  Neither reduces its output:
images of letters m, m'^{-1} cancel only if L_m(lam(m')) = m, that is
m' = m, which a reduced input excludes, and m^{-1}, m' is symmetric;
kmap's letters are sent by jmap to its reduced input, one for one.

kmap's pass, the solve, carries pi^{-1} and is the same recursion as
the action's: act and act_perm invert its final permutation, and
inverse_act moves letters by it as it is.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import AlphabetMismatchError
from .magma import MagmaTable, generator_perm_inv
from .perms import compose_perm, identity_perm, invert_perm
from .words import (
    Alphabet,
    Letter,
    ReducedWord,
    dot,
    invert,
    parse_word,
    reduce_word,
)


def _check_alphabet(magma: MagmaTable, u: ReducedWord) -> None:
    if u.alphabet != magma.alphabet:
        raise AlphabetMismatchError("words are over different alphabets")


def _solve(magma: MagmaTable, letters: Sequence[Letter]) -> tuple[tuple, tuple[int, ...]]:
    """The triangular solve along the running permutation, over any letters.

    Peeling letters from the left, the k-th letter b must equal pi(a'),
    where pi is the permutation accumulated from the previous solved
    letters, so a' = pi^{-1}(b).  A positive a' came from itself, a
    negative p^{-1} from lam^{-1}(p)^{-1}.  Returns those preimages and
    pi^{-1}, the inverse of the permutation of the whole sequence.
    """
    pi_inv, recovered = identity_perm(len(magma)), []
    for letter in letters:
        solved = Letter(pi_inv[letter.gen], letter.sign)
        pi_inv = compose_perm(generator_perm_inv(magma, solved), pi_inv)
        recovered.append(solved if solved.sign == 1 else Letter(magma.lam_inv[solved.gen], -1))
    return tuple(recovered), pi_inv


def act_perm_raw(magma: MagmaTable, letters: Sequence[Letter]) -> tuple[int, ...]:
    """Run the extension recursion over any letter sequence, reduced or not."""
    return invert_perm(_solve(magma, letters)[1])


def act_perm(magma: MagmaTable, u: ReducedWord) -> tuple[int, ...]:
    """The permutation of the generator set induced by the word u."""
    _check_alphabet(magma, u)
    return act_perm_raw(magma, u.letters)


def act(magma: MagmaTable, u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """u |> v: apply the permutation of u to every letter of v."""
    _check_alphabet(magma, v)
    pi = act_perm(magma, u)
    return ReducedWord(v.alphabet, tuple(Letter(pi[l.gen], l.sign) for l in v.letters))


def inverse_act(magma: MagmaTable, u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """The unique w with u |> w = v."""
    _check_alphabet(magma, u)
    _check_alphabet(magma, v)
    pi_inv = _solve(magma, u.letters)[1]
    return ReducedWord(v.alphabet, tuple(Letter(pi_inv[l.gen], l.sign) for l in v.letters))


def gl_product(magma: MagmaTable, u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """The group law u * v = u . (u |> v) of the free post-group."""
    return dot(u, act(magma, u, v))


def gl_inverse(magma: MagmaTable, u: ReducedWord) -> ReducedWord:
    """Inverse for *: undo the action of u on the dot inverse of u."""
    return inverse_act(magma, u, invert(u))


def jmap(magma: MagmaTable, u: ReducedWord) -> ReducedWord:
    """Rewrite a dot-word as a *-word in one pass.

    A letter's step entry gives its image, m or lam(m)^{-1}, appended
    moved by pi, the permutation of the product so far, which then
    absorbs the image's permutation.  No images cancel.
    """
    _check_alphabet(magma, u)
    steps, pi, out = magma._steps, identity_perm(len(magma)), []
    for letter in u.letters:
        letters, gen, perm = steps[letter.sign][letter.gen]
        out.append(letters[pi[gen]])
        pi = tuple(map(pi.__getitem__, perm))
    return ReducedWord._of(u.alphabet, tuple(out))


def kmap(magma: MagmaTable, v: ReducedWord) -> ReducedWord:
    """Invert jmap: jmap sends the solve's preimages of v's letters to v,
    one for one, and no two of them cancel."""
    _check_alphabet(magma, v)
    return ReducedWord._of(v.alphabet, _solve(magma, v.letters)[0])


def parse_over(magma: MagmaTable, text: str) -> ReducedWord:
    """Parse a word in the magma's alphabet."""
    return parse_word(text, magma.alphabet)


def random_word(alphabet: Alphabet, rng, max_len: int) -> ReducedWord:
    """A random reduced word with at most max_len letters."""
    letters = [
        Letter(rng.randrange(len(alphabet)), rng.choice((1, -1)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return reduce_word(alphabet, letters)
