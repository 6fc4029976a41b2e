"""Reduced words in the free group over a named generator alphabet.

A word is a sequence of letters, each a generator with a sign.  The
text form is whitespace separated: ``a b' a`` means a . b^{-1} . a, and
the empty word prints as the reserved token ``e``.  All arithmetic
keeps words reduced, meaning no letter is adjacent to its own inverse.

Letters are interned (see interned.py) in the module table _LETTERS,
keyed by (gen, sign): equal letters are the same object, so letter
equality is identity and each letter's hash is computed once.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import AlphabetMismatchError, UnknownNameError
from .interned import Interned, Record

UNIT_TOKEN = "e"


class Alphabet(Record):
    """Ordered set of generator names shared by words over one magma."""

    __slots__ = ("names", "_index")
    names: tuple[str, ...]
    _index: dict[str, int]

    def __init__(self, names: tuple[str, ...]) -> None:
        names = tuple(names)
        if not names:
            raise UnknownNameError("alphabet needs at least one generator")
        for name in names:
            if not name or any(ch.isspace() for ch in name) or "'" in name:
                raise UnknownNameError(f"bad generator name {name!r}")
            if name == UNIT_TOKEN:
                raise UnknownNameError(
                    f"the name {UNIT_TOKEN!r} is reserved for the empty word"
                )
        if len(set(names)) != len(names):
            raise UnknownNameError("generator names must be distinct")
        set_names, set_index = self._setters
        set_names(self, names)
        set_index(self, {n: i for i, n in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNameError(f"unknown generator {name!r}") from None


_LETTERS: dict[tuple[int, int], Letter] = {}


class Letter(Interned):
    """A generator index with a sign, +1 for the generator, -1 inverse."""

    __slots__ = ("gen", "sign")
    gen: int
    sign: int

    def __new__(cls, gen: int, sign: int) -> Letter:
        key = (gen, sign)
        letter = _LETTERS.get(key)
        if letter is None:
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
            letter = _LETTERS[key] = cls._build(key)
        return letter

    def inverse(self) -> Letter:
        return Letter(self.gen, -self.sign)


class ReducedWord(Record):
    """A reduced word.  Construct through reduce_word or parse_word."""

    __slots__ = ("alphabet", "letters")
    alphabet: Alphabet
    letters: tuple[Letter, ...]

    def __init__(self, alphabet: Alphabet, letters: tuple[Letter, ...]) -> None:
        letters = tuple(letters)
        n = len(alphabet)
        for letter in letters:
            if not 0 <= letter.gen < n:
                raise ValueError(f"letter index {letter.gen} out of range")
        for a, b in zip(letters, letters[1:]):
            if a.gen == b.gen and a.sign == -b.sign:
                raise ValueError("word is not reduced")
        set_alphabet, set_letters = self._setters
        set_alphabet(self, alphabet)
        set_letters(self, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_str(self)


def unit(alphabet: Alphabet) -> ReducedWord:
    return ReducedWord(alphabet, ())


def reduce_word(alphabet: Alphabet, letters: Iterable[Letter]) -> ReducedWord:
    """Cancel adjacent inverse pairs until none remain, in one stack pass."""
    stack: list[Letter] = []
    for letter in letters:
        if stack and stack[-1].gen == letter.gen and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return ReducedWord(alphabet, tuple(stack))


def parse_word(text: str, alphabet: Alphabet) -> ReducedWord:
    """Parse the whitespace separated text form and reduce the result.

    The token ``e`` contributes no letters, so it can spell the unit on
    its own or appear inside a longer word.
    """
    letters: list[Letter] = []
    for position, token in enumerate(text.split(), start=1):
        if token == UNIT_TOKEN:
            continue
        sign = 1
        name = token
        if token.endswith("'"):
            sign = -1
            name = token[:-1]
        if name == UNIT_TOKEN:
            raise UnknownNameError(
                f"token {position}: the unit {UNIT_TOKEN!r} has no inverse form"
            )
        try:
            gen = alphabet.index(name)
        except UnknownNameError:
            raise UnknownNameError(
                f"token {position}: unknown generator {name!r}"
            ) from None
        letters.append(Letter(gen, sign))
    return reduce_word(alphabet, letters)


def word_str(u: ReducedWord) -> str:
    if not u.letters:
        return UNIT_TOKEN
    names = u.alphabet.names
    return " ".join(
        names[l.gen] if l.sign == 1 else names[l.gen] + "'" for l in u.letters
    )


def check_same_alphabet(u: ReducedWord, v: ReducedWord) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("words are over different alphabets")


def dot(u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """Concatenate and reduce.  Only the seam needs cancellation."""
    check_same_alphabet(u, v)
    left = list(u.letters)
    right = list(v.letters)
    i = 0
    while left and i < len(right):
        a, b = left[-1], right[i]
        if a.gen == b.gen and a.sign == -b.sign:
            left.pop()
            i += 1
        else:
            break
    return ReducedWord(u.alphabet, tuple(left) + tuple(right[i:]))


def invert(u: ReducedWord) -> ReducedWord:
    return ReducedWord(u.alphabet, tuple(l.inverse() for l in reversed(u.letters)))
