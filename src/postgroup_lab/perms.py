"""Small helpers for permutations given as index tuples."""

from __future__ import annotations

from collections.abc import Sequence


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose_perm(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Return p after q, so compose_perm(p, q)[i] == p[q[i]]."""
    return tuple(map(p.__getitem__, q))


def invert_perm(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)
