"""Cyclic snakes under the Chebyshev metric, assembled from rotation codes.

Write p = ceil(n/2) for the count of odd values and q = floor(n/2) for the
even values.  Keeping all odd values in fixed relative order forces any two
distinct permutations to differ by at least 2 somewhere, so a code that walks
the even values through blocks while stepping the odd arrangement once per
block is automatically a Chebyshev snake.

A block starts at [x, a_1, ..., a_s, tail] where the a's share a parity and x
has the other one: s pushes of t_{s+1} rotate the a's past x, then a complete
cyclic Gray code over the leading s-1 positions (its closing t_2 omitted)
walks the remaining arrangements.  Block size s + (s-1)!.  The default
variant (odd-top) runs blocks over the q even values and glues p! of them
with one odd push each, following a complete order-p rotation code; sizes are
p! * (q + (q-1)!): 6, 18, 30, 120, 240, 1200, 3480 for n = 4..10.  The
even-top variant swaps the roles (strictly smaller for odd n).

rank_inf, unrank_inf and successor_inf index the default variant without
expanding it, through one table per length (_layout), built on first use.
Cut a codeword after position q+1.  The tail is the block's odd arrangement
without its first value; a block's pushes reach only the head positions, so
it keeps its tail.  The table walks one block's pushes (_block) once from
the identity on the q+1 head positions, and the code's pushes between blocks
from its start, one block at a time; each distinct first head gets one heads
tuple, that walk read through it, and one offset dict.  It keeps,
keyed by raw values, each block's heads in rank order with its tail, and for
each tail its block's first rank and its heads' offsets; and the code's
pushes in rank order.  So rank_inf is two dict lookups, and it raises
ValueError on every permutation outside the code: a tail that is a key holds
p-1 odd values, which leaves the evens and the block's first odd value to
the head, and the head must then be one of its block's.  A hit counts only
when every entry is an int (1.0 and True hash and compare like 1), and
check_perm's refusal is reached only after a miss.  unrank_inf joins a
stored head and tail, and successor_inf reads the push at rank_inf(sigma),
so it raises on exactly the words rank_inf rejects.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import countOf
from typing import NamedTuple

from .code_model import GrayCode, expand, verify_snake
from .perm_core import Perm, _require_int, check_perm, identity, push_top
from .rmgc import build_rmgc

__all__ = [
    "VARIANTS",
    "build_linf_snake",
    "linf_size",
    "rank_inf",
    "successor_inf",
    "unrank_inf",
]

VARIANTS = ("odd-top", "even-top")

MIN_LINF_N = 4
MAX_LINF_N = 10


def linf_size(n: int, variant: str = "odd-top") -> int:
    """Codeword count of build_linf_snake(n, variant); the closed form holds
    beyond MAX_LINF_N too."""
    _require_int("n", n)
    if n < MIN_LINF_N:
        raise ValueError(f"n must be >= {MIN_LINF_N}, got {n}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    p = (n + 1) // 2
    q = n // 2
    if variant == "odd-top":
        return factorial(p) * (q + factorial(q - 1))
    return factorial(q) * (p + factorial(p - 1))


@lru_cache(maxsize=None)
def _block(s: int) -> tuple[int, ...]:
    """Pushes of one block over s inner values, up to its glue push: s
    rotations, then the order s-1 complete code without its closing t_2."""
    return (s + 1,) * s + build_rmgc(s - 1).transitions[:-1]


def _assemble(n: int, outer: tuple[int, ...], inner: tuple[int, ...]) -> GrayCode:
    s = len(inner)
    block = _block(s)
    transitions: list[int] = []
    for glue in build_rmgc(len(outer)).transitions:
        transitions.extend(block)
        transitions.append(s + glue)
    start = (outer[0],) + inner + outer[1:]
    return GrayCode(n=n, start=start, transitions=tuple(transitions), cyclic=True)


@lru_cache(maxsize=None)
def build_linf_snake(n: int, variant: str = "odd-top") -> GrayCode:
    """Cyclic Chebyshev snake of length n, 4 <= n <= 10.

    The result is verified at build time (pairwise distance >= 2 over all
    codewords); construction bugs surface here, not downstream.
    """
    _require_int("n", n)
    if not MIN_LINF_N <= n <= MAX_LINF_N:
        raise ValueError(f"n must be in {MIN_LINF_N}..{MAX_LINF_N}, got {n}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    p = (n + 1) // 2
    q = n // 2
    odds = tuple(range(1, 2 * p, 2))
    evens = tuple(range(2, 2 * q + 1, 2))
    if variant == "odd-top":
        code = _assemble(n, odds, evens)
    else:
        code = _assemble(n, evens, odds)
    report = verify_snake(code, "linf")
    if not report.valid:
        raise AssertionError(
            f"assembled code failed verification at pair {report.witness}"
        )
    return code


class _Layout(NamedTuple):
    """The enumeration table of build_linf_snake(n), keyed by raw values."""

    blk: int  # codewords per block
    blocks: tuple[tuple[tuple[Perm, ...], Perm], ...]  # per block: heads in rank order, tail
    tails: dict[Perm, tuple[int, dict[Perm, int]]]  # per tail: block's first rank, head offsets
    pushes: tuple[int, ...]  # the code's pushes in rank order


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    q = n // 2
    # the arrangements one block walks on its q+1 head positions
    walk = expand(GrayCode(q + 1, identity(q + 1), _block(q), cyclic=False))
    blk = len(walk)
    firsts = {}  # a block's first head -> its heads in rank order, their offsets
    blocks, tails = [], {}
    code = _assemble(n, tuple(range(1, n + 1, 2)), tuple(range(2, n + 1, 2)))
    word = code.start
    for b, glue in enumerate(code.transitions[blk - 1 :: blk]):  # the pushes between blocks
        first, tail = word[: q + 1], word[q + 1 :]
        if first not in firsts:
            heads = tuple(tuple(first[v - 1] for v in u) for u in walk)
            firsts[first] = heads, {h: r for r, h in enumerate(heads)}
        heads, offsets = firsts[first]
        blocks.append((heads, tail))
        tails[tail] = b * blk, offsets
        word = push_top(glue, heads[-1] + tail)
    return _Layout(blk, tuple(blocks), tails, code.transitions)


def successor_inf(sigma: Perm) -> int:
    """Push index from codeword sigma to its successor (default variant).

    Raises ValueError when sigma is not a codeword, as rank_inf does.
    """
    r = rank_inf(sigma)
    return _layout(len(sigma)).pushes[r]


def rank_inf(sigma: Perm) -> int:
    """Rank of codeword sigma in build_linf_snake's enumeration.

    Raises ValueError when sigma is not one of the codewords.
    """
    t = tuple(sigma)
    n = len(t)
    if MIN_LINF_N <= n <= MAX_LINF_N:
        cut = n // 2 + 1
        try:
            first, offsets = _layout(n).tails[t[cut:]]
            r = first + offsets[t[:cut]]
        except (KeyError, TypeError):
            pass
        else:
            # the hit matched a codeword entry by entry; int entries make it that codeword
            if countOf(map(type, t), int) == n:
                return r
    sigma = check_perm(t if iter(sigma) is sigma else sigma)  # an iterator is spent
    if not MIN_LINF_N <= n <= MAX_LINF_N:
        raise ValueError(f"length must be in {MIN_LINF_N}..{MAX_LINF_N}, got {n}")
    raise ValueError(f"{sigma} is not a codeword of the length-{n} code")


def unrank_inf(n: int, k: int) -> Perm:
    """Codeword at rank k of build_linf_snake(n); inverse of rank_inf.

    Raises ValueError unless n and k are ints in range.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if not MIN_LINF_N <= n <= MAX_LINF_N:
        raise ValueError(f"n must be in {MIN_LINF_N}..{MAX_LINF_N}, got {n}")
    if type(k) is not int:
        raise ValueError(f"rank must be an int, got {k!r}")
    t = _layout(n)
    total = len(t.pushes)
    if not 0 <= k < total:
        raise ValueError(f"rank {k} out of range 0..{total - 1}")
    b, r = divmod(k, t.blk)
    heads, tail = t.blocks[b]
    return heads[r] + tail
