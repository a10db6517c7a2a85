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

rank_inf / unrank_inf index the default variant without expanding it; rank
0 is the stored start, and rank_inf raises ValueError on every permutation
outside the code.  It needs no unrank to confirm a rank: a codeword holds the
q even values either in positions 0..q around one odd value, in the block's
rotation order (ascending, or 4, 2, 6, ... in odd-numbered blocks), or in
positions 0..q-1 ending with 2q.  rank_inf checks exactly that, so the
remaining positions hold the odd values.  The odd arrangement and the
leading evens are ranked and unranked through one table per order m = p and
m = q-1 (_arrangements, built on first use): the complete code
build_rmgc(m) expanded by code_model.word_ranks, whose keys list the
permutations of [m] in rank order.  successor_inf is the push at
rank_inf(sigma), read from the block layout, so it raises on exactly the
words rank_inf rejects.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .code_model import GrayCode, verify_snake, word_ranks
from .perm_core import Perm, check_perm
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


def _swap12(t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(2 if v == 1 else 1 if v == 2 else v for v in t)


def _split(sigma: Perm) -> tuple[int, int, int]:
    n = len(sigma)
    if not MIN_LINF_N <= n <= MAX_LINF_N:
        raise ValueError(f"length must be in {MIN_LINF_N}..{MAX_LINF_N}, got {n}")
    return n, (n + 1) // 2, n // 2


def successor_inf(sigma: Perm) -> int:
    """Push index from codeword sigma to its successor (default variant).

    Raises ValueError when sigma is not a codeword, as rank_inf does.
    """
    r = rank_inf(sigma)
    p, q = (len(sigma) + 1) // 2, len(sigma) // 2
    block = _block(q)
    r_block, off = divmod(r, len(block) + 1)
    if off < len(block):
        return block[off]
    return q + build_rmgc(p).transitions[r_block]


@lru_cache(maxsize=None)
def _arrangements(m: int) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    """The permutations of [m] in the order of build_rmgc(m), and the rank
    of each."""
    ranks = word_ranks(build_rmgc(m))
    return tuple(ranks), ranks


@lru_cache(maxsize=None)
def _evens(q: int, odd_block: bool) -> tuple[int, ...]:
    """The even values in the order a block rotates them: ascending, or
    (4, 2, 6, ...) in the odd-numbered blocks when q > 2."""
    a = tuple(range(2, 2 * q + 1, 2))
    return a[1::-1] + a[2:] if odd_block and q > 2 else a


def _rank_inf_raw(sigma: Perm, p: int, q: int) -> int:
    """Rank of sigma; raises KeyError or ValueError when sigma is not a
    codeword.  Each phase checks where the even values sit, which leaves only
    odd values in the other positions, so the odd arrangement needs no check
    of its own."""
    blk = q + factorial(q - 1)
    odd_ranks = _arrangements(p)[1]
    if sigma[q] % 2 == 0:
        idx = next(i for i, v in enumerate(sigma) if v % 2 == 1)
        odd_seq = ((sigma[idx] + 1) // 2,) + tuple(
            (v + 1) // 2 for v in sigma[q + 1 :]
        )
        r_block = odd_ranks[odd_seq]
        if sigma[idx + 1 : q + 1] + sigma[:idx] != _evens(q, r_block % 2 == 1):
            raise ValueError("the even values are not a block rotation")
        return idx + blk * r_block
    if sigma[q - 1] != 2 * q or any(v % 2 for v in sigma[: q - 1]):
        raise ValueError("the even values do not lead the word")
    odd_half = tuple((v + 1) // 2 for v in sigma[q:])
    r_block = odd_ranks[odd_half]
    prefix = tuple(v // 2 for v in sigma[: q - 1])
    if q > 2 and r_block % 2 == 1:
        prefix = _swap12(prefix)
    return q + blk * r_block + _arrangements(q - 1)[1][prefix]


def rank_inf(sigma: Perm) -> int:
    """Rank of codeword sigma in build_linf_snake's enumeration.

    Raises ValueError when sigma is not one of the codewords.
    """
    sigma = check_perm(sigma)
    n, p, q = _split(sigma)
    try:
        return _rank_inf_raw(sigma, p, q)
    except (KeyError, ValueError):
        raise ValueError(
            f"{sigma} is not a codeword of the length-{n} code"
        ) from None


def unrank_inf(n: int, k: int) -> Perm:
    """Codeword at rank k of build_linf_snake(n); inverse of rank_inf."""
    if not MIN_LINF_N <= n <= MAX_LINF_N:
        raise ValueError(f"n must be in {MIN_LINF_N}..{MAX_LINF_N}, got {n}")
    p = (n + 1) // 2
    q = n // 2
    blk = q + factorial(q - 1)
    total = factorial(p) * blk
    if not 0 <= k < total:
        raise ValueError(f"rank {k} out of range 0..{total - 1}")
    r_block, r = divmod(k, blk)
    odd_head = _arrangements(p)[0][r_block]
    odds = tuple(2 * v - 1 for v in odd_head)
    a = _evens(q, r_block % 2 == 1)
    if r < q:
        return a[q - r :] + (odds[0],) + a[: q - r] + odds[1:]
    prefix = _arrangements(q - 1)[0][r - q]
    if q > 2 and r_block % 2 == 1:
        prefix = _swap12(prefix)
    evens = tuple(2 * v for v in prefix) + (2 * q,)
    return evens + odds
