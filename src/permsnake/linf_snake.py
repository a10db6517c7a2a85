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
outside the code.  successor_inf is the push at rank_inf(sigma), read from
the block layout, so it raises on exactly the words rank_inf rejects.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .code_model import GrayCode, verify_snake
from .perm_core import Perm, check_perm
from .rmgc import build_rmgc, rmgc_rank, rmgc_unrank

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
    """Codeword count of build_linf_snake(n, variant)."""
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
    return (s + 1,) * s + build_rmgc(s - 1).code.transitions[:-1]


def _assemble(n: int, outer: tuple[int, ...], inner: tuple[int, ...]) -> GrayCode:
    s = len(inner)
    block = _block(s)
    transitions: list[int] = []
    for glue in build_rmgc(len(outer)).code.transitions:
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
    return q + build_rmgc(p).code.transitions[r_block]


def _rank_inf_raw(sigma: Perm, p: int, q: int) -> int:
    blk = q + factorial(q - 1)
    odd_table = build_rmgc(p)
    if sigma[q] % 2 == 0:
        idx = next(i for i, v in enumerate(sigma) if v % 2 == 1)
        odd_seq = ((sigma[idx] + 1) // 2,) + tuple(
            (v + 1) // 2 for v in sigma[q + 1 :]
        )
        return idx + blk * rmgc_rank(odd_table, odd_seq)
    odd_half = tuple((v + 1) // 2 for v in sigma[q:])
    r_block = rmgc_rank(odd_table, odd_half)
    if q == 2:
        return q + blk * r_block
    prefix = tuple(v // 2 for v in sigma[: q - 1])
    if r_block % 2 == 1:
        prefix = _swap12(prefix)
    return q + blk * r_block + rmgc_rank(build_rmgc(q - 1), prefix)


def rank_inf(sigma: Perm) -> int:
    """Rank of codeword sigma in build_linf_snake's enumeration.

    Raises ValueError when sigma is not one of the codewords.
    """
    sigma = check_perm(sigma)
    n, p, q = _split(sigma)
    try:
        r = _rank_inf_raw(sigma, p, q)
    except (ValueError, StopIteration):
        raise ValueError(
            f"{sigma} is not a codeword of the length-{n} code"
        ) from None
    if unrank_inf(n, r) != sigma:
        raise ValueError(f"{sigma} is not a codeword of the length-{n} code")
    return r


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
    odd_head = rmgc_unrank(build_rmgc(p), r_block)
    odds = tuple(2 * v - 1 for v in odd_head)
    if r_block % 2 == 0 or q == 2:
        a = tuple(range(2, 2 * q + 1, 2))
    else:
        a = (4, 2) + tuple(range(6, 2 * q + 1, 2))
    if r < q:
        return a[q - r :] + (odds[0],) + a[: q - r] + odds[1:]
    prefix = rmgc_unrank(build_rmgc(q - 1), r - q)
    if q >= 3 and r_block % 2 == 1:
        prefix = _swap12(prefix)
    evens = tuple(2 * v for v in prefix) + (2 * q,)
    return evens + odds
