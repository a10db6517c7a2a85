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

rank_inf, unrank_inf and successor_inf index the default variant through
one table per length (_index), built on first use: the word -> rank dict
that code_model._ranks makes of build_linf_snake(n), at most 3,480 words (n =
10), and its words in rank order.  rank_inf is one lookup of bytes(sigma),
and it raises ValueError on every permutation outside the code.  A hit counts
only when every entry is an int (True converts like 1), and check_perm's
refusal is reached only after a miss.  unrank_inf reads the k-th word, and
successor_inf reads the code's push at rank_inf(sigma), so it raises on
exactly the words rank_inf rejects.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import countOf

from .code_model import GrayCode, _ranks, verify_snake
from .perm_core import Perm, _require_int, check_perm
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


def _assemble(n: int, outer: tuple[int, ...], inner: tuple[int, ...]) -> GrayCode:
    s = len(inner)
    # one block up to its glue push: s rotations, then the order s-1 complete
    # code without its closing t_2
    block = (s + 1,) * s + build_rmgc(s - 1).transitions[:-1]
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


@lru_cache(maxsize=None)
def _index(n: int) -> tuple[dict[bytes, int], tuple[bytes, ...]]:
    """The rank of each word of build_linf_snake(n), and the words in rank order."""
    ranks = _ranks(build_linf_snake(n), "linf")
    return ranks, tuple(ranks)


def successor_inf(sigma: Perm) -> int:
    """Push index from codeword sigma to its successor (default variant).

    Raises ValueError when sigma is not a codeword, as rank_inf does.
    """
    if hasattr(sigma, "__next__"):  # an iterator is read once, as rank_inf reads it
        sigma = tuple(sigma)
    r = rank_inf(sigma)
    return build_linf_snake(len(sigma)).transitions[r]


def rank_inf(sigma: Perm) -> int:
    """Rank of codeword sigma in build_linf_snake's enumeration.

    Raises ValueError when sigma is not one of the codewords.
    """
    t = tuple(sigma)
    n = len(t)
    if MIN_LINF_N <= n <= MAX_LINF_N:
        try:
            r = _index(n)[0][bytes(t)]
        except (KeyError, TypeError, ValueError):
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
    words = _index(n)[1]
    if not 0 <= k < len(words):
        raise ValueError(f"rank {k} out of range 0..{len(words) - 1}")
    return tuple(words[k])
