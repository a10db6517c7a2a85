"""Size bounds, densities, and rates for permutation snakes.

Everything here is exact integer or Fraction arithmetic; floats appear only
in the convenience rate fields.  The constructive sizes (ksnake_size,
linf_size) come from the closed recursions, not from building codes, so rows
can be tabulated for any n up to the package cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log2
from typing import Optional

from .perm_core import MAX_N, _require_int
from .ksnake import ksnake_size
from .linf_snake import MIN_LINF_N, linf_size

__all__ = [
    "BoundsRow",
    "bounds_table",
    "ksnake_density",
    "linf_upper",
    "trivial_upper",
]


def trivial_upper(n: int) -> int:
    """n!/2: sigma and t_2 sigma (its first two entries swapped) are at
    Kendall distance 1, and as t_2 is an involution fixing no word these
    pairs split S_n: a code of minimum distance 2 holds at most one of each."""
    _require_int("n", n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return factorial(n) // 2


def linf_upper(n: int) -> int:
    """Chebyshev bound n! / 2^floor(n/2): the words differing from sigma
    only by swaps of the values 1 and 2, 3 and 4, ... (a fibre of one
    perm_core.merge_maps table) are 2^floor(n/2) words pairwise at distance
    <= 1, and a code of minimum distance 2 holds at most one of each class."""
    _require_int("n", n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return factorial(n) // (1 << (n // 2))


def ksnake_density(N: int) -> Fraction:
    """M_N / N! as an exact rational: (2n)! / (n!^2 4^n) for N = 2n+1."""
    _require_int("N", N)
    if N < 3 or N % 2 == 0:
        raise ValueError(f"N must be odd and >= 3, got {N}")
    n = (N - 1) // 2
    return Fraction(factorial(2 * n), factorial(n) ** 2 * 4**n)


@dataclass(frozen=True)
class BoundsRow:
    """One table row: upper bounds, achieved construction sizes, and rates.

    Family-specific fields are None where the family is not defined
    (ksnake needs odd n >= 3, the Chebyshev construction needs n >= 4).
    """

    n: int
    trivial_upper: int
    linf_upper: int
    ksnake_size: Optional[int]
    ksnake_density: Optional[Fraction]
    ksnake_rate: Optional[float]
    linf_size: Optional[int]
    linf_rate: Optional[float]


def _rate(m: int, n: int) -> float:
    return log2(m) / log2(factorial(n))


def _row(n: int) -> BoundsRow:
    k_size = k_density = k_rate = None
    if n >= 3 and n % 2 == 1:
        k_size = ksnake_size(n)
        k_density = ksnake_density(n)
        k_rate = _rate(k_size, n)
    l_size = l_rate = None
    if n >= MIN_LINF_N:
        l_size = linf_size(n)
        l_rate = _rate(l_size, n)
    return BoundsRow(
        n=n,
        trivial_upper=trivial_upper(n),
        linf_upper=linf_upper(n),
        ksnake_size=k_size,
        ksnake_density=k_density,
        ksnake_rate=k_rate,
        linf_size=l_size,
        linf_rate=l_rate,
    )


def bounds_table(n_lo: int, n_hi: int) -> tuple[BoundsRow, ...]:
    """Rows for n_lo..n_hi inclusive, 2 <= n_lo <= n_hi <= 20."""
    _require_int("n_lo", n_lo)
    _require_int("n_hi", n_hi)
    if not 2 <= n_lo <= n_hi <= MAX_N:
        raise ValueError(
            f"need 2 <= n_lo <= n_hi <= {MAX_N}, got n_lo={n_lo}, n_hi={n_hi}"
        )
    return tuple(_row(n) for n in range(n_lo, n_hi + 1))
