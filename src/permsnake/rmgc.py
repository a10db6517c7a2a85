"""Complete cyclic push-to-top Gray codes over the whole of S_n.

These codes visit every permutation of [n] exactly once and return to the
start.  They are the scaffolding for the Chebyshev snake construction, which
needs two properties guaranteed here:

- the code starts at the identity and has rank 0 there,
- the stored cyclic transition list ends with a t_2 (canonical form), so that
  dropping the final closing transition leaves a Hamiltonian path whose net
  effect is a swap of the first two positions.

The recursive builder turns each transition u of the order n-1 code into the
block t_n, ..., t_n (n-1 times) followed by t_{n-u+1}.  Completeness and
cyclicity are validated at build time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .code_model import GrayCode, expand
from .perm_core import Perm, identity

__all__ = [
    "RmgcTable",
    "build_rmgc",
    "rmgc_rank",
    "rmgc_unrank",
]

MAX_RMGC_N = 8


@dataclass(frozen=True)
class RmgcTable:
    """A complete cyclic code together with its expansion and rank lookup."""

    n: int
    code: GrayCode
    codewords: tuple[Perm, ...]
    rank_index: dict[Perm, int]


def _raw_transitions(n: int) -> tuple[int, ...]:
    transitions: tuple[int, ...] = (2, 2)
    for m in range(3, n + 1):
        out: list[int] = []
        for u in transitions:
            out.extend([m] * (m - 1))
            out.append(m - u + 1)
        transitions = tuple(out)
    return transitions


def _canonicalize(transitions: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate the cyclic transition list so its final entry is a t_2.

    Any rotation of a complete cyclic list is again complete and cyclic from
    any start, because the pushes act on positions, not values.
    """
    last_two = max(i for i, t in enumerate(transitions) if t == 2)
    k = last_two + 1
    return transitions[k:] + transitions[:k]


def _validate(n: int, code: GrayCode) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    words = expand(code)  # raises on duplicates or failed closure
    if len(words) != factorial(n):
        raise ValueError(
            f"code visits {len(words)} permutations, expected {factorial(n)}"
        )
    return words, {w: r for r, w in enumerate(words)}


@lru_cache(maxsize=None)
def build_rmgc(n: int) -> RmgcTable:
    """Complete cyclic code over S_n in canonical form, 1 <= n <= 8.

    The order-1 table is the degenerate single codeword (no transitions).
    """
    if not 1 <= n <= MAX_RMGC_N:
        raise ValueError(f"build_rmgc supports 1 <= n <= {MAX_RMGC_N}, got {n}")
    if n == 1:
        code = GrayCode(n=1, start=(1,), transitions=(), cyclic=False)
        return RmgcTable(1, code, ((1,),), {(1,): 0})
    transitions = _canonicalize(_raw_transitions(n))
    code = GrayCode(n=n, start=identity(n), transitions=transitions, cyclic=True)
    words, index = _validate(n, code)
    return RmgcTable(n, code, words, index)


def rmgc_rank(table: RmgcTable, sigma: Perm) -> int:
    """Rank of sigma in the table's enumeration (0 at the identity start)."""
    try:
        return table.rank_index[tuple(sigma)]
    except KeyError:
        raise ValueError(f"{sigma!r} is not a permutation of 1..{table.n}") from None


def rmgc_unrank(table: RmgcTable, r: int) -> Perm:
    """Codeword at rank r."""
    if not 0 <= r < len(table.codewords):
        raise ValueError(f"rank {r} out of range 0..{len(table.codewords) - 1}")
    return table.codewords[r]

