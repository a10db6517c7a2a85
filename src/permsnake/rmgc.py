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
cyclicity are validated at build time, on code_model._ranks's walk of byte
forms.  build_rmgc returns the GrayCode itself, as the other builders do;
code_model.expand of it lists every permutation of [n] in rank order.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .code_model import GrayCode, _ranks
from .perm_core import _require_int, identity

__all__ = ["build_rmgc"]

MAX_RMGC_N = 8


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


@lru_cache(maxsize=None)
def build_rmgc(n: int) -> GrayCode:
    """Complete cyclic code over S_n in canonical form, 1 <= n <= 8.

    The order-1 code is the degenerate single codeword (no transitions).
    """
    _require_int("n", n)
    if not 1 <= n <= MAX_RMGC_N:
        raise ValueError(f"build_rmgc supports 1 <= n <= {MAX_RMGC_N}, got {n}")
    if n == 1:
        return GrayCode(n=1, start=(1,), transitions=(), cyclic=False)
    transitions = _canonicalize(_raw_transitions(n))
    code = GrayCode(n=n, start=identity(n), transitions=transitions, cyclic=True)
    visited = len(_ranks(code, "kendall"))  # raises on duplicates or failed closure
    if visited != factorial(n):
        raise ValueError(f"code visits {visited} permutations, expected {factorial(n)}")
    return code
