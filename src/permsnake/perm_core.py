"""Permutations in one-line notation and the two metrics used by the codes.

Conventions used across the package:

- A permutation of [n] = {1, ..., n} is a tuple sigma of length n whose entry
  at index i-1 is sigma(i), the value in position i.  Positions and values are
  both 1-based; only tuple indices are 0-based.
- push_to_top: push_top(i, sigma) removes the element in position i and
  reinserts it in position 1.  Valid for 2 <= i <= n.
- n is capped at MAX_N = 20 so ranks and code sizes stay inside 64-bit range
  (20! < 2**62).
- The closed radius-1 ball of sigma is sigma plus NEIGHBOURS[metric](sigma),
  the perm_key of each permutation at distance 1; search and verify share it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

Perm = tuple[int, ...]

MAX_N = 20

__all__ = [
    "MAX_N",
    "NEIGHBOURS",
    "Perm",
    "WITHIN_TWO",
    "check_perm",
    "format_perm",
    "identity",
    "is_perm",
    "kendall_distance",
    "linf_distance",
    "parse_perm",
    "perm_key",
    "push_top",
    "sign",
]

# perm_key weight of each position; swapping the entries in positions s+1
# and s+2 changes a key by (sigma(s+2) - sigma(s+1)) * _SWAP[s].
_WEIGHT = tuple(1 << (8 * i) for i in range(MAX_N + 1))
_SWAP = tuple(_WEIGHT[s] - _WEIGHT[s + 1] for s in range(MAX_N))


def identity(n: int) -> Perm:
    """The identity permutation of [n].

    >>> identity(4)
    (1, 2, 3, 4)
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    return tuple(range(1, n + 1))


def is_perm(sigma: Iterable[int]) -> bool:
    """True if sigma is a permutation of [n] for some 1 <= n <= MAX_N."""
    t = tuple(sigma)
    n = len(t)
    return 1 <= n <= MAX_N and sorted(t) == list(range(1, n + 1))


def check_perm(sigma: Perm) -> Perm:
    """Return sigma unchanged, raising ValueError if it is not a permutation."""
    if not is_perm(sigma):
        raise ValueError(f"not a permutation of 1..n (n <= {MAX_N}): {sigma!r}")
    return tuple(sigma)


def push_top(i: int, sigma: Perm) -> Perm:
    """Push the element in position i to position 1.

    >>> push_top(3, (1, 2, 3, 4, 5))
    (3, 1, 2, 4, 5)
    >>> push_top(5, (3, 1, 2, 4, 5))
    (5, 3, 1, 2, 4)
    """
    n = len(sigma)
    if not 2 <= i <= n:
        raise ValueError(f"push_top index must be in 2..{n}, got {i}")
    return (sigma[i - 1],) + sigma[: i - 1] + sigma[i:]


def sign(sigma: Perm) -> int:
    """+1 for even permutations, -1 for odd ones.

    Computed from the cycle structure in O(n).

    >>> sign((1, 2, 3))
    1
    >>> sign((2, 1, 3))
    -1
    """
    n = len(sigma)
    seen = [False] * n
    s = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            clen += 1
        if clen % 2 == 0:
            s = -s
    return s


def kendall_distance(a: Perm, b: Perm) -> int:
    """Number of value pairs whose relative order differs between a and b.

    This is the graph distance in the Cayley graph of S_n generated by
    adjacent transpositions: the minimum number of swaps of neighbouring
    entries turning a into b.

    >>> kendall_distance((2, 1, 4, 3), (2, 4, 3, 1))
    2
    >>> kendall_distance((1, 2, 3), (3, 2, 1))
    3
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("permutations of different sizes")
    pa = [0] * (n + 1)
    pb = [0] * (n + 1)
    for i in range(n):
        pa[a[i]] = i
        pb[b[i]] = i
    d = 0
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (pa[u] < pa[v]) != (pb[u] < pb[v]):
                d += 1
    return d


def linf_distance(a: Perm, b: Perm) -> int:
    """Chebyshev distance: the largest per-position difference of values.

    >>> linf_distance((2, 1, 4, 3), (2, 4, 3, 1))
    3
    >>> linf_distance((1, 2, 3), (3, 2, 1))
    2
    """
    if len(a) != len(b):
        raise ValueError("permutations of different sizes")
    return max(abs(x - y) for x, y in zip(a, b))


def perm_key(sigma: Perm) -> int:
    """sigma packed into one int, entry i in byte i: a cheap dictionary key."""
    return int.from_bytes(bytes(sigma), "little")


def kendall_neighbours(sigma: Perm) -> list[int]:
    """perm_key of the n-1 permutations at Kendall distance 1 from sigma:
    the swaps of two neighbouring entries."""
    key = perm_key(sigma)
    return [key + (b - a) * c for a, b, c in zip(sigma, sigma[1:], _SWAP)]


def linf_neighbours(sigma: Perm) -> list[int]:
    """perm_key of the permutations at Chebyshev distance 1 from sigma: its
    values relabelled by a product of disjoint swaps of adjacent values, the
    value maps that move nothing by more than 1 (88 of them at n = 10)."""
    weight = dict(zip(sigma, _WEIGHT))
    # key changes of the products of swaps among the values >= v, from those
    # among the values >= v+1 (v, v+1 unswapped) and >= v+2 (swapped)
    deltas = rest = [0]
    for v in range(len(sigma) - 1, 0, -1):
        deltas, rest = deltas + [weight[v] - weight[v + 1] + d for d in rest], deltas
    key = perm_key(sigma)
    return [key + d for d in deltas[1:]]


NEIGHBOURS = {"kendall": kendall_neighbours, "linf": linf_neighbours}


def _kendall_within_two(sigma: Perm) -> Iterator[int]:
    for s in range(len(sigma) - 1):
        yield from kendall_neighbours(sigma[:s] + (sigma[s + 1], sigma[s]) + sigma[s + 2 :])


def _linf_within_two(sigma: Perm) -> Iterator[int]:
    n, key, weight = len(sigma), perm_key(sigma), dict(zip(sigma, _WEIGHT))

    def maps(v: int, used: int, delta: int) -> Iterator[int]:
        # values below v are mapped, onto the bits set in used; a value
        # above v cannot reach v-2, so v must if nothing has
        if v > n:
            yield key + delta
            return
        forced = v > 2 and not used >> (v - 2) & 1
        for u in (v - 2,) if forced else range(max(1, v - 1), min(n, v + 2) + 1):
            if not used >> u & 1:
                yield from maps(v + 1, used | 1 << u, delta + (u - v) * weight[v])

    return maps(1, 0, 0)


# perm_key of permutations within distance 2 of sigma, every one at distance
# exactly 2 among them: two neighbouring-entry swaps (Kendall), or the value
# maps that move nothing by more than 2 (Chebyshev).
WITHIN_TWO = {"kendall": _kendall_within_two, "linf": _linf_within_two}


def parse_perm(text: str) -> Perm:
    """Parse a permutation written as "[3,1,2]" (spaces allowed).

    >>> parse_perm("[3, 1, 2]")
    (3, 1, 2)
    """
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"permutation must look like [3,1,2], got {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError("empty permutation")
    try:
        values = tuple(int(part) for part in body.split(","))
    except ValueError:
        raise ValueError(f"permutation entries must be integers: {text!r}") from None
    return check_perm(values)


def format_perm(sigma: Perm) -> str:
    """Inverse of parse_perm: "(3, 1, 2)" -> "[3,1,2]".

    >>> format_perm((3, 1, 2))
    '[3,1,2]'
    """
    return "[" + ",".join(str(v) for v in sigma) + "]"
