"""Permutations in one-line notation and the two metrics used by the codes.

Conventions used across the package:

- A permutation of [n] = {1, ..., n} is a tuple sigma of length n whose entry
  at index i-1 is sigma(i), the value in position i.  Positions and values are
  both 1-based; only tuple indices are 0-based.
- push_to_top: push_top(i, sigma) removes the element in position i and
  reinserts it in position 1.  Valid for 2 <= i <= n.
- n is capped at MAX_N = 20 so ranks and code sizes stay inside 64-bit range
  (20! < 2**62).
- The closed radius-1 ball of sigma is sigma plus form(metric, sigma) translated
  by each value map of ball_maps(metric, n); search and verify share it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from operator import countOf

Perm = tuple[int, ...]

MAX_N = 20

__all__ = [
    "MAX_N",
    "PUSH_MAPS",
    "Perm",
    "ball_maps",
    "check_perm",
    "distance_two_maps",
    "form",
    "format_perm",
    "identity",
    "kendall_distance",
    "linf_distance",
    "parse_perm",
    "push_top",
    "sign",
]

def identity(n: int) -> Perm:
    """The identity permutation of [n].

    >>> identity(4)
    (1, 2, 3, 4)
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    return tuple(range(1, n + 1))


_RANGES = [list(range(1, n + 1)) for n in range(MAX_N + 1)]


def check_perm(sigma: Perm) -> Perm:
    """Return sigma as a tuple, raising ValueError unless it is a permutation
    of [n] for some 1 <= n <= MAX_N whose entries are all of type int (True
    and 2.0 compare equal to 1 and 2, but are refused).

    >>> check_perm([2, 1, 3])
    (2, 1, 3)
    """
    t = tuple(sigma)
    n = len(t)
    if not (1 <= n <= MAX_N and countOf(map(type, t), int) == n and sorted(t) == _RANGES[n]):
        raise ValueError(f"not a permutation of 1..n (n <= {MAX_N}): {sigma!r}")
    return t


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


def form(metric: str, sigma: Iterable[int]) -> bytes:
    """The bytes a value map acts on: sigma's entries (Chebyshev) or its
    inverse's (Kendall: a swap of neighbouring entries of sigma swaps two
    adjacent values of its inverse).  The form of a form is the word again.

    >>> form("kendall", (2, 3, 1)), tuple(form("kendall", b"\\x03\\x01\\x02"))
    (b'\\x03\\x01\\x02', (2, 3, 1))
    """
    word = bytes(sigma)
    if metric == "linf":
        return word
    ident = bytes(range(1, len(word) + 1))
    return ident.translate(bytes.maketrans(word, ident))


# push_top(t, ·) on a Kendall form, the inverse, moves values: p -> p+1 below t, t -> 1
PUSH_MAPS = {t: bytes.maketrans(bytes(range(1, t + 1)), bytes((*range(2, t + 1), 1)))
             for t in range(2, MAX_N + 1)}


def _moving(n: int, reach: int, images: Perm = (), used: int = 0) -> Iterator[bytes]:
    """Lazily, the value maps of 1..n moving some value by reach and none by
    more, that send 1, 2, ... to images, whose values are the bits of used."""
    v = len(images) + 1
    if v > n:
        if any(abs(u - w) == reach for w, u in enumerate(images, 1)):
            yield bytes.maketrans(bytes(range(1, n + 1)), bytes(images))
        return
    low = v - reach  # no value above v reaches low, so v must if none has
    forced = low > 0 and not used >> low & 1
    for u in (low,) if forced else range(max(1, low), min(n, v + reach) + 1):
        if not used >> u & 1:
            yield from _moving(n, reach, images + (u,), used | 1 << u)


@lru_cache(maxsize=None)
def ball_maps(metric: str, n: int) -> tuple[bytes, ...]:
    """The radius-1 ball at length n as bytes.translate tables: form(metric,
    sigma) translated by each is the form of one permutation at distance 1
    from sigma, and each of those turns up once.  Kendall has the n-1 swaps
    of two adjacent values, Chebyshev the maps moving no value by more than
    1, the identity aside (Fibonacci(n+1) - 1 of them: 88 at n = 10).

    >>> [tuple(form("linf", (3, 1, 2)).translate(m)) for m in ball_maps("linf", 3)]
    [(2, 1, 3), (3, 2, 1)]
    >>> [tuple(form("kendall", form("kendall", (3, 1, 2)).translate(m)))
    ...  for m in ball_maps("kendall", 3)]
    [(1, 3, 2), (3, 2, 1)]
    """
    if metric == "kendall":
        return tuple(bytes.maketrans(bytes((s, s + 1)), bytes((s + 1, s))) for s in range(1, n))
    return tuple(_moving(n, 1))


def distance_two_maps(metric: str, n: int) -> Iterator[bytes]:
    """Lazily, maps as in ball_maps to each permutation at distance exactly 2
    (10,412,815 Chebyshev ones at n = 20): the products of two Kendall ball
    maps, or the maps that move some value by 2 and none by more.

    >>> sorted(tuple(form("linf", (1, 2, 3)).translate(m)) for m in distance_two_maps("linf", 3))
    [(2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    if metric == "linf":
        return _moving(n, 2)
    ball = ball_maps(metric, n)  # a.translate(b) is the table of b after a
    return iter(dict.fromkeys(a.translate(b) for a in ball for b in ball if a != b))


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
