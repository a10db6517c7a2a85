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
  verify asks instead whether any two words agree under one of the merge
  tables of merge_maps(n), which tell Chebyshev distance <= 1 at once.
"""

from __future__ import annotations

import itertools
import threading
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
    "merge_maps",
    "parse_perm",
    "push_top",
    "sign",
]

def _require_int(name: str, value) -> None:
    """Refuse a value that is not an int, naming it: type() and not
    isinstance(), which would take True and False (bool)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def identity(n: int) -> Perm:
    """The identity permutation of [n].

    >>> identity(4)
    (1, 2, 3, 4)
    """
    _require_int("n", n)
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
    """Lazily, the value maps of [n] moving some value by reach and none by
    more, that send 1, 2, ... to images, whose values are the bits of used."""
    v = len(images) + 1
    if v > n:
        if any(abs(u - w) == reach for w, u in enumerate(images, 1)):
            yield bytes.maketrans(bytes(range(1, n + 1)), bytes(images))
        return
    low = v - reach  # no value above v reaches low, so v must if none has
    forced = low >= 1 and not used >> low & 1
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


def _matchings(n: int, v: int = 1) -> Iterator[tuple[int, ...]]:
    """The maximal matchings of the path v..n, v - 1 being matched, as the
    lower ends u of their pairs (u, u+1): no two unmatched values in a row."""
    if v >= n:
        yield ()
        return
    for u in range(v, min(v + 2, n)):
        for rest in _matchings(n, u + 2):
            yield (u, *rest)


@lru_cache(maxsize=None)
def merge_maps(n: int) -> tuple[bytes, ...]:
    """One bytes.translate table per maximal matching of the path 1-...-n,
    sending u+1 to u for each of its pairs (u, u+1).  Words at Chebyshev
    distance 1 differ by disjoint swaps of adjacent values, a matching that
    lies in a maximal one: two distinct words are at distance 1 exactly
    when some table sends both to the same bytes.  a(n) = a(n-2) + a(n-3)
    tables (Padovan): 5 at n = 7, 9 at n = 9, 12 at n = 10, 200 at n = 20.

    >>> [tuple(m[1:6]) for m in merge_maps(5)]
    [(1, 1, 3, 3, 5), (1, 1, 3, 4, 4), (1, 2, 2, 4, 4)]
    >>> a, b = form("linf", (2, 1, 3, 5, 4)), form("linf", (1, 2, 3, 4, 5))
    >>> [a.translate(m) == b.translate(m) for m in merge_maps(5)]
    [False, True, False]
    """
    return tuple(bytes.maketrans(bytes(u + 1 for u in low), bytes(low)) for low in _matchings(n))


@lru_cache(maxsize=None)
def distance_two_maps(metric: str, n: int) -> Iterable[bytes]:
    """Maps as in ball_maps to each permutation at distance exactly 2: the
    products of two Kendall ball maps, as one cached tuple, or the maps that
    move some value by 2 and none by more (10,412,815 Chebyshev ones at
    n = 20).  The Chebyshev maps are drawn lazily, once per length, and kept
    in the order drawn: every pass hands out the kept maps first and draws
    more only when it goes past them.  verify_snake's probe on a code of M
    codewords takes at most (M - 1) // 2 maps, so what is kept at a length
    never exceeds that for the largest code probed there.

    >>> sorted(tuple(form("linf", (1, 2, 3)).translate(m)) for m in distance_two_maps("linf", 3))
    [(2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    if metric == "linf":
        return _Drawn(_moving(n, 2))
    ball = ball_maps("kendall", n)  # a.translate(b) is the table of b after a
    return tuple(dict.fromkeys(a.translate(b) for a in ball for b in ball if a != b))


class _Drawn:
    """The items of an iterator, drawn once and kept in order, for any number
    of passes, interleaved or from several threads."""

    def __init__(self, source: Iterator[bytes]) -> None:
        self._kept: list[bytes] = []
        self._source = source
        self._lock = threading.Lock()  # a generator refuses a second caller mid-step

    def __iter__(self) -> Iterator[bytes]:
        kept = self._kept
        for k in itertools.count():
            if k == len(kept):
                with self._lock:
                    if k == len(kept):
                        item = next(self._source, None)
                        if item is None:
                            return
                        kept.append(item)
            yield kept[k]


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
