"""Cyclic Kendall snakes over the alternating groups of odd degree.

The family is recursive.  The degree-N code (N odd, parameter n with
N = 2n+1) is assembled from 2n-1 traversals of the degree N-2 code, giving
sizes M_3 = 3 and M_N = (N-2) * N * M_{N-2}: 3, 45, 1575, 99225 for
N = 3, 5, 7, 9.  Every push is odd (t_3, t_5, ..., t_N), so the codewords
stay inside the alternating group and every pair of distinct codewords is at
Kendall distance at least 2.

Layout of the degree-N code (degree alphabet: the values [N] minus {1, 3},
written a_0 = 2, a_i = i+3): 2n-1 cycle segments, one per rotation offset c
of the a-sequence.  Segment c covers the cycle through sigma_0 = [1, a_c, 3,
a_{c+1}, ..., a_{c+2n-2}], entered two steps in (at t_N t_3 sigma_0) and
stitched to the next segment by a t_3.  All segments push alike, by the one
rule build_ksnake writes: t_N, and each degree N-2 push k as t_{N+1-k}.

rank_k / unrank_k agree with build_ksnake's enumeration order, rank 0 at the
stored start.  Below degree 9 both read one index per degree (_index), built
on first use: the word -> rank dict that code_model._ranks makes of
build_ksnake(N), at most 1,575 words (degree 7), and its words in rank order.
From degree 9 up both go one degree down per step (_step).  Segment j holds
M_{N-2} rotation classes, one per degree N-2 codeword w: the N rotations
(t_N pushes) of [N-1, N] + reversed(w) lifted by one bytes table that sends
N-1 and N to 1 and a_j.  So unrank_k lifts and rotates the subcode word, and
rank_k rotates the word to start with 1, reads j off its second entry and
maps the rest down by the inverse table; no code above degree 7 is expanded.
successor_k reads the push at the rank from build_ksnake(N) up to degree 9;
above it, the push is the position of the next codeword's first entry, the
same lift unrank_k runs at the next rank.

rank_k is exact: it raises ValueError on every permutation outside the
code, the index refusing whatever the steps hand down that is not a
codeword.  A hit counts only when every entry is an int (True would match
1), and check_perm's refusal is reached only after a miss.  successor_k
raises on exactly the words rank_k rejects.  One normalization is baked in:
the recursion's natural degree-3 origin is [2,3,1], while the stored
degree-3 code starts at [1,2,3]; the subcode origin rank (_subcode_origin)
is adjusted so that build_ksnake(5) and the recursion above it match the
expansion exactly.  The recorded degree-5 checkpoints that pin that
expansion live in permsnake.repro.
"""

from __future__ import annotations

from functools import lru_cache
from operator import countOf
from typing import NamedTuple

from .code_model import GrayCode, _ranks
from .perm_core import MAX_N, Perm, _require_int, check_perm, identity, push_top

__all__ = [
    "build_ksnake",
    "ksnake_size",
    "rank_k",
    "successor_k",
    "unrank_k",
]

MAX_KSNAKE_N = 9


@lru_cache(maxsize=None)
def ksnake_size(N: int) -> int:
    """M_N: 3 for N = 3, else (N-2) * N * M_{N-2} (N odd, N >= 3)."""
    _require_int("N", N)
    if N < 3 or N % 2 == 0:
        raise ValueError(f"N must be odd and >= 3, got {N}")
    m = 3
    for k in range(5, N + 1, 2):
        m *= (k - 2) * k
    return m


def _subcode_origin(n: int) -> int:
    """Rank (in this package's enumeration) of the degree 2n-1 codeword the
    degree 2n+1 recursion anchors at.  2 at the bottom level because the
    stored degree-3 code starts one position away from the recursion's
    natural origin; 2n-4 above, where the enumerations coincide."""
    return 2 if n == 2 else 2 * n - 4


@lru_cache(maxsize=None)
def build_ksnake(N: int) -> GrayCode:
    """The cyclic (N, M_N) Kendall snake, N odd, 3 <= N <= 9.

    Only the transition list is materialized (M_N integers); codewords come
    from code_model.expand on demand.  The first transition is t_N for N >= 5.
    """
    _require_int("N", N)
    if N % 2 == 0 or not 3 <= N <= MAX_KSNAKE_N:
        raise ValueError(f"N must be odd with 3 <= N <= {MAX_KSNAKE_N}, got {N}")
    if N == 3:
        return GrayCode(n=3, start=(1, 2, 3), transitions=(3, 3, 3), cyclic=True)
    n = (N - 1) // 2
    sub, origin = build_ksnake(N - 2).transitions, _subcode_origin(n)
    if sub[origin] != N - 2:
        raise AssertionError("subcode origin does not exit on the expected push")
    tail = (N,) * (N - 1)
    segment = (
        (N,) * (N - 2)
        + tuple(t for k in sub[origin + 1:] + sub[:origin] for t in (N + 1 - k, *tail))
        + (3, 3)
    )
    start = push_top(N, push_top(3, identity(N)))
    return GrayCode(n=N, start=start, transitions=segment * (2 * n - 1), cyclic=True)


@lru_cache(maxsize=None)
def _index(N: int) -> tuple[dict[bytes, int], tuple[bytes, ...]]:
    """The rank of each word of build_ksnake(N), and the words in rank order."""
    ranks = _ranks(build_ksnake(N), "linf")
    return ranks, tuple(ranks)


class _Step(NamedTuple):
    """How the degree-N code lifts the degree N-2 code, segment by segment."""

    m: int  # M_{N-2}
    origin: int  # _subcode_origin
    segments: dict[int, tuple[int, bytes]]  # a_j -> segment j's first rank and down table
    ups: tuple[bytes, ...]  # per segment j, its up table


@lru_cache(maxsize=None)
def _step(N: int) -> _Step:
    """Segment j's tables, as bytes.translate tables: up lifts the degree N-2
    values into the tail of the degree-N code at cycle offset j (1 to 3, 3
    to a_{j+1}, and a_s of order n-1 to a_{j-s-1}, indices mod N-2) and the
    placeholders N-1 and N, which no subcode word holds, to the head's 1 and
    a_j; down inverts it on the tail values, sending every other byte (1 and
    a_j among them) to 0."""
    a, L = (2, *range(4, N + 1)), N - 2
    m = ksnake_size(L)
    segments, ups = {}, []
    for j in range(L):
        lifted = (3, a[j - 1], a[(j + 1) % L], *(a[(j + 2 - b) % L] for b in range(4, N - 1)))
        up = bytes.maketrans(bytes(range(1, N + 1)), bytes((*lifted, 1, a[j])))
        down = bytearray(256)
        for b in range(1, N - 1):
            down[up[b]] = b
        segments[a[j]] = (N * m * j, bytes(down))
        ups.append(up)
    return _Step(m, _subcode_origin((N - 1) // 2), segments, tuple(ups))


def successor_k(n: int, sigma: Perm) -> int:
    """Push index from codeword sigma to its cyclic successor, N = 2n+1: the
    push at rank_k(sigma), read from build_ksnake(N) up to degree 9 and from
    the codeword at the next rank above it.

    Raises ValueError when n is not an int or sigma is not a codeword, as
    rank_k does.
    """
    if type(n) is not int:
        raise ValueError(f"order n must be an int, got {n!r}")
    N = 2 * n + 1
    if hasattr(sigma, "__next__"):  # an iterator is read once, as rank_k reads it
        sigma = tuple(sigma)
    if len(sigma) != N:
        raise ValueError(f"order n = {n} needs a permutation of length {N}, "
                         f"got length {len(sigma)}")
    r = rank_k(sigma)
    if N <= MAX_KSNAKE_N:
        return build_ksnake(N).transitions[r]
    return tuple(sigma).index(_unrank_k(N, (r + 1) % ksnake_size(N))[0]) + 1


def rank_k(sigma: Perm) -> int:
    """Rank of codeword sigma in build_ksnake's enumeration (0 at the start):
    below degree 9 one index lookup, and one step down per degree above.

    Raises ValueError when sigma is not a codeword.
    """
    t = tuple(sigma)
    N = len(t)
    if N % 2 and 3 <= N <= MAX_N:
        try:
            r = _rank_k(bytes(t))
        except (KeyError, ValueError, TypeError):
            pass
        else:
            # the hit matched a codeword entry by entry; int entries make it that codeword
            if countOf(map(type, t), int) == N:
                return r
    sigma = check_perm(t if iter(sigma) is sigma else sigma)  # an iterator is spent
    if N % 2 == 0 or N < 3:
        raise ValueError(f"degree must be odd and >= 3, got {N}")
    raise ValueError(f"{sigma} is not a codeword of the degree-{N} code")


def _rank_k(word: bytes) -> int:
    N = len(word)
    if N < MAX_KSNAKE_N:
        return _index(N)[0][word]
    i = word.index(1)
    rot = word[i:] + word[:i]  # rot = (1, a_j, tail)
    step = _step(N)
    first, down = step.segments[rot[1]]
    # down is one-to-one on the tail values and sends every other byte to 0,
    # which no codeword holds, so the subcode word is one only if rot is one
    r = _rank_k(rot[:1:-1].translate(down)) - step.origin
    return first + (N * (r - 1) - 1 + (i - 1) % N) % (N * step.m)


def unrank_k(n: int, k: int) -> Perm:
    """Codeword at rank k of build_ksnake(2n+1); inverse of rank_k.

    Raises ValueError when 2n+1 is over perm_core.MAX_N, whose words rank_k
    refuses, n is not an int, or k is not an int in range.
    """
    if type(n) is not int:
        raise ValueError(f"order n must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    N = 2 * n + 1
    if N > MAX_N:
        raise ValueError(f"degree N = {N} is over the permutation length cap {MAX_N}")
    if type(k) is not int:
        raise ValueError(f"rank must be an int, got {k!r}")
    size = ksnake_size(N)
    if not 0 <= k < size:
        raise ValueError(f"rank {k} out of range 0..{size - 1}")
    return tuple(_unrank_k(N, k))


def _unrank_k(N: int, k: int) -> bytes:
    if N < MAX_KSNAKE_N:
        return _index(N)[1][k]
    step = _step(N)
    j, pos = divmod(k, N * step.m)
    sub = _unrank_k(N - 2, ((pos + 1) // N + 1 + step.origin) % step.m)
    # the subcode word reversed behind the placeholders N-1 and N
    sigma = (bytes((N - 1, N)) + sub[::-1]).translate(step.ups[j])
    shift = (pos + 2) % N  # that many t_N pushes: a right rotation
    return sigma[-shift:] + sigma[:-shift]
