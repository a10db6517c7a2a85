"""Cyclic Kendall snakes over the alternating groups of odd degree.

The family is recursive.  The degree-N code (N odd, parameter n with
N = 2n+1) is assembled from 2n-1 traversals of the degree N-2 code, giving
sizes M_3 = 3 and M_N = (N-2) * N * M_{N-2}: 3, 45, 1575, 99225 for
N = 3, 5, 7, 9.  All transitions are t_3 or t_N, both odd pushes, so the
codewords stay inside the alternating group and every pair of distinct
codewords is at Kendall distance at least 2.

Layout of the degree-N code (degree alphabet: the values [N] minus {1, 3},
written a_0 = 2, a_i = i+3): it is the concatenation of 2n-1 cycle segments,
one per rotation offset c of the a-sequence.  Segment c covers the cycle
through sigma_0 = [1, a_c, 3, a_{c+1}, ..., a_{c+2n-2}], entered two steps in
(at t_N t_3 sigma_0) and stitched to the next segment by a t_3.

rank_k / unrank_k agree with build_ksnake's enumeration order, rank 0 at the
stored start.  Up to degree 7 they read a table built on first use (_table:
code_model.word_ranks of the code and its keys in rank order, 1,575
codewords at degree 7).  Above it they follow the recursive structure down
to degree 7 without expanding the code.  rank_k is exact: it raises
ValueError on every permutation outside the code, the table's dict refusing
whatever the recursion hands down that is not a degree-7 codeword.
successor_k is the push at rank_k(sigma), read from the segment layout
(_push_at, which reads the stored transitions up to degree 7), so it raises
on exactly the words rank_k rejects and works past build_ksnake's degree
cap.  One normalization is baked in: the recursion's natural degree-3 origin
is [2,3,1], while the stored degree-3 code starts at [1,2,3]; the subcode
origin rank (_subcode_origin) is adjusted so that build_ksnake(5) and the
recursion above it match the expansion exactly.  The recorded degree-5
checkpoints that pin that expansion live with the other recorded artifacts in
permsnake.repro.
"""

from __future__ import annotations

from functools import lru_cache

from .code_model import GrayCode, word_ranks
from .perm_core import MAX_N, Perm, check_perm, identity, push_top, sign

__all__ = [
    "build_ksnake",
    "ksnake_size",
    "rank_k",
    "successor_k",
    "unrank_k",
]

MAX_KSNAKE_N = 9

# The largest degree ranked from a table: 1,575 codewords.  Degree 9 would
# hold 99,225.
_MAX_TABLE_N = 7


@lru_cache(maxsize=None)
def ksnake_size(N: int) -> int:
    """M_N: 3 for N = 3, else (N-2) * N * M_{N-2} (N odd, N >= 3)."""
    if N < 3 or N % 2 == 0:
        raise ValueError(f"N must be odd and >= 3, got {N}")
    m = 3
    for k in range(5, N + 1, 2):
        m *= (k - 2) * k
    return m


def _alphabet_value(n: int, i: int) -> int:
    """a_i at recursion order n: 2, 4, 5, ..., 2n+1 for i = 0..2n-2."""
    if not 0 <= i <= 2 * n - 2:
        raise ValueError(f"alphabet index {i} out of range for order {n}")
    return 2 if i == 0 else i + 3


def _alphabet_index(n: int, b: int) -> int:
    """Ind: position of value b in the order-n alphabet."""
    if b == 2:
        return 0
    if 4 <= b <= 2 * n + 1:
        return b - 3
    raise ValueError(f"value {b} is not in the order-{n} top-cycle alphabet")


def _subcode_origin(n: int) -> int:
    """Rank (in this package's enumeration) of the degree 2n-1 codeword the
    degree 2n+1 recursion anchors at.  2 at the bottom level because the
    stored degree-3 code starts one position away from the recursion's
    natural origin; 2n-4 above, where the enumerations coincide."""
    return 2 if n == 2 else 2 * n - 4


def _up(n: int, j: int, b: int) -> int:
    """Lift a degree 2n-1 value into the tail of the degree 2n+1 code (cycle
    offset j)."""
    if b == 1:
        return 3
    if b == 3:
        return _alphabet_value(n, (j + 1) % (2 * n - 1))
    s = _alphabet_index(n - 1, b)
    return _alphabet_value(n, (j - s - 1) % (2 * n - 1))


@lru_cache(maxsize=None)
def _value_maps(n: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(down, up), indexed by value: up is _up at offset j, down its inverse
    on the tail values of the degree 2n+1 code (1 and a_j map to 0)."""
    up = (0,) + tuple(_up(n, j, b) for b in range(1, 2 * n))
    down = [0] * (2 * n + 2)
    for b in range(1, 2 * n):
        down[up[b]] = b
    return tuple(down), up


@lru_cache(maxsize=None)
def build_ksnake(N: int) -> GrayCode:
    """The cyclic (N, M_N) Kendall snake, N odd, 3 <= N <= 9.

    Only the transition list is materialized (M_N integers); codewords come
    from code_model.expand on demand.  The first transition is t_N for N >= 5.
    """
    if N % 2 == 0 or not 3 <= N <= MAX_KSNAKE_N:
        raise ValueError(f"N must be odd with 3 <= N <= {MAX_KSNAKE_N}, got {N}")
    if N == 3:
        return GrayCode(n=3, start=(1, 2, 3), transitions=(3, 3, 3), cyclic=True)
    n = (N - 1) // 2
    small = build_ksnake(N - 2)
    r = _subcode_origin(n)
    ks = small.transitions[r:] + small.transitions[:r]
    if ks[0] != N - 2:
        raise AssertionError("subcode origin does not exit on the expected push")
    segment: list[int] = [N] * (2 * n - 1)
    for k in ks[1:]:
        segment.append(N + 1 - k)
        segment.extend([N] * (2 * n))
    segment.extend((3, 3))
    start = push_top(N, push_top(3, identity(N)))
    a = [_alphabet_value(n, i) for i in range(2 * n - 1)]
    for c in range(2 * n - 1):
        head = (1, a[c], 3) + tuple(a[(c + t) % (2 * n - 1)] for t in range(1, 2 * n - 1))
        if sign(head) != 1:
            raise AssertionError(f"cycle head {head} is odd; construction broken")
    return GrayCode(n=N, start=start, transitions=tuple(segment) * (2 * n - 1), cyclic=True)


@lru_cache(maxsize=None)
def _table(N: int) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    """The degree-N codewords in rank order, and the rank of each."""
    ranks = word_ranks(build_ksnake(N))
    return tuple(ranks), ranks


def _push_at(N: int, r: int) -> int:
    """build_ksnake(N).transitions[r], from the segment layout: N repeated
    N-2 times, then M_{N-2}-1 blocks (N+1-k, then N repeated N-1 times),
    then 3, 3; block b's k is the degree N-2 push at its subcode rank."""
    if N <= _MAX_TABLE_N:
        return build_ksnake(N).transitions[r]
    m = ksnake_size(N - 2)
    pos = r % (N * m) - (N - 2)
    if pos < 0:
        return N
    b, off = divmod(pos, N)
    if b == m - 1:
        return 3
    if off:
        return N
    return N + 1 - _push_at(N - 2, (_subcode_origin((N - 1) // 2) + b + 1) % m)


def successor_k(n: int, sigma: Perm) -> int:
    """Push index from codeword sigma to its cyclic successor, N = 2n+1.

    Raises ValueError when sigma is not a codeword, as rank_k does.
    """
    if len(sigma) != 2 * n + 1:
        raise ValueError(
            f"order n = {n} needs a permutation of length {2 * n + 1}, "
            f"got length {len(sigma)}"
        )
    return _push_at(2 * n + 1, rank_k(sigma))


def rank_k(sigma: Perm) -> int:
    """Rank of codeword sigma in build_ksnake's enumeration (0 at the start).

    Raises ValueError when sigma is not a codeword.
    """
    sigma = check_perm(sigma)
    N = len(sigma)
    if N % 2 == 0 or N < 3:
        raise ValueError(f"degree must be odd and >= 3, got {N}")
    try:
        return _rank_k(sigma)
    except (KeyError, ValueError):
        raise ValueError(f"{sigma} is not a codeword of the degree-{N} code") from None


def _rank_k(sigma: Perm) -> int:
    N = len(sigma)
    if N <= _MAX_TABLE_N:
        return _table(N)[1][sigma]
    n = (N - 1) // 2
    i = sigma.index(1)
    rot = sigma[i:] + sigma[:i]  # rot = (1, a_j, tail)
    j = _alphabet_index(n, rot[1])
    down = _value_maps(n, j)[0]
    # down is one-to-one on the tail values, so sub is a permutation
    sub = tuple(map(down.__getitem__, rot[:1:-1]))
    m_small = ksnake_size(N - 2)
    r = (_rank_k(sub) - _subcode_origin(n)) % m_small
    rn = (N * (r - 1) - 1 + ((i - 1) % N)) % (N * m_small)
    return N * m_small * j + rn


def unrank_k(n: int, k: int) -> Perm:
    """Codeword at rank k of build_ksnake(2n+1); inverse of rank_k.

    Raises ValueError when 2n+1 is over perm_core.MAX_N, whose words rank_k
    refuses, or k is out of range.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    N = 2 * n + 1
    if N > MAX_N:
        raise ValueError(f"degree N = {N} is over the permutation length cap {MAX_N}")
    size = ksnake_size(N)
    if not 0 <= k < size:
        raise ValueError(f"rank {k} out of range 0..{size - 1}")
    return _unrank_k(N, k)


def _unrank_k(N: int, k: int) -> Perm:
    if N <= _MAX_TABLE_N:
        return _table(N)[0][k]
    n = (N - 1) // 2
    m_small = ksnake_size(N - 2)
    j, pos = divmod(k, N * m_small)
    sub_rank = ((pos + 1) // N + 1 + _subcode_origin(n)) % m_small
    up = _value_maps(n, j)[1]
    sigma = (1, _alphabet_value(n, j)) + tuple(
        map(up.__getitem__, reversed(_unrank_k(N - 2, sub_rank)))
    )
    shift = (pos + 2) % N  # that many t_N pushes: a right rotation
    return sigma[-shift:] + sigma[:-shift]
