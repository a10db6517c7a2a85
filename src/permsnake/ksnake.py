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

successor_k / rank_k / unrank_k follow the recursive structure without
expanding the code and agree with build_ksnake's enumeration order, rank 0 at
the stored start.  One normalization is baked in: the recursion's natural
degree-3 origin is [2,3,1], while the stored degree-3 code starts at [1,2,3];
the base-case constants and the subcode origin rank (_subcode_origin) are
adjusted so that all three functions match the expansion exactly.
"""

from __future__ import annotations

from functools import lru_cache

from .code_model import GrayCode
from .perm_core import Perm, check_perm, identity, push_top, sign

__all__ = [
    "RECORDED_K5_CHECKPOINTS",
    "build_ksnake",
    "ksnake_size",
    "rank_k",
    "successor_k",
    "unrank_k",
]

MAX_KSNAKE_N = 9

# Recorded checkpoints of the degree-5 code: each 15-codeword segment is
# pinned at offsets 0, 3, 4, 8, 9, 13, 14 (segment heads, the codewords
# around each interior push-3, and the two codewords before the stitch).
# permsnake.repro compares build_ksnake(5) against these rank/permutation
# pairs bit for bit.
RECORDED_K5_CHECKPOINTS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (0, (5, 3, 1, 2, 4)),
    (3, (1, 2, 4, 5, 3)),
    (4, (4, 1, 2, 5, 3)),
    (8, (1, 2, 5, 3, 4)),
    (9, (5, 1, 2, 3, 4)),
    (13, (1, 2, 3, 4, 5)),
    (14, (3, 1, 2, 4, 5)),
    (15, (2, 3, 1, 4, 5)),
    (18, (1, 4, 5, 2, 3)),
    (19, (5, 1, 4, 2, 3)),
    (23, (1, 4, 2, 3, 5)),
    (24, (2, 1, 4, 3, 5)),
    (28, (1, 4, 3, 5, 2)),
    (29, (3, 1, 4, 5, 2)),
    (30, (4, 3, 1, 5, 2)),
    (33, (1, 5, 2, 4, 3)),
    (34, (2, 1, 5, 4, 3)),
    (38, (1, 5, 4, 3, 2)),
    (39, (4, 1, 5, 3, 2)),
    (43, (1, 5, 3, 2, 4)),
    (44, (3, 1, 5, 2, 4)),
)


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


def _down(n: int, j: int, b: int) -> int:
    """Translate a tail value of the degree 2n+1 code (cycle offset j) to the
    corresponding value of the degree 2n-1 code."""
    if b == 3:
        return 1
    s = _alphabet_index(n, b)
    if (s - (j + 1)) % (2 * n - 1) == 0:
        return 3
    idx = (j - s - 1) % (2 * n - 1)
    if idx > 2 * n - 4:
        raise ValueError("permutation is not a codeword of the recursive family")
    return _alphabet_value(n - 1, idx)


def _up(n: int, j: int, b: int) -> int:
    """Inverse of _down: lift a degree 2n-1 value into the degree 2n+1 tail."""
    if b == 1:
        return 3
    if b == 3:
        return _alphabet_value(n, (j + 1) % (2 * n - 1))
    s = _alphabet_index(n - 1, b)
    return _alphabet_value(n, (j - s - 1) % (2 * n - 1))


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


def successor_k(n: int, sigma: Perm) -> int:
    """Push index from codeword sigma to its cyclic successor, N = 2n+1.

    Three cases beyond the degree-3 base: the stitch between cycle segments
    (leading 3, 1, then alphabet values in consecutive order) uses t_3; a
    leading 1 marks a cycle-head block whose exit is found recursively; every
    other codeword sits mid-block and continues with t_N.
    """
    sigma = check_perm(sigma)
    if len(sigma) != 2 * n + 1:
        raise ValueError(f"expected a permutation of length {2 * n + 1}")
    if n == 1:
        return 3
    N = 2 * n + 1
    if sigma[0] == 3 and sigma[1] == 1 and _tail_is_consecutive(n, sigma):
        return 3
    if sigma[0] == 1:
        j = _alphabet_index(n, sigma[1])
        sub = tuple(_down(n, j, v) for v in reversed(sigma[2:]))
        i = successor_k(n - 1, sub)
        return 2 * n + 2 - i
    return N


def _tail_is_consecutive(n: int, sigma: Perm) -> bool:
    """True when sigma(3..2n+1) runs through the alphabet in consecutive
    cyclic order, i.e. sigma is the last codeword of a cycle segment."""
    for idx in range(2, 2 * n):
        u, v = sigma[idx], sigma[idx + 1]
        if u in (1, 3) or v in (1, 3):
            return False
        if (_alphabet_index(n, v) - _alphabet_index(n, u)) % (2 * n - 1) != 1:
            return False
    return True


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
    except ValueError:
        raise ValueError(f"{sigma} is not a codeword of the degree-{N} code") from None


def _rank_k(sigma: Perm) -> int:
    N = len(sigma)
    if N == 3:
        # The formula below would also rank the three odd words, which is
        # where most non-codewords of higher degree end up.
        if sigma not in ((1, 2, 3), (3, 1, 2), (2, 3, 1)):
            raise ValueError(f"odd degree-3 word {sigma}")
        return (2 - sigma[1]) % 3
    n = (N - 1) // 2
    i = sigma.index(1) + 1  # 1-based position of the value 1
    j = _alphabet_index(n, sigma[i % N])
    # _down is one-to-one on the values it keeps, so sub is a permutation
    sub = tuple(_down(n, j, sigma[(i - l - 1) % N]) for l in range(1, N - 1))
    m_small = ksnake_size(N - 2)
    r = (_rank_k(sub) - _subcode_origin(n)) % m_small
    rn = (N * (r - 1) - 1 + ((i - 2) % N)) % (N * m_small)
    return N * m_small * j + rn


def unrank_k(n: int, k: int) -> Perm:
    """Codeword at rank k of build_ksnake(2n+1); inverse of rank_k."""
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    size = ksnake_size(2 * n + 1)
    if not 0 <= k < size:
        raise ValueError(f"rank {k} out of range 0..{size - 1}")
    if n == 1:
        sigma: Perm = (1, 2, 3)
        for _ in range(k):
            sigma = push_top(3, sigma)
        return sigma
    N = 2 * n + 1
    m_small = ksnake_size(N - 2)
    j, pos = divmod(k, N * m_small)
    sub_rank = ((pos + 1) // N + 1 + _subcode_origin(n)) % m_small
    shift = (pos + 2) % N
    sub = unrank_k(n - 1, sub_rank)
    sigma = (1, _alphabet_value(n, j)) + tuple(_up(n, j, v) for v in reversed(sub))
    for _ in range(shift):
        sigma = push_top(N, sigma)
    return sigma
