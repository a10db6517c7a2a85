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
stitched to the next segment by a t_3.  All segments push alike (_push_at):
t_N, and each degree N-2 push k as t_{N+1-k}.  build_ksnake builds the
segment from it; successor_k reads the built code up to degree 9, and
_push_at above.

rank_k / unrank_k agree with build_ksnake's enumeration order, rank 0 at the
stored start.  Segment j holds M_{N-2} rotation classes, one per degree N-2
codeword w: the N rotations (t_N pushes) of [N-1, N] + reversed(w) lifted by
one bytes table (_value_maps) that sends N-1 and N to 1 and a_j.  Up to
degree 9 both read one table per degree (_layout) of the lifted subcode
words, keyed by each class's rotation starting with 1 (11,025 classes at
degree 9) to the class's offset in its segment; its keys in class order are
the words unrank_k rotates.  So rank_k is one rotation and one dict lookup,
and unrank_k one stored word rotated.  Above degree 9 rank_k maps the word
down and unrank_k lifts the word one degree down, on bytes, to degree 9; no
code is expanded.

rank_k is exact: it raises ValueError on every permutation outside the
code, the table's dict refusing whatever the recursion hands down that is
not a degree-9 codeword.  A hit counts only when every entry is an int
(True would match 1), and check_perm's refusal is reached only after a
miss.  successor_k raises on exactly the words rank_k rejects.  One
normalization is baked in: the recursion's natural degree-3 origin is
[2,3,1], while the stored degree-3 code starts at [1,2,3]; the subcode
origin rank (_subcode_origin) is adjusted so that build_ksnake(5) and the
recursion above it match the expansion exactly, and the degree-3 table (one
class) is written out.  The recorded degree-5 checkpoints that pin that
expansion live in permsnake.repro.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import countOf
from typing import NamedTuple

from .code_model import GrayCode, _ranks
from .perm_core import MAX_N, Perm, _require_int, check_perm, identity, push_top, sign

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


@lru_cache(maxsize=None)
def _alphabet(n: int) -> tuple[int, ...]:
    """The order-n alphabet a_0, ..., a_{2n-2}: 2, 4, 5, ..., 2n+1."""
    return (2, *range(4, 2 * n + 2))


def _subcode_origin(n: int) -> int:
    """Rank (in this package's enumeration) of the degree 2n-1 codeword the
    degree 2n+1 recursion anchors at.  2 at the bottom level because the
    stored degree-3 code starts one position away from the recursion's
    natural origin; 2n-4 above, where the enumerations coincide."""
    return 2 if n == 2 else 2 * n - 4


@lru_cache(maxsize=None)
def _value_maps(n: int, j: int) -> tuple[bytes, bytes]:
    """(down, up) as bytes.translate tables: up lifts the degree 2n-1 values
    into the tail of the degree 2n+1 code at cycle offset j (1 to 3, 3 to
    a_{j+1}, and a_s of order n-1 to a_{j-s-1}, indices mod 2n-1) and the
    placeholders 2n and 2n+1, which no subcode word holds, to the head's 1
    and a_j; down inverts it on the tail values, sending every other byte
    (1 and a_j among them) to 0."""
    a, L = _alphabet(n), 2 * n - 1
    lifted = (3, a[j - 1], a[(j + 1) % L], *(a[(j + 2 - b) % L] for b in range(4, 2 * n)))
    up = bytes.maketrans(bytes(range(1, 2 * n + 2)), bytes((*lifted, 1, a[j])))
    down = bytearray(256)
    for b in range(1, 2 * n):
        down[up[b]] = b
    return bytes(down), up


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
    if build_ksnake(N - 2).transitions[_subcode_origin(n)] != N - 2:
        raise AssertionError("subcode origin does not exit on the expected push")
    segment = tuple(map(_push_at, repeat(N), range(N * ksnake_size(N - 2))))
    start = push_top(N, push_top(3, identity(N)))
    a = _alphabet(n)
    for c in range(2 * n - 1):
        head = (1, a[c], 3) + tuple(a[(c + t) % (2 * n - 1)] for t in range(1, 2 * n - 1))
        if sign(head) != 1:
            raise AssertionError(f"cycle head {head} is odd; construction broken")
    return GrayCode(n=N, start=start, transitions=segment * (2 * n - 1), cyclic=True)


class _Layout(NamedTuple):
    """The enumeration table of build_ksnake(N), one entry per rotation class."""

    m: int  # rotation classes per segment
    span: int  # codewords per segment, N * m
    firsts: tuple[int, ...]  # indexed by a_j, the first rank of segment j
    classes: dict[bytes, int]  # per class, its rotation starting with 1 -> its offset
    heads: tuple[bytes, ...]  # per class in class order, the word unrank_k rotates right


@lru_cache(maxsize=None)
def _layout(N: int) -> _Layout:
    if N == 3:  # one class, and the stored start is not the recursion's origin
        return _Layout(1, 3, (0, 0, 0), {b"\1\2\3": 1}, (b"\3\1\2",))
    n = (N - 1) // 2
    m = ksnake_size(N - 2)
    origin = _subcode_origin(n)
    # each degree N-2 codeword (its bytes, the Chebyshev form) reversed,
    # behind the placeholders N-1 and N, which the lift turns into 1 and a_j
    tails = [bytes((N - 1, N)) + w[::-1] for w in _ranks(build_ksnake(N - 2), "linf")]
    tails = tails[origin:] + tails[:origin]  # class r holds the subcode word of rank r + origin
    offsets = list(range(-N - 1, N * (m - 1) - 1, N))  # class r's offset N * (r - 1) - 1
    firsts = [0] * (N + 1)
    classes = {}
    for j, a in enumerate(_alphabet(n)):
        firsts[a] = N * m * j
        classes.update(zip(map(bytes.translate, tails, repeat(_value_maps(n, j)[1])), offsets))
    return _Layout(m, N * m, tuple(firsts), classes, tuple(classes))


def _push_at(N: int, r: int) -> int:
    """build_ksnake(N).transitions[r], from the segment layout: N repeated
    N-2 times, then M_{N-2}-1 blocks (N+1-k, then N repeated N-1 times), then
    3, 3; block b's k is the degree N-2 push at its subcode rank, read from
    the built code up to degree 9."""
    m = ksnake_size(N - 2)
    pos = r % (N * m) - (N - 2)
    if pos < 0:
        return N
    b, off = divmod(pos, N)
    if b == m - 1:
        return 3
    if off:
        return N
    k = (_subcode_origin((N - 1) // 2) + b + 1) % m
    sub = build_ksnake(N - 2).transitions[k] if N - 2 <= MAX_KSNAKE_N else _push_at(N - 2, k)
    return N + 1 - sub


def successor_k(n: int, sigma: Perm) -> int:
    """Push index from codeword sigma to its cyclic successor, N = 2n+1: the
    push at rank_k(sigma), read from build_ksnake(N) up to degree 9.

    Raises ValueError when n is not an int or sigma is not a codeword, as
    rank_k does.
    """
    if type(n) is not int:
        raise ValueError(f"order n must be an int, got {n!r}")
    N = 2 * n + 1
    if len(sigma) != N:
        raise ValueError(f"order n = {n} needs a permutation of length {N}, "
                         f"got length {len(sigma)}")
    r = rank_k(sigma)
    return build_ksnake(N).transitions[r] if N <= MAX_KSNAKE_N else _push_at(N, r)


def rank_k(sigma: Perm) -> int:
    """Rank of codeword sigma in build_ksnake's enumeration (0 at the start):
    up to degree 9 one lookup of its rotation starting with 1.

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
    i = word.index(1)
    rot = word[i:] + word[:i]  # rot = (1, a_j, tail)
    if N <= MAX_KSNAKE_N:
        t = _layout(N)
        off = t.classes[rot]  # a hit makes rot[1] some a_j
        return t.firsts[rot[1]] + (off + (i - 1) % N) % t.span
    n = (N - 1) // 2
    j = _alphabet(n).index(rot[1])
    # down is one-to-one on the tail values and sends every other byte to 0,
    # which no codeword holds, so sub is a codeword only if rot is one
    sub = rot[:1:-1].translate(_value_maps(n, j)[0])
    m_small = ksnake_size(N - 2)
    r = (_rank_k(sub) - _subcode_origin(n)) % m_small
    rn = (N * (r - 1) - 1 + ((i - 1) % N)) % (N * m_small)
    return N * m_small * j + rn


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
    if N <= MAX_KSNAKE_N:
        t = _layout(N)
        j, pos = divmod(k, t.span)
        sigma = t.heads[j * t.m + ((pos + 1) // N + 1) % t.m]
    else:
        n = (N - 1) // 2
        m_small = ksnake_size(N - 2)
        j, pos = divmod(k, N * m_small)
        sub_rank = ((pos + 1) // N + 1 + _subcode_origin(n)) % m_small
        # the subcode word reversed behind the placeholders, lifted as in _layout
        sub = bytes((N - 1, N)) + _unrank_k(N - 2, sub_rank)[::-1]
        sigma = sub.translate(_value_maps(n, j)[1])
    shift = (pos + 2) % N  # that many t_N pushes: a right rotation
    return sigma[-shift:] + sigma[:-shift]
