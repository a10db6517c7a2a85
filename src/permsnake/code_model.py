"""Gray-code containers and the snake verifier.

A code is stored as a start permutation plus a tuple of push-to-top indices.
For a cyclic code with M codewords the tuple holds M transitions, the last one
mapping the final codeword back to the start.  For a non-cyclic code with M
codewords it holds M-1 transitions.

verify_snake checks the strong snake property: every pair of distinct
codewords must be at distance >= 2 in the chosen metric.  That holds exactly
when no codeword's radius-1 ball holds another codeword.  One walk of the
code, in C, indexes the codeword forms (perm_core.form) by rank: each push
is a translate of the Kendall form, and each Chebyshev form is turned back
from a Kendall one.  A ball is a form translated by the value maps
perm_core.ball_maps.  Whether any pair is at distance 1 is decided first
with few lookups: under Kendall the balls of the smaller parity class,
none for a code of odd pushes; under Chebyshev no ball but one translate
per codeword by each table of perm_core.merge_maps (9 at n = 9, against a
ball of 54).  Only an invalid code then has its lowest violating pair
named.  A valid code is probed for a pair at distance 2 with the maps of
perm_core.distance_two_maps, which under Chebyshev are drawn once per
length and kept.  A plain pairwise loop remains as the test reference and
as the fallback that finds the minimum distance of a snake with no pair at
distance 2.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import countOf, ne
from typing import Optional

from .perm_core import (
    MAX_N,
    PUSH_MAPS,
    Perm,
    ball_maps,
    check_perm,
    distance_two_maps,
    form,
    kendall_distance,
    linf_distance,
    merge_maps,
    push_top,
)

__all__ = [
    "GrayCode",
    "SnakeReport",
    "balance_gap",
    "decode_code",
    "encode_code",
    "expand",
    "verify_snake",
]

METRICS = ("kendall", "linf")
_DISTANCE = {"kendall": kendall_distance, "linf": linf_distance}


@dataclass(frozen=True)
class GrayCode:
    """A push-to-top Gray code: start permutation plus transition indices.

    transitions[k] = i means codeword k+1 is push_top(i, codeword k).
    For cyclic codes the last transition maps the last codeword to the start.
    """

    n: int
    start: Perm
    transitions: tuple[int, ...]
    cyclic: bool

    def __post_init__(self) -> None:
        # type() and not isinstance(), which would take True and False (bool)
        if type(self.n) is not int or not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be an integer in 1..{MAX_N}, got {self.n!r}")
        start, transitions = tuple(self.start), tuple(self.transitions)
        for key, entries in (("start", start), ("transitions", transitions)):
            if countOf(map(type, entries), int) != len(entries):
                raise ValueError(f"{key} must be a list of integers")
        check_perm(start)
        if len(start) != self.n:
            raise ValueError(f"start has length {len(start)}, expected n={self.n}")
        try:  # bytes() refuses an index outside 0..255
            in_range = not bytes(transitions).translate(None, bytes(range(2, self.n + 1)))
        except ValueError:
            in_range = False
        if not in_range:
            t = next(t for t in transitions if not 2 <= t <= self.n)
            raise ValueError(f"transition index {t} out of range 2..{self.n}")
        if self.cyclic and not transitions:
            raise ValueError("a cyclic code needs at least one transition")
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "start", start)

    @property
    def size(self) -> int:
        """Number of codewords M."""
        return len(self.transitions) if self.cyclic else len(self.transitions) + 1


@dataclass(frozen=True)
class SnakeReport:
    """Outcome of verify_snake.

    witness is a pair of codeword ranks at distance < 2, or None when valid.
    min_pairwise_distance is the distance at the witness when invalid, and the
    true minimum over all pairs when valid.
    """

    valid: bool
    metric: str
    min_pairwise_distance: Optional[int]
    witness: Optional[tuple[int, int]]


def _ranks(code: GrayCode, metric: Optional[str] = None) -> dict:
    """The rank of each codeword in rank order from code.start, keyed by the
    codeword, or by its form (perm_core.form) under metric if given.  Raises
    ValueError on a repeated codeword (naming the first collision) or, for
    cyclic codes, when the final transition does not return to start.

    The forms are walked in C: each push is one translate of the Kendall
    form, and a Chebyshev form is the form of a Kendall one.  Tuples are
    sliced in a loop, which runs faster for them than the same chain.
    """
    steps = code.transitions if not code.cyclic else code.transitions[:-1]
    if metric is None:
        cur = code.start
        ranks = {cur: 0}
        for k, t in enumerate(steps, 1):
            cur = cur[t - 1 : t] + cur[: t - 1] + cur[t:]
            dup = ranks.setdefault(cur, k)
            if dup != k:
                raise ValueError(f"codeword at rank {k} repeats rank {dup}: {cur}")
    else:
        forms = itertools.accumulate(
            map(PUSH_MAPS.__getitem__, steps), bytes.translate, initial=form("kendall", code.start)
        )
        if metric == "linf":
            ident = bytes(range(1, code.n + 1))
            forms = map(ident.translate, map(bytes.maketrans, forms, itertools.repeat(ident)))
        ranks = dict(zip(forms, itertools.count()))
        if len(ranks) <= len(steps):
            _ranks(code)  # raises, naming the first repeated codeword as the loop finds it
        cur = tuple(form(metric, next(reversed(ranks))))
    if code.cyclic:
        closing = push_top(code.transitions[-1], cur)
        if closing != code.start:
            raise ValueError(
                f"cyclic code does not close: final transition yields {closing}, "
                f"start is {code.start}"
            )
    return ranks


def expand(code: GrayCode) -> tuple[Perm, ...]:
    """All codewords in rank order from code.start; raises where _ranks does."""
    return tuple(_ranks(code))


def _verify_pairs(words: tuple[Perm, ...], metric: str) -> SnakeReport:
    """Reference pairwise check: plain double loop, early exit on violation."""
    dist = _DISTANCE[metric]
    best: Optional[int] = None
    m = len(words)
    for i in range(m):
        wi = words[i]
        for j in range(i + 1, m):
            d = dist(wi, words[j])
            if d < 2:
                return SnakeReport(False, metric, d, (i, j))
            if best is None or d < best:
                best = d
    return SnakeReport(True, metric, best, None)


# a push t_k is a k-cycle, which flips the parity exactly when k is even
_FLIPS = bytes(1 - t % 2 for t in range(256))
_NOT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _first_neighbour(index: dict[bytes, int], parities: bytes) -> Optional[bytes]:
    """The first Kendall word in rank order, keyed by form, at distance 1
    from another word, or None.  A ball map swaps two adjacent values, so it
    links words of opposite parity: each map tried on every word of the
    smaller class at once tells whether there is such a pair (a code of odd
    pushes has none to look up), and only then is each word tested."""
    keys = index.keys()
    maps = ball_maps("kendall", len(next(iter(keys))))
    if 2 * parities.count(1) > len(parities):
        parities = parities.translate(_NOT)
    words = list(itertools.compress(index, parities))
    if all(keys.isdisjoint(map(bytes.translate, words, itertools.repeat(m))) for m in maps):
        return None
    return next(f for f in index if not keys.isdisjoint(map(f.translate, maps)))


def _first_recurring(index: dict[bytes, int], table: bytes) -> int:
    """The least rank whose word translated by table is another's too, else len(index)."""
    merged = list(map(bytes.translate, index, itertools.repeat(table)))
    last = dict(zip(merged, itertools.count()))
    if len(last) == len(merged):
        return len(merged)
    recurs = map(ne, map(last.__getitem__, merged), itertools.count())
    return next(itertools.compress(itertools.count(), recurs))


def _first_merged(index: dict[bytes, int]) -> Optional[bytes]:
    """The first Chebyshev word in rank order at distance 1 from another,
    or None.  Such pairs are those a table of perm_core.merge_maps merges,
    so each table is tried on every word at once.  The least rank i merged
    under the first table that merges any bounds the answer: the balls of
    ranks up to i are tested in rank order, or, where that takes more
    lookups than the tables left take translates, i is lowered to the least
    merged rank under each of those."""
    m, n = len(index), len(next(iter(index)))
    tables = merge_maps(n)
    hit = next((k for k, t in enumerate(tables)
                if len(set(map(bytes.translate, index, itertools.repeat(t)))) < m), None)
    if hit is None:
        return None
    i, rest, ball = _first_recurring(index, tables[hit]), tables[hit + 1 :], ball_maps("linf", n)
    if i * len(ball) < len(rest) * m:
        keys = index.keys()
        return next(f for f in index if not keys.isdisjoint(map(f.translate, ball)))
    i = min((i, *(_first_recurring(index, t) for t in rest)))
    return next(itertools.islice(index, i, None))


def _verify_words(index: dict[bytes, int], metric: str, parities: bytes) -> SnakeReport:
    """verify_snake on distinct words, as the rank of each keyed by its form;
    parities[r] is the parity (0 or 1) of rank r, read under Kendall only.

    The lowest violating pair is the least rank i at distance 1 from
    another word (_first_neighbour under Kendall, _first_merged under
    Chebyshev), with the least rank j in its ball.  One pair at distance 2
    fixes a snake's minimum at 2.  The probe for one translates every form
    by one distance-2 map at a time, at most (M - 1) // 2 maps for M words,
    so no more lookups than there are pairs; the pairwise loop runs when it
    finds none.
    """
    keys = index.keys()
    n = len(next(iter(keys)))
    f = _first_neighbour(index, parities) if metric == "kendall" else _first_merged(index)
    if f is not None:
        j = min(index[g] for g in map(f.translate, ball_maps(metric, n)) if g in keys)
        return SnakeReport(False, metric, 1, (index[f], j))
    for m in itertools.islice(distance_two_maps(metric, n), (len(index) - 1) // 2):
        if not keys.isdisjoint(map(bytes.translate, index, itertools.repeat(m))):
            return SnakeReport(True, metric, 2, None)
    return _verify_pairs(tuple(tuple(form(metric, f)) for f in index), metric)


def verify_snake(code: GrayCode, metric: str) -> SnakeReport:
    """Check that every pair of distinct codewords is at distance >= 2.

    The report's witness, when present, is the lowest-rank violating pair,
    and min_pairwise_distance of a valid code is the exact minimum.  Each
    rank's parity comes from the pushes, one prefix XOR over them
    (_parities).  Raises ValueError where expand does.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    index = _ranks(code, metric)
    parities = b""
    if metric == "kendall":
        parities = _parities(bytes(code.transitions[:-1] if code.cyclic else code.transitions))
    return _verify_words(index, metric, parities)


def _parities(steps: bytes) -> bytes:
    """Each rank's parity, 0 or 1: a prefix XOR of the flips by 1, 2, 4, ... byte shifts."""
    flips = b"\x00" + steps.translate(_FLIPS)
    x = int.from_bytes(flips, "big")
    for k in range(len(flips).bit_length()):
        x ^= x >> (8 << k)
    return x.to_bytes(len(flips), "big")


def balance_gap(code: GrayCode) -> int:
    """Largest cyclic wait until the same element is pushed to the top again.

    For each step k of a cyclic code, take the least j in 1..M such that the
    value moved at step (k + j) mod M equals the value moved at step k; the
    gap is the maximum over k.  j = M counts: a value pushed exactly once
    recurs after a full period.
    """
    if not code.cyclic:
        raise ValueError("balance_gap is defined for cyclic codes only")
    words = expand(code)
    m = code.size
    tops = [words[(k + 1) % m][0] for k in range(m)]
    # the gap before each step k is k less the step that last moved the same
    # value, its final step one period back when k is its first
    last = {v: k - m for k, v in enumerate(tops)}
    worst = 0
    for k, v in enumerate(tops):
        worst, last[v] = max(worst, k - last[v]), k
    return worst


def encode_code(code: GrayCode, metric: Optional[str] = None) -> str:
    """One-line canonical JSON for a code, optionally tagged with a metric."""
    if metric is not None and metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    payload = {
        "n": code.n,
        "metric": metric,
        "start": list(code.start),
        "transitions": list(code.transitions),
        "cyclic": code.cyclic,
    }
    return json.dumps(payload, separators=(",", ":"))


def decode_code(text: str) -> tuple[GrayCode, Optional[str]]:
    """Inverse of encode_code.  Raises ValueError on malformed input."""
    fields, metric = _parse_code(text)
    return GrayCode(*fields), metric


def _parse_code(text: str) -> tuple[tuple, Optional[str]]:
    """A code line's GrayCode fields and metric, its shape checked but no entry."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("code JSON must be an object")
    missing = {"n", "start", "transitions", "cyclic"} - payload.keys()
    if missing:
        raise ValueError(f"code JSON missing keys: {sorted(missing)}")
    # GrayCode checks the types of n and of the entries
    for key in ("start", "transitions"):
        if not isinstance(payload[key], list):
            raise ValueError(f"{key} must be a list of integers")
    if not isinstance(payload["cyclic"], bool):
        raise ValueError("cyclic must be a boolean")
    metric = payload.get("metric")
    if metric is not None and metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return (payload["n"], payload["start"], payload["transitions"], payload["cyclic"]), metric
