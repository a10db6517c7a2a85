"""The benchmark's own reference computations and output checkers.

Nothing here imports permsnake: every check recomputes what it needs (push
moves, both metrics, radius-1 balls, closed-form sizes and bounds) from the
definitions, so a fault in the program cannot hide in its own checker.

Each ``check_*`` function returns None when the answer is right and a short
description of what is wrong otherwise.
"""

from __future__ import annotations

import json
from math import factorial
from typing import Optional, Sequence

Perm = tuple[int, ...]

# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------


def push(i: int, w: Perm) -> Perm:
    """Lift the entry in (1-based) position i to the front."""
    return (w[i - 1],) + w[: i - 1] + w[i:]


def walk(start: Perm, transitions: Sequence[int], cyclic: bool) -> Optional[list[Perm]]:
    """Codewords visited by a push code, or None when a codeword repeats or a
    cyclic code does not return to its start."""
    words = [tuple(start)]
    seen = {words[0]}
    steps = transitions[:-1] if cyclic else transitions
    cur = words[0]
    for t in steps:
        cur = push(t, cur)
        if cur in seen:
            return None
        seen.add(cur)
        words.append(cur)
    if cyclic and push(transitions[-1], cur) != words[0]:
        return None
    return words


def kendall(a: Perm, b: Perm) -> int:
    """Adjacent-swap distance: inversions of b read in a's order."""
    where = {v: i for i, v in enumerate(a)}
    seq = [where[v] for v in b]
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def linf(a: Perm, b: Perm) -> int:
    """Chebyshev distance of the one-line vectors."""
    return max(abs(x - y) for x, y in zip(a, b))


DISTANCE = {"kendall": kendall, "linf": linf}


def ball(w: Perm, metric: str) -> list[Perm]:
    """Permutations at distance exactly 1 from w.

    Kendall: one adjacent swap of positions.  Chebyshev: swap the values of
    any set of disjoint pairs {v, v+1}, which moves every entry by at most 1.
    """
    n = len(w)
    if metric == "kendall":
        return [w[:s] + (w[s + 1], w[s]) + w[s + 2 :] for s in range(n - 1)]
    out: list[Perm] = []

    def rec(v: int, relabel: list[int]) -> None:
        if v >= n:
            image = tuple(relabel[x] for x in w)
            if image != w:
                out.append(image)
            return
        rec(v + 1, relabel)
        relabel[v], relabel[v + 1] = v + 1, v
        rec(v + 2, relabel)
        relabel[v], relabel[v + 1] = v, v + 1

    rec(1, list(range(n + 1)))
    return out


def first_violation(words: Sequence[Perm], metric: str) -> Optional[tuple[int, int]]:
    """A pair of ranks at distance < 2, or None when the words form a snake.

    Hashes every codeword and probes its radius-1 ball, O(M * |ball|).
    """
    index: dict[Perm, int] = {}
    for r, w in enumerate(words):
        if w in index:
            return index[w], r
        index[w] = r
    for r, w in enumerate(words):
        for x in ball(w, metric):
            s = index.get(x)
            if s is not None:
                return min(r, s), max(r, s)
    return None


def pairwise_min(words: Sequence[Perm], metric: str) -> tuple[int, tuple[int, int]]:
    """Smallest distance over all pairs and the first pair attaining it."""
    dist = DISTANCE[metric]
    best: Optional[tuple[int, tuple[int, int]]] = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            d = dist(words[i], words[j])
            if best is None or d < best[0]:
                best = (d, (i, j))
    if best is None:
        raise ValueError("pairwise_min needs at least two words")
    return best


def consecutive_min(words: Sequence[Perm], metric: str, cyclic: bool) -> int:
    """Smallest distance between neighbouring codewords (closing pair too)."""
    dist = DISTANCE[metric]
    pairs = list(zip(words, words[1:]))
    if cyclic:
        pairs.append((words[-1], words[0]))
    return min(dist(a, b) for a, b in pairs)


def ksnake_size(N: int) -> int:
    """M_3 = 3 and M_N = N (N-2) M_{N-2}."""
    return 3 if N == 3 else N * (N - 2) * ksnake_size(N - 2)


def linf_size(n: int, variant: str) -> int:
    """p!(q + (q-1)!) for the odd-top variant, roles swapped for even-top."""
    p, q = (n + 1) // 2, n // 2
    if variant == "even-top":
        p, q = q, p
    return factorial(p) * (q + factorial(q - 1))


def search_upper(metric: str, n: int) -> int:
    """n!/2 under Kendall, n!/2^floor(n/2) under Chebyshev."""
    return factorial(n) // 2 if metric == "kendall" else factorial(n) // (1 << (n // 2))


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def check_equal(expected, got) -> Optional[str]:
    """Writes, reads and steps: the answer must equal the reference value
    (a codeword of expand(build_*) or its rank)."""
    if isinstance(got, BaseException):
        return f"raised {type(got).__name__}: {got}"
    if got != expected:
        return f"got {got!r}, expected {expected!r}"
    return None


def check_rejected(got) -> Optional[str]:
    """A read of a non-codeword must be refused with ValueError."""
    if isinstance(got, ValueError):
        return None
    if isinstance(got, BaseException):
        return f"raised {type(got).__name__} instead of ValueError"
    return f"accepted a non-codeword and returned {got!r}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def check_verify(
    rc: int,
    stdout: str,
    *,
    words: Sequence[Perm],
    metric: str,
    cyclic: bool,
    size: int,
    expect_valid: bool,
) -> Optional[str]:
    """One `permsnake verify` request on one code.

    words is the benchmark's own expansion of the code, size the closed-form
    or counted size, expect_valid the verdict the benchmark established with
    first_violation.
    """
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"exit {rc}, {len(lines)} stdout lines, expected 1"
    try:
        report = json.loads(lines[0])
    except json.JSONDecodeError:
        return f"stdout is not JSON: {lines[0][:80]!r}"
    if report.get("valid") is not expect_valid:
        return f"verdict {report.get('valid')}, expected {expect_valid}"
    if rc != (0 if expect_valid else 1):
        return f"exit code {rc} for verdict {expect_valid}"
    if report.get("metric") != metric:
        return f"metric {report.get('metric')!r}, expected {metric!r}"
    if report.get("size") != size or len(words) != size:
        return f"size {report.get('size')}, expected {size}"
    low = report.get("min_pairwise_distance")
    witness = report.get("witness")
    if expect_valid:
        if witness is not None:
            return f"valid code with witness {witness}"
        if not isinstance(low, int) or low < 2:
            return f"valid code with minimum distance {low!r}"
        if low > consecutive_min(words, metric, cyclic):
            return f"minimum {low} exceeds a distance between consecutive codewords"
        return None
    if not (isinstance(witness, list) and len(witness) == 2):
        return f"invalid code without a witness pair: {witness!r}"
    i, j = witness
    if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < j < size):
        return f"witness {witness} out of range"
    d = DISTANCE[metric](words[i], words[j])
    if d >= 2:
        return f"witness {witness} is at distance {d}"
    if low != d:
        return f"reported distance {low} at witness, measured {d}"
    return None


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def check_search(
    *,
    n: int,
    metric: str,
    cyclic: bool,
    allowed: Sequence[int],
    start: Perm,
    exhaustive: bool,
    optimum: Optional[int],
    size: int,
    proven_optimal: bool,
    best_start: Optional[Perm],
    transitions: Optional[Sequence[int]],
) -> Optional[str]:
    """One longest_snake result.

    optimum, when given, is the size an exhaustive spec must prove.
    """
    upper = search_upper(metric, n)
    if not 1 <= size <= upper:
        return f"size {size} outside 1..{upper}"
    if transitions is None or best_start is None:
        return "no best code"
    if tuple(best_start) != tuple(start):
        return f"best code starts at {best_start}, spec start is {start}"
    if any(t not in allowed for t in transitions):
        return f"best code uses a push outside {tuple(allowed)}"
    words = walk(tuple(best_start), transitions, cyclic)
    if words is None:
        return "best code repeats a codeword or does not close"
    if len(words) != size:
        return f"best code has {len(words)} codewords, reported size {size}"
    if size >= 2:
        d, pair = pairwise_min(words, metric)
        if d < 2:
            return f"codewords {pair} at {metric} distance {d}"
    if exhaustive and not proven_optimal:
        return "exhaustive search not reported proven optimal"
    if size == upper and not proven_optimal:
        return "size meets the bound but is not reported proven optimal"
    if optimum is not None and size != optimum:
        return f"size {size}, known optimum {optimum}"
    return None
