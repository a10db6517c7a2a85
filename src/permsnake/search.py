"""Depth-first search for maximal snakes, plus recorded search results.

The search walks push-to-top extensions from a fixed start permutation,
keeping a blocked-counter over the whole symmetric group: placing a codeword
increments every state in its closed radius-1 ball, so a candidate extension
is legal exactly when its counter is zero.  Transitions are tried in
ascending index order, which makes the first maximal code found the
lexicographically least witness and the whole search deterministic.

For cyclic Kendall searches the tree is additionally split on the minimum
transition index f appearing anywhere in the cyclic transition sequence:
every cyclic snake can be rotated so a minimal transition comes first and
then translated back to the fixed start (Kendall distance is invariant under
left translation), so exploring, for each f, only sequences that start with f
and stay at indices >= f still covers every achievable size.  Chebyshev
distance is not translation invariant, so no such split is applied there and
exhaustion certifies optimality among codes through the fixed start; hitting
the metric's upper bound certifies global optimality for either metric.

Also here: the recorded two-transition Chebyshev codes in octal form, the
recorded 57-codeword cyclic Kendall snake of degree 5, and the completion
that extends it to a non-cyclic code covering all of A_5.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .bounds import linf_upper, trivial_upper
from .code_model import GrayCode, SnakeReport, expand, verify_snake
from .perm_core import NEIGHBOURS, Perm, check_perm, identity, perm_key, push_top, sign

__all__ = [
    "RECORDED_OCTAL_CODES",
    "SearchResult",
    "SearchSpec",
    "emit_octal_code",
    "extend_to_complete",
    "k5_witness_code",
    "longest_snake",
    "parse_octal_code",
    "recorded_octal_code",
    "verify_k5_witness",
]

MAX_SEARCH_N = 8
MAX_EXHAUSTIVE_N = 6


@dataclass(frozen=True)
class SearchSpec:
    """What to search for.  allowed_transitions defaults to 2..n and start to
    the identity; node_budget None means run to exhaustion (n <= 6 only)."""

    n: int
    metric: str
    cyclic: bool = True
    allowed_transitions: Optional[tuple[int, ...]] = None
    start: Optional[Perm] = None
    node_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if not 2 <= self.n <= MAX_SEARCH_N:
            raise ValueError(f"search supports 2 <= n <= {MAX_SEARCH_N}, got {self.n}")
        if self.metric not in ("kendall", "linf"):
            raise ValueError(f"metric must be 'kendall' or 'linf', got {self.metric!r}")
        allowed = self.allowed_transitions
        if allowed is None:
            allowed = tuple(range(2, self.n + 1))
        allowed = tuple(sorted(set(allowed)))
        if not allowed:
            raise ValueError("allowed_transitions must not be empty")
        for t in allowed:
            if not 2 <= t <= self.n:
                raise ValueError(f"transition {t} out of range 2..{self.n}")
        object.__setattr__(self, "allowed_transitions", allowed)
        start = self.start if self.start is not None else identity(self.n)
        start = check_perm(start)
        if len(start) != self.n:
            raise ValueError("start length does not match n")
        object.__setattr__(self, "start", start)
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be positive")
        if self.node_budget is None and self.n > MAX_EXHAUSTIVE_N:
            raise ValueError(
                f"exhaustive search is capped at n <= {MAX_EXHAUSTIVE_N}; "
                "set node_budget for larger n"
            )


@dataclass(frozen=True)
class SearchResult:
    """best is None only when no code satisfying the spec was found (a cyclic
    spec admitting no closure at all)."""

    best: Optional[GrayCode]
    size: int
    proven_optimal: bool
    nodes: int


def _branch_worker(args: tuple) -> tuple[int, Optional[tuple[int, ...]], int, bool]:
    """Explore one first-transition subtree.  Returns (best size, best
    transition sequence with closure for cyclic codes, placements, exhausted).
    Module-level so worker processes can import it."""
    n, metric, cyclic, alphabet, start, first_t, budget = args

    perms = list(itertools.permutations(range(1, n + 1)))
    # Balls come as perm_key ints; pushes stay tuples, which hash faster
    # than they pack.
    index = {p: i for i, p in enumerate(perms)}
    key_index = dict(zip(map(perm_key, perms), range(len(perms))))
    neighbours = NEIGHBOURS[metric]
    balls = [(i, *map(key_index.__getitem__, neighbours(p))) for i, p in enumerate(perms)]
    moves = [tuple((t, index[push_top(t, p)]) for t in alphabet) for p in perms]
    start_idx = index[start]
    # the least push back to the start, 0 where there is none
    closing = [next((t for t, nxt in mv if nxt == start_idx), 0) for mv in moves]

    blocked = [0] * len(perms)
    for u in balls[start_idx]:
        blocked[u] += 1

    first_idx = index[push_top(first_t, start)]
    if blocked[first_idx]:
        return 0, None, 0, True

    best_size = 0
    best_trans: Optional[tuple[int, ...]] = None
    path: list[int] = [first_t]
    nodes = 0
    exhausted = True

    for u in balls[first_idx]:
        blocked[u] += 1
    nodes += 1

    def record(cur: int) -> None:
        nonlocal best_size, best_trans
        if cyclic:
            ct = closing[cur]
            if ct and len(path) + 1 > best_size:
                best_size = len(path) + 1
                best_trans = tuple(path) + (ct,)
        else:
            if len(path) + 1 > best_size:
                best_size = len(path) + 1
                best_trans = tuple(path)

    class _Budget(Exception):
        pass

    def dfs(cur: int) -> None:
        nonlocal nodes
        record(cur)
        for t, nxt in moves[cur]:
            if blocked[nxt]:
                continue
            if budget is not None and nodes >= budget:
                raise _Budget
            nodes += 1
            path.append(t)
            bn = balls[nxt]
            for u in bn:
                blocked[u] += 1
            dfs(nxt)
            for u in bn:
                blocked[u] -= 1
            path.pop()

    try:
        dfs(first_idx)
    except _Budget:
        exhausted = False
    return best_size, best_trans, nodes, exhausted


def _metric_bound(metric: str, n: int) -> int:
    return trivial_upper(n) if metric == "kendall" else linf_upper(n)


def longest_snake(spec: SearchSpec, jobs: int = 1) -> SearchResult:
    """Largest snake satisfying spec; deterministic for any jobs >= 1.

    proven_optimal is True when every branch ran to exhaustion within budget
    or the best size equals the metric's upper bound (see module docstring
    for what exhaustion certifies under each metric).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    allowed = spec.allowed_transitions
    split_on_min = spec.metric == "kendall" and spec.cyclic

    branches: list[tuple] = []
    for f in allowed:
        alphabet = tuple(t for t in allowed if t >= f) if split_on_min else allowed
        branches.append(
            (spec.n, spec.metric, spec.cyclic, alphabet, spec.start, f, None)
        )
    if spec.node_budget is not None:
        b = len(branches)
        shares = [
            spec.node_budget // b + (1 if i < spec.node_budget % b else 0)
            for i in range(b)
        ]
        branches = [br[:-1] + (shares[i],) for i, br in enumerate(branches)]

    if jobs == 1:
        outcomes = [_branch_worker(br) for br in branches]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_branch_worker, branches))

    if spec.cyclic:
        best_size, best_trans = 0, None
    else:
        best_size, best_trans = 1, ()
    nodes = 0
    exhausted = True
    for size, trans, branch_nodes, branch_done in outcomes:
        nodes += branch_nodes
        exhausted = exhausted and branch_done
        if size > best_size:
            best_size, best_trans = size, trans

    best_code = None
    if best_trans is not None and best_size > 0:
        best_code = GrayCode(
            n=spec.n, start=spec.start, transitions=best_trans, cyclic=spec.cyclic
        )
    proven = exhausted or best_size >= _metric_bound(spec.metric, spec.n)
    return SearchResult(
        best=best_code, size=best_size, proven_optimal=proven, nodes=nodes
    )


# ---------------------------------------------------------------------------
# Recorded codes: octal two-transition Chebyshev snakes
# ---------------------------------------------------------------------------

# Each octal digit encodes three transitions, most significant bit first;
# bit 0 stands for t_n and bit 1 for t_{n-1}.  All three codes are cyclic
# Chebyshev snakes from the identity (sizes 6, 30, 90).
RECORDED_OCTAL_CODES: dict[int, str] = {
    4: "55",
    5: "0212206063",
    6: "010204410222042124446130162347",
}


def parse_octal_code(n: int, digits: str) -> GrayCode:
    """Decode an octal transition string into a cyclic code and validate it.

    >>> parse_octal_code(4, "55").transitions
    (3, 4, 3, 3, 4, 3)
    """
    if n < 3:
        raise ValueError(f"octal codes need n >= 3, got {n}")
    if not digits or any(c not in "01234567" for c in digits):
        raise ValueError(f"not an octal string: {digits!r}")
    transitions: list[int] = []
    for c in digits:
        d = int(c, 8)
        for shift in (2, 1, 0):
            transitions.append(n - 1 if (d >> shift) & 1 else n)
    code = GrayCode(n=n, start=identity(n), transitions=tuple(transitions), cyclic=True)
    expand(code)  # raises if codewords repeat or the cycle does not close
    return code


def emit_octal_code(code: GrayCode) -> str:
    """Inverse of parse_octal_code; bit-exact round-trip.

    >>> emit_octal_code(parse_octal_code(5, "0212206063"))
    '0212206063'
    """
    n = code.n
    if any(t not in (n - 1, n) for t in code.transitions):
        raise ValueError("octal form needs every transition to be t_n or t_{n-1}")
    if len(code.transitions) % 3 != 0:
        raise ValueError("octal form needs a transition count divisible by 3")
    out = []
    for i in range(0, len(code.transitions), 3):
        d = 0
        for t in code.transitions[i : i + 3]:
            d = (d << 1) | (1 if t == n - 1 else 0)
        out.append(format(d, "o"))
    return "".join(out)


def recorded_octal_code(n: int) -> GrayCode:
    """One of the recorded two-transition Chebyshev snakes (n in 4..6)."""
    if n not in RECORDED_OCTAL_CODES:
        raise ValueError(f"no recorded octal code for n={n}")
    return parse_octal_code(n, RECORDED_OCTAL_CODES[n])


# ---------------------------------------------------------------------------
# Recorded degree-5 Kendall snake with 57 codewords, and its completion
# ---------------------------------------------------------------------------

# The 57 transitions repeat this 19-entry segment three times.
_K5_SEGMENT = (3, 3, 5, 3, 3, 5, 3, 5, 5, 3, 3, 5, 3, 3, 5, 3, 5, 5, 5)


def k5_witness_code() -> GrayCode:
    """The recorded cyclic (5, 57) Kendall snake, started at the identity."""
    return GrayCode(
        n=5, start=identity(5), transitions=_K5_SEGMENT * 3, cyclic=True
    )


def verify_k5_witness() -> SnakeReport:
    """verify_snake under Kendall's tau on the recorded 57-codeword snake."""
    return verify_snake(k5_witness_code(), "kendall")


def extend_to_complete(code: GrayCode) -> GrayCode:
    """Extend a cyclic Kendall snake missing exactly three even permutations
    to a non-cyclic code covering the whole alternating group.

    The three missing permutations must form a push-3 cycle with a push-5
    landing back in the code; the result starts at the lexicographically
    least entry point, runs the two t_3 steps and the t_5 re-entry, then the
    whole original cycle.  The result is re-verified before returning.
    """
    if not code.cyclic:
        raise ValueError("extend_to_complete expects a cyclic code")
    if code.n < 5:
        raise ValueError("extend_to_complete needs n >= 5 (uses a t_5 re-entry)")
    words = expand(code)
    word_index = {w: r for r, w in enumerate(words)}
    evens = [p for p in itertools.permutations(range(1, code.n + 1)) if sign(p) == 1]
    complement = sorted(set(evens) - set(words))
    if len(complement) != 3:
        raise ValueError(
            f"complement of the code in the alternating group has "
            f"{len(complement)} permutations, expected 3"
        )
    for c0 in complement:
        c1 = push_top(3, c0)
        c2 = push_top(3, c1)
        if {c1, c2} != set(complement) - {c0} or push_top(3, c2) != c0:
            continue
        w = push_top(5, c2)
        r = word_index.get(w)
        if r is None:
            continue
        rotated = code.transitions[r:] + code.transitions[:r]
        result = GrayCode(
            n=code.n,
            start=c0,
            transitions=(3, 3, 5) + rotated[: len(words) - 1],
            cyclic=False,
        )
        report = verify_snake(result, "kendall")
        if not report.valid:
            raise AssertionError(
                f"extended code failed verification at pair {report.witness}"
            )
        return result
    raise ValueError(
        "the three missing permutations do not form a push-3 cycle with a "
        "push-5 re-entry into the code"
    )
