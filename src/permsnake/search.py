"""Depth-first search for maximal snakes, plus recorded search results.

The search walks push-to-top extensions from a fixed start permutation with
an explicit stack, over tables of S_n built once per call, keeping a
blocked-counter over the whole symmetric group: placing a codeword
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

The branches, one per first transition, run in ascending order.  Branch f
of b may place ceil(remaining / (b - f)) nodes, remaining being the node
budget less what the earlier branches placed.  The search stops once a code
reaches the metric's upper bound: an equal-size code never replaces the first
one found, so the stop changes no size, witness or optimality verdict.

Also here: the recorded two-transition Chebyshev codes in octal form, the
recorded 57-codeword cyclic Kendall snake of degree 5, and the completion
that extends it to a non-cyclic code covering all of A_5.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional

from .bounds import linf_upper, trivial_upper
from .code_model import GrayCode, expand, verify_snake
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
            raise ValueError(f"start {start} has length {len(start)}, but n is {self.n}")
        object.__setattr__(self, "start", start)
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")
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


@dataclass(frozen=True)
class _Tables:
    """The S_n tables of one search, over the spec's sorted alphabet."""

    balls: list[tuple[int, ...]]  # closed radius-1 ball of each state
    moves: list[tuple[tuple[int, int], ...]]  # (t, push_top(t, state)) per t
    closers: tuple[tuple[int, int], ...]  # (t, the state t pushes to the start) per t
    start: int


def _build_tables(spec: SearchSpec) -> _Tables:
    perms = list(itertools.permutations(range(1, spec.n + 1)))
    # Balls come as perm_key ints; pushes stay tuples, which hash faster
    # than they pack.
    index = {p: i for i, p in enumerate(perms)}
    key_index = dict(zip(map(perm_key, perms), range(len(perms))))
    neighbours = NEIGHBOURS[spec.metric]
    balls = [(i, *map(key_index.__getitem__, neighbours(p))) for i, p in enumerate(perms)]
    alphabet = spec.allowed_transitions
    # push_top(t, p) takes p's entries in the order that push_top(t, ·) puts
    # the positions 0..n-1 in.
    pushes = [itemgetter(*push_top(t, tuple(range(spec.n)))) for t in alphabet]
    targets = [list(map(index.__getitem__, map(push, perms))) for push in pushes]
    moves = [tuple(zip(alphabet, row)) for row in zip(*targets)]
    # t pushes s[1:t] + s[:1] + s[t:] to s, and no other state.
    s = spec.start
    closers = tuple((t, index[s[1:t] + s[:1] + s[t:]]) for t in alphabet)
    return _Tables(balls, moves, closers, index[s])


def _explore(
    tables: _Tables, cyclic: bool, first: int, offset: int, budget: Optional[int],
    bound: int, best: tuple[int, Optional[tuple[int, ...]]],
) -> tuple[tuple[int, Optional[tuple[int, ...]]], int, bool]:
    """Search one branch: the codes whose first push is the alphabet's entry
    number first and whose pushes all come from the alphabet's suffix at
    offset, until one reaches bound.  best is the (size, transitions, with the
    closing push for cyclic codes) of the largest code so far, and a code
    replaces it only if larger.  Returns (best, placements, exhausted)."""
    balls = tables.balls
    moves = tables.moves if offset == 0 else [mv[offset:] for mv in tables.moves]
    closing = [0] * len(balls)  # the push back to the start, 0 where there is none
    for t, state in tables.closers[offset:]:
        closing[state] = t
    blocked = [0] * len(balls)
    for u in balls[tables.start]:
        blocked[u] += 1
    limit = math.inf if budget is None else budget
    best_size, best_trans = best
    nodes = 0
    # One entry (state, the push that reached it, the untried siblings) per
    # placed state; children iterates the top state's untried pushes.
    stack: list[tuple[int, int, Iterator[tuple[int, int]]]] = []
    children = iter(tables.moves[tables.start][first : first + 1])
    while True:
        for t, nxt in children:
            if not blocked[nxt]:
                break
        else:
            if not stack:
                return (best_size, best_trans), nodes, True
            state, _, children = stack.pop()
            for u in balls[state]:
                blocked[u] -= 1
            continue
        if nodes >= limit:
            return (best_size, best_trans), nodes, False
        nodes += 1
        for u in balls[nxt]:
            blocked[u] += 1
        stack.append((nxt, t, children))
        children = iter(moves[nxt])
        # the code through the placed states has len(stack) + 1 codewords
        if len(stack) >= best_size and (closing[nxt] or not cyclic):
            best_size = len(stack) + 1
            best_trans = tuple(entry[1] for entry in stack)
            if cyclic:
                best_trans += (closing[nxt],)
            if best_size >= bound:
                return (best_size, best_trans), nodes, False


def longest_snake(spec: SearchSpec) -> SearchResult:
    """Largest snake satisfying spec; deterministic.

    proven_optimal is True when every branch ran to exhaustion within budget
    or the best size equals the metric's upper bound (see module docstring
    for what exhaustion certifies under each metric).
    """
    tables = _build_tables(spec)
    bound = trivial_upper(spec.n) if spec.metric == "kendall" else linf_upper(spec.n)
    # A cyclic Kendall branch keeps to pushes >= its first (module docstring).
    split_on_min = spec.metric == "kendall" and spec.cyclic
    best = (0, None) if spec.cyclic else (1, ())
    nodes = 0
    exhausted = True
    b, budget = len(spec.allowed_transitions), spec.node_budget
    for f in range(b):
        if best[0] >= bound:
            break
        # an even share of what the earlier branches left
        share = None if budget is None else -(-(budget - nodes) // (b - f))
        best, branch_nodes, branch_done = _explore(
            tables, spec.cyclic, f, f if split_on_min else 0, share, bound, best
        )
        nodes += branch_nodes
        exhausted = exhausted and branch_done

    size, trans = best
    code = None
    if trans is not None:
        code = GrayCode(n=spec.n, start=spec.start, transitions=trans, cyclic=spec.cyclic)
    return SearchResult(
        best=code, size=size, proven_optimal=exhausted or size >= bound, nodes=nodes
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
