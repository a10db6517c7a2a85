"""Depth-first search for maximal snakes.

The search walks push-to-top extensions from a fixed start permutation with
an explicit stack.  Its tables, built once per call, cover the orbit of the
start under the allowed pushes and nothing else, because no code through the
start leaves it: the odd pushes t_3, t_5, ... reach at most the n!/2
permutations of the start's parity, and a single push t_k only k of them.
The orbit is found breadth-first on byte forms (perm_core.form), which the
pushes step in C.  The search keeps a blocked-counter over the orbit:
placing a codeword increments every state of the orbit in its closed
radius-1 ball, built the first time the search places that state, so a
candidate extension is legal exactly when its counter is zero.  Transitions
are tried in ascending index order, which makes the first maximal code found
the lexicographically least witness and the whole search deterministic.

For cyclic Kendall searches the tree is additionally split on the minimum
transition index f appearing anywhere in the cyclic transition sequence:
every cyclic snake can be rotated so a minimal transition comes first and
then translated back to the fixed start (Kendall distance is invariant under
left translation), so exploring, for each f, only sequences that start with f
and stay at indices >= f still covers every achievable size.  Chebyshev
distance is not translation invariant, so no such split is applied there and
exhaustion certifies optimality among codes through the fixed start; hitting
the metric's upper bound certifies global optimality for either metric.

A cyclic code closes at a closer, a state one allowed push before the start.
Counters only rise below a node, so once every closer the branch may close
at (push >= its first, under the split) is blocked, no code below the node
closes, and the search does not expand it: the node still counts and may
still close a code itself.  Only placing a state whose ball holds a closer
blocks one, so the closers' counters are read only after such placements,
and a branch is skipped outright when the start's ball blocks all of them.
Exhaustive searches keep their sizes and witnesses with fewer nodes, a
budgeted one spends the nodes saved on subtrees that can still close, and
open searches are left alone.

The branches, one per first transition, run in ascending order.  Branch f
of b may place ceil(remaining / (b - f)) nodes, remaining being the node
budget less what the earlier branches placed.  The search stops once a code
reaches the metric's upper bound: an equal-size code never replaces the first
one found, so the stop changes no size, witness or optimality verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .bounds import linf_upper, trivial_upper
from .code_model import GrayCode
from .perm_core import PUSH_MAPS, Perm, ball_maps, check_perm, form, identity

__all__ = ["SearchResult", "SearchSpec", "longest_snake"]

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
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        if not 2 <= self.n <= MAX_SEARCH_N:
            raise ValueError(f"search supports 2 <= n <= {MAX_SEARCH_N}, got {self.n}")
        if self.metric not in ("kendall", "linf"):
            raise ValueError(f"metric must be 'kendall' or 'linf', got {self.metric!r}")
        allowed = self.allowed_transitions
        if allowed is None:
            allowed = tuple(range(2, self.n + 1))
        for t in allowed:
            if type(t) is not int:
                raise ValueError(f"allowed_transitions must hold ints, got {t!r}")
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
        if self.node_budget is not None and type(self.node_budget) is not int:
            raise ValueError(f"node_budget must be an int, got {self.node_budget!r}")
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
    spec admitting no closure at all).  states is the size of the start's
    orbit under the allowed pushes, the states the search could reach.
    proven_optimal claims optimality among all codes over the allowed pushes
    under Kendall or at the metric's upper bound, but an exhausted Chebyshev
    search below the bound is optimal only among codes through the start."""

    best: Optional[GrayCode]
    size: int
    proven_optimal: bool
    nodes: int
    states: int


def _build_tables(spec: SearchSpec) -> tuple[
        list[Optional[tuple[int, ...]]], Callable[[int], tuple[int, ...]], list, list[int],
        list[int]]:
    """(balls, ball, moves, closing, closers) over the orbit of the start
    under the spec's sorted alphabet, state 0 being the start: ball(i) builds
    state i's closed radius-1 ball in the orbit (the start only in its own)
    into balls[i], None until then; moves[i] holds (t, push_top(t, ·)) of
    state i per t, closing[i] the push that returns it to the start, 0 if
    none, and closers the states with a closing push, in alphabet order."""
    alphabet, metric, kendall = spec.allowed_transitions, spec.metric, spec.metric == "kendall"
    # A state is its byte form (perm_core.form), which a push steps in C: a
    # value map on a Kendall form, three slices joined on a Chebyshev word.
    cuts = [itemgetter(slice(t - 1, t), slice(t - 1), slice(t, None)) for t in alphabet]
    # Breadth-first from the start: setdefault gives each state its number,
    # and a state reached for the first time the next one, len(index), which
    # numbers reads just before each call.  A level is a run of consecutive
    # numbers, so each column lists its push's moves in state order.
    index = {form(metric, spec.start): 0}
    numbers = iter(index.__len__, -1)
    columns: list[list[tuple[int, int]]] = [[] for _ in alphabet]
    level = list(index)
    while level:
        reached = len(index)
        for column, t, cut in zip(columns, alphabet, cuts):
            pushed = (map(bytes.translate, level, itertools.repeat(PUSH_MAPS[t])) if kendall
                      else map(b"".join, map(cut, level)))
            column += zip(itertools.repeat(t), map(index.setdefault, pushed, numbers))
        level = list(itertools.islice(index, reached, None))
    moves = list(zip(*columns))
    # A ball is a form translated by the metric's value maps.  filter(None, ·)
    # drops the members outside the orbit (get gives None), which the search
    # never places or looks up, and the start, 0, whose counter never reaches
    # zero anyway, as the start stays placed.  A Kendall neighbour has the
    # other parity, so no ball map is needed where every push is odd.
    odd_kendall = kendall and all(t % 2 for t in alphabet)
    forms, get, maps = list(index), index.get, () if odd_kendall else ball_maps(metric, spec.n)
    balls: list[Optional[tuple[int, ...]]] = [None] * len(forms)

    def ball(i: int) -> tuple[int, ...]:
        members = balls[i] = (i, *filter(None, map(get, map(forms[i].translate, maps))))
        return members
    # t pushes s[1:t] + s[:1] + s[t:] to s, and no other state; it is in the
    # orbit, because t applied t-1 times to s gives it.
    s = spec.start
    closers = [index[form(metric, s[1:t] + s[:1] + s[t:])] for t in alphabet]
    closing = [0] * len(forms)
    for t, c in zip(alphabet, closers):
        closing[c] = t
    return balls, ball, moves, closing, closers


def longest_snake(spec: SearchSpec) -> SearchResult:
    """Largest snake satisfying spec; deterministic.

    proven_optimal is True when every branch ran to exhaustion within budget
    or the best size equals the metric's upper bound.  Exhaustion certifies a
    global optimum under Kendall, and under Chebyshev only an optimum among
    codes through spec.start: n=5 pushes {2,5} gives 5 from the identity
    but 14 from (1,2,3,5,4), both exhaustive.
    """
    balls, ball, all_moves, closing, closers = _build_tables(spec)
    bound = trivial_upper(spec.n) if spec.metric == "kendall" else linf_upper(spec.n)
    cyclic, alphabet, budget = spec.cyclic, spec.allowed_transitions, spec.node_budget
    # A cyclic Kendall branch keeps to pushes >= its first (module docstring).
    split_on_min = spec.metric == "kendall" and cyclic
    # touches[s] is set where s's ball holds a closer: only placing such a
    # state blocks one, and s is in a closer's ball exactly when the closer
    # is in s's.  An open search closes nothing and leaves touches clear.
    touches = bytearray(len(balls))
    for c in closers if cyclic else ():
        for u in balls[c] or ball(c):
            touches[u] = 1
    # (size, transitions, with the closing push for cyclic codes) of the
    # largest code so far; a code replaces it only if larger
    best_size, best_trans = (0, None) if cyclic else (1, ())
    nodes = 0
    exhausted = True
    b = len(alphabet)
    for f in range(b):
        if best_size >= bound:
            break
        # an even share of what the earlier branches left
        limit = math.inf if budget is None else nodes + -(-(budget - nodes) // (b - f))
        # the branch pushes, and closes its code, only with least and above
        offset = f if split_on_min else 0
        least = alphabet[offset]
        floor = least if cyclic else 0
        moves = all_moves if offset == 0 else [mv[offset:] for mv in all_moves]
        blocked = [0] * len(balls)
        for u in balls[0] or ball(0):
            blocked[u] += 1
        # The counters of the closers the branch may close at, a tuple even
        # for one closer; a cyclic branch none of whose closers is free
        # cannot close anywhere.
        free_closers = itemgetter(*closers[offset:], closers[-1])
        if cyclic and 0 not in free_closers(blocked):
            continue
        # One entry (state, the push that reached it, the untried siblings)
        # per placed state; children iterates the top state's untried pushes.
        stack: list[tuple[int, int, Iterator[tuple[int, int]]]] = []
        children = iter(all_moves[0][f : f + 1])
        while True:
            for t, nxt in children:
                if not blocked[nxt]:
                    break
            else:
                if not stack:
                    break
                state, _, children = stack.pop()
                for u in balls[state]:
                    blocked[u] -= 1
                continue
            if nodes >= limit:
                exhausted = False
                break
            nodes += 1
            for u in balls[nxt] or ball(nxt):
                blocked[u] += 1
            stack.append((nxt, t, children))
            # the code through the placed states has len(stack) + 1 codewords
            if closing[nxt] >= floor and len(stack) >= best_size:
                best_size = len(stack) + 1
                best_trans = tuple(entry[1] for entry in stack)
                if cyclic:
                    best_trans += (closing[nxt],)
                if best_size >= bound:
                    break
            # Counters only rise below a node, so once no closer is free no
            # code below it closes: a cyclic search does not expand it.
            if touches[nxt] and 0 not in free_closers(blocked):
                children = iter(())
            else:
                children = iter(moves[nxt])

    code = None
    if best_trans is not None:
        code = GrayCode(n=spec.n, start=spec.start, transitions=best_trans, cyclic=cyclic)
    return SearchResult(
        best=code, size=best_size, proven_optimal=exhausted or best_size >= bound,
        nodes=nodes, states=len(balls),
    )
