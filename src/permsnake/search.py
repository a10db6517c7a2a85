"""Depth-first search for maximal snakes.

The search walks push-to-top extensions from a fixed start permutation with
an explicit stack.  Its tables, built once per call, cover the orbit of the
start under the allowed pushes and nothing else, because no code through the
start leaves it: the odd pushes t_3, t_5, ... reach at most the n!/2
permutations of the start's parity, and a single push t_k only k of them.
The orbit is found breadth-first on Kendall forms (perm_core.form) under
either metric, each push one value map applied in C, so the push graph is
the same for both metrics and every start.  A state's row lists its children
by ascending push, less a t_2 child inside the state's own radius-1 ball,
which is never legal.  A node is a state the search accepts as the next
codeword, and the node budget counts nodes.  Placing a node increments a
blocked-counter at every state of its closed ball, built the first time the
search places the state, so a child is free, a candidate node, exactly when
its counter is zero.  A Chebyshev ball map moves values and a push moves
places, so a push carries a ball onto the child's ball: the search builds a
Chebyshev ball from the ball of the placed parent it came from.

Before placing a node the search scans its row for a free child.  Placing it
moves no child's counter, as its children lie outside its ball, and each
subtree leaves the counters as it found them, so the scan reads what the
children's own turns would.  A node without a free child is a leaf: counted,
checked for closing a code, but never placed.  Any other node is placed, and
the search goes straight down to its first free child.  Children are tried
in ascending push order, which makes the first maximal code found the
lexicographically least witness and the whole search deterministic.

For cyclic Kendall searches the tree is additionally split on the minimum
push f in the cyclic push sequence: every cyclic snake can be rotated so a
least push comes first and translated back to the start (Kendall distance is
invariant under left translation), so each branch f explores only sequences
that start with f and stay at pushes >= f.  Chebyshev distance is not
translation invariant, so exhaustion there certifies optimality among codes
through the fixed start; reaching the metric's upper bound certifies global
optimality under either metric.

A cyclic code closes at a closer, a state one allowed push before the start.
Counters only rise below a node, so once every closer the branch may close
at is blocked, no code below the node closes, and the search does not expand
it: the node still counts and may close a code itself.  Only placing a state
whose ball holds a closer blocks one, so the closers' counters are read only
after such placements, and a branch is skipped when the start's ball blocks
all of them.  Open searches are left alone.

The branches, one per first push, run in ascending order.  Branch f of b may
count ceil(remaining / (b - f)) nodes, remaining being the node budget less
what the earlier branches counted.  The search stops once a code reaches the
metric's upper bound: an equal-size code never replaces the first one found,
so the stop changes no size, witness or optimality verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from operator import is_not, itemgetter
from typing import Callable, Iterator, Optional

from .bounds import linf_upper, trivial_upper
from .code_model import GrayCode
from .perm_core import PUSH_MAPS, Perm, _require_int, ball_maps, check_perm, form, identity

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
        _require_int("n", self.n)
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
        if self.node_budget is not None:
            _require_int("node_budget", self.node_budget)
            if self.node_budget < 1:
                raise ValueError(f"node_budget must be positive, got {self.node_budget}")
        elif self.n > MAX_EXHAUSTIVE_N:
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
        list[Optional[tuple[int, ...]]], Callable[..., tuple[int, ...]], list[list[int]],
        list[tuple[int, ...]], list[int], list[int]]:
    """(balls, ball, columns, rows, closing, closers) over the orbit of the
    start under the spec's sorted alphabet, state 0 being the start:
    ball(i, parent=None) builds state i's closed radius-1 ball in the orbit,
    state i first, into balls[i], None until then, where a Kendall ball lists
    the start only in its own; under Chebyshev, parent, a state with a push
    to i whose ball is built, gives the ball by that push; columns[j][i] is
    the child of state i by the j-th push; rows[i] lists state i's children
    by ascending push but a t_2 child inside state i's ball, never legal, as
    state i stays placed while its children are tried; closing[i] is the
    push that returns state i to the start, 0 if none, and closers the
    states with a closing push, in alphabet order.  The push graph, columns,
    closing and closers, depends only on n and the alphabet: the metric and
    the start enter only through the balls and the Chebyshev t_2 filter of
    the rows."""
    alphabet, kendall = spec.allowed_transitions, spec.metric == "kendall"
    # Breadth-first from the start on Kendall forms (perm_core.form), which a
    # push steps in C by one value map: setdefault gives each state its
    # number, and a state reached for the first time the next one,
    # len(index), which numbers reads just before each call.  A level is a
    # run of consecutive numbers, so each column lists its push's children in
    # state order.
    index = {form("kendall", spec.start): 0}
    numbers = iter(index.__len__, -1)
    columns: list[list[int]] = [[] for _ in alphabet]
    level = list(index)
    while level:
        reached = len(index)
        for column, t in zip(columns, alphabet):
            pushed = map(bytes.translate, level, itertools.repeat(PUSH_MAPS[t]))
            column += map(index.setdefault, pushed, numbers)
        level = list(itertools.islice(index, reached, None))
    forms, get = list(index), index.get
    # A push permutes the orbit, so exactly one state pushes to the start.
    closers = [column.index(0) for column in columns]
    closing = [0] * len(forms)
    for t, c in zip(alphabet, closers):
        closing[c] = t
    # t >= 3 moves a value t-1 >= 2 places; t_2 swaps the first two entries, a
    # neighbour under Kendall, and under Chebyshev if they are adjacent values.
    # Kendall t_2 alone reaches two states, and lists no child of either.
    rows = list(zip(*columns[kendall and alphabet[0] == 2:])) or [()] * len(forms)
    balls: list[Optional[tuple[int, ...]]] = [None] * len(forms)
    if kendall:
        # A Kendall ball is a form translated by the metric's value maps.
        # filter(None, ·) drops the members outside the orbit (get gives
        # None), which the search never places or looks up, and the start, 0,
        # whose counter never reaches zero anyway, as the start stays placed.
        # A Kendall neighbour has the other parity, so where every push is odd
        # a ball holds only its centre, and all are filled at once.
        if all(t % 2 for t in alphabet):
            balls = list(zip(range(len(forms))))
        maps = ball_maps("kendall", spec.n)

        def ball(i: int, parent: Optional[int] = None) -> tuple[int, ...]:
            members = balls[i] = (i, *filter(None, map(get, map(forms[i].translate, maps))))
            return members
        return balls, ball, columns, rows, closing, closers
    # The first two entries of a word are adjacent values when 1 and 2, their
    # places, are neighbouring entries of its form.
    children = rows
    if alphabet[0] == 2:
        rows = [row[abs(f.index(1) - f.index(2)) == 1:] for row, f in zip(children, forms)]
    # A Chebyshev ball map moves values of the word, so it moves places of the
    # form, and it is its own inverse, a product of disjoint swaps: a member's
    # form is the map's places (the map on 1..n) translated by the form as a
    # table.  filter(in_orbit, ·) drops the members outside the orbit but
    # keeps the start.  A push moves places of the word, so it commutes with
    # the ball maps: the column of the push from parent to i takes the
    # parent's ball, start included, onto i's.
    ident = bytes(range(1, spec.n + 1))
    places = tuple(map(ident.translate, ball_maps("linf", spec.n)))
    in_orbit = partial(is_not, None)

    def ball(i: int, parent: Optional[int] = None) -> tuple[int, ...]:
        if parent is None:
            moved = map(bytes.translate, places, itertools.repeat(bytes.maketrans(ident, forms[i])))
            members = (i, *filter(in_orbit, map(get, moved)))
        else:
            members = tuple(map(columns[children[parent].index(i)].__getitem__, balls[parent]))
        balls[i] = members
        return members
    return balls, ball, columns, rows, closing, closers


def longest_snake(spec: SearchSpec) -> SearchResult:
    """Largest snake satisfying spec; deterministic.

    proven_optimal is True when every branch ran to exhaustion within budget
    or the best size equals the metric's upper bound.  Exhaustion certifies a
    global optimum under Kendall, and under Chebyshev only an optimum among
    codes through spec.start: n=5 pushes {2,5} gives 5 from the identity
    but 14 from (1,2,3,5,4), both exhaustive.
    """
    balls, ball, columns, rows, closing, closers = _build_tables(spec)
    bound = trivial_upper(spec.n) if spec.metric == "kendall" else linf_upper(spec.n)
    cyclic, alphabet, budget = spec.cyclic, spec.allowed_transitions, spec.node_budget
    # A cyclic Kendall branch keeps to pushes >= its first (module docstring).
    split_on_min = spec.metric == "kendall" and cyclic
    skip = spec.metric == "kendall" and alphabet[0] == 2  # Kendall rows hold no t_2
    # touches[s] is set where s's ball holds a closer: only placing such a
    # state blocks one, and s is in a closer's ball exactly when the closer
    # is in s's.  An open search closes nothing and leaves touches clear.
    touches = bytearray(len(balls))
    for c in closers if cyclic else ():
        for u in balls[c] or ball(c):
            touches[u] = 1
    # (size, states after the start) of the largest code so far: only a larger one replaces it
    best_size, best_path = (0, None) if cyclic else (1, ())
    nodes, exhausted = 0, True
    b = len(alphabet)
    for f in range(b):
        if best_size >= bound:
            break
        # an even share of what the earlier branches left
        limit = math.inf if budget is None else nodes + -(-(budget - nodes) // (b - f))
        # the branch pushes, and closes its code, only with alphabet[offset] and above
        offset = f if split_on_min else 0
        floor = alphabet[offset] if cyclic else 0
        blocked = [0] * len(balls)
        for u in balls[0] or ball(0):
            blocked[u] += 1
        # The counters of the closers the branch may close at, a tuple even for
        # one; a cyclic branch none of whose closers is free closes nowhere.
        free_closers = itemgetter(*closers[offset:], closers[-1])
        if cyclic and 0 not in free_closers(blocked):
            continue
        moves = rows if offset <= skip else list(zip(*columns[offset:]))
        # One entry (state, its untried siblings) per placed state; children
        # iterates the top state's untried children (the start's: push f).
        stack: list[tuple[int, Iterator[int]]] = []
        children = iter((columns[f][0],))
        while best_size < bound:
            for nxt in children:
                if not blocked[nxt]:
                    break
            else:
                if not stack:
                    break
                state, children = stack.pop()
                for u in balls[state]:
                    blocked[u] -= 1
                continue
            # count nxt and go down through first free children to a leaf
            while nodes < limit:
                nodes += 1
                # the code through nxt has len(stack) + 2 codewords
                if closing[nxt] >= floor and len(stack) + 1 >= best_size:
                    best_size = len(stack) + 2
                    best_path = (*map(itemgetter(0), stack), nxt)
                    if best_size >= bound:
                        break
                # a node without a free child is a leaf and is never placed
                row = iter(moves[nxt])
                for child in row:
                    if not blocked[child]:
                        break
                else:
                    break
                # the parent, the top placed state or the start, has its ball
                for u in balls[nxt] or ball(nxt, stack[-1][0] if stack else 0):
                    blocked[u] += 1
                # Counters only rise below a node, so once no closer is free
                # no code below it closes: a cyclic search does not expand it.
                if touches[nxt] and 0 not in free_closers(blocked):
                    for u in balls[nxt]:
                        blocked[u] -= 1
                    break
                stack.append((nxt, children))
                nxt, children = child, row
            else:
                exhausted = False
                break

    code = None
    if best_path is not None:
        # a state's children differ, so the columns give back each push
        best_trans = tuple(next(t for t, column in zip(alphabet, columns) if column[u] == v)
                           for u, v in zip((0, *best_path), best_path))
        if cyclic:
            best_trans += (closing[best_path[-1]],)
        code = GrayCode(n=spec.n, start=spec.start, transitions=best_trans, cyclic=cyclic)
    return SearchResult(
        best=code, size=best_size, proven_optimal=exhausted or best_size >= bound,
        nodes=nodes, states=len(balls),
    )
