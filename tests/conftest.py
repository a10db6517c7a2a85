import sys

import pytest

from permsnake.perm_core import Perm, check_perm


@pytest.fixture
def shallow_stack():
    """Run the test with a recursion limit of 200 frames, far below the
    lengths of the paths the search walks, so a search that recursed once
    per codeword would raise RecursionError."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _bfs_distance(n: int, alpha: Perm, beta: Perm) -> int:
    """Kendall distance from alpha to beta by breadth-first search over swaps
    of neighbouring entries, on plain tuples.

    Deliberately independent of the closed-form kendall_distance and of the
    radius-1 balls (perm_core.ball_maps), so each can be checked against it.
    Guarded to n <= 6.
    """
    if n > 6:
        raise ValueError("bfs_distance_oracle is capped at n <= 6")
    alpha = check_perm(alpha)
    beta = check_perm(beta)
    if len(alpha) != n or len(beta) != n:
        raise ValueError("permutation length does not match n")
    seen = {alpha}
    frontier = {alpha}
    d = 0
    while beta not in seen:  # the swaps connect all of S_n
        d += 1
        frontier = {
            p[:s] + (p[s + 1], p[s]) + p[s + 2 :] for p in frontier for s in range(n - 1)
        } - seen
        seen |= frontier
    return d


@pytest.fixture
def bfs_distance_oracle():
    """The test oracle for Kendall distance: bfs_distance_oracle(n, a, b)."""
    return _bfs_distance
