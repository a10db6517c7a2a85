"""End-to-end acceptance checks for the package's published guarantees.

Each test covers one numbered criterion and prints a single [PASS]/[FAIL]
line with its runtime (visible under ``pytest -s``).  Criteria 2, 7, 8 and
10 run the checks of `permsnake repro` (permsnake.repro.REPRO_CHECKS) and
name each one that fails.  The eleven criteria:

 1. Kendall construction sizes 3/45/1575/99225, under 1 s.
 2. Recorded degree-5 checkpoints land at their recorded ranks; the two
    pushes ending each segment, the second one the stitch, use t_3; the
    code verifies and its balance gap is at most 7.
 3. Kendall snakes verify exactly for N in {3,5,7,9}, minimum distance 2.
 4. Successor walks close and rank/unrank invert for N in {3,5,7}.
 5. Balance gap at most N+2 for N in {5,7,9}.
 6. Chebyshev construction sizes and validity for n in 4..10; enumeration
    round-trips for n in 4..7.
 7. The three recorded octal strings decode to valid cyclic snakes of
    sizes 6/30/90 and encode back to the same strings.
 8. The recorded (5,57) fixture is a valid cyclic Kendall snake inside the
    even permutations whose three absentees agree at coordinates 4 and 5,
    and it extends to a complete non-cyclic code on all 60, starting with
    t_3 t_3 t_5.
 9. Search reproduces the optima: 57 (Kendall, n=5, exhaustive, proven),
    6 (Chebyshev, n=4, proven), >= 30 at n=5, >= 90 at n=6 with pushes
    {5,6} under a node budget.
10. Bound and density values match their pinned constants (Chebyshev
    bound up to n=7; the 57 fixture within the trivial degree-5 bound).
11. Kendall distance equals breadth-first-search distance over adjacent
    transpositions, exhaustively for n <= 4 and on 10^4 random pairs at
    n = 5.
"""

import itertools
import random
import time

from permsnake.code_model import balance_gap, expand, verify_snake
from permsnake.ksnake import build_ksnake, ksnake_size, rank_k, successor_k, unrank_k
from permsnake.linf_snake import (
    build_linf_snake,
    linf_size,
    rank_inf,
    successor_inf,
    unrank_inf,
)
from permsnake.perm_core import kendall_distance, push_top
from permsnake.repro import REPRO_CHECKS
from permsnake.search import SearchSpec, longest_snake


def _report(num: int, label: str, ok: bool, elapsed: float, limit: float,
            failed: tuple[str, ...] = ()) -> None:
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{verdict}] criterion {num:2d}: {label} ({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"criterion {num} failed: {label}" + "".join(f"\n  FAIL {f}" for f in failed)
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def _repro(num: int, label: str, target: str) -> None:
    """A criterion made of the checks `permsnake repro <target>` runs."""
    t0 = time.perf_counter()
    failed = tuple(name for name, ok in REPRO_CHECKS[target]() if not ok)
    _report(num, label, not failed, time.perf_counter() - t0, 1.0, failed)


def test_criterion_01_construction_sizes():
    t0 = time.perf_counter()
    ok = True
    for N, want in ((3, 3), (5, 45), (7, 1575), (9, 99225)):
        ok = ok and ksnake_size(N) == want
        ok = ok and len(expand(build_ksnake(N))) == want
    _report(1, "kendall construction sizes", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_recorded_degree5_checkpoints():
    _repro(2, "recorded degree-5 checkpoints and t_3 stitches", "ksnake5")


def test_criterion_03_kendall_validity():
    t0 = time.perf_counter()
    ok = True
    for N in (3, 5, 7, 9):
        report = verify_snake(build_ksnake(N), "kendall")
        ok = ok and report.valid and report.min_pairwise_distance == 2
    _report(3, "kendall snakes valid, degree 9 included", ok,
            time.perf_counter() - t0, 60.0)


def test_criterion_04_kendall_round_trips():
    t0 = time.perf_counter()
    ok = True
    for N in (3, 5, 7):
        n = (N - 1) // 2
        code = build_ksnake(N)
        words = expand(code)
        M = len(words)
        for r, w in enumerate(words):
            t = successor_k(n, w)
            ok = ok and push_top(t, w) == words[(r + 1) % M]
            ok = ok and rank_k(w) == r and unrank_k(n, r) == w
            if not ok:
                break
    _report(4, "successor walks close; rank/unrank invert", ok,
            time.perf_counter() - t0, 30.0)


def test_criterion_05_balance():
    t0 = time.perf_counter()
    ok = all(balance_gap(build_ksnake(N)) <= N + 2 for N in (5, 7, 9))
    _report(5, "balance gap <= N+2", ok, time.perf_counter() - t0, 60.0)


def test_criterion_06_chebyshev_construction():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 11):
        code = build_linf_snake(n)
        ok = ok and code.size == linf_size(n)
        report = verify_snake(code, "linf")
        ok = ok and report.valid
    for n in range(4, 8):
        words = expand(build_linf_snake(n))
        M = len(words)
        for r, w in enumerate(words):
            ok = ok and push_top(successor_inf(w), w) == words[(r + 1) % M]
            ok = ok and rank_inf(w) == r and unrank_inf(n, r) == w
            if not ok:
                break
    _report(6, "chebyshev sizes, validity, and round-trips", ok,
            time.perf_counter() - t0, 60.0)


def test_criterion_07_recorded_octal_codes():
    _repro(7, "recorded octal codes decode to valid snakes", "octal")


def test_criterion_08_recorded_57_witness_and_completion():
    _repro(8, "57-codeword witness and completion to 60", "witness")


def test_criterion_09_search_reproduction():
    t0 = time.perf_counter()
    r_linf4 = longest_snake(SearchSpec(n=4, metric="linf"))
    ok = (r_linf4.size, r_linf4.proven_optimal) == (6, True)
    r_linf5 = longest_snake(SearchSpec(n=5, metric="linf"))
    ok = ok and r_linf5.size >= 30
    r_linf6 = longest_snake(
        SearchSpec(
            n=6, metric="linf", allowed_transitions=(5, 6), node_budget=1_000_000
        )
    )
    ok = ok and r_linf6.size >= 90
    linf_elapsed = time.perf_counter() - t0
    ok = ok and linf_elapsed < 60.0
    r_kendall5 = longest_snake(SearchSpec(n=5, metric="kendall"))
    ok = ok and (r_kendall5.size, r_kendall5.proven_optimal) == (57, True)
    _report(9, "search optima 6/30+/90+/57(proven)", ok,
            time.perf_counter() - t0, 1800.0)


def test_criterion_10_bounds_and_densities():
    _repro(10, "pinned bounds and densities", "bounds")


def test_criterion_11_metric_matches_bfs_oracle(bfs_distance_oracle):
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        perms = list(itertools.permutations(range(1, n + 1)))
        for a in perms:
            for b in perms:
                if kendall_distance(a, b) != bfs_distance_oracle(n, a, b):
                    ok = False
    rng = random.Random(20260814)
    perms5 = list(itertools.permutations(range(1, 6)))
    for _ in range(10_000):
        a = rng.choice(perms5)
        b = rng.choice(perms5)
        if kendall_distance(a, b) != bfs_distance_oracle(5, a, b):
            ok = False
    _report(11, "kendall distance equals BFS distance", ok,
            time.perf_counter() - t0, 60.0)
