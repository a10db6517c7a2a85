"""End-to-end acceptance checks for the package's published guarantees.

Each test covers one numbered criterion and prints a single [PASS]/[FAIL]
line with its runtime (visible under ``pytest -s``).  The eleven criteria:

 1. Kendall construction sizes 3/45/1575/99225, under 1 s.
 2. Recorded degree-5 checkpoints land at their recorded ranks; column
    stitches use t_3.
 3. Kendall snakes verify exactly for N in {3,5,7,9}, minimum distance 2.
 4. Successor walks close and rank/unrank invert for N in {3,5,7}.
 5. Balance gap at most N+2 for N in {5,7,9}.
 6. Chebyshev construction sizes and validity for n in 4..10; enumeration
    round-trips for n in 4..7.
 7. The three recorded octal strings decode to valid cyclic snakes of
    sizes 6/30/90.
 8. The recorded (5,57) fixture is a valid cyclic Kendall snake inside the
    even permutations whose three absentees agree at coordinates 4 and 5,
    and it extends to a complete non-cyclic code on all 60.
 9. Search reproduces the optima: 57 (Kendall, n=5, exhaustive, proven),
    6 (Chebyshev, n=4, proven), >= 30 at n=5, >= 90 at n=6 with pushes
    {5,6} under a node budget.
10. Bound and density values match their pinned constants.
11. Kendall distance equals breadth-first-search distance over adjacent
    transpositions, exhaustively for n <= 4 and on 10^4 random pairs at
    n = 5.
"""

import itertools
import random
import time

from permsnake.bounds import even_push_upper, ksnake_density, linf_upper
from permsnake.code_model import (
    balance_gap,
    bfs_distance_oracle,
    expand,
    verify_snake,
)
from permsnake.ksnake import (
    RECORDED_K5_CHECKPOINTS,
    build_ksnake,
    ksnake_size,
    rank_k,
    successor_k,
    unrank_k,
)
from permsnake.linf_snake import (
    build_linf_snake,
    linf_size,
    rank_inf,
    successor_inf,
    unrank_inf,
)
from permsnake.perm_core import kendall_distance, push_top, sign
from permsnake.search import (
    RECORDED_OCTAL_CODES,
    SearchSpec,
    extend_to_complete,
    k5_witness_code,
    longest_snake,
    recorded_octal_code,
)

from fractions import Fraction


def _report(num: int, label: str, ok: bool, elapsed: float, limit: float) -> None:
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{verdict}] criterion {num:2d}: {label} ({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def test_criterion_01_construction_sizes():
    t0 = time.perf_counter()
    ok = True
    for N, want in ((3, 3), (5, 45), (7, 1575), (9, 99225)):
        ok = ok and ksnake_size(N) == want
        ok = ok and len(expand(build_ksnake(N))) == want
    _report(1, "kendall construction sizes", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_recorded_degree5_checkpoints():
    t0 = time.perf_counter()
    code = build_ksnake(5)
    words = expand(code)
    ok = all(words[r] == perm for r, perm in RECORDED_K5_CHECKPOINTS)
    ok = ok and all(
        code.transitions[15 * c + 13] == 3 and code.transitions[15 * c + 14] == 3
        for c in range(3)
    )
    _report(2, "recorded degree-5 checkpoints and t_3 stitches", ok,
            time.perf_counter() - t0, 1.0)


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
    t0 = time.perf_counter()
    ok = True
    for n, want in ((4, 6), (5, 30), (6, 90)):
        code = recorded_octal_code(n)
        ok = ok and code.cyclic and code.size == want
        ok = ok and verify_snake(code, "linf").valid
    ok = ok and set(RECORDED_OCTAL_CODES) == {4, 5, 6}
    _report(7, "recorded octal codes decode to valid snakes", ok,
            time.perf_counter() - t0, 1.0)


def test_criterion_08_recorded_57_witness_and_completion():
    t0 = time.perf_counter()
    code = k5_witness_code()
    words = expand(code)
    ok = code.cyclic and len(set(words)) == 57
    ok = ok and all(sign(w) == 1 for w in words)
    ok = ok and verify_snake(code, "kendall").valid
    evens = {p for p in itertools.permutations(range(1, 6)) if sign(p) == 1}
    complement = sorted(evens - set(words))
    ok = ok and len(complement) == 3
    ok = ok and len({w[3] for w in complement}) == 1
    ok = ok and len({w[4] for w in complement}) == 1
    extended = extend_to_complete(code)
    ew = expand(extended)
    ok = ok and not extended.cyclic and len(ew) == 60 and set(ew) == evens
    _report(8, "57-codeword witness and completion to 60", ok,
            time.perf_counter() - t0, 1.0)


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
    t0 = time.perf_counter()
    ok = (even_push_upper(5), even_push_upper(7), even_push_upper(9)) == (
        60, 2519, 181439,
    )
    ok = ok and tuple(linf_upper(n) for n in (4, 5, 6)) == (6, 30, 90)
    ok = ok and ksnake_density(3) == Fraction(1, 2)
    ok = ok and ksnake_density(5) == Fraction(3, 8)
    ok = ok and all(
        ksnake_density(2 * n + 1) / ksnake_density(2 * n - 1)
        == Fraction(2 * n - 1, 2 * n)
        for n in range(2, 10)
    )
    _report(10, "pinned bounds and densities", ok, time.perf_counter() - t0, 1.0)


def test_criterion_11_metric_matches_bfs_oracle():
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
