"""Permutation primitives: pushes, sign, both metrics and their balls."""

import itertools
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsnake import perm_core
from permsnake.perm_core import (
    MAX_N,
    ball_maps,
    check_perm,
    distance_two_maps,
    form,
    format_perm,
    identity,
    kendall_distance,
    linf_distance,
    merge_maps,
    parse_perm,
    push_top,
    sign,
)

DISTANCE = {"kendall": kendall_distance, "linf": linf_distance}

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
)
perm_pairs = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.permutations(tuple(range(1, n + 1))).map(tuple),
        st.permutations(tuple(range(1, n + 1))).map(tuple),
    )
)


def test_identity_and_is_perm():
    assert identity(4) == (1, 2, 3, 4)
    assert check_perm((2, 1, 3)) == (2, 1, 3)
    for bad in ((1, 1, 2), (0, 1, 2), ()):
        with pytest.raises(ValueError):
            check_perm(bad)


@pytest.mark.parametrize("n", [0, MAX_N + 1])
def test_identity_refuses_a_length_out_of_range(n):
    with pytest.raises(ValueError, match=f"^n must be in 1..{MAX_N}, got {n}$"):
        identity(n)


@pytest.mark.parametrize("distance", [kendall_distance, linf_distance])
def test_distances_refuse_two_lengths(distance):
    with pytest.raises(ValueError, match="^permutations of different sizes$"):
        distance((1, 2), (1, 2, 3))


@pytest.mark.parametrize("bad", [(True, 2), (2, True), (1.0, 2.0, 4.0, 3.0), (1, "a", 3),
                                 (1, 2, None)])
def test_check_perm_refuses_entries_that_are_not_ints(bad):
    # True == 1 and 2.0 == 2, so only the type tells these from a permutation;
    # a str is refused with the same ValueError rather than a TypeError from sorting
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.n \(n <= 20\): "
                       + re.escape(repr(bad)) + "$"):
        check_perm(bad)


def test_push_top_examples():
    assert push_top(3, (1, 2, 3, 4)) == (3, 1, 2, 4)
    assert push_top(4, (3, 1, 2, 4)) == (4, 3, 1, 2)
    assert push_top(2, (1, 2)) == (2, 1)
    with pytest.raises(ValueError):
        push_top(1, (1, 2, 3))
    with pytest.raises(ValueError):
        push_top(4, (1, 2, 3))


@given(perms)
def test_sign_multiplicative_with_push_top(p):
    n = len(p)
    for i in range(2, n + 1):
        assert sign(push_top(i, p)) == sign(p) * (-1) ** (i - 1)


def test_kendall_frozen_values():
    assert kendall_distance((2, 1, 4, 3), (2, 4, 3, 1)) == 2
    assert kendall_distance((1, 2, 3), (1, 2, 3)) == 0
    assert kendall_distance((1, 2, 3), (3, 2, 1)) == 3
    assert kendall_distance((1, 2, 3, 4), (4, 3, 2, 1)) == 6


def test_linf_frozen_values():
    assert linf_distance((1, 2, 3, 4), (4, 1, 2, 3)) == 3
    assert linf_distance((2, 1, 4, 3), (2, 4, 3, 1)) == 3
    assert linf_distance((1, 2, 3, 4), (2, 1, 4, 3)) == 1
    assert linf_distance((1, 2), (1, 2)) == 0


@given(perm_pairs)
def test_metrics_are_symmetric_and_zero_iff_equal(pair):
    a, b = pair
    for d in (kendall_distance, linf_distance):
        assert d(a, b) == d(b, a)
        assert (d(a, b) == 0) == (a == b)


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            *(st.permutations(tuple(range(1, n + 1))).map(tuple) for _ in range(3))
        )
    )
)
def test_metrics_satisfy_triangle_inequality(triple):
    a, b, c = triple
    for d in (kendall_distance, linf_distance):
        assert d(a, c) <= d(a, b) + d(b, c)


@given(perm_pairs)
def test_kendall_is_left_invariant(pair):
    a, b = pair
    n = len(a)
    g = tuple(range(n, 0, -1))
    ga = tuple(g[v - 1] for v in a)  # i -> g(a(i))
    gb = tuple(g[v - 1] for v in b)
    assert kendall_distance(ga, gb) == kendall_distance(a, b)


@given(perm_pairs)
def test_linf_is_right_invariant(pair):
    a, b = pair
    n = len(a)
    g = tuple(range(n, 0, -1))
    ag = tuple(a[v - 1] for v in g)  # i -> a(g(i))
    bg = tuple(b[v - 1] for v in g)
    assert linf_distance(ag, bg) == linf_distance(a, b)


@given(perms)
def test_parse_format_round_trip(p):
    assert parse_perm(format_perm(p)) == p


def test_parse_perm_rejections():
    with pytest.raises(ValueError):
        parse_perm("[1,1,2]")
    with pytest.raises(ValueError):
        parse_perm("[0,1]")
    with pytest.raises(ValueError):
        parse_perm("nonsense")
    with pytest.raises(ValueError):
        parse_perm(format_perm(tuple(range(1, MAX_N + 2))))
    with pytest.raises(ValueError, match="^empty permutation$"):
        parse_perm("[]")
    with pytest.raises(ValueError, match=r"^permutation entries must be integers: '\[1,a\]'$"):
        parse_perm("[1,a]")


@given(perm_pairs)
def test_kendall_counts_discordant_value_pairs(pair):
    a, b = pair
    n = len(a)
    pos_a = {v: i for i, v in enumerate(a)}
    pos_b = {v: i for i, v in enumerate(b)}
    disc = 0
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (pos_a[u] < pos_a[v]) != (pos_b[u] < pos_b[v]):
                disc += 1
    assert kendall_distance(a, b) == disc


@pytest.mark.parametrize("metric", ["kendall", "linf"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_balls_match_the_metric_exhaustively(metric, n):
    group = list(itertools.permutations(range(1, n + 1)))
    assert len({form(metric, p) for p in group}) == len(group)
    dist = DISTANCE[metric]
    maps = ball_maps(metric, n)
    for p in group:
        f = form(metric, p)
        near = {form(metric, q): d for q in group if (d := dist(p, q)) <= 2}
        neighbours = [f.translate(m) for m in maps]
        assert len(set(neighbours)) == len(neighbours)
        assert set(neighbours) == {k for k, d in near.items() if d == 1}
        within = {f.translate(m) for m in distance_two_maps(metric, n)}
        assert within <= near.keys()
        assert {k for k, d in near.items() if d == 2} <= within


def test_ball_sizes_at_largest_n():
    assert len(ball_maps("kendall", MAX_N)) == MAX_N - 1
    assert len(ball_maps("linf", MAX_N)) == 10945  # Fibonacci(21) - 1
    assert len(ball_maps("linf", 10)) == 88


def test_linf_distance_two_maps_are_lazy_at_largest_n():
    # 10,412,815 maps in all: the first few must come without the rest
    p = tuple(range(MAX_N, 0, -1))
    f = form("linf", p)
    first = [f.translate(m) for m in itertools.islice(distance_two_maps("linf", MAX_N), 5)]
    assert len(set(first)) == 5
    assert all(linf_distance(p, tuple(g)) == 2 for g in first)


@pytest.mark.parametrize("n", range(3, 11))
def test_linf_distance_two_maps_are_drawn_once_in_order(n):
    fresh = list(perm_core._moving(n, 2))
    distance_two_maps.cache_clear()
    assert list(distance_two_maps("linf", n)) == fresh
    assert list(distance_two_maps("linf", n)) == fresh
    distance_two_maps.cache_clear()
    # two passes at once, leapfrogging: each reads the map the other drew
    # last, then draws one more
    one, two = iter(distance_two_maps("linf", n)), iter(distance_two_maps("linf", n))
    seen = ([next(one)], [])
    for _ in range(len(fresh)):
        for it, got in ((two, seen[1]), (one, seen[0])):
            got.extend(itertools.islice(it, 2))
    assert seen == (fresh, fresh)


def test_linf_distance_two_maps_are_drawn_in_order_under_threads():
    fresh = list(perm_core._moving(8, 2))
    distance_two_maps.cache_clear()
    seen = [None] * 4

    def take(k):
        seen[k] = list(distance_two_maps("linf", 8))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=take, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [fresh] * 4


def test_linf_distance_two_maps_draw_only_what_is_taken():
    distance_two_maps.cache_clear()
    taken = list(itertools.islice(distance_two_maps("linf", MAX_N), 5))
    assert distance_two_maps("linf", MAX_N)._kept == taken
    assert taken == list(itertools.islice(perm_core._moving(MAX_N, 2), 5))


def test_merge_maps_counts_follow_padovan():
    assert [len(merge_maps(n)) for n in range(1, MAX_N + 1)] == [
        1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 49, 65, 86, 114, 151, 200
    ]


@pytest.mark.parametrize("n", range(1, 13))
def test_merge_maps_are_the_maximal_matchings_of_the_path(n):
    # each table sends u+1 to u for disjoint pairs (u, u+1) and fixes every
    # other byte; the pairs of all tables are every maximal matching once
    found = []
    for m in merge_maps(n):
        moved = [v for v in range(256) if m[v] != v]
        assert all(2 <= v <= n and m[v] == v - 1 for v in moved)
        lows = [v - 1 for v in moved]
        assert all(b - a >= 2 for a, b in zip(lows, lows[1:]))
        found.append(tuple(lows))
    edges = range(1, n)
    maximal = []
    for size in range(n // 2 + 1):
        for lows in itertools.combinations(edges, size):
            if any(b - a < 2 for a, b in zip(lows, lows[1:])):
                continue
            covered = {v for u in lows for v in (u, u + 1)}
            if all(u in covered or u + 1 in covered for u in edges):
                maximal.append(lows)
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(maximal)


@pytest.mark.parametrize("n", range(1, 8))
def test_merge_maps_tell_chebyshev_distance_one(n):
    # both relations keep when the positions of a pair are permuted alike,
    # so every pair is met as (identity, b); n <= 5 also walks every pair
    tables = merge_maps(n)

    def agree(a, b):
        fa, fb = form("linf", a), form("linf", b)
        return any(fa.translate(m) == fb.translate(m) for m in tables)

    group = list(itertools.permutations(range(1, n + 1)))
    ident = group[0]
    for b in group:
        assert agree(ident, b) == (linf_distance(ident, b) <= 1)
    if n <= 5:
        for a, b in itertools.product(group, repeat=2):
            assert agree(a, b) == (linf_distance(a, b) <= 1)


def test_kendall_distance_two_maps_are_one_cached_tuple():
    for n in (2, 5, 9):
        maps = distance_two_maps("kendall", n)
        assert isinstance(maps, tuple) and distance_two_maps("kendall", n) is maps
        ball = ball_maps("kendall", n)
        assert maps == tuple(dict.fromkeys(a.translate(b) for a in ball for b in ball if a != b))
