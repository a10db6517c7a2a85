"""Permutation primitives: pushes, sign, both metrics and their balls."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
