"""Complete cyclic push-to-top codes covering all of S_n."""

import math

import pytest

from permsnake.code_model import expand
from permsnake.perm_core import push_top
from permsnake.rmgc import (
    MAX_RMGC_N,
    build_rmgc,
    rmgc_rank,
    rmgc_unrank,
)


def test_order_two_code():
    table = build_rmgc(2)
    assert table.code.start == (1, 2)
    assert table.code.transitions == (2, 2)
    assert table.codewords == ((1, 2), (2, 1))


def test_order_three_explicit_walk():
    table = build_rmgc(3)
    words = expand(table.code)
    assert len(words) == 6
    assert words[0] == (1, 2, 3)
    # every consecutive pair differs by the recorded push
    for k, t in enumerate(table.code.transitions[:-1]):
        assert push_top(t, words[k]) == words[k + 1]


@pytest.mark.parametrize("n", range(2, MAX_RMGC_N + 1))
def test_complete_cycle_through_all_permutations(n):
    table = build_rmgc(n)
    assert table.code.cyclic
    assert len(table.codewords) == math.factorial(n)
    assert len(set(table.codewords)) == math.factorial(n)
    assert table.code.start == tuple(range(1, n + 1))


@pytest.mark.parametrize("n", range(2, MAX_RMGC_N + 1))
def test_canonical_form_ends_with_smallest_push(n):
    table = build_rmgc(n)
    assert table.code.transitions[-1] == 2


def test_degenerate_order_one():
    table = build_rmgc(1)
    assert table.codewords == ((1,),)
    assert not table.code.cyclic
    assert table.code.transitions == ()


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_rmgc(0)
    with pytest.raises(ValueError):
        build_rmgc(MAX_RMGC_N + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rank_unrank_succ_round_trip(n):
    table = build_rmgc(n)
    for r, word in enumerate(table.codewords):
        assert rmgc_rank(table, word) == r
        assert rmgc_unrank(table, r) == word
        # the successor is the push at the rank
        nxt = table.codewords[(r + 1) % len(table.codewords)]
        assert push_top(table.code.transitions[rmgc_rank(table, word)], word) == nxt


def test_rank_rejects_foreign_word():
    table = build_rmgc(3)
    with pytest.raises(ValueError):
        rmgc_rank(table, (1, 2, 4))
