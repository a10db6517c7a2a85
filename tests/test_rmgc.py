"""Complete cyclic push-to-top codes covering all of S_n."""

import math

import pytest

from permsnake.code_model import _ranks, expand
from permsnake.perm_core import push_top
from permsnake.rmgc import MAX_RMGC_N, build_rmgc


def test_order_two_code():
    code = build_rmgc(2)
    assert code.start == (1, 2)
    assert code.transitions == (2, 2)
    assert expand(code) == ((1, 2), (2, 1))


def test_order_three_explicit_walk():
    code = build_rmgc(3)
    words = expand(code)
    assert len(words) == 6
    assert words[0] == (1, 2, 3)
    # every consecutive pair differs by the recorded push
    for k, t in enumerate(code.transitions[:-1]):
        assert push_top(t, words[k]) == words[k + 1]


@pytest.mark.parametrize("n", range(2, MAX_RMGC_N + 1))
def test_complete_cycle_through_all_permutations(n):
    code = build_rmgc(n)
    assert code.cyclic
    assert code.size == math.factorial(n)
    assert len(_ranks(code)) == math.factorial(n)
    assert code.start == tuple(range(1, n + 1))


@pytest.mark.parametrize("n", range(2, MAX_RMGC_N + 1))
def test_canonical_form_ends_with_smallest_push(n):
    assert build_rmgc(n).transitions[-1] == 2


def test_degenerate_order_one():
    code = build_rmgc(1)
    assert expand(code) == ((1,),)
    assert _ranks(code) == {(1,): 0}
    assert not code.cyclic
    assert code.transitions == ()


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_rmgc(0)
    with pytest.raises(ValueError):
        build_rmgc(MAX_RMGC_N + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rank_unrank_succ_round_trip(n):
    code = build_rmgc(n)
    ranks = _ranks(code)
    words = tuple(ranks)
    assert words == expand(code)
    for r, word in enumerate(words):
        assert ranks[word] == r
        # the successor is the push at the rank
        nxt = words[(r + 1) % len(words)]
        assert push_top(code.transitions[ranks[word]], word) == nxt


def test_rank_rejects_foreign_word():
    ranks = _ranks(build_rmgc(3))
    assert (1, 2, 4) not in ranks


@pytest.mark.parametrize("n", [4.0, True, "4", None])
def test_an_order_that_is_not_an_int_is_refused(n):
    # True == 1 would build the order-1 code
    with pytest.raises(ValueError) as info:
        build_rmgc(n)
    assert str(info.value) == f"n must be an int, got {n!r}"
