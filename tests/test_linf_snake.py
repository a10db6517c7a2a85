"""Chebyshev-metric snakes built from parity blocks, plus their enumeration."""

import itertools

import pytest

from permsnake import linf_snake
from permsnake.code_model import expand, verify_snake
from permsnake.linf_snake import (
    MAX_LINF_N,
    MIN_LINF_N,
    VARIANTS,
    build_linf_snake,
    linf_size,
    rank_inf,
    successor_inf,
    unrank_inf,
)
from permsnake.perm_core import linf_distance, push_top


def test_build_block_two_element_example():
    # the n=4 snake opens with the block from (1, 2, 4, 3) over the evens 2, 4
    assert expand(build_linf_snake(4))[:3] == (
        (1, 2, 4, 3),
        (4, 1, 2, 3),
        (2, 4, 1, 3),
    )


def test_build_block_three_element_example():
    # the n=6 snake opens with the block from (1, 2, 4, 6, 3, 5)
    code = build_linf_snake(6)
    assert expand(code)[:5] == (
        (1, 2, 4, 6, 3, 5),
        (6, 1, 2, 4, 3, 5),
        (4, 6, 1, 2, 3, 5),
        (2, 4, 6, 1, 3, 5),
        (4, 2, 6, 1, 3, 5),
    )
    # block length is n_block + (n_block - 1)! = 3 + 2: pushes 1-4 stay in
    # the first 4 positions, the 5th moves an odd value to the next block
    assert max(code.transitions[:4]) <= 4 < code.transitions[4]


def test_sizes_both_variants():
    assert [linf_size(n) for n in range(4, 11)] == [6, 18, 30, 120, 240, 1200, 3480]
    assert [linf_size(n, "even-top") for n in range(4, 11)] == [
        6, 10, 30, 60, 240, 696, 3480,
    ]


@pytest.mark.parametrize("n", [3, 1])
def test_size_refuses_lengths_without_a_construction(n):
    with pytest.raises(ValueError, match=f"n must be >= 4, got {n}$"):
        linf_size(n)


def test_even_top_strictly_smaller_for_odd_n():
    for n in (5, 7, 9):
        assert linf_size(n, "even-top") < linf_size(n)
    for n in (4, 6, 8, 10):
        assert linf_size(n, "even-top") == linf_size(n)


def test_pinned_length_four_expansion():
    words = expand(build_linf_snake(4))
    assert words == (
        (1, 2, 4, 3),
        (4, 1, 2, 3),
        (2, 4, 1, 3),
        (3, 2, 4, 1),
        (4, 3, 2, 1),
        (2, 4, 3, 1),
    )


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", range(MIN_LINF_N, 8))
def test_codes_verify_with_min_distance_two(n, variant):
    code = build_linf_snake(n, variant)
    assert code.cyclic
    report = verify_snake(code, "linf")
    assert report.valid
    assert report.min_pairwise_distance == 2
    assert code.size == linf_size(n, variant)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_large_codes_already_verified_at_build_time(n):
    # build_linf_snake verifies internally; expanding is enough here
    code = build_linf_snake(n)
    assert len(set(expand(code))) == linf_size(n)


def test_consecutive_words_at_linf_distance_at_least_two():
    words = expand(build_linf_snake(6))
    M = len(words)
    for i in range(M):
        assert linf_distance(words[i], words[(i + 1) % M]) >= 2


def test_successor_example():
    assert successor_inf((1, 2, 4, 3)) == 3


@pytest.mark.parametrize("n", range(MIN_LINF_N, MAX_LINF_N + 1))
def test_successor_walks_the_whole_cycle(n):
    code = build_linf_snake(n)
    words = expand(code)
    M = len(words)
    for r, w in enumerate(words):
        t = successor_inf(w)
        assert t == code.transitions[r]
        assert push_top(t, w) == words[(r + 1) % M]


@pytest.mark.parametrize("n", range(MIN_LINF_N, MAX_LINF_N + 1))
def test_rank_and_unrank_are_mutually_inverse(n):
    words = expand(build_linf_snake(n))
    for r, w in enumerate(words):
        assert rank_inf(w) == r
        assert unrank_inf(n, r) == w


def test_rank_rejects_non_codewords():
    with pytest.raises(ValueError):
        rank_inf((2, 1, 3, 4))
    with pytest.raises(ValueError):
        rank_inf((1, 3, 2, 4))


def test_rank_refuses_a_word_outside_the_arrangement_table():
    # the values after position q map to the odd arrangement (2, 2, 3),
    # which no table of arrangements holds
    for f in (rank_inf, successor_inf):
        with pytest.raises(ValueError, match=r"^\(3, 1, 2, 4, 5\) is not a codeword "
                           "of the length-5 code$"):
            f((3, 1, 2, 4, 5))


@pytest.mark.parametrize("n", range(MIN_LINF_N, 9))
def test_rank_and_successor_reject_every_non_codeword(n):
    words = set(expand(build_linf_snake(n)))
    for p in itertools.permutations(range(1, n + 1)):
        if p not in words:
            with pytest.raises(ValueError, match="not a codeword"):
                rank_inf(p)
            with pytest.raises(ValueError, match="not a codeword"):
                successor_inf(p)


def test_rank_is_exact_without_unranking(monkeypatch):
    n = 10
    code = build_linf_snake(n)
    words = expand(code)

    def refuse(*args):
        raise AssertionError("rank_inf called unrank_inf")

    monkeypatch.setattr(linf_snake, "unrank_inf", refuse)
    for r, w in enumerate(words):
        assert rank_inf(w) == r
        assert successor_inf(w) == code.transitions[r]
        # swapping the values v and v+1 moves w by 1 in the Chebyshev metric
        for v in range(1, n):
            p = tuple(v + 1 if x == v else v if x == v + 1 else x for x in w)
            with pytest.raises(ValueError, match="not a codeword"):
                rank_inf(p)
            with pytest.raises(ValueError, match="not a codeword"):
                successor_inf(p)


def test_unrank_rejects_out_of_range():
    for k in (6, -1):
        with pytest.raises(ValueError, match=rf"^rank {k} out of range 0\.\.5$"):
            unrank_inf(4, k)
    with pytest.raises(ValueError, match=r"^rank 3480 out of range 0\.\.3479$"):
        unrank_inf(10, 3480)
    for n in (MIN_LINF_N - 1, MAX_LINF_N + 1):
        with pytest.raises(ValueError, match=rf"^n must be in 4\.\.10, got {n}$"):
            unrank_inf(n, 0)


@pytest.mark.parametrize("f", [rank_inf, successor_inf])
def test_rank_refuses_lengths_without_a_code(f):
    for sigma in ((2, 1, 3), tuple(range(1, MAX_LINF_N + 2))):
        with pytest.raises(ValueError, match=rf"^length must be in 4\.\.10, got {len(sigma)}$"):
            f(sigma)
    # a non-permutation is refused as such before its length is looked at
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.n"):
        f((1, 1, 2))


@pytest.mark.parametrize("f, out", [(rank_inf, 0), (successor_inf, 3)])
def test_rank_refuses_entries_that_only_equal_a_codeword(f, out):
    # (1, 2, 4, 3) is the rank-0 codeword, and True == 1, 2.0 == 2
    assert f((1, 2, 4, 3)) == out
    for sigma in ((True, 2, 4, 3), (1.0, 2.0, 4.0, 3.0)):
        with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.n"):
            f(sigma)


def test_block_boundaries_push_full_length():
    # the glue step leaving each block pushes from the far end of the word
    n = 6
    code = build_linf_snake(n)
    q = n // 2
    block = q + 2  # q rotations plus the inner two-element walk
    for b in range(code.size // block):
        glue = code.transitions[b * block + block - 1]
        assert glue >= n - 1


def test_rejects_out_of_range_length():
    with pytest.raises(ValueError):
        build_linf_snake(MIN_LINF_N - 1)
    with pytest.raises(ValueError):
        build_linf_snake(MAX_LINF_N + 1)
    with pytest.raises(ValueError):
        build_linf_snake(6, "sideways")
