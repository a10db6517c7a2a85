"""Kendall snake construction on odd lengths, with successor/rank/unrank."""

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

import permsnake
from permsnake import ksnake
from permsnake.code_model import balance_gap, expand, verify_snake
from permsnake import RECORDED_K5_CHECKPOINTS
from permsnake.ksnake import (
    MAX_KSNAKE_N,
    build_ksnake,
    ksnake_size,
    rank_k,
    successor_k,
    unrank_k,
)
from permsnake.perm_core import push_top, sign


def test_sizes():
    assert [ksnake_size(N) for N in (3, 5, 7, 9)] == [3, 45, 1575, 99225]


def test_size_recursion():
    for N in (5, 7, 9):
        assert ksnake_size(N) == N * (N - 2) * ksnake_size(N - 2)


def test_degree_three_code_exactly():
    code = build_ksnake(3)
    assert code.cyclic
    assert expand(code) == ((1, 2, 3), (3, 1, 2), (2, 3, 1))
    assert code.transitions == (3, 3, 3)


def test_recorded_degree_five_checkpoints():
    words = expand(build_ksnake(5))
    for r, perm in RECORDED_K5_CHECKPOINTS:
        assert words[r] == perm, f"rank {r}"


def test_degree_five_column_stitches_use_t3():
    code = build_ksnake(5)
    for k in range(3):
        assert code.transitions[15 * k + 13] == 3
        assert code.transitions[15 * k + 14] == 3


@pytest.mark.parametrize("N", [3, 5, 7])
def test_valid_snake_with_min_distance_two(N):
    report = verify_snake(build_ksnake(N), "kendall")
    assert report.valid
    assert report.min_pairwise_distance == 2


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_all_transitions_odd_all_words_even(N):
    code = build_ksnake(N)
    assert all(t % 2 == 1 for t in code.transitions)
    words = expand(code)
    assert len(set(words)) == ksnake_size(N)
    assert all(sign(w) == 1 for w in words)


@pytest.mark.parametrize("N", [3, 5, 7])
def test_codeword_set_closed_under_rotation(N):
    words = set(expand(build_ksnake(N)))
    rotated = {w[-1:] + w[:-1] for w in words}
    assert rotated == words
    # each necklace contributes all N of its rotations
    necklaces = {min(w[i:] + w[:i] for i in range(N)) for w in words}
    assert len(necklaces) == len(words) // N


def test_successor_examples():
    assert successor_k(1, (1, 2, 3)) == 3
    assert successor_k(2, (5, 3, 1, 2, 4)) == 5
    assert successor_k(2, (3, 1, 2, 4, 5)) == 3


def test_successor_checks_the_length_before_ranking():
    with pytest.raises(ValueError, match="order n = 2 needs a permutation of length 5, "
                       "got length 3"):
        successor_k(2, (1, 2, 3))
    # a degree-5 codeword is refused at order 1 for its length
    with pytest.raises(ValueError, match="length 3, got length 5"):
        successor_k(1, (5, 3, 1, 2, 4))


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_successor_walks_the_whole_cycle(N):
    n = (N - 1) // 2
    code = build_ksnake(N)
    words = expand(code)
    M = len(words)
    for r, w in enumerate(words):
        t = successor_k(n, w)
        assert t == code.transitions[r]
        assert push_top(t, w) == words[(r + 1) % M]


@pytest.mark.parametrize("N", [11, 13, 19])
def test_successor_steps_to_the_next_rank_past_the_build_cap(N):
    # past MAX_KSNAKE_N no transition list exists to read; the recursion
    # stops at degree 9, so the samples take in the wrap and the edges of
    # the first segments and of their subcode blocks
    n, size, M = (N - 1) // 2, ksnake_size(N), ksnake_size(N - 2)
    rng = random.Random(N)
    ranks = rng.sample(range(size), 200) + [size - 1] + [
        j * N * M + d for j in range(3) for d in (0, N - 3, N - 2, N * M - 2, N * M - 1)
    ]
    for k in ranks:
        w = unrank_k(n, k)
        assert push_top(successor_k(n, w), w) == unrank_k(n, (k + 1) % size)


# Codewords and their pushes past MAX_KSNAKE_N at the edges of the first
# segment, the start of the second, one rank inside and the last rank.
PINNED_ABOVE_CAP = {
    11: {
        0: ((11, 3, 1, 2, 4, 5, 6, 7, 8, 9, 10), 11),
        1: ((10, 11, 3, 1, 2, 4, 5, 6, 7, 8, 9), 11),
        8: ((2, 4, 5, 6, 7, 8, 9, 10, 11, 3, 1), 11),
        9: ((1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 3), 7),
        1091473: ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 3),
        1091474: ((3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11), 3),
        1091475: ((2, 3, 1, 4, 5, 6, 7, 8, 9, 10, 11), 11),
        3274425: ((5, 3, 1, 6, 7, 8, 9, 10, 11, 2, 4), 11),
        9823274: ((3, 1, 11, 2, 4, 5, 6, 7, 8, 9, 10), 3),
    },
    13: {
        0: ((13, 3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12), 13),
        1: ((12, 13, 3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11), 13),
        10: ((2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 3, 1), 13),
        11: ((1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 3), 7),
        127702573: ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), 3),
        127702574: ((3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), 3),
        127702575: ((2, 3, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), 13),
        468242775: ((10, 3, 1, 6, 7, 11, 12, 13, 2, 4, 5, 8, 9), 13),
        1404728324: ((3, 1, 13, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12), 3),
    },
    19: {
        0: ((19, 3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18), 19),
        1: ((18, 19, 3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17), 19),
        16: ((2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 3, 1), 19),
        17: ((1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 3), 11),
        1327152203251873: ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19), 3),
        1327152203251874: ((3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19), 3),
        1327152203251875: ((2, 3, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19), 19),
        7520529151760625: ((14, 3, 1, 8, 9, 15, 16, 17, 18, 19, 2, 4, 5, 6, 7, 10, 11, 12, 13), 19),
        22561587455281874: ((3, 1, 19, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18), 3),
    },
}


@pytest.mark.parametrize("N", sorted(PINNED_ABOVE_CAP))
def test_enumeration_past_the_build_cap_is_pinned(N):
    n = (N - 1) // 2
    for k, (word, push) in PINNED_ABOVE_CAP[N].items():
        assert unrank_k(n, k) == word
        assert rank_k(word) == k
        assert successor_k(n, word) == push


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_rank_and_unrank_are_mutually_inverse(N):
    n = (N - 1) // 2
    words = expand(build_ksnake(N))
    for r, w in enumerate(words):
        assert rank_k(w) == r
        assert unrank_k(n, r) == w


def test_rank_frozen_value():
    assert rank_k((3, 1, 2, 4, 5)) == 14
    assert expand(build_ksnake(5)).index((3, 1, 2, 4, 5)) == 14


def test_rank_rejects_non_codewords():
    # odd permutation, can never be in the code
    with pytest.raises(ValueError):
        rank_k((2, 1, 3, 4, 5))
    # even permutation outside the code
    outside = []
    words = set(expand(build_ksnake(5)))
    for p in itertools.permutations(range(1, 6)):
        if sign(p) == 1 and p not in words:
            outside.append(p)
    assert len(outside) == 15
    for p in outside[:3]:
        with pytest.raises(ValueError):
            rank_k(p)


def test_unrank_rejects_out_of_range_rank():
    with pytest.raises(ValueError):
        unrank_k(2, 45)
    with pytest.raises(ValueError):
        unrank_k(2, -1)


def test_unrank_stops_at_the_length_cap():
    # N = 19 is the largest odd degree within MAX_N = 20; rank_k refuses
    # every longer word, so unrank_k must not produce one.
    assert rank_k(unrank_k(9, 5)) == 5
    with pytest.raises(ValueError, match="degree N = 21 is over the permutation length cap 20"):
        unrank_k(10, 5)


def test_balance_gap_stays_small():
    for N in (3, 5, 7):
        assert balance_gap(build_ksnake(N)) <= N + 2


def test_rejects_bad_degree():
    with pytest.raises(ValueError):
        build_ksnake(4)
    with pytest.raises(ValueError):
        build_ksnake(MAX_KSNAKE_N + 2)
    with pytest.raises(ValueError):
        build_ksnake(1)


@pytest.mark.parametrize("N", [3, 5, 7])
def test_rank_is_exact_on_the_whole_symmetric_group(N):
    # successor_k is the push at the rank, so it refuses the same words
    n = (N - 1) // 2
    ranks = {w: r for r, w in enumerate(expand(build_ksnake(N)))}
    for p in itertools.permutations(range(1, N + 1)):
        if p in ranks:
            assert rank_k(p) == ranks[p]
            assert unrank_k(n, ranks[p]) == p
        else:
            with pytest.raises(ValueError, match="not a codeword"):
                rank_k(p)
            with pytest.raises(ValueError, match="not a codeword"):
                successor_k(n, p)


def _adjacent_swaps(w):
    for i in range(len(w) - 1):
        yield w[:i] + (w[i + 1], w[i]) + w[i + 2 :]


def test_rank_refuses_adjacent_swaps_of_degree_nine_codewords():
    # Degree 9 is the largest degree ranked from a table.  An adjacent swap
    # flips the sign, so no neighbour is a codeword.
    rng = random.Random(9)
    for k in rng.sample(range(ksnake_size(9)), 2000):
        for p in _adjacent_swaps(unrank_k(4, k)):
            with pytest.raises(ValueError, match="not a codeword"):
                rank_k(p)
            with pytest.raises(ValueError, match="not a codeword"):
                successor_k(4, p)


def _rank_or_none(p):
    try:
        return rank_k(p)
    except ValueError:
        return None


def test_rank_is_exact_on_random_degree_nine_permutations():
    ranks = {w: r for r, w in enumerate(expand(build_ksnake(9)))}
    rng = random.Random(99)
    for _ in range(20000):
        p = tuple(rng.sample(range(1, 10), 9))
        assert _rank_or_none(p) == ranks.get(p)
        if p not in ranks:
            with pytest.raises(ValueError, match="not a codeword"):
                successor_k(4, p)


def test_rank_on_random_degree_eleven_permutations():
    # No degree-11 code is built, so an accepted word must unrank back to
    # itself and step to the next rank, and an odd word is always refused.
    n, size = 5, ksnake_size(11)
    rng = random.Random(1111)
    accepted = 0
    for _ in range(20000):
        p = tuple(rng.sample(range(1, 12), 11))
        r = _rank_or_none(p)
        if r is None:
            with pytest.raises(ValueError, match="not a codeword"):
                successor_k(n, p)
            continue
        accepted += 1
        assert sign(p) == 1
        assert unrank_k(n, r) == p
        assert push_top(successor_k(n, p), p) == unrank_k(n, (r + 1) % size)
    assert accepted > 0


def test_cli_import_builds_no_rank_table():
    probe = (
        "import permsnake.cli, permsnake.ksnake as k, permsnake.linf_snake as l; "
        "print(k._layout.cache_info().currsize, l._index.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(Path(permsnake.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 0"


def _refusal(f, *args):
    with pytest.raises(ValueError) as info:
        f(*args)
    return str(info.value)


@pytest.mark.parametrize("N", [3, 9, 11])
def test_rank_refuses_entries_that_only_equal_a_codeword(N):
    # True == 1 and 2.0 == 2, so each word below equals a codeword entry by
    # entry; the lookup hits, and the entry types refuse it
    n = (N - 1) // 2
    w = unrank_k(n, 2)
    assert rank_k(w) == 2
    i = w.index(1)
    for word in (w[:i] + (True,) + w[i + 1 :], w[:-1] + (float(w[-1]),), tuple(map(float, w))):
        message = _refusal(rank_k, word)
        assert message == f"not a permutation of 1..n (n <= 20): {word!r}"
        assert _refusal(successor_k, n, word) == message


def test_rank_refuses_a_degree_21_word_the_recursion_would_accept():
    # one rotation class of the degree-21 code, lifted from a degree-19
    # codeword: the recursion ranks it, and the length cap refuses it
    from permsnake.ksnake import _rank_k, _value_maps

    up = _value_maps(10, 0)[1]
    word = (1, 2) + tuple(up[v] for v in reversed(unrank_k(9, 5)))
    assert sorted(word) == list(range(1, 22))
    assert isinstance(_rank_k(bytes(word)), int)
    assert _refusal(rank_k, word) == f"not a permutation of 1..n (n <= 20): {word!r}"


@pytest.mark.parametrize("N", [3, 5, 9, 11])
def test_successor_refuses_exactly_the_words_rank_refuses(N):
    n = (N - 1) // 2
    w = unrank_k(n, 1)
    # -1 stands where N was: an index -1 into a value table would read N's entry
    bad = [w[:-1] + (N + 1,), tuple(-1 if v == N else v for v in w), w[:-1] + (300,),
           w[:-1] + (None,), w[:-1] + ([1],), w[:-1] + w[:1]]
    rng = random.Random(N)
    words = [w, list(w), w[::-1], *_adjacent_swaps(w)]
    words += [tuple(rng.sample(range(1, N + 1), N)) for _ in range(200)]
    for word in bad + words:
        try:
            r = rank_k(word)
        except ValueError as e:
            assert _refusal(successor_k, n, word) == str(e)
        else:
            assert word not in bad
            step = push_top(successor_k(n, word), tuple(word))
            assert step == unrank_k(n, (r + 1) % ksnake_size(N))


@pytest.mark.parametrize("k", [1.0, True, False, "1", None])
def test_unrank_refuses_a_rank_that_is_not_an_int(k):
    assert _refusal(unrank_k, 2, k) == f"rank must be an int, got {k!r}"


@pytest.mark.parametrize("n", [2.0, True, False, "2", None])
def test_an_order_that_is_not_an_int_is_refused_before_any_table(monkeypatch, n):
    def no_table(*args):
        raise AssertionError("a table was read")

    for name in ("_layout", "build_ksnake", "ksnake_size"):
        monkeypatch.setattr(ksnake, name, no_table)
    text = f"order n must be an int, got {n!r}"
    assert _refusal(unrank_k, n, 0) == text
    assert _refusal(successor_k, n, (5, 3, 1, 2, 4)) == text
    assert _refusal(successor_k, n, (1, 2, 3)) == text


@pytest.mark.parametrize("N", [5.0, True, "5", None])
def test_a_degree_that_is_not_an_int_is_refused(N):
    for build in (build_ksnake, ksnake_size):
        assert _refusal(build, N) == f"N must be an int, got {N!r}"
