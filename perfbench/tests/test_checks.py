"""Each checker of the benchmark must reject a wrong answer.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import checks  # noqa: E402

# The recorded 57-codeword cyclic Kendall snake on S_5, from the identity.
K5_SEGMENT = (3, 3, 5, 3, 3, 5, 3, 5, 5, 3, 3, 5, 3, 3, 5, 3, 5, 5, 5)
K5 = checks.walk(tuple(range(1, 6)), K5_SEGMENT * 3, cyclic=True)
# The recorded octal Chebyshev snake for n=4: transitions 3,4,3,3,4,3.
L4_TRANSITIONS = (3, 4, 3, 3, 4, 3)
L4 = checks.walk((1, 2, 3, 4), L4_TRANSITIONS, cyclic=True)


def report(valid, metric, low, witness, size):
    return json.dumps({"valid": valid, "metric": metric, "min_pairwise_distance": low,
                       "witness": witness, "size": size})


# -- definitions -------------------------------------------------------------


def test_distances_and_balls_agree_with_brute_force():
    for n in (3, 4, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for a in perms[:10]:
            for metric in ("kendall", "linf"):
                near = {b for b in perms if checks.DISTANCE[metric](a, b) == 1}
                assert set(checks.ball(a, metric)) == near


def test_recorded_codes_are_snakes():
    assert len(K5) == 57 and checks.first_violation(K5, "kendall") is None
    assert checks.pairwise_min(K5, "kendall")[0] == 2
    assert len(L4) == 6 and checks.first_violation(L4, "linf") is None


def test_closed_forms():
    assert [checks.ksnake_size(N) for N in (3, 5, 7, 9)] == [3, 45, 1575, 99225]
    assert [checks.linf_size(n, "odd-top") for n in range(4, 11)] == [
        6, 18, 30, 120, 240, 1200, 3480]
    assert checks.linf_size(9, "even-top") == 696
    assert checks.search_upper("kendall", 5) == 60
    assert checks.search_upper("linf", 5) == 30


# -- codec -------------------------------------------------------------------


def test_rank_off_by_one_is_rejected():
    assert checks.check_equal(14, 14) is None
    assert checks.check_equal(14, 15) is not None
    assert checks.check_equal(K5[3], K5[4]) is not None


def test_accepted_corrupted_read_is_rejected():
    assert checks.check_rejected(ValueError("not a codeword")) is None
    assert checks.check_rejected(5) is not None
    assert checks.check_rejected(KeyError(1)) is not None


# -- verify ------------------------------------------------------------------


def test_verify_accepts_a_right_report():
    out = report(True, "kendall", 2, None, 57)
    assert checks.check_verify(0, out, words=K5, metric="kendall", cyclic=True, size=57,
                               expect_valid=True) is None


def test_invalid_code_reported_valid_is_rejected():
    words = K5[:10] + [checks.push(2, K5[9])]  # last word one swap from K5[9]
    assert checks.first_violation(words, "kendall") is not None
    out = report(True, "kendall", 2, None, 11)
    assert checks.check_verify(0, out, words=words, metric="kendall", cyclic=False, size=11,
                               expect_valid=False) is not None
    right = report(False, "kendall", 1, [9, 10], 11)
    assert checks.check_verify(1, right, words=words, metric="kendall", cyclic=False,
                               size=11, expect_valid=False) is None


def test_witness_pair_at_distance_two_is_rejected():
    words = K5[:10] + [checks.push(2, K5[9])]
    assert checks.kendall(words[0], words[1]) == 2
    out = report(False, "kendall", 1, [0, 1], 11)
    assert checks.check_verify(1, out, words=words, metric="kendall", cyclic=False, size=11,
                               expect_valid=False) is not None


def test_wrong_size_minimum_or_exit_code_is_rejected():
    kw = dict(words=K5, metric="kendall", cyclic=True, expect_valid=True)
    assert checks.check_verify(0, report(True, "kendall", 2, None, 56), size=57, **kw)
    assert checks.check_verify(0, report(True, "kendall", 3, None, 57), size=57, **kw)
    assert checks.check_verify(1, report(True, "kendall", 2, None, 57), size=57, **kw)


# -- search ------------------------------------------------------------------


def search_kw(**over):
    kw = dict(n=5, metric="kendall", cyclic=True, allowed=(3, 5), start=(1, 2, 3, 4, 5),
              exhaustive=True, optimum=57, size=57, proven_optimal=True,
              best_start=(1, 2, 3, 4, 5), transitions=K5_SEGMENT * 3)
    kw.update(over)
    return kw


def test_search_accepts_the_recorded_optimum():
    assert checks.check_search(**search_kw()) is None


def test_search_result_with_a_distance_one_pair_is_rejected():
    # A cyclic push-3 triangle plus a t_2 detour: closes, but holds an
    # adjacent swap.
    transitions = (2, 2, 3, 3, 3)
    words = checks.walk((1, 2, 3, 4, 5), transitions, cyclic=True)
    assert words is None or checks.pairwise_min(words, "kendall")[0] < 2
    bad = (3, 3, 2, 3, 3, 2)
    words = checks.walk((1, 2, 3, 4, 5), bad, cyclic=True)
    assert words is not None and checks.pairwise_min(words, "kendall")[0] == 1
    problem = checks.check_search(**search_kw(allowed=(2, 3, 5), transitions=bad, size=6,
                                              optimum=None, exhaustive=False,
                                              proven_optimal=False))
    assert problem is not None and "distance 1" in problem


def test_search_wrong_optimum_is_rejected():
    short = (5, 5, 5, 5, 5)  # the push-5 cycle: 5 codewords, a valid snake
    assert checks.check_search(**search_kw(transitions=short, size=5)) is not None
    assert checks.check_search(**search_kw(transitions=short, size=5, optimum=None)) is None


def test_search_other_wrong_answers_are_rejected():
    assert checks.check_search(**search_kw(proven_optimal=False))
    assert checks.check_search(**search_kw(size=61))
    assert checks.check_search(**search_kw(allowed=(3,)))
    assert checks.check_search(**search_kw(best_start=(2, 1, 3, 4, 5)))
    assert checks.check_search(**search_kw(transitions=K5_SEGMENT * 3 + (3,), size=58))
    l4 = dict(n=4, metric="linf", allowed=(2, 3, 4), start=(1, 2, 3, 4), optimum=6,
              size=6, best_start=(1, 2, 3, 4), transitions=L4_TRANSITIONS)
    assert checks.check_search(**search_kw(**l4)) is None
    assert checks.check_search(**search_kw(**{**l4, "proven_optimal": False}))


@pytest.mark.parametrize("metric", ["kendall", "linf"])
def test_first_violation_matches_pairwise(metric):
    words = list(itertools.permutations(range(1, 5)))[::5]
    hit = checks.first_violation(words, metric)
    low, _ = checks.pairwise_min(words, metric)
    assert (hit is None) == (low >= 2)
    if hit is not None:
        assert checks.DISTANCE[metric](words[hit[0]], words[hit[1]]) < 2
