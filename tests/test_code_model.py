"""Code container, expansion, verification, and serialization."""

import hashlib
import itertools
import json
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsnake import code_model, extend_to_complete, k5_witness_code, recorded_octal_code
from permsnake.code_model import (
    GrayCode,
    _verify_pairs,
    _verify_words,
    balance_gap,
    decode_code,
    encode_code,
    expand,
    verify_snake,
)
from permsnake.ksnake import build_ksnake
from permsnake.linf_snake import build_linf_snake
from permsnake.perm_core import (
    ball_maps,
    form,
    identity,
    kendall_distance,
    linf_distance,
    push_top,
    sign,
)
from permsnake.rmgc import build_rmgc

C3 = GrayCode(n=3, start=(1, 2, 3), transitions=(3, 3, 3), cyclic=True)


def _verify_list(words, metric):
    """_verify_words on a list of distinct words, indexed by rank, with the
    parities from perm_core.sign rather than from pushes."""
    parities = bytes((1 - sign(w)) // 2 for w in words)
    return _verify_words({form(metric, w): r for r, w in enumerate(words)}, metric, parities)


def test_gray_code_validation():
    with pytest.raises(ValueError):
        GrayCode(n=3, start=(1, 1, 2), transitions=(3,), cyclic=False)
    with pytest.raises(ValueError):
        GrayCode(n=3, start=(1, 2, 3), transitions=(4,), cyclic=False)
    with pytest.raises(ValueError):
        GrayCode(n=3, start=(1, 2, 3), transitions=(1,), cyclic=False)
    with pytest.raises(ValueError):
        GrayCode(n=2, start=(1, 2), transitions=(), cyclic=True)
    with pytest.raises(ValueError, match=r"^start has length 2, expected n=3$"):
        GrayCode(n=3, start=(1, 2), transitions=(3,), cyclic=False)


@pytest.mark.parametrize("cyclic", [1, 0, "no", None])
def test_gray_code_refuses_a_cyclic_flag_that_is_not_a_bool(cyclic):
    # cyclic=1 would encode to a line that decode_code refuses
    with pytest.raises(ValueError, match=f"^cyclic must be a boolean, got {cyclic!r}$"):
        GrayCode(n=3, start=(1, 2, 3), transitions=(3, 3, 3), cyclic=cyclic)


def test_encode_refuses_an_unknown_metric():
    with pytest.raises(ValueError, match=r"^unknown metric 'l1', expected one of \('kendall', 'linf'\)$"):
        encode_code(C3, "l1")


@pytest.mark.parametrize("t", [1, 4, 256, -1, 10**30])
def test_gray_code_names_the_first_transition_out_of_range(t):
    # outside 0..255 as well as inside it, where the range is read as bytes
    with pytest.raises(ValueError) as info:
        GrayCode(n=3, start=(1, 2, 3), transitions=(3, t, 2, t), cyclic=False)
    assert str(info.value) == f"transition index {t} out of range 2..3"


def test_size_counts_codewords():
    assert C3.size == 3
    path = GrayCode(n=3, start=(1, 2, 3), transitions=(3, 3), cyclic=False)
    assert path.size == 3


def test_expand_c3():
    assert expand(C3) == ((1, 2, 3), (3, 1, 2), (2, 3, 1))


def test_ranks_c3():
    ranks = code_model._ranks(C3)
    assert ranks == {(1, 2, 3): 0, (3, 1, 2): 1, (2, 3, 1): 2}
    assert tuple(ranks) == expand(C3)


def test_expand_rejects_duplicates():
    dup = GrayCode(n=3, start=(1, 2, 3), transitions=(2, 2), cyclic=False)
    for walk in (expand, code_model._ranks):
        with pytest.raises(ValueError, match="codeword at rank 2 repeats rank 0"):
            walk(dup)


def test_expand_rejects_bad_closure():
    open_loop = GrayCode(n=4, start=(1, 2, 3, 4), transitions=(3, 4), cyclic=True)
    for walk in (expand, code_model._ranks):
        with pytest.raises(ValueError, match="close"):
            walk(open_loop)


def _builds():
    """Every gen code, whatever its size, and every recorded code."""
    codes = [build_ksnake(N) for N in (3, 5, 7, 9)]
    codes += [
        build_linf_snake(n, variant)
        for n in range(4, 11)
        for variant in ("odd-top", "even-top")
    ]
    codes += [build_rmgc(n) for n in range(1, 9)]
    codes += [recorded_octal_code(n) for n in (4, 5, 6)]
    codes += [k5_witness_code(), extend_to_complete(k5_witness_code())]
    return codes


@pytest.mark.parametrize("metric", ["kendall", "linf"])
def test_form_walk_matches_a_walk_of_pushes(metric):
    for code in _builds():
        word, words = code.start, [code.start]
        for t in code.transitions[: code.size - 1]:
            word = push_top(t, word)
            words.append(word)
        ranks = code_model._ranks(code, metric)
        assert list(ranks) == [form(metric, w) for w in words]
        assert list(ranks.values()) == list(range(code.size))


def _corrupted():
    """Codes that repeat a codeword, or cyclic ones that do not close."""
    rng = random.Random(25)
    for _ in range(40):
        n = rng.randint(2, 9)
        start = tuple(rng.sample(range(1, n + 1), n))
        pushes = [rng.randint(3 if n > 2 else 2, n) for _ in range(rng.randint(0, 12))]
        k = rng.randint(0, len(pushes))
        yield GrayCode(n, start, tuple(pushes[:k] + [2, 2] + pushes[k:]), False)
        yield GrayCode(n, start, tuple(pushes[:k] + [n] * n + pushes[k:]), False)
        yield GrayCode(n, start, tuple(pushes) + (2,), True)
    yield GrayCode(4, (1, 2, 3, 4), (3, 4), True)


def test_every_walk_refuses_a_corrupted_code_with_one_text():
    for code in _corrupted():
        texts = []
        for walk in (expand, lambda c: verify_snake(c, "kendall"), lambda c: verify_snake(c, "linf")):
            with pytest.raises(ValueError) as info:
                walk(code)
            texts.append(str(info.value))
        assert texts[0].startswith(("codeword at rank ", "cyclic code does not close"))
        assert texts == texts[:1] * 3


def test_verify_c3_and_witness_reporting():
    report = verify_snake(C3, "kendall")
    assert report.valid
    assert report.metric == "kendall"
    assert report.min_pairwise_distance == 2
    assert report.witness is None

    bad = GrayCode(n=3, start=(1, 2, 3), transitions=(2,), cyclic=False)
    report = verify_snake(bad, "kendall")
    assert not report.valid
    assert report.min_pairwise_distance == 1
    assert report.witness == (0, 1)


def test_verify_rejects_unknown_metric():
    with pytest.raises(ValueError):
        verify_snake(C3, "hamming")


def test_ball_lookup_matches_pairwise_reference():
    cases = [
        tuple(itertools.permutations(range(1, 5)))[:40],
        expand(build_ksnake(5)),
    ]
    for words in cases:
        for metric in ("kendall", "linf"):
            assert _verify_list(words, metric) == _verify_pairs(words, metric)


@pytest.mark.parametrize("metric", ["kendall", "linf"])
def test_ball_lookup_matches_pairwise_on_random_lists(metric):
    # random subsets of S_n, most of them invalid, so the witness (lowest i,
    # then least j) is compared as often as the minimum distance
    rng = random.Random(11)
    for _ in range(600):
        n = rng.randint(3, 7)
        group = list(itertools.permutations(range(1, n + 1)))
        words = tuple(rng.sample(group, rng.randint(1, min(len(group), 40))))
        assert _verify_list(words, metric) == _verify_pairs(words, metric)


def test_ball_lookup_reports_lex_first_witness():
    words = ((1, 2, 3), (2, 1, 3), (3, 1, 2), (1, 3, 2))
    report = _verify_list(words, "kendall")
    assert not report.valid
    assert report.min_pairwise_distance == 1
    assert report.witness == (0, 1)
    assert report == _verify_pairs(words, "kendall")


@pytest.mark.parametrize("metric", ["kendall", "linf"])
def test_ball_lookup_matches_pairwise_on_every_two_word_list(metric):
    # every ordered pair of distinct words at n <= 5, either word in either
    # parity class
    for n in range(1, 6):
        for words in itertools.permutations(itertools.permutations(range(1, n + 1)), 2):
            assert _verify_list(words, metric) == _verify_pairs(words, metric)


def test_chebyshev_merge_matches_pairwise_around_one_word():
    # every word beside one fixed word at n = 7, in either order, so each
    # ball map and every other offset is met once
    a = (3, 6, 1, 7, 4, 2, 5)
    for b in itertools.permutations(range(1, 8)):
        if b != a:
            for words in ((a, b), (b, a)):
                assert _verify_list(words, "linf") == _verify_pairs(words, "linf")


@pytest.mark.parametrize("metric", ["kendall", "linf"])
def test_ball_lookup_matches_pairwise_with_planted_neighbours(metric):
    # random words at n = 6..10, with a few words one or two ball maps from
    # another put in anywhere, so the witness and the minimum both vary
    rng = random.Random(20)
    for _ in range(150):
        n = rng.randint(6, 10)
        ball = ball_maps(metric, n)
        forms = [bytes(rng.sample(range(1, n + 1), n)) for _ in range(rng.randint(2, 24))]
        for _ in range(rng.randint(0, 2)):
            f = rng.choice(forms)
            for _ in range(rng.randint(1, 2)):
                f = f.translate(rng.choice(ball))
            forms.insert(rng.randint(0, len(forms)), f)
        words = tuple(dict.fromkeys(tuple(form(metric, f)) for f in forms))
        assert _verify_list(words, metric) == _verify_pairs(words, metric)


def test_parities_match_an_accumulated_xor_of_the_flips():
    # the reference: each rank's parity from rank 0's, flipped by each even
    # push, at every length up to 70 and a few long ones
    rng = random.Random(21)
    for length in [*range(71), 255, 256, 257, 5000]:
        steps = bytes(rng.choice(range(2, 11)) for _ in range(length))
        flips = bytes(1 - t % 2 for t in steps)
        expected = bytes(itertools.accumulate(flips, operator.xor, initial=0))
        assert code_model._parities(steps) == expected


@pytest.mark.parametrize("source", ["ksnake5", "witness57"])
def test_odd_push_code_ended_by_an_even_push_keeps_the_witness(source):
    # every codeword of an odd-push code has the start's parity; one even
    # push at the end makes the other class a single word, whose ball alone
    # is looked up
    code = build_ksnake(5) if source == "ksnake5" else k5_witness_code()
    assert all(t % 2 for t in code.transitions)
    words = expand(code)
    cases = 0
    for k in range(len(words) - 1):
        for t in (2, 4):
            x = push_top(t, words[k])
            if x in words[: k + 1]:
                continue
            cut = GrayCode(5, code.start, code.transitions[:k] + (t,), False)
            report = verify_snake(cut, "kendall")
            assert report == _verify_pairs(words[: k + 1] + (x,), "kendall")
            cases += not report.valid
    assert cases > len(words)  # t_2 always lands next to the word it leaves


def test_long_chebyshev_walk_at_largest_n():
    # a few hundred words at n = 20, where the ball has 10,945 maps: valid,
    # then cut where a t_2 swaps two adjacent values and so ends at distance 1
    # (a longer push moves some value by 2 or more)
    rng = random.Random(7)
    start = tuple(rng.sample(range(1, 21), 20))
    words, transitions = [start], []
    while len(words) < 300:
        t = rng.randint(3, 20)
        x = push_top(t, words[-1])
        if x not in words:
            words.append(x)
            transitions.append(t)
    code = GrayCode(20, start, tuple(transitions), False)
    k = next(k for k in range(150, 299) if abs(words[k][0] - words[k][1]) == 1)
    cut = GrayCode(20, start, tuple(transitions[:k]) + (2,), False)
    cut_words = tuple(words[: k + 1]) + (push_top(2, words[k]),)
    reports = []
    for walk, reference in ((code, tuple(words)), (cut, cut_words)):
        began = time.perf_counter()
        reports.append(verify_snake(walk, "linf"))
        assert time.perf_counter() - began < 1.0
        assert reports[-1] == _verify_pairs(reference, "linf")
    assert [report.valid for report in reports] == [True, False]


@pytest.mark.parametrize("late", [False, True])
def test_chebyshev_witness_under_either_search(monkeypatch, late):
    # random words at n = 12 and two planted pairs at distance 1: a word
    # with values 1, 2 swapped, merged by the first table, and an earlier
    # one with 2, 3 swapped, merged only by a later table.  An early first
    # merged rank leads to a rank-order ball scan, after one merged rank is
    # found; a late one to the first merged rank under each later table
    rng = random.Random(12)
    words = list(dict.fromkeys(tuple(rng.sample(range(1, 13), 12)) for _ in range(300)))
    for r, (u, w) in ((200, (1, 2)), (100, (2, 3))) if late else ((3, (1, 2)), (1, (2, 3))):
        words.append(tuple({u: w, w: u}.get(v, v) for v in words[r]))
    words = tuple(words)
    calls, first = [], code_model._first_recurring
    monkeypatch.setattr(code_model, "_first_recurring",
                        lambda index, table: calls.append(table) or first(index, table))
    report = _verify_list(words, "linf")
    assert report == _verify_pairs(words, "linf")
    assert report.witness[0] == (100 if late else 1)
    assert (len(calls) > 1) == late


@pytest.mark.parametrize("cut", [None, 152])
def test_chebyshev_witness_of_an_early_and_a_late_pair(cut):
    # build_rmgc(7) first violates at rank 0; build_linf_snake(8) cut at
    # rank 152 and ended by t_8 first violates at rank 113, late in its 154
    if cut is None:
        code = build_rmgc(7)
    else:
        full = build_linf_snake(8)
        code = GrayCode(8, full.start, full.transitions[:cut] + (8,), False)
    began = time.perf_counter()
    report = verify_snake(code, "linf")
    assert time.perf_counter() - began < 1.0
    assert report == _verify_pairs(expand(code), "linf")
    assert report.witness[0] == (0 if cut is None else 113)


def _fixtures():
    """Every gen code of up to 2000 codewords and every recorded code."""
    codes = [build_ksnake(N) for N in (3, 5, 7)]
    codes += [
        build_linf_snake(n, variant)
        for n in range(4, 10)
        for variant in ("odd-top", "even-top")
    ]
    codes += [build_rmgc(5)]
    codes += [recorded_octal_code(n) for n in (4, 5, 6)]
    codes += [k5_witness_code(), extend_to_complete(k5_witness_code())]
    return codes


@pytest.mark.parametrize("metric", ["kendall", "linf"])
def test_verify_matches_pairwise_reference_on_fixtures(metric):
    for code in _fixtures():
        assert code.size <= 2000
        assert verify_snake(code, metric) == _verify_pairs(expand(code), metric)


def test_rmgc_is_no_kendall_snake():
    report = verify_snake(build_rmgc(5), "kendall")
    assert not report.valid
    assert report.min_pairwise_distance == 1


@pytest.mark.parametrize("metric", ["kendall", "linf"])
@pytest.mark.parametrize("n", [4, 7, 20])
def test_min_distance_without_a_pair_at_distance_two(monkeypatch, metric, n):
    # One t_n step moves every entry: both metrics put the two codewords
    # n-1 apart, so the distance-2 probe finds nothing and the pairwise
    # loop supplies the minimum.  At n = 20 the probe must give up after one
    # lookup: the Chebyshev distance-2 ball there has 10,423,761 members.
    code = GrayCode(n=n, start=identity(n), transitions=(n,), cyclic=False)
    fallbacks = []

    def counted(words, metric):
        fallbacks.append(len(words))
        return _verify_pairs(words, metric)

    monkeypatch.setattr(code_model, "_verify_pairs", counted)
    report = verify_snake(code, metric)
    assert report == _verify_pairs(expand(code), metric)
    assert report.min_pairwise_distance == n - 1
    assert fallbacks == [2]


def test_balance_gap_c3_is_three():
    assert balance_gap(C3) == 3


def test_balance_gap_requires_cyclic():
    path = GrayCode(n=3, start=(1, 2, 3), transitions=(3, 3), cyclic=False)
    with pytest.raises(ValueError):
        balance_gap(path)


def test_balance_gap_tracks_pushed_elements():
    # Pushed elements along this cycle are 3,4,1,2,4,3,2,1; the longest wait
    # for an element to be pushed again is 5 steps (e.g. the 3 at step 0 is
    # next pushed at step 5).
    code = GrayCode(
        n=4,
        start=(1, 2, 3, 4),
        transitions=(3, 4, 3, 4, 3, 4, 3, 4),
        cyclic=True,
    )
    assert balance_gap(code) == 5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bfs_oracle_matches_kendall(n, bfs_distance_oracle):
    perms = list(itertools.permutations(range(1, n + 1)))
    for a in perms:
        for b in perms:
            assert bfs_distance_oracle(n, a, b) == kendall_distance(a, b)


def test_bfs_oracle_rejects_large_n(bfs_distance_oracle):
    with pytest.raises(ValueError):
        bfs_distance_oracle(7, tuple(range(1, 8)), tuple(range(1, 8)))


def test_encode_decode_byte_round_trip():
    line = encode_code(C3, "kendall")
    code, metric = decode_code(line)
    assert code == C3
    assert metric == "kendall"
    assert encode_code(code, metric) == line
    assert json.loads(line)["transitions"] == [3, 3, 3]


ENCODED_SHA256 = [
    (build_ksnake, (3,), "962c58aad68c47c14bd990beb7d182c669e9f9076832f35474e06b4d6a8504ac"),
    (build_ksnake, (5,), "01a078e2dc0bffd3110a64dc6be7be043384733aa674f393813e8e8d7bf09b29"),
    (build_ksnake, (7,), "050d5e9f14540415407675dffd7faa088815e1c5fe0992cfeb6c7478970a4886"),
    (build_ksnake, (9,), "93bdaa919b53774c6bb1f67082834616ee459954e9b36f4d9a694f6eacc8d6f9"),
    (build_linf_snake, (4, "odd-top"), "124b066f7d6828fef1ca192ff909f9be1d88a77f0f7140088b7e8b7cac2feb93"),
    (build_linf_snake, (4, "even-top"), "962b98088bd2bd09a8a4db7ddb4d9b9296ddea2e0ce159ec50c817ee17ab6db7"),
    (build_linf_snake, (5, "odd-top"), "e0ffc4bf610a5a1bd19f41c0244f63fd80c433da02c013e9cca7e890602e60cc"),
    (build_linf_snake, (5, "even-top"), "549111c4fc4021393830dceffa88c7fb3dbe1cfcf1cbde5a435e05b05675b3e9"),
    (build_linf_snake, (6, "odd-top"), "27817f25d715f935c709c2f7079e88304dedc2a0517481e50a716acec1a69754"),
    (build_linf_snake, (6, "even-top"), "aa28360f36a69f98669334fbdd278a19c8496716c83f15dfd8765f98e603f2f3"),
    (build_linf_snake, (7, "odd-top"), "a9224b53a439a3949e7feb14df206740a5d3125acf51fcf9e15a9769a9476db4"),
    (build_linf_snake, (7, "even-top"), "a3a4990d953ced2d83254cf7e9679b620d6d4aca89b851128f655959654fd28e"),
    (build_linf_snake, (8, "odd-top"), "547946353e197caff15578609066496368b5718e4055459c865d59b59c0ad8b5"),
    (build_linf_snake, (8, "even-top"), "d14b12c2be33c3aebabe0bca94732b601baf3e465e63eaaa47c151e1b3a53bbc"),
    (build_linf_snake, (9, "odd-top"), "fe6caf304cef3d846f47321a43d629f791e92f1c5c9a526c2d781a2db916febe"),
    (build_linf_snake, (9, "even-top"), "4c846128001d75ce2085c43add0d1c3f0f03c34cd390b72d02ac0154a076769a"),
    (build_linf_snake, (10, "odd-top"), "bc3263f9dfa2d713489b6100d9b1c2556c1f9cdb5add578751255d062d5e4945"),
    (build_linf_snake, (10, "even-top"), "c7b55ff438f52851639f631f7a35f2ab164421882e9992de2ad3fd5e78026a07"),
]


@pytest.mark.parametrize("build, args, digest", ENCODED_SHA256,
                         ids=["-".join(map(str, (b.__name__, *a))) for b, a, _ in ENCODED_SHA256])
def test_every_build_encodes_to_its_recorded_bytes(build, args, digest):
    # SHA-256 of encode_code, pinning each built code push for push
    assert hashlib.sha256(encode_code(build(*args)).encode()).hexdigest() == digest


@pytest.mark.parametrize("n, start, transitions, text", [
    (3.0, (1, 2, 3), (3, 3, 3), "n must be an integer in 1..20, got 3.0"),
    (True, (1,), (2,), "n must be an integer in 1..20, got True"),
    (3, (1, 2.0, 3), (3, 3, 3), "start must be a list of integers"),
    (3, (1, 2, 3), (3.0, 3, 3), "transitions must be a list of integers"),
    (3, (1, 2, 3), (3, True, 3), "transitions must be a list of integers"),
])
def test_gray_code_refuses_entries_that_are_not_ints(n, start, transitions, text):
    with pytest.raises(ValueError) as info:
        GrayCode(n, start, transitions, True)
    assert str(info.value) == text


@given(st.lists(st.one_of(st.integers(2, 4), st.floats(2, 4), st.booleans()), max_size=6))
@settings(max_examples=100)
def test_every_code_that_constructs_round_trips(transitions):
    # a code accepted at construction encodes to a line that decodes to it
    try:
        code = GrayCode(4, (1, 2, 3, 4), tuple(transitions), False)
    except ValueError:
        return
    line = encode_code(code, "linf")
    assert decode_code(line) == (code, "linf")
    assert encode_code(*decode_code(line)) == line


def test_decode_malformed_inputs():
    with pytest.raises(ValueError, match="JSON"):
        decode_code("not json")
    with pytest.raises(ValueError, match="metric"):
        decode_code('{"n":3,"metric":"taxicab","start":[1,2,3],"transitions":[3],"cyclic":false}')
    with pytest.raises(ValueError):
        decode_code('{"n":3,"start":[1,2,3],"cyclic":false}')
    with pytest.raises(ValueError):
        decode_code('[1,2,3]')
    with pytest.raises(ValueError, match="^cyclic must be a boolean, got 1$"):
        decode_code('{"n":3,"start":[1,2,3],"transitions":[3,3,3],"cyclic":1}')


@pytest.mark.parametrize(
    "key, line",
    [
        ("n", '{"n":true,"start":[true],"transitions":[],"cyclic":false}'),
        ("start", '{"n":1,"start":[true],"transitions":[],"cyclic":false}'),
        ("transitions", '{"n":3,"start":[1,2,3],"transitions":[3,false],"cyclic":false}'),
    ],
)
def test_decode_rejects_json_booleans(key, line):
    # bool is an int subclass, but JSON true and false are not integers
    with pytest.raises(ValueError, match=f"^{key} must be"):
        decode_code(line)


@given(
    st.integers(min_value=3, max_value=5).flatmap(
        lambda n: st.lists(
            st.integers(min_value=2, max_value=n), min_size=1, max_size=8
        ).map(lambda ts: (n, tuple(ts)))
    )
)
@settings(max_examples=60)
def test_random_paths_verify_on_both_routes(case):
    n, transitions = case
    start = tuple(range(1, n + 1))
    words = [start]
    for t in transitions:
        prev = words[-1]
        nxt = (prev[t - 1],) + prev[: t - 1] + prev[t:]
        if nxt in words:
            break
        words.append(nxt)
    words = tuple(words)
    code = GrayCode(
        n=n, start=start, transitions=transitions[: len(words) - 1], cyclic=False
    )
    for metric in ("kendall", "linf"):
        assert verify_snake(code, metric) == _verify_pairs(words, metric)
