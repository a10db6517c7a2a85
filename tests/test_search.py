"""Depth-first search, recorded fixtures, and the completion construction."""

import itertools

import pytest

from permsnake.code_model import expand, verify_snake
from permsnake.ksnake import build_ksnake
from permsnake.perm_core import sign
from permsnake.search import (
    MAX_EXHAUSTIVE_N,
    MAX_SEARCH_N,
    RECORDED_OCTAL_CODES,
    SearchSpec,
    emit_octal_code,
    extend_to_complete,
    k5_witness_code,
    longest_snake,
    parse_octal_code,
    recorded_octal_code,
)


def test_octal_code_n4_exact_transitions():
    code = parse_octal_code(4, "55")
    assert code.transitions == (3, 4, 3, 3, 4, 3)
    assert verify_snake(code, "linf").valid


@pytest.mark.parametrize("n", sorted(RECORDED_OCTAL_CODES))
def test_recorded_octal_codes_are_valid_snakes(n):
    code = recorded_octal_code(n)
    assert code.size == {4: 6, 5: 30, 6: 90}[n]
    report = verify_snake(code, "linf")
    assert report.valid
    assert emit_octal_code(code) == RECORDED_OCTAL_CODES[n]


def test_octal_rejects_bad_digits():
    with pytest.raises(ValueError):
        parse_octal_code(4, "58")
    with pytest.raises(ValueError):
        parse_octal_code(4, "")


def test_octal_rejects_non_closing_bitstring():
    # "00" decodes to six pushes of t_4, which returns to start after four,
    # duplicating codewords before closure
    with pytest.raises(ValueError):
        parse_octal_code(4, "00")


def test_emit_requires_two_letter_alphabet():
    code = build_ksnake(5)  # alphabet {3, 5}, not {n-1, n}
    with pytest.raises(ValueError):
        emit_octal_code(code)


def test_witness_fixture():
    code = k5_witness_code()
    assert code.cyclic
    assert code.size == 57
    words = expand(code)
    assert len(set(words)) == 57
    assert all(sign(w) == 1 for w in words)
    report = verify_snake(code, "kendall")
    assert report.valid
    assert report.min_pairwise_distance == 2


def test_witness_misses_exactly_three_even_permutations():
    words = set(expand(k5_witness_code()))
    evens = {p for p in itertools.permutations(range(1, 6)) if sign(p) == 1}
    complement = sorted(evens - words)
    assert len(complement) == 3
    # the three absentees agree in their last two coordinates
    assert len({w[3] for w in complement}) == 1
    assert len({w[4] for w in complement}) == 1


def test_extend_to_complete_covers_alternating_group():
    extended = extend_to_complete(k5_witness_code())
    assert not extended.cyclic
    words = expand(extended)
    assert len(words) == 60
    evens = {p for p in itertools.permutations(range(1, 6)) if sign(p) == 1}
    assert set(words) == evens
    assert extended.transitions[:3] == (3, 3, 5)


def test_extend_to_complete_needs_complement_of_three():
    with pytest.raises(ValueError):
        extend_to_complete(build_ksnake(5))  # complement has 15 words


def test_longest_snake_small_kendall_cases():
    r3 = longest_snake(SearchSpec(n=3, metric="kendall"))
    assert (r3.size, r3.proven_optimal) == (3, True)
    r4 = longest_snake(SearchSpec(n=4, metric="kendall"))
    assert (r4.size, r4.proven_optimal) == (8, True)
    assert r4.nodes == 20
    assert verify_snake(r4.best, "kendall").valid


def test_longest_snake_small_linf_case():
    r4 = longest_snake(SearchSpec(n=4, metric="linf"))
    assert (r4.size, r4.proven_optimal) == (6, True)
    assert r4.nodes == 6  # the first code found reaches the bound 4!/4
    assert verify_snake(r4.best, "linf").valid


def test_longest_snake_non_cyclic_path():
    r = longest_snake(SearchSpec(n=4, metric="linf", cyclic=False))
    assert r.size >= 6
    assert r.best is not None and not r.best.cyclic
    assert verify_snake(r.best, "linf").valid


def test_restricted_alphabet_search():
    spec = SearchSpec(n=4, metric="linf", allowed_transitions=(3, 4))
    r = longest_snake(spec)
    assert r.size == 6
    assert set(r.best.transitions) <= {3, 4}


def test_tiny_budget_is_not_proven_optimal():
    spec = SearchSpec(n=5, metric="kendall", node_budget=50)
    r = longest_snake(spec)
    assert not r.proven_optimal
    assert r.nodes <= 50
    if r.best is not None:
        assert verify_snake(r.best, "kendall").valid


def test_budget_shares_are_deterministic(shallow_stack):
    for spec in (
        SearchSpec(n=5, metric="linf", node_budget=2000),
        SearchSpec(n=7, metric="kendall", allowed_transitions=(3, 5, 7), node_budget=20000),
    ):
        a = longest_snake(spec)
        b = longest_snake(spec)
        assert (a.size, a.best, a.nodes) == (b.size, b.best, b.nodes)


def test_budget_left_by_a_branch_is_handed_on():
    # Branch t_2 ends at once, because its first push lands in the start's
    # ball; its share goes to the three branches after it.
    r = longest_snake(SearchSpec(n=5, metric="linf", node_budget=100))
    assert r.nodes == 100
    assert verify_snake(r.best, "linf").valid


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(n=6, metric="kendall", node_budget=2),
        SearchSpec(n=5, metric="linf", node_budget=1),
    ],
    ids=["kendall6_b2", "linf5_b1"],
)
def test_a_budget_below_the_branch_count_is_not_overspent(spec):
    # The later branches get a share of 0 and place nothing.
    r = longest_snake(spec)
    assert r.nodes == spec.node_budget
    assert not r.proven_optimal


def test_search_stops_at_the_metric_bound():
    # Branch t_2 ends at once, branch t_3 reaches 5!/4 = 30 and stops, and
    # the branches t_4 and t_5 are skipped.
    r = longest_snake(SearchSpec(n=5, metric="linf"))
    assert (r.size, r.proven_optimal, r.nodes) == (30, True, 43199)
    assert verify_snake(r.best, "linf").valid


def test_search_spec_validation():
    with pytest.raises(ValueError, match="got 1$"):
        SearchSpec(n=1, metric="kendall")
    with pytest.raises(ValueError, match=f"got {MAX_SEARCH_N + 1}$"):
        SearchSpec(n=MAX_SEARCH_N + 1, metric="kendall", node_budget=10)
    with pytest.raises(ValueError, match="set node_budget"):
        SearchSpec(n=MAX_EXHAUSTIVE_N + 1, metric="kendall")  # needs a budget
    with pytest.raises(ValueError, match="'manhattan'"):
        SearchSpec(n=4, metric="manhattan")
    with pytest.raises(ValueError, match="transition 1 out of range"):
        SearchSpec(n=4, metric="kendall", allowed_transitions=(1, 4))
    with pytest.raises(ValueError, match=r"start \(1, 2, 3\) has length 3, but n is 4"):
        SearchSpec(n=4, metric="kendall", start=(1, 2, 3))
    with pytest.raises(ValueError, match="node_budget must be positive, got 0"):
        SearchSpec(n=4, metric="kendall", node_budget=0)


def test_non_identity_start():
    spec = SearchSpec(n=4, metric="kendall", start=(4, 3, 2, 1))
    r = longest_snake(spec)
    assert r.best.start == (4, 3, 2, 1)
    assert r.size == 8
    assert verify_snake(r.best, "kendall").valid


# (spec, size, nodes, proven_optimal, transitions): the try order, the point
# of the budget check, the budget shares handed on from branch to branch and
# the stop at the metric bound fix all four.  The Kendall start in the last
# spec is not the identity.
PINNED = [
    (
        SearchSpec(n=6, metric="kendall", node_budget=50000),
        32, 37505, False,
        "33434345334343453343434533434345",
    ),
    (
        SearchSpec(n=6, metric="linf", allowed_transitions=(5, 6), node_budget=20000),
        90, 412, True,
        "555565565655565565655565666565655665665565656565665565656565566565566665666566655666655666",
    ),
    (SearchSpec(n=7, metric="linf", node_budget=20000), 3, 20000, False, "333"),
    (
        SearchSpec(n=5, metric="linf", node_budget=2000),
        20, 2000, False,
        "33425253545453543355",
    ),
    (
        SearchSpec(
            n=5, metric="kendall", allowed_transitions=(3, 5),
            start=(3, 1, 5, 2, 4), node_budget=2000,
        ),
        33, 1004, False,
        "335335353353533535335533533535555",
    ),
]


@pytest.mark.parametrize(
    "spec, size, nodes, proven, transitions",
    PINNED,
    ids=["kendall6_b50000", "linf6_p56_b20000", "linf7_b20000", "linf5_b2000",
         "kendall5_p35_b2000_start31524"],
)
def test_pinned_search_results(spec, size, nodes, proven, transitions):
    r = longest_snake(spec)
    assert (r.size, r.nodes, r.proven_optimal) == (size, nodes, proven)
    assert r.best.start == spec.start
    assert r.best.transitions == tuple(map(int, transitions))


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(n=7, metric="kendall", allowed_transitions=(3, 5, 7), node_budget=20000),
        SearchSpec(n=8, metric="kendall", node_budget=20000),
    ],
    ids=["kendall7_p357_b20000", "kendall8_b20000"],
)
def test_long_paths_need_no_deep_stack(shallow_stack, spec):
    r = longest_snake(spec)
    assert r.nodes <= 20000
    assert verify_snake(r.best, "kendall").valid
