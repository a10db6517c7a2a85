"""Depth-first search."""

from pathlib import Path

import pytest

from permsnake.code_model import verify_snake
from permsnake.perm_core import push_top
from permsnake.search import (
    MAX_EXHAUSTIVE_N,
    MAX_SEARCH_N,
    SearchSpec,
    longest_snake,
    _build_tables,
)


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


def _orbit_size(spec):
    """The number of states push_top reaches from the start: the reference
    for SearchResult.states."""
    seen, todo = {spec.start}, [spec.start]
    while todo:
        p = todo.pop()
        for t in spec.allowed_transitions:
            q = push_top(t, p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen)


# (spec, size, nodes, proven_optimal, transitions): the try order, the point
# of the budget check, the budget shares handed on from branch to branch and
# the stop at the metric bound fix all four.  The Kendall n=5 spec starts
# away from the identity.
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
    (
        SearchSpec(n=7, metric="kendall", allowed_transitions=(3, 5, 7), node_budget=20000),
        153, 13340, False,
        "335335337335335337335335353353373353353373353353533533733533533733533535"
        "335337335335337335335353353373353353373353353533533733533533733533535335"
        "335777777",
    ),
]


@pytest.mark.parametrize(
    "spec, size, nodes, proven, transitions",
    PINNED,
    ids=["kendall6_b50000", "linf6_p56_b20000", "linf7_b20000", "linf5_b2000",
         "kendall5_p35_b2000_start31524", "kendall7_p357_b20000"],
)
def test_pinned_search_results(spec, size, nodes, proven, transitions):
    r = longest_snake(spec)
    assert (r.size, r.nodes, r.proven_optimal) == (size, nodes, proven)
    assert r.best.start == spec.start
    assert r.best.transitions == tuple(map(int, transitions))
    assert r.states == _orbit_size(spec)


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


def _sweep_cases():
    for line in (Path(__file__).parent / "search_sweep.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        n, metric, cyclic, alphabet, start, size, nodes, proven, transitions = line.split()
        n = int(n)
        spec = SearchSpec(
            n=n, metric=metric, cyclic=cyclic == "cyclic",
            allowed_transitions=tuple(map(int, alphabet)),
            start=tuple(range(1, n + 1)) if start == "up" else tuple(range(n, 0, -1)),
            node_budget=2000 if n == 5 else None,
        )
        expected = (int(size), int(nodes), proven == "proven",
                    None if transitions == "none"
                    else () if transitions == "empty" else tuple(map(int, transitions)))
        yield pytest.param(spec, expected, id="-".join(line.split()[:5]))


@pytest.mark.parametrize("spec, expected", _sweep_cases())
def test_every_small_alphabet_keeps_its_result(spec, expected):
    r = longest_snake(spec)
    transitions = None if r.best is None else r.best.transitions
    assert (r.size, r.nodes, r.proven_optimal, transitions) == expected
    if r.best is not None:
        assert (r.best.start, r.best.cyclic) == (spec.start, spec.cyclic)
    assert r.states == _orbit_size(spec)


@pytest.mark.parametrize(
    "spec, size, nodes, states",
    [
        # t_3 cycles through three states, the closing push included
        (SearchSpec(n=5, metric="kendall", allowed_transitions=(3,)), 3, 2, 3),
        # t_2 swaps back and forth between two states at Kendall distance 1
        (SearchSpec(n=4, metric="kendall", allowed_transitions=(2,)), 0, 0, 2),
    ],
    ids=["kendall5_p3", "kendall4_p2"],
)
def test_tiny_orbits(spec, size, nodes, states):
    r = longest_snake(spec)
    assert (r.size, r.proven_optimal, r.nodes, r.states) == (size, True, nodes, states)
    assert (r.best is None) == (size == 0)


def test_odd_push_kendall_balls_hold_only_their_centre():
    # Odd pushes keep the parity, and a Kendall neighbour has the other one.
    balls = _build_tables(SearchSpec(n=5, metric="kendall", allowed_transitions=(3, 5)))[0]
    assert len(balls) == 60
    assert all(ball == (i,) for i, ball in enumerate(balls))
