"""Depth-first search."""

import dataclasses
import hashlib
import itertools
import random
from pathlib import Path

import pytest

from permsnake.code_model import verify_snake
from permsnake.perm_core import ball_maps, form, kendall_distance, linf_distance, push_top
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
    assert r4.nodes == 13
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


# SHA-256 over (size, nodes, proven_optimal, transitions) for every node
# budget 1..300, recorded before leaves were counted without being placed
BUDGET_DIGESTS = {
    ("kendall", True): "3581b729fda5051c2901df8c2f1bd4b43c022e49da049d5c3d8ba83875f56b77",
    ("kendall", False): "8ab155cd59900e4a5bd2c54ca6e27af3a39786e7f2dce5d0bec2e65586ee7006",
    ("linf", True): "10c42930736d4df0ebaa880dfb307207e79ffbbf5b3f09d8c646c2d843c0be52",
    ("linf", False): "15b7abd97e33c393b55b60d8c295f0a0ce8476c67e7170de45a709c4f5918eea",
}


@pytest.mark.parametrize("metric, cyclic", BUDGET_DIGESTS, ids=lambda v: str(v))
def test_budget_cut_offs_keep_their_results(metric, cyclic):
    # A budget can run out on a leaf, a node that is counted but never
    # placed, or on a placed node; a miscounted leaf moves the cut-off.
    digest = hashlib.sha256()
    for budget in range(1, 301):
        r = longest_snake(SearchSpec(n=5, metric=metric, cyclic=cyclic, node_budget=budget))
        transitions = None if r.best is None else r.best.transitions
        digest.update(repr((r.size, r.nodes, r.proven_optimal, transitions)).encode())
    assert digest.hexdigest() == BUDGET_DIGESTS[metric, cyclic]


def test_search_stops_at_the_metric_bound():
    # Branch t_2 ends at once, branch t_3 reaches 5!/4 = 30 and stops, and
    # the branches t_4 and t_5 are skipped.
    r = longest_snake(SearchSpec(n=5, metric="linf"))
    assert (r.size, r.proven_optimal, r.nodes) == (30, True, 32902)
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
    # bool is an int subclass, and 5.0 == 5: both are refused by type
    with pytest.raises(ValueError, match=r"^n must be an int, got 5\.0$"):
        SearchSpec(n=5.0, metric="linf")
    with pytest.raises(ValueError, match="^n must be an int, got True$"):
        SearchSpec(n=True, metric="linf")
    with pytest.raises(ValueError, match="^node_budget must be an int, got True$"):
        SearchSpec(n=5, metric="linf", node_budget=True)
    with pytest.raises(ValueError, match=r"^node_budget must be an int, got 10\.0$"):
        SearchSpec(n=5, metric="linf", node_budget=10.0)
    for allowed, bad in (((3.0, 4), "3.0"), ((True, 3), "True"), ((3, "4"), "'4'")):
        with pytest.raises(ValueError, match=f"^allowed_transitions must hold ints, got {bad}$"):
            SearchSpec(n=4, metric="kendall", allowed_transitions=allowed)


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
        180, 37505, False,
        "334343453343434533434345334343633434345334343453343434633434345334343453"
        "343434633434533434345345344553343436334343453343435334463343434533434663"
        "343633443533456454343645533453344665",
    ),
    (
        SearchSpec(n=6, metric="linf", allowed_transitions=(5, 6), node_budget=20000),
        90, 412, True,
        "555565565655565565655565666565655665665565656565665565656565566565566665666566655666655666",
    ),
    (
        SearchSpec(n=7, metric="linf", node_budget=20000),
        322, 20000, False,
        "424252326232524232632423253372324336324345232433724325232463342352353342"
        "372353342432432526232523242326325324324326253242625334232742432633523243"
        "372324335232434252324342523263425243252324624262424343625244237237334243"
        "352627425335267336232733426335325232442344253373627324232742436334252447"
        "3372743366345437347723463364324377",
    ),
    (
        SearchSpec(n=5, metric="linf", node_budget=2000),
        24, 2000, False,
        "334253353435335335543355",
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
    "spec, size, nodes, proven, states, witness_sha256",
    [
        (SearchSpec(n=7, metric="kendall", allowed_transitions=(3, 5, 7), node_budget=20000),
         153, 13340, False, 2520,
         "7c530fc4645ecf43ff96aa991b9806564a9d99dd37131195ffc8bc33c468b49c"),
        (SearchSpec(n=8, metric="kendall", node_budget=20000), 2749, 16674, False, 40320,
         "87fd803b7e3be4505d4cc59710a4914e82a6271ab1061244fa375410f6fce703"),
        (SearchSpec(n=8, metric="linf", node_budget=20000), 1551, 20000, False, 40320,
         "e1d60c8104f7721f0c6ad5187107aa6b0fa7881ad4f4086320ebd178abefe644"),
    ],
    ids=["kendall7_p357_b20000", "kendall8_b20000", "linf8_b20000"],
)
def test_long_paths_need_no_deep_stack(
    shallow_stack, spec, size, nodes, proven, states, witness_sha256
):
    r = longest_snake(spec)
    assert (r.size, r.nodes, r.proven_optimal, r.states) == (size, nodes, proven, states)
    assert hashlib.sha256(bytes(r.best.transitions)).hexdigest() == witness_sha256
    assert verify_snake(r.best, spec.metric).valid


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(n=6, metric="kendall", node_budget=50000),
        SearchSpec(n=7, metric="kendall", allowed_transitions=(3, 5, 7), node_budget=20000),
    ],
    ids=["kendall6_b50000", "kendall7_p357_b20000"],
)
def test_kendall_results_do_not_depend_on_the_start_labels(spec):
    # Kendall distance is invariant under relabelling values, so any start
    # gives the identity start's search tree, walked on other byte forms.
    r = longest_snake(spec)
    for seed in (1, 2):
        start = tuple(random.Random(seed).sample(spec.start, spec.n))
        relabelled = longest_snake(dataclasses.replace(spec, start=start))
        assert relabelled.best.start == start
        assert (relabelled.size, relabelled.nodes, relabelled.states, relabelled.best.transitions) == (
            r.size, r.nodes, r.states, r.best.transitions)


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
    balls, ball = _build_tables(SearchSpec(n=5, metric="kendall", allowed_transitions=(3, 5)))[:2]
    assert len(balls) == 60
    assert all(ball(i) == (i,) for i in range(len(balls)))


def _row_cases():
    for n, metric in itertools.product(range(3, 7), ("kendall", "linf")):
        full = tuple(range(2, n + 1))
        for alphabet in dict.fromkeys((full, (2, n), (2,), full[1:])):
            name = f"{metric}{n}_p{''.join(map(str, alphabet))}"
            yield pytest.param(SearchSpec(n, metric, allowed_transitions=alphabet), id=name)
            yield pytest.param(SearchSpec(n, metric, allowed_transitions=alphabet,
                                          start=tuple(range(n, 0, -1))), id=f"{name}_down")


def _state_perms(spec, columns):
    """State number -> permutation, from the columns: a state is listed
    after the state it was first reached from."""
    perms = {0: spec.start}
    for i in range(len(columns[0])):
        for t, column in zip(spec.allowed_transitions, columns):
            assert perms.setdefault(column[i], push_top(t, perms[i])) == push_top(t, perms[i])
    assert len(set(perms.values())) == len(perms) == len(columns[0])
    return perms


@pytest.mark.parametrize("spec", _row_cases())
def test_rows_leave_out_exactly_the_t2_children_in_the_ball(spec):
    balls, _, columns, rows, closing, closers = _build_tables(spec)
    assert len(rows) == len(balls) == _orbit_size(spec)
    perms = _state_perms(spec, columns)
    # the start's first moves keep one child per push, t_2 included
    assert [perms[column[0]] for column in columns] == [
        push_top(t, spec.start) for t in spec.allowed_transitions]
    # each push returns exactly one state, its closer, to the start
    for t, c in zip(spec.allowed_transitions, closers):
        assert push_top(t, perms[c]) == spec.start
    assert [i for i, t in enumerate(closing) if t] == sorted(set(closers))
    assert all(closing[c] == t for t, c in zip(spec.allowed_transitions, closers))
    maps = ball_maps(spec.metric, spec.n)
    for i, row in enumerate(rows):
        ball = {form(spec.metric, perms[i]).translate(m) for m in maps}
        kept, left_out = [], []
        for t, column in zip(spec.allowed_transitions, columns):
            inside = form(spec.metric, perms[column[i]]) in ball
            (left_out if inside else kept).append((t, column[i]))
        assert row == tuple(c for _, c in kept)
        assert all(t == 2 for t, _ in left_out)


@pytest.mark.parametrize("spec", [case for case in _row_cases() if case.values[0].n <= 5])
def test_balls_are_the_radius_1_balls_within_the_orbit(spec):
    # Chebyshev balls are found on the Kendall forms the orbit is numbered
    # by, or taken from the parent's by a push, so check every ball against
    # the distances of the permutations, built both ways.
    balls, ball, columns = _build_tables(spec)[:3]
    perms = _state_perms(spec, columns)
    distance = kendall_distance if spec.metric == "kendall" else linf_distance
    expected = {}
    for i, p in perms.items():
        expected[i] = {i} | {j for j, q in perms.items() if distance(p, q) == 1}
        if spec.metric == "kendall" and i:
            expected[i].discard(0)  # only the start's own Kendall ball lists it
        members = ball(i)
        assert balls[i] == members and members[0] == i and len(set(members)) == len(members)
        assert set(members) == expected[i]
    for parent, column in itertools.product(perms, columns):
        members = ball(column[parent], parent)
        assert members[0] == column[parent] and len(set(members)) == len(members)
        assert set(members) == expected[column[parent]]


@pytest.mark.parametrize("n", range(3, 7))
def test_push_graph_is_the_same_for_both_metrics_and_every_start(n):
    # The orbit is walked on Kendall forms, where a push acts the same way
    # from any start, so only the balls and the rows see the metric.  Kendall
    # balls are value maps on the same forms, so they see no start either.
    starts = [tuple(range(1, n + 1))]
    starts += [tuple(random.Random(seed).sample(starts[0], n)) for seed in (1, 2)]
    for k in range(1, n):
        for alphabet in itertools.combinations(range(2, n + 1), k):
            graphs, kendall_tables = set(), set()
            for metric, start in itertools.product(("kendall", "linf"), starts):
                balls, ball, columns, rows, closing, closers = _build_tables(
                    SearchSpec(n, metric, allowed_transitions=alphabet, start=start))
                graphs.add(repr((columns, closing, closers)))
                if metric == "kendall":
                    kendall_tables.add(repr((rows, [ball(i) for i in range(len(balls))])))
            assert len(graphs) == len(kendall_tables) == 1, alphabet


def _oracle(spec):
    """(size, transitions) of the first largest code by a plain depth-first
    search: each candidate is checked against every codeword so far with the
    metric's distance, and pushes are tried in ascending order.  No tables,
    balls, branch split or budget shares, so it shares no logic with
    longest_snake beyond push_top and the metrics."""
    distance = kendall_distance if spec.metric == "kendall" else linf_distance
    words, path = [spec.start], []
    best = (0, None) if spec.cyclic else (1, ())

    def extend():
        nonlocal best
        for t in spec.allowed_transitions:
            nxt = push_top(t, words[-1])
            if nxt == spec.start:
                if spec.cyclic and len(words) > best[0]:
                    best = (len(words), (*path, t))
            elif all(distance(nxt, w) >= 2 for w in reversed(words)):
                words.append(nxt)
                path.append(t)
                if not spec.cyclic and len(words) > best[0]:
                    best = (len(words), tuple(path))
                extend()
                words.pop()
                path.pop()

    extend()
    return best


def _oracle_cases():
    for start, k, metric, cyclic in itertools.product(
            ((1, 2, 3), (1, 3, 2), (1, 2, 3, 4), (2, 4, 1, 3)), (1, 2, 3),
            ("kendall", "linf"), (True, False)):
        for alphabet in itertools.combinations(range(2, len(start) + 1), k):
            yield SearchSpec(len(start), metric, cyclic, alphabet, start)
    # n = 5: the alphabets whose plain search ends within about a second
    for k, metric, cyclic in itertools.product((1, 2), ("kendall", "linf"), (True, False)):
        for alphabet in itertools.combinations(range(2, 6), k):
            if (metric, alphabet) != ("kendall", (3, 5)):
                yield SearchSpec(5, metric, cyclic, alphabet)
    for metric, alphabet in (("kendall", (2, 3, 4)), ("kendall", (2, 4, 5)), ("linf", (2, 3, 4)),
                             ("linf", (2, 3, 5)), ("linf", (2, 4, 5))):
        yield SearchSpec(5, metric, True, alphabet)
    # Chebyshev optima depend on the start: pushes {2,5} close 14 codewords
    # from (1,2,3,5,4) but 5 from the identity
    for alphabet in ((2, 4), (3, 4), (2, 5)):
        yield SearchSpec(5, "linf", True, alphabet, start=(1, 2, 3, 5, 4))
    yield SearchSpec(5, "linf", False, (2, 3, 5), start=(1, 3, 4, 2, 5))


def _oracle_id(spec):
    cyclic = "cyclic" if spec.cyclic else "open"
    alphabet = "".join(map(str, spec.allowed_transitions))
    return f"{spec.metric}{spec.n}_{cyclic}_p{alphabet}_{''.join(map(str, spec.start))}"


@pytest.mark.parametrize("spec", _oracle_cases(), ids=_oracle_id)
def test_exhaustive_search_agrees_with_a_plain_search(spec):
    r = longest_snake(spec)
    assert r.proven_optimal
    assert (r.size, None if r.best is None else r.best.transitions) == _oracle(spec)

