"""Upper bounds, densities, and the summary table."""

import itertools
import math
from fractions import Fraction

import pytest

from permsnake.bounds import (
    bounds_table,
    ksnake_density,
    linf_upper,
    trivial_upper,
)
from permsnake.ksnake import ksnake_size
from permsnake.perm_core import (
    form,
    identity,
    kendall_distance,
    linf_distance,
    merge_maps,
    push_top,
)


def test_trivial_upper_is_half_factorial():
    assert [trivial_upper(n) for n in (3, 4, 5, 6)] == [3, 12, 60, 360]


def test_linf_upper_pinned_values():
    assert [linf_upper(n) for n in (4, 5, 6, 7)] == [6, 30, 90, 630]


def test_linf_upper_closed_form():
    for n in range(2, 15):
        assert linf_upper(n) == math.factorial(n) // 2 ** (n // 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_upper_bounds_partition_the_group_into_cliques(n):
    # each bound is the number of classes of a partition of S_n whose
    # members are pairwise at distance 1 (<= 1 under Chebyshev), so a snake
    # holds at most one word of each class
    group = list(itertools.permutations(range(1, n + 1)))
    pairs = {frozenset((s, push_top(2, s))) for s in group}
    assert len(pairs) == trivial_upper(n)
    assert all(len(p) == 2 and kendall_distance(*p) == 1 for p in pairs)
    classes = {}
    for s in group:
        classes.setdefault(tuple((v + 1) // 2 for v in s), []).append(s)
    assert len(classes) == linf_upper(n)
    fibres = {}  # under the merge table sending 2 to 1, 4 to 3, ...
    for s in group:
        fibres.setdefault(form("linf", s).translate(merge_maps(n)[0]), []).append(s)
    assert sorted(fibres.values()) == sorted(classes.values())
    for members in classes.values():
        assert len(members) == 2 ** (n // 2)
        assert all(linf_distance(a, b) == 1 for a, b in itertools.combinations(members, 2))


def test_density_pinned_values():
    assert ksnake_density(3) == Fraction(1, 2)
    assert ksnake_density(5) == Fraction(3, 8)


def test_density_ratio_recursion():
    for n in range(2, 10):
        assert ksnake_density(2 * n + 1) / ksnake_density(2 * n - 1) == Fraction(
            2 * n - 1, 2 * n
        )


def test_density_decreases_but_stays_positive():
    prev = Fraction(1)
    for N in range(3, 20, 2):
        d = ksnake_density(N)
        assert 0 < d < prev
        prev = d


def test_density_is_size_over_group_order():
    for N in (3, 5, 7, 9):
        assert ksnake_density(N) == Fraction(ksnake_size(N), math.factorial(N))


def test_bounds_row_families_present_where_defined():
    row5 = bounds_table(5, 5)[0]
    assert row5.ksnake_size == 45
    assert row5.ksnake_density == Fraction(3, 8)
    assert row5.linf_size == 18
    assert 0 < row5.ksnake_rate < 1
    assert 0 < row5.linf_rate < 1

    row4 = bounds_table(4, 4)[0]
    assert row4.ksnake_size is None
    assert row4.ksnake_density is None
    assert row4.linf_size == 6

    # size formulas extend past the build range; n=12 gives 6!*(6+5!)
    row12 = bounds_table(12, 12)[0]
    assert row12.linf_size == 90720
    assert row12.trivial_upper == math.factorial(12) // 2
    assert row12.ksnake_size is None  # even n has no kendall construction

    row3 = bounds_table(3, 3)[0]
    assert row3.ksnake_size == 3
    assert row3.linf_size is None


def test_bounds_table_range():
    rows = bounds_table(4, 8)
    assert [r.n for r in rows] == [4, 5, 6, 7, 8]
    with pytest.raises(ValueError):
        bounds_table(8, 4)
    with pytest.raises(ValueError):
        bounds_table(1, 1)
    with pytest.raises(ValueError):
        bounds_table(21, 21)


@pytest.mark.parametrize("call, args, text", [
    (identity, (True,), "n must be an int, got True"),
    (identity, (2.0,), "n must be an int, got 2.0"),
    (trivial_upper, (4.0,), "n must be an int, got 4.0"),
    (linf_upper, (4.0,), "n must be an int, got 4.0"),
    (ksnake_density, (5.0,), "N must be an int, got 5.0"),
    (ksnake_density, (True,), "N must be an int, got True"),
    (bounds_table, (2.0, 3), "n_lo must be an int, got 2.0"),
    (bounds_table, (2, "3"), "n_hi must be an int, got '3'"),
])
def test_a_length_that_is_not_an_int_is_refused(call, args, text):
    # True == 1 and 2.0 == 2: each would pass the range check
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == text


def test_rates_positive_but_below_one_across_range():
    for row in bounds_table(4, 10):
        if row.ksnake_rate is not None:
            assert 0 < row.ksnake_rate < 1
        if row.linf_rate is not None:
            assert 0 < row.linf_rate < 1
