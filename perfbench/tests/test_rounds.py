"""The per-round input drawing and the timing metrics of the benchmark.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import checks  # noqa: E402
from perfbench.verify import Case, Verify  # noqa: E402
from perfbench.worker import Tally, Times, end_to_end  # noqa: E402

K5_SEGMENT = (3, 3, 5, 3, 3, 5, 3, 5, 5, 3, 3, 5, 3, 3, 5, 3, 5, 5, 5)
L4_TRANSITIONS = (3, 4, 3, 3, 4, 3)


def case(metric, start, transitions, size):
    return Case("c", metric, start, transitions, True, True, size, None)


@pytest.mark.parametrize("metric,start,transitions,size", [
    ("kendall", (1, 2, 3, 4, 5), K5_SEGMENT * 3, 57),
    ("linf", (1, 2, 3, 4), L4_TRANSITIONS, 6),
])
def test_relabelled_code_walks_its_relabelled_words_and_stays_a_snake(
        metric, start, transitions, size):
    base = case(metric, start, transitions, size)
    rng = random.Random(5)
    starts = set()
    for _ in range(8):
        c = base.relabelled(rng)
        starts.add(c.start)
        assert c.words() == checks.walk(c.start, transitions, True)
        assert checks.first_violation(c.words(), metric) is None
        assert f'"start":{list(c.start)}'.replace(" ", "") in c.line
    assert len(starts) > 1


def test_corrupted_copy_is_invalid_and_walks_its_words():
    base = case("kendall", (1, 2, 3, 4, 5), K5_SEGMENT * 3, 57)
    bad = Verify._corrupt(base.relabelled(random.Random(2)), random.Random(3))
    assert not bad.expect_valid and not bad.cyclic
    assert bad.words() == checks.walk(bad.start, bad.transitions, False)
    assert len(bad.words()) == bad.size
    assert checks.first_violation(bad.words(), "kendall") is not None


def test_timing_metrics_come_from_the_fastest_time_at_each_rank_of_each_group():
    tally = Tally()
    statuses = [("ok", 2, ""), ("ok", 2, ""), ("fault", 0, "f: x")]
    tally.add(900, [300, 100, 500], statuses, ["a", "a", "b"])
    tally.add(900, [150, 250, 400], statuses, ["a", "a", "b"])
    assert tally.profile == {"a": [100, 250], "b": [400]}
    assert tally.rounds == 2 and tally.attempted == 6 and tally.failed == 2
    m = end_to_end(type("W", (), {"best_size": lambda self, rounds: 0})(), tally, 1.0)
    assert m["ops_per_s"] == pytest.approx(2 / 750e-9)
    assert m["codewords_per_s"] == pytest.approx(4 / 750e-9)
    assert m["op_p50_ms"] == pytest.approx(250 / 1e6)
    assert m["op_p99_ms"] == pytest.approx(400 / 1e6)


def test_percentiles_over_every_op_match_nearest_rank_within_a_bucket():
    rng = random.Random(1)
    values = [rng.randrange(1000, 90000) for _ in range(5001)]
    t = Times()
    t.add(values[:2000])
    t.add(values[2000:])
    ordered = sorted(values)
    for q in (0.01, 0.5, 0.99, 1.0):
        exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
        assert abs(t.percentile(q) - exact) <= Times.RES_NS
