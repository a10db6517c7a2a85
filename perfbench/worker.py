"""One workload in one fresh interpreter: set-up, timed rounds, checks.

Run by run.py as ``python -m perfbench.worker`` from the checkout root with
src/ on PYTHONPATH.  Prints one JSON object on its last stdout line.

The timed phase runs whole rounds until --seconds have passed (at least one
round).  Each round has the same make-up of requests, with inputs drawn
afresh from the seeded random stream.  Only the op calls themselves are
inside the timer; drawing a round's inputs and checking its outputs happen
between the timed stretches.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import time

from perfbench import layers
from perfbench.codec import Codec
from perfbench.program import load
from perfbench.search import LONG_SPECS, Search
from perfbench.tracing import Tracer
from perfbench.verify import Verify

WORKLOADS = {w.name: w for w in (Codec, Verify, Search)}
MAX_PROBLEMS = 5
TAIL_MIN_OPS = 100  # ops per round from which op_p99_ms is taken over every op


def run_ops(ops: list, tracer) -> tuple[list[int], list]:
    """Call every op once; returns per-op ns and outputs (or exceptions)."""
    ns = time.perf_counter_ns
    times = [0] * len(ops)
    outs = [None] * len(ops)
    for i, (fn, args) in enumerate(ops):
        if tracer is not None:
            tracer.request += 1
        t0 = ns()
        try:
            out = fn(*args)
        except Exception as exc:  # recorded per op; the checker judges it
            out = exc.with_traceback(None)
        times[i] = ns() - t0
        outs[i] = out
    return times, outs


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Times:
    """Every op time of a run, counted in RES_NS-wide buckets, so that a run
    of a million codec ops keeps a few thousand counters instead of a
    million numbers (which would show in peak_rss_mb)."""

    RES_NS = 10

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.n = 0

    def add(self, times) -> None:
        counts, res = self.counts, self.RES_NS
        for t in times:
            b = t // res
            counts[b] = counts.get(b, 0) + 1
        self.n += len(times)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile in ns, placed within its bucket by rank."""
        k = max(1, math.ceil(q * self.n))
        seen = 0
        for b in sorted(self.counts):
            c = self.counts[b]
            if seen + c >= k:
                return (b + (k - seen - 0.5) / c) * self.RES_NS
            seen += c
        raise ValueError("no times")


class Tally:
    """Outcomes of a run, and its quiet profile.

    Every round has the same make-up: the same groups of requests (one
    group per kind of request, such as the reads of one code or one search
    spec), each of a fixed size, on inputs drawn afresh.  On a shared
    machine the speed of the same code swings by up to 1.6x, in stretches
    from a tenth of a second to tens of seconds, from contention outside
    the process; its quiet moments hold steady.  So for each group the run
    keeps its sorted op times at their fastest over all rounds, rank by
    rank: the profile is one round as a quiet machine would run it.
    """

    def __init__(self) -> None:
        self.profile: dict = {}
        self.times = Times()
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.work = 0
        self.timed_ns = 0
        self.unexpected: list[str] = []
        self.fault_notes: set[str] = set()

    def add(self, timed_ns: int, times, statuses, groups) -> None:
        by_group: dict = {}
        self.times.add(times)
        for t, g in zip(times, groups):
            by_group.setdefault(g, []).append(t)
        for g, ts in by_group.items():
            ts.sort()
            best = self.profile.get(g)
            self.profile[g] = ts if best is None else list(map(min, best, ts))
        self.rounds += 1
        self.timed_ns += timed_ns
        self.attempted += len(times)
        for status, weight, note in statuses:
            if status == "ok":
                self.ok += 1
                self.work += weight
            else:
                self.failed += 1
                if status == "fault":
                    self.fault_notes.add(note.split(":")[0])
                elif len(self.unexpected) < MAX_PROBLEMS:
                    self.unexpected.append(note)


def play(wl, seconds: float, rng: random.Random, tracer) -> Tally:
    """Whole rounds, each drawn afresh from rng, until seconds have passed
    (at least one)."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while not tally.rounds or time.perf_counter() < deadline:
        ops, metas = wl.round(rng)
        t0 = time.perf_counter_ns()
        times, outs = run_ops(ops, tracer)
        timed_ns = time.perf_counter_ns() - t0
        statuses = [wl.check(m, o) for m, o in zip(metas, outs)]
        tally.add(timed_ns, times, statuses, [wl.group(m) for m in metas])
    return tally


def end_to_end(wl, tally: Tally, setup_s: float) -> dict[str, float]:
    """Timing metrics of the quiet profile: rates per second of one round
    at profile speed, percentiles over the profile's op times.  A round of
    at least TAIL_MIN_OPS ops has a real 1% tail, and its op_p99_ms is taken
    over every op of the run instead, so that costs that hit only some
    rounds count."""
    times = sorted(t for ts in tally.profile.values() for t in ts)
    round_s = sum(times) / 1e9
    if len(times) >= TAIL_MIN_OPS:
        p99 = tally.times.percentile(0.99)
    else:
        p99 = percentile(times, 0.99)
    return {
        "setup_s": setup_s,
        "ops_per_s": tally.ok / tally.rounds / round_s,
        "op_p50_ms": statistics.median(times) / 1e6,
        "op_p99_ms": p99 / 1e6,
        "codewords_per_s": tally.work / tally.rounds / round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "best_size": wl.best_size(tally.rounds),
    }


def machine() -> dict:
    from importlib.metadata import version

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter() reading taken just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.phase = "cold"
    p = load(tracer)
    if tracer is not None:
        layers.cold_builds(p)
        tracer.phase = "own"
    wl = WORKLOADS[args.workload](p)
    wl.setup()
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.prepare()
    tally = play(wl, args.seconds, random.Random(args.seed), tracer)
    result = {
        "setup_s": setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "faults": sorted(tally.fault_notes),
        "problems": wl.problems + tally.unexpected,
        "metrics": end_to_end(wl, tally, setup_s),
        "rounds": tally.rounds,
        "profile_ms": {str(g): [t / 1e6 for t in ts] for g, ts in tally.profile.items()},
        "timed_s": tally.timed_ns / 1e9,
        "machine": machine(),
    }
    if tracer is not None:
        result.update(traced_layers(p, wl, tracer, args.seed, tally))
        result["problems"] += result["probe_problems"]
    print(json.dumps(result))
    return 0


def traced_layers(p, wl, tracer, seed: int, tally: Tally) -> dict:
    """Per-layer numbers: the workload's own spans first, then one round of
    each other workload and the long search specs, for the layers this one
    never calls."""
    counts = {wl.name: {"attempted": tally.attempted, "failed": tally.failed}}
    problems = []
    stats = dict(wl.layer_stats(tally.rounds))
    tracer.phase = "probe"
    probes = {name: cls(p) for name, cls in WORKLOADS.items() if name != wl.name}
    probes["search-long"] = Search(p, LONG_SPECS)
    for name, other in probes.items():
        other.setup()
        other.prepare()
        probe = play(other, 0, random.Random(seed), tracer)
        counts[name] = {"attempted": probe.attempted, "failed": probe.failed,
                        "round": "probe"}
        problems += other.problems + probe.unexpected
        for key, value in other.layer_stats(probe.rounds).items():
            stats.setdefault(key, value)
    values = layers.from_spans(tracer)
    values.update(stats)
    values.update(layers.perm_core(p, wl.own_words()))
    return {"layers": values, "workloads": counts, "probe_problems": problems,
            "trace": tracer.dump()}


if __name__ == "__main__":
    raise SystemExit(main())
