"""Per-layer metrics, one group per module of permsnake, from a traced run.

Most values come from span aggregates (see tracing.py): busy time per call,
or work per busy second.  Cold construction times come from the ``cold``
phase, which builds each table once in the fresh worker before anything
else.  The perm_core primitives are timed as tight loops over the
workload's own codewords, because the package calls them through names
bound at import, where a span per call would cost more than the call.
"""

from __future__ import annotations

import time

from perfbench.search import LONG_SPECS, SPECS

SEARCH_SPECS = {d.name: d for d in SPECS + LONG_SPECS}

# Cold constructions, in the order the traced worker makes them first.
COLD_BUILDS = (("build_rmgc", 5), ("build_rmgc", 8), ("build_ksnake", 9),
               ("build_linf_snake", 10))


def cold_builds(p) -> None:
    for attr, n in COLD_BUILDS:
        getattr(p, attr)(n)


def _per_call(entry, scale: float) -> float:
    calls, busy = entry[0], entry[1]
    return busy / calls / scale


def _rate(entry) -> float:
    return entry[2] / entry[1] * 1e9


def from_spans(tracer) -> dict[str, float]:
    """Every span-derived per-layer metric the trace holds."""
    out: dict[str, float] = {}
    L = tracer.layer

    def put(name, key, fn, phases=("own", "probe")):
        entry = L(key, phases)
        if entry is not None and entry[0] and entry[1]:
            out[name] = fn(entry)

    put("cli.run.verify_ms", "cli.run.verify", lambda e: _per_call(e, 1e6))
    put("code_model.decode_code.us", "code_model.decode_code", lambda e: _per_call(e, 1e3))
    put("code_model.expand.codewords_per_s", "code_model.expand", _rate)
    for metric in ("kendall", "linf"):
        for size in ("small", "large"):
            put(f"code_model.verify_snake.{metric}.{size}.codewords_per_s",
                f"code_model.verify_snake.{metric}.{size}.valid", _rate)
    for module, fn, n in (("rmgc", "build_rmgc", 5), ("rmgc", "build_rmgc", 8),
                          ("ksnake", "build_ksnake", 9),
                          ("linf_snake", "build_linf_snake", 10)):
        put(f"{module}.{fn}.n{n}.cold_ms", f"{module}.{fn}.n{n}",
            lambda e: _per_call(e, 1e6), phases=("cold",))
    for fn in ("unrank_k", "rank_k", "successor_k"):
        put(f"ksnake.{fn}.us", f"ksnake.{fn}.n9", lambda e: _per_call(e, 1e3))
    for fn in ("unrank_inf", "rank_inf", "successor_inf"):
        put(f"linf_snake.{fn}.us", f"linf_snake.{fn}.n10", lambda e: _per_call(e, 1e3))

    # Search: per spec, the mean over the calls that ran it.
    per_spec = {name: L(f"search.longest_snake.{name}") for name in SEARCH_SPECS}
    done = [e for e in per_spec.values() if e and e[3] == 0]
    exhaustive = [e for name, e in per_spec.items()
                  if e and SEARCH_SPECS[name].node_budget is None]
    budgeted = [e for name, e in per_spec.items()
                if e and SEARCH_SPECS[name].node_budget is not None and SEARCH_SPECS[name].n >= 7]
    if done:
        out["search.nodes"] = sum(e[2] // e[0] for e in exhaustive)
        out["search.nodes_per_s"] = sum(e[2] for e in done) / sum(e[1] for e in done) * 1e9
        out["search.proof_s"] = sum(e[1] / e[0] for e in exhaustive) / 1e9
        out["search.budgeted_spec_s"] = sum(e[1] / e[0] for e in budgeted) / 1e9
    return out


def _loop_ns(fn, args: list, min_s: float = 0.05) -> float:
    """Mean ns per call of fn(*a) over args, repeating passes for min_s."""
    ns = time.perf_counter_ns
    calls = 0
    t0 = ns()
    while True:
        for a in args:
            fn(*a)
        calls += len(args)
        elapsed = ns() - t0
        if elapsed >= min_s * 1e9:
            return elapsed / calls


def perm_core(p, words: list) -> dict[str, float]:
    """perm_core primitives over the workload's codewords and their
    neighbours in that list."""
    pushes = [(2 + i % (len(w) - 1), w) for i, w in enumerate(words)]
    pairs = [(a, b) for a, b in zip(words, words[1:]) if len(a) == len(b)]
    return {
        "perm_core.push_top.ns": _loop_ns(p.push_top, pushes),
        "perm_core.sign.ns": _loop_ns(p.sign, [(w,) for w in words]),
        "perm_core.kendall_distance.ns": _loop_ns(p.kendall_distance, pairs),
        "perm_core.linf_distance.ns": _loop_ns(p.linf_distance, pairs),
    }
