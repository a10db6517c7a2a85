"""search: one longest_snake(spec) per op, jobs=1.

Two fixed spec lists.  SPECS makes the timed rounds: every spec there runs
in under a tenth of a second, so a run repeats each one dozens of times.
LONG_SPECS are the specs that take 1.5 to 30 s per call: on a shared
machine a call that long varies by a fifth or more from one run to the next
(six back-to-back calls of the Kendall n=5 proof took 18.8 to 28.9 s), and
a run has no time to repeat them, so they cannot be timed steadily.  Every
traced run makes each of them once, checks it, and reports it in the
search.* layer metrics.  The timed rounds exercise the same paths on smaller
inputs: exhaustive Chebyshev n=5 proofs on two and three pushes, budgeted
searches at n=6, and the n=7 tables that the fault spec builds before it
fails.

Every round draws each spec's start permutation afresh from the run's
random stream, among starts that give the same search tree: any start for
Kendall specs (Kendall distance is invariant under relabelling values), the
identity or its reversal for Chebyshev specs (invariant under v -> n+1-v).
So node counts and optima do not depend on the seed or the round, while the
codes found do.  A Chebyshev spec has only these two starts, so a cache of
search results would still hit on it; see README.md.

The specs marked fault raise RecursionError inside the documented caps (a
named fault); they keep the identity start.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from perfbench import checks


@dataclass(frozen=True)
class SpecDef:
    n: int
    metric: str
    allowed_transitions: Optional[tuple[int, ...]] = None
    node_budget: Optional[int] = None
    optimum: Optional[int] = None  # what an exhaustive spec must prove
    fault: bool = False

    @property
    def name(self) -> str:
        return spec_name(self)


def spec_name(spec) -> str:
    """A stable name for a SearchSpec or SpecDef, e.g. kendall5_p35 or
    linf7_b20000."""
    name = f"{spec.metric}{spec.n}"
    allowed = spec.allowed_transitions
    if allowed is not None and tuple(allowed) != tuple(range(2, spec.n + 1)):
        name += "_p" + "".join(str(t) for t in allowed)
    if spec.node_budget is not None:
        name += f"_b{spec.node_budget}"
    return name


SPECS = (
    SpecDef(4, "kendall"),
    SpecDef(4, "linf", optimum=6),
    SpecDef(5, "linf", (4, 5), optimum=30),
    SpecDef(5, "linf", (2, 4, 5), optimum=30),
    SpecDef(6, "kendall", node_budget=50000),
    SpecDef(6, "linf", (5, 6), node_budget=20000),
    SpecDef(7, "kendall", (3, 5, 7), node_budget=20000, fault=True),
)
LONG_SPECS = (
    SpecDef(5, "kendall", (3, 5), optimum=57),
    SpecDef(5, "linf", optimum=30),
    SpecDef(7, "linf", node_budget=20000),
    SpecDef(8, "kendall", node_budget=20000, fault=True),
)


class Search:
    name = "search"

    def __init__(self, p, defs: tuple[SpecDef, ...] = SPECS) -> None:
        self.p = p
        self.defs = defs
        self.problems: list[str] = []
        self.sizes: dict[str, int] = {}
        self.words: dict[str, list] = {}  # codewords of each spec's best code

    def setup(self) -> None:
        # Nothing is built ahead of a search; one tiny search warms the path.
        self.p.longest_snake(self.p.SearchSpec(n=3, metric="kendall"))

    def prepare(self) -> None:
        pass

    def round(self, rng: random.Random) -> tuple[list, list]:
        search, specs = self.p.longest_snake, []
        for d in self.defs:
            start = tuple(range(1, d.n + 1))
            if not d.fault and d.metric == "kendall":
                start = tuple(rng.sample(start, d.n))
            elif not d.fault and rng.random() < 0.5:
                start = start[::-1]
            specs.append((self.p.SearchSpec(n=d.n, metric=d.metric,
                                            allowed_transitions=d.allowed_transitions,
                                            start=start, node_budget=d.node_budget), d))
        return [(search, (spec,)) for spec, _ in specs], specs

    def check(self, meta, out) -> tuple[str, int, str]:
        spec, d = meta
        name = spec_name(spec)
        if isinstance(out, RecursionError) and d.fault:
            return "fault", 0, f"{name}: RecursionError"
        if isinstance(out, BaseException):
            return "wrong", 0, f"{name}: raised {type(out).__name__}: {out}"
        best = out.best
        problem = checks.check_search(
            n=spec.n, metric=spec.metric, cyclic=spec.cyclic,
            allowed=spec.allowed_transitions, start=spec.start,
            exhaustive=spec.node_budget is None, optimum=d.optimum,
            size=out.size, proven_optimal=out.proven_optimal,
            best_start=None if best is None else best.start,
            transitions=None if best is None else best.transitions,
        )
        if problem:
            return "wrong", 0, f"{name}: {problem}"
        self.sizes[name] = out.size
        self.words[name] = checks.walk(best.start, best.transitions, best.cyclic)
        return "ok", out.size, ""

    def group(self, meta) -> str:
        """One group per spec: one search per round."""
        return meta[1].name

    def best_size(self, rounds: int) -> int:
        """Sum of the best sizes found over the spec list."""
        return sum(self.sizes.values())

    def layer_stats(self, rounds: int) -> dict:
        return {f"search.best_size.{name}": size for name, size in self.sizes.items()}

    def own_words(self) -> list:
        return [w for words in self.words.values() for w in words]
