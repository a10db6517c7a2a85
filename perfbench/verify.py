"""verify: one `permsnake verify` request per op, through cli.run in-process.

Inputs (one JSON code line each):
- `gen` output for ksnake N = 3, 5, 7, 9 and linf n = 4..10 in both variants;
- the three recorded octal Chebyshev codes (n = 4, 5, 6);
- the 57-codeword Kendall witness and its 60-codeword non-cyclic completion;
- codes that must come back invalid: the complete rmgc code for n = 5 under
  `--metric kendall`, and four corrupted non-cyclic copies of valid codes,
  cut near the middle and ended by one push, in a random choice, that lands
  within distance 1 of an earlier codeword.

Every round sends each code with a fresh start drawn from the run's random
stream, so no two rounds repeat a request: a Kendall code's start gets a
random relabelling of its values, a Chebyshev code's start is reversed
(v -> n+1-v) or not.  Pushes move positions and relabelling moves values,
so the relabelled start walks the relabelled codewords; both distances are
invariant under these relabellings, so each code keeps its size and its
verdict.  The corrupted copies are cut anew from each round's relabelled
sources.

Every request is `verify -` as a pipeline from `gen` would send it, without
`--force`.  The CLI refuses codes above its pairwise cap of 2000 codewords
unless forced, so the degree-9 Kendall code and both Chebyshev n=10 codes
fail at the cap every round (a named fault: the program cannot verify what
its own `gen` emits; forcing N=9 would take about 11 minutes).  These three
lines are sent as `gen` printed them, the same in every round and run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from typing import Optional

from perfbench import checks

PAIRWISE_CAP = 2000  # the CLI refuses larger codes without --force
CORRUPT_SOURCES = ("ksnake7", "linf9_odd-top", "witness57", "octal6")


def request(run, argv: list[str], text: str) -> tuple[int, str, str]:
    """`permsnake <argv>` with text on stdin; returns (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
    finally:
        sys.stdin = stdin
    return rc, out.getvalue(), err.getvalue()


def code_line(n: int, metric: Optional[str], start, transitions, cyclic: bool) -> str:
    return json.dumps({"n": n, "metric": metric, "start": list(start),
                       "transitions": list(transitions), "cyclic": cyclic},
                      separators=(",", ":"))


class Case:
    """One code as sent: its line, and the benchmark's own view of it."""

    def __init__(self, name: str, metric: str, start, transitions, cyclic: bool,
                 expect_valid: bool, size: int, words: Optional[list],
                 metric_flag: bool = False, line: Optional[str] = None) -> None:
        self.name = name
        self.metric = metric
        self.start = tuple(start)
        self.transitions = tuple(transitions)
        self.cyclic = cyclic
        self.expect_valid = expect_valid
        self.size = size
        self._words = words
        self.line = line or code_line(len(start), None if metric_flag else metric,
                                      start, transitions, cyclic)
        self.argv = ["verify", "-"] + (["--metric", metric] if metric_flag else [])
        self.metric_flag = metric_flag
        self.fault = size > PAIRWISE_CAP

    def words(self) -> list:
        if self._words is None:
            self._words = checks.walk(self.start, self.transitions, self.cyclic) or []
        return self._words

    def relabelled(self, rng: random.Random) -> "Case":
        n = len(self.start)
        if self.metric == "kendall":
            image = rng.sample(range(1, n + 1), n)
        else:
            image = list(range(1, n + 1))
            if rng.random() < 0.5:
                image.reverse()
        image.insert(0, 0)
        words = [tuple(image[v] for v in w) for w in self.words()]
        return Case(self.name, self.metric, words[0], self.transitions, self.cyclic,
                    self.expect_valid, self.size, words, self.metric_flag)


class Verify:
    name = "verify"

    def __init__(self, p) -> None:
        self.p = p
        self.cases: list[Case] = []
        self.problems: list[str] = []
        self.served = 0  # codewords in valid codes verified correctly, all rounds

    def _gen(self, *args: str) -> str:
        rc, out, err = request(self.p.cli_run, ["gen", *args], "")
        if rc != 0:
            raise RuntimeError(f"gen {' '.join(args)} exited {rc}: {err.strip()}")
        return out.strip()

    def setup(self) -> None:
        """The cold constructions behind every input, and one request on each
        side of the pure-Python/numpy switch."""
        p = self.p
        for N in (3, 5, 7, 9):
            p.build_ksnake(N)
        for n in range(4, 11):
            for variant in ("odd-top", "even-top"):
                p.build_linf_snake(n, variant)
        p.build_rmgc(5)
        for n in (4, 5, 6):
            p.recorded_octal_code(n)
        p.extend_to_complete(p.k5_witness_code())
        for code, metric in ((p.build_ksnake(5), "kendall"),
                             (p.build_linf_snake(9, "even-top"), "linf")):
            request(p.cli_run, ["verify", "-"], p.encode_code(code, metric))

    def prepare(self) -> None:
        """Render every input line and confirm each expected verdict with the
        benchmark's own check."""
        p = self.p
        lines: dict[str, tuple[str, str, Optional[int]]] = {}
        for N in (3, 5, 7, 9):
            lines[f"ksnake{N}"] = (self._gen("ksnake", "--n", str(N)), "kendall",
                                   checks.ksnake_size(N))
        for n in range(4, 11):
            for variant in ("odd-top", "even-top"):
                line = self._gen("linf", "--n", str(n), "--variant", variant)
                lines[f"linf{n}_{variant}"] = (line, "linf", checks.linf_size(n, variant))
        lines["rmgc5"] = (self._gen("rmgc", "--n", "5"), "kendall", None)
        for n in (4, 5, 6):
            lines[f"octal{n}"] = (p.encode_code(p.recorded_octal_code(n), "linf"), "linf", None)
        witness = p.k5_witness_code()
        lines["witness57"] = (p.encode_code(witness, "kendall"), "kendall", None)
        lines["completion60"] = (p.encode_code(p.extend_to_complete(witness), "kendall"),
                                 "kendall", None)
        for name, (line, metric, size) in lines.items():
            payload = json.loads(line)
            start, transitions, cyclic = payload["start"], payload["transitions"], payload["cyclic"]
            count = len(transitions) + (0 if cyclic else 1)
            valid = name != "rmgc5"
            case = Case(name, metric, start, transitions, cyclic, valid,
                        count if size is None else size, None, metric_flag=not valid,
                        line=line)
            if not case.fault:
                words = case.words()
                if not words:
                    self.problems.append(f"{name}: input repeats a codeword")
                elif (checks.first_violation(words, metric) is None) != valid:
                    self.problems.append(f"{name}: own check disagrees with the "
                                         f"expected verdict {valid}")
            self.cases.append(case)

    @staticmethod
    def _corrupt(src: Case, rng: random.Random) -> Case:
        """src cut after the first rank k from its middle on where a push,
        chosen in a random order, leads to a new word within distance 1 of
        the kept prefix.  The cut is not random, so that the request costs
        about the same in every round."""
        words = src.words()
        n = len(words[0])
        mid = len(words) // 2
        prefix = set(words[:mid])
        for k in range(mid, len(words) - 1):
            prefix.add(words[k])
            pushes = list(range(2, n + 1))
            rng.shuffle(pushes)
            for t in pushes:
                x = checks.push(t, words[k])
                if x in prefix:
                    continue
                if any(y in prefix for y in checks.ball(x, src.metric)):
                    return Case(f"corrupt_{src.name}", src.metric, src.start,
                                src.transitions[:k] + (t,), False, False, k + 2,
                                words[: k + 1] + [x])
        raise RuntimeError(f"no corrupting push found for {src.name}")

    def round(self, rng: random.Random) -> tuple[list, list]:
        cases = [c if c.fault else c.relabelled(rng) for c in self.cases]
        by_name = {c.name: c for c in cases}
        cases += [self._corrupt(by_name[name], rng) for name in CORRUPT_SOURCES]
        rng.shuffle(cases)
        run = self.p.cli_run
        return [(request, (run, c.argv, c.line)) for c in cases], cases

    def check(self, case: Case, out) -> tuple[str, int, str]:
        if isinstance(out, BaseException):
            return "wrong", 0, f"{case.name}: raised {type(out).__name__}: {out}"
        rc, stdout, stderr = out
        if case.fault and rc == 2 and not stdout:
            return "fault", 0, "verify refused a gen code at the pairwise cap"
        problem = checks.check_verify(rc, stdout, words=case.words(), metric=case.metric,
                                      cyclic=case.cyclic, size=case.size,
                                      expect_valid=case.expect_valid)
        if problem:
            return "wrong", 0, f"{case.name}: {problem}"
        if case.expect_valid:
            self.served += case.size
        return "ok", case.size, ""

    def group(self, case: Case) -> str:
        """One group per code: one request per round."""
        return case.name

    def best_size(self, rounds: int) -> int:
        """Codewords in the valid codes whose verdict checked correct, per round."""
        return self.served // rounds

    def layer_stats(self, rounds: int) -> dict:
        return {}

    def own_words(self) -> list:
        out = []
        for c in self.cases:
            if not c.fault:
                out.extend(c.words()[:256])
        return out
