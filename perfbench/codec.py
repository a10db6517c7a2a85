"""codec: the calls a rank-modulation memory makes on a cell group.

Families: Kendall snakes of degree 7 and 9, Chebyshev snakes of length 8
and 10 (default variant).  Every round holds, per family, 256 writes
(unrank of a random rank), 256 reads (rank of a codeword), 256 steps
(successor, then push_top) and 64 corrupted reads, shuffled together.  Each
round draws new ranks, new Chebyshev corrupted words and a new order from
the run's random stream, so no two rounds repeat a request list.

The mix is a fixed choice, not a measured one: no published trace gives the
read/write/error pattern of a rank-modulation memory.  Writes, reads and
steps get equal weight so that both directions of the enumeration and the
push-to-top rewrite count alike; one read in five is corrupted, enough for
a steady count of refusals without letting the error path dominate.  The
per-function layer metrics let a reader re-weight the mix.

A corrupted read is the rank of a word one error away from a codeword: one
adjacent swap for Kendall, one swap of the values v and v+1 for Chebyshev.
No such word is a codeword, so the read must be refused.  rank_k accepts
most of them (a named fault), so its corrupted reads come from a fixed list
that does not depend on the seed and is the same in every round: every
round fails the same ones, and the failed share stays the same from run to
run.
"""

from __future__ import annotations

import random
from functools import partial

from perfbench import checks

FAMILIES = (("ksnake", 7), ("ksnake", 9), ("linf", 8), ("linf", 10))
PER_ROUND = {"write": 256, "read": 256, "step": 256, "corrupt": 64}
FIXED_CORRUPT_SEED = 1107  # seeds the fixed Kendall corrupted-read list


def _stepper(succ, push):
    def step(w):
        return push(succ(w), w)

    return step


class Codec:
    name = "codec"

    def __init__(self, p) -> None:
        self.p = p
        self.fams: list[dict] = []
        self.problems: list[str] = []
        self.rejected = 0  # Kendall corrupted reads refused, over all rounds

    def setup(self) -> None:
        """The cold constructions and one warm-up call of each kind."""
        p = self.p
        for kind, n in FAMILIES:
            if kind == "ksnake":
                code = p.build_ksnake(n)
                half = (n - 1) // 2
                write = partial(p.unrank_k, half)
                read = p.rank_k
                step = _stepper(partial(p.successor_k, half), p.push_top)
            else:
                code = p.build_linf_snake(n)
                write = partial(p.unrank_inf, n)
                read = p.rank_inf
                step = _stepper(p.successor_inf, p.push_top)
            # A lazily built table would be paid for here, not in an op.
            w = write(0)
            read(w), step(w)
            self.fams.append(dict(kind=kind, n=n, code=code, write=write,
                                  read=read, step=step, served_ok=True))

    def prepare(self) -> None:
        """Reference codewords from the construction path, checked to be a
        snake of the closed-form size, and the fixed Kendall corrupted reads."""
        fixed = random.Random(FIXED_CORRUPT_SEED)
        for fam in self.fams:
            kind, n = fam["kind"], fam["n"]
            words = fam["words"] = self.p.expand(fam["code"])
            metric = "kendall" if kind == "ksnake" else "linf"
            size = checks.ksnake_size(n) if kind == "ksnake" else checks.linf_size(n, "odd-top")
            if len(words) != size:
                self.problems.append(f"{kind} n={n}: {len(words)} codewords, expected {size}")
            bad = checks.first_violation(words, metric)
            if bad is not None:
                self.problems.append(f"{kind} n={n}: codewords {bad} at distance < 2")
            if kind == "ksnake":
                fam["fixed"] = []
                for _ in range(PER_ROUND["corrupt"]):
                    w = words[fixed.randrange(len(words))]
                    s = fixed.randrange(n - 1)
                    fam["fixed"].append(w[:s] + (w[s + 1], w[s]) + w[s + 2 :])

    def round(self, rng: random.Random) -> tuple[list, list]:
        """Fresh writes, reads, steps and Chebyshev corrupted reads, the fixed
        Kendall corrupted reads, in a fresh order."""
        ops, metas = [], []
        for f, fam in enumerate(self.fams):
            words, n = fam["words"], fam["n"]
            m = len(words)
            for kind, fn in (("write", fam["write"]), ("read", fam["read"]),
                             ("step", fam["step"])):
                for _ in range(PER_ROUND[kind]):
                    r = rng.randrange(m)
                    ops.append((fn, (r,) if kind == "write" else (words[r],)))
                    metas.append((kind, f, r))
            if fam["kind"] == "ksnake":
                corrupted = fam["fixed"]
            else:
                corrupted = []
                for _ in range(PER_ROUND["corrupt"]):
                    w = list(words[rng.randrange(m)])
                    v = rng.randrange(1, n)
                    i, j = w.index(v), w.index(v + 1)
                    w[i], w[j] = w[j], w[i]
                    corrupted.append(tuple(w))
            for w in corrupted:
                ops.append((fam["read"], (w,)))
                metas.append(("corrupt", f, None))
        order = list(range(len(ops)))
        rng.shuffle(order)
        return [ops[i] for i in order], [metas[i] for i in order]

    def check(self, meta, out) -> tuple[str, int, str]:
        kind, f, r = meta
        fam = self.fams[f]
        words = fam["words"]
        if kind == "write":
            problem = checks.check_equal(words[r], out)
        elif kind == "read":
            problem = checks.check_equal(r, out)
        elif kind == "step":
            problem = checks.check_equal(words[(r + 1) % len(words)], out)
        else:
            problem = checks.check_rejected(out)
            if problem is None:
                self.rejected += fam["kind"] == "ksnake"
                return "ok", 0, ""  # refused, so no codeword served
            if fam["kind"] == "ksnake" and isinstance(out, int):
                return "fault", 0, f"rank_k accepted a corrupted read: {problem}"
        if problem is None:
            return "ok", 1, ""
        fam["served_ok"] = False
        return "wrong", 0, f"{fam['kind']} n={fam['n']} {kind}: {problem}"

    def group(self, meta) -> tuple:
        """One group per family and kind of op: 256 or 64 ops per round."""
        return meta[0], meta[1]

    def best_size(self, rounds: int) -> int:
        """Codewords in the codes every write, read and step served correctly."""
        return sum(len(f["words"]) for f in self.fams if f["served_ok"])

    def layer_stats(self, rounds: int) -> dict:
        return {"ksnake.rank_k.rejected": self.rejected // rounds}

    def own_words(self) -> list:
        out = []
        for fam in self.fams:
            words = fam["words"]
            stride = max(1, len(words) // 1024)
            out.extend(words[::stride][:1024])
        return out
