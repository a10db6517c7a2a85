"""Command-line front end.

Machine-readable results go to stdout as one JSON object or value per line;
human diagnostics go to stderr.  Exit codes: 0 success/valid, 1 a code failed
verification or a repro check failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Optional

from .bounds import BoundsRow, bounds_table, linf_upper
from .code_model import GrayCode, _parse_code, decode_code, encode_code, verify_snake
from .ksnake import build_ksnake, rank_k, successor_k, unrank_k
from .linf_snake import (
    VARIANTS,
    build_linf_snake,
    rank_inf,
    successor_inf,
    unrank_inf,
)
from .perm_core import format_perm, parse_perm
from .repro import REPRO_CHECKS
from .rmgc import build_rmgc
from .search import SearchSpec, longest_snake

# Searches at n >= 6 run budgeted unless --exhaustive is given explicitly.
DEFAULT_NODE_BUDGET = 2_000_000

# verify refuses larger codes without --force, so that no request runs long:
# the 99,225 codewords of the degree-9 Kendall snake take 0.13-0.20 s wall
# from the command line, import included (2-core machine, Python 3.11, 7 runs).
VERIFY_CAP = 2000

REPRO_TARGETS = tuple(REPRO_CHECKS)


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every run
    call: building it takes about as long as a small verify request."""
    parser = argparse.ArgumentParser(
        prog="permsnake",
        description="Construct, verify, enumerate, search, and bound "
        "snake-in-the-box codes over permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a constructed code as JSON")
    p.add_argument("family", choices=("ksnake", "linf", "rmgc"))
    p.add_argument("--n", type=int, required=True, help="permutation length")
    p.add_argument("--variant", choices=VARIANTS, default="odd-top",
                   help="linf only: which parity leads the blocks")

    for name, needs in (("next", "perm"), ("rank", "perm"), ("unrank", "rank")):
        p = sub.add_parser(name, help=f"{name} within a constructed family")
        p.add_argument("--family", choices=("ksnake", "linf"), required=True)
        p.add_argument("--n", type=int, required=True, help="permutation length")
        if needs == "perm":
            p.add_argument("--perm", required=True, help="codeword, e.g. [3,1,2,4,5]")
        else:
            p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser("verify", help="verify JSON codes from a file or stdin")
    p.add_argument("file", nargs="?", default="-", help="path or - for stdin")
    p.add_argument("--metric", choices=("kendall", "linf"),
                   help="override the metric embedded in the JSON")
    p.add_argument("--force", action="store_true",
                   help=f"verify codes over {VERIFY_CAP} codewords")

    p = sub.add_parser("search", help="depth-first search for a longest snake")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--metric", choices=("kendall", "linf"), required=True)
    p.add_argument("--cyclic", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--transitions", help="comma-separated indices, e.g. 3,5")
    p.add_argument("--budget", type=int, help="node budget (placements)")
    p.add_argument("--exhaustive", action="store_true",
                   help="run to exhaustion (n <= 6)")
    p.add_argument("--start", help="start permutation (default identity)")

    p = sub.add_parser("bounds", help="bounds and construction sizes per n")
    p.add_argument("--n", type=int, help="single length")
    p.add_argument("--n-range", help="inclusive range, e.g. 4:10")

    p = sub.add_parser("repro", help="regenerate recorded artifacts and diff")
    p.add_argument("target", choices=REPRO_TARGETS)
    return parser


def _cmd_gen(args) -> int:
    if args.family == "ksnake":
        _emit_code_line(build_ksnake(args.n), "kendall")
    elif args.family == "linf":
        _emit_code_line(build_linf_snake(args.n, args.variant), "linf")
    else:
        _emit_code_line(build_rmgc(args.n), None)
    return 0


def _emit_code_line(code: GrayCode, metric: Optional[str]) -> None:
    print(encode_code(code, metric))
    _note(f"({code.n},{code.size}) {'complete code' if metric is None else metric + ' snake'}, "
          f"{'cyclic' if code.cyclic else 'non-cyclic'}")


def _family_perm(args):
    perm = parse_perm(args.perm)
    if len(perm) != args.n:
        raise ValueError(
            f"permutation has length {len(perm)}, --n says {args.n}"
        )
    return perm


def _require_odd(n: int) -> int:
    if n % 2 == 0 or n < 3:
        raise ValueError(f"the kendall family needs odd n >= 3, got {n}")
    return (n - 1) // 2


def _cmd_next(args) -> int:
    perm = _family_perm(args)
    if args.family == "ksnake":
        _emit(successor_k(_require_odd(args.n), perm))
    else:
        _emit(successor_inf(perm))
    return 0


def _cmd_rank(args) -> int:
    perm = _family_perm(args)
    if args.family == "ksnake":
        _require_odd(args.n)
        _emit(rank_k(perm))
    else:
        _emit(rank_inf(perm))
    return 0


def _cmd_unrank(args) -> int:
    if args.family == "ksnake":
        perm = unrank_k(_require_odd(args.n), args.rank)
    else:
        perm = unrank_inf(args.n, args.rank)
    print(format_perm(perm))
    return 0


def _cmd_verify(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc}") from None
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("no code JSON supplied")
    all_valid = True
    for i, ln in lines:
        try:
            # An over-cap line is refused before any entry is checked.  It lists
            # at least VERIFY_CAP transitions, a digit and a comma or bracket each,
            # so a shorter line skips this parse, which decode_code repeats
            # (perfbench's traced run times the calls to decode_code).
            if len(ln) > 2 * VERIFY_CAP and not args.force:
                (_, _, transitions, cyclic), _ = _parse_code(ln)
                size = len(transitions) + (not cyclic)
                if size > VERIFY_CAP:
                    raise ValueError(
                        f"code has {size} codewords (> {VERIFY_CAP}); "
                        "pass --force to verify it anyway"
                    )
            code, embedded = decode_code(ln)
            metric = args.metric or embedded
            if metric is None:
                raise ValueError(
                    "no metric: pass --metric or embed one in the code JSON"
                )
            report = verify_snake(code, metric)
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
        _emit(
            {
                "valid": report.valid,
                "metric": report.metric,
                "min_pairwise_distance": report.min_pairwise_distance,
                "witness": list(report.witness) if report.witness else None,
                "size": code.size,
            }
        )
        if report.valid:
            _note(f"valid ({code.n},{code.size}) {metric} snake")
        else:
            _note(
                f"INVALID: codewords {report.witness} at {metric} distance "
                f"{report.min_pairwise_distance}"
            )
            all_valid = False
    return 0 if all_valid else 1


def _cmd_search(args) -> int:
    transitions = None
    if args.transitions is not None:
        try:
            transitions = tuple(int(part) for part in args.transitions.split(","))
        except ValueError:
            raise ValueError(
                f"--transitions must be comma-separated integers, got "
                f"{args.transitions!r}"
            ) from None
    if args.exhaustive and args.budget is not None:
        raise ValueError("--exhaustive and --budget are mutually exclusive")
    budget = args.budget
    if budget is None and not args.exhaustive and args.n >= 6:
        budget = DEFAULT_NODE_BUDGET
        _note(f"n >= 6: defaulting to node budget {budget} (use --exhaustive to override)")
    start = parse_perm(args.start) if args.start is not None else None
    spec = SearchSpec(
        n=args.n,
        metric=args.metric,
        cyclic=args.cyclic,
        allowed_transitions=transitions,
        start=start,
        node_budget=budget,
    )
    result = longest_snake(spec)
    best = None
    if result.best is not None:
        best = json.loads(encode_code(result.best, args.metric))
    _emit(
        {
            "size": result.size,
            "proven_optimal": result.proven_optimal,
            "nodes": result.nodes,
            "best": best,
        }
    )
    if not result.proven_optimal:
        verdict = "not proven optimal"
    elif args.metric == "linf" and result.size < linf_upper(args.n):
        # Chebyshev distance changes when values are relabelled, so an
        # exhausted search proves nothing about codes that miss the start.
        verdict = "optimal through the start"
    else:
        verdict = "proven optimal"
    _note(
        f"longest {args.metric} snake found: size {result.size} ({verdict}), "
        f"{result.nodes} nodes over an orbit of {result.states} states"
    )
    return 0


def _row_json(row: BoundsRow) -> dict:
    out = dataclasses.asdict(row)
    out["ksnake_density"] = str(row.ksnake_density) if row.ksnake_density else None
    return out


def _cmd_bounds(args) -> int:
    if (args.n is None) == (args.n_range is None):
        raise ValueError("pass exactly one of --n or --n-range")
    if args.n is not None:
        lo = hi = args.n
    else:
        parts = args.n_range.split(":")
        if len(parts) != 2:
            raise ValueError(f"--n-range must look like 4:10, got {args.n_range!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"--n-range must be integers, got {args.n_range!r}") from None
    rows = bounds_table(lo, hi)
    header = (
        f"{'n':>3} {'trivial':>12} {'linf_up':>12} "
        f"{'ksnake':>8} {'density':>10} {'linf':>6}"
    )
    _note(header)
    for row in rows:
        _emit(_row_json(row))
        _note(
            f"{row.n:>3} {row.trivial_upper:>12} {row.linf_upper:>12} "
            f"{row.ksnake_size if row.ksnake_size is not None else '-':>8} "
            f"{str(row.ksnake_density) if row.ksnake_density is not None else '-':>10} "
            f"{row.linf_size if row.linf_size is not None else '-':>6}"
        )
    return 0


def _cmd_repro(args) -> int:
    total = failed = 0
    for name, ok in REPRO_CHECKS[args.target]():
        total += 1
        failed += not ok
        _note(f"{'ok  ' if ok else 'FAIL'} {name}")
    _emit({"target": args.target, "checks": total, "failed": failed, "ok": failed == 0})
    return 0 if failed == 0 else 1


_HANDLERS = {
    "gen": _cmd_gen,
    "next": _cmd_next,
    "rank": _cmd_rank,
    "unrank": _cmd_unrank,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "bounds": _cmd_bounds,
    "repro": _cmd_repro,
}


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        _note(f"error: {exc}")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
