"""The permsnake calls the workloads make, traced or not.

load() imports the package (that import is part of the measured set-up) and
returns a namespace of the public functions the workloads call.  With a
tracer, each of those functions carries a span at the benchmark's call site,
and the few bindings that cli.run, verify_snake and build_linf_snake look up
inside the package are replaced so their inner calls show as child spans.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from perfbench.search import spec_name
from perfbench.tracing import Tracer, patch

# Codes with more codewords than this count as "large" in the per-layer
# verify metrics; it is the size at which verify_snake leaves its pure-Python
# pairwise loop.
SMALL_CODE = 256


def _verify_key(args, out) -> str:
    code, metric = args[0], args[1]
    size = "small" if code.size <= SMALL_CODE else "large"
    verdict = "valid" if out is not None and out.valid else "invalid"
    return f"code_model.verify_snake.{metric}.{size}.{verdict}"


def load(tracer: Optional[Tracer] = None) -> SimpleNamespace:
    import permsnake
    from permsnake import cli, code_model, linf_snake

    p = SimpleNamespace(
        cli_run=cli.run,
        build_ksnake=permsnake.build_ksnake,
        build_linf_snake=permsnake.build_linf_snake,
        build_rmgc=permsnake.build_rmgc,
        expand=permsnake.expand,
        encode_code=permsnake.encode_code,
        rank_k=permsnake.rank_k,
        unrank_k=permsnake.unrank_k,
        successor_k=permsnake.successor_k,
        rank_inf=permsnake.rank_inf,
        unrank_inf=permsnake.unrank_inf,
        successor_inf=permsnake.successor_inf,
        longest_snake=permsnake.longest_snake,
        SearchSpec=permsnake.SearchSpec,
        k5_witness_code=permsnake.k5_witness_code,
        extend_to_complete=permsnake.extend_to_complete,
        recorded_octal_code=permsnake.recorded_octal_code,
        push_top=permsnake.push_top,
        sign=permsnake.sign,
        kendall_distance=permsnake.kendall_distance,
        linf_distance=permsnake.linf_distance,
    )
    if tracer is None:
        return p

    def key(prefix, n_of):
        """Aggregate calls per size: prefix.n<size>, size read off the args."""
        return lambda args, out: f"{prefix}.n{n_of(args)}"

    def length(args):
        return len(args[0])

    def first(args):
        return args[0]

    def degree(args):  # the Kendall functions take the order n of N = 2n+1
        return 2 * args[0] + 1

    def codewords(out, *args):
        return len(out)

    w = tracer.wrap
    for attr, name, n_of in (
        ("build_ksnake", "ksnake.build_ksnake", first),
        ("build_linf_snake", "linf_snake.build_linf_snake", first),
        ("build_rmgc", "rmgc.build_rmgc", first),
        ("rank_k", "ksnake.rank_k", length),
        ("unrank_k", "ksnake.unrank_k", degree),
        ("successor_k", "ksnake.successor_k", degree),
        ("rank_inf", "linf_snake.rank_inf", length),
        ("unrank_inf", "linf_snake.unrank_inf", first),
        ("successor_inf", "linf_snake.successor_inf", length),
    ):
        setattr(p, attr, w(getattr(p, attr), name, key=key(name, n_of)))
    p.cli_run = w(cli.run, "cli.run", key=lambda args, out: f"cli.run.{args[0][0]}")
    p.expand = w(p.expand, "code_model.expand", work=codewords)
    p.longest_snake = w(p.longest_snake, "search.longest_snake",
                        key=lambda args, out: f"search.longest_snake.{spec_name(args[0])}",
                        work=lambda out, *args: out.nodes)

    # Bindings looked up inside the package.
    patch(tracer, cli, "decode_code", "code_model.decode_code")
    patch(tracer, cli, "verify_snake", "code_model.verify_snake", key=_verify_key,
          work=lambda out, *args: args[0].size)
    patch(tracer, linf_snake, "verify_snake", "code_model.verify_snake", key=_verify_key,
          work=lambda out, *args: args[0].size)
    patch(tracer, code_model, "expand", "code_model.expand", work=codewords)
    for attr, name in (("build_ksnake", "ksnake.build_ksnake"),
                       ("build_linf_snake", "linf_snake.build_linf_snake"),
                       ("build_rmgc", "rmgc.build_rmgc")):
        patch(tracer, cli, attr, name, key=key(name, first))
    return p

