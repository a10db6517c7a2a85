"""Snake-in-the-box codes over permutations under rank modulation.

Codewords are permutations of 1..n written in one-line notation as tuples.
The single move is push-to-the-top: ``push_top(i, p)`` lifts the element in
position i to the front.  A snake is a sequence of such moves whose states
stay pairwise at distance >= 2 in a chosen metric, either Kendall's tau
(adjacent-transposition distance) or the Chebyshev distance on one-line
entries (``linf``).
"""

from .bounds import (
    BoundsRow,
    bounds_table,
    ksnake_density,
    linf_upper,
    trivial_upper,
)
from .code_model import (
    GrayCode,
    SnakeReport,
    balance_gap,
    decode_code,
    encode_code,
    expand,
    verify_snake,
)
from .ksnake import (
    build_ksnake,
    ksnake_size,
    rank_k,
    successor_k,
    unrank_k,
)
from .linf_snake import (
    build_linf_snake,
    linf_size,
    rank_inf,
    successor_inf,
    unrank_inf,
)
from .perm_core import (
    MAX_N,
    format_perm,
    identity,
    kendall_distance,
    linf_distance,
    parse_perm,
    push_top,
    sign,
)
from .repro import (
    RECORDED_K5_CHECKPOINTS,
    RECORDED_OCTAL_CODES,
    emit_octal_code,
    extend_to_complete,
    k5_witness_code,
    parse_octal_code,
    recorded_octal_code,
)
from .rmgc import build_rmgc
from .search import SearchResult, SearchSpec, longest_snake

__version__ = "0.1.0"

__all__ = [
    "BoundsRow",
    "GrayCode",
    "MAX_N",
    "RECORDED_K5_CHECKPOINTS",
    "RECORDED_OCTAL_CODES",
    "SearchResult",
    "SearchSpec",
    "SnakeReport",
    "balance_gap",
    "bounds_table",
    "build_ksnake",
    "build_linf_snake",
    "build_rmgc",
    "decode_code",
    "emit_octal_code",
    "encode_code",
    "expand",
    "extend_to_complete",
    "format_perm",
    "identity",
    "k5_witness_code",
    "kendall_distance",
    "ksnake_density",
    "ksnake_size",
    "linf_distance",
    "linf_size",
    "linf_upper",
    "longest_snake",
    "parse_octal_code",
    "parse_perm",
    "push_top",
    "rank_inf",
    "rank_k",
    "recorded_octal_code",
    "sign",
    "successor_inf",
    "successor_k",
    "trivial_upper",
    "unrank_inf",
    "unrank_k",
    "verify_snake",
]
