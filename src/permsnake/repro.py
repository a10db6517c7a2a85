"""The recorded artifacts, rebuilt from scratch and compared with their pins.

REPRO_CHECKS maps each target to a function that rebuilds one artifact and
yields a (check name, ok) pair per pinned property.  It is the one copy of
these checks: `permsnake repro <target>` prints them and the acceptance suite
asserts them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterator

from .bounds import ksnake_density, linf_upper, trivial_upper
from .code_model import balance_gap, expand, verify_snake
from .ksnake import RECORDED_K5_CHECKPOINTS, build_ksnake
from .perm_core import format_perm, sign
from .search import (
    RECORDED_OCTAL_CODES,
    emit_octal_code,
    extend_to_complete,
    k5_witness_code,
    parse_octal_code,
)

__all__ = ["REPRO_CHECKS"]

Checks = Iterator[tuple[str, bool]]

# Sizes of the recorded octal Chebyshev snakes.
_OCTAL_SIZES = {4: 6, 5: 30, 6: 90}


def _ksnake5() -> Checks:
    code = build_ksnake(5)
    words = expand(code)
    yield "degree-5 code has 45 codewords", len(words) == 45
    for r, perm in RECORDED_K5_CHECKPOINTS:
        yield f"rank {r} is {format_perm(perm)}", words[r] == perm
    # each 15-codeword segment ends with t_3 t_3, the second one the stitch
    yield ("pushes at ranks 13, 28, 43 use t_3",
           all(code.transitions[15 * k + 13] == 3 for k in range(3)))
    yield ("segment stitches at ranks 14, 29, 44 use t_3",
           all(code.transitions[15 * k + 14] == 3 for k in range(3)))
    yield "kendall verification", verify_snake(code, "kendall").valid
    yield "balance gap <= 7", balance_gap(code) <= 7


def _witness() -> Checks:
    code = k5_witness_code()
    words = expand(code)
    yield "witness is cyclic", code.cyclic
    yield "57 distinct codewords", len(set(words)) == 57
    yield "all codewords even", all(sign(w) == 1 for w in words)
    yield "kendall verification", verify_snake(code, "kendall").valid
    evens = {p for p in itertools.permutations(range(1, 6)) if sign(p) == 1}
    complement = sorted(evens - set(words))
    yield "complement has 3 permutations", len(complement) == 3
    yield ("complement agrees at coordinates 4 and 5",
           len({w[3] for w in complement}) == 1 and len({w[4] for w in complement}) == 1)
    extended = extend_to_complete(code)
    ew = expand(extended)
    yield ("extension is non-cyclic with 60 codewords",
           not extended.cyclic and len(ew) == 60)
    yield "extension covers the alternating group", set(ew) == evens
    yield "extension starts with t_3 t_3 t_5", extended.transitions[:3] == (3, 3, 5)


def _octal() -> Checks:
    yield "recorded codes for n = 4, 5, 6", set(RECORDED_OCTAL_CODES) == set(_OCTAL_SIZES)
    for n, digits in sorted(RECORDED_OCTAL_CODES.items()):
        code = parse_octal_code(n, digits)
        want = _OCTAL_SIZES.get(n)
        yield f"n={n}: cyclic", code.cyclic
        yield f"n={n}: size {want}", code.size == want
        yield f"n={n}: three pushes per octal digit", code.size == 3 * len(digits)
        yield f"n={n}: valid linf snake", verify_snake(code, "linf").valid
        yield f"n={n}: octal round-trip", emit_octal_code(code) == digits


def _bounds() -> Checks:
    yield ("linf bound at 4..7 is 6/30/90/630",
           tuple(linf_upper(n) for n in range(4, 8)) == (6, 30, 90, 630))
    yield ("densities 1/2 and 3/8",
           (ksnake_density(3), ksnake_density(5)) == (Fraction(1, 2), Fraction(3, 8)))
    yield ("density ratio recursion up to degree 19",
           all(ksnake_density(2 * n + 1) / ksnake_density(2 * n - 1)
               == Fraction(2 * n - 1, 2 * n)
               for n in range(2, 10)))
    yield "recorded 57 within the trivial degree-5 bound", 57 <= trivial_upper(5) == 60


REPRO_CHECKS: dict[str, Callable[[], Checks]] = {
    "ksnake5": _ksnake5,
    "witness": _witness,
    "octal": _octal,
    "bounds": _bounds,
}
