"""The recorded artifacts, and the checks that rebuild them and compare.

The artifacts are the results recorded from the paper's computer searches:
21 checkpoints of the degree-5 Kendall snake, the two-transition Chebyshev
codes in octal form, and the 57-codeword cyclic Kendall snake of degree 5
with the completion that extends it to a non-cyclic code covering all of A_5.

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
from .code_model import GrayCode, _ranks, balance_gap, expand, verify_snake
from .ksnake import build_ksnake
from .perm_core import format_perm, identity, push_top, sign

__all__ = [
    "RECORDED_K5_CHECKPOINTS",
    "RECORDED_OCTAL_CODES",
    "REPRO_CHECKS",
    "emit_octal_code",
    "extend_to_complete",
    "k5_witness_code",
    "parse_octal_code",
    "recorded_octal_code",
]

# Recorded checkpoints of the degree-5 code: each 15-codeword segment is
# pinned at offsets 0, 3, 4, 8, 9, 13, 14 (segment heads, the codewords
# around each interior push-3, and the two codewords before the stitch).
# The ksnake5 target compares build_ksnake(5) against these rank/permutation
# pairs bit for bit.
RECORDED_K5_CHECKPOINTS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (0, (5, 3, 1, 2, 4)),
    (3, (1, 2, 4, 5, 3)),
    (4, (4, 1, 2, 5, 3)),
    (8, (1, 2, 5, 3, 4)),
    (9, (5, 1, 2, 3, 4)),
    (13, (1, 2, 3, 4, 5)),
    (14, (3, 1, 2, 4, 5)),
    (15, (2, 3, 1, 4, 5)),
    (18, (1, 4, 5, 2, 3)),
    (19, (5, 1, 4, 2, 3)),
    (23, (1, 4, 2, 3, 5)),
    (24, (2, 1, 4, 3, 5)),
    (28, (1, 4, 3, 5, 2)),
    (29, (3, 1, 4, 5, 2)),
    (30, (4, 3, 1, 5, 2)),
    (33, (1, 5, 2, 4, 3)),
    (34, (2, 1, 5, 4, 3)),
    (38, (1, 5, 4, 3, 2)),
    (39, (4, 1, 5, 3, 2)),
    (43, (1, 5, 3, 2, 4)),
    (44, (3, 1, 5, 2, 4)),
)

# Each octal digit encodes three transitions, most significant bit first;
# bit 0 stands for t_n and bit 1 for t_{n-1}.  All three codes are cyclic
# Chebyshev snakes from the identity (sizes 6, 30, 90).
RECORDED_OCTAL_CODES: dict[int, str] = {
    4: "55",
    5: "0212206063",
    6: "010204410222042124446130162347",
}

# The 57 transitions of the degree-5 witness repeat this 19-entry segment
# three times.
_K5_SEGMENT = (3, 3, 5, 3, 3, 5, 3, 5, 5, 3, 3, 5, 3, 3, 5, 3, 5, 5, 5)


def parse_octal_code(n: int, digits: str) -> GrayCode:
    """Decode an octal transition string into a cyclic code from the
    identity and validate it.

    >>> parse_octal_code(4, "55").transitions
    (3, 4, 3, 3, 4, 3)
    """
    if n < 3:
        raise ValueError(f"octal codes need n >= 3, got {n}")
    if not digits or any(c not in "01234567" for c in digits):
        raise ValueError(f"not an octal string: {digits!r}")
    transitions: list[int] = []
    for c in digits:
        d = int(c, 8)
        for shift in (2, 1, 0):
            transitions.append(n - 1 if (d >> shift) & 1 else n)
    code = GrayCode(n=n, start=identity(n), transitions=tuple(transitions), cyclic=True)
    expand(code)  # raises if codewords repeat or the cycle does not close
    return code


def emit_octal_code(code: GrayCode) -> str:
    """Inverse of parse_octal_code; bit-exact round-trip.  The octal form
    records neither the start nor the cyclic flag, so it refuses a code that
    is not cyclic from the identity.

    >>> emit_octal_code(parse_octal_code(5, "0212206063"))
    '0212206063'
    """
    n = code.n
    if not code.cyclic:
        raise ValueError("octal form records cyclic codes only, and this code is not cyclic")
    if code.start != identity(n):
        raise ValueError(
            f"octal form records codes from the identity, and this one starts at "
            f"{format_perm(code.start)}"
        )
    if any(t not in (n - 1, n) for t in code.transitions):
        raise ValueError("octal form needs every transition to be t_n or t_{n-1}")
    if len(code.transitions) % 3 != 0:
        raise ValueError("octal form needs a transition count divisible by 3")
    out = []
    for i in range(0, len(code.transitions), 3):
        d = 0
        for t in code.transitions[i : i + 3]:
            d = (d << 1) | (1 if t == n - 1 else 0)
        out.append(format(d, "o"))
    return "".join(out)


def recorded_octal_code(n: int) -> GrayCode:
    """One of the recorded two-transition Chebyshev snakes (n in 4..6)."""
    if n not in RECORDED_OCTAL_CODES:
        raise ValueError(f"no recorded octal code for n={n}")
    return parse_octal_code(n, RECORDED_OCTAL_CODES[n])


def k5_witness_code() -> GrayCode:
    """The recorded cyclic (5, 57) Kendall snake, started at the identity."""
    return GrayCode(
        n=5, start=identity(5), transitions=_K5_SEGMENT * 3, cyclic=True
    )


def extend_to_complete(code: GrayCode) -> GrayCode:
    """Extend a cyclic Kendall snake missing exactly three even permutations
    to a non-cyclic code covering the whole alternating group.

    The three missing permutations must form a push-3 cycle with a push-5
    landing back in the code; the result starts at the lexicographically
    least entry point, runs the two t_3 steps and the t_5 re-entry, then the
    whole original cycle.  The result is re-verified before returning.
    """
    if not code.cyclic:
        raise ValueError("extend_to_complete expects a cyclic code")
    if code.n < 5:
        raise ValueError("extend_to_complete needs n >= 5 (uses a t_5 re-entry)")
    # checked before enumerating the n!/2 even permutations
    want = trivial_upper(code.n) - 3
    if code.size != want:
        raise ValueError(
            f"extend_to_complete needs n!/2 - 3 = {want} codewords at n={code.n}, "
            f"got {code.size}"
        )
    word_index = _ranks(code)
    evens = [p for p in itertools.permutations(range(1, code.n + 1)) if sign(p) == 1]
    complement = sorted(set(evens) - word_index.keys())
    if len(complement) != 3:
        raise ValueError(
            f"complement of the code in the alternating group has "
            f"{len(complement)} permutations, expected 3"
        )
    for c0 in complement:
        c1 = push_top(3, c0)
        c2 = push_top(3, c1)
        if {c1, c2} != set(complement) - {c0} or push_top(3, c2) != c0:
            continue
        w = push_top(5, c2)
        r = word_index.get(w)
        if r is None:
            continue
        rotated = code.transitions[r:] + code.transitions[:r]
        result = GrayCode(
            n=code.n,
            start=c0,
            transitions=(3, 3, 5) + rotated[: len(word_index) - 1],
            cyclic=False,
        )
        report = verify_snake(result, "kendall")
        if not report.valid:
            raise AssertionError(
                f"extended code failed verification at pair {report.witness}"
            )
        return result
    raise ValueError(
        "the three missing permutations do not form a push-3 cycle with a "
        "push-5 re-entry into the code"
    )


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
