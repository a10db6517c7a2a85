"""Recorded fixtures and the completion construction."""

import itertools

import pytest

from permsnake import (
    RECORDED_OCTAL_CODES,
    GrayCode,
    emit_octal_code,
    extend_to_complete,
    k5_witness_code,
    parse_octal_code,
    recorded_octal_code,
)
from permsnake.code_model import expand, verify_snake
from permsnake.ksnake import build_ksnake
from permsnake.perm_core import identity, sign


def test_octal_code_n4_exact_transitions():
    code = parse_octal_code(4, "55")
    assert code.transitions == (3, 4, 3, 3, 4, 3)
    assert verify_snake(code, "linf").valid


@pytest.mark.parametrize("n", sorted(RECORDED_OCTAL_CODES))
def test_recorded_octal_codes_are_valid_snakes(n):
    code = recorded_octal_code(n)
    assert code.size == {4: 6, 5: 30, 6: 90}[n]
    report = verify_snake(code, "linf")
    assert report.valid
    assert emit_octal_code(code) == RECORDED_OCTAL_CODES[n]


def test_octal_rejects_bad_digits():
    with pytest.raises(ValueError):
        parse_octal_code(4, "58")
    with pytest.raises(ValueError):
        parse_octal_code(4, "")
    with pytest.raises(ValueError, match="^octal codes need n >= 3, got 2$"):
        parse_octal_code(2, "5")


def test_no_recorded_octal_code_past_six():
    with pytest.raises(ValueError, match="^no recorded octal code for n=7$"):
        recorded_octal_code(7)


def test_octal_rejects_non_closing_bitstring():
    # "00" decodes to six pushes of t_4, which returns to start after four,
    # duplicating codewords before closure
    with pytest.raises(ValueError):
        parse_octal_code(4, "00")


def test_emit_requires_two_letter_alphabet():
    # alphabet {3, 5}, not {n-1, n}; from the identity, so the start check passes
    code = GrayCode(5, identity(5), build_ksnake(5).transitions, True)
    with pytest.raises(ValueError, match=r"^octal form needs every transition to be t_n or t_\{n-1\}$"):
        emit_octal_code(code)


def test_emit_refuses_what_the_octal_form_cannot_record():
    # "55"'s transitions from another start, and as a non-cyclic code: both
    # would parse back as the cyclic code from the identity
    transitions = (3, 4, 3, 3, 4, 3)
    with pytest.raises(ValueError, match=r"starts at \[2,1,3,4\]"):
        emit_octal_code(GrayCode(4, (2, 1, 3, 4), transitions, True))
    with pytest.raises(ValueError, match="not cyclic"):
        emit_octal_code(GrayCode(4, identity(4), transitions, False))


def test_emit_requires_whole_octal_digits():
    with pytest.raises(ValueError, match="^octal form needs a transition count divisible by 3$"):
        emit_octal_code(GrayCode(4, identity(4), (4, 4, 4, 4), True))


def test_witness_fixture():
    code = k5_witness_code()
    assert code.cyclic
    assert code.size == 57
    words = expand(code)
    assert len(set(words)) == 57
    assert all(sign(w) == 1 for w in words)
    report = verify_snake(code, "kendall")
    assert report.valid
    assert report.min_pairwise_distance == 2


def test_witness_misses_exactly_three_even_permutations():
    words = set(expand(k5_witness_code()))
    evens = {p for p in itertools.permutations(range(1, 6)) if sign(p) == 1}
    complement = sorted(evens - words)
    assert len(complement) == 3
    # the three absentees agree in their last two coordinates
    assert len({w[3] for w in complement}) == 1
    assert len({w[4] for w in complement}) == 1


def test_extend_to_complete_covers_alternating_group():
    extended = extend_to_complete(k5_witness_code())
    assert not extended.cyclic
    words = expand(extended)
    assert len(words) == 60
    evens = {p for p in itertools.permutations(range(1, 6)) if sign(p) == 1}
    assert set(words) == evens
    assert extended.transitions[:3] == (3, 3, 5)


def test_extend_to_complete_needs_complement_of_three():
    with pytest.raises(ValueError):
        extend_to_complete(build_ksnake(5))  # complement has 15 words


def test_extend_to_complete_needs_a_cyclic_code_of_length_five_or_more():
    with pytest.raises(ValueError, match="^extend_to_complete expects a cyclic code$"):
        extend_to_complete(GrayCode(5, identity(5), (5,), False))
    with pytest.raises(ValueError, match=r"^extend_to_complete needs n >= 5 \(uses a t_5 re-entry\)$"):
        extend_to_complete(build_ksnake(3))


def test_extend_to_complete_checks_the_size_before_enumerating():
    # 9 codewords against 9!/2 - 3; refused without walking A_9
    code = GrayCode(9, identity(9), (9,) * 9, True)
    with pytest.raises(ValueError, match=r"181437 codewords at n=9, got 9"):
        extend_to_complete(code)
