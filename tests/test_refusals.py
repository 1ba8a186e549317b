"""Refusals of library entry points: each input below ends in its error
class and a one-line message that names the problem."""

import copy
import dataclasses
import pickle
import re
from random import Random

import pytest

from vdk import (
    Alphabet,
    ArityMismatch,
    DisjointnessViolation,
    DoubleCylinder,
    MismatchedAlphabet,
    NormBound,
    NotFull,
    NotRelated,
    OverlappingDomain,
    TailWitness,
    VdkError,
    Word,
    bisection_act,
    check_certificate,
    clopen_normalize,
    empty_clopen,
    fixture,
    format_bisection,
    format_clopen,
    format_point,
    format_word,
    free_norm,
    from_table,
    germ_maps,
    identity,
    is_full,
    make_bisection,
    mv_act,
    mv_compose,
    mv_embed_factor,
    mv_from_json,
    mv_make,
    mv_to_json,
    parse_bisection,
    parse_clopen,
    parse_point,
    parse_table,
    parse_word,
    pingpong_verify,
    point_normalize,
    quad_compare,
    quadratic,
    split,
    sqrt_int,
    symmetric_set,
    to_table,
    whole_space,
    witness_cell,
    witness_holds,
)
from vdk.groupoid import bisection_to_json
from vdk.sampling import random_box_table

A21 = Alphabet(2, 1)
A22 = Alphabet(2, 2)
X1 = parse_point(A21, "(1)^inf")
X2 = parse_point(A21, "(2)^inf")
X31 = parse_point(Alphabet(3, 1), "(1)^inf")
X22 = parse_point(A22, "2:12(1)^inf")
X211 = parse_point(A21, "1(12)^inf")
C1 = parse_clopen(A21, "{1}")
SWAP = parse_table(A21, "{1->2,2->1}")
F, CERT = fixture("free2")
NU = Word(A22, 1, (1, 1))
W1 = Word(A21, 1, (1,))
A32 = Alphabet(3, 2)
# a complete code over (3,2), its last word given twice
REPEAT32 = [(w, w) for w in [Word(A32, 1)] + [Word(A32, 2, (t,)) for t in (1, 2, 3, 3)]]


def swap_on(m):
    return mv_embed_factor(SWAP, m, 0)


# id: (call, error class, the whole message)
_CASES = {
    "witness_cell_unrelated_default": (
        lambda: witness_cell(X1, X2), NotRelated,
        "points (1)^inf and (2)^inf have different tail classes"),
    # a witness holds two nonnegative ints and is checked against two
    # points of one alphabet; each of these used to pass, or to end in
    # AttributeError or TypeError
    "witness_cell_negative": (
        lambda: witness_cell(X1, X1, TailWitness(-1, -1)), VdkError,
        "witness positions must be nonnegative, got (-1, -1)"),
    "witness_holds_negative": (
        lambda: witness_holds(X1, X1, TailWitness(-3, -3)), VdkError,
        "witness positions must be nonnegative, got (-3, -3)"),
    "witness_bool_position": (
        lambda: witness_cell(X1, X1, TailWitness(True, 0)), VdkError,
        "witness position p must be an int, got bool"),
    "witness_str_position": (
        lambda: witness_cell(X1, X1, TailWitness(1, "a")), VdkError,
        "witness position q must be an int, got str"),
    "witness_holds_mixed_alphabets": (
        lambda: witness_holds(X1, X31, TailWitness(0, 0)), MismatchedAlphabet,
        "mixed alphabets: Alphabet(d=2, k=1), Alphabet(d=3, k=1)"),
    "witness_holds_str_witness": (
        lambda: witness_holds(X1, X1, "w"), VdkError, "expected a TailWitness, got str"),
    "witness_holds_str_point": (
        lambda: witness_holds("x", X1, TailWitness(0, 0)), VdkError,
        "expected a Point, got str"),
    "bisection_act_outside_source": (
        lambda: bisection_act(parse_bisection(A21, "{1<-1}"), X2), VdkError,
        "point (2)^inf is outside the source of the bisection"),
    "parse_table_no_pairs": (
        lambda: parse_table(A21, "{}"), VdkError, "a table needs at least one pair"),
    # a repeated cell overlaps itself, as a repeated table pair does; a
    # set used to merge the repeats, so each of these read as a bisection
    "parse_bisection_repeated_cell": (
        lambda: parse_bisection(A21, "{1<-1,1<-1,2<-2}"), OverlappingDomain,
        "domain words 1 and 1 overlap"),
    "make_bisection_repeated_cell": (
        lambda: make_bisection([(W1, W1), (W1, W1)]), OverlappingDomain,
        "domain words 1 and 1 overlap"),
    "make_bisection_repeated_cell_alphabet": (
        lambda: make_bisection([(W1, W1), (W1, W1)], A21), OverlappingDomain,
        "domain words 1 and 1 overlap"),
    "make_bisection_repeated_cell_beside_a_full_code": (
        lambda: make_bisection(REPEAT32, A32), OverlappingDomain,
        "domain words 2:3 and 2:3 overlap"),
    "to_table_one_cell": (
        lambda: to_table(parse_bisection(A21, "{1<-1}")), NotFull,
        "bisection with 1 cell does not cover the space"),
    "to_table_two_cells": (
        lambda: to_table(parse_bisection(A21, "{11<-1,12<-2}")), NotFull,
        "bisection with 2 cells does not cover the space"),
    "make_bisection_no_alphabet": (
        lambda: make_bisection([]), VdkError, "empty bisection needs an explicit alphabet"),
    "mv_make_box_arity": (
        lambda: mv_make([(((1,),), ((1,),))], 2), VdkError,
        "box (1) has 1 coordinates, expected 2"),
    "mv_make_letter": (
        lambda: mv_make([(((3,), ()), ((3,), ()))], 2), VdkError,
        "box coordinate letters must be 1 or 2, got (3,e)"),
    # True == 1 and 1.0 == 1, but neither is a letter, as for a Word
    "mv_make_letter_true": (
        lambda: mv_make([(((True,),), ((2,),)), (((2,),), ((True,),))], 1), VdkError,
        "box coordinate letters must be 1 or 2, got (True)"),
    "mv_make_letter_float": (
        lambda: mv_make([(((1.0,),), ((2,),)), (((2,),), ((1,),))], 1), VdkError,
        "box coordinate letters must be 1 or 2, got (1.0)"),
    "mv_make_no_pairs": (
        lambda: mv_make([], 2), VdkError, "a box table needs at least one pair"),
    "mv_compose_factor_counts": (
        lambda: mv_compose(swap_on(2), swap_on(3)), ArityMismatch,
        "factor counts differ: 2 vs 3"),
    "mv_act_point_count": (
        lambda: mv_act(swap_on(2), (X1,)), ArityMismatch, "expected 2 points, got 1"),
    "mv_act_point_alphabet": (
        lambda: mv_act(swap_on(2), (X1, X31)),
        ArityMismatch, "mv points live over d=2, k=1 coordinates"),
    "mv_embed_factor_not_v21": (
        lambda: mv_embed_factor(parse_table(Alphabet(3, 1), "{1->1,2->2,3->3}"), 2, 0),
        ArityMismatch, "only V_{2,1} tables embed coordinatewise"),
    "mv_from_json_not_object": (
        lambda: mv_from_json([1]), VdkError, "mv JSON must be an object, got list"),
    "mv_from_json_pairs_not_list": (
        lambda: mv_from_json({"m": 2, "pairs": "x"}), VdkError,
        "mv JSON 'pairs' must be a list, got 'x'"),
    "check_certificate_both": (
        lambda: check_certificate(F, NU, certificate=CERT, norm_bound=free_norm(2)), VdkError,
        "give exactly one of certificate or norm_bound"),
    "check_certificate_neither": (
        lambda: check_certificate(F, NU), VdkError,
        "give exactly one of certificate or norm_bound"),
    # True == 1, but a bool is no rational: it used to read as 1, and a
    # check against NormBound(True, ...) to pass against a bound of 1
    "quadratic_true": (
        lambda: quadratic(True), VdkError, "expected a rational number, got True"),
    "check_certificate_bool_norm_bound": (
        lambda: check_certificate(F, NU, norm_bound=NormBound(True, "x")), VdkError,
        "expected a rational number, got True"),
    "check_certificate_F_alphabet": (
        lambda: check_certificate(F, Word(Alphabet(3, 3), 1, (1,)), certificate=CERT),
        MismatchedAlphabet, "F must live in V_{3,3}, found element over (d=2, k=2)"),
    "pingpong_verify_empty_attractor": (
        lambda: pingpong_verify(dataclasses.replace(CERT, p_a=clopen_normalize(A22, []))),
        DisjointnessViolation, "attractor P_a is empty"),
    # each attractor is checked for its class before use: a str one used
    # to end in TypeError from the disjointness test
    "pingpong_verify_str_p_a": (
        lambda: pingpong_verify(dataclasses.replace(CERT, p_a="{1:11}")), VdkError,
        "expected a Clopen, got str"),
    "pingpong_verify_str_p_a_inv": (
        lambda: pingpong_verify(dataclasses.replace(CERT, p_a_inv="{1:11}")), VdkError,
        "expected a Clopen, got str"),
    "pingpong_verify_int_p_b": (
        lambda: pingpong_verify(dataclasses.replace(CERT, p_b=5)), VdkError,
        "expected a Clopen, got int"),
    "pingpong_verify_table_p_b_inv": (
        lambda: pingpong_verify(dataclasses.replace(CERT, p_b_inv=CERT.a)), VdkError,
        "expected a Clopen, got TableElement"),
    "pingpong_verify_str_generator": (
        lambda: pingpong_verify(dataclasses.replace(CERT, a="x")), VdkError,
        "expected a TableElement, got str"),
    "clopen_normalize_other_alphabet": (
        lambda: clopen_normalize(A21, [Word(A22, 2)]), MismatchedAlphabet,
        "word 2: is over Alphabet(d=2, k=2), not Alphabet(d=2, k=1)"),
    "radicand_zero": (
        lambda: quadratic(0, 1, 0), VdkError, "radicand must be positive, got 0"),
    "radicand_negative": (
        lambda: sqrt_int(-3), VdkError, "radicand must be positive, got -3"),
    # trial division below the limit ends after about 2^21 steps; a
    # radicand past it used to run for as long as its square root
    "radicand_2_64": (
        lambda: quadratic(1, 1, 2**64), VdkError, "radicand must be below 2**64, got a 65-bit int"),
    # the radicand is checked even when b = 0 leaves it out of the value
    "radicand_negative_b_zero": (
        lambda: quadratic(1, 0, -5), VdkError, "radicand must be positive, got -5"),
    "radicand_zero_b_zero": (
        lambda: quadratic(1, 0, 0), VdkError, "radicand must be positive, got 0"),
    "radicand_2_70_b_zero": (
        lambda: quadratic(1, 0, 2**70), VdkError, "radicand must be below 2**64, got a 71-bit int"),
    "add_sqrt2_sqrt3": (
        lambda: sqrt_int(2) + sqrt_int(3), VdkError,
        "cannot add sqrt(2) and sqrt(3) terms exactly"),
    "multiply_sqrt2_sqrt3": (
        lambda: sqrt_int(2) * sqrt_int(3), VdkError,
        "cannot multiply sqrt(2) by sqrt(3) exactly"),
    "alphabet_d1": (
        lambda: Alphabet(1, 1), VdkError, "tail alphabet needs d >= 2, got d=1"),
    "alphabet_k0": (
        lambda: Alphabet(2, 0), VdkError, "root alphabet needs k >= 1, got k=0"),
    # every entry point that takes an alphabet checks its class: these
    # used to build objects over a str or None, or to end in AttributeError
    "make_bisection_str_alphabet": (
        lambda: make_bisection([], "a"), VdkError, "expected an Alphabet, got str"),
    "parse_bisection_none_alphabet": (
        lambda: parse_bisection(None, "{}"), VdkError, "expected an Alphabet, got NoneType"),
    "parse_clopen_str_alphabet": (
        lambda: parse_clopen("a", "{}"), VdkError, "expected an Alphabet, got str"),
    "empty_clopen_str_alphabet": (
        lambda: empty_clopen("a"), VdkError, "expected an Alphabet, got str"),
    "whole_space_str_alphabet": (
        lambda: whole_space("a"), VdkError, "expected an Alphabet, got str"),
    # a non-iterable collection used to end in TypeError
    "point_normalize_int_period": (
        lambda: point_normalize(Word(A21, 1), 5), VdkError, "period must be iterable, got int"),
    "symmetric_set_int": (
        lambda: symmetric_set(5), VdkError, "symmetric set elements must be iterable, got int"),
    "clopen_normalize_int_words": (
        lambda: clopen_normalize(A21, 5), VdkError, "clopen words must be iterable, got int"),
    "clopen_normalize_tuple_alphabet": (
        lambda: clopen_normalize((2, 1), []), VdkError, "expected an Alphabet, got tuple"),
    "parse_word_str_alphabet": (
        lambda: parse_word("a", "1:1"), VdkError, "expected an Alphabet, got str"),
    "parse_point_str_alphabet": (
        lambda: parse_point("a", "(1)^inf"), VdkError, "expected an Alphabet, got str"),
    "parse_table_str_alphabet": (
        lambda: parse_table("a", "{1->1,2->2}"), VdkError, "expected an Alphabet, got str"),
    "identity_int_alphabet": (
        lambda: identity(2), VdkError, "expected an Alphabet, got int"),
    # operands of the wrong class, which used to end in AttributeError,
    # TypeError or ValueError, or (for ** True) to pass as ** 1
    "clopen_union_int": (lambda: C1 | 1, VdkError, "expected a Clopen, got int"),
    "clopen_union_table": (lambda: C1.union(SWAP), VdkError, "expected a Clopen, got TableElement"),
    "clopen_intersect_str": (lambda: C1 & "{1}", VdkError, "expected a Clopen, got str"),
    "clopen_minus_none": (lambda: C1 - None, VdkError, "expected a Clopen, got NoneType"),
    "clopen_xor_point": (lambda: C1 ^ X1, VdkError, "expected a Clopen, got Point"),
    "clopen_le_int": (lambda: C1 <= 3, VdkError, "expected a Clopen, got int"),
    "table_pow_float": (lambda: SWAP ** 1.5, VdkError, "exponent must be an int, got float"),
    "table_pow_str": (lambda: SWAP ** "2", VdkError, "exponent must be an int, got str"),
    "table_pow_bool": (lambda: SWAP ** True, VdkError, "exponent must be an int, got bool"),
    "is_full_table": (lambda: is_full(SWAP), VdkError, "expected a Bisection, got TableElement"),
    "to_table_table": (lambda: to_table(SWAP), VdkError, "expected a Bisection, got TableElement"),
    "from_table_bisection": (
        lambda: from_table(from_table(SWAP)), VdkError, "expected a TableElement, got Bisection"),
    "format_bisection_table": (
        lambda: format_bisection(SWAP), VdkError, "expected a Bisection, got TableElement"),
    "bisection_to_json_table": (
        lambda: bisection_to_json(SWAP), VdkError, "expected a Bisection, got TableElement"),
    "germ_maps_str": (lambda: germ_maps("c"), VdkError, "expected a DoubleCylinder, got str"),
    # a cell's words used to be read for their alphabets first, ending in AttributeError
    "germ_maps_str_word": (
        lambda: germ_maps(DoubleCylinder("1", W1)), VdkError, "expected a Word, got str"),
    "mv_to_json_table": (lambda: mv_to_json(SWAP), VdkError, "expected a BoxTable, got TableElement"),
    "format_clopen_point": (lambda: format_clopen(X1), VdkError, "expected a Clopen, got Point"),
    "format_point_clopen": (lambda: format_point(C1), VdkError, "expected a Point, got Clopen"),
    "format_word_point": (lambda: format_word(X1), VdkError, "expected a Word, got Point"),
    "fixture_list": (lambda: fixture([]), VdkError, "expected a str, got list"),
    "split_str": (lambda: split("x"), VdkError, "expected a Word, got str"),
    # a word holds an Alphabet, a root in 1..k and a tuple of letters in 1..d
    "word_tuple_alphabet": (
        lambda: Word((2, 1), 1), VdkError, "expected an Alphabet, got tuple"),
    "word_root_0": (lambda: Word(A32, 0), VdkError, "root letter 0 outside 1..2"),
    "word_root_k_plus_1": (lambda: Word(A32, 3, (1,)), VdkError, "root letter 3 outside 1..2"),
    "word_root_str": (
        lambda: Word(A32, "1"), VdkError, "root letter must be an int, got str"),
    "word_root_bool": (
        lambda: Word(A32, True), VdkError, "root letter must be an int, got bool"),
    "word_tail_list": (lambda: Word(A32, 1, [1, 2]), VdkError, "expected a tuple, got list"),
    "word_tail_letter_0": (
        lambda: Word(A32, 2, (1, 0)), VdkError, "tail letter 0 outside 1..3"),
    "word_tail_letter_d_plus_1": (
        lambda: Word(A32, 2, (3, 4, 1)), VdkError, "tail letter 4 outside 1..3"),
    "word_tail_letter_bool": (
        lambda: Word(A21, 1, (2, True)), VdkError, "tail letter must be an int, got bool"),
    "mv_act_int_points": (
        lambda: mv_act(swap_on(2), 5), VdkError, "mv points must be iterable, got int"),
    # point positions count tail letters: a negative one used to read the
    # root as a tail letter, give a packed word of 0, or raise ValueError,
    # and a str one raised TypeError
    "tail_stream_negative": (
        lambda: X22.tail_stream(-1), VdkError, "tail position must be nonnegative, got -1"),
    "packed_prefix_negative": (
        lambda: X211.packed_prefix(-1), VdkError, "prefix length must be nonnegative, got -1"),
    "prefix_negative": (
        lambda: X211.prefix(-1), VdkError, "prefix length must be nonnegative, got -1"),
    "tail_stream_str": (
        lambda: X22.tail_stream("1"), VdkError, "tail position must be an int, got str"),
    "packed_prefix_float": (
        lambda: X211.packed_prefix(1.0), VdkError, "prefix length must be an int, got float"),
    "prefix_str": (lambda: X211.prefix("1"), VdkError, "prefix length must be an int, got str"),
    "letters_str": (lambda: X211.letters("1"), VdkError, "letter count must be an int, got str"),
    "letters_none": (
        lambda: X211.letters(None), VdkError, "letter count must be an int, got NoneType"),
    # near misses of the compact code text, which the one-pass reader does
    # not match: the item path reads them and refuses each as it did
    "parse_table_root_0": (
        lambda: parse_table(A22, "{0:->1:,2:->2:}"), VdkError, "root letter 0 outside 1..2"),
    "parse_table_root_k_plus_1": (
        lambda: parse_table(A22, "{1:->3:,2:->2:}"), VdkError, "root letter 3 outside 1..2"),
    "parse_table_letter_0": (
        lambda: parse_table(A32, "{1:1->1:10,1:2->1:2,1:3->1:3,2:->2:}"), VdkError,
        "tail letter 0 outside 1..3"),
    "parse_table_letter_d_plus_1": (
        lambda: parse_table(A32, "{1:4->1:1,1:2->1:2,1:3->1:3,2:->2:}"), VdkError,
        "tail letter 4 outside 1..3"),
    "parse_table_empty_word": (
        lambda: parse_table(A21, "{1->,2->2}"), VdkError,
        "empty word; the bare root is spelled 'r:', e.g. '1:'"),
    "parse_table_missing_arrow": (
        lambda: parse_table(A21, "{1->2,21}"), VdkError, "table pair '21' must look like mu->nu"),
    "parse_table_doubled_arrow": (
        lambda: parse_table(A21, "{1->2->1,2->1}"), VdkError, "cannot read tail letters from '2->1'"),
    "parse_table_trailing_comma": (
        lambda: parse_table(A21, "{1->2,2->1,}"), VdkError, "table pair '' must look like mu->nu"),
    "parse_table_inner_space": (
        lambda: parse_table(A21, "{1->2,2->1 1,2->12}"), VdkError,
        "cannot read tail letters from '1 1'"),
    "parse_bisection_root_0": (
        lambda: parse_bisection(A22, "{1:1<-0:}"), VdkError, "root letter 0 outside 1..2"),
    "parse_bisection_missing_arrow": (
        lambda: parse_bisection(A22, "{1:1<-2:,1:2}"), VdkError,
        "bisection cell '1:2' must look like nu<-mu"),
    "parse_bisection_doubled_arrow": (
        lambda: parse_bisection(A22, "{1:1<-2:<-1:}"), VdkError,
        "cannot read tail letters from '<-1:'"),
    "parse_bisection_table_arrow": (
        lambda: parse_bisection(A22, "{1:1->2:}"), VdkError,
        "bisection cell '1:1->2:' must look like nu<-mu"),
    "parse_bisection_trailing_comma": (
        lambda: parse_bisection(A22, "{1:1<-2:,}"), VdkError,
        "bisection cell '' must look like nu<-mu"),
    "parse_bisection_letter_d_plus_1": (
        lambda: parse_bisection(A32, "{1:4<-2:}"), VdkError, "tail letter 4 outside 1..3"),
    "parse_clopen_root_k_plus_1": (
        lambda: parse_clopen(A32, "{3:1}"), VdkError, "root letter 3 outside 1..2"),
    "parse_clopen_letter_0": (
        lambda: parse_clopen(A21, "{10}"), VdkError, "tail letter 0 outside 1..2"),
    "parse_clopen_empty_word": (
        lambda: parse_clopen(A21, "{1,,2}"), VdkError,
        "empty word; the bare root is spelled 'r:', e.g. '1:'"),
    "parse_clopen_trailing_comma": (
        lambda: parse_clopen(A22, "{1:1,}"), VdkError,
        "empty word; the bare root is spelled 'r:', e.g. '1:'"),
    "parse_clopen_inner_space": (
        lambda: parse_clopen(A22, "{1:1 2}"), VdkError, "cannot read tail letters from '1 2'"),
    "parse_clopen_no_root": (
        lambda: parse_clopen(A22, "{12}"), VdkError,
        "word '12' needs an explicit root 'r:' since k=2 > 1"),
    "parse_clopen_unbraced": (
        lambda: parse_clopen(A22, "1:12"), VdkError,
        "clopen must look like {w1,w2,...}, got '1:12'"),
    # words order only among words; these used to end in AttributeError
    "word_lt_int": (lambda: W1 < 5, VdkError, "expected a Word, got int"),
    "word_le_int": (lambda: W1 <= 5, VdkError, "expected a Word, got int"),
    "word_lt_str": (lambda: W1 < "1:1", VdkError, "expected a Word, got str"),
    "word_le_str": (lambda: W1 <= "1:1", VdkError, "expected a Word, got str"),
    "word_gt_int": (lambda: W1 > 5, VdkError, "expected a Word, got int"),
    "word_ge_int": (lambda: W1 >= 5, VdkError, "expected a Word, got int"),
    "word_gt_str": (lambda: W1 > "1:1", VdkError, "expected a Word, got str"),
    "int_lt_word": (lambda: 5 < W1, VdkError, "expected a Word, got int"),
}

# every frozen class refuses an assignment to any name, a field or not;
# with slots=True the names that are not fields ended in TypeError
_FROZEN = {
    "Alphabet": (A21, "zz"),
    "Point": (X1, "preperiod"),
    "DoubleCylinder": (DoubleCylinder(W1, W1), "degree"),
    "TailWitness": (TailWitness(0, 0), "zz"),
    "QuadraticValue": (sqrt_int(2), "zz"),
    "SymmetricSet": (F, "zz"),
    "NormBound": (free_norm(2), "zz"),
    "PingPongCertificate": (CERT, "zz"),
    "CertificateReport": (check_certificate(F, NU, certificate=CERT, strict=False), "zz"),
    # packed codes are no dataclasses, but frozen all the same: a stored
    # ping-pong verdict, a set's closure check and a hash read their codes
    "Clopen": (C1, "packed"),
    "TableElement": (SWAP, "packed"),
    "Bisection": (from_table(SWAP), "alphabet"),
    "Word": (NU, "alphabet"),
    # == and hash read a box table's slots; assignment and deletion used to pass
    "BoxTable": (random_box_table(Random(30), 2), "m"),
}
for _name, (_obj, _attr) in _FROZEN.items():
    _CASES["frozen_" + _name] = (
        lambda obj=_obj, attr=_attr: setattr(obj, attr, 1), dataclasses.FrozenInstanceError,
        "cannot assign to field %r" % _attr)
for _name in ("Clopen", "TableElement", "Bisection", "Word", "BoxTable"):
    _CASES["frozen_delete_" + _name] = (
        lambda obj=_FROZEN[_name][0]: delattr(obj, "packed"), dataclasses.FrozenInstanceError,
        "cannot delete field 'packed'")


@pytest.mark.parametrize("case", sorted(_CASES))
def test_refusal_class_and_one_line_message(case):
    call, error, message = _CASES[case]
    with pytest.raises(error, match="^%s$" % re.escape(message)) as exc:
        call()
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_frozen_classes_copy_and_pickle(name):
    obj, _ = _FROZEN[name]
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj


def test_point_positions_at_zero_and_letter_counts_below_it():
    assert X211.letters(0) == () and X211.letters(-3) == ()
    assert X22.tail_stream(0) == ((1, 2), (1,))
    assert X211.prefix(0) == Word(A21, 1)


# every call that takes an exact value converts it once; these values
# used to end in ValueError, TypeError or OverflowError from Fraction,
# or (bools) to read as 0 and 1
_NOT_RATIONAL = ["a", None, float("nan"), float("inf"), [1], True, False]
_EXACT_VALUE_CALLS = {
    "quadratic_a": lambda v: quadratic(v),
    "quadratic_b": lambda v: quadratic(1, v, 2),
    "add": lambda v: sqrt_int(2) + v,
    "radd": lambda v: v + sqrt_int(2),
    "sub": lambda v: sqrt_int(2) - v,
    "rsub": lambda v: v - sqrt_int(2),
    "mul": lambda v: sqrt_int(2) * v,
    "lt": lambda v: sqrt_int(2) < v,
    "le": lambda v: sqrt_int(2) <= v,
    "gt": lambda v: sqrt_int(2) > v,
    "ge": lambda v: sqrt_int(2) >= v,
    "quad_compare_first": lambda v: quad_compare(v, sqrt_int(2)),
    "quad_compare_second": lambda v: quad_compare(sqrt_int(2), v),
}


@pytest.mark.parametrize("case", sorted(_EXACT_VALUE_CALLS))
def test_exact_value_refusals_name_the_value(case):
    call = _EXACT_VALUE_CALLS[case]
    for v in _NOT_RATIONAL:
        message = "expected a rational number, got %r" % (v,)
        with pytest.raises(VdkError, match="^%s$" % re.escape(message)):
            call(v)
    # ints, rational strings and binary floats keep working
    for v in (3, "1/2", 0.5):
        call(v)
