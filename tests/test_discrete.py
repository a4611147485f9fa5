import random
from fractions import Fraction

import pytest

from braidfloer.discrete import (
    DiscreteBraid,
    insert_duplicate_slot,
    discrete_to_word,
    snap,
    total_crossing_number,
    word_to_discrete,
    word_to_discrete_packed,
)
from braidfloer.errors import TransversalityError
from braidfloer.garside import left_normal_form
from braidfloer.words import StrandPermutation, exponent_sum, full_twist, word


def test_crossing_constant_strands():
    b = DiscreteBraid(
        2, 2,
        ((snap(-0.5), snap(-0.5)), (snap(0.5), snap(0.5))),
        StrandPermutation((0, 1)),
    )
    assert total_crossing_number(b) == 0


def test_crossing_sigma1():
    b = word_to_discrete(word(2, [1]))
    assert total_crossing_number(b) == 1
    assert b.period == 2


def test_crossing_full_twist():
    w = full_twist(3, 1)
    b = word_to_discrete(w)
    assert total_crossing_number(b) == 6
    assert exponent_sum(w) == 6


def test_word_to_discrete_examples():
    b = word_to_discrete(word(3, []))
    assert total_crossing_number(b) == 0 and b.period == 2
    half = word_to_discrete(word(3, [1, 2, 1]))
    assert total_crossing_number(half) == 3
    assert half.closure.image == (2, 1, 0)


def test_round_trip_simple():
    w = word(3, [1, 2])
    back = discrete_to_word(word_to_discrete(w))
    assert left_normal_form(back) == left_normal_form(w)


def test_round_trip_random_words():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(2, 5)
        length = rng.randrange(0, 13)
        w = word(n, [rng.randrange(1, n) for _ in range(length)])
        for builder in (word_to_discrete, word_to_discrete_packed):
            b = builder(w)
            assert total_crossing_number(b) == exponent_sum(w)
            back = discrete_to_word(b)
            assert left_normal_form(back) == left_normal_form(w)


def test_crossing_number_jitter_invariance():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(2, 4)
        w = word(n, [rng.randrange(1, n) for _ in range(rng.randrange(1, 8))])
        b = word_to_discrete(w)
        eps = Fraction(1, 2**12)
        anchors = tuple(
            tuple(v + eps * rng.randrange(-3, 4) for v in row) for row in b.anchors
        )
        jittered = DiscreteBraid(n, b.period, anchors, b.closure)
        assert total_crossing_number(jittered) == total_crossing_number(b)


def test_transversality_rejected():
    with pytest.raises(TransversalityError):
        DiscreteBraid(
            2, 2,
            ((snap(0.0), snap(0.5)), (snap(0.0), snap(-0.5))),
            StrandPermutation((0, 1)),
        )
    # tangency in the middle slot
    with pytest.raises(TransversalityError):
        DiscreteBraid(
            2, 2,
            ((snap(-0.5), snap(0.0)), (snap(0.5), snap(0.0))),
            StrandPermutation((0, 1)),
        )


def test_interior_transversal_equality_allowed():
    b = DiscreteBraid(
        2, 2,
        ((snap(-0.5), snap(0.0)), (snap(0.5), snap(0.0) + Fraction(0))),
        StrandPermutation((1, 0)),
    )
    # strands swap through an exact anchor contact at slot 1
    b2 = DiscreteBraid(
        2, 2,
        ((snap(-0.5), snap(0.0)), (snap(0.5), snap(-0.2))),
        StrandPermutation((0, 1)),
    )
    assert total_crossing_number(b2) == 2


def test_insert_duplicate_slot_keeps_braid():
    w = word(3, [1, 2, 1, 2])
    b = word_to_discrete(w)
    b2 = insert_duplicate_slot(b)
    assert b2.period == b.period + 1
    assert total_crossing_number(b2) == total_crossing_number(b)
    assert left_normal_form(discrete_to_word(b2)) == left_normal_form(w)
