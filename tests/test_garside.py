import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidfloer.garside import (
    is_left_weighted,
    left_normal_form,
    twist_padding,
)
from braidfloer.pipeline import cyclic_spec, realize
from braidfloer.words import (
    compose,
    exponent_sum,
    full_twist,
    permutation_of,
    random_rewrite,
    word,
)

from helpers import (
    nf_to_word,
    positive_words_equal,
    random_word,
    reference_left_normal_form,
    signed_words_equal,
)


@st.composite
def signed_words(draw):
    """Words on up to 6 strands and 80 letters; the length is drawn first,
    since st.lists alone rarely reaches 80 letters."""
    n = draw(st.integers(2, 6))
    length = draw(st.integers(0, 80))
    letters = st.sampled_from([*range(1, n), *range(1 - n, 0)])
    return word(n, draw(st.lists(letters, min_size=length, max_size=length)))


# (inner, outer, ell) of the desk workload's cyclic classes that have a base
# word; that of cyclic[-2/3,0,1/2] has 65 letters on 6 strands, 30 negative
DESK_CYCLIC = [
    ((1, 2), (2, 1), 1),
    ((-3, 2), (-1, 2), -1),
    ((3, 2), (1, 2), 1),
    ((-1, 2), (1, 1), 0),
    ((1, 2), (-1, 2), 0),
    ((1, 2), (-1, 1), 0),
    ((-2, 3), (1, 2), 0),
    ((2, 1), (1, 2), 1),
]


def test_nf_permutation_braid():
    # sigma_1 sigma_2 is a single permutation braid (the 3-cycle)
    nf = left_normal_form(word(3, [1, 2]))
    assert nf.infimum == 0
    assert len(nf.factors) == 1
    assert nf.factors[0] == permutation_of(word(3, [1, 2]))


def test_nf_full_twist():
    nf = left_normal_form(full_twist(3, 1))
    assert (nf.infimum, nf.factors) == (2, ())


def test_nf_negative_pair():
    # sigma_1^{-1} sigma_2^{-1} = Delta^{-1} sigma_1 in B_3
    nf = left_normal_form(word(3, [-1, -2]))
    assert nf.infimum == -1
    assert len(nf.factors) == 1
    assert nf.factors[0] == permutation_of(word(3, [1]))
    # cross-check by the exhaustive signed-word oracle
    assert signed_words_equal(word(3, [-1, -2]), compose(full_twist(3, -1), word(3, [2, 1, 2, 1])))
    assert signed_words_equal(nf_to_word(nf), word(3, [-1, -2]))


def test_nf_b2_closed_form():
    # In B_2 every braid is Delta^e with Delta = sigma_1
    for e in range(-5, 6):
        letters = [1] * e if e >= 0 else [-1] * (-e)
        nf = left_normal_form(word(2, letters))
        assert (nf.infimum, nf.factors) == (e, ())


def test_nf_rewrite_invariance():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randrange(2, 5)
        w = random_word(rng, n, rng.randrange(0, 11))
        v = random_rewrite(w, rng, moves=30)
        assert left_normal_form(w) == left_normal_form(v)


def test_nf_idempotent_and_left_weighted():
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randrange(2, 5)
        w = random_word(rng, n, rng.randrange(0, 12))
        nf = left_normal_form(w)
        assert is_left_weighted(nf)
        assert left_normal_form(nf_to_word(nf)) == nf


def test_nf_central_shift():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(2, 5)
        w = random_word(rng, n, rng.randrange(0, 10))
        nf = left_normal_form(w)
        up = left_normal_form(compose(w, full_twist(n, 1)))
        assert up.infimum == nf.infimum + 2
        assert up.factors == nf.factors
        # Delta^2 is central: twisting on the left gives the same normal form
        assert left_normal_form(compose(full_twist(n, 1), w)) == up


def test_twist_padding_positive_input():
    w = word(4, [1, 3, 2, 1])
    pad = twist_padding(w)
    assert pad.g == 0
    assert pad.positive_word.is_positive()
    assert left_normal_form(pad.positive_word) == left_normal_form(w)


def test_twist_padding_single_inverse():
    pad = twist_padding(word(2, [-1]))
    assert pad.g == 1
    assert [i * s for i, s in pad.positive_word.letters] == [1]


def test_twist_padding_negative_pair():
    pad = twist_padding(word(3, [-1, -2]))
    assert pad.g == 1
    assert pad.positive_word.is_positive()
    assert exponent_sum(pad.positive_word) == 4
    # Delta sigma_1: verify against the rewriting oracle
    assert positive_words_equal(pad.positive_word, word(3, [1, 2, 1, 1]))


def test_twist_padding_properties_random():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randrange(2, 5)
        w = random_word(rng, n, rng.randrange(0, 11))
        pad = twist_padding(w)
        assert pad.positive_word.is_positive()
        assert exponent_sum(pad.positive_word) == exponent_sum(w) + pad.g * n * (n - 1)
        assert left_normal_form(pad.positive_word).infimum >= 0
        assert left_normal_form(pad.positive_word) == left_normal_form(
            compose(w, full_twist(n, pad.g)) if pad.g else w
        )


def test_nf_matches_positive_oracle_small():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(2, 4)
        w = word(n, [rng.randrange(1, n) for _ in range(rng.randrange(1, 7))])
        v = random_rewrite(w, rng, moves=12)
        # rewriting may introduce cancelling pairs; normal forms must agree anyway
        assert left_normal_form(w) == left_normal_form(v)
        nfw = nf_to_word(left_normal_form(w))
        assert nfw.is_positive()
        assert positive_words_equal(nfw, w)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(signed_words())
def test_nf_matches_reference(w):
    assert left_normal_form(w) == reference_left_normal_form(w)


@pytest.mark.parametrize("spec", DESK_CYCLIC, ids=str)
def test_nf_matches_reference_on_desk_base_words(spec):
    w = realize(cyclic_spec(*spec), None)[2]
    assert left_normal_form(w) == reference_left_normal_form(w)
