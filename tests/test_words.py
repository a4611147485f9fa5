import random

import pytest

from braidfloer.errors import BraidInputError
from braidfloer.words import (
    BraidWord,
    StrandPermutation,
    exponent_sum,
    permutation_of,
    random_rewrite,
    word,
)

from helpers import compose, cycles, free_reduce, full_twist, inverse

# The five-strand example braid from the generator figure.
FIG3 = word(5, [-4, 3, 1, 3, -2, 1, 2, -3, -4, 1, 2, 3, -4, 1, -2])


def test_exponent_sum_figure_braid():
    assert exponent_sum(FIG3) == 3


def test_exponent_sum_identity_and_cancellation():
    assert exponent_sum(word(3, [])) == 0
    w = word(4, [1, -2, 3])
    assert exponent_sum(compose(w, inverse(w))) == 0


def test_compose_trivial_cases():
    w = word(2, [1, -1])
    assert exponent_sum(w) == 0
    assert compose(word(3, []), FIG3.letters and word(3, [1])).letters == ((1, 1),)
    d2 = full_twist(3, 1)
    assert exponent_sum(compose(d2, d2)) == 12


def test_compose_strand_mismatch():
    with pytest.raises(BraidInputError):
        compose(word(2, [1]), word(3, [1]))


def test_permutation_basics():
    assert permutation_of(word(2, [1])).image == (1, 0)
    # full twists are pure braids
    for n in range(2, 6):
        for k in range(-3, 4):
            assert permutation_of(full_twist(n, k)).is_identity()
    # sigma_1 sigma_2 in B_3 is a 3-cycle
    p = permutation_of(word(3, [1, 2]))
    assert sorted(len(c) for c in cycles(p)) == [3]


def test_permutation_of_inverse_signs_ignored():
    assert permutation_of(word(3, [1, 2])) == permutation_of(word(3, [-1, -2]))


def test_full_twist_exponents():
    assert [i for i, _ in full_twist(2, 1).letters] == [1, 1]
    assert full_twist(3, 0).letters == ()
    assert exponent_sum(full_twist(3, -1)) == -6
    with pytest.raises(BraidInputError):
        full_twist(1, 1)


def test_exponent_additive_random():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(2, 5)
        a = word(n, [rng.randrange(1, n) * rng.choice((1, -1)) for _ in range(rng.randrange(0, 9))])
        b = word(n, [rng.randrange(1, n) * rng.choice((1, -1)) for _ in range(rng.randrange(0, 9))])
        assert exponent_sum(compose(a, b)) == exponent_sum(a) + exponent_sum(b)


def test_exponent_invariant_under_rewrites():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(2, 5)
        w = word(n, [rng.randrange(1, n) * rng.choice((1, -1)) for _ in range(8)])
        v = random_rewrite(w, rng, moves=20)
        assert exponent_sum(v) == exponent_sum(w)
        assert permutation_of(v) == permutation_of(w)
        assert exponent_sum(free_reduce(v)) == exponent_sum(w)


def test_bad_letters_rejected():
    with pytest.raises(BraidInputError):
        BraidWord(3, ((3, 1),))
    with pytest.raises(BraidInputError):
        BraidWord(3, ((1, 2),))
    with pytest.raises(BraidInputError):
        StrandPermutation((0, 0, 1))
