import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidfloer import discrete, pipeline
from braidfloer.discrete import (
    SNAP,
    DiscreteBraid,
    DiscreteRelativeBraid,
    insert_duplicate_slot,
    discrete_to_word,
)
from braidfloer.errors import AmbiguousDiagramError, BraidInputError, TransversalityError
from braidfloer.garside import left_normal_form, twist_padding
from braidfloer.words import StrandPermutation, exponent_sum, half_twist_letters, word

import helpers
from helpers import (
    UncheckedBraid,
    fraction_braid,
    fractions_of,
    full_twist,
    positive_components,
    reference_check_transversality,
    reference_crossing_number,
    reference_discrete_to_word,
    reference_layers_to_discrete,
    reference_sample,
    snap,
    word_to_discrete,
    word_to_discrete_factored,
)

DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_crossing_constant_strands():
    b = fraction_braid(
        2, 2,
        ((snap(-0.5), snap(-0.5)), (snap(0.5), snap(0.5))),
        StrandPermutation((0, 1)),
    )
    assert b.crossings == 0


def test_crossing_sigma1():
    b = word_to_discrete(word(2, [1]))
    assert b.crossings == 1
    assert b.period == 2


def test_crossing_full_twist():
    w = full_twist(3, 1)
    b = word_to_discrete(w)
    assert b.crossings == 6
    assert exponent_sum(w) == 6


def test_word_to_discrete_examples():
    b = word_to_discrete(word(3, []))
    assert b.crossings == 0 and b.period == 2
    half = word_to_discrete(word(3, [1, 2, 1]))
    assert half.crossings == 3
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
        for builder in (word_to_discrete, word_to_discrete_factored):
            b = builder(w)
            assert b.crossings == exponent_sum(w)
            back = discrete_to_word(b)
            assert left_normal_form(back) == left_normal_form(w)


def test_factor_layers_read_back_slot_by_slot():
    """Each slot interval of the factor layout reads back as its own factor:
    the doubling heights leave no multiple point, not even under Delta."""
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randrange(2, 8)
        w = word(n, [rng.randrange(1, n) for _ in range(rng.randrange(0, 16))])
        layers = twist_padding(w).layers
        b = word_to_discrete_factored(w)
        assert b.period == max(len(layers), 2)
        for t, layer in enumerate(layers):
            # slot t, then slot t+1 held through the closure
            start, end = b.lattice[:, t].tolist(), b.lattice[:, t + 1].tolist()
            hold = StrandPermutation(tuple(start.index(v) for v in end))
            one = DiscreteBraid(b.lattice[:, t:t + 2].copy(), b.den, hold)
            assert left_normal_form(discrete_to_word(one)) == left_normal_form(word(n, layer))


def test_word_heights_reach_62_strands():
    """Delta on 62 strands, the most the int64 heights hold, reads back as
    Delta; 63 strands are refused by name."""
    b = discrete.layers_to_discrete(62, [half_twist_letters(62)], 2)
    nf = left_normal_form(discrete_to_word(b))
    assert (nf.infimum, nf.factors) == (1, ())
    with pytest.raises(BraidInputError, match="63 strands do not fit the int64 anchor heights"):
        discrete.layers_to_discrete(63, [[1]], 2)


def test_crossing_number_jitter_invariance():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(2, 4)
        w = word(n, [rng.randrange(1, n) for _ in range(rng.randrange(1, 8))])
        b = word_to_discrete(w)
        eps = Fraction(1, 2**12)
        anchors = tuple(
            tuple(v + eps * rng.randrange(-3, 4) for v in row) for row in fractions_of(b)
        )
        jittered = fraction_braid(n, b.period, anchors, b.closure)
        assert jittered.crossings == b.crossings


def test_transversality_rejected():
    with pytest.raises(TransversalityError):
        fraction_braid(
            2, 2,
            ((snap(0.0), snap(0.5)), (snap(0.0), snap(-0.5))),
            StrandPermutation((0, 1)),
        )
    # tangency in the middle slot
    with pytest.raises(TransversalityError):
        fraction_braid(
            2, 2,
            ((snap(-0.5), snap(0.0)), (snap(0.5), snap(0.0))),
            StrandPermutation((0, 1)),
        )


def test_interior_transversal_equality_allowed():
    b = fraction_braid(
        2, 2,
        ((snap(-0.5), snap(0.0)), (snap(0.5), snap(0.0) + Fraction(0))),
        StrandPermutation((1, 0)),
    )
    # strands swap through an exact anchor contact at slot 1
    b2 = fraction_braid(
        2, 2,
        ((snap(-0.5), snap(0.0)), (snap(0.5), snap(-0.2))),
        StrandPermutation((0, 1)),
    )
    assert b2.crossings == 2


def test_insert_duplicate_slot_keeps_braid():
    w = word(3, [1, 2, 1, 2])
    b = word_to_discrete(w)
    b2 = insert_duplicate_slot(b)
    assert b2.period == b.period + 1
    assert b2.crossings == b.crossings
    assert left_normal_form(discrete_to_word(b2)) == left_normal_form(w)


def test_anchor_view_refuses_int64_overflow():
    near = Fraction(1, 2**61)
    b = fraction_braid(2, 2, ((near, -near), (-near, near)), StrandPermutation((0, 1)))
    assert b.crossings == 2 == reference_crossing_number(b)
    assert b.lattice.tolist() == [[1, -1, 1], [-1, 1, -1]]
    with pytest.raises(BraidInputError, match="int64"):
        fraction_braid(2, 2, ((near, Fraction(1, 3)), (-near, near)), StrandPermutation((0, 1)))


@pytest.mark.parametrize("den", [2**62, 2**62 + 3, 0, -4])
def test_denominator_outside_the_int64_view_refused_at_construction(den):
    nums = np.array([[1, -1], [-1, 1]], dtype=np.int64)
    with pytest.raises(BraidInputError, match=f"anchor denominator {den} does not fit"):
        DiscreteBraid(nums, den, StrandPermutation((0, 1)))
    assert DiscreteBraid(nums, 2**62 - 1, StrandPermutation((0, 1))).crossings == 2


@pytest.mark.parametrize("nums", [
    [[1, -1], [-1, 1]],
    np.array([1, -1], dtype=np.int64),
    np.array([[1, -1], [-1, 1]], dtype=np.int32),
    np.array([[0.5, -0.5], [-0.5, 0.5]]),
], ids=["list", "1-D", "int32", "float"])
def test_anchor_numerators_other_than_a_2d_int64_array_refused(nums):
    with pytest.raises(BraidInputError, match="int64 \\(strands, period\\) array"):
        DiscreteBraid(nums, 2, StrandPermutation((0, 1)))


@DIFFERENTIAL
@given(st.lists(st.floats(-1, 1), min_size=1, max_size=8))
@example([0.5 / SNAP, 1.5 / SNAP, -2.5 / SNAP, 1.0, -1.0])  # ties round to even
def test_snapped_matches_the_fraction_snap(values):
    got = discrete.snapped(values)
    assert got.dtype == np.int64
    assert [Fraction(int(v), SNAP) for v in got] == [snap(v) for v in values]


def test_combined_denominator_outside_the_int64_view_refused():
    free = fraction_braid(1, 2, ((Fraction(1, 2**61), Fraction(-1, 2**61)),), StrandPermutation((0,)))
    with pytest.raises(BraidInputError, match=f"anchor denominator {3 * 2**61} does not fit"):
        DiscreteRelativeBraid(free, word_to_discrete(word(2, [1])))


def test_word_braids_match_the_fraction_height_reference(monkeypatch):
    """Factor-layered and one-letter-per-slot word braids hold the anchors
    and closure of the Fraction-height construction on the same layers."""
    layered = []
    build = discrete.layers_to_discrete

    def spy(n, layers, d):
        layered.append((build(n, layers, d), (n, layers, d)))
        return layered[-1][0]

    monkeypatch.setattr(discrete, "layers_to_discrete", spy)
    monkeypatch.setattr(helpers, "layers_to_discrete", spy)
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randrange(1, 6)
        w = word(n, [rng.randrange(1, n) for _ in range(rng.randrange(0, 12))] if n > 1 else [])
        word_to_discrete(w)
        word_to_discrete(w, max(len(w), 2) + rng.randrange(0, 3))
        word_to_discrete_factored(w)
    assert len(layered) == 240
    for b, args in layered:
        anchors, closure = reference_layers_to_discrete(*args)
        assert fractions_of(b) == anchors and b.closure == closure
        assert b.den == 2 ** (args[0] - 1) + 1


def test_combined_over_mixed_denominators():
    """A free strand on the SNAP grid and a word skeleton over 3 combine over
    the lcm of their denominators, as the Fraction concatenation does."""
    skeleton = word_to_discrete(word(2, [1]))
    free = fraction_braid(1, 2, ((snap(0.0625), snap(-0.3)),), StrandPermutation((0,)))
    assert (free.den, skeleton.den) == (SNAP, 3)
    both = DiscreteRelativeBraid(free, skeleton).combined()
    assert both.den == 3 * SNAP
    assert fractions_of(both) == fractions_of(free) + fractions_of(skeleton)
    assert both.closure == StrandPermutation((0, 2, 1))
    assert both.crossings == reference_crossing_number(
        UncheckedBraid(3, 2, fractions_of(free) + fractions_of(skeleton), both.closure)
    )


# -- the integer anchor view against the Fraction reference -----------------


def _outcome(fn):
    try:
        return ("ok", fn())
    except (TransversalityError, AmbiguousDiagramError, BraidInputError) as exc:
        return (type(exc).__name__, str(exc))


def assert_matches_reference(b, raw: UncheckedBraid) -> None:
    """`b` is the braid built from `raw`'s anchors, or the exception that
    building raised; checks, counts and words agree with the reference."""
    expected = _outcome(lambda: reference_check_transversality(raw))
    if isinstance(b, Exception):
        assert (type(b).__name__, str(b)) == expected
        return
    assert expected == ("ok", None)
    assert fractions_of(b) == raw.anchors and b.closure == raw.closure
    assert b.crossings == reference_crossing_number(raw)
    assert _outcome(lambda: discrete_to_word(b).letters) == _outcome(
        lambda: reference_discrete_to_word(raw).letters
    )


def _built(build):
    try:
        return build()
    except (TransversalityError, AmbiguousDiagramError, BraidInputError) as exc:
        return exc


def _raw(strands, anchors, closure) -> UncheckedBraid:
    return UncheckedBraid(strands, len(anchors[0]), tuple(anchors), closure)


POSITIVE_WORDS = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=16))
)


@DIFFERENTIAL
@given(POSITIVE_WORDS, st.sampled_from(["exact", "longer", "factored"]), st.integers(0, 3))
def test_anchor_view_matches_reference_on_words(nw, layout, duplicates):
    n, letters = nw
    w = word(n, letters)
    if layout == "factored":
        b = word_to_discrete_factored(w)
    else:
        b = word_to_discrete(w, None if layout == "exact" else max(len(w), 2) + 3)
    assert_matches_reference(b, _raw(n, fractions_of(b), b.closure))
    for _ in range(duplicates):
        dup = _built(lambda: insert_duplicate_slot(b))
        anchors = [row + row[-1:] for row in fractions_of(b)]
        assert_matches_reference(dup, _raw(n, anchors, b.closure))
        b = dup


# the desk's and the large workload's cyclic classes, as (inner, outer, ell)
BENCH_CYCLIC = [
    ((1, 2), (2, 1), 1), ((-3, 2), (-1, 2), -1), ((3, 2), (1, 2), 1), ((-1, 2), (1, 1), 0),
    ((1, 2), (-1, 2), 0), ((1, 2), (-1, 1), 0), ((-2, 3), (1, 2), 0), ((2, 1), (1, 2), 1),
    ((-3, 2), (4, 1), 1), ((3, 2), (3, 1), 2), ((4, 3), (3, 1), 2),
]


# equal radii put two strands on one circle: closure-slot coincidences and
# tangencies at some periods
DEGENERATE_CYCLIC = [
    ((1, 2), (2, 1), 1, (Fraction(2, 5), Fraction(2, 5), Fraction(9, 10)), (0.0, 0.0, 0.25)),
    ((3, 2), (1, 2), 1, (Fraction(1, 5), Fraction(1, 5), Fraction(1, 2)), (0.5, 0.125, 0.17)),
    ((1, 2), (-1, 2), 0, (Fraction(2, 5), Fraction(2, 5), Fraction(9, 10)), (0.125, 0.0, 0.25)),
]


def assert_sample_matches_reference(components, d):
    anchors, closure = reference_sample(components, d)
    raw = _raw(len(anchors), anchors, closure)
    assert_matches_reference(_built(lambda: pipeline._sample_components(components, d)), raw)


@DIFFERENTIAL
@given(st.sampled_from(BENCH_CYCLIC + DEGENERATE_CYCLIC), st.sampled_from([0.0, 0.013, 0.029]),
       st.integers(3, 40))
@example(DEGENERATE_CYCLIC[1], 0.029, 8)  # a tangency at slot 2
def test_anchor_view_matches_reference_on_cyclic_samples(cls, bump, d):
    inner, outer, ell, *shape = cls
    assert_sample_matches_reference(positive_components(inner, outer, ell, bump, *shape), d)


@pytest.mark.parametrize("cls", BENCH_CYCLIC, ids=str)
def test_anchor_view_matches_reference_at_fine_periods(cls):
    components = positive_components(*cls, 0.0)
    expected = pipeline._expected_crossings(components)
    d = min(8 * max(expected, 1) + 3, pipeline.FINE_SAMPLE_CAP)
    assert_sample_matches_reference(components, d)


# few anchor values, so contacts, tangencies, closure-slot coincidences and
# simultaneous crossings are common
ANCHOR_VALUES = st.sampled_from([Fraction(v, 4) for v in range(-4, 5)])


@st.composite
def hand_built(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    anchors = tuple(tuple(draw(st.lists(ANCHOR_VALUES, min_size=d, max_size=d))) for _ in range(n))
    return n, anchors, StrandPermutation(tuple(draw(st.permutations(range(n)))))


@settings(DIFFERENTIAL, max_examples=300)
@given(hand_built())
@example((2, ((Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(-1, 2))),
          StrandPermutation((0, 1))))
@example((2, ((Fraction(-1, 2), Fraction(0)), (Fraction(1, 2), Fraction(0))),
          StrandPermutation((0, 1))))
@example((3, ((Fraction(-1, 2), Fraction(1, 2)), (Fraction(0), Fraction(0)),
              (Fraction(1, 2), Fraction(-1, 2))), StrandPermutation((0, 1, 2))))
def test_anchor_view_matches_reference_on_hand_built_braids(case):
    n, anchors, closure = case
    b = _built(lambda: fraction_braid(n, len(anchors[0]), anchors, closure))
    assert_matches_reference(b, _raw(n, anchors, closure))


def test_relative_braid_refuses_contact_with_the_skeleton():
    skeleton = word_to_discrete(word(2, [1]))
    free = fraction_braid(1, 2, ((fractions_of(skeleton)[0][0], snap(0.9)),), StrandPermutation((0,)))
    with pytest.raises(TransversalityError, match="coincide at the closure slot"):
        DiscreteRelativeBraid(free, skeleton)
