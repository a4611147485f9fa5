import itertools
import math
import random
from fractions import Fraction

import pytest

from braidfloer import pipeline
from braidfloer.cli import JobSpec, format_braid_text, main, parse_braid_text, run
from braidfloer.discrete import DiscreteRelativeBraid, discrete_to_word
from braidfloer.errors import BraidInputError, ImproperClassError, TransversalityError
from braidfloer.garside import left_normal_form, twist_padding
from braidfloer.pipeline import (
    CyclicComponent,
    RelativeBraidSpec,
    braid_floer_homology,
    cyclic_spec,
    enumerate_forced_fractions,
    forcing_report,
    word_spec,
)
from braidfloer.words import StrandPermutation, permutation_of, word

from helpers import (
    base_word,
    cycles,
    fraction_braid,
    positive_components,
    random_word,
    reference_split,
    snap,
    twisted,
    word_to_discrete,
)


def test_braids_unlinked_interval_case():
    spec = cyclic_spec((1, 2), (2, 1), ell=1)
    res = braid_floer_homology(spec)
    assert res.betti.as_dict() == {2: 1, 3: 1}
    assert res.g == 0 and res.shift_applied == 0
    assert res.payload()["stabilization_ok"] and res.payload()["proper"] is True
    assert res.betti.provenance == "conjecture-shifted"
    assert res.poincare == "t^2 + t^3"


def test_braids_reversed_case():
    spec = cyclic_spec((3, 2), (1, 2), ell=1)
    res = braid_floer_homology(spec)
    assert res.betti.as_dict() == {1: 1, 2: 1}


def test_negative_ell_shifts_below_zero():
    spec = cyclic_spec((-3, 2), (-1, 2), ell=-1)
    res = braid_floer_homology(spec)
    assert res.betti.as_dict() == {-2: 1, -1: 1}
    assert res.g == 2 and res.shift_applied == 4
    assert res.poincare == "t^-2 + t^-1"


def test_shift_theorem_on_cyclic_spec():
    spec = cyclic_spec((1, 2), (2, 1), ell=1)
    base = braid_floer_homology(spec)
    up = braid_floer_homology(twisted(spec, 1))
    down = braid_floer_homology(twisted(spec, -1))
    n = 1
    assert up.betti.as_dict() == {k + 2 * n: v for k, v in base.betti.as_dict().items()}
    assert down.betti.as_dict() == {k - 2 * n: v for k, v in base.betti.as_dict().items()}


def test_improper_spec_refused_with_witness():
    # single-strand inner component: the free strand can collapse onto it
    spec = cyclic_spec((2, 1), (1, 2), ell=1)
    with pytest.raises(ImproperClassError) as err:
        braid_floer_homology(spec)
    assert err.value.witness is not None


def test_word_route_saddle_class():
    # free strand between an exchanging pair: combined 3-strand positive word
    skel = word_to_discrete(word(2, [1]))
    free = fraction_braid(1, 2, ((snap(0.0625), snap(0.0625)),), StrandPermutation((0,)))
    combined = DiscreteRelativeBraid(free, skel).combined()
    w = discrete_to_word(combined)
    spec = word_spec(w, free_marks=[1], label="saddle")
    res = braid_floer_homology(spec)
    assert res.betti.as_dict() == {1: 1}
    assert res.g == 0


def test_word_route_shift():
    # negative twists go through the Garside padding; the positive direction
    # is exercised by the cyclic specs, whose representatives stay small
    skel = word_to_discrete(word(2, [1]))
    free = fraction_braid(1, 2, ((snap(0.0625), snap(0.0625)),), StrandPermutation((0,)))
    w = discrete_to_word(DiscreteRelativeBraid(free, skel).combined())
    spec = word_spec(w, free_marks=[1])
    base = braid_floer_homology(spec)
    down = braid_floer_homology(twisted(spec, -1))
    assert down.betti.as_dict() == {k - 2: v for k, v in base.betti.as_dict().items()}
    assert down.g == base.g + 1
    double = braid_floer_homology(twisted(spec, -2))
    assert double.betti.as_dict() == {k - 4: v for k, v in base.betti.as_dict().items()}


def test_representative_independence_jitter():
    spec_a = cyclic_spec((1, 2), (2, 1), ell=1)
    spec_b = cyclic_spec((1, 2), (2, 1), ell=1, radii=(0.3, 0.6, 0.9), phases=(0.05, 0.23, 0.57))
    ra = braid_floer_homology(spec_a)
    rb = braid_floer_homology(spec_b)
    assert ra.betti == rb.betti


def test_cache_round_trip(tmp_path):
    # the CLI job cache is the only result cache: one file per job
    doc = {"relative": {"cyclic": {"inner": [1, 2], "outer": [2, 1], "ell": 1}}}
    job = JobSpec("homology", doc, cache_dir=str(tmp_path))
    e1 = run(job)
    e2 = run(job)
    assert e1 == e2
    assert len(list(tmp_path.iterdir())) == 1


def test_forced_fraction_enumeration():
    out = enumerate_forced_fractions(Fraction(1, 2), Fraction(2), 5)
    # brute-force oracle
    expected = []
    for k in range(1, 6):
        for l in range(-20, 21):
            from math import gcd

            if gcd(abs(l), k) == 1 and Fraction(1, 2) < Fraction(l, k) < Fraction(2):
                expected.append((l, k))
    assert sorted(out) == sorted(expected)
    assert (1, 1) in out and (2, 3) in out and (3, 4) in out


def test_forcing_report_braids1():
    spec = cyclic_spec((1, 2), (2, 1), ell=1)
    rep = forcing_report(spec, period_cap=5)
    assert rep["nontrivial"] and rep["generic_lower_bound"] == 2
    assert {"ell": 1, "period": 1} in rep["forced_orbits"]
    assert rep["rotation_interval"] == ["1/2", "2"]


def test_cyclic_component_validation():
    with pytest.raises(BraidInputError):
        CyclicComponent(2, Fraction(1), Fraction(1, 2), 0.0)  # 2 strands rotation 1: coincident
    with pytest.raises(BraidInputError):
        CyclicComponent(2, Fraction(1, 3), Fraction(1, 2), 0.0)  # does not close up


def test_random_small_cyclic_specs_shift():
    rng = random.Random(99)
    found = 0
    attempts = 0
    while found < 2 and attempts < 40:
        attempts += 1
        m = rng.choice((2, 3))
        n = rng.choice([v for v in range(-m, m + 1) if v and abs(Fraction(v, m)) <= 1])
        if Fraction(n, m).denominator != m:
            continue
        m2 = rng.choice((1, 2))
        n2 = rng.choice([v for v in range(-2 * m2, 2 * m2 + 1) if v and abs(Fraction(v, m2)) <= 2])
        if Fraction(n2, m2).denominator != m2:
            continue
        lo, hi = sorted((Fraction(n, m), Fraction(n2, m2)))
        ells = [e for e in range(-2, 3) if lo < e < hi]
        if not ells:
            continue
        spec = cyclic_spec((n, m), (n2, m2), ell=rng.choice(ells))
        try:
            base = braid_floer_homology(spec)
        except (ImproperClassError, BraidInputError):
            continue
        up = braid_floer_homology(twisted(spec, 1))
        assert up.betti.as_dict() == {k + 2: v for k, v in base.betti.as_dict().items()}
        found += 1
    assert found >= 2


@pytest.mark.parametrize("letters", [[1, 2, 2, 1], [1, 1, 2, 2], [2, 2, 1, 1]])
def test_cache_never_changes_an_answer(tmp_path, letters):
    w = word(3, letters)
    perm = permutation_of(w)
    marks = [
        m for r in (1, 2) for m in itertools.combinations(range(3), r)
        if {perm(k) for k in m} == set(m)
    ]

    def outcome(mark, period, cache_dir):
        doc = {"relative": {"word": {"text": format_braid_text(w), "free": list(mark)}}}
        try:
            return run(JobSpec("homology", doc, period=period, cache_dir=cache_dir))
        except Exception as exc:
            return type(exc)

    # the third round meets the entries the first two left behind
    for period in (None, 5, None):
        for mark in marks:
            expected = outcome(mark, period, None)
            assert outcome(mark, period, str(tmp_path)) == expected, (mark, period)
            if not isinstance(expected, type):
                assert expected.payload["stabilization_ok"] is True
                assert period is None or expected.payload["period"] == period


def test_internal_errors_are_not_retried(monkeypatch):
    def broken(components, d):
        raise AssertionError("sampler bug")

    monkeypatch.setattr(pipeline, "_sample_components", broken)
    with pytest.raises(AssertionError, match="sampler bug"):
        braid_floer_homology(cyclic_spec((1, 2), (2, 1), ell=1))


def test_cell_cap_refusal():
    # the period-(d+1) pair of this class passes the 1.5M cell cap
    spec = twisted(cyclic_spec((1, 3), (2, 1), ell=1), 1)
    with pytest.raises(BraidInputError, match="^index pair exceeds 1500000 cells"):
        braid_floer_homology(spec)


# -- the smallest periods: cyclic search from period 2, one factor per slot --


@pytest.mark.parametrize("inner, outer, ell, betti", [
    ((-3, 2), (-1, 2), -1, {-2: 1, -1: 1}),
    ((3, 2), (1, 2), 1, {1: 1, 2: 1}),
    ((1, 2), (-1, 2), 0, {-1: 1, 0: 1}),
    ((-2, 3), (1, 2), 0, {0: 1, 1: 1}),
])
def test_desk_classes_sample_at_period_3(inner, outer, ell, betti):
    res = braid_floer_homology(cyclic_spec(inner, outer, ell))
    assert res.period == 3 and res.payload()["stabilization_ok"] is True
    assert res.betti.as_dict() == betti


@pytest.mark.parametrize("inner, outer, ell", [((0, 1), (0, 1), 0), ((1, 1), (1, 1), 1),
                                               ((-1, 1), (-1, 1), -1)])
def test_same_rotation_specs_stay_improper(capsys, inner, outer, ell):
    # their period-2 samplings have multiple points, which the search skips
    code = main(["homology", "--inner", *map(str, inner), "--outer", *map(str, outer),
                 "--ell", str(ell)])
    assert code == 2
    assert capsys.readouterr().err.startswith("improper class:")


@pytest.mark.parametrize("inner, outer, ell", [((3, 2), (3, 1), 2), ((4, 3), (3, 1), 2)])
def test_large_classes_sample_at_period_6(inner, outer, ell):
    rb, _, _ = pipeline.realize(cyclic_spec(inner, outer, ell), None)
    assert rb.period == 6


def _rotation(rng):
    m = rng.randrange(1, 4)
    return rng.choice([(v, m) for v in range(-4, 5) if math.gcd(v, m) == 1])


def _outcome(spec):
    try:
        res = braid_floer_homology(spec)
        return ("ok", res.betti.as_dict(), res.payload()["stabilization_ok"])
    except (BraidInputError, ImproperClassError) as exc:
        return (type(exc).__name__, str(exc))


def _realized(spec):
    try:
        rb, k_twist, _ = pipeline.realize(spec, None)
        combined = rb.combined()
        return (combined.nums.tolist(), combined.den, combined.closure, k_twist)
    except BraidInputError as exc:
        return (str(exc),)


def test_search_from_period_2_keeps_outcomes(monkeypatch):
    """Seeded cyclic specs get the outcome of the search from period 4.  Where
    both searches realize the same braid the outcome is the same by
    construction; the others run the whole route both ways."""
    from_2 = pipeline._faithful_sample

    def from_4(components, periods, expected):  # range(2, 17) loses 2 and 3
        return from_2(components, periods[2:] or periods, expected)

    rng = random.Random(41)
    lowered = 0
    for _ in range(120):
        spec = cyclic_spec(_rotation(rng), _rotation(rng), rng.randrange(-2, 3))
        new = _realized(spec)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "_faithful_sample", from_4)
            if _realized(spec) == new:
                continue
            old = _outcome(spec)
        assert _outcome(spec) == old, spec.label
        lowered += 1
    assert lowered >= 3


def test_cyclic_sampler_retries_the_phase_when_every_period_collides():
    """At the given phases every searched period meets a snap collision; the
    first phase bump realizes period 4, with the default phases' homology."""
    phases = (0.25, 0.0, 0.5)
    unbumped = positive_components((1, 2), (2, 1), 1, 0.0, phases=phases)
    for d in range(pipeline.MIN_PERIOD, 17):
        with pytest.raises(TransversalityError):
            pipeline._sample_components(unbumped, d)
    spec = cyclic_spec((1, 2), (2, 1), 1, phases=phases)
    rb, k_twist, g = pipeline.realize(spec, None)
    bumped = pipeline._sample_components(
        positive_components((1, 2), (2, 1), 1, 0.013, phases=phases), 4)
    assert (rb.period, k_twist, g) == (4, 0, 0)
    assert rb.combined().nums.tolist() == bumped.nums.tolist()
    assert braid_floer_homology(spec).betti.as_dict() == {2: 1, 3: 1}


def test_cyclic_sampler_skips_a_colliding_period():
    """Period 3 meets a snap collision and periods 2, 4 and 5 have too few
    crossings; the search goes on to period 6 at the given phases."""
    phases = (0.0, 0.5, 0.0)
    components = positive_components((1, 1), (1, 1), 0, 0.0, phases=phases)
    with pytest.raises(TransversalityError):
        pipeline._sample_components(components, 3)
    crossings = [pipeline._sample_components(components, d).crossings for d in (2, 4, 5, 6)]
    assert crossings == [4, 8, 12, 16] and pipeline._expected_crossings(components) == 16
    rb, _, _ = pipeline.realize(cyclic_spec((1, 1), (1, 1), 0, phases=phases), None)
    assert rb.period == 6
    assert rb.combined().nums.tolist() == pipeline._sample_components(components, 6).nums.tolist()


def test_cyclic_sampler_refuses_when_no_phase_finds_a_period():
    spec = cyclic_spec((2, 1), (3, 1), -1, phases=(0.25, 0.25, 0.25))
    with pytest.raises(BraidInputError) as err:
        pipeline.realize(spec, None)
    assert str(err.value) == (
        "could not discretize the cyclic spec: no faithful sampling period up to 16"
    )


def _realized_bits(spec, period):
    """Every bit of `realize`: each part's numerators, denominator and
    closure image, K and g; or the exception type and message."""
    try:
        rb, k_twist, g = pipeline.realize(spec, period)
    except (BraidInputError, ImproperClassError) as exc:
        return (type(exc).__name__, str(exc))
    parts = [(b.nums.dtype.str, b.nums.shape, b.nums.tobytes(), b.den, b.closure.image)
             for b in (rb.free, rb.skeleton)]
    return (*parts, k_twist, g)


def _seeded_word_spec(rng):
    """A word spec on 2-4 strands marking a random union of the closure's
    cycles, or at times any strands at all; None where the spec refuses the
    marks (not closed under the permutation, none or all)."""
    strands = rng.randrange(2, 5)
    w = random_word(rng, strands, rng.randrange(0, 9))
    orbits = cycles(permutation_of(w))
    picked = [c for c in orbits if rng.random() < 0.5]
    if rng.random() < 0.2 or not 0 < len(picked) < len(orbits):
        marks = rng.sample(range(strands), rng.randrange(0, strands + 1))
        try:
            return RelativeBraidSpec("word", word=w, free_marks=tuple(sorted(marks)))
        except BraidInputError:
            return None
    return word_spec(w, [s for c in picked for s in c])


def test_split_matches_the_reordered_reference(monkeypatch):
    """realize through the one split equals realize through the reference's
    reorder-then-split, bit for bit, on the seeded word specs whose marks a
    spec takes and on seeded cyclic specs, at the searched period and at
    periods 3 and 5."""
    rng = random.Random(53)
    specs = [_seeded_word_spec(rng) for _ in range(320)]
    assert 0 < specs.count(None) < len(specs)
    specs = [spec for spec in specs if spec is not None]
    specs += [cyclic_spec(_rotation(rng), _rotation(rng), rng.randrange(-2, 3))
              for _ in range(20)]
    refused = 0
    for spec in specs:
        for period in (None, 3, 5):
            new = _realized_bits(spec, period)
            with monkeypatch.context() as m:
                m.setattr(pipeline, "_split", reference_split)
                assert _realized_bits(spec, period) == new, (spec, period)
            refused += isinstance(new[0], str)
    assert 0 < refused < 3 * len(specs)


@pytest.mark.parametrize(
    "letters, marks, message",
    [
        ([1, 1], (0, 5), "free mark 5 is not a strand index in 0..2"),
        ([1], (0,), "free marking is not closed under the braid permutation"),
        ([1, 1], (0, 1, 2), "need at least one free and one skeleton strand"),
    ],
)
def test_word_spec_built_directly_checks_its_marks(letters, marks, message):
    """A spec built without word_spec refuses its marks as word_spec does,
    before realize can index past the strands."""
    with pytest.raises(BraidInputError) as err:
        RelativeBraidSpec("word", word=word(3, letters), free_marks=marks)
    assert str(err.value) == message


def test_cyclic_g_matches_padding_of_the_base_word():
    """Over seeded cyclic specs, the g the route reads off the sample's normal
    form is the padding of the sample's word times Delta^{-2K}."""
    rng = random.Random(47)
    realized = set()
    for _ in range(600):
        spec = cyclic_spec(_rotation(rng), _rotation(rng), rng.randrange(-2, 3))
        if spec.label in realized:
            continue
        try:
            rb, k_twist, g = pipeline.realize(spec, None)
        except BraidInputError:
            continue
        assert g == twist_padding(base_word(rb, k_twist)).g, spec.label
        realized.add(spec.label)
    assert len(realized) >= 200


def test_word_periods_are_the_padded_supremum():
    """A word class takes one slot interval per normal-form factor of its
    padded word (at least 2), and its diagram reads back that braid."""
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randrange(2, 5)
        w = word(n, [rng.randrange(1, n) * rng.choice((1, -1)) for _ in range(rng.randrange(1, 9))])
        fixed = [k for k in range(n) if permutation_of(w)(k) == k]
        if not fixed:
            continue
        pad = twist_padding(w)
        rb, g, _ = pipeline.realize(word_spec(w, fixed[:1]), None)
        assert g == pad.g and rb.period == max(2, len(pad.layers))
        back = discrete_to_word(rb.combined())
        assert left_normal_form(back).factors == left_normal_form(pad.positive_word).factors


@pytest.mark.parametrize("text, free, betti", [("n=3; s1 s2 s2 s1", [0], {}),
                                               ("n=3; s2 s1 s2", [1], {1: 1})])
def test_desk_words_run_at_period_2(text, free, betti):
    res = braid_floer_homology(word_spec(parse_braid_text(text), free))
    assert res.period == 2 and res.betti.as_dict() == betti
