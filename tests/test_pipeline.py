import itertools
import math
import random
from fractions import Fraction

import pytest

from braidfloer import pipeline
from braidfloer.cli import JobSpec, format_braid_text, main, parse_braid_text, run
from braidfloer.discrete import DiscreteRelativeBraid, discrete_to_word
from braidfloer.errors import BraidInputError, ImproperClassError
from braidfloer.garside import left_normal_form, twist_padding
from braidfloer.pipeline import (
    CyclicComponent,
    braid_floer_homology,
    cyclic_spec,
    enumerate_forced_fractions,
    forcing_report,
    word_spec,
)
from braidfloer.words import StrandPermutation, permutation_of, word

from helpers import base_word, fraction_braid, snap, twisted, word_to_discrete


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

    def from_4(components, d_start=4, d_cap=16):
        return from_2(components, d_start, d_cap)

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
