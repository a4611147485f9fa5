import itertools
import random
from fractions import Fraction

import pytest

from braidfloer import pipeline
from braidfloer.cli import JobSpec, format_braid_text, run
from braidfloer.discrete import discrete_to_word, word_to_discrete
from braidfloer.errors import BraidInputError, ImproperClassError
from braidfloer.pipeline import (
    CyclicComponent,
    braid_floer_homology,
    cyclic_spec,
    enumerate_forced_fractions,
    forcing_report,
    word_spec,
)
from braidfloer.words import permutation_of, word


def test_braids_unlinked_interval_case():
    spec = cyclic_spec((1, 2), (2, 1), ell=1)
    res = braid_floer_homology(spec)
    assert res.betti.as_dict() == {2: 1, 3: 1}
    assert res.g == 0 and res.shift_applied == 0
    assert res.stabilization_ok and res.payload()["proper"] is True
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
    up = braid_floer_homology(spec.twisted(1))
    down = braid_floer_homology(spec.twisted(-1))
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
    from braidfloer.discrete import DiscreteBraid, DiscreteRelativeBraid, snap
    from braidfloer.words import StrandPermutation

    skel = word_to_discrete(word(2, [1]))
    free = DiscreteBraid(1, 2, ((snap(0.0625), snap(0.0625)),), StrandPermutation((0,)))
    combined = DiscreteRelativeBraid(free, skel).combined()
    w = discrete_to_word(combined)
    spec = word_spec(w, free_marks=[1], label="saddle")
    res = braid_floer_homology(spec)
    assert res.betti.as_dict() == {1: 1}
    assert res.g == 0


def test_word_route_shift():
    # negative twists go through the Garside padding; the positive direction
    # is exercised by the cyclic specs, whose representatives stay small
    from braidfloer.discrete import DiscreteBraid, DiscreteRelativeBraid, snap
    from braidfloer.words import StrandPermutation

    skel = word_to_discrete(word(2, [1]))
    free = DiscreteBraid(1, 2, ((snap(0.0625), snap(0.0625)),), StrandPermutation((0,)))
    w = discrete_to_word(DiscreteRelativeBraid(free, skel).combined())
    spec = word_spec(w, free_marks=[1])
    base = braid_floer_homology(spec)
    down = braid_floer_homology(spec.twisted(-1))
    assert down.betti.as_dict() == {k - 2: v for k, v in base.betti.as_dict().items()}
    assert down.g == base.g + 1
    double = braid_floer_homology(spec.twisted(-2))
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
        up = braid_floer_homology(spec.twisted(1))
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

    def outcome(mark, check, cache_dir):
        doc = {"relative": {"word": {"text": format_braid_text(w), "free": list(mark)}}}
        try:
            return run(JobSpec("homology", doc, period_check=check, cache_dir=cache_dir))
        except Exception as exc:
            return type(exc)

    # the third round meets the entries the first two left behind
    for check in (False, True, False):
        for mark in marks:
            expected = outcome(mark, check, None)
            assert outcome(mark, check, str(tmp_path)) == expected, (mark, check)
            if not isinstance(expected, type):
                assert expected.payload["stabilization_ok"] is (True if check else None)


def test_internal_errors_are_not_retried(monkeypatch):
    def broken(components, d):
        raise AssertionError("sampler bug")

    monkeypatch.setattr(pipeline, "_sample_components", broken)
    with pytest.raises(AssertionError, match="sampler bug"):
        braid_floer_homology(cyclic_spec((1, 2), (2, 1), ell=1))


def test_cell_cap_refusal():
    # the period-(d+1) pair of this class passes the 1.5M cell cap
    spec = cyclic_spec((1, 3), (2, 1), ell=1).twisted(1)
    with pytest.raises(BraidInputError, match="^index pair exceeds 1500000 cells"):
        braid_floer_homology(spec)
