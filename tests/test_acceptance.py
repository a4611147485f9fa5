"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from braidfloer.complex import enumerate_component, index_pair
from braidfloer.discrete import DiscreteRelativeBraid, discrete_to_word
from braidfloer.errors import BraidInputError, ImproperClassError, StabilizationError
from braidfloer.flow import evolve, find_stationary, fitted_recurrence
from braidfloer.garside import is_left_weighted, left_normal_form, twist_padding
from braidfloer.homology import IDENTITY_CHECKS, relative_homology
from braidfloer.maslov import (
    DRIFT_BOUND,
    annulus_hamiltonian,
    constant_family,
    integrate_path,
    permuted_cz_index,
    rotation_family,
    rotation_shift_check,
)
from braidfloer.pipeline import (
    _realize_cyclic,
    braid_floer_homology,
    cyclic_spec,
    enumerate_forced_fractions,
    forcing_report,
    word_spec,
)
from braidfloer.words import StrandPermutation, exponent_sum, random_rewrite, word

from helpers import (
    chain_counts,
    fraction_braid,
    fractions_of,
    nf_to_word,
    random_word,
    reference_left_normal_form,
    signed_words_equal,
    snap,
    to_chain_json,
    twisted,
    word_to_discrete,
)

_memo = {}


def homology_of(spec):
    key = (spec.label, spec.presentation)
    if key not in _memo:
        _memo[key] = braid_floer_homology(spec)
    return _memo[key]


def report(num, ok, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_cyclic_unlinked_interval():
    t0 = time.monotonic()
    res = homology_of(cyclic_spec((1, 2), (2, 1), ell=1))
    t_first = time.monotonic() - t0
    ok1 = res.betti.as_dict() == {2: 1, 3: 1} and t_first < 60
    t0 = time.monotonic()
    res2 = homology_of(cyclic_spec((-3, 2), (-1, 2), ell=-1))
    t_second = time.monotonic() - t0
    ok2 = res2.betti.as_dict() == {-2: 1, -1: 1} and t_second < 60
    report(
        1,
        ok1 and ok2,
        f"ell=1 gives {res.betti.as_dict()} in {t_first:.1f}s; "
        f"ell=-1 gives {res2.betti.as_dict()} (g={res2.g}) in {t_second:.1f}s",
    )


def test_criterion_02_reversed_case():
    # The stated data (n,m)=(2,1) puts a single strand inside: the free strand
    # can collapse onto it, the class is improper, and the invariant is
    # undefined; the skeleton definition requires m >= 2 on the inner
    # component.  The nearest conforming reversed-case data is (3,2).
    literal_improper = False
    try:
        braid_floer_homology(cyclic_spec((2, 1), (1, 2), ell=1))
    except ImproperClassError:
        literal_improper = True
    t0 = time.monotonic()
    res = homology_of(cyclic_spec((3, 2), (1, 2), ell=1))
    elapsed = time.monotonic() - t0
    ok = res.betti.as_dict() == {1: 1, 2: 1} and elapsed < 60 and literal_improper
    report(
        2,
        ok,
        f"reversed case (3/2 > 1 > 1/2) gives {res.betti.as_dict()} in {elapsed:.1f}s; "
        f"literal (2,1)-inner data refused as improper: {literal_improper}",
    )


def test_criterion_03_annulus_correspondence():
    plus = homology_of(cyclic_spec((-1, 2), (1, 1), ell=0, label="annulus+"))
    minus = homology_of(cyclic_spec((1, 2), (-1, 2), ell=0, label="annulus-"))
    ok_plus = plus.betti.as_dict() == {0: 1, 1: 1}
    ok_minus = minus.betti.as_dict() == {-1: 1, 0: 1}
    # the model Hamiltonian's critical points grade the same groups
    outer_model = annulus_hamiltonian(eps=0.1, outward=True)
    inner_model = annulus_hamiltonian(eps=0.1, outward=False)
    ok_model = sorted(outer_model.cz_indices()) == [0, 1] and sorted(
        inner_model.cz_indices()
    ) == [-1, 0]
    report(
        3,
        ok_plus and ok_minus and ok_model,
        f"HF+ {plus.betti.as_dict()}, HF- {minus.betti.as_dict()}; "
        f"annulus model indices {sorted(outer_model.cz_indices())}/{sorted(inner_model.cz_indices())}",
    )


def _random_proper_specs(count=5, seed=2026):
    rng = random.Random(seed)
    specs = []
    attempts = 0
    while len(specs) < count and attempts < 200:
        attempts += 1
        m = rng.choice((2, 3))
        n = rng.choice([v for v in range(-m, m + 1) if v and math.gcd(abs(v), m) == 1])
        m2 = rng.choice((1, 2))
        n2 = rng.choice(
            [v for v in range(-2 * m2, 2 * m2 + 1) if v and math.gcd(abs(v), m2) == 1]
        )
        lo, hi = sorted((Fraction(n, m), Fraction(n2, m2)))
        ells = [e for e in range(-2, 3) if lo < e < hi]
        if not ells:
            continue
        spec = cyclic_spec((n, m), (n2, m2), ell=rng.choice(ells))
        try:
            homology_of(spec)
            homology_of(twisted(spec, 1))
            homology_of(twisted(spec, -1))
        except (ImproperClassError, BraidInputError, StabilizationError):
            continue
        specs.append(spec)
    return specs


def test_criterion_04_shift_theorem():
    base_specs = [
        cyclic_spec((1, 2), (2, 1), ell=1),
        cyclic_spec((3, 2), (1, 2), ell=1),
    ]
    random_specs = _random_proper_specs()
    assert len(random_specs) == 5, "could not draw five random proper specs"
    checked = 0
    for spec in base_specs + random_specs:
        base = homology_of(spec).betti.as_dict()
        n = spec.free_strands()
        for k in (1, -1):
            shifted = homology_of(twisted(spec, k)).betti.as_dict()
            expected = {deg + 2 * n * k: v for deg, v in base.items()}
            assert shifted == expected, (
                f"{spec.label} twisted by {k}: {shifted} != {expected}"
            )
            checked += 1
    report(4, checked == 14, f"{checked} twist comparisons exact on 7 specs")


def test_criterion_05_stabilization():
    # braid_floer_homology always recomputes at period d+1 and refuses on
    # disagreement; assert the flag on all memoized runs and re-check one
    # spec at explicitly pinned periods
    assert _memo, "no earlier results"
    ok = all(res.payload()["stabilization_ok"] for res in _memo.values())
    spec = cyclic_spec((1, 2), (2, 1), ell=1)
    rb, _, _ = _realize_cyclic(spec, None)
    from braidfloer.discrete import insert_duplicate_slot

    b1 = relative_homology(index_pair(enumerate_component(rb)))
    rb2 = DiscreteRelativeBraid(
        insert_duplicate_slot(rb.free), insert_duplicate_slot(rb.skeleton)
    )
    b2 = relative_homology(index_pair(enumerate_component(rb2)))
    ok = ok and b1.as_dict() == b2.as_dict()
    report(
        5,
        ok,
        f"betti tables agree at periods {rb.period} and {rb.period + 1} "
        f"({b1.as_dict()}); {len(_memo)} pipeline runs stabilization-checked",
    )


def test_criterion_06_garside_suite():
    t0 = time.monotonic()
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randrange(2, 5)
        w = random_word(rng, n, rng.randrange(0, 13))
        nf = left_normal_form(w)
        assert nf == reference_left_normal_form(w)
        assert is_left_weighted(nf)
        rewritten = random_rewrite(w, rng, moves=50)
        assert left_normal_form(rewritten) == nf
        pad = twist_padding(w)
        assert pad.positive_word.is_positive()
        assert exponent_sum(pad.positive_word) == exponent_sum(w) + pad.g * n * (n - 1)
        assert left_normal_form(pad.positive_word).infimum >= 0
        if n == 2:
            # closed form: every 2-strand braid is Delta^e
            e = exponent_sum(w)
            assert (nf.infimum, nf.factors) == (e, ())
    # bounded rewriting oracle on 3-strand words
    for _ in range(12):
        w = random_word(rng, 3, rng.randrange(1, 6))
        assert signed_words_equal(nf_to_word(left_normal_form(w)), w)
    assert signed_words_equal(
        nf_to_word(left_normal_form(word(3, [-1, -2]))), word(3, [-1, -2])
    )
    elapsed = time.monotonic() - t0
    report(
        6,
        elapsed < 120,
        f"500 words x 50 rewrites invariant, padding identities exact, "
        f"oracle agreement, in {elapsed:.1f}s",
    )


def test_criterion_07_maslov_rotation_shift():
    t0 = time.monotonic()
    for k in (1, 2, 3):
        path = integrate_path(rotation_family(k), 1.0)
        assert path.drift < DRIFT_BOUND
        idx = permuted_cz_index(path, closed=True)
        assert idx.twice_value == 4 * k, f"rotation k={k}: {idx.twice_value} != {4 * k}"
    rng = random.Random(7)
    ks = [-2, -1, 0, 1, 2]
    checked = 0
    from test_maslov import random_nondegenerate_constant

    while checked < 100:
        n = rng.choice((1, 2))
        k_mat = random_nondegenerate_constant(rng, n)
        path = integrate_path(constant_family(k_mat), 1.0)
        assert path.drift < DRIFT_BOUND
        assert rotation_shift_check(path, None, ks[checked % 5])
        checked += 1
    elapsed = time.monotonic() - t0
    report(
        7,
        elapsed < 120,
        f"loop indices 2k exact for k=1..3; shift identity on {checked} random "
        f"paths (n in {{1,2}}, k in -2..2) in {elapsed:.1f}s",
    )


def test_criterion_08_morse_index_relation():
    eps = 0.1
    saddle = permuted_cz_index(
        integrate_path(constant_family(np.diag([1.0, -4 * eps])), 1.0)
    )
    minimum = permuted_cz_index(
        integrate_path(constant_family(np.diag([1.0, 4 * eps])), 1.0)
    )
    ok = saddle.twice_value == 0 and minimum.twice_value == 2
    model = annulus_hamiltonian(eps=eps)
    hessians = [c.hessian.tolist() for c in model.critical_points]
    ok = ok and hessians == [[[1.0, 0.0], [0.0, -0.4]], [[1.0, 0.0], [0.0, 0.4]]]
    ok = ok and [c.morse_index for c in model.critical_points] == [1, 0]
    report(
        8,
        ok,
        f"K=diag(1,-4e) index {saddle.twice_value // 2} (saddle), "
        f"K=diag(1,+4e) index {minimum.twice_value // 2} (minimum)",
    )


def _monotonicity_classes():
    out = [
        _realize_cyclic(cyclic_spec((1, 2), (2, 1), ell=1), None)[0],
        _realize_cyclic(cyclic_spec((3, 2), (1, 2), ell=1), None)[0],
        _realize_cyclic(cyclic_spec((-3, 2), (-1, 2), ell=-1), None)[0],
        _realize_cyclic(cyclic_spec((-1, 2), (1, 1), ell=0), None)[0],
    ]
    skel = word_to_discrete(word(2, [1]))
    free = fraction_braid(1, 2, ((snap(0.0625), snap(0.0625)),), StrandPermutation((0,)))
    out.append(DiscreteRelativeBraid(free, skel))
    return out


def test_criterion_09_monotonicity():
    t0 = time.monotonic()
    classes = _monotonicity_classes()
    assert len(classes) >= 5
    rng = random.Random(31)
    runs = 0
    violations = 0
    per_class = 200
    for rel in classes:
        rec = fitted_recurrence(rel.skeleton)
        base = [float(v) for v in fractions_of(rel.free)[0]]
        done = 0
        while done < per_class:
            jitter = [v + rng.uniform(-0.1, 0.1) for v in base]
            if max(abs(v) for v in jitter) >= 0.97:
                continue
            try:
                free = fraction_braid(
                    1,
                    rel.period,
                    (tuple(snap(v) for v in jitter),),
                    StrandPermutation((0,)),
                )
                cand = DiscreteRelativeBraid(free, rel.skeleton)
            except Exception:
                continue
            try:
                state = evolve(cand, rec, horizon=3.0)
            except Exception:
                continue
            if not state.crossings_non_increasing():
                violations += 1
            runs += 1
            done += 1
    elapsed = time.monotonic() - t0
    report(
        9,
        runs >= 1000 and violations == 0,
        f"{runs} flow runs across {len(classes)} classes, {violations} "
        f"monotonicity violations, in {elapsed:.1f}s",
    )


def test_criterion_10_forcing():
    spec = cyclic_spec((1, 2), (2, 1), ell=1)
    res = homology_of(spec)
    p1 = res.betti.total()
    assert p1 == 2
    rb, _, _ = _realize_cyclic(spec, None)
    sols, warns = find_stationary(rb, expected=p1, rng=random.Random(3))
    ok_stat = len(sols) >= p1 and all(r < 1e-8 for _, r in sols) and not warns
    rep = forcing_report(spec, res, period_cap=12)
    # brute-force rational scan oracle
    lo, hi = Fraction(1, 2), Fraction(2)
    brute = sorted(
        (l, k)
        for k in range(1, 13)
        for l in range(-30, 31)
        if math.gcd(abs(l), k) == 1 and lo < Fraction(l, k) < hi
    )
    got = sorted((f["ell"], f["period"]) for f in rep["forced_orbits"])
    ok_forced = got == brute and rep["generic_lower_bound"] == 2 and rep["nontrivial"]
    report(
        10,
        ok_stat and ok_forced,
        f"{len(sols)} stationary braids (max residual "
        f"{max(r for _, r in sols):.1e}) >= P_1 = {p1}; "
        f"{len(got)} forced fractions match the brute-force scan",
    )


def test_criterion_11_structural_suite():
    # the identities run inside every homology call and raise on violation;
    # re-run one pair with a full exact double-boundary check
    spec = cyclic_spec((1, 2), (2, 1), ell=1)
    rb, _, _ = _realize_cyclic(spec, None)
    pair = index_pair(enumerate_component(rb))
    doc = to_chain_json(pair)
    cells = {g["id"]: g["dim"] for g in doc["generators"]}
    bnd = {int(c): faces for c, faces in doc["boundaries"].items()}
    for c in cells:
        parity = {}
        for f in bnd[c]:
            for ff in bnd[f]:
                parity[ff] = parity.get(ff, 0) ^ 1
        assert not any(parity.values()), "exact boundary-squared check failed"
    counts = chain_counts(pair)
    betti = relative_homology(pair).as_dict()
    euler_c = sum((-1) ** k * v for k, v in counts.items())
    euler_b = sum((-1) ** k * v for k, v in betti.items())
    assert euler_c == euler_b
    lo = min(counts)
    hi = max(counts)
    diff = [counts.get(k, 0) - betti.get(k, 0) for k in range(lo, hi + 1)]
    q = []
    carry = 0
    for v in diff:
        q.append(v - carry)
        carry = q[-1]
    assert carry == 0 and all(v >= 0 for v in q)
    checks = dict(IDENTITY_CHECKS)
    ok = all(v > 0 for v in checks.values())
    report(
        11,
        ok,
        f"exact d^2=0 on {len(cells)} cells; Euler {euler_c} matches; "
        f"(1+t)-divisibility holds; identities verified on "
        f"{checks['euler']} homology runs this session",
    )
