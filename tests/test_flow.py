import random

import numpy as np
import pytest

from braidfloer import flow
from braidfloer.discrete import DiscreteRelativeBraid
from braidfloer.errors import BoundaryContactError, BraidInputError, ImproperClassError
from braidfloer.flow import (
    RecurrenceRelation,
    evolve,
    find_stationary,
    fitted_recurrence,
)
from braidfloer.pipeline import _homology_at, _realize_cyclic, cyclic_spec, realize, word_spec
from braidfloer.words import StrandPermutation, permutation_of, word

from helpers import (anchor_neighbours, crossing_count_float, fraction_braid, fractions_of,
                     reference_free_crossings, snap)


def braids1_class():
    rb, _, _ = _realize_cyclic(cyclic_spec((1, 2), (2, 1), ell=1), None)
    return rb


def with_free(rb: DiscreteRelativeBraid, values) -> DiscreteRelativeBraid:
    free = fraction_braid(
        1, rb.period, (tuple(snap(float(v)) for v in values),), StrandPermutation((0,))
    )
    return DiscreteRelativeBraid(free, rb.skeleton)


def test_skeleton_anchors_are_exact_zeros():
    rb = braids1_class()
    rec = fitted_recurrence(rb.skeleton)
    sk = rb.skeleton
    r = rec.field(*anchor_neighbours(sk))
    assert r.shape == (sk.strands, sk.period)
    for value in r.ravel():
        assert value == 0.0


def test_near_equilibrium_convergence():
    # free strand shadowing a skeleton strand with a small offset relaxes to a
    # nearby equilibrium with constant crossing count
    rb = braids1_class()
    sk = rb.skeleton
    offset = [float(fractions_of(sk)[0][i]) + 0.02 for i in range(sk.period)]
    rel = with_free(rb, offset)
    rec = fitted_recurrence(sk)
    state = evolve(rel, rec, horizon=40.0)
    values = [c for _, c in state.trace]
    assert state.crossings_non_increasing()
    assert values[0] == values[-1] or state.converged


def test_monotone_trace_random_seeds():
    rb = braids1_class()
    rec = fitted_recurrence(rb.skeleton)
    geo_values = [float(v) for v in fractions_of(rb.free)[0]]
    rng = random.Random(5)
    runs = 0
    for _ in range(60):
        jitter = [v + rng.uniform(-0.08, 0.08) for v in geo_values]
        if max(abs(v) for v in jitter) >= 0.98:
            continue
        try:
            rel = with_free(rb, jitter)
        except Exception:
            continue
        state = evolve(rel, rec, horizon=6.0)
        assert state.crossings_non_increasing()
        runs += 1
    assert runs >= 40


def test_strict_decrease_only_at_contacts():
    # instrument one trajectory: each drop in the trace coincides with a sign
    # pattern change of some free-skeleton pair
    rb = braids1_class()
    rec = fitted_recurrence(rb.skeleton)
    rng = random.Random(11)
    sk = rb.skeleton
    anchors = fractions_of(sk)
    d = rb.period

    def patterns(u):
        out = []
        for l in range(sk.strands):
            out.append(tuple(u[i] > float(anchors[l][i]) for i in range(d)))
        return out

    for _ in range(10):
        values = [rng.uniform(-0.6, 0.6) for _ in range(d)]
        try:
            rel = with_free(rb, values)
        except Exception:
            continue
        u = np.array([float(v) for v in fractions_of(rel.free)[0]])
        rec_vec = rec.vector_field
        h = 0.01
        prev_cross = crossing_count_float(u, sk)
        prev_pat = patterns(u)
        for _ in range(400):
            u = u + h * rec_vec(u)
            if np.max(np.abs(u)) >= 1.0:
                break
            cross = crossing_count_float(u, sk)
            pat = patterns(u)
            if cross < prev_cross:
                assert pat != prev_pat
            prev_cross, prev_pat = cross, pat


def test_free_crossings_match_scalar_reference():
    rng = np.random.default_rng(11)
    grid = np.linspace(-0.75, 0.75, 7)
    zeros = {"start": 0, "end": 0}
    for trial in range(400):
        d, m = int(rng.integers(2, 6)), int(rng.integers(0, 5))
        u, paths = rng.uniform(-1, 1, d), rng.uniform(-1, 1, (m, d + 1))
        if trial % 2:  # values from a coarse grid make exact zero differences common
            u, paths = rng.choice(grid, d), rng.choice(grid, (m, d + 1))
        zeros["start"] += int((u - paths[:, :-1] == 0).sum())
        zeros["end"] += int((np.roll(u, -1) - paths[:, 1:] == 0).sum())
        assert flow._free_crossings(u, paths) == reference_free_crossings(u, paths.tolist())
    assert min(zeros.values()) > 0, zeros


def test_finite_difference_jacobian_matches_exact():
    # central differences of the vector field, one slot at a time, are the
    # oracle for the exact tridiagonal Jacobian
    rb = braids1_class()
    rec = fitted_recurrence(rb.skeleton)
    u = np.random.default_rng(5).uniform(-0.95, 0.95, (40, rb.period))
    h = 1e-6
    numeric = np.stack([(rec.vector_field(u + h * e) - rec.vector_field(u - h * e)) / (2 * h)
                        for e in np.eye(rb.period)], axis=-1)
    assert np.max(np.abs(numeric - rec.jacobian(u))) < 1e-6


def test_boundary_contact_reported():
    skeleton = fraction_braid(
        1, 2, ((snap(-0.5), snap(-0.5)),), StrandPermutation((0,))
    )
    rel = DiscreteRelativeBraid(
        fraction_braid(1, 2, ((snap(0.9), snap(0.9)),), StrandPermutation((0,))), skeleton
    )
    # push the free strand outward faster than the Laplacian pulls back
    rec = RecurrenceRelation(2, lambda c: 0.7, lambda c: np.zeros_like(c))
    with pytest.raises(BoundaryContactError):
        evolve(rel, rec, horizon=10.0)


def test_find_stationary_braids1():
    rb = braids1_class()
    sols, warns = find_stationary(rb, expected=2, rng=random.Random(1))
    assert len(sols) >= 2
    assert all(res < 1e-8 for _, res in sols)
    assert not warns
    # distinctness
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            assert np.max(np.abs(sols[i][0] - sols[j][0])) > 1e-4


def test_find_stationary_refuses_improper():
    spec = cyclic_spec((2, 1), (1, 2), ell=1)
    rb, _, _ = _realize_cyclic(spec, None)
    with pytest.raises(ImproperClassError):
        find_stationary(rb)


def test_find_stationary_does_not_swallow_internal_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("flow bug")

    for name in ("_newton_polish", "component_contains"):
        with monkeypatch.context() as patch:
            patch.setattr(flow, name, broken)
            with pytest.raises(AssertionError, match="flow bug"):
                find_stationary(braids1_class())


def test_batched_newton_rows_are_independent():
    # d = 2, so each slot's two neighbours are the other slot and J is
    # [[-2 + g'(u0), 2], [2, -2 + g'(u1)]]: exactly singular at u = (0, 0)
    rec = RecurrenceRelation(2, lambda c: c**3 + 0.01, lambda c: 3 * c**2)
    starts = np.array([[0.3, 0.2], [0.0, 0.0], [-0.1, -0.3], [0.9, -0.9], [0.5, 0.6]])
    polished, ok = flow._newton_polish(rec, starts)
    assert not ok[1]  # the singular row is dropped, the others go on
    assert ok.sum() >= 2
    for n in range(len(starts)):
        alone, ok_alone = flow._newton_polish(rec, starts[n:n + 1])
        assert ok_alone[0] == ok[n]
        if ok[n]:
            assert np.array_equal(alone[0], polished[n])
            assert np.max(np.abs(rec.vector_field(polished[n]))) < 1e-8


DESK_CLASSES = [
    *(cyclic_spec(inner, outer, ell) for inner, outer, ell in (
        ((1, 2), (2, 1), 1), ((-3, 2), (-1, 2), -1), ((3, 2), (1, 2), 1), ((-1, 2), (1, 1), 0),
        ((1, 2), (-1, 2), 0), ((1, 2), (-1, 1), 0), ((-2, 3), (1, 2), 0))),
    word_spec(word(3, [1, 2, 2, 1]), [0], "word[s1 s2 s2 s1;0]"),
    word_spec(word(3, [2, 1, 2]), [1], "word[s2 s1 s2;1]"),
]


def seeded_proper_classes(count: int, seed: int = 1, max_period: int = 5):
    """(label, representative, Betti table at its period) of seeded proper classes:
    cyclic specs and marked words on 3 or 4 strands."""
    rng, seen, out = random.Random(seed), set(), []
    while len(out) < count:
        if rng.random() < 0.5:
            m, m2 = rng.randint(1, 3), rng.randint(1, 3)
            rotations = (rng.randint(-2 * m, 2 * m), m), (rng.randint(-2 * m2, 2 * m2), m2)
            try:
                spec = cyclic_spec(*rotations, rng.randint(-2, 2))
            except BraidInputError:  # a rotation number n/m with n, m not coprime
                continue
        else:
            n = rng.randint(3, 4)
            letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(2, 6))]
            w = word(n, letters)
            fixed = [s for s in range(n) if permutation_of(w)(s) == s]
            if not fixed:
                continue
            mark = rng.choice(fixed)
            spec = word_spec(w, [mark], f"word[n={n}:{letters};{mark}]")
        if spec.label in seen:
            continue
        seen.add(spec.label)
        try:
            rb, _, _ = realize(spec, None)
            if rb.period <= max_period:
                out.append((spec.label, rb, _homology_at(rb)[0].as_dict()))
        except (ImproperClassError, BraidInputError):
            pass
    return out


def morse_quotient(m: dict[int, int], p: dict[int, int]) -> list[int] | None:
    """Q with M - P = (1 + t) Q, lowest degree first, or None when 1 + t does not
    divide M - P."""
    diff = {k: m.get(k, 0) - p.get(k, 0) for k in m.keys() | p.keys()}
    if not diff:
        return []
    q, carry = [], 0
    for k in range(min(diff), max(diff) + 1):
        carry = diff.get(k, 0) - carry
        q.append(carry)
    return q[:-1] if q[-1] == 0 else None


def test_stationary_braids_satisfy_the_morse_relations():
    # the rest points of the flow in a proper class, counted by unstable
    # dimension, satisfy M(t) - P(t) = (1 + t) Q(t), Q >= 0, against the
    # Poincare polynomial P of the class's index pair at the same period
    desk = [(spec.label, realize(spec, None)[0]) for spec in DESK_CLASSES]
    survey = seeded_proper_classes(60)
    assert {label.split("[")[0] for label, _, _ in survey} == {"cyclic", "word"}
    for label, rb, p in [(label, rb, _homology_at(rb)[0].as_dict()) for label, rb in desk] + survey:
        rec = fitted_recurrence(rb.skeleton)
        m: dict[int, int] = {}
        for u, _ in find_stationary(rb, rec, rng=random.Random(0))[0]:
            eig = np.linalg.eigvalsh(rec.jacobian(u))
            assert np.min(np.abs(eig)) > 1e-6, (label, "degenerate stationary braid")
            k = int((eig > 0).sum())
            m[k] = m.get(k, 0) + 1
        q = morse_quotient(m, p)
        assert q is not None and min(q, default=0) >= 0, (label, m, p, q)
