import random
from fractions import Fraction

import numpy as np
import pytest

from braidfloer import flow
from braidfloer.discrete import DiscreteBraid, DiscreteRelativeBraid, snap
from braidfloer.errors import BoundaryContactError, BraidInputError, ImproperClassError
from braidfloer.flow import (
    RecurrenceRelation,
    crossing_count_float,
    evolve,
    find_stationary,
    fitted_recurrence,
)
from braidfloer.pipeline import _realize_cyclic, cyclic_spec
from braidfloer.words import StrandPermutation


def braids1_class():
    rb, _, _ = _realize_cyclic(cyclic_spec((1, 2), (2, 1), ell=1), None)
    return rb


def with_free(rb: DiscreteRelativeBraid, values) -> DiscreteRelativeBraid:
    free = DiscreteBraid(
        1, rb.period, (tuple(snap(float(v)) for v in values),), StrandPermutation((0,))
    )
    return DiscreteRelativeBraid(free, rb.skeleton)


def test_skeleton_anchors_are_exact_zeros():
    rb = braids1_class()
    rec = fitted_recurrence(rb.skeleton)
    sk = rb.skeleton
    for l in range(sk.strands):
        for i in range(sk.period):
            r = rec(
                i,
                float(sk.value(l, i - 1)),
                float(sk.anchors[l][i]),
                float(sk.value(l, i + 1)),
            )
            assert r == 0.0


def test_default_recurrence_is_monotone():
    rb = braids1_class()
    rec = fitted_recurrence(rb.skeleton)
    rec.certify_monotone()


def test_non_monotone_relation_rejected():
    with pytest.raises(BraidInputError):
        RecurrenceRelation(2, [lambda l, c, r: -l + r, lambda l, c, r: l + r])


def test_near_equilibrium_convergence():
    # free strand shadowing a skeleton strand with a small offset relaxes to a
    # nearby equilibrium with constant crossing count
    rb = braids1_class()
    sk = rb.skeleton
    offset = [float(sk.anchors[0][i]) + 0.02 for i in range(sk.period)]
    rel = with_free(rb, offset)
    rec = fitted_recurrence(sk)
    state = evolve(rel, rec, horizon=40.0)
    values = [c for _, c in state.trace]
    assert state.crossings_non_increasing()
    assert values[0] == values[-1] or state.converged


def test_monotone_trace_random_seeds():
    rb = braids1_class()
    rec = fitted_recurrence(rb.skeleton)
    geo_values = [float(v) for v in rb.free.anchors[0]]
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
    d = rb.period

    def patterns(u):
        out = []
        for l in range(sk.strands):
            out.append(tuple(u[i] > float(sk.anchors[l][i]) for i in range(d)))
        return out

    for _ in range(10):
        values = [rng.uniform(-0.6, 0.6) for _ in range(d)]
        try:
            rel = with_free(rb, values)
        except Exception:
            continue
        u = np.array([float(v) for v in rel.free.anchors[0]])
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


def test_boundary_contact_reported():
    skeleton = DiscreteBraid(
        1, 2, ((snap(-0.5), snap(-0.5)),), StrandPermutation((0,))
    )
    rel = DiscreteRelativeBraid(
        DiscreteBraid(1, 2, ((snap(0.9), snap(0.9)),), StrandPermutation((0,))), skeleton
    )
    # push the free strand outward faster than the Laplacian pulls back
    rec = RecurrenceRelation(
        2, [lambda l, c, r: 0.2 * l + 0.2 * r + 0.7, lambda l, c, r: 0.2 * l + 0.2 * r + 0.7]
    )
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

    monkeypatch.setattr(flow, "evolve", broken)
    with pytest.raises(AssertionError, match="flow bug"):
        find_stationary(braids1_class())
