"""The flow's numpy PCHIP knot table against scipy's PchipInterpolator.

Tests may import scipy.interpolate; the package does not.  Random knot sets
are drawn from fixed seeds and cover flat segments, sign changes of the
secants and both shape-preserving branches of the end slopes.
"""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from braidfloer.flow import fitted_recurrence, pchip_eval, pchip_table
from braidfloer.pipeline import cyclic_spec, realize, word_spec
from braidfloer.words import word

from helpers import anchor_neighbours

TOL = 1e-12
DESK_CYCLIC = [
    ((1, 2), (2, 1), 1),
    ((-3, 2), (-1, 2), -1),
    ((3, 2), (1, 2), 1),
    ((-1, 2), (1, 1), 0),
    ((1, 2), (-1, 2), 0),
    ((1, 2), (-1, 1), 0),
    ((-2, 3), (1, 2), 0),
    ((2, 1), (1, 2), 1),  # improper, but its skeleton is fitted all the same
]
DESK_WORDS = [([1, 2, 2, 1], [0]), ([2, 1, 2], [1]), ([1, 1, 2, 2], [2])]


def desk_skeletons():
    specs = [cyclic_spec(inner, outer, ell) for inner, outer, ell in DESK_CYCLIC]
    specs += [word_spec(word(3, letters), free) for letters, free in DESK_WORDS]
    return [realize(spec, None)[0].skeleton for spec in specs]


def probes(knots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The knots, the midpoints, random inner points and points beyond both ends."""
    span = knots[-1] - knots[0]
    return np.concatenate((
        knots,
        (knots[1:] + knots[:-1]) / 2,
        rng.uniform(knots[0], knots[-1], 16),
        [knots[0] - 0.3 * span, knots[0] - 1e-3, knots[-1] + 1e-3, knots[-1] + 0.3 * span],
    ))


def assert_matches_scipy(knots: np.ndarray, values: np.ndarray, rng: np.random.Generator):
    """Every row of the stacked table against its own PchipInterpolator."""
    table = pchip_table(knots, values)
    points = np.stack([probes(row, rng) for row in knots], axis=-1)  # (probes, rows)
    got, slope = pchip_eval(knots, table, points), pchip_eval(knots, table, points, nu=1)
    for i, (x, y) in enumerate(zip(knots, values)):
        ref = PchipInterpolator(x, y)
        np.testing.assert_allclose(got[:, i], ref(points[:, i]), rtol=0, atol=TOL)
        np.testing.assert_allclose(slope[:, i], ref.derivative()(points[:, i]), rtol=0, atol=TOL)
        inner = x[:-1, None]  # every knot but the last starts its own interval
        assert np.array_equal(pchip_eval(x[None], table[:, i:i + 1], inner)[:, 0], y[:-1])


def end_branch(h0, h1, m0, m1) -> str:
    """Which branch of the three-point end slope a knot set takes."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return "zeroed"
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return "capped"
    return "three-point"


def random_knot_sets(rng: np.random.Generator, rows: int, size: int):
    knots = np.cumsum(rng.uniform(0.05, 1.0, (rows, size)), axis=1) - 1.0
    levels = np.array([-1.0, -0.25, 0.0, 0.0, 0.5, 2.0])  # repeats give flat segments
    pick = rng.random((rows, size)) < 0.5
    values = np.where(pick, levels[rng.integers(0, len(levels), (rows, size))],
                      rng.normal(0.0, 1.0, (rows, size)))
    return knots, values


def test_random_knot_tables_match_scipy():
    rng = np.random.default_rng(20240611)
    seen = {"flat": 0, "sign change": 0, "zeroed": 0, "capped": 0, "three-point": 0}
    for size in range(3, 10):
        for _ in range(12):
            knots, values = random_knot_sets(rng, rows=4, size=size)
            assert_matches_scipy(knots, values, rng)
            h, m = np.diff(knots, axis=1), np.diff(values, axis=1) / np.diff(knots, axis=1)
            seen["flat"] += int((m == 0).sum())
            seen["sign change"] += int((np.sign(m[:, 1:]) * np.sign(m[:, :-1]) < 0).sum())
            for r in range(len(knots)):
                seen[end_branch(h[r, 0], h[r, 1], m[r, 0], m[r, 1])] += 1
                seen[end_branch(h[r, -1], h[r, -2], m[r, -1], m[r, -2])] += 1
    assert all(count > 0 for count in seen.values()), seen


@pytest.mark.parametrize("values, branch", [
    ([0.0, 1.0, 11.0], "zeroed"),
    ([0.0, 1.0, -9.0], "capped"),
    ([0.0, 1.0, 2.5], "three-point"),
    ([0.0, 0.0, 1.0], "zeroed"),  # a flat end secant
    ([0.0, 1.0, 1.0], "three-point"),
])
def test_end_slope_branches_match_scipy(values, branch):
    knots, values = np.array([[0.0, 1.0, 2.0]]), np.array([values])
    h, m = np.diff(knots[0]), np.diff(values[0]) / np.diff(knots[0])
    assert end_branch(h[0], h[1], m[0], m[1]) == branch
    assert_matches_scipy(knots, values, np.random.default_rng(0))
    assert_matches_scipy(-knots[:, ::-1], values[:, ::-1], np.random.default_rng(1))


def test_desk_skeleton_tables_match_scipy():
    """fitted_recurrence against one scipy interpolant per slot, built from the
    anchors, and exact equilibria at every skeleton anchor."""
    rng = np.random.default_rng(7)
    for sk in desk_skeletons():
        d = sk.period
        left, center, right = anchor_neighbours(sk)
        rec = fitted_recurrence(sk)
        residual = rec.field(left, center, right)
        assert residual.shape == (sk.strands, d)
        for value in residual.ravel():
            assert value == 0.0
        states = rng.uniform(-1.2, 1.2, (64, d))
        states[:sk.strands] = center
        l, r = np.roll(states, 1, axis=1), np.roll(states, -1, axis=1)
        got, slope = rec.field(l, states, r), rec.slope(states)
        for i in range(d):
            order = np.argsort(center[:, i])
            curvature = -(left[:, i] - 2 * center[:, i] + right[:, i])
            ref = PchipInterpolator([-1.0, *center[order, i], 1.0], [0.0, *curvature[order], 0.0])
            c = states[:, i]
            want = l[:, i] - 2 * c + r[:, i] + ref(c)
            np.testing.assert_allclose(got[:, i], want, rtol=0, atol=TOL)
            np.testing.assert_allclose(slope[:, i], ref.derivative()(c), rtol=0, atol=TOL)
