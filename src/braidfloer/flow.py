"""Parabolic recurrence flows on discretized relative braid classes.

The flow integrates du_i/ds = R_i(u_{i-1}, u_i, u_{i+1}) for the free strand,
with the skeleton frozen.  The default recurrence is the discrete Laplacian
plus a slot-dependent nonlinearity fitted (monotone cubic interpolation) so
that every skeleton anchor is an exact equilibrium.  Crossing numbers may
never increase along the flow: a step that would raise them is retried at
half step, and a persistent increase is a hard failure since it would
falsify the monotonicity property, not the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from .discrete import DiscreteBraid, DiscreteRelativeBraid, snap
from .errors import (
    BoundaryContactError,
    BraidInputError,
    MonotonicityViolationError,
    TransversalityError,
)

MONOTONE_MARGIN = 1e-6
STATIONARY_RESIDUAL = 1e-8
DISTINCT_TOL = 1e-4


@dataclass
class RecurrenceRelation:
    """Nearest-neighbour recurrence, one map per slot, increasing in the
    outer arguments."""

    period: int
    maps: list[Callable[[float, float, float], float]]
    center_derivatives: list[Callable[[float], float]] | None = None

    def __post_init__(self):
        if len(self.maps) != self.period:
            raise BraidInputError("need one recurrence map per slot")
        self.certify_monotone()

    def certify_monotone(self, samples: int = 9) -> None:
        """Finite-difference check of dR/d(left) > 0 and dR/d(right) > 0."""
        h = 1e-4
        grid = np.linspace(-0.9, 0.9, samples)
        for i, r in enumerate(self.maps):
            for a in grid[::3]:
                for c in grid[::3]:
                    for b in grid[::3]:
                        d1 = (r(a + h, c, b) - r(a - h, c, b)) / (2 * h)
                        d3 = (r(a, c, b + h) - r(a, c, b - h)) / (2 * h)
                        if d1 < MONOTONE_MARGIN or d3 < MONOTONE_MARGIN:
                            raise BraidInputError(
                                f"recurrence at slot {i} is not monotone "
                                f"(dR1={d1:.2e}, dR3={d3:.2e})"
                            )

    def __call__(self, i: int, left: float, center: float, right: float) -> float:
        return self.maps[i % self.period](left, center, right)

    def vector_field(self, u: np.ndarray) -> np.ndarray:
        d = self.period
        return np.array(
            [self(i, u[(i - 1) % d], u[i], u[(i + 1) % d]) for i in range(d)]
        )

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        d = self.period
        jac = np.zeros((d, d))
        h = 1e-6
        for i in range(d):
            l, c, r = u[(i - 1) % d], u[i], u[(i + 1) % d]
            jac[i, (i - 1) % d] += (self(i, l + h, c, r) - self(i, l - h, c, r)) / (2 * h)
            jac[i, (i + 1) % d] += (self(i, l, c, r + h) - self(i, l, c, r - h)) / (2 * h)
            if self.center_derivatives is not None:
                jac[i, i] += -2.0 + self.center_derivatives[i](c)
            else:
                jac[i, i] += (self(i, l, c + h, r) - self(i, l, c - h, r)) / (2 * h)
        return jac


def fitted_recurrence(skeleton: DiscreteBraid) -> RecurrenceRelation:
    """Discrete Laplacian plus per-slot nonlinearity with the skeleton anchors
    as exact equilibria and the markers +-1 pinned."""
    d = skeleton.period
    maps = []
    derivs = []
    for i in range(d):
        xs, ys = [-1.0], [0.0]
        entries = sorted(
            (float(skeleton.anchors[l][i]),
             -(float(skeleton.value(l, i - 1)) - 2 * float(skeleton.anchors[l][i])
               + float(skeleton.value(l, i + 1))))
            for l in range(skeleton.strands)
        )
        for x, y in entries:
            if xs and abs(x - xs[-1]) < 1e-12:
                raise BraidInputError(
                    f"two skeleton anchors coincide at slot {i}; jitter the skeleton"
                )
            xs.append(x)
            ys.append(y)
        xs.append(1.0)
        ys.append(0.0)
        g = PchipInterpolator(xs, ys)
        dg = g.derivative()
        maps.append(lambda l, c, r, g=g: l - 2 * c + r + float(g(c)))
        derivs.append(lambda c, dg=dg: float(dg(c)))
    return RecurrenceRelation(d, maps, derivs)


@dataclass
class FlowState:
    """Trajectory endpoint with its crossing-number trace."""

    u: np.ndarray
    s: float
    trace: list[tuple[float, int]] = field(default_factory=list)
    converged: bool = False
    steps_accepted: int = 0
    steps_retried: int = 0

    def crossings_non_increasing(self) -> bool:
        values = [c for _, c in self.trace]
        return all(b <= a for a, b in zip(values, values[1:]))


_skeleton_cache: dict[DiscreteBraid, tuple[list[list[float]], int]] = {}


def _skeleton_data(skeleton: DiscreteBraid) -> tuple[list[list[float]], int]:
    """Unrolled float strand paths and the internal crossing count, cached."""
    key = skeleton
    hit = _skeleton_cache.get(key)
    if hit is not None:
        return hit
    from .discrete import pair_crossings

    d = skeleton.period
    paths = [
        [float(skeleton.value(l, i)) for i in range(d + 1)]
        for l in range(skeleton.strands)
    ]
    internal = sum(
        pair_crossings(skeleton, k, l, i)
        for k in range(skeleton.strands)
        for l in range(k + 1, skeleton.strands)
        for i in range(d)
    )
    if len(_skeleton_cache) > 64:
        _skeleton_cache.clear()
    _skeleton_cache[key] = (paths, internal)
    return paths, internal


def crossing_count_float(u: Sequence[float], skeleton: DiscreteBraid) -> int:
    """Crossings of the float free strand with the skeleton plus the
    skeleton's internal crossings."""
    d = skeleton.period
    paths, total = _skeleton_data(skeleton)
    for path in paths:
        for i in range(d):
            a = u[i] - path[i]
            b = u[(i + 1) % d] - path[i + 1]
            if a == 0:
                continue
            if b == 0 or (a < 0) != (b < 0):
                total += 1
    return total


def evolve(
    rel: DiscreteRelativeBraid,
    recurrence: RecurrenceRelation,
    horizon: float = 50.0,
    initial_step: float = 0.02,
    min_step: float = 1e-9,
    record_every: int = 1,
) -> FlowState:
    """Integrate the parabolic flow from the free strand of `rel`.

    Steps that would increase the crossing number are halved; a persistent
    increase raises MonotonicityViolationError.  Leaving (-1, 1) raises
    BoundaryContactError carrying the state reached.
    """
    if rel.free.strands != 1:
        raise BraidInputError("the simulator drives one free strand")
    sk = rel.skeleton
    u = np.array([float(v) for v in rel.free.anchors[0]])
    s = 0.0
    h = initial_step
    cross = crossing_count_float(u, sk)
    state = FlowState(u, s, [(0.0, cross)])
    while s < horizon:
        r = recurrence.vector_field(u)
        resid = float(np.max(np.abs(r)))
        if resid < 1e-10:
            state.converged = True
            break
        step = min(h, horizon - s)
        while True:
            candidate = u + step * r
            if np.max(np.abs(candidate)) >= 1.0:
                raise BoundaryContactError(
                    f"trajectory reached the disc boundary at s={s:.4g}", state
                )
            new_cross = crossing_count_float(candidate, sk)
            if new_cross <= cross:
                break
            state.steps_retried += 1
            step /= 2
            if step < min_step:
                raise MonotonicityViolationError(
                    "crossing number increases at every step size; "
                    "the monotonicity property is violated"
                )
        u = candidate
        s += step
        cross = new_cross
        state.steps_accepted += 1
        if state.steps_accepted % record_every == 0:
            state.trace.append((s, cross))
        h = min(step * 1.3, 0.05)
    state.u = u
    state.s = s
    if state.trace[-1][0] != s:
        state.trace.append((s, cross))
    if not state.crossings_non_increasing():
        raise MonotonicityViolationError("recorded trace increased")
    return state


def _newton_polish(recurrence: RecurrenceRelation, u0: np.ndarray, iterations: int = 40):
    u = u0.copy()
    for _ in range(iterations):
        r = recurrence.vector_field(u)
        if np.max(np.abs(r)) < 1e-13:
            break
        try:
            delta = np.linalg.solve(recurrence.jacobian(u), -r)
        except np.linalg.LinAlgError:
            return None
        if np.max(np.abs(delta)) > 0.5:
            delta *= 0.5 / np.max(np.abs(delta))
        u = u + delta
        if np.max(np.abs(u)) >= 1.0:
            return None
    return u if np.max(np.abs(recurrence.vector_field(u))) < STATIONARY_RESIDUAL else None


def find_stationary(
    rel: DiscreteRelativeBraid,
    recurrence: RecurrenceRelation | None = None,
    seeds: int = 60,
    rng=None,
    expected: int | None = None,
):
    """Stationary free strands in the braid class of `rel`.

    Multistart flow descent followed by Newton polishing; solutions are kept
    when the residual is below 1e-8, they stay inside the class, and they are
    pairwise distinct beyond 1e-4 in sup norm.  Returns (solutions, warnings).
    """
    import random as _random

    from .complex import component_contains, enumerate_component

    comp = enumerate_component(rel)
    if not comp.proper:
        from .errors import ImproperClassError

        raise ImproperClassError("find_stationary needs a proper class", comp.collapse_witness)
    recurrence = recurrence or fitted_recurrence(rel.skeleton)
    rng = rng or _random.Random(0)
    geo = comp.geometry
    cubes = sorted(comp.top_cells)
    picks = [tuple(rel.free.anchors[0])]
    chosen = cubes if len(cubes) <= seeds else rng.sample(cubes, seeds)
    picks.extend(tuple(geo.representative(c)) for c in chosen)
    solutions: list[np.ndarray] = []
    warnings: list[str] = []
    for start in picks:
        u0 = np.array([float(v) for v in start])
        # a short descent smooths the seed; most trajectories exit the class
        # (the invariant set is isolated, not attracting), so Newton does the
        # real work and the pre-flow seed is kept as a fallback
        candidates = [u0]
        try:
            free = DiscreteBraid(
                1, rel.period, (tuple(snap(float(x)) for x in u0),), rel.free.closure
            )
            state = evolve(DiscreteRelativeBraid(free, rel.skeleton), recurrence, horizon=0.4)
            candidates.insert(0, state.u)
        except (TransversalityError, BraidInputError, BoundaryContactError):
            pass
        u_star = None
        for cand in candidates:
            u_star = _newton_polish(recurrence, cand)
            if u_star is not None:
                break
        if u_star is None:
            continue
        snapped = [snap(float(v)) for v in u_star]
        if not component_contains(comp, snapped):
            continue
        if any(np.max(np.abs(u_star - s)) <= DISTINCT_TOL for s in solutions):
            continue
        solutions.append(u_star)
    if expected is not None and len(solutions) < expected:
        warnings.append(
            f"found {len(solutions)} stationary braids, fewer than the "
            f"homological lower bound {expected}"
        )
    residuals = [float(np.max(np.abs(recurrence.vector_field(u)))) for u in solutions]
    return list(zip(solutions, residuals)), warnings
