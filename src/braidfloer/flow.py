"""Parabolic recurrence flows on discretized relative braid classes.

The flow integrates du_i/ds = R_i(u_{i-1}, u_i, u_{i+1}) for the free strand,
with the skeleton frozen.  The default R_i is the discrete Laplacian plus a
nonlinearity g_i that makes every skeleton anchor an exact equilibrium: a
numpy PCHIP table over all slots, with Fritsch-Carlson (1980) slopes by the
Fritsch-Butland (1984) harmonic mean, as in scipy's PchipInterpolator.  The
table also gives g_i' and so the exact Jacobian.  Crossing numbers may never
increase along the flow: a step that would raise them is retried at half
step, and a persistent increase is a hard failure since it would falsify the
monotonicity property, not the input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .complex import component_contains, enumerate_component
from .discrete import SNAP, DiscreteBraid, DiscreteRelativeBraid, crosses, snapped
from .errors import (BoundaryContactError, BraidInputError, ImproperClassError,
                     MonotonicityViolationError, TransversalityError)

MONOTONE_MARGIN = 1e-6
STATIONARY_RESIDUAL = 1e-8
DISTINCT_TOL = 1e-4
SEEDS = 60  # top cells sampled as starts of a stationary search


@dataclass
class RecurrenceRelation:
    """Nearest-neighbour recurrence, increasing in the outer arguments.

    `field(left, center, right)` evaluates every R_i at once on arrays whose
    last axis runs over the slots.  `center_slope`, when given, declares the
    form R_i = l - 2c + r + g_i(c) with g_i' = center_slope, and the Jacobian
    is exact; otherwise it is taken by central differences.
    """

    period: int
    field: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    center_slope: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self._slots = np.arange(self.period)
        self._left, self._right = self._slots - 1, (self._slots + 1) % self.period  # -1: d-1
        self.certify_monotone()

    def certify_monotone(self) -> None:
        """Finite-difference check of dR/d(left) > 0 and dR/d(right) > 0."""
        h = 1e-4
        grid = np.linspace(-0.9, 0.9, 9)[::3]
        a, c, b = (np.repeat(v.reshape(-1, 1), self.period, axis=1)
                   for v in np.meshgrid(grid, grid, grid, indexing="ij"))
        d1 = (self.field(a + h, c, b) - self.field(a - h, c, b)) / (2 * h)
        d3 = (self.field(a, c, b + h) - self.field(a, c, b - h)) / (2 * h)
        if np.shape(d1) != a.shape or np.shape(d3) != a.shape:
            raise BraidInputError("need one recurrence value per slot")
        bad = ((d1 < MONOTONE_MARGIN) | (d3 < MONOTONE_MARGIN)).T  # slot by slot
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise BraidInputError(f"recurrence at slot {i} is not monotone "
                                  f"(dR1={d1[k, i]:.2e}, dR3={d3[k, i]:.2e})")

    def vector_field(self, u: np.ndarray) -> np.ndarray:
        """R at the states u, whose last axis runs over the slots."""
        return self.field(u[..., self._left], u, u[..., self._right])

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """Periodic tridiagonal Jacobians of the vector field, shape (..., d, d)."""
        if self.center_slope is not None:
            dl = dr = np.ones_like(u)
            dc = -2.0 + self.center_slope(u)
        else:
            h, f, left, right = 1e-6, self.field, u[..., self._left], u[..., self._right]
            dl = (f(left + h, u, right) - f(left - h, u, right)) / (2 * h)
            dr = (f(left, u, right + h) - f(left, u, right - h)) / (2 * h)
            dc = (f(left, u + h, right) - f(left, u - h, right)) / (2 * h)
        jac = np.zeros(u.shape + (self.period,))
        jac[..., self._slots, self._left] += dl
        jac[..., self._slots, self._right] += dr
        jac[..., self._slots, self._slots] += dc
        return jac


def _end_slope(h0, h1, m0, m1):
    """Three-point end slope, zeroed or capped at 3 m0 to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    cap = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) == np.sign(m0), np.where(cap, 3.0 * m0, d), 0.0)


def pchip_table(knots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cubic Hermite coefficients (4, rows, knots - 1), highest power first, of
    the PCHIP interpolants through the rows of `knots` (increasing, at least
    three) and `values`.  An inner slope is the weighted harmonic mean of the
    secants beside it, or zero where they change sign or one is flat."""
    h = np.diff(knots, axis=-1)
    m = np.diff(values, axis=-1) / h
    h0, h1, m0, m1 = h[:, :-1], h[:, 1:], m[:, :-1], m[:, 1:]
    flat = (np.sign(m1) != np.sign(m0)) | (m1 == 0) | (m0 == 0)
    w1, w2 = 2 * h1 + h0, h1 + 2 * h0
    mean = (w1 / np.where(flat, 1.0, m0) + w2 / np.where(flat, 1.0, m1)) / (w1 + w2)
    slopes = np.concatenate((_end_slope(h[:, :1], h[:, 1:2], m[:, :1], m[:, 1:2]),
                             np.where(flat, 0.0, 1.0 / mean),
                             _end_slope(h[:, -1:], h[:, -2:-1], m[:, -1:], m[:, -2:-1])), axis=1)
    t = (slopes[:, :-1] + slopes[:, 1:] - 2 * m) / h
    return np.stack((t / h, (m - slopes[:, :-1]) / h - t, slopes[:, :-1], values[:, :-1]))


def pchip_eval(knots: np.ndarray, table: np.ndarray, u: np.ndarray, nu: int = 0) -> np.ndarray:
    """Row i's interpolant (nu=0) or its derivative (nu=1) at u[..., i].  A point
    takes the interval starting at or below it (searchsorted(side="right") - 1,
    clipped to the end intervals), so every knot gives its value exactly."""
    rows = np.arange(len(knots))
    k = (u[..., None] >= knots[:, 1:-1]).sum(axis=-1)
    s = u - knots[rows, k]
    c0, c1, c2, c3 = table[:, rows, k]
    if nu:
        return c2 + (2.0 * c1) * s + (3.0 * c0) * (s * s)
    return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


def fitted_recurrence(skeleton: DiscreteBraid) -> RecurrenceRelation:
    """Discrete Laplacian plus per-slot nonlinearity with the skeleton anchors
    as exact equilibria and the markers +-1 pinned."""
    d = skeleton.period
    paths = skeleton.lattice / skeleton.den  # as in evolve
    before = np.roll(paths[:, :d], 1, axis=1)  # slots -1..d-1
    before[list(skeleton.closure.image), 0] = paths[:, d - 1]
    curvature = -(before - 2 * paths[:, :d] + paths[:, 1:])
    order = np.argsort(paths[:, :d], axis=0, kind="stable")
    knots = np.pad(np.take_along_axis(paths[:, :d], order, axis=0).T, ((0, 0), (1, 1)),
                   constant_values=(-1.0, 1.0))
    coincide = (np.diff(knots[:, :-1], axis=1) < 1e-12).any(axis=1)
    if coincide.any():
        raise BraidInputError("two skeleton anchors coincide at slot "
                              f"{int(np.argmax(coincide))}; jitter the skeleton")
    values = np.pad(np.take_along_axis(curvature, order, axis=0).T, ((0, 0), (1, 1)))
    table = pchip_table(knots, values)
    return RecurrenceRelation(d, lambda l, c, r: l - 2 * c + r + pchip_eval(knots, table, c),
                              lambda c: pchip_eval(knots, table, c, nu=1))


@dataclass
class FlowState:
    """Trajectory endpoint with its crossing-number trace."""

    u: np.ndarray
    s: float
    trace: list[tuple[float, int]] = field(default_factory=list)
    converged: bool = False
    steps_accepted: int = 0

    def crossings_non_increasing(self) -> bool:
        values = [c for _, c in self.trace]
        return all(b <= a for a, b in zip(values, values[1:]))


def _free_crossings(u: np.ndarray, paths: np.ndarray) -> int:
    """Crossings of the float free strand u (slots 0..d-1) with the float
    skeleton paths (strands by slots 0..d)."""
    after = np.concatenate((u[1:], u[:1]))  # u at slots 1..d; np.roll is slower
    return int(crosses(u - paths[:, :-1], after - paths[:, 1:]).sum())


def evolve(rel: DiscreteRelativeBraid, recurrence: RecurrenceRelation,
           horizon: float = 50.0) -> FlowState:
    """Integrate the parabolic flow from the free strand of `rel`.

    Steps that would increase the crossing number are halved; a persistent
    increase raises MonotonicityViolationError.  Leaving (-1, 1) raises
    BoundaryContactError.  Every accepted step is recorded in the trace.
    """
    if rel.free.strands != 1:
        raise BraidInputError("the simulator drives one free strand")
    # skeleton values at slots 0..d, unrolled through the closure, and the free
    # strand's; each is the anchor rounded once while the denominator is below 2^53
    paths = rel.skeleton.lattice / rel.skeleton.den
    internal = rel.skeleton.crossings
    u = rel.free.nums[0] / rel.free.den
    s, h = 0.0, 0.02
    cross = internal + _free_crossings(u, paths)
    state = FlowState(u, s, [(0.0, cross)])
    while s < horizon:
        r = recurrence.vector_field(u)
        if np.max(np.abs(r)) < 1e-10:
            state.converged = True
            break
        step = min(h, horizon - s)
        while True:
            candidate = u + step * r
            if np.max(np.abs(candidate)) >= 1.0:
                raise BoundaryContactError(f"trajectory reached the disc boundary at s={s:.4g}")
            new_cross = internal + _free_crossings(candidate, paths)
            if new_cross <= cross:
                break
            step /= 2
            if step < 1e-9:
                raise MonotonicityViolationError("crossing number increases at every step size; "
                                                 "the monotonicity property is violated")
        u, s, cross = candidate, s + step, new_cross
        state.steps_accepted += 1
        state.trace.append((s, cross))
        h = min(step * 1.3, 0.05)
    state.u, state.s = u, s
    if not state.crossings_non_increasing():
        raise MonotonicityViolationError("recorded trace increased")
    return state


def _solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve on a stack of systems, NaN in the rows of singular ones."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.full_like(rhs, np.nan)
        half = len(rhs) // 2
        return np.concatenate((_solve(jac[:half], rhs[:half]), _solve(jac[half:], rhs[half:])))


def _newton_polish(recurrence: RecurrenceRelation, u0: np.ndarray, iterations: int = 40):
    """Damped Newton on all rows of u0 at once: (rows reached, stationary mask).
    A row stops once its residual is below 1e-13, and is dropped when it leaves
    the disc or meets a singular Jacobian."""
    u = u0.copy()
    live, dropped = np.ones(len(u), dtype=bool), np.zeros(len(u), dtype=bool)
    for _ in range(iterations):
        rows = np.flatnonzero(live)
        r = recurrence.vector_field(u[rows])
        live[rows[np.max(np.abs(r), axis=1) < 1e-13]] = False
        rows, r = rows[live[rows]], r[live[rows]]
        if not len(rows):
            break
        delta = _solve(recurrence.jacobian(u[rows]), -r)
        u[rows] += delta * (0.5 / np.maximum(np.max(np.abs(delta), axis=1), 0.5))[:, None]
        dropped[rows[~(np.max(np.abs(u[rows]), axis=1) < 1.0)]] = True  # NaN: singular
        live &= ~dropped
    residual = np.max(np.abs(recurrence.vector_field(u)), axis=1)
    return u, ~dropped & (residual < STATIONARY_RESIDUAL)


def find_stationary(rel: DiscreteRelativeBraid, recurrence: RecurrenceRelation | None = None,
                    rng=None, expected: int | None = None):
    """Stationary free strands in the braid class of `rel`, and warnings.

    Multistart flow descent followed by one batched Newton polish; solutions
    are kept when the residual is below 1e-8, they stay inside the class, and
    they are pairwise distinct beyond 1e-4 in sup norm."""
    comp = enumerate_component(rel)
    if not comp.proper:
        raise ImproperClassError("find_stationary needs a proper class", comp.collapse_witness)
    recurrence = recurrence or fitted_recurrence(rel.skeleton)
    geo = comp.geometry
    gaps = geo.digits(comp.top_cells)
    cubes = gaps[np.lexsort(gaps.T[::-1])].tolist()  # lexicographic, slot 0 first
    chosen = cubes if len(cubes) <= SEEDS else (rng or random.Random(0)).sample(cubes, SEEDS)
    starts = np.array([rel.free.nums[0] / rel.free.den,
                       *([float(v) for v in geo.representative(cube)] for cube in chosen)])
    smoothed = starts.copy()
    for n, u0 in enumerate(starts):
        # a short descent smooths the seed; most trajectories exit the class (it is
        # isolated, not attracting), so Newton does the real work, from both seeds
        try:
            free = DiscreteBraid(snapped(u0)[None], SNAP, rel.free.closure)
            state = evolve(DiscreteRelativeBraid(free, rel.skeleton), recurrence, horizon=0.4)
            smoothed[n] = state.u
        except (TransversalityError, BraidInputError, BoundaryContactError):
            pass
    polished, ok = _newton_polish(recurrence, np.concatenate((smoothed, starts)))
    polished, ok = polished.reshape(2, *starts.shape), ok.reshape(2, -1)
    solutions: list[np.ndarray] = []
    warnings: list[str] = []
    for n in np.flatnonzero(ok.any(axis=0)):
        u_star = polished[0 if ok[0, n] else 1, n]
        if component_contains(comp, snapped(u_star), SNAP) and all(
                np.max(np.abs(u_star - s)) > DISTINCT_TOL for s in solutions):
            solutions.append(u_star)
    if expected is not None and len(solutions) < expected:
        warnings.append(f"found {len(solutions)} stationary braids, fewer than the "
                        f"homological lower bound {expected}")
    return [(u, float(np.max(np.abs(recurrence.vector_field(u))))) for u in solutions], warnings
