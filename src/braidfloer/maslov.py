"""Permuted Conley-Zehnder indices of symplectic paths Psi' = J0 K(t) Psi.

Coordinates are (p^1..p^n, q^1..q^n), J0 = [[0, -I], [I, 0]], and a strand
permutation sigma acts block-diagonally on the p's and q's.  The index sums
the signatures of the crossing forms <sigma xi, K(t0) sigma xi> at the zeros
t0 of det(Psi(t) - sigma), half weight at the endpoints, stored doubled.

Every family is a table, K linear between samples; with a node at each knot,
Taylor series solve the steps, the nodes' symplectic drift below DRIFT_BOUND.
Zeros are found on the smallest singular value of Psi(t) - sigma: the node grid
brackets them, and a Lipschitz zoom cuts each around its V's apex to BISECTION_TOL.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    BraidInputError,
    DegenerateCrossingError,
    StationaryDegenerateError,
    StiffnessError,
)
from .words import StrandPermutation

DRIFT_BOUND = 1e-8
KERNEL_TOL = 1e-8
EIGEN_TOL = 1e-8
BISECTION_TOL = 1e-12
SYMMETRY_TOL = 1e-12
NODE_SPACING = 1 / 8   # bound on the integral of ||J0 K||_2 over one step
TAYLOR_DEGREE = 10     # remainder below 1e-17 at that spacing
MAX_STEPS = 2 ** 20
ZOOM_POINTS = 17


@functools.cache
def standard_j(n: int) -> np.ndarray:
    j = np.eye(2 * n, k=-n) - np.eye(2 * n, k=n)
    j.flags.writeable = False  # one array per n, shared by every caller
    return j


def permutation_matrix(sigma: StrandPermutation) -> np.ndarray:
    """Block-diagonal pair of permutation matrices defining the permuted diagonal."""
    return np.eye(2 * sigma.n)[[n + k for n in (0, sigma.n) for k in sigma.image]]  # sigma(k) at k


@dataclass
class SymmetricFamily:
    """K(t) through samples (times increasing): linear between them, constant outside."""

    times: np.ndarray
    matrices: np.ndarray  # samples x 2n x 2n, checked for shape and symmetry here

    def __post_init__(self):
        d = self.matrices.shape[1]
        if d % 2:
            raise BraidInputError("dimension must be even (2n)")
        if self.matrices.shape[2] != d:
            raise BraidInputError(f"K(t) must be {d}x{d}")
        if np.abs(self.matrices - np.swapaxes(self.matrices, 1, 2)).max() >= SYMMETRY_TOL:
            raise BraidInputError("K(t) is not symmetric")

    def __call__(self, t) -> np.ndarray:
        """K(t) for a time, or the stack of K over a 1-d array of times."""
        ts, ks = self.times, self.matrices
        i = np.minimum(np.maximum(ts.searchsorted(t), 1), len(ts) - 1)  # the sample above t
        w = np.minimum(np.maximum((t - ts[i - 1]) / (ts[i] - ts[i - 1]), 0.0), 1.0)[..., None, None]
        return (1 - w) * ks[i - 1] + w * ks[i]

    @property
    def strands(self) -> int:
        return self.matrices.shape[1] // 2


def _finite_array(value, name: str, ndim: int, expected: str) -> np.ndarray:
    """value as a float array of ndim dimensions with finite entries, else refused by name."""
    try:
        a = np.asarray(value, dtype=float)
        if a.ndim != ndim:
            raise ValueError
    except (TypeError, ValueError):
        raise BraidInputError(f"{name} must be {expected}") from None
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        at = ", ".join(map(str, bad[0]))
        raise BraidInputError(f"{name}[{at}] is {a[tuple(bad[0])]}, not a finite number")
    return a


def constant_family(k) -> SymmetricFamily:
    """The family t -> K: a table of two equal samples."""
    k = _finite_array(k, "matrix", 2, "a 2-D array of numbers")
    return SymmetricFamily(np.array([0.0, 1.0]), np.stack((k, k)))


def _positive_tau(tau: float) -> float:
    if not np.isfinite(tau):  # a NaN tau passes every step-size test, into a NaN grid
        raise BraidInputError(f"tau is {tau}, not a finite number")
    if not tau > 0:  # the node grid would run backwards or stand still
        raise BraidInputError(f"tau is {tau}, not a positive number")
    return tau


def rotation_family(k: int, n: int = 1, tau: float = 1.0) -> SymmetricFamily:
    """Generator of the loop e^{(2 pi k / tau) J0 t}."""
    return constant_family((2 * np.pi * k / _positive_tau(tau)) * np.eye(2 * n))


def sampled_family(times: Sequence[float], matrices: Sequence) -> SymmetricFamily:
    """Linear interpolation through a table of sampled symmetric matrices."""
    ts = _finite_array(times, "times", 1, "a list of numbers")
    square = "a square 2-D array of numbers"
    mats = [_finite_array(m, f"matrices[{i}]", 2, square) for i, m in enumerate(matrices)]
    if len(ts) != len(mats) or len(ts) < 2:
        raise BraidInputError("need matching times and matrices, at least two samples")
    if not np.all(ts[1:] > ts[:-1]):  # else an interpolation weight is 0/0 or runs backwards
        raise BraidInputError("times must be strictly increasing")
    for i, m in enumerate(mats):
        if m.shape != mats[0].shape:
            raise BraidInputError(f"matrices[{i}] has shape {m.shape}, matrices[0] has shape "
                                  f"{mats[0].shape}")
    if mats[0].shape[0] != mats[0].shape[1]:
        raise BraidInputError(f"matrices[0] must be {square}")
    return SymmetricFamily(ts, np.stack(mats))


@dataclass
class SymplecticPathSample:
    """Psi on [0, tau]: at the nodes `times`, and Psi(t_i + s) = sum_k s^k P_k
    Psi(t_i) after node i, P_k = taylor[generators[i], k] (flattened).  With
    `turns` k the path is composed with the loop e^{2 pi k J0 t / tau}."""

    family: SymmetricFamily
    tau: float
    times: np.ndarray
    matrices: np.ndarray
    steps: int
    drift: float
    taylor: np.ndarray
    generators: np.ndarray
    turns: int = 0

    def _rotation(self, t) -> np.ndarray:
        theta = (2 * np.pi * self.turns / self.tau * np.asarray(t))[..., None, None]
        j = standard_j(self.family.strands)
        return np.cos(theta) * np.eye(len(j)) + np.sin(theta) * j

    def psi(self, t) -> np.ndarray:
        """Psi(t) for a time, or the stack of Psi over a 1-d array of times."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if len(ts) > 4096:  # in blocks, as each time gathers its Taylor rows
            return np.concatenate([self.psi(b) for b in np.split(ts, range(4096, len(ts), 4096))])
        i = np.searchsorted(self.times[1:], ts, side="right")  # last node <= t
        s = (ts - self.times[i])[:, None]
        p = (s ** np.arange(TAYLOR_DEGREE + 1))[:, None] @ self.taylor[self.generators[i]]
        out = p.reshape(-1, *self.matrices.shape[1:]) @ self.matrices[i]
        if self.turns:
            out = self._rotation(ts) @ out
        return out if np.ndim(t) else out[0]


def _rk4(family: SymmetricFamily, psi0: np.ndarray, t0: float, t1: float, steps: int,
         j: np.ndarray) -> np.ndarray:
    h = (t1 - t0) / steps
    psi = psi0.copy()
    t = t0
    for _ in range(steps):
        k1 = j @ family(t) @ psi
        mid = j @ family(t + h / 2)
        k2 = mid @ (psi + h / 2 * k1)
        k3 = mid @ (psi + h / 2 * k2)
        k4 = j @ family(t + h) @ (psi + h * k3)
        psi = psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return psi


def integrate_path(family: SymmetricFamily, tau: float) -> SymplecticPathSample:
    """Psi on [0, tau] with a node at every knot, where the slope of K changes.

    A step count starts at 128 and doubles, up to MAX_STEPS, until
    h (||J0 K|| + h ||J0 K'|| / 2) <= NODE_SPACING (2-norms, maxima over the knots);
    each knot interval takes ceil(length * steps / tau) equal steps.  On a step J0 K
    = A + s D, so Psi(t_i + s) = P(s) Psi(t_i), P_0 = I, P_1 = A, (k + 1) P_{k+1} = A
    P_k + D P_{k-1} to TAYLOR_DEGREE, summed by Horner's rule in h; the steps of an
    interval where K is constant share one generator.  Drift stays below DRIFT_BOUND.
    """
    _positive_tau(tau)
    j = standard_j(family.strands)
    ts, ks = family.times, family.matrices
    flat = np.zeros((1,) + j.shape)
    slopes = np.concatenate((flat, (ks[1:] - ks[:-1]) / (ts[1:] - ts[:-1])[:, None, None],
                             flat))  # before, between and after the samples
    kinks = np.any(slopes[1:] != slopes[:-1], axis=(1, 2)) & (ts > 0) & (ts < tau)
    ends = np.concatenate(([0.0], ts[kinks], [tau]))
    slope = j @ slopes[np.searchsorted(ts, (ends[:-1] + ends[1:]) / 2)]  # J0 K' on each interval
    a_ends = j @ family(ends)
    a_norm, d_norm = (np.linalg.svd(m, compute_uv=False)[:, 0].max() for m in (a_ends, slope))
    steps = 128
    while steps <= MAX_STEPS and tau / steps * (a_norm + tau / steps * d_norm / 2) > NODE_SPACING:
        steps *= 2
    if steps > MAX_STEPS:
        raise BraidInputError(f"tau = {tau} needs more than {MAX_STEPS} steps")
    counts = np.ceil((ends[1:] - ends[:-1]) / tau * steps).astype(int)
    width, offset = (ends[1:] - ends[:-1]) / counts, np.cumsum(counts) - counts
    piece = np.repeat(np.arange(len(counts)), counts)  # the interval of each step
    times = np.append(ends[piece] + (np.arange(len(piece)) - offset[piece]) * width[piece], tau)
    fresh = slope.any(axis=(1, 2))[piece]  # every step of a sloped interval
    fresh[offset] = True  # and the first step of each interval starts a generator
    home, h = piece[fresh], width[piece[fresh]][:, None, None]  # each generator's interval, step
    q = np.zeros((len(h), TAYLOR_DEGREE + 2) + j.shape)  # q[:, k + 1] = P_k, q[:, 0] = 0
    q[:, 1], q[:, 2] = np.eye(len(j)), a_ends[home] + (
        times[:-1][fresh] - ends[home])[:, None, None] * slope[home]
    da = np.concatenate((slope[home], q[:, 2]), axis=2)  # [D A] [P_{k-1}; P_k] = (k + 1) P_{k+1}
    for k in range(1, TAYLOR_DEGREE):
        q[:, k + 2] = da @ q[:, k:k + 2].reshape(len(h), -1, len(j)) / (k + 1)
    step = q[:, -1]
    for k in range(TAYLOR_DEGREE, 0, -1):
        step = q[:, k] + h * step
    generators = np.cumsum(fresh) - 1
    nodes = _products(step, generators)
    drift = float(np.max(np.abs(np.swapaxes(nodes, 1, 2) @ j @ nodes - j)))
    if not drift < DRIFT_BOUND:
        raise StiffnessError(f"Taylor steps drift by {drift:.3g} at {len(generators)} steps")
    return SymplecticPathSample(family, tau, times, nodes, len(generators), drift,
                                q[:, 1:].reshape(len(h), TAYLOR_DEGREE + 1, -1),
                                np.append(generators, generators[-1]))


def _products(step: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """[I, S_0, S_1 S_0, ...] for S_i = step[generators[i]], one run of steps sharing a generator
    at a time: from node m, S, S^2, ..., S^r by doubling (S^{k+i} = S^i S^k), times nodes[m]."""
    nodes = np.empty((len(generators) + 1,) + step.shape[1:])
    nodes[0] = np.eye(step.shape[1])
    starts = np.flatnonzero(np.diff(generators, prepend=-1)).tolist()
    for m, end in zip(starts, starts[1:] + [len(generators)]):
        run = nodes[m + 1:end + 1]
        run[0] = step[generators[m]]
        for k in (1 << e for e in range((len(run) - 1).bit_length())):  # 1, 2, 4, ... < r
            run[k:2 * k] = run[:min(k, len(run) - k)] @ run[k - 1]
        run[:] = run @ nodes[m]
    return nodes


@dataclass(frozen=True)
class CrossingRecord:
    time: float
    kernel_dimension: int
    signature: int
    endpoint: bool


@dataclass(frozen=True)
class MaslovIndex:
    """Half-integer index stored doubled; integer when endpoints behave."""

    twice_value: int
    crossings: tuple[CrossingRecord, ...] = field(default=(), compare=False)

    @property
    def value(self) -> float:
        return self.twice_value / 2


def _crossing_form(path: SymplecticPathSample, sbar: np.ndarray, t0: float) -> CrossingRecord:
    u, s, vt = np.linalg.svd(path.psi(t0) - sbar)
    kernel = vt[s < KERNEL_TOL].T
    if kernel.shape[1] == 0:
        raise DegenerateCrossingError(f"no kernel at detected crossing t={t0}")
    phi = path._rotation(t0)  # K of the path with turns: rate I + phi K phi^T
    k = 2 * np.pi * path.turns / path.tau * np.eye(len(phi)) + phi @ path.family(t0) @ phi.T
    m = kernel.T @ sbar.T @ k @ sbar @ kernel
    eigs = np.linalg.eigvalsh((m + m.T) / 2)
    if np.any(np.abs(eigs) < EIGEN_TOL):
        raise DegenerateCrossingError(f"degenerate crossing form at t={t0}")
    sig = int(np.sum(eigs > 0) - np.sum(eigs < 0))
    return CrossingRecord(t0, kernel.shape[1], sig, False)


def _smin(path: SymplecticPathSample, sbar: np.ndarray, ts) -> np.ndarray:
    """Smallest singular value of Psi(t) - sigma at each time of a stack."""
    return np.linalg.svd(path.psi(np.asarray(ts, dtype=float)) - sbar, compute_uv=False)[..., -1]


def _runs(keep: np.ndarray):
    """(row, first, last) of each run of kept cells; cell c of a row spans points c, c + 1."""
    edges = np.zeros((len(keep), keep.shape[1] + 1), dtype=np.int8)  # keep[c] - keep[c - 1]
    edges[:, :-1] = keep
    edges[:, 1:] -= keep
    rows, starts = np.nonzero(edges == 1)
    return rows, starts, np.nonzero(edges == -1)[1]


def _isolate_zeros(path, sbar, lo, hi, apex, start: float, end: float) -> np.ndarray:
    """The zeros in (start, end) of the smallest singular value f, from brackets [lo, hi].

    Each round evaluates ZOOM_POINTS points per bracket in one call: the apex estimate and,
    on each side, points whose distances to it halve, though never closer than a uniform cut
    of a bracket of BISECTION_TOL or of 256 float steps.  A cell [x, y] can hold a zero only
    if f(x) + f(y) <= 2 L (y - x), L the steepest cell slope in its bracket; at ratio 2 this
    excludes every cell of a V of slope L but the two at its apex.  A run of kept cells,
    narrowed to [x + f(x) / 2L, y - f(y) / 2L], is the next bracket, and its arms of slope L
    meet at the next apex.  A bracket is final at BISECTION_TOL or once it stops shrinking
    (f vanishing along an interval), and yields its midpoint; one outside (start, end) is
    dropped, as its midpoint would be.  A row that keeps no cell, as where rounding lifts f
    to a floor of about 1e-12 over a zero, ends at its least f if that is below KERNEL_TOL.
    """
    half = ZOOM_POINTS // 2
    k = np.arange(half)  # the k-th point on a side halves the distance to the apex k times
    done = []
    while len(lo):
        step = np.maximum(BISECTION_TOL, 256 * np.spacing(np.abs(apex)))[:, None] / (2 * half)
        c = np.clip(apex[:, None], lo[:, None] + half * step, hi[:, None] - half * step)
        left = np.maximum((c - lo[:, None]) * 0.5 ** k, (half - k) * step)
        right = np.maximum((hi[:, None] - c) * 0.5 ** k, (half - k) * step)
        pts = np.hstack((c - left, c, c + right[:, ::-1]))
        f = _smin(path, sbar, pts.ravel()).reshape(pts.shape)
        cell = pts[:, 1:] - pts[:, :-1]
        slope = np.max(np.abs(f[:, 1:] - f[:, :-1]) / cell, axis=1, keepdims=True)
        keep = f[:, :-1] + f[:, 1:] <= 2 * slope * cell
        lost = ~keep.any(axis=1) & (f.min(axis=1) < KERNEL_TOL)  # f's floor above a zero
        done.append(pts[lost, np.argmin(f[lost], axis=1)])
        row, i, j = _runs(keep)
        x, y, fx, fy = pts[row, i], pts[row, j], f[row, i], f[row, j]
        s = np.maximum(2 * slope[row, 0], np.finfo(float).tiny)  # 0 if f = 0 on the bracket
        new_lo, new_hi = x + fx / s, y - fy / s
        final = (new_hi - new_lo <= BISECTION_TOL) | (new_hi - new_lo >= (hi - lo)[row])
        done.append((new_lo + new_hi)[final] / 2)
        go = ~final & (new_hi > start) & (new_lo < end)
        lo, hi, apex = new_lo[go], new_hi[go], ((x + y) / 2 + (fx - fy) / s)[go]
    return np.concatenate([[]] + done)


def _detect_crossings(path: SymplecticPathSample, sbar: np.ndarray, a: float, b: float):
    """Zeros of det(Psi - sigma) in the open interval (a, b), and f(a), f(b).

    det may touch zero without a sign change (kernels of dimension two and
    definite crossing forms), so crossings are found through the smallest
    singular value f.  A grid cell [x, y] is searched when f(x) + f(y) <=
    4 s (y - x), s the steepest slope of f on the grid, which holds for any
    zero whose slope is at most 4 s.  Each run of such cells is a bracket for
    `_isolate_zeros`, with the first apex where arms of the run's steepest
    slope meet.  Zeros within `margin` of a or b, or within KERNEL_TOL / c of an
    endpoint where f < KERNEL_TOL, c the slope of f on that end's grid cell, are its own.
    """
    grid = np.concatenate(([a], path.times[(path.times > a) & (path.times < b)], [b]))
    g = _smin(path, sbar, grid)
    dt = np.diff(grid)  # positive: permuted_cz_index checks a < b
    slope = np.abs(np.diff(g)) / dt
    bound = np.maximum(4 * np.max(slope) * dt, 1e3 * KERNEL_TOL)
    _, i, j = _runs((g[:-1] + g[1:] <= bound)[None, :])
    s = np.array([max(2 * np.max(slope[m:n]), np.finfo(float).tiny) for m, n in zip(i, j)])
    apex = (grid[i] + grid[j]) / 2 + (g[i] - g[j]) / s
    margin = max(1e-9, 100 * BISECTION_TOL)
    found = _isolate_zeros(path, sbar, grid[i], grid[j], apex, a + margin, b - margin)
    lo, hi = (margin + KERNEL_TOL / max(c, np.finfo(float).tiny) * (end < KERNEL_TOL)
              for end, c in ((g[0], slope[0]), (g[-1], slope[-1])))
    found = found[(a + lo < found) & (found < b - hi)]
    if len(found):
        found = found[_smin(path, sbar, found) < KERNEL_TOL]
    crossings = []
    for t0 in sorted(float(t) for t in found):  # merge duplicates from adjacent runs
        if not crossings or t0 - crossings[-1] > 100 * BISECTION_TOL:
            crossings.append(t0)
    return crossings, g[0], g[-1]


def _graph_index(
    path: SymplecticPathSample, sbar: np.ndarray, a: float, b: float, closed: bool = False
) -> MaslovIndex:
    """Maslov index of gr(Psi) against the permuted diagonal over [a, b]."""
    crossings, s_a, s_b = _detect_crossings(path, sbar, a, b)
    records = []
    twice = 0
    if s_a < KERNEL_TOL:
        rec = _crossing_form(path, sbar, a)
        records.append(replace(rec, endpoint=True))
        twice += rec.signature
    for t0 in crossings:
        rec = _crossing_form(path, sbar, t0)
        records.append(rec)
        twice += 2 * rec.signature
    if s_b < KERNEL_TOL:
        if not closed:
            raise StationaryDegenerateError(
                f"det(Psi({b}) - sigma) vanishes: stationary braid degenerate"
            )
        rec = _crossing_form(path, sbar, b)
        records.append(replace(rec, endpoint=True))
        twice += rec.signature
    return MaslovIndex(twice, tuple(records))


def permuted_cz_index(
    path: SymplecticPathSample,
    sigma: StrandPermutation | None = None,
    a: float = 0.0,
    b: float | None = None,
    closed: bool = False,
) -> MaslovIndex:
    """mu_sigma(Psi, tau): crossing signatures with half weight at endpoints.

    The start t=0 is always a crossing (Psi(0)=Id meets the permuted diagonal
    in the fixed space of sigma, which is even dimensional).  A vanishing
    determinant at the far endpoint is reported as a degenerate stationary
    braid unless `closed` is set, in which case the endpoint crossing enters
    with half weight (the loop convention).
    """
    n = path.family.strands
    sigma = sigma or StrandPermutation.identity(n)
    if sigma.n != n:
        raise BraidInputError(f"sigma permutes {sigma.n} strands, the family has {n}")
    sbar = permutation_matrix(sigma)
    b = path.tau if b is None else b
    if not 0 <= a < b <= path.tau:
        raise BraidInputError(f"need 0 <= a < b <= tau = {path.tau}, got a={a}, b={b}")
    idx = _graph_index(path, sbar, a, b, closed=closed)
    if a == 0.0:
        start = next((r for r in idx.crossings if r.endpoint), None)
        if start is not None and start.signature % 2:
            raise AssertionError("odd endpoint signature on an even-dimensional kernel")
    return idx


def rotation_shift_check(
    path: SymplecticPathSample, sigma: StrandPermutation | None, k: int
) -> bool:
    """Whether composing with the loop e^{2 pi k J0 t / tau} shifts mu by 2kn."""
    n = path.family.strands
    base = permuted_cz_index(path, sigma)
    shifted = permuted_cz_index(replace(path, turns=path.turns + k), sigma)
    return shifted.twice_value == base.twice_value + 4 * k * n


@dataclass(frozen=True)
class AnnulusCriticalPoint:
    action: float          # symplectic polar I coordinate
    angle: float
    hessian: np.ndarray
    morse_index: int


@dataclass(frozen=True)
class AnnulusModel:
    """Radial-plus-angular model Hamiltonian on the annulus.

    H(x) = F(|x|) + phi_delta(|x|) * eps * cos(arg x) with F quadratic; the
    two critical points sit at I = 1/8, theta = 0 and pi.
    """

    critical_points: tuple[AnnulusCriticalPoint, ...]
    degenerate: bool

    def cz_indices(self, tau: float = 1.0) -> list[int]:
        out = []
        for c in self.critical_points:
            path = integrate_path(constant_family(c.hessian), tau)
            idx = permuted_cz_index(path)
            if idx.twice_value % 2:  # not a bare assert, which python -O strips
                raise AssertionError(f"half-integer index {idx.value} at a critical point")
            out.append(idx.twice_value // 2)
        return out


def annulus_hamiltonian(delta: float = 0.1, eps: float = 0.1, outward: bool = True) -> AnnulusModel:
    """The model Hamiltonian of the annulus computation.

    `outward` selects the sign of the radial well (flow exiting or entering
    the annulus boundary); eps = 0 restores rotational symmetry and is
    reported as a degenerate circle of equilibria.
    """
    if delta <= 0 or delta >= 0.25:
        raise BraidInputError("need 0 < delta < 1/4")
    if eps < 0 or (eps and eps >= 1 / (4 * delta) - 1):
        raise BraidInputError("need 0 <= eps < 1/(4 delta) - 1")
    if eps == 0:
        return AnnulusModel((), True)
    # radial Hessian d/dI of +-(2I - sqrt(2I)/2) at I = 1/8 is +-1;
    # angular Hessian of eps cos(theta) in the metric is -4 eps cos(theta)
    if outward:
        pts = (
            AnnulusCriticalPoint(0.125, 0.0, np.diag([1.0, -4 * eps]), 1),   # saddle
            AnnulusCriticalPoint(0.125, np.pi, np.diag([1.0, 4 * eps]), 0),  # minimum
        )
    else:
        pts = (
            AnnulusCriticalPoint(0.125, 0.0, np.diag([-1.0, -4 * eps]), 2),  # maximum
            AnnulusCriticalPoint(0.125, np.pi, np.diag([-1.0, 4 * eps]), 1),
        )
    return AnnulusModel(pts, False)
