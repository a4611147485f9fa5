"""Permuted Conley-Zehnder indices of symplectic paths Psi' = J0 K(t) Psi.

Coordinates are (p^1..p^n, q^1..q^n), J0 = [[0, -I], [I, 0]], and a strand
permutation sigma acts block-diagonally on the p's and q's.  The index sums
the signatures of the crossing forms <sigma xi, K(t0) sigma xi> at the zeros
t0 of det(Psi(t) - sigma), half weight at the endpoints, stored doubled.

Constant families take the closed form Psi(t) = expm(t J0 K), others RK4,
with the nodes' symplectic drift below DRIFT_BOUND.  Zeros are found on the
smallest singular value of Psi(t) - sigma: the node grid brackets them, and a
Lipschitz zoom cuts each bracket around the apex of its V until BISECTION_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

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
MIN_SEPARATION = 1e-6
SYMMETRY_TOL = 1e-12
NODE_SPACING = 1 / 8   # bound on h * ||J0 K||_2 between closed-form nodes
TAYLOR_DEGREE = 10     # remainder below 1e-17 at that spacing
ZOOM_POINTS = 17


def standard_j(n: int) -> np.ndarray:
    return np.kron([[0, -1], [1, 0]], np.eye(n))


def permutation_matrix(sigma: StrandPermutation) -> np.ndarray:
    """Block-diagonal pair of permutation matrices defining the permuted diagonal."""
    p = np.eye(sigma.n)[list(sigma.image)]  # p[k, sigma(k)] = 1
    return np.kron(np.eye(2), p)


@dataclass
class SymmetricFamily:
    """Time family of symmetric 2n x 2n matrices."""

    dimension: int
    matrix: Callable[[float], np.ndarray]
    constant: np.ndarray | None = None  # K, when the family does not depend on t

    def __post_init__(self):
        if self.dimension % 2:
            raise BraidInputError("dimension must be even (2n)")

    def __call__(self, t: float) -> np.ndarray:
        """K(t); every value is checked for shape and symmetry."""
        k = np.asarray(self.matrix(t), dtype=float)
        if k.shape != (self.dimension, self.dimension):
            raise BraidInputError(f"K(t) must be {self.dimension}x{self.dimension}")
        if np.abs(k - k.T).max() >= SYMMETRY_TOL:
            raise BraidInputError("K(t) is not symmetric")
        return k

    @property
    def strands(self) -> int:
        return self.dimension // 2


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
    """The family t -> K, checked now; its path takes the closed form."""
    k = _finite_array(k, "matrix", 2, "a 2-D array of numbers")
    family = SymmetricFamily(k.shape[0], lambda t: k, constant=k)
    family(0.0)
    return family


def _positive_tau(tau: float) -> float:
    if not np.isfinite(tau):  # a NaN endpoint would never pass the refinement test
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

    def mat(t):
        i = int(np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2))
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        w = min(max(w, 0.0), 1.0)
        return (1 - w) * mats[i] + w * mats[i + 1]

    return SymmetricFamily(mats[0].shape[0], mat)


@dataclass
class SymplecticPathSample:
    """Psi at the nodes `times`, with the generating family attached.

    At other times `evaluate` gives Psi in closed form (constant families,
    rotated paths); without it RK4 runs from the node below, time by time.
    """

    family: SymmetricFamily
    tau: float
    times: np.ndarray
    matrices: np.ndarray
    steps: int
    drift: float
    evaluate: Callable[[np.ndarray], np.ndarray] | None = None

    def psi(self, t) -> np.ndarray:
        """Psi(t) for a time, or the stack of Psi over a 1-d array of times."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = self.evaluate(ts) if self.evaluate else np.stack([self._integrated(x) for x in ts])
        return out if np.ndim(t) else out[0]

    def _integrated(self, t: float) -> np.ndarray:
        i = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 1))
        t0 = self.times[i]
        psi = self.matrices[i]
        if t <= t0:
            return psi
        h = self.times[1] - self.times[0]
        nsub = max(1, int(np.ceil((t - t0) / h * 4)))
        return _rk4(self.family, psi, t0, t, nsub, standard_j(self.family.strands))


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


def integrate_path(family: SymmetricFamily, tau: float, min_steps: int = 128) -> SymplecticPathSample:
    """Psi on a uniform grid of at least `min_steps` steps; Psi(0) is the identity exactly.

    A constant family takes the closed form Psi(t) = expm(t J0 K): the step
    count doubles until h ||J0 K||_2 <= NODE_SPACING, the nodes are powers of
    one expm(h J0 K), the degree-TAYLOR_DEGREE Taylor polynomial by Horner's
    rule, and their symplectic drift must stay below 1e-8.  Any
    other family is integrated by classical 4th-order steps that halve until
    the drift stays below 1e-8 at every node and the endpoint agrees with the
    next refinement to 1e-10.
    """
    _positive_tau(tau)
    n = family.dimension // 2
    j = standard_j(n)
    steps = max(min_steps, 64)
    if family.constant is not None:
        return _closed_form_path(family, tau, steps, j)
    prev_end = None
    for _ in range(22):
        h = tau / steps
        psi = np.eye(2 * n)
        mats = [psi]
        drift = 0.0
        t = 0.0
        for _ in range(steps):
            psi = _rk4(family, psi, t, t + h, 1, j)
            t += h
            mats.append(psi)
            drift = max(drift, float(np.max(np.abs(psi.T @ j @ psi - j))))
            if drift >= DRIFT_BOUND:
                prev_end = None
                break
        else:
            if prev_end is not None and float(np.max(np.abs(psi - prev_end))) < 1e-10:
                return SymplecticPathSample(
                    family, tau, np.linspace(0.0, tau, steps + 1), np.array(mats), steps, drift
                )
            prev_end = psi
        steps *= 2
    raise StiffnessError(f"accuracy bounds unreachable at {steps} steps")


def _closed_form_path(family: SymmetricFamily, tau: float, steps: int, j) -> SymplecticPathSample:
    a = j @ family.constant
    norm = float(np.linalg.norm(a, 2))
    while tau / steps * norm > NODE_SPACING:
        steps *= 2
    times = np.linspace(0.0, tau, steps + 1)
    eye = np.eye(len(a))
    nodes = np.empty((steps + 1,) + a.shape)
    nodes[0] = nodes[1] = eye
    for d in range(TAYLOR_DEGREE, 0, -1):  # expm(h A), its Taylor polynomial by Horner's rule
        nodes[1] = eye + (tau / steps / d) * (a @ nodes[1])
    m = 1
    while m < steps:  # nodes[m + i] = nodes[i] @ nodes[m]
        k = min(m, steps - m)
        nodes[m + 1:m + k + 1] = nodes[1:k + 1] @ nodes[m]
        m += k
    drift = float(np.max(np.abs(np.swapaxes(nodes, 1, 2) @ j @ nodes - j)))
    if not drift < DRIFT_BOUND:
        raise StiffnessError(f"closed form drifts by {drift:.3g} at {steps} steps")
    terms = [eye]  # A^d / d!, d = 0..TAYLOR_DEGREE
    for d in range(1, TAYLOR_DEGREE + 1):
        terms.append(terms[-1] @ a / d)
    taylor = np.reshape(terms, (TAYLOR_DEGREE + 1, -1))  # one flattened term per row
    degrees = np.arange(TAYLOR_DEGREE + 1)

    def evaluate(ts: np.ndarray) -> np.ndarray:
        """nodes[i] @ P(s A) with s = t - t_i, P(x A) = sum x^d A^d / d! as one product
        over the stack; squarings cover s beyond one step (t < 0, t > tau)."""
        i = np.searchsorted(times[1:], ts, side="right")  # last node <= t; 0 for t < 0
        s = ts - times[i]
        reach = np.max(np.abs(s)) * norm / NODE_SPACING
        squarings = int(np.ceil(np.log2(reach))) if reach > 1 else 0
        p = ((s / 2.0 ** squarings)[:, None] ** degrees @ taylor).reshape(len(ts), *a.shape)
        for _ in range(squarings):
            p = p @ p
        return nodes[i] @ p

    return SymplecticPathSample(family, tau, times, nodes, steps, drift, evaluate)


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
    k = path.family(t0)
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

    Each round evaluates ZOOM_POINTS points per bracket in one call: the apex
    estimate and, on each side, points whose distances to it halve, though
    never closer than a uniform cut of a bracket of BISECTION_TOL or of 256
    float steps.  A cell [x, y] can hold a zero only if f(x) + f(y) <= 2 L
    (y - x), L the steepest cell slope in its bracket; at ratio 2 this excludes
    every cell of a V of slope L but the two at its apex.  A run of kept cells,
    narrowed to [x + f(x) / 2L, y - f(y) / 2L], is the next bracket, and its
    arms of slope L meet at the next apex.  A bracket is final at BISECTION_TOL
    or once it stops shrinking (f vanishing along an interval), and yields its
    midpoint; one outside (start, end) is dropped, as its midpoint would be.
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
        row, i, j = _runs(f[:, :-1] + f[:, 1:] <= 2 * slope * cell)
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
    slope meet; zeros within `margin` of a or b are the endpoints' own.
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
    found = found[(a + margin < found) & (found < b - margin)]
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
    for _ in range(3):  # crossings closer than MIN_SEPARATION: refine the grid
        crossings, s_a, s_b = _detect_crossings(path, sbar, a, b)
        if all(t1 - t0 >= MIN_SEPARATION for t0, t1 in zip(crossings, crossings[1:])):
            break
        path = integrate_path(path.family, path.tau, min_steps=2 * path.steps)
    else:  # the last refinement was not searched: its own values at a and b
        s_a, s_b = _smin(path, sbar, [a, b])
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
    if not a < b:
        raise BraidInputError(f"need a < b, got a={a}, b={b}")
    idx = _graph_index(path, sbar, a, b, closed=closed)
    if a == 0.0:
        start = next((r for r in idx.crossings if r.endpoint), None)
        if start is not None and start.signature % 2:
            raise AssertionError("odd endpoint signature on an even-dimensional kernel")
    return idx


def rotated_path(path: SymplecticPathSample, k: int) -> SymplecticPathSample:
    """The path t -> e^{2 pi k J0 t / tau} Psi(t), built in closed form."""
    j = standard_j(path.family.strands)
    eye = np.eye(len(j))
    rate = 2 * np.pi * k / path.tau

    def rotation(t) -> np.ndarray:
        theta = (rate * np.asarray(t))[..., None, None]
        return np.cos(theta) * eye + np.sin(theta) * j

    def generator(t):  # of the rotated path: rate I + phi K phi^T
        phi = rotation(t)
        return rate * eye + phi @ path.family(t) @ phi.T

    return SymplecticPathSample(
        SymmetricFamily(path.family.dimension, generator), path.tau, path.times,
        rotation(path.times) @ path.matrices, path.steps, path.drift,
        evaluate=lambda ts: rotation(ts) @ path.psi(ts),
    )


def rotation_shift_check(
    path: SymplecticPathSample, sigma: StrandPermutation | None, k: int
) -> bool:
    """Whether composing with the loop e^{2 pi k J0 t / tau} shifts mu by 2kn."""
    n = path.family.strands
    base = permuted_cz_index(path, sigma)
    shifted = permuted_cz_index(rotated_path(path, k), sigma)
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
            assert idx.twice_value % 2 == 0
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
