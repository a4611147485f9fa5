"""Permuted Conley-Zehnder indices of symplectic paths Psi' = J0 K(t) Psi.

Coordinates are ordered (p^1..p^n, q^1..q^n), so the standard structure is
J0 = [[0, -I], [I, 0]] and a strand permutation acts block-diagonally on the
p's and q's.  Crossings are the zeros of det(Psi(t) - sigma); each carries the
quadratic form <sigma xi, K(t0) sigma xi> on the kernel, and the index is the
sum of crossing-form signatures with half weight at the endpoints.  Indices
are stored doubled so half-integers stay exact.

Paths of constant families (`constant_family`, `rotation_family`, the
annulus Hessians) take the closed form Psi(t) = expm(t J0 K); every other
family is integrated by RK4.  Either way the nodes' symplectic drift must stay
below DRIFT_BOUND, and crossings are found on stacked smallest singular values.
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
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def permutation_matrix(sigma: StrandPermutation) -> np.ndarray:
    """Block-diagonal pair of permutation matrices defining the permuted diagonal."""
    n = sigma.n
    p = np.zeros((n, n))
    for k in range(n):
        p[k, sigma(k)] = 1.0
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = p
    out[n:, n:] = p
    return out


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


def _check_finite(a: np.ndarray, name: str) -> None:
    """Refuse a NaN or infinite entry, naming the first one."""
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        at = ", ".join(map(str, bad[0]))
        raise BraidInputError(f"{name}[{at}] is {a[tuple(bad[0])]}, not a finite number")


def constant_family(k) -> SymmetricFamily:
    """The family t -> K, checked now; its path takes the closed form."""
    k = np.asarray(k, dtype=float)
    _check_finite(k, "matrix")
    family = SymmetricFamily(k.shape[0], lambda t: k, constant=k)
    family(0.0)
    return family


def rotation_family(k: int, n: int = 1, tau: float = 1.0) -> SymmetricFamily:
    """Generator of the loop e^{(2 pi k / tau) J0 t}."""
    return constant_family((2 * np.pi * k / tau) * np.eye(2 * n))


def sampled_family(times: Sequence[float], matrices: Sequence) -> SymmetricFamily:
    """Linear interpolation through a table of sampled symmetric matrices."""
    ts = np.asarray(times, dtype=float)
    mats = [np.asarray(m, dtype=float) for m in matrices]
    if len(ts) != len(mats) or len(ts) < 2:
        raise BraidInputError("need matching times and matrices, at least two samples")
    _check_finite(ts, "times")
    for i, m in enumerate(mats):
        _check_finite(m, f"matrices[{i}]")
        if m.shape != mats[0].shape:
            raise BraidInputError(f"matrices[{i}] has shape {m.shape}, matrices[0] has shape "
                                  f"{mats[0].shape}")

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
    one expm(h J0 K), and their symplectic drift must stay below 1e-8.  Any
    other family is integrated by classical 4th-order steps that halve until
    the drift stays below 1e-8 at every node and the endpoint agrees with the
    next refinement to 1e-10.
    """
    if not np.isfinite(tau):  # a NaN endpoint would never pass the refinement test
        raise BraidInputError(f"tau is {tau}, not a finite number")
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
    from scipy.linalg import expm  # loaded only by the commands that take Maslov paths
    a = j @ family.constant
    norm = float(np.linalg.norm(a, 2))
    while tau / steps * norm > NODE_SPACING:
        steps *= 2
    times = np.linspace(0.0, tau, steps + 1)
    eye = np.eye(len(a))
    nodes = np.empty((steps + 1,) + a.shape)
    nodes[0] = eye
    nodes[1] = expm((tau / steps) * a)
    m = 1
    while m < steps:  # nodes[m + i] = nodes[i] @ nodes[m]
        k = min(m, steps - m)
        nodes[m + 1:m + k + 1] = nodes[1:k + 1] @ nodes[m]
        m += k
    drift = float(np.max(np.abs(np.swapaxes(nodes, 1, 2) @ j @ nodes - j)))
    if not drift < DRIFT_BOUND:
        raise StiffnessError(f"closed form drifts by {drift:.3g} at {steps} steps")

    def evaluate(ts: np.ndarray) -> np.ndarray:
        """nodes[i] @ P(s A) with s = t - t_i; squarings cover s beyond one step."""
        i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, steps)
        s = ts - times[i]
        reach = np.max(np.abs(s)) * norm / NODE_SPACING
        squarings = int(np.ceil(np.log2(reach))) if reach > 1 else 0
        x = (s / 2.0 ** squarings)[:, None, None] * a
        p = eye + x / TAYLOR_DEGREE
        for d in range(TAYLOR_DEGREE - 1, 0, -1):  # Horner: I + x/1 (I + x/2 (I + ...))
            p = eye + (x / d) @ p
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


def _runs(pts: np.ndarray, keep: np.ndarray):
    """(lo, hi, row) of each run of kept cells; cell c of row r spans pts[r, c:c + 2]."""
    edges = np.diff(keep.astype(np.int8), axis=1, prepend=0, append=0)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]
    return pts[rows, starts], pts[rows, ends], rows


def _isolate_zeros(path, sbar, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The zeros of the smallest singular value f in the brackets [lo, hi].

    Each round cuts every bracket into ZOOM_POINTS - 1 cells, all evaluated
    in one call.  A cell [x, y] can hold a zero only if f(x) + f(y) <= 2 L
    (y - x), L the steepest cell slope in its bracket, and the runs of such
    cells are the next brackets, so zeros closer than a cell come apart in
    later rounds.  A bracket is final at BISECTION_TOL or once it stops
    shrinking (f vanishing along an interval), and yields its midpoint.
    """
    done = []
    while len(lo):
        pts = np.linspace(lo, hi, ZOOM_POINTS, axis=1)
        f = _smin(path, sbar, pts.ravel()).reshape(pts.shape)
        cell = np.diff(pts, axis=1)
        slope = np.max(np.abs(np.diff(f, axis=1)) / cell, axis=1, keepdims=True)
        new_lo, new_hi, row = _runs(pts, f[:, :-1] + f[:, 1:] <= 2 * slope * cell)
        final = (new_hi - new_lo <= BISECTION_TOL) | (new_hi - new_lo >= (hi - lo)[row])
        done.append((new_lo + new_hi)[final] / 2)
        lo, hi = new_lo[~final], new_hi[~final]
    return np.concatenate([[]] + done)


def _detect_crossings(path: SymplecticPathSample, sbar: np.ndarray, a: float, b: float):
    """Zeros of det(Psi - sigma) in the open interval (a, b).

    det may touch zero without a sign change (kernels of dimension two and
    definite crossing forms), so crossings are found through the smallest
    singular value f.  A grid cell [x, y] is searched when f(x) + f(y) <=
    4 s (y - x), s the steepest slope of f on the grid, which holds for any
    zero whose slope is at most 4 s; `_isolate_zeros` then separates and
    polishes them.
    """
    grid = np.concatenate(([a], path.times[(path.times > a) & (path.times < b)], [b]))
    g = _smin(path, sbar, grid)
    dt = np.diff(grid)  # positive: permuted_cz_index checks a < b
    bound = np.maximum(4 * np.max(np.abs(np.diff(g)) / dt) * dt, 1e3 * KERNEL_TOL)
    lo, hi, _ = _runs(grid[None, :], (g[:-1] + g[1:] <= bound)[None, :])
    found = _isolate_zeros(path, sbar, lo, hi)
    margin = max(1e-9, 100 * BISECTION_TOL)
    found = found[(a + margin < found) & (found < b - margin)]
    if len(found):
        found = found[_smin(path, sbar, found) < KERNEL_TOL]
    crossings = []
    for t0 in sorted(float(t) for t in found):  # merge duplicates from adjacent runs
        if not crossings or t0 - crossings[-1] > 100 * BISECTION_TOL:
            crossings.append(t0)
    return crossings


def _graph_index(
    path: SymplecticPathSample, sbar: np.ndarray, a: float, b: float, closed: bool = False
) -> MaslovIndex:
    """Maslov index of gr(Psi) against the permuted diagonal over [a, b]."""
    for _ in range(3):  # crossings closer than MIN_SEPARATION: refine the grid
        crossings = _detect_crossings(path, sbar, a, b)
        if all(t1 - t0 >= MIN_SEPARATION for t0, t1 in zip(crossings, crossings[1:])):
            break
        path = integrate_path(path.family, path.tau, min_steps=2 * path.steps)
    records = []
    twice = 0
    s_a, s_b = _smin(path, sbar, [a, b])
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
        raise BraidInputError("permutation size does not match the family")
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
    rate = 2 * np.pi * k / path.tau

    def rotation(t) -> np.ndarray:
        theta = (rate * np.asarray(t))[..., None, None]
        return np.cos(theta) * np.eye(len(j)) + np.sin(theta) * j

    def generator(t):  # of the rotated path: rate I + phi K phi^T
        phi = rotation(t)
        return rate * np.eye(len(j)) + phi @ path.family(t) @ phi.T

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
