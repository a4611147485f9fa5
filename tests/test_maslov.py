import random
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from braidfloer import maslov
from braidfloer.errors import BraidInputError, StationaryDegenerateError
from braidfloer.maslov import (
    BISECTION_TOL,
    KERNEL_TOL,
    SymmetricFamily,
    DRIFT_BOUND,
    NODE_SPACING,
    annulus_hamiltonian,
    constant_family,
    integrate_path,
    permutation_matrix,
    permuted_cz_index,
    rotation_family,
    rotated_path,
    rotation_shift_check,
    sampled_family,
    standard_j,
)
from braidfloer.words import StrandPermutation
from helpers import direct_sum_family, direct_sum_permutation, reference_isolate_zeros


def random_nondegenerate_constant(rng, n, scale=3.0):
    """Constant symmetric K with Psi(1) - Id invertible (resampled if not)."""
    for _ in range(100):
        a = np.array([[rng.uniform(-scale, scale) for _ in range(2 * n)] for _ in range(2 * n)])
        k = (a + a.T) / 2
        psi1 = expm(standard_j(n) @ k)
        if abs(np.linalg.det(psi1 - np.eye(2 * n))) > 1e-4:
            try:
                path = integrate_path(constant_family(k), 1.0)
                permuted_cz_index(path)
            except Exception:
                continue
            return k
    raise RuntimeError("could not draw a nondegenerate K")


def test_closed_form_matches_rk4_reference():
    # SymmetricFamily(2n, lambda t: k) carries no constant K, so it takes RK4
    rng = random.Random(17)
    for c in range(10):
        n = 1 + c % 2
        k = random_nondegenerate_constant(rng, n)
        reference = integrate_path(SymmetricFamily(2 * n, lambda t, k=k: k), 1.0)
        closed = integrate_path(constant_family(k), 1.0, min_steps=reference.steps)
        assert closed.steps == reference.steps
        assert np.max(np.abs(closed.matrices - reference.matrices)) < 1e-8
        ts = np.array([rng.uniform(0.0, 1.0) for _ in range(5)])
        exact = np.stack([expm(t * standard_j(n) @ k) for t in ts])
        assert np.max(np.abs(closed.psi(ts) - exact)) < 1e-10
        closed = integrate_path(constant_family(k), 1.0)
        assert permuted_cz_index(closed).twice_value == permuted_cz_index(reference).twice_value
        kk = (-2, -1, 0, 1, 2)[c % 5]
        assert (permuted_cz_index(rotated_path(closed, kk)).twice_value
                == permuted_cz_index(rotated_path(reference, kk)).twice_value)
    for kk in (1, 2, 3):
        loop = 2 * np.pi * kk * np.eye(2)
        reference = integrate_path(SymmetricFamily(2, lambda t, loop=loop: loop), 1.0)
        closed = integrate_path(rotation_family(kk), 1.0)
        assert (permuted_cz_index(closed, closed=True).twice_value
                == permuted_cz_index(reference, closed=True).twice_value == 4 * kk)


def test_closed_form_evaluation_on_every_branch():
    # one stack of node times, interior times and times outside [0, tau]; the
    # last take the squarings branch for the whole stack
    rng = random.Random(5)
    for n in (1, 2):
        k = random_nondegenerate_constant(rng, n)
        path = integrate_path(constant_family(k), 1.0)
        nodes = path.times[::7]
        inside = [rng.uniform(0.0, 1.0) for _ in range(4)]
        ts = np.concatenate((nodes, inside, [-0.6, -1e-3, 1.0 + 1e-3, 1.7]))
        got = path.psi(ts)
        assert np.max(np.abs(got[:len(nodes)] - path.matrices[::7])) < 1e-14
        exact = np.stack([expm(t * standard_j(n) @ k) for t in ts])
        assert np.max(np.abs(got - exact)) < 1e-10
        for t in (-0.6, 0.5, 1.7):  # scalar times, each with its own squarings
            assert np.max(np.abs(path.psi(t) - expm(t * standard_j(n) @ k))) < 1e-10


def test_twin_crossings_inside_one_grid_cell():
    # the rotated saddle crosses where cos(4 pi t) cosh(lam t) = 1: twice
    # near t = 1/2, about lam / (4 pi) apart, far inside one grid cell
    lam = 1e-3
    path = integrate_path(constant_family(np.diag([lam, -lam])), 1.0)
    rotated = permuted_cz_index(rotated_path(path, 2))
    inner = [r.time for r in rotated.crossings if not r.endpoint]
    assert len(inner) == 3 and inner[1] - inner[0] < (path.times[1] - path.times[0]) / 50
    assert rotation_shift_check(path, None, 2)


def test_interval_must_be_forward():
    path = integrate_path(constant_family(np.diag([1.0, -0.4])), 1.0)
    for b in (0.0, -0.5):
        with pytest.raises(BraidInputError):
            permuted_cz_index(path, b=b)


def test_rotation_path_closes():
    path = integrate_path(rotation_family(1), 1.0)
    assert path.drift < DRIFT_BOUND
    assert np.max(np.abs(path.matrices[-1] - np.eye(2))) < 1e-8


def test_zero_family_is_identity():
    path = integrate_path(constant_family(np.zeros((2, 2))), 1.0)
    assert all(np.max(np.abs(m - np.eye(2))) < 1e-10 for m in path.matrices)


def test_integration_matches_matrix_exponential():
    j = standard_j(1)
    # on nodes, between nodes, past tau, and with ||J0 K|| = 250
    for k in (np.diag([1.0, -0.4]), 250.0 * np.eye(2)):
        path = integrate_path(constant_family(k), 1.0)
        assert path.steps * NODE_SPACING >= np.linalg.norm(j @ k, 2)
        for t in (0.25, 0.5, 1.0, 0.3141, 0.7777, 1.3):
            exact = expm(j @ k * t)
            assert np.max(np.abs(path.psi(t) - exact)) < 1e-8


def test_rotation_indices_are_2k():
    for k in (1, 2, 3, 40):
        path = integrate_path(rotation_family(k), 1.0)
        with pytest.raises(StationaryDegenerateError):
            permuted_cz_index(path)
        # stop just short of the degenerate endpoint: the final crossing at
        # t = 1 contributes the remaining +1 in the closed-loop convention
        idx = permuted_cz_index(path, b=1.0 - 1e-4)
        assert idx.twice_value == 4 * k - 2


def test_rotation_loop_index_via_shift():
    # mu(e^{2 pi k J t}) = 2k, computed as the shift of a hyperbolic path
    base = constant_family(np.diag([1.0, -0.4]))
    path = integrate_path(base, 1.0)
    assert permuted_cz_index(path).twice_value == 0
    for k in (1, 2, 3):
        assert rotation_shift_check(path, None, k)


def test_morse_relation_small_constant_k():
    # ||K|| < 2 pi: index = 1 - (negative eigenvalue count)
    saddle = integrate_path(constant_family(np.diag([1.0, -0.4])), 1.0)
    assert permuted_cz_index(saddle).twice_value == 0
    minimum = integrate_path(constant_family(np.diag([1.0, 0.4])), 1.0)
    assert permuted_cz_index(minimum).twice_value == 2
    maximum = integrate_path(constant_family(np.diag([-1.0, -0.4])), 1.0)
    assert permuted_cz_index(maximum).twice_value == -2


def test_block_additivity():
    rng = random.Random(3)
    for _ in range(10):
        k1 = random_nondegenerate_constant(rng, 1)
        k2 = random_nondegenerate_constant(rng, 1)
        f = direct_sum_family(constant_family(k1), constant_family(k2))
        sigma = direct_sum_permutation(
            StrandPermutation.identity(1), StrandPermutation.identity(1)
        )
        whole = permuted_cz_index(integrate_path(f, 1.0), sigma)
        p1 = permuted_cz_index(integrate_path(constant_family(k1), 1.0))
        p2 = permuted_cz_index(integrate_path(constant_family(k2), 1.0))
        assert whole.twice_value == p1.twice_value + p2.twice_value


def test_rotation_shift_identity_random():
    rng = random.Random(9)
    for _ in range(12):
        n = rng.choice((1, 2))
        k = random_nondegenerate_constant(rng, n)
        path = integrate_path(constant_family(k), 1.0)
        kk = rng.choice((-2, -1, 0, 1, 2))
        assert rotation_shift_check(path, None, kk)


def test_permuted_diagonal_crossing():
    # a two-strand braidlike path against the swap permutation
    swap = StrandPermutation((1, 0))
    sbar = permutation_matrix(swap)
    assert sbar.shape == (4, 4)
    assert np.allclose(sbar @ sbar, np.eye(4))
    rng = random.Random(11)
    k = random_nondegenerate_constant(rng, 2)
    path = integrate_path(constant_family(k), 1.0)
    idx = permuted_cz_index(path, swap)
    # fixed space of the swap is 2-dimensional: start signature is even
    start = [r for r in idx.crossings if r.endpoint]
    assert not start or start[0].kernel_dimension == 2


def test_catenation_additivity():
    rng = random.Random(13)
    for _ in range(8):
        k = random_nondegenerate_constant(rng, 1)
        path = integrate_path(constant_family(k), 1.0)
        c = rng.uniform(0.3, 0.7)
        f_c = np.linalg.det(path.psi(c) - np.eye(2))
        if abs(f_c) < 1e-6:
            continue
        whole = permuted_cz_index(path)
        left = permuted_cz_index(path, b=c)
        right = permuted_cz_index(path, a=c)
        # interior split point is a non-crossing: halves add up exactly
        assert whole.twice_value == left.twice_value + right.twice_value - _start_sig(right)

    # the right piece starts at a non-crossing, so no correction in general


def _start_sig(idx):
    for r in idx.crossings:
        if r.endpoint:
            return r.signature
    return 0


def test_reparametrization_invariance():
    import math

    for diag in ([1.0, 0.4], [1.0, -0.4], [4.0, 5.0]):
        k = np.diag(diag)
        base = integrate_path(constant_family(k), 1.0)

        def warped(t):
            # diffeomorphism s(t) = (e^{2t} - 1)/(e^2 - 1); derivative positive
            ds = 2 * math.exp(2 * t) / (math.exp(2) - 1)
            return ds * k

        warped_path = integrate_path(SymmetricFamily(2, warped), 1.0)
        assert permuted_cz_index(base).twice_value == permuted_cz_index(warped_path).twice_value


def test_sampled_family_round_trip():
    ts = np.linspace(0, 1, 33)
    mats = [np.diag([1.0, 0.4]) for _ in ts]
    fam = sampled_family(ts, mats)
    path = integrate_path(fam, 1.0)
    assert permuted_cz_index(path).twice_value == 2


def test_annulus_model():
    model = annulus_hamiltonian(eps=0.1)
    hessians = [c.hessian for c in model.critical_points]
    assert np.allclose(hessians[0], np.diag([1.0, -0.4]))
    assert np.allclose(hessians[1], np.diag([1.0, 0.4]))
    assert [c.morse_index for c in model.critical_points] == [1, 0]
    assert model.cz_indices() == [0, 1]
    inner = annulus_hamiltonian(eps=0.1, outward=False)
    assert sorted(inner.cz_indices()) == [-1, 0]


def test_annulus_degenerate_and_validation():
    assert annulus_hamiltonian(eps=0.0).degenerate
    with pytest.raises(BraidInputError):
        annulus_hamiltonian(delta=0.1, eps=2.0)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("kind", ["table", "constant"])
def test_integrate_path_refuses_non_finite_tau(kind, tau):
    if kind == "table":
        family = sampled_family([0.0, 1.0], [np.diag([1.0, 0.4]), np.diag([0.5, 1.0])])
    else:
        family = constant_family(np.diag([1.0, -0.4]))
    start = time.perf_counter()
    with pytest.raises(BraidInputError, match=r"^tau is -?(nan|inf), not a finite number$"):
        integrate_path(family, tau)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("tau", [0.0, -0.0, -1.0])
def test_integrate_path_refuses_non_positive_tau(tau):
    # a negative tau ran backwards over a descending node grid; rotation_family
    # divided by zero before integrate_path could refuse
    table = sampled_family([0.0, 1.0], [np.diag([1.0, 0.4]), np.diag([0.5, 1.0])])
    for make in (lambda: integrate_path(constant_family(np.diag([1.0, -0.4])), tau),
                 lambda: integrate_path(table, tau), lambda: rotation_family(1, 1, tau)):
        with pytest.raises(BraidInputError, match=rf"^tau is {tau}, not a positive number$"):
            make()


def test_sigma_size_mismatch_names_sigma():
    path = integrate_path(constant_family(np.diag([1.0, -0.4])), 1.0)
    with pytest.raises(BraidInputError, match=r"^sigma permutes 2 strands, the family has 1$"):
        permuted_cz_index(path, StrandPermutation((1, 0)))


def test_zoom_matches_uniform_reference(monkeypatch):
    # constant families at n = 1 and 2, the latter also against the swap, each
    # rotated by k = -2..2, and the twin crossings of the rotated saddle
    rng = random.Random(23)
    cases = []
    for c in range(8):
        n = 1 + c % 2
        path = integrate_path(constant_family(random_nondegenerate_constant(rng, n)), 1.0)
        for sigma in (None, StrandPermutation((1, 0)))[:n]:
            cases += [(rotated_path(path, k), sigma) for k in range(-2, 3)]
    twin = integrate_path(constant_family(np.diag([1e-3, -1e-3])), 1.0)
    cases += [(twin, None), (rotated_path(twin, 2), None)]
    got = [permuted_cz_index(path, sigma) for path, sigma in cases]
    monkeypatch.setattr(maslov, "_isolate_zeros", reference_isolate_zeros)
    want = [permuted_cz_index(path, sigma) for path, sigma in cases]
    assert sum(len(idx.crossings) for idx in want) > 3 * len(cases)
    for idx, ref in zip(got, want):
        assert idx.twice_value == ref.twice_value
        assert ([(r.kernel_dimension, r.signature, r.endpoint) for r in idx.crossings]
                == [(r.kernel_dimension, r.signature, r.endpoint) for r in ref.crossings])
        assert all(abs(r.time - q.time) <= 1e-12 for r, q in zip(idx.crossings, ref.crossings))


def test_zoom_at_float_resolution():
    # brackets about BISECTION_TOL wide around the double zero of e^{2 pi J t} - Id
    # at t = 1, with the apex anywhere: no cell may collapse to zero width
    path = integrate_path(rotation_family(2, 1, 2.0), 2.0)
    sbar = permutation_matrix(StrandPermutation.identity(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for width in (1e-13, 1e-12, 1.5e-12, 4e-12, 3e-11):
            for u in (0.0, 0.3, 0.5, 1.0):
                lo = np.array([1.0 - u * width])
                hi = lo + width
                for apex in (lo, hi, (lo + hi) / 2, lo - 1.0):
                    found = maslov._isolate_zeros(path, sbar, lo, hi, apex, -np.inf, np.inf)
                    assert len(found) and np.all(np.abs(found - 1.0) <= width + BISECTION_TOL)
                    assert np.all(maslov._smin(path, sbar, found) < KERNEL_TOL)


def test_crossings_found_at_large_tau():
    # K / tau over [0, tau] is the path of K over [0, 1] in rescaled time, also
    # where a float step near the crossings exceeds BISECTION_TOL / 16
    k = 50 * np.array([[0.9, 0.1], [0.1, 0.4]])
    base = permuted_cz_index(integrate_path(constant_family(k), 1.0))
    assert len(base.crossings) == 5
    for tau in (100.0, 1000.0, 5000.0):
        idx = permuted_cz_index(integrate_path(constant_family(k / tau), tau))
        assert idx.twice_value == base.twice_value and len(idx.crossings) == 5
        assert all(abs(r.time / tau - q.time) < 1e-9 for r, q in zip(idx.crossings, base.crossings))


def test_zoom_smin_call_budget(monkeypatch):
    # 29 calls when written, against 56 for the uniform zoom
    calls = []
    smin = maslov._smin
    monkeypatch.setattr(maslov, "_smin", lambda *args: calls.append(1) or smin(*args))
    for k in (1, 2, 3):
        permuted_cz_index(integrate_path(rotation_family(k), 1.0), closed=True)
    permuted_cz_index(integrate_path(constant_family(np.array([[9.0, 1.5], [1.5, 7.0]])), 1.0))
    assert len(calls) <= 32
