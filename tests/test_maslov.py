import random
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from braidfloer import maslov
from braidfloer.errors import (
    BraidInputError,
    DegenerateCrossingError,
    StationaryDegenerateError,
)
from braidfloer.maslov import (
    BISECTION_TOL,
    KERNEL_TOL,
    DRIFT_BOUND,
    NODE_SPACING,
    annulus_hamiltonian,
    constant_family,
    integrate_path,
    permutation_matrix,
    permuted_cz_index,
    rotation_family,
    rotation_shift_check,
    sampled_family,
    standard_j,
)
from braidfloer.words import StrandPermutation
from helpers import (
    direct_sum_family,
    direct_sum_permutation,
    reference_graph_index,
    reference_isolate_zeros,
    rk4_path,
)


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
    # constant families against the RK4 oracle on the same nodes, also rotated
    rng = random.Random(17)
    for c in range(10):
        n = 1 + c % 2
        k = random_nondegenerate_constant(rng, n)
        closed = integrate_path(constant_family(k), 1.0)
        reference = rk4_path(closed)
        assert np.max(np.abs(closed.matrices - reference.matrices)) < 1e-8
        ts = np.array([rng.uniform(0.0, 1.0) for _ in range(5)])
        exact = np.stack([expm(t * standard_j(n) @ k) for t in ts])
        assert np.max(np.abs(closed.psi(ts) - exact)) < 1e-10
        assert np.max(np.abs(reference.psi(ts) - exact)) < 1e-10
        assert permuted_cz_index(closed).twice_value == permuted_cz_index(reference).twice_value
        kk = (-2, -1, 0, 1, 2)[c % 5]
        assert (permuted_cz_index(replace(closed, turns=kk)).twice_value
                == permuted_cz_index(replace(reference, turns=kk)).twice_value)
    for kk in (1, 2, 3):
        closed = integrate_path(rotation_family(kk), 1.0)
        reference = rk4_path(closed)
        assert (permuted_cz_index(closed, closed=True).twice_value
                == permuted_cz_index(reference, closed=True).twice_value == 4 * kk)


def test_closed_form_evaluation_on_every_branch():
    # one stack of node times, the ends and interior times, then scalar times
    rng = random.Random(5)
    for n in (1, 2):
        k = random_nondegenerate_constant(rng, n)
        path = integrate_path(constant_family(k), 1.0)
        nodes = path.times[::7]
        inside = [rng.uniform(0.0, 1.0) for _ in range(4)]
        ts = np.concatenate((nodes, [1.0], inside))
        got = path.psi(ts)
        assert np.max(np.abs(got[:len(nodes)] - path.matrices[::7])) < 1e-14
        assert np.array_equal(got[len(nodes)], path.matrices[-1])  # tau is the last node
        exact = np.stack([expm(t * standard_j(n) @ k) for t in ts])
        assert np.max(np.abs(got - exact)) < 1e-10
        for t in (0.0, 0.5, 1.0):
            assert np.max(np.abs(path.psi(t) - expm(t * standard_j(n) @ k))) < 1e-10


@pytest.mark.parametrize("lam", [1e-3, 1e-5, 5e-6, 2e-6])
def test_twin_crossings_inside_one_grid_cell(lam):
    # the rotated saddle crosses where cos(4 pi t) cosh(lam t) = 1: twice
    # near t = 1/2, about lam / (4 pi) apart, far inside one grid cell
    path = integrate_path(constant_family(np.diag([lam, -lam])), 1.0)
    rotated = permuted_cz_index(replace(path, turns=2))
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
    # on nodes, between nodes, and with ||J0 K|| = 250
    for k in (np.diag([1.0, -0.4]), 250.0 * np.eye(2)):
        path = integrate_path(constant_family(k), 1.0)
        assert path.steps * NODE_SPACING >= np.linalg.norm(j @ k, 2)
        for t in (0.25, 0.5, 1.0, 0.3141, 0.7777):
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
    # Psi(s(t)) with s(t) = (t + t^2) / 2 solves Psi' = J0 s'(t) K Psi, and
    # s'(t) = (1 + 2t) / 2 is linear: a table from K / 2 at 0 to 3K / 2 at 1
    for diag in ([1.0, 0.4], [1.0, -0.4], [4.0, 5.0]):
        k = np.diag(diag)
        base = permuted_cz_index(integrate_path(constant_family(k), 1.0))
        table = sampled_family([0.0, 1.0], [k / 2, 3 * k / 2])
        warped = permuted_cz_index(integrate_path(table, 1.0))
        assert base.twice_value == warped.twice_value
        for r, q in zip(base.crossings, warped.crossings, strict=True):
            assert (r.kernel_dimension, r.signature) == (q.kernel_dimension, q.signature)
            assert abs(r.time - (q.time + q.time ** 2) / 2) < 1e-9


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
            cases += [(replace(path, turns=k), sigma) for k in range(-2, 3)]
    twin = integrate_path(constant_family(np.diag([1e-3, -1e-3])), 1.0)
    cases += [(twin, None), (replace(twin, turns=2), None)]
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
    # 18 calls, all from the zoom's rounds: the grid reads the node matrices, and
    # the kernel filter shares the crossing forms' SVD stack (56 for the uniform zoom)
    calls = []
    smin = maslov._smin
    monkeypatch.setattr(maslov, "_smin", lambda *args: calls.append(1) or smin(*args))
    for k in (1, 2, 3):
        permuted_cz_index(integrate_path(rotation_family(k), 1.0), closed=True)
    permuted_cz_index(integrate_path(constant_family(np.array([[9.0, 1.5], [1.5, 7.0]])), 1.0))
    assert len(calls) <= 21


def _random_table(rng, n, tau):
    """Two to four random symmetric samples, at least one of them inside (0, tau),
    most of them definite enough to wind."""
    times = sorted([rng.uniform(0.1, tau - 0.1)]
                   + [rng.uniform(-0.5, tau + 0.5) for _ in range(rng.randrange(1, 4))])
    mats = []
    for _ in times:
        a = np.array([[rng.uniform(-3, 3) for _ in range(2 * n)] for _ in range(2 * n)])
        mats.append((a + a.T) / 2 + rng.uniform(0, 6) * np.eye(2 * n))
    return sampled_family(times, mats)


def _same_index(idx, ref, tol):
    assert idx.twice_value == ref.twice_value
    assert ([(r.kernel_dimension, r.signature, r.endpoint) for r in idx.crossings]
            == [(r.kernel_dimension, r.signature, r.endpoint) for r in ref.crossings])
    assert all(abs(r.time - q.time) <= tol for r, q in zip(idx.crossings, ref.crossings))


def test_table_families_match_rk4_oracle():
    # tables with knots inside (0, tau), n = 1 and 2, against RK4 on the same
    # nodes; draws that drift past DRIFT_BOUND or whose index is degenerate are
    # refused, and skipped
    rng = random.Random(31)
    checked = crossings = 0
    while checked < 50:
        n = 1 + checked % 2
        tau = rng.uniform(2.0, 4.0)
        try:
            path = integrate_path(_random_table(rng, n, tau), tau)
            idx = permuted_cz_index(path)
        except (maslov.StiffnessError, StationaryDegenerateError, maslov.DegenerateCrossingError):
            continue
        assert any(0 < t < tau and t in path.times for t in path.family.times)
        _same_index(idx, permuted_cz_index(rk4_path(path)), 1e-9)
        checked += 1
        crossings += len(idx.crossings) - 1
    assert crossings > 100


def test_constant_family_as_a_two_sample_table():
    # K held constant between and outside two samples has no knot: same grid
    rng = random.Random(41)
    for c in range(6):
        n = 1 + c % 2
        k = random_nondegenerate_constant(rng, n)
        path = integrate_path(constant_family(k), 1.0)
        table = integrate_path(sampled_family([0.25, 3.0], [k, k]), 1.0)
        assert np.array_equal(table.times, path.times)
        for turns in (0, 1):
            _same_index(permuted_cz_index(replace(table, turns=turns)),
                        permuted_cz_index(replace(path, turns=turns)), 1e-12)


def test_collinear_sample_leaves_the_index():
    rng = random.Random(43)
    for c in range(6):
        n = 1 + c % 2
        k0, k1 = (random_nondegenerate_constant(rng, n) for _ in range(2))
        tau = 2.0
        two = integrate_path(sampled_family([0.0, tau], [k0, k1]), tau)
        three = integrate_path(sampled_family([0.0, 0.7, tau], [k0, k0 + 0.35 * (k1 - k0), k1]),
                               tau)
        try:
            ref = permuted_cz_index(two)
        except (StationaryDegenerateError, maslov.DegenerateCrossingError):
            continue
        _same_index(permuted_cz_index(three), ref, 1e-9)


def test_path_lives_on_zero_to_tau():
    path = integrate_path(constant_family(np.diag([1.0, -0.4])), 2.0)
    for a, b in ((-0.5, 1.0), (0.5, 2.5), (-1.0, 3.0)):
        with pytest.raises(BraidInputError,
                           match=rf"^need 0 <= a < b <= tau = 2.0, got a={a}, b={b}$"):
            permuted_cz_index(path, a=a, b=b)
    assert permuted_cz_index(path, a=0.0, b=2.0) == permuted_cz_index(path)


def test_step_count_is_capped_before_allocating():
    family = constant_family(np.array([[1.0, 0.2], [0.2, 0.7]]))
    start = time.perf_counter()
    with pytest.raises(BraidInputError, match=r"^tau = 1000000.0 needs more than 1048576 steps$"):
        integrate_path(family, 1e6)
    assert time.perf_counter() - start < 1.0


# a table whose RK4 path the zoom once gave a second zero at t = 1.1e-9, where
# sigma_min ~ 1.37 t is below KERNEL_TOL only because Psi(0) = Id
NEAR_START_TIMES = [0.16664311709167134, 0.47915404991794996, 0.8270034923413254,
                    1.3499891278767917]
NEAR_START_MATRICES = [
    [[-1.0331251223144275, 2.255840317841894, -0.3545243923914492, 2.2681999467957845],
     [2.255840317841894, 0.9820972818357809, 1.155886726539578, 0.011103063854356332],
     [-0.3545243923914492, 1.155886726539578, -0.09482537615717135, -1.0168527401870304],
     [2.2681999467957845, 0.011103063854356332, -1.0168527401870304, -1.232282843127578]],
    [[2.7441333782225144, -0.06859216529598611, 1.0597341703803282, -1.8038327648895336],
     [-0.06859216529598611, -1.368277478420699, -2.764422295653456, -0.2461341457831141],
     [1.0597341703803282, -2.764422295653456, 2.8493025387951683, -0.1904582340081893],
     [-1.8038327648895336, -0.2461341457831141, -0.1904582340081893, 2.859862499452717]],
    [[0.29773184246039763, 0.2800134728512862, -0.4990562590075962, -1.8215986440186756],
     [0.2800134728512862, -0.8735975324391045, 1.3847461472370681, -0.09923154908947374],
     [-0.4990562590075962, 1.3847461472370681, -0.6351017513198718, 0.6076186552282229],
     [-1.8215986440186756, -0.09923154908947374, 0.6076186552282229, -1.2058834162778616]],
    [[-0.35297258657295805, 2.6650982395519085, 0.3195692828086272, -1.0186639999090272],
     [2.6650982395519085, 0.02341525340194206, -0.15017435708721516, -0.7396999993292483],
     [0.3195692828086272, -0.15017435708721516, 0.10040735712363436, -0.8600940055995169],
     [-1.0186639999090272, -0.7396999993292483, -0.8600940055995169, -2.4419107944009073]],
]


def test_no_second_zero_beside_an_endpoint_crossing():
    tau = 2.3371452759247013
    path = integrate_path(sampled_family(NEAR_START_TIMES, NEAR_START_MATRICES), tau)
    idx = permuted_cz_index(path)
    assert [r.time > 0.4 for r in idx.crossings] == [False, True, True]
    _same_index(permuted_cz_index(rk4_path(path)), idx, 1e-9)


@pytest.mark.parametrize("t0", [220.04, 1000.3, 3000.9, 60000.5])
def test_zoom_ends_at_the_floor_of_a_missed_zero(monkeypatch, t0):
    # after 1e4-1e5 steps the path misses a 2-dimensional kernel by delta, so f
    # bottoms out like sqrt(L^2 (t - t0)^2 + delta^2): the Lipschitz rule then
    # keeps no cell of the last rows, and the bracket must end at its floor
    lost = []
    for delta in (3e-13, 1e-12, 3e-12, 1e-11):
        for lam in (0.17, 0.4, 1.7):
            monkeypatch.setattr(maslov, "_smin", lambda path, sbar, ts, lam=lam, delta=delta:
                                np.sqrt(lam ** 2 * (np.asarray(ts) - t0) ** 2 + delta ** 2))
            found = maslov._isolate_zeros(None, None, np.array([t0 - 0.03]),
                                          np.array([t0 + 0.05]), np.array([t0 + 0.001]),
                                          -np.inf, np.inf)
            if not (len(found) and np.all(np.abs(found - t0) < KERNEL_TOL / lam)):
                lost.append((delta, lam, found))
    assert not lost


# toolkit seed 54's constant path 24 (n = 1): f rises from the t = 0 endpoint
# at 0.171, a tenth of the grid's steepest slope, so it stays below KERNEL_TOL
# up to t = 5.8e-8, beyond the KERNEL_TOL / 1.71 that the steepest slope gives
SHALLOW_START = [[1.7115480986351417, -0.012639616700892673],
                 [-0.012639616700892673, 0.17139919875673187]]


def test_endpoint_exclusion_reads_the_slope_of_its_own_cell():
    path = integrate_path(constant_family(SHALLOW_START), 1.0)
    idx = permuted_cz_index(path)
    assert idx.twice_value == 2
    assert [(r.time, r.endpoint) for r in idx.crossings] == [(0.0, True)]
    assert rotation_shift_check(path, None, 2)


@pytest.mark.slow
def test_rotation_oracle_at_the_step_cap():
    # K = [[1, 0.2], [0.2, 0.7]] turns at omega = sqrt(det K): Psi returns to Id
    # every 2 pi / omega, and each return is a crossing of signature 2 and kernel 2
    tau = 6e4
    path = integrate_path(constant_family(np.array([[1.0, 0.2], [0.2, 0.7]])), tau)
    idx = permuted_cz_index(path)
    turns = int(tau * np.sqrt(0.66) / (2 * np.pi))
    assert path.steps == maslov.MAX_STEPS and turns == 7757
    assert idx.twice_value == 2 + 4 * turns
    assert [(r.kernel_dimension, r.signature) for r in idx.crossings] == [(2, 2)] * (turns + 1)


DEGENERATE_AT_BOTH_ENDS = constant_family(np.diag([1.0, 0.0]))  # Psi(t) fixes (0, 1)


@pytest.mark.parametrize("family, closed, error, message", [
    (DEGENERATE_AT_BOTH_ENDS, False, DegenerateCrossingError, "degenerate crossing form at t=0.0"),
    (DEGENERATE_AT_BOTH_ENDS, True, DegenerateCrossingError, "degenerate crossing form at t=0.0"),
    (rotation_family(1), False, StationaryDegenerateError,
     "det(Psi(1.0) - sigma) vanishes: stationary braid degenerate"),
], ids=["both-ends-open", "both-ends-closed", "loop-open"])
def test_degenerate_crossings_are_refused_in_time_order(family, closed, error, message):
    # a degenerate form at a is refused before the far endpoint b is checked
    with pytest.raises(error) as exc:
        permuted_cz_index(integrate_path(family, 1.0), closed=closed)
    assert type(exc.value) is error and str(exc.value) == message


def test_closed_loop_counts_both_endpoints():
    idx = permuted_cz_index(integrate_path(rotation_family(1), 1.0), closed=True)
    assert idx.twice_value == 4
    assert [(r.time, r.kernel_dimension, r.signature, r.endpoint) for r in idx.crossings] == [
        (0.0, 2, 2, True), (1.0, 2, 2, True)]


def _outcome(index):
    """An index as its value and records, each time as its exact hex, or its refusal."""
    try:
        idx = index()
    except (DegenerateCrossingError, StationaryDegenerateError) as exc:
        return type(exc).__name__, str(exc)
    return idx.twice_value, [(r.time.hex(), r.kernel_dimension, r.signature, r.endpoint)
                             for r in idx.crossings]


def test_stacked_crossing_forms_match_the_single_time_reference(monkeypatch):
    # seeded constant and three-sample table families at n = 1 and 2, turns -2,
    # 0 and 1, both sigma at n = 2, open and closed, also over [tau / 3, 0.9 tau];
    # with them, families degenerate at an endpoint or along the whole path
    rng = np.random.default_rng(5)
    families = []
    for c in range(30):
        n, tau = 1 + c % 2, rng.uniform(1.0, 3.0)
        k = rng.uniform(-3, 3, (3, 2 * n, 2 * n))
        mats = (k + np.swapaxes(k, 1, 2)) / 2 + rng.uniform(0, 6, (3, 1, 1)) * np.eye(2 * n)
        table = sampled_family(np.sort(rng.uniform(-0.3, tau + 0.3, 3)), mats)
        families.append((table if c % 4 > 1 else constant_family(mats[0]), tau))
    families += [(constant_family(k), 1.0) for k in (
        np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([1.0, 0.0, 2.0, 0.0]))]
    # no rotation of 2 turns: composed with turns = -2 it stays at I, where f is
    # rounding noise that the zoom does not end on
    families += [(rotation_family(1), 1.0), (rotation_family(3, 2), 1.0)]
    cases = []
    for family, tau in families:
        path = integrate_path(family, tau)
        for turns in (-2, 0, 1):
            rotated = replace(path, turns=turns)
            # the grid's f at a node: psi there is the node matrix, bit for bit
            assert np.array_equal(rotated.psi(path.times[1:-1]),
                                  rotated._rotation(path.times[1:-1]) @ path.matrices[1:-1])
            for sigma in (None, StrandPermutation((1, 0)))[:family.strands]:
                cases += [(rotated, sigma, 0.0, None, closed) for closed in (False, True)]
        cases += [(path, None, tau / 3, 0.9 * tau, closed) for closed in (False, True)]
    got = [_outcome(lambda: permuted_cz_index(*case)) for case in cases]
    monkeypatch.setattr(maslov, "_graph_index", reference_graph_index)
    want = [_outcome(lambda: permuted_cz_index(*case)) for case in cases]
    assert got == want
    assert len(cases) >= 300
    assert {w[0] if isinstance(w[0], str) else "index" for w in want} == {
        "index", "DegenerateCrossingError", "StationaryDegenerateError"}
