import pytest

from braidfloer.homology import (
    GradedBetti,
    homology_of_chain,
    poincare_polynomial,
)


def test_poincare_polynomial_formats():
    assert str(poincare_polynomial(GradedBetti.from_dict({0: 1}))) == "1"
    assert str(poincare_polynomial(GradedBetti.from_dict({2: 1, 3: 1}))) == "t^2 + t^3"
    assert str(poincare_polynomial(GradedBetti.from_dict({-1: 1, 0: 1}))) == "t^-1 + 1"
    assert str(poincare_polynomial(GradedBetti.from_dict({}))) == "0"
    assert str(poincare_polynomial(GradedBetti.from_dict({1: 2}))) == "2*t"


def test_poincare_polynomial_evaluation():
    p = poincare_polynomial(GradedBetti.from_dict({2: 1, 3: 1}))
    assert p(1) == 2
    assert p(2) == 12


def test_betti_shift_and_total():
    b = GradedBetti.from_dict({2: 1, 3: 1})
    s = b.shifted(-4, "conjecture-shifted")
    assert s.as_dict() == {-2: 1, -1: 1}
    assert s.provenance == "conjecture-shifted"
    assert s.total() == 2
    assert bool(s) and not bool(GradedBetti.from_dict({}))


def test_euler_identity_enforced():
    # a sphere-like complex: two vertices, two edges, two 2-cells
    cells = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}
    bnd = {3: [1, 2], 4: [1, 2], 5: [3, 4], 6: [3, 4]}
    betti = homology_of_chain(cells, lambda c: bnd.get(c, []))
    assert betti == {0: 1, 2: 1}


def test_boundary_squared_guard():
    cells = {1: 0, 2: 1, 3: 2}
    bnd = {2: [1], 3: [2]}  # d(d(3)) = 1 != 0
    with pytest.raises(AssertionError):
        homology_of_chain(cells, lambda c: bnd.get(c, []))


def test_large_cycle_reduces():
    # a long circle: coreduction plus elimination handle it quickly
    n = 50_000
    cells = {}
    bnd = {}
    for i in range(n):
        cells[i] = 0
        cells[n + i] = 1
        bnd[n + i] = [i, (i + 1) % n]
    betti = homology_of_chain(cells, lambda c: bnd.get(c, []))
    assert betti == {0: 1, 1: 1}


def test_long_path_collapses_to_a_point():
    # each sparse round frees only the two ends, so the queue does the work
    n = 20_000
    cells = {i: 0 for i in range(n)}
    bnd = {}
    for i in range(n - 1):
        cells[n + i] = 1
        bnd[n + i] = [i, i + 1]
    assert homology_of_chain(cells, lambda c: bnd.get(c, [])) == {0: 1}


def test_boundary_squared_exact_on_large_complex():
    # one bad cell among 100,001: d of a 2-cell is a single edge, so d^2 != 0
    n = 50_000
    cells = {}
    bnd = {}
    for i in range(n):
        cells[i] = 0
        cells[n + i] = 1
        bnd[n + i] = [i, (i + 1) % n]
    cells[2 * n] = 2
    bnd[2 * n] = [n + 123]
    with pytest.raises(AssertionError, match="boundary of boundary"):
        homology_of_chain(cells, lambda c: bnd.get(c, []))
