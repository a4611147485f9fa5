from array import array
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidfloer import homology
from braidfloer.homology import (
    GradedBetti,
    _coreduce,
    _gauss_ranks,
    boundary_matrix,
    homology_of_chain,
    poincare_polynomial,
)

from helpers import gf2_rank, reference_coreduce


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
    # each sparse round frees only the two ends, no more than the round
    # before and under 1/64 of the live cells, so the queue does the work
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


def test_filled_square_collapses_to_a_point():
    # 40,401 cells; the first round can only pair the 400 free boundary edges
    # with their squares, under 1/64 of the cells, and each later round peels
    # about one more layer
    m = 100
    cells = {c: (c[0] % 2) + (c[1] % 2) for c in product(range(2 * m + 1), repeat=2)}
    assert homology_of_chain(cells, _faces) == {0: 1}


def _faces(c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Faces of an elementary cube: an odd coordinate is an interval, an even
    one a point."""
    return [c[:i] + (x + e,) + c[i + 1:] for i, x in enumerate(c) if x % 2 for e in (-1, 1)]


def _closure(cells) -> set[tuple[int, ...]]:
    out, todo = set(), list(cells)
    while todo:
        c = todo.pop()
        if c not in out:
            out.add(c)
            todo.extend(_faces(c))
    return out


def _betti(coreduce, core, dims: np.ndarray, bnd) -> dict[int, int]:
    """Betti numbers of the cells `core` after `coreduce` and elimination."""
    coreduce(core, bnd, bnd.T.tocsr())
    ranks = _gauss_ranks(core, dims, bnd)
    kept = np.bincount(dims[np.asarray(core, dtype=np.int64)], minlength=dims.max(initial=0) + 1)
    betti = {k: int(n) - ranks.get(k, 0) - ranks.get(k + 1, 0) for k, n in enumerate(kept)}
    return {k: b for k, b in betti.items() if b}


def _dense_betti(cells: list, dims: np.ndarray) -> dict[int, int]:
    """Betti numbers from the dense Z2 rank of each boundary map."""
    by_dim: dict[int, list] = {}
    for c, k in zip(cells, dims.tolist()):
        by_dim.setdefault(k, []).append(c)
    ranks = {}
    for k, cs in by_dim.items():
        below = {f: j for j, f in enumerate(by_dim.get(k - 1, []))}
        m = np.zeros((len(cs), max(len(below), 1)), dtype=np.uint8)
        for r, c in enumerate(cs):
            for f in _faces(c):
                if f in below:
                    m[r, below[f]] = 1
        ranks[k] = gf2_rank(m)
    betti = {k: len(cs) - ranks[k] - ranks.get(k + 1, 0) for k, cs in by_dim.items()}
    return {k: b for k, b in betti.items() if b}


CUBICAL_PAIRS = st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 8)] * dim), min_size=1, max_size=40),
    st.lists(st.tuples(*[st.integers(0, 8)] * dim), max_size=10),
))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(CUBICAL_PAIRS)
def test_coreduce_matches_reference_and_dense_rank(pair):
    # X is the closure of random elementary cubes in a grid of side 4 and A
    # the closure of random cells of X.  H(X) and H(X, A) by the reference,
    # by `_coreduce` (its rounds cut the matrices to the live cells only from
    # TAIL cells up, so once more with a tiny TAIL), by dense ranks and by
    # `homology_of_chain` on the cells alone
    tops, sub = pair
    closed = _closure(tops)
    x = sorted(closed)
    a = _closure(c for c in sub if c in closed)
    index = {c: r for r, c in enumerate(x)}
    dims = np.array([sum(v % 2 for v in c) for c in x], dtype=np.int64)
    rows, cols = np.array([(index[c], index[f]) for c in x for f in _faces(c)],
                          dtype=np.int64).reshape(-1, 2).T
    bnd = boundary_matrix(rows, cols, len(x))
    for keep in (list(range(len(x))), [r for r, c in enumerate(x) if c not in a]):
        expected = _betti(reference_coreduce, list(keep), dims, bnd)
        for tail in (homology.TAIL, 2):
            with mock.patch.object(homology, "TAIL", tail):
                assert _betti(_coreduce, array("q", keep), dims, bnd) == expected
        cells = [x[r] for r in keep]
        assert _dense_betti(cells, dims[keep]) == expected
        assert homology_of_chain({c: int(dims[index[c]]) for c in cells}, _faces) == expected
