"""Relative homology of finite index pairs over the two-element field.

A chain complex is a vector of cell dimensions plus its boundary as a sparse
cell x face matrix (CSR, int32 indices); the cofaces are its transpose.  The
check d^2 = 0 is the exact sparse product B @ B, every entry even, at every
size.  Homology-preserving eliminations run next: coreduction pairs (a cell
whose boundary is a single cell) and free-face reductions (a cell with a
single coface), both fill-in free over Z2 (Mrozek-Batko coreduction).  They
go in whole rounds of disjoint pairs, each round judged against the cells
still alive; once half the rows are gone the matrices are cut to the live
submatrix, so a round costs the live size.  A queue over the CSR index
arrays removes the last few pairs one at a time.  The surviving core is
finished off by bit-packed Gaussian elimination.  Euler and Morse-inequality
identities are asserted on every run.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BraidInputError

GAUSS_CAP = 400_000
# a coreduction round costs about what the queue takes for (live + TAIL) / 64
# pairs, and cutting the matrices to the live cells pays from TAIL rows up;
# sweeping each role from 256 to 65536 puts the fastest _coreduce on the desk
# and large complexes at 1024-4096 for both (BENCH_10.json)
TAIL = 4096

# counts of structural identities verified across all homology runs
IDENTITY_CHECKS = {"boundary_squared": 0, "euler": 0, "morse": 0}


@dataclass(frozen=True)
class GradedBetti:
    """Map degree -> Z2 dimension, with a provenance flag."""

    betti: tuple[tuple[int, int], ...]  # sorted (degree, dim) pairs, dims > 0
    provenance: str = "direct"          # 'direct' or 'conjecture-shifted'

    @staticmethod
    def from_dict(d: dict[int, int], provenance: str = "direct") -> "GradedBetti":
        return GradedBetti(tuple(sorted((k, v) for k, v in d.items() if v)), provenance)

    def as_dict(self) -> dict[int, int]:
        return dict(self.betti)

    def shifted(self, amount: int, provenance: str | None = None) -> "GradedBetti":
        return GradedBetti(
            tuple((k + amount, v) for k, v in self.betti),
            provenance or self.provenance,
        )

    def total(self) -> int:
        return sum(v for _, v in self.betti)

    def __bool__(self) -> bool:
        return bool(self.betti)


@dataclass(frozen=True)
class IntPolynomial:
    """Formal sum of integer coefficients; degrees may be negative."""

    coeffs: tuple[tuple[int, int], ...]  # sorted (degree, coefficient)

    @staticmethod
    def from_dict(d: dict[int, int]) -> "IntPolynomial":
        return IntPolynomial(tuple(sorted((k, v) for k, v in d.items() if v)))

    def __call__(self, t: float):
        return sum(c * t**k for k, c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.coeffs:
            if k == 0:
                parts.append(str(c))
            else:
                mono = "t" if k == 1 else f"t^{k}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts)


def poincare_polynomial(b: GradedBetti) -> IntPolynomial:
    """Formal sum of betti_k t^k."""
    return IntPolynomial.from_dict(b.as_dict())


def boundary_matrix(rows, cols, n: int) -> sp.csr_matrix:
    """Z2 boundary as an n x n CSR matrix: row = cell, column = face.

    Entries are 0/1 int8 with sorted indices; repeated faces cancel.
    """
    rows, cols = np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32)
    bnd = sp.csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    bnd.sum_duplicates()
    bnd.data &= 1
    bnd.eliminate_zeros()
    return bnd


def _coreduce(core: array, bnd: sp.csr_matrix, cob: sp.csr_matrix) -> int:
    """Run coreduction and free-face reduction until no pair is left.

    `core` holds the cells (rows of `bnd`) taking part, an int64 array cut
    down to the survivors; `cob` is the transpose of `bnd`.  Returns the
    number of removed cells.

    A pair stays removable while other cells go, so disjoint pairs can go
    together.  A round pairs every alive cell with one alive face, or with one
    alive coface, with that neighbour, and keeps the pairs that share no cell
    with a lower-numbered pair; two sparse products count the alive faces and
    cofaces of every row at the start of each round.  Once at most half the
    rows are alive, both matrices are cut to the alive rows and columns, so
    later rounds cost the live size, not n.  Rounds go on while each removes
    more pairs than the one before (they ramp up from the first free faces) or
    at least (live + TAIL) / 64 pairs; then a queue over the cut matrices
    finishes the tail one pair at a time.
    """
    alive = np.zeros(bnd.shape[0], dtype=np.int32)
    alive[np.frombuffer(core, dtype=np.int64)] = 1
    rows = np.arange(bnd.shape[0])  # original row of each row of bnd and cob
    live, last = len(core), 0
    while True:
        face_count, coface_count = bnd @ alive, cob @ alive
        one_face = np.flatnonzero(alive & (face_count == 1))
        one_coface = np.flatnonzero(alive & (coface_count == 1))
        x = np.concatenate((one_face, one_coface))
        y = np.concatenate((_alive_entry(bnd, one_face, alive), _alive_entry(cob, one_coface, alive)))
        # keep each pair whose cells are in no lower-numbered pair
        pid = np.arange(len(x))
        first = np.full(len(alive), len(x))
        np.minimum.at(first, x, pid)
        np.minimum.at(first, y, pid)
        keep = (first[x] == pid) & (first[y] == pid)
        pairs = np.count_nonzero(keep)
        if not pairs or pairs <= last and 64 * pairs < live + TAIL:
            break
        alive[x[keep]] = 0
        alive[y[keep]] = 0
        live, last = live - 2 * pairs, pairs
        if TAIL <= 2 * live <= len(alive):
            sub = alive.astype(bool)
            bnd = bnd[sub][:, sub]
            cob = bnd.T.tocsr()
            rows, alive = rows[sub], alive[sub]
    co_queue = deque(np.flatnonzero(alive & (face_count == 1)).tolist())
    red_queue = deque(np.flatnonzero(alive & (coface_count == 1)).tolist())
    alive = bytearray(alive.astype(np.uint8))
    # memoryviews give Python ints without copying the arrays into lists
    faces, cofaces = memoryview(face_count), memoryview(coface_count)
    b_idx, b_ptr = memoryview(bnd.indices), memoryview(bnd.indptr)
    c_idx, c_ptr = memoryview(cob.indices), memoryview(cob.indptr)

    def drop(x):
        alive[x] = 0
        for z in b_idx[b_ptr[x]:b_ptr[x + 1]]:
            if alive[z]:
                cofaces[z] -= 1
                if cofaces[z] == 1:
                    red_queue.append(z)
        for z in c_idx[c_ptr[x]:c_ptr[x + 1]]:
            if alive[z]:
                faces[z] -= 1
                if faces[z] == 1:
                    co_queue.append(z)

    while co_queue or red_queue:
        while co_queue:
            b = co_queue.popleft()
            if not alive[b] or faces[b] != 1:
                continue
            a = next(f for f in b_idx[b_ptr[b]:b_ptr[b + 1]] if alive[f])
            drop(b)
            drop(a)
        while red_queue:
            a = red_queue.popleft()
            if not alive[a] or cofaces[a] != 1:
                continue
            b = next(f for f in c_idx[c_ptr[a]:c_ptr[a + 1]] if alive[f])
            drop(a)
            drop(b)
    survivors = rows[np.flatnonzero(np.frombuffer(alive, dtype=np.uint8))]
    removed = len(core) - len(survivors)
    core[:] = array("q", survivors.tobytes())
    return removed


def _alive_entry(m: sp.csr_matrix, cells: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """The column of the one alive entry in each of the rows `cells` of `m`."""
    starts = m.indptr[cells]
    lens = m.indptr[cells + 1] - starts
    ends = np.cumsum(lens)
    cols = m.indices[np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lens, lens)]
    return cols[alive[cols] == 1]


def _gauss_ranks(core: array, dims: np.ndarray, bnd: sp.csr_matrix) -> dict[int, int]:
    """rank of each boundary matrix d_k on the (small) core, over Z2."""
    if len(core) > GAUSS_CAP:
        raise BraidInputError(f"core of {len(core)} cells exceeds the elimination cap")
    by_dim: dict[int, list[int]] = {}
    for c in core:
        by_dim.setdefault(int(dims[c]), []).append(c)
    ranks: dict[int, int] = {}
    for k, cols in sorted(by_dim.items()):
        rows = {c: i for i, c in enumerate(by_dim.get(k - 1, []))}
        if not rows:
            ranks[k] = 0
            continue
        pivots: dict[int, int] = {}  # bit -> reduced column
        rank = 0
        for c in cols:
            vec = 0
            for f in bnd.indices[bnd.indptr[c]:bnd.indptr[c + 1]].tolist():
                if f in rows:
                    vec ^= 1 << rows[f]
            while vec:
                low = vec.bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = vec
                    rank += 1
                    break
                vec ^= other
        ranks[k] = rank
    return ranks


def _check_boundary_squared(bnd: sp.csr_matrix) -> None:
    """Exact d^2 = 0 over Z2: every entry of B @ B counts an even number of
    paths.  int8 products wrap modulo 256, which keeps their parity."""
    if ((bnd @ bnd).data & 1).any():
        raise AssertionError("boundary of boundary is nonzero")
    IDENTITY_CHECKS["boundary_squared"] += 1


def _check_morse_identities(counts: dict[int, int], betti: dict[int, int]) -> None:
    euler_c = sum((-1) ** k * v for k, v in counts.items())
    euler_b = sum((-1) ** k * v for k, v in betti.items())
    if euler_c != euler_b:
        raise AssertionError(f"Euler characteristic mismatch: {euler_c} vs {euler_b}")
    IDENTITY_CHECKS["euler"] += 1
    # (sum c_k t^k) - (sum beta_k t^k) = (1+t) Q(t) with Q >= 0
    degs = set(counts) | set(betti)
    if not degs:
        return
    lo, hi = min(degs), max(degs)
    diff = [counts.get(k, 0) - betti.get(k, 0) for k in range(lo, hi + 1)]
    if any(v < 0 for v in diff):
        raise AssertionError("chain counts below betti numbers")
    q = []
    carry = 0
    for v in diff:
        q.append(v - carry)
        carry = q[-1]
    if carry != 0 or any(v < 0 for v in q):
        raise AssertionError("Morse inequality violated: not (1+t) times a nonneg series")
    IDENTITY_CHECKS["morse"] += 1


def _homology(dims: np.ndarray, bnd: sp.csr_matrix) -> dict[int, int]:
    """Betti numbers of the chain complex (dims, bnd); all checks on."""
    low = int(np.min(dims, initial=0))
    counts = {k + low: int(v) for k, v in enumerate(np.bincount(dims - low)) if v}
    _check_boundary_squared(bnd)
    core = array("q", np.arange(len(dims)).tobytes())
    _coreduce(core, bnd, bnd.T.tocsr())
    ranks = _gauss_ranks(core, dims, bnd)
    betti = {}
    for k, n in zip(*np.unique(dims[np.frombuffer(core, dtype=np.int64)], return_counts=True)):
        b = int(n) - ranks.get(int(k), 0) - ranks.get(int(k) + 1, 0)
        if b:
            betti[int(k)] = b
    _check_morse_identities(counts, betti)
    return betti


def homology_of_chain(cells: dict[int, int], boundary) -> dict[int, int]:
    """Betti numbers of a Z2 chain complex given by a callable.

    `cells` maps generator -> dimension; `boundary` lists a generator's
    faces (ones outside `cells` are dropped).
    """
    index = {c: r for r, c in enumerate(cells)}
    rows, cols = [], []
    for c, r in index.items():
        for f in boundary(c):
            if f in index:
                rows.append(r)
                cols.append(index[f])
    dims = np.fromiter(cells.values(), dtype=np.int64, count=len(cells))
    return _homology(dims, boundary_matrix(rows, cols, len(cells)))


def relative_homology(pair) -> GradedBetti:
    """Betti numbers of the index pair (N, N^-): ker/im of the Z2 boundary."""
    _, dims, bnd = pair.chain_complex()
    betti = _homology(dims, bnd)
    return GradedBetti.from_dict(betti, "direct")


def homology_from_json(doc: dict) -> GradedBetti:
    """Betti numbers of a chain-complex dump (`IndexPair.to_chain_json`)."""
    cells = {int(g["id"]): int(g["dim"]) for g in doc["generators"]}
    bmap = {int(k): [int(v) for v in vs] for k, vs in doc["boundaries"].items()}
    betti = homology_of_chain(cells, lambda c: bmap.get(c, []))
    return GradedBetti.from_dict(betti, "direct")
