"""Relative homology of finite index pairs over the two-element field.

A chain complex is a vector of cell dimensions plus its boundary as a sparse
cell x face matrix (CSR, int32 indices); the cofaces are its transpose.  The
check d^2 = 0 is the exact sparse product B @ B, every entry even, at every
size.  Homology-preserving eliminations run next: coreduction pairs (a cell
whose boundary is a single cell) and free-face reductions (a cell with a
single coface), both fill-in free over Z2 (Mrozek-Batko coreduction).  They
go in whole rounds of disjoint pairs found by sparse products, then one pair
at a time from a queue over the CSR index arrays.  The surviving core is
finished off by bit-packed Gaussian elimination.  Euler and Morse-inequality
identities are asserted on every run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

GAUSS_CAP = 400_000

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


def _coreduce(core: list[int], bnd: sp.csr_matrix, cob: sp.csr_matrix) -> int:
    """Run coreduction and free-face reduction passes until both stall.

    `core` lists the cells (rows of `bnd`) taking part and is cut down to the
    survivors; `cob` is the transpose of `bnd`.  Returns the number of removed
    cells.

    A pair stays removable while other cells go, so disjoint pairs can go
    together: whole rounds of them are found by sparse products while a round
    removes at least 1/64 of the cells, then a queue finishes the rest.
    """
    n = bnd.shape[0]
    mask = np.zeros(n, dtype=np.int32)
    mask[core] = 1
    tags = np.arange(1, n + 1)
    while True:
        face_count, coface_count = bnd @ mask, cob @ mask
        # pair a cell with its one alive face, or with its one alive coface,
        # named by the sum of the alive neighbours' tags
        one_face = np.flatnonzero(mask & (face_count == 1))
        one_coface = np.flatnonzero(mask & (coface_count == 1))
        x = np.concatenate((one_face, one_coface))
        live = tags * mask
        y = np.concatenate(((bnd @ live)[one_face], (cob @ live)[one_coface])) - 1
        # keep each pair whose cells are in no lower-numbered pair
        pid = np.arange(len(x))
        first = np.full(n, len(x))
        np.minimum.at(first, x, pid)
        np.minimum.at(first, y, pid)
        keep = (first[x] == pid) & (first[y] == pid)
        if 64 * np.count_nonzero(keep) <= n:
            break
        mask[x[keep]] = 0
        mask[y[keep]] = 0
    co_queue = deque(np.flatnonzero(mask & (face_count == 1)).tolist())
    red_queue = deque(np.flatnonzero(mask & (coface_count == 1)).tolist())
    alive = bytearray(mask.astype(np.uint8))
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
    removed = len(core)
    core[:] = np.flatnonzero(np.frombuffer(alive, dtype=np.uint8)).tolist()
    return removed - len(core)


def _gauss_ranks(core: list[int], dims: np.ndarray, bnd: sp.csr_matrix) -> dict[int, int]:
    """rank of each boundary matrix d_k on the (small) core, over Z2."""
    if len(core) > GAUSS_CAP:
        raise RuntimeError(f"core of {len(core)} cells exceeds the elimination cap")
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
    ks, ns = np.unique(dims, return_counts=True)
    counts = dict(zip(ks.tolist(), ns.tolist()))
    _check_boundary_squared(bnd)
    core = list(range(len(dims)))
    _coreduce(core, bnd, bnd.T.tocsr())
    ranks = _gauss_ranks(core, dims, bnd)
    betti = {}
    for k, n in zip(*np.unique(dims[core], return_counts=True)):
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
