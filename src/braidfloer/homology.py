"""Relative homology of finite index pairs over the two-element field.

A chain complex is a vector of cell dimensions plus its boundary as a sparse
cell x face matrix (canonical CSR of int8 ones, int32 indices), which the
index pair writes once N is dropped; the cofaces are its transpose.  The check
d^2 = 0 is the exact sparse product B @ B, every entry even, at every size.
Homology-preserving eliminations run next: coreduction pairs (a cell whose
boundary is a single cell) and free-face reductions (a cell with a single
coface), both fill-in free over Z2 (Mrozek-Batko coreduction).  They go in
whole rounds of disjoint pairs, each round judged against the cells still
alive; once half the rows are gone the matrices are cut to the live submatrix,
so a round costs the live size.  A queue over the CSR index arrays removes the
last few pairs one at a time.  The surviving core is finished off by
bit-packed Gaussian elimination.  Euler and Morse-inequality identities are
asserted on every run.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BraidInputError

GAUSS_CAP = 400_000
SQUARE_ROWS = 1 << 16  # rows of B per block of the d^2 product
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


def poincare_polynomial(b: GradedBetti) -> str:
    """The formal sum of betti_k t^k as text, lowest degree first: "0",
    "t^-1 + 1", "2*t"."""
    parts = []
    for k, c in b.betti:
        if k == 0:
            parts.append(str(c))
        else:
            mono = "t" if k == 1 else f"t^{k}"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) or "0"


def _coreduce(core: array, bnd: sp.csr_matrix) -> int:
    """Run coreduction and free-face reduction until no pair is left.

    `core` holds the cells (rows of `bnd`) taking part, an int64 array cut
    down to the survivors; its transpose `cob` is built here, so that a cut
    frees it first.  Returns the number of removed cells.

    A pair stays removable while other cells go, so disjoint pairs can go
    together.  A round pairs every alive cell with one alive face, or with one
    alive coface, with that neighbour, and keeps the pairs that share no cell
    with a lower-numbered pair; two sparse products count the alive faces and
    cofaces of every row each round, in int8 (no data copy) below 128 per row.
    Once at most half the rows are alive, both matrices are cut to the alive
    rows and columns, so later rounds cost the live size, not n.  Rounds go on
    while each removes more pairs than the one before (they ramp up from the
    first free faces) or at least (live + TAIL) / 64 pairs; then a queue over
    the cut matrices finishes the tail one pair at a time.
    """
    cob = bnd.T.tocsr()
    wide = max(np.diff(m.indptr).max(initial=0) for m in (bnd, cob)) > 127
    alive = np.zeros(bnd.shape[0], dtype=np.int32 if wide else np.int8)
    alive[np.frombuffer(core, dtype=np.int64)] = 1
    rows = np.arange(bnd.shape[0], dtype=np.int32)  # original row of each row of bnd, cob
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
            del cob  # before the cut matrices are built
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
    survivors = rows[np.flatnonzero(np.frombuffer(alive, dtype=np.uint8))].astype(np.int64)
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
    """Exact d^2 = 0 over Z2: every entry of B @ B, formed by row blocks so that
    it stays small, counts an even number of paths (int8 wraps keep parity)."""
    for lo in range(0, bnd.shape[0], SQUARE_ROWS):
        if ((bnd[lo:lo + SQUARE_ROWS] @ bnd).data & 1).any():
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
    _coreduce(core, bnd)
    ranks = _gauss_ranks(core, dims, bnd)
    betti = {}
    for k, n in zip(*np.unique(dims[np.frombuffer(core, dtype=np.int64)], return_counts=True)):
        b = int(n) - ranks.get(int(k), 0) - ranks.get(int(k) + 1, 0)
        if b:
            betti[int(k)] = b
    _check_morse_identities(counts, betti)
    return betti


def relative_homology(pair) -> GradedBetti:
    """Betti numbers of the index pair (N, N^-): ker/im of the Z2 boundary.
    Spends the pair, as `chain_complex` does."""
    _, dims, bnd = pair.chain_complex()
    betti = _homology(dims, bnd)
    return GradedBetti.from_dict(betti, "direct")
