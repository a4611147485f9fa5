"""Cell complex of a discretized relative braid class and its Conley index pair.

For one free strand with period d, a configuration is a point of (-1,1)^d and
the fixed values at each slot (skeleton anchors plus the boundary markers +-1)
cut the cube into a regular product complex.  A cell assigns to each slot
either a gap between consecutive fixed values or a pin onto one of them; its
dimension is the number of gap slots.  A pinned slot is classified through the
neighbouring slots:

* straddle  -- the free strand crosses the pinned strand transversally; the
  face is interior to the braid class and joins two top cells of it;
* tangency  -- both neighbours sit on the same side; the face lies in the
  discriminant and walls the class off from a class whose crossing number
  differs by exactly two.

The index pair takes N = closure of the class component and N^- = the faces
through which the crossing number drops, the combinatorial transcription of
the monotonicity of crossings under parabolic/Cauchy-Riemann dynamics.  The
discrete literature fixes only the direction of decrease; the exit faces are
the tangencies with the component on the hooked-over side of the pin.  Every
index pair checks that rule against the crossing tables: across each
skeleton tangency of a top cell the crossing number is c-2 exactly behind an
exit face and c+2 otherwise, and no tangency on a +-1 marker is an exit face.

A cell is a mixed-radix code over the per-slot states (gaps 0..ngaps-1, pins
ngaps+f), int32 below 2^30 states and int64 above.  Top cells, N, N^- and the
relative cells are sorted code arrays.  The component is flood-filled by
frontier: each slot and direction applies the straddle test to the whole
frontier at once.  N and N^- come from one down-closure, one slot at a time,
with an exit bit on each code; N^- is a mask on N, checked closed by sorted
merges.  Which side of a fixed value a gap lies on is exact integer data, so
the straddle/tangency signs and the crossings of a representative strand
come from per-slot tables built once per geometry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .discrete import DiscreteRelativeBraid
from .errors import BraidInputError, ImproperClassError, TransversalityError

BARRIER_LOW = -1
BARRIER_HIGH = -2

COMPONENT_CUBE_CAP = 500_000
INDEX_CELL_CAP = 1_500_000
MIN_PERIOD = 2  # the least period of a braid complex
UNIQUE_BLOCK = 1 << 16  # codes per block of the duplicate scan


class ComplexGeometry:
    """Fixed values, sign and crossing tables, and the cell codes.

    `values[i]` holds the fixed values of slot i bottom-up as int64
    numerators over `den`, the markers -+1 at the ends, and `owners[i]` the
    skeleton strand or barrier of each.  Every slot has `ngaps` gaps and
    `nstates` states.  Gap g of a slot lies below fixed value p of the same
    slot iff g < p, so for pin f at slot i, `prev_pos[i][f]` and
    `next_pos[i][f]` locate its owner at slots i-1 and i+1, and
    `cross[i][g, h]` counts the crossings with the skeleton of a strand in
    gap g at slot i and gap h at slot i+1.
    """

    def __init__(self, rb: DiscreteRelativeBraid):
        if rb.free.strands != 1:
            raise NotImplementedError(
                "index pairs are implemented for one free strand; the cell "
                "model extends to several but this version does not build it"
            )
        if rb.period < MIN_PERIOD:
            raise BraidInputError(f"braid complexes need period >= {MIN_PERIOD}")
        self.rb = rb
        self.period = d = rb.period
        sk = rb.skeleton
        m, den = sk.strands, sk.den
        lat = sk.lattice[:, :d]
        order = np.argsort(lat, axis=0)  # skeleton strands bottom-up, per slot
        ranked = np.take_along_axis(lat, order, axis=0)
        clash = ((np.diff(ranked, axis=0) == 0).any(axis=0)
                 | (abs(ranked) == den).any(axis=0))  # on a marker
        if clash.any():
            raise TransversalityError(f"coincident fixed values at slot {np.argmax(clash)}")
        self.den = den
        self.values = np.pad(ranked.T, ((0, 0), (1, 1)), constant_values=(-den, den))
        self.owners = np.pad(order.T, ((0, 0), (1, 1)), constant_values=(BARRIER_LOW, BARRIER_HIGH))
        # gaps are states 0..ngaps-1, pins follow as ngaps + f
        self.ngaps, self.nstates = m + 1, 2 * m + 3
        states = self.nstates ** d
        self.strides = [self.nstates ** i for i in range(d)]
        if states >= 2**63:
            raise BraidInputError(
                f"{states} cell states overflow the int64 cell codes; "
                "the class is beyond this build's desk scale"
            )
        self.dtype, self.key_dtype = (np.int32, np.uint32) if states < 2**30 else (np.int64, np.uint64)

        # pos[l, i]: index of strand l's value among the fixed values of slot
        # i, at slots 0..d through the closure; before[l, i] is pos at i-1
        pos = np.empty((m, d + 1), dtype=np.int64)
        np.put_along_axis(pos[:, :d], order, np.arange(1, m + 1)[:, None], axis=0)
        pos[:, d] = pos[sk.closure.image, 0]
        before = np.roll(pos[:, :d], 1, axis=1)
        before[sk.closure.image, 0] = pos[:, d - 1]
        self.prev_pos, self.next_pos = (
            np.pad(np.take_along_axis(t, order, axis=0).T, ((0, 0), (1, 1)),
                   constant_values=((0, 0), (0, m + 1)))  # the barriers' positions
            for t in (before, pos[:, 1:])
        )
        gap = np.arange(m + 1)
        self.cross = (
            (gap[None, :, None, None] < pos[:, :d].T[:, None, None, :])
            != (gap[None, None, :, None] < pos[:, 1:].T[:, None, None, :])
        ).sum(axis=3)

    def digits(self, codes: np.ndarray) -> np.ndarray:
        """Per-slot states of the codes, one row each; the gap rows of top cells."""
        return codes[:, None] // np.array(self.strides) % self.nstates

    def crossing_numbers(self, codes: np.ndarray) -> np.ndarray:
        """Total crossings of the representative free strand of each top cell."""
        gaps = self.digits(codes)
        d = self.period
        return self.rb.skeleton.crossings + sum(
            self.cross[i][gaps[:, i], gaps[:, (i + 1) % d]] for i in range(d)
        )

    def sides(self, gaps: np.ndarray, i: int, up: int) -> tuple[np.ndarray, np.ndarray]:
        """Whether slots i-1 and i+1 of each gap row lie below the owner of its
        pin g+up at slot i: they differ across a straddle, agree at a tangency."""
        pin = gaps[:, i] + up
        return (gaps[:, i - 1] < self.prev_pos[i][pin],
                gaps[:, (i + 1) % self.period] < self.next_pos[i][pin])

    def gaps_of(self, nums: np.ndarray, den: int) -> list[int | None]:
        """Per slot, the gap holding the value nums[i] / den strictly inside it;
        None on a fixed value."""
        out = []
        for row, num in zip(self.values.tolist(), nums.tolist()):
            u = num * self.den  # over den * self.den, as is each v * den of the row
            k = bisect_left(row, u, key=lambda v: v * den)
            out.append(k - 1 if 0 < k < len(row) and row[k] * den != u else None)
        return out

    def representative(self, cube: list[int]) -> list[Fraction]:
        """The gap midpoints of a top cell, slot by slot."""
        return [Fraction(int(row[g] + row[g + 1]), 2 * self.den)
                for row, g in zip(self.values, cube)]

    def gap_mask(self, codes: np.ndarray, i: int, unit: int = 1) -> np.ndarray:
        """Which codes hold a gap at slot i; unit 2 reads flagged keys 2*code + bit."""
        stride = unit * self.strides[i]
        return codes % (stride * self.nstates) < stride * self.ngaps

    def pins(self, codes: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The faces at slot i of codes holding gap g there: pins g and g+1."""
        low = codes + self.ngaps * self.strides[i]
        return low, low + self.strides[i]

    def closure(self, tops: np.ndarray, seeds) -> tuple[np.ndarray, np.ndarray]:
        """(N, mask of N^- on N): the down-closures of `tops` and of their faces
        `seeds`, one slot at a time over keys 2*code + bit, bit 0 on N^-: a face
        keeps its cell's bit and the dedupe a code's lowest key.  Closing slot
        i keeps slots < i closed, so one pass suffices.  The partial closure
        only grows, and the cells with a gap at slot i and their pins g there
        are distinct cells of N, so checking the cap against either refuses
        exactly the closures larger than the cap, and early, before the merge.
        So does a third count, taken when its bound `len(low) << (d - i)`
        passes the cap: each cell with gaps at every slot from i on, with pins
        g at any subset of those slots, is a distinct cell of N.
        """
        keys = _unique(np.concatenate((np.asarray(seeds, self.key_dtype) << 1,
                                       np.asarray(tops, self.key_dtype) << 1 | 1)), flagged=True)
        d = self.period
        for i in range(d):
            low = keys[self.gap_mask(keys, i, 2)]
            faces = 2 * len(low)
            if len(low) << (d - i) > INDEX_CELL_CAP:
                gaps = np.ones(len(low), dtype=bool)
                for j in range(i + 1, d):
                    gaps &= self.gap_mask(low, j, 2)
                faces = max(faces, int(np.count_nonzero(gaps)) << (d - i))
            if faces <= INDEX_CELL_CAP:
                low += 2 * self.ngaps * self.strides[i]
                keys = np.concatenate((keys, low, low + 2 * self.strides[i]))
                del low  # the merged sort holds neither the previous keys nor low
                keys = _unique(keys, flagged=True)
            if max(len(keys), faces) > INDEX_CELL_CAP:
                raise BraidInputError(
                    f"index pair exceeds {INDEX_CELL_CAP} cells; "
                    "the class is beyond this build's desk scale"
                )
        return (keys >> 1).view(self.dtype), (keys & 1) == 0


def _unique(codes: np.ndarray, flagged: bool = False) -> np.ndarray:
    """Sorted distinct codes, or of flagged keys 2*code + bit the lowest key
    of each code; sorts `codes` in place to save a copy.  Sort-and-mask:
    timsort merges the sorted runs the closure concatenates, where np.unique
    would hash."""
    codes.sort(kind="stable")
    keep = np.ones(len(codes), dtype=bool)
    for lo in range(1, len(codes), UNIQUE_BLOCK):  # a block at a time keeps the xor small
        hi = min(lo + UNIQUE_BLOCK, len(codes))
        np.greater(codes[lo:hi] ^ codes[lo - 1:hi - 1], int(flagged), out=keep[lo:hi])
    return codes[keep]


def _lookup(sorted_codes: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, found) of `codes` in a sorted code array, empty only if `codes` is."""
    pos = np.minimum(np.searchsorted(sorted_codes, codes), len(sorted_codes) - 1)
    return pos, sorted_codes[pos] == codes


@dataclass
class BraidClassComponent:
    """Connected set of top cells with their shared crossing number."""

    geometry: ComplexGeometry
    top_cells: np.ndarray     # sorted codes
    crossing_number: int
    proper: bool
    collapse_witness: dict | None = None


@dataclass
class IndexPair:
    """Closure N of a braid class component with its exit set."""

    component: BraidClassComponent
    cells: np.ndarray         # all of N, sorted codes
    in_exit: np.ndarray       # mask of N^- on cells

    @property
    def geometry(self) -> ComplexGeometry:
        return self.component.geometry

    @property
    def exit(self) -> np.ndarray:  # N^-, sorted codes
        return self.cells[self.in_exit]

    def chain_complex(self):
        """(sorted relative codes, their dimensions, relative boundary).

        The boundary is a canonical CSR matrix of int8 ones over indices into
        the relative codes; exit faces are dropped, and N is closed, so every
        other face is a relative cell.  At each slot, the low and then the
        high pins of the cells with a gap there are a sorted run; merged into
        the cells pinned there, a relative face lands right after its equal.
        A slot and pin give ascending rows, a row's faces ascend with slot and
        pin, so these chunks, counted per row, fill each row from its end,
        last chunk first.

        Spends the pair: N and N^- read None once `rel` is taken, so neither
        is held while the boundary is built.  `dataclasses.replace(pair)` is a
        shallow copy to spend instead when the pair is read afterwards.
        """
        geo = self.geometry
        rel = self.cells[~self.in_exit]
        self.cells = self.in_exit = None
        dims = np.zeros(len(rel), dtype=np.int8)
        indptr = np.zeros(len(rel) + 1, dtype=np.int32)  # row counts, row ends, row starts
        chunks = []
        for i in range(geo.period):
            is_gap = geo.gap_mask(rel, i)
            dims += is_gap
            gap, pin = (np.flatnonzero(m).astype(np.int32) for m in (is_gap, ~is_gap))
            pinned = rel[pin]
            for face in geo.pins(rel[gap], i):
                merged = np.concatenate((pinned, face))
                order = merged.argsort(kind="stable")
                merged.sort(kind="stable")  # merging two runs is cheaper than gathering
                hit = np.flatnonzero(merged[1:] == merged[:-1])
                rows = gap[order[hit + 1] - len(pin)]
                indptr[rows.astype(np.intp)] += 1  # an intp index is cast once, not twice
                chunks.append((rows, pin[order[hit]]))
        np.cumsum(indptr, out=indptr)
        indices = np.empty(indptr[-1], dtype=np.int32)
        while chunks:
            rows, cols = chunks.pop()
            rows = rows.astype(np.intp)
            indptr[rows] = ends = indptr[rows] - 1
            indices[ends] = cols
        ones = np.ones(len(indices), dtype=np.int8)
        return rel, dims, sp.csr_matrix((ones, indices, indptr), shape=(len(rel),) * 2)

    def validate(self) -> None:
        """N^- is closed: at each slot, the low and then the high pins of its gap
        cells there, merged into its cells pinned there, each meet their equal."""
        geo = self.geometry
        exit = self.exit
        for i in range(geo.period):
            gap = geo.gap_mask(exit, i)
            pinned, faces = exit[~gap], exit[gap]
            merged = np.empty_like(exit)
            for shift in (geo.ngaps * geo.strides[i], geo.strides[i]):  # pin g, then g+1
                faces += shift
                np.concatenate((pinned, faces), out=merged)
                merged.sort(kind="stable")
                if np.count_nonzero(merged[1:] == merged[:-1]) != len(faces):
                    raise AssertionError("exit set not closed under faces")
            del pinned, faces, merged  # before the next slot's mask


def _initial_code(geo: ComplexGeometry) -> int:
    gaps = geo.gaps_of(geo.rb.free.nums[0], geo.rb.free.den)
    if None in gaps:
        raise BraidInputError(
            f"free anchor at slot {gaps.index(None)} coincides with a fixed value; "
            "jitter the input inside its gap"
        )
    return int(np.dot(gaps, geo.strides))


def enumerate_component(rb: DiscreteRelativeBraid) -> BraidClassComponent:
    """Flood-fill the discretized braid class across its interior faces."""
    geo = ComplexGeometry(rb)
    seen = np.array([_initial_code(geo)], dtype=geo.dtype)
    cross = int(geo.crossing_numbers(seen)[0])
    frontier = seen
    while len(frontier):
        gaps = geo.digits(frontier)
        reached = []
        for i in range(geo.period):
            for up, step in ((0, -1), (1, 1)):  # across pin g to gap g-1, pin g+1 to g+1
                other = gaps[:, i] + step
                below_prev, below_next = geo.sides(gaps, i, up)
                # a tangency walls the class off; a straddle joins two of its cubes
                hop = (other >= 0) & (other < geo.ngaps) & (below_prev != below_next)
                reached.append(frontier[hop] + step * geo.strides[i])
        new = _unique(np.concatenate(reached))
        new = new[~_lookup(seen, new)[1]]
        if len(seen) + len(new) > COMPONENT_CUBE_CAP:
            raise BraidInputError("braid class component exceeds the cube cap")
        if (geo.crossing_numbers(new) != cross).any():
            raise AssertionError("crossing number changed across an interior face")
        seen = _unique(np.concatenate((seen, new)))
        frontier = new
    proper, witness = _collapse_scan(geo, seen)
    return BraidClassComponent(geo, seen, cross, proper, witness)


def _collapse_scan(geo: ComplexGeometry, top_cells: np.ndarray) -> tuple[bool, dict | None]:
    """Look for a cell of the closure identifying the free strand with a
    single-strand skeleton component or a boundary marker."""
    sk = geo.rb.skeleton
    owners = [BARRIER_LOW, BARRIER_HIGH] + [l for l in range(sk.strands) if sk.closure(l) == l]
    gaps = geo.digits(top_cells)
    for owner in owners:
        fixed_idx = np.argmax(geo.owners == owner, axis=1)
        hits = np.flatnonzero(((gaps == fixed_idx) | (gaps + 1 == fixed_idx)).all(axis=1))
        if len(hits):
            witness = {
                "collapses_onto": (
                    "boundary -1" if owner == BARRIER_LOW
                    else "boundary +1" if owner == BARRIER_HIGH
                    else f"skeleton strand {owner}"
                ),
                "pinned_values": [str(Fraction(v, geo.den)) for v in
                                  geo.values[np.arange(geo.period), fixed_idx].tolist()],
                "from_top_cell": gaps[hits[0]].tolist(),
            }
            return False, witness
    return True, None


def index_pair(comp: BraidClassComponent) -> IndexPair:
    """Closure of the component plus the faces where crossings drop."""
    if not comp.proper:
        raise ImproperClassError(
            "index pair of an improper class is undefined", comp.collapse_witness
        )
    geo = comp.geometry
    codes = comp.top_cells

    # exit facets: tangency walls with the component on the hooked-over side,
    # i.e. the cube lies above a pin whose neighbours both lie below its
    # owner, or below a pin whose neighbours both lie above.  Checked against
    # the crossing drop: across a skeleton pin the cube has c-2 crossings
    # behind an exit face and c or c+2 otherwise (only intervals i-1 and i
    # change); a pin on a +-1 marker is never an exit.
    gaps = geo.digits(codes)
    seeds = []
    for i in range(geo.period):
        for up, face in enumerate(geo.pins(codes, i)):  # pin g, then pin g+1
            below, below_next = geo.sides(gaps, i, up)
            seed = (below == below_next) & (below == (up == 0))
            seeds.append(face[seed])
            other = gaps[:, i] + 2 * up - 1
            across = (other >= 0) & (other < geo.ngaps)
            g, h = gaps[across, i], other[across]
            before, after = gaps[across, i - 1], gaps[across, (i + 1) % geo.period]
            jump = (geo.cross[i - 1][before, h] - geo.cross[i - 1][before, g]
                    + geo.cross[i][h, after] - geo.cross[i][g, after])
            if seed[~across].any() or not np.where(
                seed[across], jump == -2, (jump == 0) | (jump == 2)
            ).all():
                raise AssertionError("exit faces disagree with the crossing drop")
    pair = IndexPair(comp, *geo.closure(codes, np.concatenate(seeds)))
    pair.validate()
    return pair


def component_contains(comp: BraidClassComponent, nums: np.ndarray, den: int) -> bool:
    """Whether the free-strand values nums / den lie in one of the component's cubes."""
    gaps = comp.geometry.gaps_of(nums, den)
    if None in gaps:
        return False
    code = np.dot(gaps, comp.geometry.strides)
    return bool(_lookup(comp.top_cells, np.array([code]))[1][0])
