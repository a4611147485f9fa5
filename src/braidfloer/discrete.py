"""Piecewise-linear (anchor-point) closed braids.

A discretized braid stores its anchors as one int64 array of numerators over
one denominator: nums[k, i] / den is the value of strand k at slot i.
Strands are linear in between and close up through a strand permutation.
All crossings of such a diagram count as positive (Legendrian convention);
signed counting lives in word exponent sums.  Anchor arithmetic is exact:
float input is snapped to the 1/SNAP grid, word heights lie over 2^(n-1) + 1.

The exact tests run on `DiscreteBraid.lattice`: the numerators at slots
0..d, unrolled through the closure.  One positive scale keeps every
comparison and sign, so transversality, crossings and strand order are
whole-array operations.  A denominator from 2^62 up (differences would
overflow) is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import AmbiguousDiagramError, BraidInputError, TransversalityError
from .words import BraidWord, StrandPermutation, word

SNAP = 2**20  # float anchors land on the 1/SNAP grid
MAX_DENOMINATOR = 2**62  # differences of numerators up to 2 * denominator fit int64


def snapped(u) -> np.ndarray:
    """int64 numerators over SNAP of the float values u, rounded half to even."""
    return np.rint(np.asarray(u, dtype=float) * SNAP).astype(np.int64)


@dataclass(frozen=True, eq=False)
class DiscreteBraid:
    """Closed PL braid: nums[k, i] / den for strand k, slot i in 0..d-1.

    `nums` is an int64 (strands, period) array.  Slot d is identified with
    slot 0 through the closure permutation: strand k at slot d is strand
    closure(k) at slot 0.
    """

    nums: np.ndarray
    den: int
    closure: StrandPermutation

    def __post_init__(self):
        if getattr(self.nums, "dtype", None) != np.int64 or self.nums.ndim != 2:
            raise BraidInputError("anchor numerators must be an int64 (strands, period) array")
        if self.period < 1:
            raise BraidInputError("period must be >= 1")
        if self.closure.n != self.strands:
            raise BraidInputError("closure permutation size mismatch")
        if not 0 < self.den < MAX_DENOMINATOR:
            raise BraidInputError(f"anchor denominator {self.den} does not fit the int64 anchor view")
        outside = np.abs(self.nums) > self.den
        if outside.any():
            num = int(self.nums[outside][0])
            raise BraidInputError(f"anchor {Fraction(num, self.den)} outside [-1, 1]")
        if self.strands > 1:  # a single strand has no pair to meet
            _check_transversality(self)

    @property
    def strands(self) -> int:
        return self.nums.shape[0]

    @property
    def period(self) -> int:
        return self.nums.shape[1]

    @cached_property
    def lattice(self) -> np.ndarray:
        """int64 (strands, d+1): `nums` plus column d, column 0 through the closure."""
        return np.concatenate((self.nums, self.nums[list(self.closure.image), :1]), axis=1)

    @cached_property
    def crossings(self) -> int:
        """Unsigned crossing count of the PL diagram; all crossings positive."""
        return int(_pairs(self)[3].sum())


def crosses(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether two strands whose difference is a at the start of a slot
    interval and c at its end cross in it.  A crossing sitting exactly on the
    end anchor belongs to the interval, one on the start anchor does not."""
    return (a != 0) & ((c == 0) | ((a < 0) != (c < 0)))


def _pairs(b: DiscreteBraid) -> tuple[np.ndarray, ...]:
    """Strand pairs k < l in (k, l) order, lattice[k] - lattice[l] per pair,
    and whether the pair crosses in each slot interval (i, i+1)."""
    k, l = np.triu_indices(b.strands, 1)
    diff = b.lattice[k] - b.lattice[l]
    return k, l, diff, crosses(diff[:, :-1], diff[:, 1:])


def _check_transversality(b: DiscreteBraid) -> None:
    """Refuse the first anchor contact, in (k, l, slot) order, at the closure
    slot or without its neighbouring slots on opposite sides."""
    k, l, diff, _ = _pairs(b)
    d = b.period
    bad = diff[:, :d] == 0
    bad[:, 1:] &= np.sign(diff[:, :d - 1]) * np.sign(diff[:, 2:]) >= 0
    if bad.any():
        p, i = divmod(int(np.argmax(bad)), d)
        raise TransversalityError(
            f"strands {k[p]} and {l[p]} coincide at the closure slot" if i == 0
            else f"tangential contact of strands {k[p]}, {l[p]} at slot {i}"
        )


@dataclass(frozen=True)
class DiscreteRelativeBraid:
    """Free strands moving in the complement of a frozen skeleton."""

    free: DiscreteBraid
    skeleton: DiscreteBraid

    def __post_init__(self):
        if self.free.period != self.skeleton.period:
            raise BraidInputError("free and skeleton periods differ")
        self.combined()  # its constructor checks transversality

    @property
    def period(self) -> int:
        return self.free.period

    def combined(self) -> DiscreteBraid:
        """All strands in one braid, free strands first, over the lcm of both denominators."""
        free, sk = self.free, self.skeleton
        den = math.lcm(free.den, sk.den)  # refused from 2^62 up before nums is read
        image = free.closure.image + tuple(free.strands + v for v in sk.closure.image)
        nums = np.concatenate((free.nums * (den // free.den), sk.nums * (den // sk.den)))
        return DiscreteBraid(nums, den, StrandPermutation(image))


def layers_to_discrete(n: int, layers, d: int) -> DiscreteBraid:
    """Layer t is a positive word of a permutation braid; between slots t-1
    and t its letters swap the height levels they act on, and slots past the
    layers copy values forward.  Level j sits at (2^(j+1) - 1 - 2^(n-1)) /
    (2^(n-1) + 1).  These heights double, up to one affine map, so the three
    crossings of strands that pairwise cross in one interval never meet in
    a point (from levels a < b < c to x > y > z, the slope
    (h_x - h_y)/(h_b - h_a) exceeds (h_y - h_z)/(h_c - h_b)), and
    `discrete_to_word` reads each layer back."""
    den = 2 ** (n - 1) + 1
    if den >= MAX_DENOMINATOR:
        raise BraidInputError(f"{n} strands do not fit the int64 anchor heights")
    level_of = list(range(n))  # strand k -> current height level
    levels = [level_of[:]]  # per slot
    for t in range(1, d + 1):
        swaps = layers[t - 1] if t - 1 < len(layers) else []
        occupant = [0] * n
        for k, lev in enumerate(level_of):
            occupant[lev] = k
        for i in swaps:
            a, b = occupant[i - 1], occupant[i]
            level_of[a], level_of[b] = level_of[b], level_of[a]
            occupant[i - 1], occupant[i] = b, a
        if t < d:
            levels.append(level_of[:])
    nums = 2 ** (np.array(levels, dtype=np.int64).reshape(d, n).T + 1) - den
    return DiscreteBraid(nums, den, StrandPermutation(tuple(level_of)))


def discrete_to_word(b: DiscreteBraid) -> BraidWord:
    """Read the positive word of a PL diagram, slot interval by slot interval."""
    k, l, diff, crossing = _pairs(b)
    lat = b.lattice
    # order strands by value just after slot i: ties at the anchor broken by
    # slope, then by strand (the sort is stable)
    orders = np.lexsort((np.diff(lat, axis=1), lat[:, :-1]), axis=0)
    events_at: dict[int, list] = {}
    for i, p in zip(*np.nonzero(crossing.T)):
        va, vb = int(diff[p, i]), int(diff[p, i + 1])
        events_at.setdefault(int(i), []).append((Fraction(va, va - vb), int(k[p]), int(l[p])))
    letters: list[int] = []
    for i, events in events_at.items():
        events.sort(key=lambda e: e[0])
        for j in range(len(events) - 1):
            if events[j][0] == events[j + 1][0]:
                shared = {events[j][1], events[j][2]} & {events[j + 1][1], events[j + 1][2]}
                if shared:
                    raise AmbiguousDiagramError(
                        f"two crossings at parameter {events[j][0]} in interval {i} share a strand"
                    )
        order = orders[:, i].tolist()
        for _, ka, kb in events:
            pa, pb = order.index(ka), order.index(kb)
            if abs(pa - pb) != 1:
                raise AmbiguousDiagramError(
                    f"crossing of strands {ka}, {kb} in interval {i} is not adjacent in height"
                )
            lo = min(pa, pb)
            letters.append(lo + 1)
            order[lo], order[lo + 1] = order[lo + 1], order[lo]
    return word(b.strands, letters)


def insert_duplicate_slot(b: DiscreteBraid) -> DiscreteBraid:
    """Stabilize the period by repeating the last slot; the braid class is
    unchanged.  A strand contact at that slot becomes a tangential contact,
    which the constructor refuses."""
    return DiscreteBraid(np.concatenate((b.nums, b.nums[:, -1:]), axis=1), b.den, b.closure)
