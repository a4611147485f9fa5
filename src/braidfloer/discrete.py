"""Piecewise-linear (anchor-point) closed braids.

A discretized braid stores one rational anchor value per strand and slot;
strands are linear in between and close up through a strand permutation.
All crossings of such a diagram count as positive (Legendrian convention);
signed counting lives in word exponent sums.  Anchor arithmetic is exact:
float input is snapped to a dyadic grid.

The exact tests run on one integer view, `DiscreteBraid.lattice`: the anchors
at slots 0..d, unrolled through the closure, as int64 numerators over their
common denominator.  One positive scale keeps every comparison and sign, so
transversality, crossings and strand order are whole-array operations.
Snapped anchors have denominators dividing 2^20, word heights n+1; a common
denominator from 2^62 up (differences would overflow) is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import AmbiguousDiagramError, BraidInputError, TransversalityError
from .words import BraidWord, StrandPermutation, word

SNAP_GRID = Fraction(1, 2**20)
MAX_DENOMINATOR = 2**62  # differences of numerators up to 2 * denominator fit int64


def snap(v) -> Fraction:
    """Exact rationals pass through; floats land on the 2^-20 grid."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    return Fraction(round(v / SNAP_GRID)) * SNAP_GRID


@dataclass(frozen=True)
class DiscreteBraid:
    """Closed PL braid: anchors[k][i] for strand k, slot i in 0..d-1.

    Slot d is identified with slot 0 through the closure permutation: strand
    k at slot d is strand closure(k) at slot 0.
    """

    strands: int
    period: int
    anchors: tuple[tuple[Fraction, ...], ...]
    closure: StrandPermutation

    def __post_init__(self):
        if self.period < 1:
            raise BraidInputError("period must be >= 1")
        if len(self.anchors) != self.strands or any(len(row) != self.period for row in self.anchors):
            raise BraidInputError("anchor array shape does not match strands x period")
        if self.closure.n != self.strands:
            raise BraidInputError("closure permutation size mismatch")
        for row in self.anchors:
            for v in row:
                if not isinstance(v, Fraction):
                    raise BraidInputError("anchors must be snapped to exact rationals")
                if abs(v.numerator) > v.denominator:
                    raise BraidInputError(f"anchor {v} outside [-1, 1]")
        _check_transversality(self)

    @cached_property
    def denominator(self) -> int:
        return math.lcm(*{v.denominator for row in self.anchors for v in row})

    @cached_property
    def lattice(self) -> np.ndarray:
        """int64 (strands, d+1): anchors at slots 0..d over `denominator`;
        column d is column 0 through the closure."""
        den = self.denominator
        if den >= MAX_DENOMINATOR:
            raise BraidInputError(f"anchor denominator {den} does not fit the int64 anchor view")
        nums = [[v.numerator * (den // v.denominator) for v in row] for row in self.anchors]
        nums = np.array(nums, dtype=np.int64).reshape(self.strands, self.period)
        return np.concatenate((nums, nums[list(self.closure.image), :1]), axis=1)


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
        """All strands in one braid, free strands first."""
        n, m = self.free.strands, self.skeleton.strands
        image = tuple(self.free.closure(k) for k in range(n)) + tuple(
            n + self.skeleton.closure(k) for k in range(m)
        )
        return DiscreteBraid(
            n + m,
            self.period,
            self.free.anchors + self.skeleton.anchors,
            StrandPermutation(image),
        )


def total_crossing_number(b: DiscreteBraid) -> int:
    """Unsigned crossing count of the PL diagram; all crossings positive."""
    return int(_pairs(b)[3].sum())


def _heights(n: int) -> list[Fraction]:
    return [Fraction(-1) + Fraction(2 * j, n + 1) for j in range(1, n + 1)]


def word_to_discrete(w: BraidWord, period: int | None = None) -> DiscreteBraid:
    """Legendrian representative of a positive word, one letter per slot interval.

    Slot boundaries put strands at n evenly spaced heights in (-1, 1); the
    t-th letter swaps the two height levels it involves between slots t-1 and
    t; slots past the word copy values forward.
    """
    if not w.is_positive():
        raise BraidInputError("word_to_discrete needs a positive word")
    n = w.strands
    d = max(len(w), 2) if period is None else period
    if d < max(len(w), 2):
        raise BraidInputError("period too small for the word")
    return _layers_to_discrete(n, [[i] for i, _ in w.letters], d)


def word_to_discrete_packed(w: BraidWord) -> DiscreteBraid:
    """Compact Legendrian representative: commuting letters share a slot interval.

    Greedy layering only reorders letters by far commutation, so the braid is
    unchanged; the period is the number of layers (at least 2).
    """
    if not w.is_positive():
        raise BraidInputError("word_to_discrete_packed needs a positive word")
    layers: list[list[int]] = []
    depth = {}  # generator index -> index of last layer touching it
    for i, _ in w.letters:
        lo = max((depth.get(j, -1) for j in (i - 1, i, i + 1)), default=-1)
        layer = lo + 1
        if layer == len(layers):
            layers.append([])
        layers[layer].append(i)
        depth[i] = layer
    d = max(len(layers), 2)
    return _layers_to_discrete(w.strands, layers, d)


def _layers_to_discrete(n: int, layers: list[list[int]], d: int) -> DiscreteBraid:
    heights = _heights(n)
    level_of = list(range(n))  # strand k -> current height level
    anchors = [[heights[k]] for k in range(n)]
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
            for k in range(n):
                anchors[k].append(heights[level_of[k]])
    closure = StrandPermutation(tuple(level_of))
    return DiscreteBraid(n, d, tuple(tuple(row) for row in anchors), closure)


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


def insert_duplicate_slot(b: DiscreteBraid, at: int | None = None) -> DiscreteBraid:
    """Stabilize the period by repeating one slot; the braid class is unchanged.

    Slots holding an anchor equality cannot be duplicated (it would create a
    tangential contact), so by default the first admissible slot is used.
    """
    candidates = range(b.period - 1, -1, -1) if at is None else [at]
    err = None
    for a in candidates:
        anchors = tuple(
            tuple(row[: a + 1]) + (row[a],) + tuple(row[a + 1:]) for row in b.anchors
        )
        try:
            return DiscreteBraid(b.strands, b.period + 1, anchors, b.closure)
        except TransversalityError as exc:
            err = exc
    raise err

