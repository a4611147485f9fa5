"""Piecewise-linear (anchor-point) closed braids.

A discretized braid stores one rational anchor value per strand and slot;
strands are linear in between and close up through a strand permutation.
All crossings of such a diagram count as positive (Legendrian convention);
signed counting lives in word exponent sums.  Anchor
arithmetic is exact: float input is snapped to a dyadic grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousDiagramError, BraidInputError, TransversalityError
from .words import BraidWord, StrandPermutation, word

SNAP_GRID = Fraction(1, 2**20)


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

    Slot d is identified with slot 0 through the closure permutation:
    value(k, d) = value(closure(k), 0).
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
                if abs(v) > 1:
                    raise BraidInputError(f"anchor {v} outside [-1, 1]")
        _check_transversality(self)

    def value(self, k: int, i: int) -> Fraction:
        """Anchor of strand k at any integer slot, unrolled through the closure."""
        d = self.period
        while i >= d:
            k = self.closure(k)
            i -= d
        while i < 0:
            k = self.closure.inverse()(k)
            i += d
        return self.anchors[k][i]


def _check_transversality(b: DiscreteBraid) -> None:
    for k in range(b.strands):
        for l in range(k + 1, b.strands):
            for i in range(b.period):
                if b.anchors[k][i] == b.anchors[l][i]:
                    if i == 0:
                        raise TransversalityError(
                            f"strands {k} and {l} coincide at the closure slot"
                        )
                    left = b.anchors[k][i - 1] - b.anchors[l][i - 1]
                    right = b.value(k, i + 1) - b.value(l, i + 1)
                    if left * right >= 0:
                        raise TransversalityError(
                            f"tangential contact of strands {k}, {l} at slot {i}"
                        )


@dataclass(frozen=True)
class DiscreteRelativeBraid:
    """Free strands moving in the complement of a frozen skeleton."""

    free: DiscreteBraid
    skeleton: DiscreteBraid

    def __post_init__(self):
        if self.free.period != self.skeleton.period:
            raise BraidInputError("free and skeleton periods differ")
        _check_transversality(self.combined())

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


def pair_crossings(b: DiscreteBraid, k: int, l: int, i: int) -> int:
    """1 if strands k, l cross in the slot interval (i, i+1), else 0.

    A crossing sitting exactly on anchor i+1 is attributed to this interval.
    """
    a = b.value(k, i) - b.value(l, i)
    c = b.value(k, i + 1) - b.value(l, i + 1)
    if a == 0:
        return 0  # counted in the previous interval
    if c == 0:
        return 1
    return 1 if (a < 0) != (c < 0) else 0


def total_crossing_number(b: DiscreteBraid) -> int:
    """Unsigned crossing count of the PL diagram; all crossings positive."""
    total = 0
    for k in range(b.strands):
        for l in range(k + 1, b.strands):
            for i in range(b.period):
                total += pair_crossings(b, k, l, i)
    return total


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
    letters: list[int] = []
    d = b.period
    # order strands by value just after slot i: ties at the anchor broken by slope
    for i in range(d):
        start = [(b.value(k, i), b.value(k, i + 1) - b.value(k, i), k) for k in range(b.strands)]
        order = [k for _, _, k in sorted(start)]
        events = []
        for a_idx in range(b.strands):
            for b_idx in range(a_idx + 1, b.strands):
                if pair_crossings(b, a_idx, b_idx, i):
                    va = b.value(a_idx, i) - b.value(b_idx, i)
                    vb = b.value(a_idx, i + 1) - b.value(b_idx, i + 1)
                    t_star = va / (va - vb)
                    events.append((t_star, a_idx, b_idx))
        events.sort(key=lambda e: e[0])
        for j in range(len(events) - 1):
            if events[j][0] == events[j + 1][0]:
                shared = {events[j][1], events[j][2]} & {events[j + 1][1], events[j + 1][2]}
                if shared:
                    raise AmbiguousDiagramError(
                        f"two crossings at parameter {events[j][0]} in interval {i} share a strand"
                    )
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

