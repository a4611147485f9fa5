"""End-to-end assembly: relative braid input to braid Floer homology.

Route: combined word -> Garside twist padding -> positive discretized
representative -> braid-class component -> Conley index pair -> Z2 relative
homology at two consecutive periods -> degree shift back by the applied
twist.  The identification of the discrete index with the Floer invariant
rides on a conjecture, so every result carries provenance
'conjecture-shifted'.  A word class is laid out one normal-form factor of
its padded word per slot interval; the period is its supremum, at least 2.
Both presentations end in one split of the combined braid: its marked (or
first, cyclic) free strands against the skeleton, each in strand order.

Cyclic skeletons (rigid rotations at fixed radii) are realized geometrically:
the configuration twisted by K full turns has an honestly positive diagram
once K beats the radius-weighted rotation differences, and sampling it at a
small period is checked faithful against the crossing counts implied by the
rotation numbers and the Garside normal form of a fine reference sampling.
One loop tries three phase bumps in turn.  Each searches the periods from 2,
the least a braid complex takes, and builds the fine reference once a period
has the expected crossings; a failed reference or a search that finds no
faithful period moves on to the next bump.  The least
twist g that makes the class positive is read off that normal form: Delta^2
is central, so the untwisted class has the same factors and 2K fewer Deltas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .complex import MIN_PERIOD, enumerate_component, index_pair
from .discrete import (
    SNAP,
    DiscreteBraid,
    DiscreteRelativeBraid,
    discrete_to_word,
    insert_duplicate_slot,
    layers_to_discrete,
    snapped,
)
from .errors import (
    AmbiguousDiagramError,
    BraidInputError,
    StabilizationError,
    TransversalityError,
)
from .garside import GarsideNormalForm, left_normal_form, pad_normal_form, twist_padding
from .homology import GradedBetti, poincare_polynomial, relative_homology
from .words import BraidWord, StrandPermutation, permutation_of

TOOL_VERSION = "0.3.0"
MAX_WORD_PERIOD = 13
FINE_SAMPLE_CAP = 512

DEFAULT_RADII = (Fraction(1, 5), Fraction(2, 5), Fraction(9, 10))
DEFAULT_PHASES = (0.17, 0.03, 0.41)  # inner, free, outer

# what an unlucky sampling period or phase raises; anything else is a bug
SAMPLING_ERRORS = (TransversalityError, AmbiguousDiagramError, BraidInputError)


@dataclass(frozen=True)
class CyclicComponent:
    """m strands rigidly rotating with rational rotation number at one radius."""

    strands: int
    rotation: Fraction
    radius: Fraction
    phase: float

    def __post_init__(self):
        n = self.rotation * self.strands
        if n.denominator != 1:
            raise BraidInputError(
                f"rotation {self.rotation} with {self.strands} strands does not close up"
            )
        if self.strands > 1 and math.gcd(int(n), self.strands) != 1:
            raise BraidInputError(
                "rotation numerator and strand count must be coprime for distinct strands"
            )

    @property
    def word_exponent(self) -> int:
        """Exponent of the component word (s1...s_{m-1})^n."""
        return int(self.rotation * self.strands) * (self.strands - 1)


@dataclass(frozen=True)
class RelativeBraidSpec:
    """Input to the pipeline: a relative braid class presentation."""

    presentation: str  # 'cyclic' or 'word'
    label: str = ""
    cyclic_free: CyclicComponent | None = None
    cyclic_skeleton: tuple[CyclicComponent, ...] = ()
    word: BraidWord | None = None
    free_marks: tuple[int, ...] = ()

    def __post_init__(self):
        """A word spec's free marks are strand indices at the starting slot,
        kept sorted; the set must be invariant under the word's permutation."""
        if self.presentation == "word":
            n = self.word.strands
            for k in self.free_marks:
                if type(k) is not int or not 0 <= k < n:
                    raise BraidInputError(f"free mark {k!r} is not a strand index in 0..{n - 1}")
            marks = tuple(sorted(set(self.free_marks)))
            if {permutation_of(self.word)(k) for k in marks} != set(marks):
                raise BraidInputError("free marking is not closed under the braid permutation")
            if not 0 < len(marks) < n:
                raise BraidInputError("need at least one free and one skeleton strand")
            object.__setattr__(self, "free_marks", marks)


def cyclic_spec(
    inner: tuple[int, int],
    outer: tuple[int, int],
    ell: int,
    radii=DEFAULT_RADII,
    phases=DEFAULT_PHASES,
    label: str | None = None,
) -> RelativeBraidSpec:
    """Skeleton of two rigidly rotating components bracketing one free strand.

    `inner` and `outer` are (numerator, strand count) pairs for the rotation
    numbers n/m at the inner and outer radius; the free strand turns `ell`
    times in between.
    """
    n, m = inner
    n2, m2 = outer
    r_in, r_free, r_out = (Fraction(r).limit_denominator(1000) for r in radii)
    label = label or f"cyclic[{n}/{m},{ell},{n2}/{m2}]"
    return RelativeBraidSpec(
        "cyclic",
        label,
        CyclicComponent(1, Fraction(ell), r_free, phases[1]),
        (
            CyclicComponent(m, Fraction(n, m), r_in, phases[0]),
            CyclicComponent(m2, Fraction(n2, m2), r_out, phases[2]),
        ),
    )


def word_spec(word: BraidWord, free_marks, label: str = "") -> RelativeBraidSpec:
    """Combined word on free-plus-skeleton strands with the free ones marked."""
    return RelativeBraidSpec("word", label or "word-spec", word=word, free_marks=tuple(free_marks))


@dataclass(frozen=True)
class FloerResult:
    """Graded betti numbers of the braid class with shift provenance."""

    betti: GradedBetti
    shift_applied: int
    g: int
    n: int
    period: int
    crossing_number: int
    label: str = ""

    @property
    def poincare(self) -> str:
        return poincare_polynomial(self.betti)

    def payload(self) -> dict:
        return {
            "betti": {str(k): v for k, v in self.betti.betti},
            "poincare": self.poincare,
            "provenance": self.betti.provenance,
            "shift_applied": self.shift_applied,
            "g": self.g,
            "free_strands": self.n,
            "period": self.period,
            "stabilization_ok": True,  # a differing period-(d+1) table raises
            "proper": True,  # improper classes raise ImproperClassError
            "crossing_number": self.crossing_number,
            "label": self.label,
        }


# -- geometric realization of cyclic specs ---------------------------------


def _sample_components(components, d: int) -> DiscreteBraid:
    rows, closure, base = [], [], 0
    for comp in components:
        strand = np.arange(comp.strands)[:, None]
        angle = 2 * math.pi * (float(comp.rotation) * (np.arange(d) / d - strand) + comp.phase)
        # math.cos, so that no SIMD cosine of numpy's can move a grid point
        cos = np.fromiter(map(math.cos, angle.ravel().tolist()), float, angle.size)
        rows.append(snapped(float(comp.radius) * cos).reshape(angle.shape))
        closure.extend(base + (j - 1) % comp.strands for j in range(comp.strands))
        base += comp.strands
    return DiscreteBraid(np.concatenate(rows), SNAP, StrandPermutation(tuple(closure)))


def _expected_crossings(components) -> int:
    total = sum(c.word_exponent for c in components)
    for ca, cb in itertools.combinations(components, 2):
        dom = ca.rotation if ca.radius > cb.radius else cb.rotation
        val = 2 * ca.strands * cb.strands * dom
        if val.denominator != 1:
            raise AssertionError("inter-component crossing count must be integral")
        total += int(val)
    return total


def _positivity_twist(components) -> int:
    """Least K >= 0 making the twisted diagram honestly positive.

    Needs every component rotating forward (no negative internal crossings)
    and every pair's radius-weighted rotation increasing outward, so all
    difference vectors turn one way.
    """
    k = max([0] + [math.ceil(-c.rotation) for c in components])
    for ca, cb in itertools.permutations(components, 2):
        if ca.radius < cb.radius:  # need (rho_b + K) r_b > (rho_a + K) r_a
            bound = (ca.rotation * ca.radius - cb.rotation * cb.radius) / (cb.radius - ca.radius)
            k = max(k, math.floor(bound) + 1)
    return k


def _candidates(components, periods, expected: int, collisions: list):
    """The samplings at `periods` that carry `expected` crossings, in order;
    each tangential snap collision at an unlucky period goes to `collisions`."""
    for d in periods:
        try:
            b = _sample_components(components, d)
        except SAMPLING_ERRORS as exc:
            collisions.append(exc)
            continue
        if b.crossings == expected:
            yield b


def _faithful_sample(components, periods, expected: int):
    """The sampling at the first of `periods` that carries the exact combined
    braid of `expected` crossings, and that braid's Garside normal form."""
    for bump in (0.0, 0.013, 0.029):  # retry unlucky snap collisions
        shifted = tuple(replace(c, phase=c.phase + bump) for c in components)
        collisions = []
        candidates = _candidates(shifted, periods, expected, collisions)
        first = next(candidates, None)
        if first is not None:  # the fine reference, once a period has the crossings
            try:
                fine = _sample_components(shifted, min(8 * max(expected, 1) + 3, FINE_SAMPLE_CAP))
                if fine.crossings != expected:
                    raise BraidInputError(
                        "fine sampling disagrees with winding counts; "
                        "the configuration is too degenerate to discretize"
                    )
                fine_nf = left_normal_form(discrete_to_word(fine))
            except SAMPLING_ERRORS as exc:
                last = exc
                continue
            for b in itertools.chain((first,), candidates):
                try:  # a multiple point is unfaithful like any other miss
                    if left_normal_form(discrete_to_word(b)) == fine_nf:
                        return b, fine_nf
                except AmbiguousDiagramError:
                    pass
        last = BraidInputError(
            f"no faithful sampling period up to {periods[-1]}"
            + (f" (last rejection: {collisions[-1]})" if collisions else "")
        )
    raise BraidInputError(f"could not discretize the cyclic spec: {last}")


def _split(combined: DiscreteBraid, free) -> DiscreteRelativeBraid:
    """The strands in `free` as free strands and the rest as skeleton, each in
    strand order, with the closure remapped to the new positions."""
    free = sorted(set(free))
    skeleton = [s for s in range(combined.strands) if s not in free]
    pos = {s: i for rows in (free, skeleton) for i, s in enumerate(rows)}

    def part(rows):
        image = StrandPermutation(tuple(pos[combined.closure(s)] for s in rows))
        return DiscreteBraid(combined.nums[rows], combined.den, image)

    return DiscreteRelativeBraid(part(free), part(skeleton))


def _realize_cyclic(spec: RelativeBraidSpec, period: int | None):
    """Positive discrete representative of the class twisted by K, K and g."""
    components = (spec.cyclic_free,) + spec.cyclic_skeleton
    k_twist = _positivity_twist(components)
    twisted = tuple(replace(c, rotation=c.rotation + k_twist) for c in components)
    expected = _expected_crossings(twisted)
    if expected > 48:
        raise BraidInputError(
            f"positive representative needs {expected} crossings; this "
            "desk-scale build caps cyclic specs at 48"
        )
    periods = range(MIN_PERIOD, 17) if period is None else (period,)
    combined, nf = _faithful_sample(twisted, periods, expected)
    rb = _split(combined, range(spec.cyclic_free.strands))
    n = combined.strands
    base = GarsideNormalForm(n, nf.infimum - 2 * k_twist, nf.factors)
    return rb, k_twist, pad_normal_form(base, expected - k_twist * n * (n - 1)).g


def _realize_word(spec: RelativeBraidSpec, period: int | None):
    pad = twist_padding(spec.word)
    d = max(len(pad.layers), MIN_PERIOD)  # one slot interval per normal-form factor
    if d > MAX_WORD_PERIOD:
        raise BraidInputError(
            f"padded word needs period {d} > {MAX_WORD_PERIOD}; "
            "this desk-scale build handles shorter inputs"
        )
    combined = layers_to_discrete(pad.strands, pad.layers, d if period is None else max(d, period))
    return _split(combined, spec.free_marks), pad.g, pad.g


def realize(spec: RelativeBraidSpec, period: int | None):
    """Positive discrete representative of a spec, the applied twist K and the
    least g making the class times Delta^{2g} positive."""
    if spec.presentation == "cyclic":
        return _realize_cyclic(spec, period)
    if spec.presentation == "word":
        return _realize_word(spec, period)
    raise BraidInputError(f"unknown presentation {spec.presentation!r}")


def _homology_at(rb: DiscreteRelativeBraid) -> tuple[GradedBetti, int]:
    comp = enumerate_component(rb)
    return relative_homology(index_pair(comp)), comp.crossing_number


def braid_floer_homology(spec: RelativeBraidSpec, period: int | None = None) -> FloerResult:
    """Braid Floer homology of a proper relative braid class.

    Runs the Conley-index route on a positive representative at consecutive
    periods, checks the two agree, and shifts degrees back by twice the
    applied twist per free strand.  The final identification is
    conjecture-mediated and flagged as such.
    """
    rb, k_twist, g = realize(spec, period)
    n = rb.free.strands
    if g > k_twist:
        raise AssertionError("padding exceeds the applied twist; Garside is broken")

    betti, crossings = _homology_at(rb)
    betti_up, _ = _homology_at(
        DiscreteRelativeBraid(insert_duplicate_slot(rb.free), insert_duplicate_slot(rb.skeleton))
    )
    if betti_up.as_dict() != betti.as_dict():
        raise StabilizationError(
            f"betti tables differ between periods {rb.period} and {rb.period + 1}: "
            f"{betti.as_dict()} vs {betti_up.as_dict()}"
        )
    shift = 2 * n * k_twist
    return FloerResult(
        betti.shifted(-shift, "conjecture-shifted"),
        shift,
        g,
        n,
        rb.period,
        crossings,
        spec.label,
    )


def enumerate_forced_fractions(low: Fraction, high: Fraction, period_cap: int):
    """Reduced fractions l/k strictly between two rotation numbers, k <= cap."""
    out = []
    for k in range(1, period_cap + 1):
        lo = math.floor(low * k) + 1
        hi = math.ceil(high * k) - 1
        for l in range(lo, hi + 1):
            if math.gcd(abs(l), k) == 1:
                out.append((l, k))
    return sorted(out, key=lambda p: (p[1], p[0]))


def forcing_report(
    spec: RelativeBraidSpec,
    result: FloerResult | None = None,
    period_cap: int = 12,
) -> dict:
    """Existence and multiplicity consequences of a nontrivial invariant."""
    result = result or braid_floer_homology(spec)
    p1 = result.betti.total()
    report = {
        "label": spec.label,
        "poincare": result.poincare,
        "nontrivial": bool(result.betti),
        "stationary_braid_exists": bool(result.betti),
        "generic_lower_bound": p1,
        "conjectured_length_bound": len(result.betti.betti),
        "period_cap": period_cap,
    }
    if spec.presentation == "cyclic":
        rots = sorted(c.rotation for c in spec.cyclic_skeleton)
        lo, hi = rots[0], rots[-1]
        forced = enumerate_forced_fractions(lo, hi, period_cap)
        report["rotation_interval"] = [str(lo), str(hi)]
        report["forced_orbits"] = [
            {"ell": l, "period": k} for l, k in forced
        ]
    return report
