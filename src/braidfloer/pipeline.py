"""End-to-end assembly: relative braid input to braid Floer homology.

Route: combined word -> Garside twist padding -> positive discretized
representative -> braid-class component -> Conley index pair -> Z2 relative
homology at two consecutive periods -> degree shift back by the applied
twist.  The identification of the discrete index with the Floer invariant
rides on a conjecture, so every result carries provenance
'conjecture-shifted'.  A word class is laid out one normal-form factor of
its padded word per slot interval; the period is its supremum, at least 2.

Cyclic skeletons (rigid rotations at fixed radii) are realized geometrically:
the configuration twisted by K full turns has an honestly positive diagram
once K beats the radius-weighted rotation differences, and sampling it at a
small period is checked faithful against the crossing counts implied by the
rotation numbers and the Garside normal form of a fine reference sampling;
the search starts at period 2, the least a braid complex takes.  The least
twist g that makes the class positive is read off that normal form: Delta^2
is central, so the untwisted class has the same factors and 2K fewer Deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    ImproperClassError,
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

    def free_strands(self) -> int:
        if self.presentation == "cyclic":
            return self.cyclic_free.strands
        return len(self.free_marks)


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
    """Combined word on free-plus-skeleton strands with the free ones marked.

    Marks are strand indices at the starting slot; the set must be invariant
    under the word's permutation.
    """
    for k in free_marks:
        if type(k) is not int or not 0 <= k < word.strands:
            raise BraidInputError(
                f"free mark {k!r} is not a strand index in 0..{word.strands - 1}"
            )
    marks = tuple(sorted(set(free_marks)))
    perm = permutation_of(word)
    if {perm(k) for k in marks} != set(marks):
        raise BraidInputError("free marking is not closed under the braid permutation")
    if not marks or len(marks) >= word.strands:
        raise BraidInputError("need at least one free and one skeleton strand")
    return RelativeBraidSpec("word", label or "word-spec", word=word, free_marks=marks)


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
    total = 0
    for c in components:
        total += c.word_exponent
    for a in range(len(components)):
        for b in range(a + 1, len(components)):
            ca, cb = components[a], components[b]
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
    k = 0
    for c in components:
        k = max(k, int(math.ceil(-c.rotation)))
    for a in range(len(components)):
        for b in range(len(components)):
            ca, cb = components[a], components[b]
            if ca.radius >= cb.radius:
                continue
            # need (rho_b + K) r_b > (rho_a + K) r_a
            num = ca.rotation * ca.radius - cb.rotation * cb.radius
            den = cb.radius - ca.radius
            bound = num / den
            k = max(k, math.floor(bound) + 1)
    return max(k, 0)


def _faithful_sample(components, d_start: int = MIN_PERIOD, d_cap: int = 16):
    """The sampling at the smallest period that carries the exact combined
    braid, and that braid's Garside normal form."""
    expected = _expected_crossings(components)
    fine_nf = None
    last_error = None
    for d in range(d_start, d_cap + 1):
        try:
            b = _sample_components(components, d)
        except SAMPLING_ERRORS as exc:  # tangential snap collisions at unlucky periods
            last_error = exc
            continue
        if b.crossings != expected:
            continue
        if fine_nf is None:
            fine = _sample_components(
                components, min(8 * max(expected, 1) + 3, FINE_SAMPLE_CAP)
            )
            if fine.crossings != expected:
                raise BraidInputError(
                    "fine sampling disagrees with winding counts; "
                    "the configuration is too degenerate to discretize"
                )
            fine_nf = left_normal_form(discrete_to_word(fine))
        try:
            if left_normal_form(discrete_to_word(b)) == fine_nf:
                return b, fine_nf
        except AmbiguousDiagramError:  # a multiple point: unfaithful like any other miss
            continue
    raise BraidInputError(
        f"no faithful sampling period up to {d_cap}"
        + (f" (last rejection: {last_error})" if last_error else "")
    )


def _split_first_free(combined: DiscreteBraid, n_free: int) -> DiscreteRelativeBraid:
    free_image = combined.closure.image[:n_free]
    if set(free_image) != set(range(n_free)):
        raise BraidInputError("free strands are not closed under the braid closure")
    free = DiscreteBraid(combined.nums[:n_free], combined.den, StrandPermutation(free_image))
    skel = DiscreteBraid(
        combined.nums[n_free:],
        combined.den,
        StrandPermutation(tuple(v - n_free for v in combined.closure.image[n_free:])),
    )
    return DiscreteRelativeBraid(free, skel)


def _realize_cyclic(spec: RelativeBraidSpec, period: int | None):
    """Positive discrete representative of the class twisted by K, K and g."""
    components = (spec.cyclic_free,) + spec.cyclic_skeleton
    k_twist = _positivity_twist(components)
    twisted = tuple(
        CyclicComponent(c.strands, c.rotation + k_twist, c.radius, c.phase)
        for c in components
    )
    expected = _expected_crossings(twisted)
    if expected > 48:
        raise BraidInputError(
            f"positive representative needs {expected} crossings; this "
            "desk-scale build caps cyclic specs at 48"
        )
    combined = None
    last = None
    for bump in (0.0, 0.013, 0.029):  # retry unlucky snap collisions
        shifted = tuple(
            CyclicComponent(c.strands, c.rotation, c.radius, c.phase + bump)
            for c in twisted
        )
        try:
            if period is None:
                combined, nf = _faithful_sample(shifted)
            else:
                combined, nf = _faithful_sample(shifted, d_start=period, d_cap=period)
            break
        except SAMPLING_ERRORS as exc:
            last = exc
            combined = None
    if combined is None:
        raise BraidInputError(f"could not discretize the cyclic spec: {last}")
    rb = _split_first_free(combined, spec.cyclic_free.strands)
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
    marks = set(spec.free_marks)
    order = sorted(range(combined.strands), key=lambda s: (s not in marks, s))
    pos_of = {s: i for i, s in enumerate(order)}
    closure = StrandPermutation(tuple(pos_of[combined.closure(s)] for s in order))
    reordered = DiscreteBraid(combined.nums[order], combined.den, closure)
    rb = _split_first_free(reordered, len(marks))
    return rb, pad.g, pad.g


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
    if not comp.proper:
        raise ImproperClassError(
            "relative braid class is improper; braid Floer homology is undefined",
            comp.collapse_witness,
        )
    pair = index_pair(comp)
    return relative_homology(pair), comp.crossing_number


def braid_floer_homology(spec: RelativeBraidSpec, period: int | None = None) -> FloerResult:
    """Braid Floer homology of a proper relative braid class.

    Runs the Conley-index route on a positive representative at consecutive
    periods, checks the two agree, and shifts degrees back by twice the
    applied twist per free strand.  The final identification is
    conjecture-mediated and flagged as such.
    """
    rb, k_twist, g = realize(spec, period)
    n = spec.free_strands()
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
            if Fraction(l, k) <= low or Fraction(l, k) >= high:
                continue
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
