"""Garside left normal form and minimal full-twist padding.

Braids are factored as Delta^k F_1 ... F_s with permutation-braid factors and
the left-weighted condition between consecutive factors.  Permutation braids
are identified with their strand permutations.  The normal form is built one
letter at a time: each letter right-multiplies the form by one permutation
braid (a negative letter also moves one Delta^-1 to the front through tau),
and a single right-to-left sweep of descent-set slides restores
left-weightedness (Epstein et al., Word Processing in Groups, ch. 9;
Elrifai-Morton 1994), so each letter costs at most s pair steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, StrandPermutation, exponent_sum, half_twist_letters, word

# Permutations are stored as tuples p with p[k] = image of position k (0-based).
# Concatenating braids x then y composes as P_{xy} = P_y o P_x.


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Composition a o b."""
    return tuple(a[b[k]] for k in range(len(a)))


def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _delta_perm(n: int) -> tuple[int, ...]:
    return tuple(n - 1 - k for k in range(n))


def _swap(n: int, i: int) -> tuple[int, ...]:
    """Transposition of positions i-1, i for the 1-based generator index i."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for k, v in enumerate(p):
        inv[v] = k
    return tuple(inv)


def _starting_set(p: tuple[int, ...]) -> set[int]:
    """Generators sigma_i that can begin a positive word for p."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def _finishing_set(p: tuple[int, ...]) -> set[int]:
    """Generators sigma_i that can end a positive word for p."""
    inv = _inverse(p)
    return {i for i in range(1, len(p)) if inv[i - 1] > inv[i]}


def factor_letters(f: StrandPermutation) -> list[int]:
    """Lexicographically least positive word of the permutation braid of f."""
    out = []
    cur = f.image
    while True:
        start = _starting_set(cur)
        if not start:
            break
        i = min(start)
        out.append(i)
        cur = _mul(cur, _swap(f.n, i))  # strip sigma_i from the front
    return out


@dataclass(frozen=True)
class GarsideNormalForm:
    """Delta^infimum followed by left-weighted permutation-braid factors, each
    given by its strand permutation."""

    strands: int
    infimum: int
    factors: tuple[StrandPermutation, ...]


@dataclass(frozen=True)
class TwistPadding:
    """Minimal g with original * Delta^{2g} positive, plus that positive word."""

    strands: int
    g: int
    positive_word: BraidWord


def _tau(p: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Conjugation by Delta (flip i -> n-i on generator indices)."""
    d = _delta_perm(n)
    return _mul(d, _mul(p, d))


def _left_weight_pair(a, b, n):
    """Slide generators that can begin b onto the end of a until (a, b) is left-weighted."""
    slide = _starting_set(b) - _finishing_set(a)
    while slide:
        i = min(slide)
        a = _mul(_swap(n, i), a)   # append sigma_i to a
        b = _mul(b, _swap(n, i))   # strip sigma_i from b
        slide = _starting_set(b) - _finishing_set(a)
    return a, b


def left_normal_form(w: BraidWord) -> GarsideNormalForm:
    """Unique left-weighted form Delta^k F_1 ... F_s of the braid of w."""
    n = w.strands
    if n == 1:
        return GarsideNormalForm(1, 0, ())
    delta = _delta_perm(n)
    ident = _identity(n)
    k = 0
    factors: list[tuple[int, ...]] = []
    for idx, sign in w.letters:
        if sign == 1:
            factors.append(_swap(n, idx))
        else:
            # F sigma_i^{-1} = Delta^{-1} tau(F) (Delta sigma_i^{-1}), the last a permutation braid
            k -= 1
            factors = [_tau(f, n) for f in factors]
            factors.append(_mul(_swap(n, idx), delta))
        # the factors before the new one are left-weighted, so the sweep stops
        # at the first pair it leaves unchanged
        j = len(factors) - 1
        while j > 0:
            a, b = _left_weight_pair(factors[j - 1], factors[j], n)
            if a == factors[j - 1]:
                break
            factors[j - 1], factors[j] = a, b
            j -= 1
        if factors[-1] == ident:
            factors.pop()
        if factors and factors[0] == delta:
            factors.pop(0)
            k += 1
    return GarsideNormalForm(n, k, tuple(map(StrandPermutation, factors)))


def is_left_weighted(nf: GarsideNormalForm) -> bool:
    """Structural check of the normal-form invariants."""
    for f in nf.factors:
        if f.is_identity() or f.image == _delta_perm(f.n):
            return False
    for a, b in zip(nf.factors, nf.factors[1:]):
        if not _starting_set(b.image) <= _finishing_set(a.image):
            return False
    return True


def twist_padding(w: BraidWord) -> TwistPadding:
    """Minimal g >= 0 such that w * Delta^{2g} is a positive braid.

    When the infimum is odd, one factor of Delta stays inside the positive
    word; only even twist powers are licensed by the degree-shift theorem.
    """
    nf = left_normal_form(w)
    n = w.strands
    if nf.infimum >= 0:
        g = 0
    else:
        g = (-nf.infimum + 1) // 2
    if n == 1:
        return TwistPadding(1, 0, BraidWord(1, ()))
    letters = half_twist_letters(n) * (nf.infimum + 2 * g)
    for f in nf.factors:
        letters.extend(factor_letters(f))
    positive = word(n, letters)
    expected = exponent_sum(w) + g * n * (n - 1)
    if exponent_sum(positive) != expected:
        raise AssertionError("twist padding lost crossings; normal form is broken")
    return TwistPadding(n, g, positive)
