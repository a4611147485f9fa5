"""Garside left normal form and minimal full-twist padding.

Braids are factored as Delta^k F_1 ... F_s with permutation-braid factors and
the left-weighted condition between consecutive factors.  Permutation braids
are identified with their strand permutations.  The normal form is built one
letter at a time: each letter right-multiplies the form by one permutation
braid (a negative letter also moves one Delta^-1 to the front through tau),
and a single right-to-left sweep of descent-set slides restores
left-weightedness (Epstein et al., Word Processing in Groups, ch. 9;
Elrifai-Morton 1994), so each letter costs at most s pair steps.

A pair step, a generator's transposition, Delta and a factor's letters are
pure functions of permutations, so they are looked up in bounded caches; the
pair cache holds all of S_4 x S_4 (576).  A step returns tuples equal to, not
the same as, the factors it leaves, so the sweep compares them by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import BraidWord, StrandPermutation, exponent_sum, half_twist_letters, word

# Permutations are stored as tuples p with p[k] = image of position k (0-based).
# Concatenating braids x then y composes as P_{xy} = P_y o P_x.

CACHE_SIZE = 1 << 12  # entries per cache; a full pair cache at n = 8 is about 2.5 MB


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Composition a o b."""
    return tuple(map(a.__getitem__, b))


@lru_cache(maxsize=CACHE_SIZE)
def _delta_perm(n: int) -> tuple[int, ...]:
    return tuple(n - 1 - k for k in range(n))


@lru_cache(maxsize=CACHE_SIZE)
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


@lru_cache(maxsize=CACHE_SIZE)
def factor_letters(f: StrandPermutation) -> tuple[int, ...]:
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
    return tuple(out)


@dataclass(frozen=True)
class GarsideNormalForm:
    """Delta^infimum followed by left-weighted permutation-braid factors, each
    given by its strand permutation."""

    strands: int
    infimum: int
    factors: tuple[StrandPermutation, ...]


@dataclass(frozen=True)
class TwistPadding:
    """Minimal g with original * Delta^{2g} positive, plus that positive braid
    as one letter list per normal-form factor, the Deltas first."""

    strands: int
    g: int
    layers: tuple[tuple[int, ...], ...]

    @property
    def positive_word(self) -> BraidWord:
        return word(self.strands, [i for layer in self.layers for i in layer])


def _tau(p: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Conjugation by Delta (flip i -> n-i on generator indices)."""
    return tuple(n - 1 - v for v in reversed(p))


@lru_cache(maxsize=CACHE_SIZE)
def _left_weight_pair(a, b, n):
    """Slide generators that can begin b onto the end of a until (a, b) is left-weighted.
    A slide at the least i in S(b) - F(a) (b descends, a's inverse ascends) swaps the
    entries i-1, i of b and of a's inverse, so the next least i is at least i-1.
    Returns a and b unchanged when nothing slides."""
    inv, b = list(_inverse(a)), list(b)
    i = 1
    while i < n:
        if b[i - 1] > b[i] and inv[i - 1] < inv[i]:  # append sigma_i to a, strip it from b
            inv[i - 1], inv[i], b[i - 1], b[i] = inv[i], inv[i - 1], b[i], b[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return _inverse(inv), tuple(b)


def left_normal_form(w: BraidWord) -> GarsideNormalForm:
    """Unique left-weighted form Delta^k F_1 ... F_s of the braid of w."""
    n = w.strands
    if n == 1:
        return GarsideNormalForm(1, 0, ())
    delta = _delta_perm(n)
    ident = tuple(range(n))
    k = 0
    # factors are kept as tau^flip of the true ones; tau fixes Delta and the
    # identity and commutes with the slides, so it is applied once at the end
    flip = 0
    factors: list[tuple[int, ...]] = []
    for idx, sign in w.letters:
        if sign == -1:
            # F sigma_i^{-1} = Delta^{-1} tau(F) (Delta sigma_i^{-1}), the last a permutation braid
            k -= 1
            flip ^= 1
        # tau(sigma_i) = sigma_{n-i} and tau(sigma_i Delta) = sigma_{n-i} Delta
        f = _swap(n, n - idx if flip else idx)
        factors.append(f if sign == 1 else _mul(f, delta))
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
    if flip:
        factors = [_tau(f, n) for f in factors]
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
    """Minimal g >= 0 such that w * Delta^{2g} is a positive braid."""
    return pad_normal_form(left_normal_form(w), exponent_sum(w))


def pad_normal_form(nf: GarsideNormalForm, crossings: int) -> TwistPadding:
    """Twist padding of the braid with normal form nf and exponent sum `crossings`.

    When the infimum is odd, one factor of Delta stays inside the positive
    word; only even twist powers are licensed by the degree-shift theorem.
    """
    n = nf.strands
    g = max(-nf.infimum + 1, 0) // 2
    layers = (tuple(half_twist_letters(n)),) * (nf.infimum + 2 * g)
    pad = TwistPadding(n, g, layers + tuple(map(factor_letters, nf.factors)))
    if exponent_sum(pad.positive_word) != crossings + g * n * (n - 1):
        raise AssertionError("twist padding lost crossings; normal form is broken")
    return pad
