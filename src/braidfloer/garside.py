"""Garside left normal form and minimal full-twist padding.

Braids are factored as Delta^k F_1 ... F_s with permutation-braid factors and
the left-weighted condition between consecutive factors.  Permutation braids
are identified with their strand permutations; the left-weighting is done by
local descent-set slides, which computes the same factorization as meet-based
left-weighting.  Inputs here are short (hundreds of letters), so the quadratic
fixpoint loop is fine.
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


def _inversions(p: tuple[int, ...]) -> int:
    n = len(p)
    return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])


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


def _perm_word(p: tuple[int, ...]) -> list[int]:
    """Lexicographically-least reduced word for the permutation braid of p."""
    out = []
    cur = p
    while True:
        start = _starting_set(cur)
        if not start:
            break
        i = min(start)
        out.append(i)
        cur = _mul(cur, _swap(len(p), i))  # strip sigma_i from the front
    return out


@dataclass(frozen=True)
class PermutationBraid:
    """Positive braid in which each strand pair crosses at most once."""

    n: int
    perm: StrandPermutation

    @property
    def p(self) -> tuple[int, ...]:
        return self.perm.image

    def length(self) -> int:
        return _inversions(self.p)

    def is_identity(self) -> bool:
        return self.p == _identity(self.n)

    def is_delta(self) -> bool:
        return self.p == _delta_perm(self.n)

    def letters(self) -> list[int]:
        return _perm_word(self.p)


@dataclass(frozen=True)
class GarsideNormalForm:
    """Delta^infimum followed by left-weighted permutation-braid factors."""

    strands: int
    infimum: int
    factors: tuple[PermutationBraid, ...]

    def to_word(self) -> BraidWord:
        letters: list[int] = []
        delta = half_twist_letters(self.strands)
        if self.infimum >= 0:
            letters.extend(delta * self.infimum)
        else:
            inv_delta = [-i for i in reversed(delta)]
            letters.extend(inv_delta * (-self.infimum))
        for f in self.factors:
            letters.extend(f.letters())
        return word(self.strands, letters)


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
    """Slide the largest left-divisible prefix of b into a; returns (a', b')."""
    changed = True
    while changed:
        changed = False
        for i in _starting_set(b) - _finishing_set(a):
            a = _mul(_swap(n, i), a)   # append sigma_i to a
            b = _mul(b, _swap(n, i))   # strip sigma_i from b
            changed = True
            break
    return a, b


def _normalize_factors(factors: list[tuple[int, ...]], n: int) -> tuple[int, list[tuple[int, ...]]]:
    """Left-weight a factor list, absorbing Deltas and dropping identities."""
    delta = _delta_perm(n)
    ident = _identity(n)
    shift = 0
    factors = [f for f in factors if f != ident]
    stable = False
    while not stable:
        stable = True
        for j in range(len(factors) - 1):
            a, b = _left_weight_pair(factors[j], factors[j + 1], n)
            if (a, b) != (factors[j], factors[j + 1]):
                factors[j], factors[j + 1] = a, b
                stable = False
        # collect Deltas to the front, delete identities
        out: list[tuple[int, ...]] = []
        for f in factors:
            if f == ident:
                stable = False
            elif f == delta:
                out = [_tau(g, n) for g in out]
                shift += 1
                stable = False
            else:
                out.append(f)
        factors = out
    return shift, factors


def left_normal_form(w: BraidWord) -> GarsideNormalForm:
    """Unique left-weighted form Delta^k F_1 ... F_s of the braid of w."""
    n = w.strands
    if n == 1:
        return GarsideNormalForm(1, 0, ())
    delta = _delta_perm(n)
    factors: list[tuple[int, ...]] = []
    delta_pows: list[int] = []
    for idx, sign in w.letters:
        if sign == 1:
            factors.append(_swap(n, idx))
            delta_pows.append(0)
        else:
            # sigma_i^{-1} = Delta^{-1} (Delta sigma_i^{-1}), the latter a permutation braid
            factors.append(_mul(_swap(n, idx), delta))
            delta_pows.append(-1)
    # commute the Delta^{-1} prefixes to the front through tau
    total = 0
    for j in range(len(factors) - 1, -1, -1):
        if total % 2:
            factors[j] = _tau(factors[j], n)
        total += delta_pows[j]
    shift, normalized = _normalize_factors(factors, n)
    return GarsideNormalForm(
        n,
        total + shift,
        tuple(PermutationBraid(n, StrandPermutation(p)) for p in normalized),
    )


def is_left_weighted(nf: GarsideNormalForm) -> bool:
    """Structural check of the normal-form invariants."""
    for f in nf.factors:
        if f.is_identity() or f.is_delta():
            return False
    for a, b in zip(nf.factors, nf.factors[1:]):
        if not _starting_set(b.p) <= _finishing_set(a.p):
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
        letters.extend(f.letters())
    positive = word(n, letters)
    expected = exponent_sum(w) + g * n * (n - 1)
    if exponent_sum(positive) != expected:
        raise AssertionError("twist padding lost crossings; normal form is broken")
    return TwistPadding(n, g, positive)
