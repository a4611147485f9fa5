"""Exact algebra of braid words in Artin generators.

A word is a flat sequence of signed letters; no reduction is performed here
(normalization is the garside module's job), so exponent sums and underlying
permutations stay O(length) and auditable.  Generator indices are 1-based:
sigma_i crosses strand i over strand i+1, for 1 <= i <= n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import BraidInputError


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on `strands` strands."""

    strands: int
    letters: tuple[tuple[int, int], ...]  # (index, sign), sign in {+1, -1}

    def __post_init__(self):
        if self.strands < 1:
            raise BraidInputError(f"strand count must be positive, got {self.strands}")
        for pos, (idx, sign) in enumerate(self.letters):
            if not 1 <= idx <= self.strands - 1:
                raise BraidInputError(
                    f"letter {pos}: generator index {idx} out of range 1..{self.strands - 1}"
                )
            if sign not in (1, -1):
                raise BraidInputError(f"letter {pos}: sign must be +1 or -1, got {sign}")

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple((i, -s) for i, s in reversed(self.letters)))

    def is_positive(self) -> bool:
        return all(s == 1 for _, s in self.letters)


@dataclass(frozen=True)
class StrandPermutation:
    """Bijection of strand start positions to end positions, 0-based internally."""

    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise BraidInputError(f"not a permutation of 0..{len(self.image) - 1}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, k: int) -> int:
        return self.image[k]

    def inverse(self) -> "StrandPermutation":
        inv = [0] * self.n
        for k, v in enumerate(self.image):
            inv[v] = k
        return StrandPermutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.image))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.n
        out = []
        for k in range(self.n):
            if seen[k]:
                continue
            cyc = [k]
            seen[k] = True
            v = self.image[k]
            while v != k:
                seen[v] = True
                cyc.append(v)
                v = self.image[v]
            out.append(tuple(cyc))
        return out

    @staticmethod
    def identity(n: int) -> "StrandPermutation":
        return StrandPermutation(tuple(range(n)))


def word(strands: int, letters: Iterable[int]) -> BraidWord:
    """Word from signed integer letters: k means sigma_k, -k means sigma_k^{-1}."""
    out = []
    for v in letters:
        if v == 0:
            raise BraidInputError("letter 0 is not a generator")
        out.append((abs(v), 1 if v > 0 else -1))
    return BraidWord(strands, tuple(out))


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs; the algebraic crossing number of any representative."""
    return sum(s for _, s in w.letters)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenation a then b."""
    if a.strands != b.strands:
        raise BraidInputError(f"strand counts differ: {a.strands} vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


def permutation_of(w: BraidWord) -> StrandPermutation:
    """Underlying permutation: start position -> end position, signs ignored."""
    pos = list(range(w.strands))  # pos[p] = strand currently at position p
    for idx, _ in w.letters:
        i = idx - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    image = [0] * w.strands
    for p, strand in enumerate(pos):
        image[strand] = p
    return StrandPermutation(tuple(image))


def half_twist_letters(n: int) -> list[int]:
    """Delta = (s1)(s2 s1)...(s_{n-1} ... s1), of length n(n-1)/2."""
    out = []
    for k in range(1, n):
        out.extend(range(k, 0, -1))
    return out


def full_twist(n: int, k: int) -> BraidWord:
    """The central element Delta^{2k} as a word; exponent sum k*n*(n-1)."""
    if n < 2:
        raise BraidInputError(f"full twist needs n >= 2, got {n}")
    delta = half_twist_letters(n)
    sign = 1 if k >= 0 else -1
    letters = []
    for _ in range(2 * abs(k)):
        if sign == 1:
            letters.extend(delta)
        else:
            letters.extend(-i for i in reversed(delta))
    return word(n, letters)


def free_reduce(w: BraidWord) -> BraidWord:
    """Delete adjacent sigma_i sigma_i^{-1} pairs until none remain."""
    stack: list[tuple[int, int]] = []
    for let in w.letters:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
    return BraidWord(w.strands, tuple(stack))


def random_rewrite(w: BraidWord, rng, moves: int = 1) -> BraidWord:
    """Apply random braid-relation rewrites and free insertions/reductions.

    The result represents the same element of the braid group; used by the
    property tests for rewrite invariance.
    """
    letters = list(w.letters)
    n = w.strands
    for _ in range(moves):
        choice = rng.randrange(4)
        if choice == 0 and len(letters) >= 2:  # far commutation
            p = rng.randrange(len(letters) - 1)
            (i, si), (j, sj) = letters[p], letters[p + 1]
            if abs(i - j) >= 2:
                letters[p], letters[p + 1] = (j, sj), (i, si)
        elif choice == 1 and len(letters) >= 3:  # braid relation, positive triples
            p = rng.randrange(len(letters) - 2)
            (a, sa), (b, sb), (c, sc) = letters[p:p + 3]
            if sa == sb == sc and a == c and abs(a - b) == 1:
                letters[p:p + 3] = [(b, sa), (a, sa), (b, sa)]
        elif choice == 2 and n >= 2:  # free insertion
            p = rng.randrange(len(letters) + 1)
            i = rng.randrange(1, n)
            s = rng.choice((1, -1))
            letters[p:p] = [(i, s), (i, -s)]
        else:  # free reduction at a random admissible spot
            spots = [
                p for p in range(len(letters) - 1)
                if letters[p][0] == letters[p + 1][0] and letters[p][1] == -letters[p + 1][1]
            ]
            if spots:
                p = rng.choice(spots)
                del letters[p:p + 2]
    return BraidWord(n, tuple(letters))
