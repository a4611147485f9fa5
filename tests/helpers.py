"""Shared test utilities: brute-force braid oracles, reference implementations,
helpers the package does not need, and small generators."""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from braidfloer.complex import (
    BARRIER_HIGH,
    BARRIER_LOW,
    INDEX_CELL_CAP,
    IndexPair,
    _lookup,
    _unique,
)
from braidfloer.discrete import (
    SNAP,
    DiscreteBraid,
    DiscreteRelativeBraid,
    _layers_to_discrete,
)
from braidfloer.errors import AmbiguousDiagramError, BraidInputError, TransversalityError
from braidfloer.garside import (
    GarsideNormalForm,
    _delta_perm,
    _finishing_set,
    _identity,
    _mul,
    _starting_set,
    _swap,
    _tau,
    factor_letters,
)
from braidfloer.homology import GradedBetti, _homology, boundary_matrix
from braidfloer.maslov import SymmetricFamily, constant_family
from braidfloer.pipeline import CyclicComponent, RelativeBraidSpec
from braidfloer.words import BraidWord, StrandPermutation, compose, full_twist, half_twist_letters, word


# -- Fraction views and builders the package does not need -------------------


def snap(v) -> Fraction:
    """Exact rationals pass through; floats land on the 1/SNAP grid."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    return Fraction(round(v * SNAP), SNAP)


def fraction_braid(strands: int, period: int, anchors, closure: StrandPermutation) -> DiscreteBraid:
    """The braid with Fraction anchors[k][i], over their least common denominator."""
    den = math.lcm(*(v.denominator for row in anchors for v in row))
    nums = [[v.numerator * (den // v.denominator) for v in row] for row in anchors]
    return DiscreteBraid(np.array(nums, dtype=np.int64).reshape(strands, period), den, closure)


def fractions_of(b: DiscreteBraid) -> tuple[tuple[Fraction, ...], ...]:
    """The anchors of a braid as Fractions, strand by strand."""
    return tuple(tuple(Fraction(v, b.den) for v in row) for row in b.nums.tolist())


def word_to_discrete(w: BraidWord, period: int | None = None) -> DiscreteBraid:
    """Legendrian representative of a positive word, one letter per slot
    interval; slots past the word copy values forward."""
    if not w.is_positive():
        raise BraidInputError("word_to_discrete needs a positive word")
    d = max(len(w), 2) if period is None else period
    if d < max(len(w), 2):
        raise BraidInputError("period too small for the word")
    return _layers_to_discrete(w.strands, [[i] for i, _ in w.letters], d)


def reference_layers_to_discrete(n: int, layers: list[list[int]], d: int):
    """Anchors and closure of `discrete._layers_to_discrete`, with Fraction
    heights -1 + 2j/(n+1), j = 1..n, one strand and slot at a time."""
    heights = [Fraction(-1) + Fraction(2 * j, n + 1) for j in range(1, n + 1)]
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
    return tuple(tuple(row) for row in anchors), StrandPermutation(tuple(level_of))


def twisted(spec: RelativeBraidSpec, k: int) -> RelativeBraidSpec:
    """The spec composed with Delta^{2k}."""
    if spec.presentation == "cyclic":
        return RelativeBraidSpec(
            "cyclic",
            f"{spec.label}*twist{k}",
            CyclicComponent(
                spec.cyclic_free.strands,
                spec.cyclic_free.rotation + k,
                spec.cyclic_free.radius,
                spec.cyclic_free.phase,
            ),
            tuple(
                CyclicComponent(c.strands, c.rotation + k, c.radius, c.phase)
                for c in spec.cyclic_skeleton
            ),
        )
    return RelativeBraidSpec(
        "word",
        f"{spec.label}*twist{k}",
        word=compose(spec.word, full_twist(spec.word.strands, k)),
        free_marks=spec.free_marks,
    )


def _neighbors(letters: tuple[int, ...]):
    """Words one rewrite away: far commutation and the braid relation."""
    for p in range(len(letters) - 1):
        a, b = letters[p], letters[p + 1]
        if abs(a - b) >= 2:
            yield letters[:p] + (b, a) + letters[p + 2:]
    for p in range(len(letters) - 2):
        a, b, c = letters[p:p + 3]
        if a == c and abs(a - b) == 1:
            yield letters[:p] + (b, a, b) + letters[p + 3:]


def positive_words_equal(w1: BraidWord, w2: BraidWord, cap: int = 200000) -> bool:
    """Decide equality of two positive words by exhaustive rewriting."""
    assert w1.is_positive() and w2.is_positive()
    if w1.strands != w2.strands or len(w1) != len(w2):
        return False
    start = tuple(i for i, _ in w1.letters)
    goal = tuple(i for i, _ in w2.letters)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            return True
        for nxt in _neighbors(cur):
            if nxt not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("oracle state cap exceeded")
                seen.add(nxt)
                queue.append(nxt)
    return False


def signed_words_equal(w1: BraidWord, w2: BraidWord, max_len: int = 14, cap: int = 400000) -> bool:
    """Decide equality of signed words by bounded rewriting with free moves.

    Searches w1 * w2^{-1} for the empty word using free reduction, free
    insertion (bounded), commutation and braid relations.
    """
    if w1.strands != w2.strands:
        return False
    n = w1.strands
    target = tuple(i * s for i, s in w1.letters) + tuple(-i * -s * -1 for i, s in reversed(w2.letters))
    # w2^{-1}: reversed letters with flipped signs
    target = tuple(i * s for i, s in w1.letters) + tuple(i * -s for i, s in reversed(w2.letters))

    def reduce_free(ls):
        stack = []
        for v in ls:
            if stack and stack[-1] == -v:
                stack.pop()
            else:
                stack.append(v)
        return tuple(stack)

    def moves(ls):
        for p in range(len(ls) - 1):
            a, b = ls[p], ls[p + 1]
            if abs(abs(a) - abs(b)) >= 2:
                yield ls[:p] + (b, a) + ls[p + 2:]
        for p in range(len(ls) - 2):
            a, b, c = ls[p:p + 3]
            if a > 0 and b > 0 and c > 0 and a == c and abs(a - b) == 1:
                yield ls[:p] + (b, a, b) + ls[p + 3:]
            if a < 0 and b < 0 and c < 0 and a == c and abs(a - b) == 1:
                yield ls[:p] + (b, a, b) + ls[p + 3:]
        if len(ls) + 2 <= max_len:
            for p in range(len(ls) + 1):
                for i in range(1, n):
                    yield ls[:p] + (i, -i) + ls[p:]
                    yield ls[:p] + (-i, i) + ls[p:]

    start = reduce_free(target)
    if not start:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for raw in moves(cur):
            nxt = reduce_free(raw)
            if not nxt:
                return True
            if len(nxt) <= max_len and nxt not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("oracle state cap exceeded")
                seen.add(nxt)
                queue.append(nxt)
    return False


def random_word(rng, strands: int, length: int) -> BraidWord:
    return word(
        strands,
        [rng.randrange(1, strands) * rng.choice((1, -1)) for _ in range(length)],
    )


def reference_slots(sk, d: int) -> list[tuple[tuple[Fraction, ...], tuple[int, ...]]]:
    """Per slot, the fixed values as sorted Fractions with the markers -+1 at
    the ends, and the skeleton strand or barrier owning each, built from the
    anchors one slot at a time."""
    anchors = fractions_of(sk)
    out = []
    for i in range(d):
        ranked = sorted((anchors[l][i], l) for l in range(sk.strands))
        out.append(((Fraction(-1), *(v for v, _ in ranked), Fraction(1)),
                    (BARRIER_LOW, *(l for _, l in ranked), BARRIER_HIGH)))
    return out


def reference_component(geo) -> tuple[set[tuple[int, ...]], int]:
    """Top cells (gap tuples) and crossing number of a braid-class component.

    Depth-first search one cube at a time, the reference for the frontier
    flood fill of `complex.enumerate_component`.  Sides and crossings are
    read off the anchor values directly, not off the geometry's tables: a
    cube's crossing number is that of the combined braid with the free
    strand at its gap midpoints.
    """
    d = geo.period
    sk = geo.rb.skeleton
    slots = reference_slots(sk, d)
    fixed = unchecked(sk)

    def mid(i, g):
        values = slots[i % d][0]
        return (values[g] + values[g + 1]) / 2

    def crossing_number(cube):
        free = fraction_braid(1, d, (tuple(mid(i, g) for i, g in enumerate(cube)),),
                              StrandPermutation((0,)))
        return DiscreteRelativeBraid(free, sk).combined().crossings

    def below_owner(cube, i, f, j):
        """Whether the free strand of `cube` lies below pin f's owner at slot i+j."""
        owner = slots[i][1][f]
        return mid(i + j, cube[(i + j) % d]) < unrolled_value(fixed, owner, i + j)

    start = []
    for (values, _), u in zip(slots, fractions_of(geo.rb.free)[0]):
        start.append(next(g for g in range(len(values) - 1) if values[g] < u < values[g + 1]))
    start = tuple(start)
    cross = crossing_number(start)
    seen = {start}
    stack = [start]
    while stack:
        cube = stack.pop()
        for i in range(d):
            g = cube[i]
            for f, other in ((g, g - 1), (g + 1, g + 1)):
                if not 0 <= other < len(slots[i][0]) - 1:
                    continue
                if below_owner(cube, i, f, -1) == below_owner(cube, i, f, 1):
                    continue  # tangency: the face walls the class off
                nxt = cube[:i] + (other,) + cube[i + 1:]
                if nxt not in seen:
                    assert crossing_number(nxt) == cross
                    seen.add(nxt)
                    stack.append(nxt)
    return seen, cross


def direct_sum_family(a: SymmetricFamily, b: SymmetricFamily) -> SymmetricFamily:
    """K_a + K_b of two constant families, acting on disjoint strand blocks.

    In (p..., q...) coordinates this is the constant family of the block
    matrix, so its path takes the closed form.
    """
    n = a.strands + b.strands
    k = np.zeros((2 * n, 2 * n))
    for family, offset in ((a, 0), (b, a.strands)):
        m = family.strands
        idx = list(range(offset, offset + m)) + list(range(n + offset, n + offset + m))
        k[np.ix_(idx, idx)] = family.constant
    return constant_family(k)


def direct_sum_permutation(sa: StrandPermutation, sb: StrandPermutation) -> StrandPermutation:
    na = sa.n
    return StrandPermutation(
        tuple(sa(k) for k in range(na)) + tuple(na + sb(k) for k in range(sb.n))
    )


def nf_to_word(nf: GarsideNormalForm) -> BraidWord:
    """The word Delta^infimum F_1 ... F_s of a normal form."""
    letters: list[int] = []
    delta = half_twist_letters(nf.strands)
    if nf.infimum >= 0:
        letters.extend(delta * nf.infimum)
    else:
        inv_delta = [-i for i in reversed(delta)]
        letters.extend(inv_delta * (-nf.infimum))
    for f in nf.factors:
        letters.extend(factor_letters(f))
    return word(nf.strands, letters)


# Reference left normal form: every adjacent pair is left-weighted again and
# the Deltas are re-collected until nothing changes.  The incremental sweep in
# `garside.left_normal_form` must agree with it on every word.


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


def reference_left_normal_form(w: BraidWord) -> GarsideNormalForm:
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
    return GarsideNormalForm(n, total + shift, tuple(map(StrandPermutation, normalized)))


# Round-then-queue coreduction as it stood before the rounds ran on the live
# submatrix: whole rounds at full size while a round removes over 1/64 of all
# cells, then the per-cell queue.  `_coreduce` must leave a core of the same
# homology.


def reference_coreduce(core: list[int], bnd, cob) -> int:
    """Coreduce the cells `core` (a list, cut down to the survivors); returns
    the number removed."""
    n = bnd.shape[0]
    mask = np.zeros(n, dtype=np.int32)
    mask[core] = 1
    tags = np.arange(1, n + 1)
    while True:
        face_count, coface_count = bnd @ mask, cob @ mask
        one_face = np.flatnonzero(mask & (face_count == 1))
        one_coface = np.flatnonzero(mask & (coface_count == 1))
        x = np.concatenate((one_face, one_coface))
        live = tags * mask
        y = np.concatenate(((bnd @ live)[one_face], (cob @ live)[one_coface])) - 1
        pid = np.arange(len(x))
        first = np.full(n, len(x))
        np.minimum.at(first, x, pid)
        np.minimum.at(first, y, pid)
        keep = (first[x] == pid) & (first[y] == pid)
        if 64 * np.count_nonzero(keep) <= n:
            break
        mask[x[keep]] = 0
        mask[y[keep]] = 0
    co_queue = deque(np.flatnonzero(mask & (face_count == 1)).tolist())
    red_queue = deque(np.flatnonzero(mask & (coface_count == 1)).tolist())
    alive = bytearray(mask.astype(np.uint8))
    faces, cofaces = memoryview(face_count), memoryview(coface_count)
    b_idx, b_ptr = memoryview(bnd.indices), memoryview(bnd.indptr)
    c_idx, c_ptr = memoryview(cob.indices), memoryview(cob.indptr)

    def drop(x):
        alive[x] = 0
        for z in b_idx[b_ptr[x]:b_ptr[x + 1]]:
            if alive[z]:
                cofaces[z] -= 1
                if cofaces[z] == 1:
                    red_queue.append(z)
        for z in c_idx[c_ptr[x]:c_ptr[x + 1]]:
            if alive[z]:
                faces[z] -= 1
                if faces[z] == 1:
                    co_queue.append(z)

    while co_queue or red_queue:
        while co_queue:
            b = co_queue.popleft()
            if not alive[b] or faces[b] != 1:
                continue
            a = next(f for f in b_idx[b_ptr[b]:b_ptr[b + 1]] if alive[f])
            drop(b)
            drop(a)
        while red_queue:
            a = red_queue.popleft()
            if not alive[a] or cofaces[a] != 1:
                continue
            b = next(f for f in c_idx[c_ptr[a]:c_ptr[a + 1]] if alive[f])
            drop(a)
            drop(b)
    removed = len(core)
    core[:] = np.flatnonzero(np.frombuffer(alive, dtype=np.uint8)).tolist()
    return removed - len(core)


def gf2_rank(m: np.ndarray) -> int:
    """Rank over Z2 of a dense 0/1 matrix by row echelon on packed rows."""
    rows = np.packbits(m.astype(bool), axis=1)
    rank = 0
    for col in range(m.shape[1]):
        byte, bit = col >> 3, np.uint8(0x80 >> (col & 7))
        hits = np.flatnonzero(rows[rank:, byte] & bit) + rank
        if not len(hits):
            continue
        rows[[rank, hits[0]]] = rows[[hits[0], rank]]
        rows[hits[1:]] ^= rows[rank]
        rank += 1
    return rank


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple((i, -s) for i, s in reversed(w.letters)))


def homology_of_chain(cells: dict[int, int], boundary) -> dict[int, int]:
    """Betti numbers of a Z2 chain complex given by a callable.

    `cells` maps generator -> dimension; `boundary` lists a generator's
    faces (ones outside `cells` are dropped).
    """
    index = {c: r for r, c in enumerate(cells)}
    rows, cols = [], []
    for c, r in index.items():
        for f in boundary(c):
            if f in index:
                rows.append(r)
                cols.append(index[f])
    dims = np.fromiter(cells.values(), dtype=np.int64, count=len(cells))
    return _homology(dims, boundary_matrix(rows, cols, len(cells)))


def to_chain_json(pair: IndexPair) -> dict:
    """Chain-complex dump of a pair (relative cells only) for external verification."""
    rel, dims, bnd = pair.chain_complex()
    ids = rel.tolist()
    faces = rel[bnd.indices].tolist()
    ptr = bnd.indptr.tolist()
    return {
        "generators": [{"id": c, "dim": k} for c, k in zip(ids, dims.tolist())],
        "boundaries": {str(c): faces[ptr[r]:ptr[r + 1]] for r, c in enumerate(ids)},
    }


def homology_from_json(doc: dict) -> GradedBetti:
    """Betti numbers of a chain-complex dump (`to_chain_json`)."""
    cells = {int(g["id"]): int(g["dim"]) for g in doc["generators"]}
    bmap = {int(k): [int(v) for v in vs] for k, vs in doc["boundaries"].items()}
    betti = homology_of_chain(cells, lambda c: bmap.get(c, []))
    return GradedBetti.from_dict(betti, "direct")


def chain_counts(pair: IndexPair) -> dict[int, int]:
    """Number of relative cells of the pair in each dimension."""
    ks, counts = np.unique(pair.chain_complex()[1], return_counts=True)
    return dict(zip(ks.tolist(), counts.tolist()))


def reference_free_crossings(u, paths) -> int:
    """Crossings of the float free strand u (slots 0..d-1) with float skeleton
    paths (slots 0..d), one strand and slot interval at a time: the reference
    for `flow._free_crossings`."""
    d, total = len(u), 0
    for path in paths:
        for i in range(d):
            a, b = u[i] - path[i], u[(i + 1) % d] - path[i + 1]
            if a != 0 and (b == 0 or (a < 0) != (b < 0)):
                total += 1
    return total


def crossing_count_float(u, skeleton: DiscreteBraid) -> int:
    """Crossings of the float free strand with the skeleton plus the
    skeleton's internal crossings."""
    paths = (skeleton.lattice / skeleton.den).tolist()  # as in flow.evolve
    return skeleton.crossings + reference_free_crossings(u, paths)


def cycles(p: StrandPermutation) -> list[tuple[int, ...]]:
    """Cycle decomposition of a strand permutation."""
    seen = [False] * p.n
    out = []
    for k in range(p.n):
        if seen[k]:
            continue
        cyc = [k]
        seen[k] = True
        v = p(k)
        while v != k:
            seen[v] = True
            cyc.append(v)
            v = p(v)
        out.append(tuple(cyc))
    return out


def free_reduce(w: BraidWord) -> BraidWord:
    """Delete adjacent sigma_i sigma_i^{-1} pairs until none remain."""
    stack: list[tuple[int, int]] = []
    for let in w.letters:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
    return BraidWord(w.strands, tuple(stack))


# Reference crossing count, word reading and transversality check: Fraction
# arithmetic one strand pair and slot at a time.  The integer anchor view of
# `braidfloer.discrete` must agree with them on every braid.  They take a
# DiscreteBraid or an `UncheckedBraid`, which can hold anchor data the
# package would refuse.


@dataclass(frozen=True)
class UncheckedBraid:
    """Fraction anchor data with a closure, never checked."""

    strands: int
    period: int
    anchors: tuple[tuple[Fraction, ...], ...]
    closure: StrandPermutation


def unchecked(b) -> UncheckedBraid:
    """The Fraction anchor data of a braid; an UncheckedBraid as it is."""
    if isinstance(b, UncheckedBraid):
        return b
    return UncheckedBraid(b.strands, b.period, fractions_of(b), b.closure)


def unrolled_value(b, k: int, i: int) -> Fraction:
    """Anchor of strand k at any integer slot, unrolled through the closure."""
    d = b.period
    while i >= d:
        k = b.closure(k)
        i -= d
    while i < 0:
        k = b.closure.image.index(k)
        i += d
    return b.anchors[k][i]


def anchor_neighbours(b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float anchors of every strand at slots i - 1, i and i + 1, each of
    shape (strands, period), unrolled through the closure."""
    b = unchecked(b)
    return tuple(
        np.array([[float(unrolled_value(b, k, i + shift)) for i in range(b.period)]
                  for k in range(b.strands)])
        for shift in (-1, 0, 1)
    )


def pair_crossings(b, k: int, l: int, i: int) -> int:
    """1 if strands k, l cross in the slot interval (i, i+1), else 0.

    A crossing sitting exactly on anchor i+1 is attributed to this interval.
    """
    value = functools.partial(unrolled_value, b)
    a = value(k, i) - value(l, i)
    c = value(k, i + 1) - value(l, i + 1)
    if a == 0:
        return 0  # counted in the previous interval
    if c == 0:
        return 1
    return 1 if (a < 0) != (c < 0) else 0


def reference_crossing_number(b) -> int:
    b = unchecked(b)
    total = 0
    for k in range(b.strands):
        for l in range(k + 1, b.strands):
            for i in range(b.period):
                total += pair_crossings(b, k, l, i)
    return total


def reference_check_transversality(b) -> None:
    b = unchecked(b)
    for k in range(b.strands):
        for l in range(k + 1, b.strands):
            for i in range(b.period):
                if b.anchors[k][i] == b.anchors[l][i]:
                    if i == 0:
                        raise TransversalityError(
                            f"strands {k} and {l} coincide at the closure slot"
                        )
                    left = b.anchors[k][i - 1] - b.anchors[l][i - 1]
                    right = unrolled_value(b, k, i + 1) - unrolled_value(b, l, i + 1)
                    if left * right >= 0:
                        raise TransversalityError(
                            f"tangential contact of strands {k}, {l} at slot {i}"
                        )


def reference_discrete_to_word(b) -> BraidWord:
    b = unchecked(b)
    letters: list[int] = []
    d = b.period
    value = functools.partial(unrolled_value, b)
    # order strands by value just after slot i: ties at the anchor broken by slope
    for i in range(d):
        start = [(value(k, i), value(k, i + 1) - value(k, i), k) for k in range(b.strands)]
        order = [k for _, _, k in sorted(start)]
        events = []
        for a_idx in range(b.strands):
            for b_idx in range(a_idx + 1, b.strands):
                if pair_crossings(b, a_idx, b_idx, i):
                    va = value(a_idx, i) - value(b_idx, i)
                    vb = value(a_idx, i + 1) - value(b_idx, i + 1)
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


def reference_sample(components, d: int):
    """Anchors and closure image of `pipeline._sample_components`, one float
    snapped at a time, without building the braid."""
    anchors = []
    closure = []
    base = 0
    for comp in components:
        rho = float(comp.rotation)
        r = float(comp.radius)
        for j in range(comp.strands):
            row = []
            for i in range(d):
                angle = 2 * math.pi * (rho * (i / d - j) + comp.phase)
                row.append(snap(r * math.cos(angle)))
            anchors.append(tuple(row))
            closure.append(base + (j - 1) % comp.strands)
        base += comp.strands
    return tuple(anchors), StrandPermutation(tuple(closure))


def reference_geometry_tables(geo):
    """`prev_pos`, `next_pos` and `cross` of a ComplexGeometry, each fixed
    value looked up among its slot's Fraction values (`reference_slots`) one
    at a time."""
    d = geo.period
    sk = unchecked(geo.rb.skeleton)
    slots = reference_slots(geo.rb.skeleton, d)

    def position(i: int, owner: int) -> int:
        values = slots[i % d][0]
        if owner == BARRIER_LOW:
            return 0
        if owner == BARRIER_HIGH:
            return len(values) - 1
        return values.index(unrolled_value(sk, owner, i))

    prev_pos = [[position(i - 1, o) for o in owners] for i, (_, owners) in enumerate(slots)]
    next_pos = [[position(i + 1, o) for o in owners] for i, (_, owners) in enumerate(slots)]
    cross = []
    for i, (values, _) in enumerate(slots):
        here = [position(i, l) for l in range(sk.strands)]
        there = [position(i + 1, l) for l in range(sk.strands)]
        cross.append([
            [sum((g < p) != (h < q) for p, q in zip(here, there))
             for h in range(len(slots[(i + 1) % d][0]) - 1)]
            for g in range(len(values) - 1)
        ])
    return prev_pos, next_pos, cross


# Reference index pair: N and N^- as two separate down-closures, N^- checked
# inside N and closed by membership tests, and the relative cells found by
# membership in N^-.  The single flagged closure of `complex.index_pair` must give
# the same arrays on every class.


def _reference_closure(geo, seeds: np.ndarray) -> np.ndarray:
    cells = _unique(np.array(seeds, dtype=np.int64))
    for i in range(geo.period):
        gaps = cells[geo.gap_mask(cells, i)]
        if 2 * len(gaps) <= INDEX_CELL_CAP:
            cells = _unique(np.concatenate((cells, *geo.pins(gaps, i))))
        if max(len(cells), 2 * len(gaps)) > INDEX_CELL_CAP:
            raise BraidInputError(
                f"index pair exceeds {INDEX_CELL_CAP} cells; "
                "the class is beyond this build's desk scale"
            )
    return cells


def reference_index_pair(comp):
    """(N, N^-, relative codes, dims, relative boundary) of a proper component."""
    geo = comp.geometry
    codes = comp.top_cells
    cells = _reference_closure(geo, codes)
    gaps = geo.digits(codes)
    seeds = []
    for i in range(geo.period):
        for up, face in enumerate(geo.pins(codes, i)):  # pin g, then pin g+1
            below, below_next = geo.sides(gaps, i, up)
            seeds.append(face[(below == below_next) & (below == (up == 0))])
    exit_cells = _reference_closure(geo, np.concatenate(seeds))
    if not np.isin(exit_cells, cells).all():
        raise AssertionError("exit cell outside N")
    for i in range(geo.period):
        for face in geo.pins(exit_cells[geo.gap_mask(exit_cells, i)], i):
            if not np.isin(face, exit_cells).all():
                raise AssertionError("exit set not closed under faces")
    rel = cells[~np.isin(cells, exit_cells)]
    dims = np.zeros(len(rel), dtype=np.int8)
    rows, cols = [], []
    for i in range(geo.period):
        gap = np.flatnonzero(geo.gap_mask(rel, i)).astype(np.int32)
        dims[gap] += 1
        for face in geo.pins(rel[gap], i):
            pos, found = _lookup(rel, face)
            rows.append(gap[found])
            cols.append(pos[found].astype(np.int32))
    bnd = boundary_matrix(np.concatenate(rows), np.concatenate(cols), len(rel))
    return cells, exit_cells, rel, dims, bnd
