"""The three workloads: their items, inputs and recorded outcomes.

desk     the paper's desk-scale traffic through the CLI in-process: seven
         proper cyclic classes, two word classes and three refusals.  It is
         homology-bound (coreduction, the exact d^2 check, the index pair).
large    the period-(d+1) stabilization rerun on million-cell index pairs:
         one class that completes and one refused at the cell cap.  It is
         index-pair-bound and the only workload with large memory and a slow
         refusal.
toolkit  Maslov, Garside and flow library calls that never enter the index
         pair or the homology layer, so a change there must read "no change"
         here, while a Maslov change shows only here.

Every item returns an outcome tuple.  CLI items give (exit code, Betti table)
or (exit code, first stderr line); library items give ("ok", detail) after
checking their own identities, or ("raised", exception type) if one escapes.
An item fails when its outcome differs from the recorded one.

The seed draws the toolkit's inputs.  The braid classes are fixed and run in
the listed order, so every run sees the same heap history: the items share
one process, and a refusal at the 1.5M cell cap leaves a large freed heap to
whichever item follows it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

from braidfloer import cli, flow, garside, maslov, pipeline, words

WORKLOADS = ("desk", "large", "toolkit")

# toolkit sizes: seeded constant Maslov paths and random Garside words.  The
# paths' matrices are fixed bases, drawn once from BASE_SEED, that the run's
# seed perturbs by up to PERTURBATION per entry: the inputs differ by seed,
# while the step counts the integrator needs, and so the work, stay the same.
# Freely drawn matrices made the step total move by +-15 % between seeds.
MASLOV_PATHS = 40
BASE_SEED = 0
PERTURBATION = 0.05
GARSIDE_WORDS = 500
GARSIDE_REWRITES = 50


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], tuple]
    expected: tuple | None = None  # None: the item checks itself, ("ok", ...)
    refusal: bool = False
    error_type: str | None = None  # exception leaving braid_floer_homology


def check(item: Item, outcome: tuple) -> str | None:
    """None when the outcome is the recorded one, else the mismatch."""
    exp = item.expected
    if exp is None:
        ok = outcome[0] == "ok"
    elif exp[0] in (0, "ok"):
        ok = outcome == exp
    else:  # CLI refusal: exit code plus the start of the one-line message
        ok = outcome[0] == exp[0] and str(outcome[1]).startswith(exp[1])
    return None if ok else f"expected {exp}, got {outcome}"


def _guarded(fn: Callable[[], tuple]) -> Callable[[], tuple]:
    def run() -> tuple:
        try:
            return fn()
        except Exception as exc:
            return ("raised", type(exc).__name__)

    return run


# -- CLI items --------------------------------------------------------------


def _cli(argv: list[str], stdin_text: str | None = None) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code == 0:
        betti = json.loads(out.getvalue())["betti"]
        return (0, tuple(sorted((int(k), v) for k, v in betti.items())))
    lines = err.getvalue().splitlines()
    return (code, lines[0] if lines else "")


def _cyclic(name, inner, outer, ell, expected, error_type=None) -> Item:
    argv = ["homology", "--inner", *map(str, inner), "--outer", *map(str, outer),
            "--ell", str(ell)]
    refusal = expected[0] != 0
    return Item(name, _guarded(lambda: _cli(argv)), expected, refusal, error_type)


def _word(name, text, free, expected, error_type=None) -> Item:
    doc = json.dumps({"relative": {"word": {"text": text, "free": free}}})
    argv = ["homology", "--input", "-"]
    refusal = expected[0] != 0
    return Item(name, _guarded(lambda: _cli(argv, doc)), expected, refusal, error_type)


def _betti(d: dict[int, int]) -> tuple:
    return (0, tuple(sorted(d.items())))


IMPROPER = "improper class: relative braid class is improper"


def desk_items() -> list[Item]:
    return [
        _cyclic("cyclic[1/2,1,2/1]", (1, 2), (2, 1), 1, _betti({2: 1, 3: 1})),
        _cyclic("cyclic[-3/2,-1,-1/2]", (-3, 2), (-1, 2), -1, _betti({-2: 1, -1: 1})),
        _cyclic("cyclic[3/2,1,1/2]", (3, 2), (1, 2), 1, _betti({1: 1, 2: 1})),
        _cyclic("cyclic[-1/2,0,1/1]", (-1, 2), (1, 1), 0, _betti({0: 1, 1: 1})),
        _cyclic("cyclic[1/2,0,-1/2]", (1, 2), (-1, 2), 0, _betti({-1: 1, 0: 1})),
        _cyclic("cyclic[1/2,0,-1/1]", (1, 2), (-1, 1), 0, _betti({-1: 1, 0: 1})),
        _cyclic("cyclic[-2/3,0,1/2]", (-2, 3), (1, 2), 0, _betti({0: 1, 1: 1})),
        _word("word[s1 s2 s2 s1;0]", "n=3; s1 s2 s2 s1", [0], _betti({})),
        _word("word[s2 s1 s2;1]", "n=3; s2 s1 s2", [1], _betti({1: 1})),
        _cyclic("cyclic[2/1,1,1/2]", (2, 1), (1, 2), 1, (2, IMPROPER), "ImproperClassError"),
        _word("word[s1 s1 s2 s2;2]", "n=3; s1 s1 s2 s2", [2], (2, IMPROPER),
              "ImproperClassError"),
        _cyclic("cyclic[-3/2,1,4/1]", (-3, 2), (4, 1), 1,
                (1, "error: positive representative needs 49 crossings"), "BraidInputError"),
    ]


def large_items() -> list[Item]:
    cap = "error: index pair exceeds 1500000 cells"
    return [
        _cyclic("cyclic[1/2,1,2/1]*twist1", (3, 2), (3, 1), 2, _betti({4: 1, 5: 1})),
        _cyclic("cyclic[1/3,1,2/1]*twist1", (4, 3), (3, 1), 2, (1, cap), "BraidInputError"),
    ]


# ROADMAP's baseline sizes of the twisted class, as (period, cubes, |N|, |N^-|)
LARGE_BASELINE_SIZES = {
    "cyclic[1/2,1,2/1]*twist1": [(6, 180, 54_394, 48_178), (7, 1_670, 1_024_996, 822_470)],
}


# -- toolkit items ----------------------------------------------------------


def _loop_index(k: int) -> tuple:
    path = maslov.integrate_path(maslov.rotation_family(k), 1.0)
    if not path.drift < maslov.DRIFT_BOUND:
        return ("bad", f"drift {path.drift}")
    return ("ok", maslov.permuted_cz_index(path, closed=True).twice_value)


def _shift_path(k_mat: np.ndarray, k: int) -> tuple:
    path = maslov.integrate_path(maslov.constant_family(k_mat), 1.0)
    if not path.drift < maslov.DRIFT_BOUND:
        return ("bad", f"drift {path.drift}")
    if not maslov.rotation_shift_check(path, None, k):
        return ("bad", "rotation shift identity failed")
    return ("ok", path.steps)


def _symmetric(rng: random.Random, n: int, half_width: float) -> np.ndarray:
    a = np.array([[rng.uniform(-half_width, half_width) for _ in range(2 * n)]
                  for _ in range(2 * n)])
    return (a + a.T) / 2


def _nondegenerate(k_mat: np.ndarray) -> bool:
    """Whether Psi(1) - Id is invertible, by the matrix-exponential test."""
    n = k_mat.shape[0] // 2
    j = maslov.standard_j(n)
    return abs(np.linalg.det(expm(j @ k_mat) - np.eye(2 * n))) > 1e-4


def _maslov_bases() -> list[np.ndarray]:
    """Fixed nondegenerate base matrices, alternating n=1,2."""
    rng = random.Random(BASE_SEED)
    bases = []
    for c in range(MASLOV_PATHS):
        k_mat = _symmetric(rng, 1 + c % 2, 3.0)
        while not _nondegenerate(k_mat):
            k_mat = _symmetric(rng, 1 + c % 2, 3.0)
        bases.append(k_mat)
    return bases


def _perturbed(rng: random.Random, base: np.ndarray) -> np.ndarray:
    """The base plus a seeded symmetric perturbation, kept if nondegenerate."""
    n = base.shape[0] // 2
    while True:
        k_mat = base + _symmetric(rng, n, PERTURBATION)
        if _nondegenerate(k_mat):
            return k_mat


def _random_word(rng: random.Random, n: int, length: int) -> words.BraidWord:
    return words.word(n, [rng.randrange(1, n) * rng.choice((1, -1)) for _ in range(length)])


def _garside_suite(cases) -> tuple:
    """Criterion-6 style check: left weighting, rewrite invariance, padding."""
    digest = 0
    for w, rewritten in cases:
        n = w.strands
        nf = garside.left_normal_form(w)
        if not garside.is_left_weighted(nf):
            return ("bad", f"{w} not left weighted")
        if garside.left_normal_form(rewritten) != nf:
            return ("bad", f"{w} normal form changed under rewriting")
        pad = garside.twist_padding(w)
        if not pad.positive_word.is_positive():
            return ("bad", f"{w} padding not positive")
        if words.exponent_sum(pad.positive_word) != words.exponent_sum(w) + pad.g * n * (n - 1):
            return ("bad", f"{w} padding exponent sum")
        if garside.left_normal_form(pad.positive_word).infimum < 0:
            return ("bad", f"{w} padded infimum negative")
        if n == 2 and (nf.infimum, nf.factors) != (words.exponent_sum(w), ()):
            return ("bad", f"{w} 2-strand closed form")
        digest += nf.infimum + len(nf.factors) + pad.g
    return ("ok", digest)


def _stationary(rb, seed: int) -> tuple:
    sols, warns = flow.find_stationary(rb, expected=2, rng=random.Random(seed))
    if warns or len(sols) < 2 or not all(r < 1e-8 for _, r in sols):
        return ("bad", f"{len(sols)} solutions, warnings {warns}")
    return ("ok", len(sols))


def toolkit_items(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for k in (1, 2, 3):
        items.append(Item(f"maslov.loop[k={k}]", _guarded(lambda k=k: _loop_index(k)),
                          ("ok", 4 * k)))
    shifts = (-2, -1, 0, 1, 2)
    for c, base in enumerate(_maslov_bases()):
        n = 1 + c % 2
        k_mat = _perturbed(rng, base)
        k = shifts[c % len(shifts)]
        items.append(Item(f"maslov.shift[{c},n={n},k={k}]",
                          _guarded(lambda k_mat=k_mat, k=k: _shift_path(k_mat, k))))
    cases = []
    for _ in range(GARSIDE_WORDS):
        n = rng.randrange(2, 5)
        w = _random_word(rng, n, rng.randrange(0, 13))
        cases.append((w, words.random_rewrite(w, rng, moves=GARSIDE_REWRITES)))
    items.append(Item("garside.suite", _guarded(lambda: _garside_suite(cases))))
    rb, _, _ = pipeline._realize_cyclic(pipeline.cyclic_spec((1, 2), (2, 1), 1), None)
    flow_seed = rng.randrange(2**31)
    items.append(Item("flow.find_stationary", _guarded(lambda: _stationary(rb, flow_seed))))
    return items


def build(workload: str, seed: int) -> list[Item]:
    if workload == "desk":
        return desk_items()
    if workload == "large":
        return large_items()
    if workload == "toolkit":
        return toolkit_items(seed)
    raise ValueError(f"unknown workload {workload!r}")
