import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidfloer import complex as complex_module
from braidfloer.complex import (
    INDEX_CELL_CAP,
    ComplexGeometry,
    IndexPair,
    component_contains,
    enumerate_component,
    index_pair,
)
from braidfloer.discrete import DiscreteBraid, DiscreteRelativeBraid, insert_duplicate_slot
from braidfloer.errors import BraidInputError, ImproperClassError, TransversalityError
from braidfloer.homology import relative_homology
from braidfloer.pipeline import _homology_at, _realize_cyclic, cyclic_spec, realize, word_spec
from braidfloer.words import StrandPermutation, permutation_of, word

from helpers import (
    chain_counts,
    fraction_braid,
    gf2_rank,
    homology_from_json,
    homology_of_chain,
    reference_component,
    reference_geometry_tables,
    reference_index_pair,
    reference_slots,
    seeded_proper_classes,
    snap,
    to_chain_json,
    word_to_discrete,
)

FIXTURES = Path(__file__).parent / "fixtures"

# the proper cyclic classes of the desk benchmark, as (inner, outer, ell)
DESK_CYCLIC = [
    ((1, 2), (2, 1), 1),
    ((-3, 2), (-1, 2), -1),
    ((3, 2), (1, 2), 1),
    ((-1, 2), (1, 1), 0),
    ((1, 2), (-1, 2), 0),
    ((1, 2), (-1, 1), 0),
    ((-2, 3), (1, 2), 0),
]


def constant_strand(value, period):
    return tuple(snap(value) for _ in range(period))


def make_relative(free_values, skeleton: DiscreteBraid) -> DiscreteRelativeBraid:
    free = fraction_braid(
        1, skeleton.period, (tuple(snap(v) for v in free_values),), StrandPermutation((0,))
    )
    return DiscreteRelativeBraid(free, skeleton)


def crossing_pair_skeleton() -> DiscreteBraid:
    # two strands exchanging once per period (rotation number 1/2)
    return word_to_discrete(word(2, [1]))


def test_saddle_component():
    rb = make_relative([0, 0], crossing_pair_skeleton())
    comp = enumerate_component(rb)
    assert comp.proper
    assert comp.crossing_number == 3
    # plus-shaped component: centre plus four one-step excursions
    assert len(comp.top_cells) == 5
    assert np.dot((1, 1), comp.geometry.strides) in comp.top_cells
    assert component_contains(comp, np.array([0, 0]), 1)
    assert not component_contains(comp, np.array([1, 1]), 2)


def test_saddle_index_pair_homology():
    rb = make_relative([0, 0], crossing_pair_skeleton())
    comp = enumerate_component(rb)
    pair = index_pair(comp)
    counts = chain_counts(pair)
    assert counts == {0: 6, 1: 12, 2: 5}
    betti = relative_homology(pair)
    assert betti.as_dict() == {1: 1}


def test_saddle_exit_jump_is_two():
    rb = make_relative([0, 0], crossing_pair_skeleton())
    comp = enumerate_component(rb)
    geo = comp.geometry
    # hopping down past the lower strand from the (low, mid) cube loses 2 crossings
    codes = np.array([(0, 1), (0, 0), (1, 1)]) @ geo.strides
    assert geo.crossing_numbers(codes).tolist() == [3, 1, 3]


def test_improper_empty_skeleton():
    empty = fraction_braid(0, 2, (), StrandPermutation(()))
    rb = make_relative([0, 0], empty)
    comp = enumerate_component(rb)
    assert not comp.proper
    assert comp.collapse_witness["collapses_onto"].startswith("boundary")
    with pytest.raises(ImproperClassError):
        index_pair(comp)


@pytest.mark.parametrize("spec", [cyclic_spec((2, 1), (1, 2), 1),
                                  word_spec(word(3, [1, 1, 2, 2]), [2])])
def test_index_pair_refuses_an_improper_class_with_the_route_message(spec):
    comp = enumerate_component(realize(spec, None)[0])
    assert not comp.proper
    with pytest.raises(ImproperClassError) as err:
        index_pair(comp)
    assert str(err.value) == "relative braid class is improper; braid Floer homology is undefined"
    assert err.value.witness == comp.collapse_witness


def test_improper_unlinked_parallel_strand():
    skeleton = fraction_braid(1, 2, (constant_strand(0.5, 2),), StrandPermutation((0,)))
    rb = make_relative([-0.25, -0.25], skeleton)
    comp = enumerate_component(rb)
    assert not comp.proper


def test_chain_json_round_trip():
    rb = make_relative([0, 0], crossing_pair_skeleton())
    pair = index_pair(enumerate_component(rb))
    doc = to_chain_json(pair)
    assert homology_from_json(doc).as_dict() == {1: 1}


def test_homology_of_small_pairs():
    # single point, empty exit
    assert homology_of_chain({0: 0}, lambda c: []) == {0: 1}
    # interval with both endpoints in the exit set: one relative 1-cell
    assert homology_of_chain({7: 1}, lambda c: []) == {1: 1}
    # circle from two arcs and two points
    cells = {0: 0, 1: 0, 2: 1, 3: 1}
    bnd = {2: [0, 1], 3: [0, 1]}
    assert homology_of_chain(cells, lambda c: bnd.get(c, [])) == {0: 1, 1: 1}


def desk_component(inner, outer, ell):
    rb, _, _ = _realize_cyclic(cyclic_spec(inner, outer, ell), None)
    return enumerate_component(rb)


def desk_pair(inner, outer, ell):
    return index_pair(desk_component(inner, outer, ell))


def test_chain_json_golden():
    # pins the cell encoding: ids, dimensions and boundary order
    pair = desk_pair((1, 2), (2, 1), 1)
    golden = (FIXTURES / "chain_cyclic_1-2_2-1_1.json").read_text()
    assert json.dumps(to_chain_json(pair)) == golden


@pytest.mark.parametrize("inner, outer, ell", DESK_CYCLIC)
def test_relative_homology_matches_dense_rank(inner, outer, ell):
    pair = desk_pair(inner, outer, ell)
    geo = pair.geometry
    exit_cells = set(pair.exit.tolist())
    relative = sorted(set(pair.cells.tolist()) - exit_cells)
    assert len(relative) <= 5000
    # decode every relative cell and list its faces outside the exit set
    dims, faces = {}, {}
    for c in relative:
        rest, dims[c], faces[c] = c, 0, []
        for i in range(geo.period):
            rest, s = divmod(rest, geo.nstates)
            if s < geo.ngaps:
                dims[c] += 1
                for pin in (geo.ngaps + s, geo.ngaps + s + 1):
                    face = c + (pin - s) * geo.strides[i]
                    if face not in exit_cells:
                        faces[c].append(face)
    by_dim = {}
    for c in relative:
        by_dim.setdefault(dims[c], []).append(c)
    ranks = {}
    for k, cells in by_dim.items():
        below = {f: j for j, f in enumerate(by_dim.get(k - 1, []))}
        m = np.zeros((len(cells), max(len(below), 1)), dtype=np.uint8)
        for r, c in enumerate(cells):
            for f in faces[c]:
                m[r, below[f]] = 1
        ranks[k] = gf2_rank(m)
    betti = {
        k: len(cells) - ranks[k] - ranks.get(k + 1, 0) for k, cells in by_dim.items()
    }
    assert relative_homology(pair).as_dict() == {k: b for k, b in betti.items() if b}


def test_index_cell_cap_is_exact(monkeypatch):
    """At a cap of |N| the pair builds; at |N| - 1, and at |N| // 8 where the
    closure's growth bound stops it early, it is refused with the same message."""
    rbs = [build() for _, build in COMPONENT_CASES] + [rb for _, rb, _ in seeded_proper_classes(24)]
    for comp in (enumerate_component(r) for rb in rbs for r in (rb, stabilized(rb))):
        monkeypatch.setattr(complex_module, "INDEX_CELL_CAP", INDEX_CELL_CAP)
        pair = index_pair(comp)
        size = len(pair.cells)
        monkeypatch.setattr(complex_module, "INDEX_CELL_CAP", size)
        assert np.array_equal(index_pair(comp).cells, pair.cells)
        for cap in (size - 1, size // 8):
            monkeypatch.setattr(complex_module, "INDEX_CELL_CAP", cap)
            with pytest.raises(BraidInputError) as err:
                index_pair(comp)
            assert str(err.value) == (
                f"index pair exceeds {cap} cells; the class is beyond this build's desk scale"
            )


def test_cell_codes_refuse_int64_overflow():
    # ten parallel skeleton strands at period 14: 23**14 > 2**63 cell states
    period = 14
    skeleton = fraction_braid(
        10,
        period,
        tuple(constant_strand(-0.9 + 0.18 * k, period) for k in range(10)),
        StrandPermutation(tuple(range(10))),
    )
    rb = make_relative([0.95] * period, skeleton)
    with pytest.raises(BraidInputError, match="int64"):
        ComplexGeometry(rb)


@pytest.mark.parametrize("period, dtype", [(6, np.int32), (7, np.int64)])
def test_cell_codes_are_int32_below_2_30_states(period, dtype):
    # ten parallel skeleton strands: 23**6 < 2**30 <= 23**7 cell states
    skeleton = fraction_braid(
        10,
        period,
        tuple(constant_strand(-0.9 + 0.18 * k, period) for k in range(10)),
        StrandPermutation(tuple(range(10))),
    )
    assert ComplexGeometry(make_relative([0.95] * period, skeleton)).dtype == dtype


def test_int32_codes_give_the_int64_index_pair(monkeypatch):
    """The large benchmark's completed class at period 6 has the same N, N^-
    and homology whether its codes are int32, as chosen, or forced to int64."""
    rb = cyclic_relative(*LARGE_CYCLIC[0])
    pair = index_pair(enumerate_component(rb))
    assert pair.cells.dtype == np.int32

    narrow_init = ComplexGeometry.__init__

    def wide_init(self, rb):
        narrow_init(self, rb)
        self.dtype, self.key_dtype = np.int64, np.uint64

    monkeypatch.setattr(ComplexGeometry, "__init__", wide_init)
    wide = index_pair(enumerate_component(rb))
    assert wide.cells.dtype == np.int64
    assert np.array_equal(wide.cells, pair.cells)
    assert np.array_equal(wide.in_exit, pair.in_exit)
    assert relative_homology(wide) == relative_homology(pair)


def cyclic_relative(inner, outer, ell):
    return _realize_cyclic(cyclic_spec(inner, outer, ell), None)[0]


def word_relative(letters, free):
    return realize(word_spec(word(3, letters), free), None)[0]


# classes as (id, builder): the saddle, the desk's proper cyclic and word classes
COMPONENT_CASES = (
    [("saddle", lambda: make_relative([0, 0], crossing_pair_skeleton()))]
    + [(f"cyclic{c}", lambda c=c: cyclic_relative(*c)) for c in DESK_CYCLIC]
    + [("word[s1 s2 s2 s1;0]", lambda: word_relative([1, 2, 2, 1], [0])),
       ("word[s2 s1 s2;1]", lambda: word_relative([2, 1, 2], [1]))]
)


@pytest.mark.parametrize("build", [b for _, b in COMPONENT_CASES],
                         ids=[name for name, _ in COMPONENT_CASES])
def test_component_matches_reference_dfs(build):
    comp = enumerate_component(build())
    cubes, cross = reference_component(comp.geometry)
    assert comp.top_cells.tolist() == sorted(int(np.dot(c, comp.geometry.strides)) for c in cubes)
    assert comp.crossing_number == cross


def test_component_cube_cap_is_exact(monkeypatch):
    rb = cyclic_relative((3, 2), (3, 1), 2)  # the twisted desk class, 180 cubes
    size = len(enumerate_component(rb).top_cells)
    monkeypatch.setattr(complex_module, "COMPONENT_CUBE_CAP", size)
    assert len(enumerate_component(rb).top_cells) == size
    monkeypatch.setattr(complex_module, "COMPONENT_CUBE_CAP", size - 1)
    with pytest.raises(BraidInputError, match="cube cap"):
        enumerate_component(rb)


IMPROPER_CASES = [
    ("cyclic[2/1,1,1/2]", lambda: cyclic_relative((2, 1), (1, 2), 1)),
    ("cyclic[0/1,0,1/1]", lambda: cyclic_relative((0, 1), (1, 1), 0)),
    ("word[s1 s1 s2 s2;2]", lambda: word_relative([1, 1, 2, 2], [2])),
    ("empty skeleton", lambda: make_relative(
        [0, 0], fraction_braid(0, 2, (), StrandPermutation(()))
    )),
    ("parallel strand", lambda: make_relative(
        [-0.25, -0.25], fraction_braid(1, 2, (constant_strand(0.5, 2),), StrandPermutation((0,)))
    )),
]


@pytest.mark.parametrize("build", [b for _, b in IMPROPER_CASES],
                         ids=[name for name, _ in IMPROPER_CASES])
def test_improper_witness_is_a_top_cell_over_the_pin(build):
    comp = enumerate_component(build())
    assert not comp.proper
    geo, witness = comp.geometry, comp.collapse_witness
    top = int(np.dot(witness["from_top_cell"], geo.strides))
    assert top in comp.top_cells
    slots = reference_slots(geo.rb.skeleton, geo.period)
    pinned = sum(
        (geo.ngaps + [str(v) for v in values].index(value)) * stride
        for (values, _), stride, value in zip(slots, geo.strides, witness["pinned_values"])
    )
    cells, in_exit = geo.closure(np.array([top]), ())
    assert pinned in cells and not in_exit.any()


@pytest.mark.parametrize("build", [b for _, b in COMPONENT_CASES + IMPROPER_CASES],
                         ids=[name for name, _ in COMPONENT_CASES + IMPROPER_CASES])
def test_geometry_tables_match_reference(build):
    geo = ComplexGeometry(build())
    prev_pos, next_pos, cross = reference_geometry_tables(geo)
    assert [row.tolist() for row in geo.prev_pos] == prev_pos
    assert [row.tolist() for row in geo.next_pos] == next_pos
    assert [table.tolist() for table in geo.cross] == cross
    slots = reference_slots(geo.rb.skeleton, geo.period)
    assert geo.values.tolist() == [[v * geo.den for v in values] for values, _ in slots]
    assert geo.owners.tolist() == [list(owners) for _, owners in slots]
    assert (geo.ngaps, geo.nstates) == (len(slots[0][0]) - 1, 2 * len(slots[0][0]) - 1)
    mids = [[(v[g] + v[g + 1]) / 2 for g in range(geo.ngaps)] for v, _ in slots]
    for (values, _), row in zip(slots, mids):
        assert all(values[g] < row[g] < values[g + 1] for g in range(geo.ngaps))
    for g in range(geo.ngaps):
        assert geo.representative([g] * geo.period) == [row[g] for row in mids]


def test_coincident_fixed_values_refused():
    # two skeleton strands swap through an exact contact at slot 1
    skeleton = fraction_braid(
        2, 2, ((snap(-0.5), snap(0.0)), (snap(0.5), snap(0.0))), StrandPermutation((1, 0))
    )
    with pytest.raises(TransversalityError, match="coincident fixed values at slot 1"):
        ComplexGeometry(make_relative([0.75, 0.75], skeleton))


def stabilized(rb: DiscreteRelativeBraid) -> DiscreteRelativeBraid:
    """The period-(d+1) braid of the stabilization rerun."""
    return DiscreteRelativeBraid(insert_duplicate_slot(rb.free), insert_duplicate_slot(rb.skeleton))


def assert_pair_matches_reference(comp):
    """N, N^-, the relative cells and the relative boundary are the reference's
    arrays byte for byte, or both refuse with the same message."""
    try:
        expected = reference_index_pair(comp)
    except BraidInputError as err:
        with pytest.raises(BraidInputError) as got:
            index_pair(comp)
        assert str(got.value) == str(err)
        return
    pair = index_pair(comp)
    rel, dims, bnd = replace(pair).chain_complex()
    cells, exit_cells, ref_rel, ref_dims, ref_bnd = expected
    assert bnd.shape == ref_bnd.shape
    assert bnd.has_canonical_format
    assert bnd.data.dtype == np.int8 and (bnd.data == 1).all()
    for got, want in [(pair.cells, cells), (pair.exit, exit_cells),
                      (rel, ref_rel), (dims, ref_dims),
                      (bnd.indptr, ref_bnd.indptr), (bnd.indices, ref_bnd.indices)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# the desk classes and the large benchmark's two twisted classes (the second
# refused at the cell cap at d+1), each at period d and d+1
LARGE_CYCLIC = [((3, 2), (3, 1), 2), ((4, 3), (3, 1), 2)]
PAIR_CASES = COMPONENT_CASES + [
    (f"cyclic{c}", lambda c=c: cyclic_relative(*c)) for c in LARGE_CYCLIC
]
PAIR_CASES = PAIR_CASES + [(f"{name}+1", lambda b=b: stabilized(b())) for name, b in PAIR_CASES]


@pytest.mark.parametrize("build", [b for _, b in PAIR_CASES], ids=[name for name, _ in PAIR_CASES])
def test_index_pair_matches_reference(build):
    assert_pair_matches_reference(enumerate_component(build()))


def test_relative_homology_spends_the_pair():
    pair = desk_pair((1, 2), (2, 1), 1)
    cells, in_exit = pair.cells, pair.in_exit
    betti = relative_homology(replace(pair))  # a shallow copy is spent instead
    assert pair.cells is cells and pair.in_exit is in_exit
    assert relative_homology(pair) == betti
    assert pair.cells is None and pair.in_exit is None


def test_route_homology_peak_memory():
    # the large benchmark's period-7 rerun, |N| = 1,024,996.  The bound is a
    # multiple of the arrays the route cannot do without, N with its exit mask
    # (5.1 MB) and the relative boundary (5.7 MB), so it scales with the pair.
    # From the index pair through coreduction the route peaked at 1.89 times
    # them when the bound was set; N kept through the homology reads 2.36, and
    # the boundary built through COO read 3.1
    rb = stabilized(cyclic_relative(*LARGE_CYCLIC[0]))
    tracemalloc.start()
    try:
        betti, _ = _homology_at(rb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert betti.as_dict() == {4: 1, 5: 1}
    pair = index_pair(enumerate_component(rb))
    needed = pair.cells.nbytes + pair.in_exit.nbytes
    _, _, bnd = pair.chain_complex()
    needed += bnd.data.nbytes + bnd.indices.nbytes + bnd.indptr.nbytes
    assert peak < 2.1 * needed, f"peak {peak / needed:.2f} times N and the boundary"


def _fixed_strands(letters) -> list[int]:
    """The strands a 3-strand word maps to themselves, the ones a free mark may take."""
    perm = permutation_of(word(3, letters))
    return [k for k in range(3) if perm(k) == k]


SHORT_MARKED_WORDS = (
    st.lists(st.sampled_from([1, 2, -1, -2]), min_size=1, max_size=4)
    .filter(_fixed_strands)
    .flatmap(lambda ls: st.tuples(st.just(ls), st.sampled_from(_fixed_strands(ls))))
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(SHORT_MARKED_WORDS, st.booleans())
def test_index_pair_matches_reference_on_short_words(marked, up):
    letters, free = marked
    rb = word_relative(letters, [free])
    comp = enumerate_component(stabilized(rb) if up else rb)
    assume(comp.proper)
    assert_pair_matches_reference(comp)


def test_validate_refuses_an_exit_set_missing_a_face():
    pair = desk_pair((1, 2), (2, 1), 1)
    geo = pair.geometry
    pair.validate()
    exit_cells = pair.exit
    cell = exit_cells[geo.gap_mask(exit_cells, 0)][0]
    face = cell + geo.ngaps * geo.strides[0]  # its low pin at slot 0
    in_exit = pair.in_exit.copy()
    in_exit[np.searchsorted(pair.cells, face)] = False
    with pytest.raises(AssertionError, match="exit set not closed under faces"):
        IndexPair(pair.component, pair.cells, in_exit).validate()
