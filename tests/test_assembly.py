"""One graded layout and one block placement (homalg.Layout,
place_families, block_shape_issues) for Tot, morphisms, homotopies,
cones and realizations, checked against dense assembly in
support.py, which uses none of them."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from support import (
    dense_morphism_matrix,
    dense_realized_differential,
    dense_total_differential,
    mat,
    padded_degrees,
    point_complex,
    random_twisted,
)

from mbflow import homalg, twisted
from mbflow.errors import ShapeMismatch, UnsupportedRing
from mbflow.examples import homotopy_square_fixture, standard_fixtures
from mbflow.flowcat import realize
from mbflow.homalg import (
    F2,
    ZZ,
    GradedChainComplex,
    IntegerMatrix,
    Layout,
    block_shape_issues,
    complex_from_ranks,
    direct_sum,
    dual_complex,
    homology,
    negate_complex,
    shift_complex,
)
from mbflow.twisted import (
    TwistedMorphism,
    _PieceLayout,
    identity_morphism,
    index_split,
    morphism_total_matrix,
    shift,
    totalize,
    twisted_from_parts,
    verify_homotopy_square,
)


def shifted_identity(t, a):
    """The identity of Tot(t) as a morphism to shift(t, a): blocks
    (i, i + a) of shift a, so every target layout differs."""
    s = shift(t, a)
    return TwistedMorphism(t, s, {
        (i, i + a): {m: IntegerMatrix.identity(c.dim(m))
                     for m in c.rank if c.dim(m)}
        for i, c in t.pieces.items()}, shift=a)


def cut_morphism(t, p):
    """The structure maps of t from the quotient at the cut p to the
    sub, as a chain map Q' -> S. Q' is the quotient one total degree
    down with every map negated, so D_S d = d D_Q' follows from D.D = 0
    on t. Its blocks leave the diagonal."""
    sub, quot = index_split(t, p)
    lowered = twisted_from_parts(
        t.ring,
        {i: shift_complex(negate_complex(c), -1)
         for i, c in quot.pieces.items()},
        {key: {m - 1: -blk for m, blk in fam.items()}
         for key, fam in quot.structure_maps.items()})
    return TwistedMorphism(lowered, sub, {
        (i, j): {m - 1: blk for m, blk in fam.items()}
        for (i, j), fam in t.structure_maps.items() if j <= p < i})


@pytest.mark.parametrize("ring", [ZZ, F2])
def test_tot_and_morphisms_match_dense_assembly(ring):
    rng = random.Random(20)
    crossing = 0
    for _ in range(110):
        t = random_twisted(rng, ring, max_generators=14, max_pieces=5)
        tot = totalize(t)
        for n in padded_degrees(t._tot.ranks):
            assert tot.d(n) == dense_total_differential(t, n), n
        morphisms = [shifted_identity(t, rng.choice((-2, 1, 3)))]
        for p in range(min(t.pieces), max(t.pieces)):
            m = cut_morphism(t, p)
            if m.source.pieces and m.target.pieces:
                morphisms.append(m)
                crossing += bool(m.blocks)
        for m in morphisms:
            for n in padded_degrees(m.source._tot.ranks):
                assert morphism_total_matrix(m, n) == \
                    dense_morphism_matrix(m, n), n
    assert crossing > 50


@pytest.mark.parametrize("name, f", standard_fixtures())
def test_realization_matches_object_level_assembly(name, f):
    t = realize(f)
    for n in padded_degrees(t._tot.ranks):
        assert t._tot.d(n) == dense_realized_differential(f, n), n


def test_homotopy_square_places_its_homotopy_once(monkeypatch):
    w = homotopy_square_fixture()
    calls = []
    orig = homalg.place_blocks

    def counted(rows, cols, placed):
        calls.append((rows, cols))
        return orig(rows, cols, placed)
    monkeypatch.setattr(homalg, "place_blocks", counted)
    assert verify_homotopy_square(w).holds
    # the morphisms' Tot matrices were placed when they were built
    assert len(calls) == 1


def test_morphism_places_its_blocks_once(monkeypatch):
    t = random_twisted(random.Random(3), ZZ, max_generators=14,
                       max_pieces=5)
    t._tot
    calls = []
    orig = twisted.place_families

    def counted(families, src, dst, lift):
        calls.append(lift)
        return orig(families, src, dst, lift)
    monkeypatch.setattr(twisted, "place_families", counted)
    m = identity_morphism(t)
    assert calls == [0]
    for n in padded_degrees(t._tot.ranks):
        morphism_total_matrix(m, n)
    assert calls == [0]


def test_layout_offsets_and_locate():
    seg = complex_from_ranks(ZZ, {0: 2, 1: 1}, {1: mat([[1], [-1]])})
    lay = Layout.of([("a", seg, 0), ("b", point_complex(ZZ), 1),
                     ("c", seg, 1)])
    assert dict(lay.ranks) == {0: 2, 1: 4, 2: 1}
    assert [lay.offset(1, k) for k in "abc"] == [0, 1, 2]
    assert [lay.locate(1, cell) for cell in range(4)] == \
        [("a", 0), ("b", 0), ("c", 0), ("c", 1)]
    for bad in (-1, 4):
        with pytest.raises(ShapeMismatch):
            lay.locate(1, bad)
    total = lay.complex()
    assert total == direct_sum([seg, shift_complex(point_complex(ZZ), 1),
                                shift_complex(seg, 1)])
    assert total.d(1).to_rows() == [[1, 0, 0, 0], [-1, 0, 0, 0]]
    assert total.d(2).to_rows() == [[0], [0], [1], [-1]]


def test_one_summand_layout_shares_the_matrices():
    seg = complex_from_ranks(ZZ, {0: 2, 1: 1}, {1: mat([[1], [-1]])})
    c = Layout.of([("x", seg, 3)]).complex()
    assert c.d(4) is seg.d(1)


def test_direct_sum_over_mixed_rings_is_refused():
    with pytest.raises(UnsupportedRing):
        direct_sum([point_complex(ZZ), point_complex(F2)])


def test_block_shape_issues_reports_shapes_and_missing_summands():
    pt, seg = point_complex(ZZ), complex_from_ranks(ZZ, {0: 1, 1: 1})
    src, dst = {0: (seg, 1)}, {1: (pt, 0)}
    label = "block ({},{})".format
    # lift -1: the block at degree 1 of summand 0 lands at degree
    # 1 + 1 - 1 - 0 = 1 of summand 1, which is empty there
    assert block_shape_issues([((0, 1), {0: mat([[1]]),
                                         1: IntegerMatrix.zero(0, 1)}),
                               ((0, 2), {}), ((5, 1), {})],
                              src, dst, -1, label) == [
        "block (0,2) references a missing summand",
        "block (5,1) references a missing summand"]
    assert block_shape_issues([((0, 1), {1: mat([[1]])})], src, dst, -1,
                              label) == [
        "block (0,1) at degree 1 is 1x1, expected 0x1"]


# ---------------------------------------------------------------------------
# sparse, far-apart degrees: a complex stores only where its cells are

# small chains placed at a base degree: a point, a circle, RP^2 and an
# interval, as (ranks, differentials) relative to the base
_CLUSTERS = [
    ({0: 1}, {}),
    ({0: 1, 1: 1}, {}),
    ({0: 1, 1: 1, 2: 1}, {2: [[2]]}),
    ({0: 2, 1: 1}, {1: [[1], [-1]]}),
]
_FAR = st.one_of(st.sampled_from([-3, 7, 10 ** 12, -10 ** 12]),
                 st.integers(-10 ** 12, 10 ** 12))


def _apart(bases):
    b = sorted(bases)
    return all(y - x >= 3 for x, y in zip(b, b[1:]))


@st.composite
def _sparse_complex(draw):
    """(ranks, differentials, zero degrees): clusters at far-apart bases,
    and degrees outside them that the input lists with rank 0."""
    bases = draw(st.sets(_FAR, min_size=1, max_size=4).filter(_apart))
    ranks, diffs = {}, {}
    for b in bases:
        rk, ds = draw(st.sampled_from(_CLUSTERS))
        ranks.update({b + n: r for n, r in rk.items()})
        diffs.update({b + n: mat(rows) for n, rows in ds.items()})
    zeros = draw(st.sets(_FAR, max_size=3)) - set(ranks)
    return ranks, diffs, zeros


def _shifted(ranks, s):
    return {n + s: r for n, r in ranks.items()}


def _summed(*rank_maps):
    return dict(sum((Counter(r) for r in rank_maps), Counter()))


def _keeps(c, want):
    """c stores exactly the nonzero degrees of want, with no zero rank,
    and a differential only between two of them."""
    assert dict(c.rank) == want
    assert all(r > 0 for r in c.rank.values())
    assert all(n in c.rank and n - 1 in c.rank for n in c.differential)


@given(_sparse_complex(), _FAR, st.sets(_FAR, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_sparse_degrees_are_kept_exactly(data, s, indices):
    ranks, diffs, zeros = data
    c = complex_from_ranks(ZZ, {**ranks, **dict.fromkeys(zeros, 0)}, diffs)
    _keeps(c, ranks)
    _keeps(shift_complex(c, s), _shifted(ranks, s))
    _keeps(negate_complex(c), ranks)
    _keeps(dual_complex(c), {-n: r for n, r in ranks.items()})
    _keeps(direct_sum([c, shift_complex(c, s)]),
           _summed(ranks, _shifted(ranks, s)))
    _keeps(c.with_ring(F2), ranks)
    t = twisted_from_parts(ZZ, {i: c for i in indices})
    _keeps(totalize(t), _summed(*(_shifted(ranks, i) for i in indices)))
    lay = _PieceLayout([("a", 0, c, 0), ("b", 0, c, s), ("c", 1, c, -s)])
    _keeps(lay.pieces[0], _summed(ranks, _shifted(ranks, s)))
    _keeps(lay.pieces[1], _shifted(ranks, -s))


@given(st.dictionaries(st.integers(-10 ** 15, 10 ** 15), st.integers(0, 3),
                       max_size=5))
@settings(max_examples=60, deadline=None)
def test_constructor_accepts_a_rank_in_any_degree(ranks):
    c = GradedChainComplex(ZZ, ranks)
    assert c.rank == ranks
    assert dict(homology(c).free) == {n: r for n, r in ranks.items() if r}
