"""Unit tests for twisted complexes and their operations."""

import random
import time
import tracemalloc
from collections import Counter

import pytest

from hypothesis import given, settings, strategies as st
from support import (
    circle_complex,
    mat,
    padded_degrees,
    point_complex,
    random_integral_complex,
    random_twisted,
    subspace_spectral_sequence,
)

from mbflow.errors import (
    ChainMapViolation,
    InvalidRange,
    InvariantViolation,
    ShapeMismatch,
    UnsupportedRing,
)
from mbflow import _fplinalg, twisted
from mbflow.examples import homotopy_square_fixture, sphere_z2
from mbflow.flowcat import FlowCategoryData, FlowObject, realize
from mbflow.homalg import (
    F2,
    ZZ,
    CoefficientRing,
    HomologySummary,
    IntegerMatrix,
    complex_from_ranks,
    first_nonzero,
    homology,
    integer_rank,
    shift_complex,
)
from mbflow.twisted import (
    HomotopySquareWitness,
    TwistedComplex,
    TwistedMorphism,
    _FieldFrame,
    cone,
    identity_morphism,
    index_split,
    morphism_total_matrix,
    quotient_sequence,
    shift,
    spectral_sequence,
    totalize,
    twisted_euler_characteristic,
    twisted_from_parts,
    validate,
    verify_homotopy_square,
)

F3 = CoefficientRing.prime_field(3)
F5 = CoefficientRing.prime_field(5)


def segment(ring=ZZ):
    return complex_from_ranks(ring, {0: 1, 1: 1}, {1: mat([[1]])})


def three_piece(ring=ZZ, top_sign=-1):
    """Pieces Z at 2, 1 and a segment at 0; delta(2,0) closes the MC
    identity exactly when top_sign = -1 (or over F2)."""
    return twisted_from_parts(
        ring,
        {2: point_complex(ring), 1: point_complex(ring), 0: segment(ring)},
        {(2, 1): {0: mat([[1]])},
         (1, 0): {0: mat([[1]])},
         (2, 0): {0: mat([[top_sign]])}})


def sphere_two_pieces(ring=ZZ):
    return twisted_from_parts(
        ring, {0: point_complex(ring), 2: point_complex(ring)}, {})


def flat_torus(ring=ZZ):
    return twisted_from_parts(
        ring, {0: circle_complex(ring), 1: circle_complex(ring)}, {})


# ---------------------------------------------------------------------------
# construction and validation


def test_structure_map_shape_checks():
    pt = point_complex(ZZ)
    with pytest.raises(ShapeMismatch):
        TwistedComplex(ZZ, {0: pt, 1: pt}, {(0, 1): {0: mat([[1]])}})
    with pytest.raises(ShapeMismatch):
        TwistedComplex(ZZ, {0: pt, 2: pt}, {(2, 1): {0: mat([[1]])}})
    with pytest.raises(ShapeMismatch):
        TwistedComplex(ZZ, {0: segment(), 1: pt},
                       {(1, 0): {0: mat([[1], [1]])}})


def test_validate_single_piece():
    t = twisted_from_parts(ZZ, {0: segment()}, {})
    assert validate(t).valid


def test_validate_two_pieces_needs_chain_map():
    # delta(1,0) between two segments preserves internal degree and is
    # part of D, so D.D = 0 forces it to anticommute with the internal
    # differentials
    seg = segment()
    ok = twisted_from_parts(
        ZZ, {1: seg, 0: seg},
        {(1, 0): {0: mat([[1]]), 1: mat([[-1]])}})
    assert validate(ok).valid
    bad = twisted_from_parts(
        ZZ, {1: seg, 0: seg},
        {(1, 0): {0: mat([[1]]), 1: mat([[1]])}})
    diag = validate(bad)
    assert not diag.valid
    assert diag.failure_piece == 1
    assert diag.failure_degree == 2


def test_validate_locates_perturbed_generator():
    diag = validate(three_piece(top_sign=1))
    assert not diag.valid
    assert (diag.failure_degree, diag.failure_piece,
            diag.failure_generator) == (2, 2, 0)
    # over F2 the same data closes up, since 1 = -1
    assert validate(three_piece(F2, top_sign=1)).valid


def test_totalize_rejects_invalid():
    with pytest.raises(InvariantViolation):
        totalize(three_piece(top_sign=1))


def test_totalize_single_index_is_shifted_piece():
    seg = segment()
    t = twisted_from_parts(ZZ, {3: seg}, {})
    tot = totalize(t)
    want = shift_complex(seg, 3)
    assert dict(tot.rank) == dict(want.rank)
    assert {n: d.to_rows() for n, d in tot.differential.items()} == \
        {n: d.to_rows() for n, d in want.differential.items()}


def test_totalize_two_indices_is_mapping_cone():
    # pieces Z at 1 and 0 joined by the identity: cone of id, acyclic
    t = twisted_from_parts(
        ZZ, {1: point_complex(ZZ), 0: point_complex(ZZ)},
        {(1, 0): {0: mat([[1]])}})
    tot = totalize(t)
    assert dict(tot.rank) == {0: 1, 1: 1}
    assert homology(tot).is_trivial()


def test_totalize_three_piece_fixture_acyclic():
    tot = totalize(three_piece())
    assert dict(tot.rank) == {0: 1, 1: 2, 2: 1}
    assert homology(tot).is_trivial()


def test_flat_torus_totalization():
    h = homology(totalize(flat_torus()))
    assert dict(h.free) == {0: 1, 1: 2, 2: 1}


def test_euler_characteristic_matches_totalization():
    for t in (three_piece(), flat_torus(), sphere_two_pieces()):
        tot = totalize(t)
        chi = sum((-1) ** n * tot.dim(n) for n in tot.rank)
        assert twisted_euler_characteristic(t) == chi


# ---------------------------------------------------------------------------
# shift


def test_shift_zero_is_identity():
    t = flat_torus()
    assert shift(t, 0) == t


def test_shift_preserves_total_complex_exactly():
    t = three_piece()
    for a in (3, -2, 7):
        s = shift(t, a)
        assert sorted(s.pieces) == [i + a for i in sorted(t.pieces)]
        lay_t, lay_s = t._tot, s._tot
        assert lay_t.ranks == lay_s.ranks
        for n in padded_degrees(lay_t.ranks):
            assert lay_t.d(n) == lay_s.d(n)


def test_sparse_layout_matches_dense_offsets():
    rng = random.Random(11)
    for _ in range(30):
        t = random_twisted(rng, ZZ, max_generators=14, max_pieces=5)
        lay = t._tot
        for n in padded_degrees(lay.ranks):
            at, cols = 0, []
            for i in range(-2, 7):  # beyond the pieces on both sides
                assert lay.offset(n, i) == at, (n, i)
                assert lay.prefix_dim(n, i - 1) == at
                dim = t.pieces[i].dim(n - i) if i in t.pieces else 0
                cols += [(i, k) for k in range(dim)]
                at += dim
            assert at == lay.ranks.get(n, 0)
            assert [lay.locate(n, c) for c in range(at)] == cols
            for bad in (-1, at):
                with pytest.raises(ShapeMismatch):
                    lay.locate(n, bad)


def test_shift_homology_unchanged():
    t = flat_torus()
    s = shift(t, -2)
    assert dict(homology(totalize(s)).free) == \
        dict(homology(totalize(t)).free)


def test_double_shift_composes():
    t = sphere_two_pieces()
    assert shift(shift(t, 2), -2) == t


# ---------------------------------------------------------------------------
# quotient sequences


def test_quotient_below_and_above_range():
    t = flat_torus()
    qs = quotient_sequence(t, -5)
    assert not qs.sub.pieces and qs.quotient == t
    assert qs.audit.exact
    assert not qs.audit.connecting_rank
    qs = quotient_sequence(t, 5)
    assert not qs.quotient.pieces and qs.sub == t
    assert qs.audit.exact


def test_quotient_sphere_fixture():
    qs = quotient_sequence(sphere_two_pieces(), 1)
    assert qs.sub.indices() == [0]
    assert qs.quotient.indices() == [2]
    assert qs.audit.exact
    # both homologies survive: the connecting map is forced to vanish
    assert not qs.audit.connecting_rank


def test_quotient_three_piece_connecting_map():
    # sub = pieces {0,1} has H_1 = Z, quotient = piece 2 has H_2 = Z;
    # the totalization is acyclic, so the connecting map is an iso
    qs = quotient_sequence(three_piece(), 1)
    assert qs.audit.exact
    assert dict(qs.audit.connecting_rank) == {2: 1}


def test_quotient_audit_over_f2_and_f3():
    for ring in (F2, F3):
        t = three_piece(ring) if ring != F2 else three_piece(F2, top_sign=1)
        for p in (-1, 0, 1, 2):
            qs = quotient_sequence(t, p)
            assert qs.audit.exact, qs.audit.failures


def test_quotient_sequence_random_field():
    rng = random.Random(11)
    for _ in range(25):
        t = random_twisted(rng, F2, max_generators=10)
        assert validate(t).valid
        cut = rng.randrange(-1, 5)
        qs = quotient_sequence(t, cut)
        assert qs.audit.exact, qs.audit.failures


def test_quotient_sequence_random_integral():
    rng = random.Random(7)
    for _ in range(12):
        t = random_twisted(rng, ZZ, max_generators=8)
        assert validate(t).valid
        qs = quotient_sequence(t, rng.randrange(0, 4))
        assert qs.audit.exact, qs.audit.failures


def _window_rows(x, a, rows):
    """Rows a .. a + rows - 1 of x, as chains of a window."""
    return IntegerMatrix(rows, x.cols, {(i - a, j): v
                                        for (i, j), v in x.entries.items()
                                        if a <= i < a + rows})


def _into(x, a, rows):
    """Chains x of a window starting at a, as chains of `rows` cells."""
    return IntegerMatrix(rows, x.cols, {(i + a, j): v
                                        for (i, j), v in x.entries.items()})


def _mod(v, p):
    """v mod p, or v itself over Z (p None)."""
    return v % p if p else v


def _is_zero(m, p):
    return first_nonzero([(0, m)], p) is None


def _check_field_frame(c, fr=None, lo=None):
    """fr frames c as the window of fr.complex from lo[n] on (c itself
    by default), over F_p or, for Z, over Q."""
    p = c.ring.p
    fr = _FieldFrame(c) if fr is None else fr
    whole = fr.complex
    h = homology(c)
    for n in whole.rank:
        a = 0 if lo is None else lo.get(n, 0)
        b = a + c.dim(n)
        reps = fr.reps(n)
        k = reps.cols
        assert reps.rows == whole.dim(n)
        assert k == fr.rank(n) == h.free_rank(n)
        assert all(type(v) is int for v in reps.entries.values())
        assert all(i < b for i, _ in reps.entries)
        assert _is_zero(c.d(n) @ _window_rows(reps, a, c.dim(n)), p)
        assert fr.coords(n, reps) == IntegerMatrix.identity(k)
        # coordinates are linear (mod p) and blind to boundaries and to
        # the rows before the window
        bnd = _into(c.d(n + 1), a, whole.dim(n))
        mix = IntegerMatrix(k, 2, {(i, j): v for i in range(k)
                                   for j in range(2)
                                   if (v := _mod((i + 1) * (1 - 2 * j), p))})
        glue = IntegerMatrix(bnd.cols, 2, {(i, 1): -2
                                           for i in range(bnd.cols)})
        front = IntegerMatrix(whole.dim(n), 2, {(i, 0): 1 for i in range(a)})
        got = fr.coords(n, reps @ mix + bnd @ glue + front)
        assert all(type(v) is int for v in got.entries.values())
        assert _is_zero(got - mix, p)
        # a row can turn nonzero during the walk: a boundary less c times
        # a representative, where c is its entry at that one's top, is
        # zero there until the boundary is cleared
        tops = [max(i for i, j in reps.entries if j == q) for q in range(k)]
        pairs = [(m, q, v) for m in range(bnd.cols)
                 for q, top in enumerate(tops) if (v := _mod(bnd[top, m], p))]
        if pairs:
            x = bnd @ IntegerMatrix(bnd.cols, len(pairs), {
                (m, r): 1 for r, (m, _, _) in enumerate(pairs)})
            want = IntegerMatrix(k, len(pairs), {
                (q, r): v for r, (_, q, v) in enumerate(pairs)})
            assert _is_zero(fr.coords(n, x - reps @ want) + want, p)
        d = c.d(n)
        if not _is_zero(d, p):
            j = min(j for (_, j), v in d.entries.items() if _mod(v, p))
            with pytest.raises(InvariantViolation, match="not a cycle"):
                fr.coords(n, IntegerMatrix(whole.dim(n), 1, {(a + j, 0): 1}))
        if b < whole.dim(n):
            # past the window: an entry counts unless it is 0 mod p
            with pytest.raises(InvariantViolation, match="leaves the window"):
                fr.coords(n, IntegerMatrix(whole.dim(n), 1, {(b, 0): 1}))
            if p:
                assert fr.coords(n, IntegerMatrix(whole.dim(n), 1,
                                                  {(b, 0): p})) \
                    == IntegerMatrix.zero(k, 1)


def _check_frames_at_every_cut(t):
    """The frame of Tot from its own reductions, and the sub and quotient
    frames as windows of Tot's reductions at every cut of t."""
    tot = totalize(t)
    _check_field_frame(tot)
    lay = t._tot
    for p in range(min(t.pieces) - 1, max(t.pieces) + 1):
        sub, quot = (totalize(s) for s in index_split(t, p))
        cut = {n: lay.prefix_dim(n, p) for n in lay.ranks}
        _check_field_frame(sub, _FieldFrame(tot, hi=cut))
        _check_field_frame(quot, _FieldFrame(tot, lo=cut), cut)


def test_field_frame_from_column_reductions():
    # a complex's own reductions, and the sub and quotient windows of
    # Tot's reductions at every cut
    rng = random.Random(5)
    for ring in (F2, F3, F5):
        for _ in range(15):
            _check_frames_at_every_cut(random_twisted(rng, ring, 14, 5))


def test_integral_frame_on_reduced_complex():
    # over Z the frame is over Q, read off the same column reductions:
    # random integral complexes, and Tot of random twisted complexes
    # over Z with its sub and quotient windows at every cut
    rng = random.Random(3)
    for _ in range(40):
        _check_field_frame(random_integral_complex(rng)[0])
    for _ in range(15):
        _check_frames_at_every_cut(random_twisted(rng, ZZ, 14, 5))


def test_rational_frame_scales_coordinates_to_integers():
    # H_1 = Z^2 / (1, 2): over Q the class of e_1 is -1/2 that of e_0,
    # and the coordinates of (e_0, e_1) come back doubled
    c = complex_from_ranks(ZZ, {1: 2, 2: 1}, {2: mat([[1], [2]])})
    fr = _FieldFrame(c)
    assert fr.reps(1) == mat([[1], [0]])
    assert fr.coords(1, IntegerMatrix.identity(2)) == mat([[2, -1]])
    # the representative is scaled to a primitive integer column
    c = complex_from_ranks(ZZ, {0: 2, 1: 3}, {1: mat([[2, 0, 1], [0, 2, 1]])})
    fr = _FieldFrame(c)
    assert fr.reps(1) == mat([[-1], [-1], [2]])
    assert fr.coords(1, mat([[1], [1], [-2]])) == mat([[-1]])


def test_quotient_sequence_random_integral_every_cut():
    rng = random.Random(19)
    for _ in range(10):
        t = random_twisted(rng, ZZ, max_generators=14, max_pieces=5)
        for cut in range(-1, 5):
            qs = quotient_sequence(t, cut)
            assert qs.audit.exact, (cut, qs.audit.failures)


def _is_cycle_with_top(d, col, j, p):
    """Whether the column col ({row: value}) has top entry 1 in row j
    and d col = 0 (mod p; over Q when p is None)."""
    image = {}
    for (i, k), x in d.entries.items():
        if k in col:
            image[i] = image.get(i, 0) + x * col[k]
    return max(col) == j and col[j] == 1 and \
        not any(x % p if p else x for x in image.values())


def _check_window_reduction(c, whole, lo, hi, p):
    """The column reductions of c are the window of cells lo[n] ..
    hi[n] - 1 of the larger reductions whole, rows and columns alike:
    its R and low, and for a prefix (a sub) its V as well, except on the
    columns that whole cleared (the lows of its next differential),
    where whole's V_j is a cycle with top entry 1 at j."""
    for n in c.rank:
        r, v, low = whole.get(n, ({}, {}, {}))
        a, b, below = lo.get(n, 0), hi.get(n, 0), lo.get(n - 1, 0)

        def window(cols, rows_from):
            return {j - a: {i - rows_from: x for i, x in col.items()
                            if i >= rows_from}
                    for j, col in cols.items() if a <= j < b}
        got_r = {j: col for j, col in window(r, below).items() if col}
        got_low = {j - a: i - below for j, i in low.items()
                   if a <= j < b and i >= below}
        want_r, want_v, want_low = _fplinalg.reduce_columns(c.d(n), p)
        assert (got_r, got_low) == (want_r, want_low), n
        if not lo:
            cleared = set(whole.get(n + 1, ({}, {}, {}))[2].values())
            assert {j: col for j, col in window(v, 0).items()
                    if j not in cleared} == \
                {j: col for j, col in want_v.items() if j not in cleared}, n
            for j in cleared:
                if j < b:
                    assert _is_cycle_with_top(c.d(n), v.get(j, {j: 1}), j,
                                              p), (n, j)


@given(st.integers(0, 2 ** 32), st.sampled_from([None, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_cut_reduction_splits_into_sub_and_quotient_reductions(seed, p):
    # one column reduction of Tot serves every cut: the sub's reductions
    # are its prefix, the quotient's its lower right block, and the
    # pairs of Tot are those of the two plus the ones across the cut
    ring = ZZ if p is None else CoefficientRing.prime_field(p)
    t = random_twisted(random.Random(seed), ring, max_generators=14,
                       max_pieces=5)
    lay = t._tot
    whole, full = totalize(t).column_reductions, dict(lay.ranks)
    for n, d in lay.differentials.items():
        rank = integer_rank(d) if p is None else _fplinalg.rank(d, p)
        assert len(whole[n][2]) == rank
    for cut_at in range(min(t.pieces) - 1, max(t.pieces) + 1):
        cut = {n: lay.prefix_dim(n, cut_at) for n in lay.ranks}
        sub, quot = (totalize(s) for s in index_split(t, cut_at))
        _check_window_reduction(sub, whole, {}, cut, p)
        _check_window_reduction(quot, whole, cut, full, p)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_integral_connecting_ranks_match_homology_over_q(seed):
    # exactness over Q: dim H_n(tot) = (dim H_n(sub) - rk d_{n+1})
    # + (dim H_n(quot) - rk d_n) for the connecting maps
    # d_n: H_n(quot) -> H_{n-1}(sub); the dimensions come from homology,
    # whose reductions have no cut
    t = random_twisted(random.Random(seed), ZZ, max_generators=14,
                       max_pieces=5)
    h_tot, lay = homology(totalize(t)), t._tot
    for p in range(min(t.pieces) - 1, max(t.pieces) + 1):
        qs = quotient_sequence(t, p)
        assert qs.audit.exact, qs.audit.failures
        h_sub = homology(totalize(qs.sub))
        h_quot = homology(totalize(qs.quotient))
        rk = qs.audit.connecting_rank
        for n in padded_degrees(lay.ranks):
            assert h_tot.free_rank(n) == \
                h_sub.free_rank(n) - rk.get(n + 1, 0) + \
                h_quot.free_rank(n) - rk.get(n, 0), (p, n)


@given(st.integers(0, 2 ** 32), st.sampled_from([None, 2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_field_connecting_ranks_count_pairs_across_the_cut(seed, p):
    # ker i_* = im of the connecting map: its rank at a cut is the number
    # of persistence pairs (sigma in degree n - 1, tau in degree n) of
    # Tot with filt sigma <= cut < filt tau; over Z (p None) those of
    # the reduction over Q
    ring = ZZ if p is None else CoefficientRing.prime_field(p)
    t = random_twisted(random.Random(seed), ring, max_generators=14,
                       max_pieces=5)
    lay = t._tot
    pairs = []
    for n in sorted(lay.ranks):
        _, _, low = _fplinalg.reduce_columns(lay.d(n), p)
        pairs += [(n, lay.locate(n - 1, sigma)[0], lay.locate(n, tau)[0])
                  for tau, sigma in low.items()]
    for cut in range(min(t.pieces) - 1, max(t.pieces) + 1):
        audit = quotient_sequence(t, cut).audit
        assert audit.exact, audit.failures
        want = Counter(n for n, a, b in pairs if a <= cut < b)
        assert dict(audit.connecting_rank) == dict(want), cut


def test_audit_checks_three_positions_per_degree_of_tot():
    # an empty sub or quotient brings in no degree of its own
    for ring in (ZZ, F2, F3):
        rng = random.Random(29)
        for _ in range(20):
            t = random_twisted(rng, ring, max_generators=14, max_pieces=5)
            want = 3 * len(totalize(t).rank)
            for cut in range(min(t.pieces) - 1, max(t.pieces) + 1):
                audit = quotient_sequence(t, cut).audit
                assert audit.exact, audit.failures
                assert audit.positions_checked == want, (ring, cut)


def test_field_audit_of_a_wide_degree_with_no_differentials():
    # 1,000 (then 2,000) cells in one piece and 1 in the other over F_2:
    # every cell is a class, and a chain's coordinates cost its entries,
    # not the width of the degree
    def wide(cells):
        pieces = {0: complex_from_ranks(F2, {0: cells}),
                  1: complex_from_ranks(F2, {0: 1})}
        return twisted_from_parts(F2, pieces)
    t = wide(1000)
    start = time.perf_counter()
    audit = quotient_sequence(t, 0).audit
    assert time.perf_counter() - start < 3.0
    assert audit.exact, audit.failures
    assert audit.positions_checked == 6 and not audit.connecting_rank
    t = wide(2000)
    tracemalloc.start()
    try:
        audit = quotient_sequence(t, 0).audit
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
    assert audit.exact, audit.failures
    assert audit.positions_checked == 6 and not audit.connecting_rank


def test_integral_audit_of_a_wide_degree_with_no_differentials():
    # 2,000 cells in one piece and 1 in the other over Z: each induced
    # map is ranked by sparse elimination over Q, not a dense one cubic
    # in the width of the degree
    pieces = {0: complex_from_ranks(ZZ, {0: 2000}),
              1: complex_from_ranks(ZZ, {0: 1})}
    t = twisted_from_parts(ZZ, pieces)
    start = time.perf_counter()
    audit = quotient_sequence(t, 0).audit
    assert time.perf_counter() - start < 3.0
    assert audit.exact, audit.failures
    assert audit.positions_checked == 6 and not audit.connecting_rank


def test_integral_audit_of_a_dense_differential_with_no_unit():
    # a 15 x 15 d_1 with entries in {-3, -2, 2, 3} and zeros has no unit
    # to cancel; the audit reads Tot's column reduction over Q and runs
    # no Smith form on it
    rng = random.Random(11)
    d = mat([[rng.choice((-3, -2, 0, 2, 3)) for _ in range(15)]
             for _ in range(15)])
    t = twisted_from_parts(ZZ, {0: complex_from_ranks(ZZ, {0: 15, 1: 15},
                                                      {1: d}),
                                1: point_complex(ZZ)})
    start = time.perf_counter()
    audit = quotient_sequence(t, 0).audit
    assert time.perf_counter() - start < 3.0
    assert audit.exact, audit.failures
    assert audit.positions_checked == 6 and not audit.connecting_rank


def _sphere_circle_point():
    # S^2 as an equator and two poles, with a circle at index 0 and a
    # point at index 1 besides; cut at 0, H_0 and H_1 of the sub, H_0
    # and H_2 of the quotient are all nonzero, and the connecting map
    # sends H_2 of the quotient onto the equator's loop
    s = sphere_z2()
    return realize(FlowCategoryData(ZZ, s.objects + (
        FlowObject("c", 0, 0, circle_complex(ZZ)),
        FlowObject("q", 1, 0, point_complex(ZZ))), s.correspondences))


@pytest.mark.parametrize("frame, n, rows, failures", [
    # H_0(sub) -> H_0(tot) hits the point of the quotient
    ("tot", 0, [[1, 0], [0, 1], [1, 0]], ("pi.iota nonzero on H_0",)),
    # ... or loses the circle's component
    ("tot", 0, [[1, 0], [0, 0], [0, 0]],
     ("rank defect at H_0(total)", "rank defect at H_0(sub)")),
    # H_2(tot) -> H_2(quot) meets the pole the connecting map sees
    ("quot", 2, [[1], [1]], ("connecting.pi nonzero on H_2",)),
    # the connecting map H_2(quot) -> H_1(sub) vanishes
    ("sub", 1, [[0, 0], [0, 0]],
     ("rank defect at H_1(sub)", "rank defect at H_2(quotient)")),
    # H_1(sub) -> H_1(tot) keeps the equator's loop, which bounds
    ("tot", 1, [[1, 1]], ("iota.connecting nonzero into H_1",)),
])
def test_exactness_audit_reports_corrupted_coordinates(monkeypatch, frame,
                                                       n, rows, failures):
    # each audit line fires once: one frame's coordinates in one degree
    # are replaced by a matrix of the same shape
    t = _sphere_circle_point()
    assert quotient_sequence(t, 0).audit.exact
    coords = _FieldFrame.coords

    def corrupted(self, degree, cycles):
        got = coords(self, degree, cycles)
        role = ("quot" if self._lo is not None else
                "sub" if self._hi is not None else "tot")
        if (role, degree) != (frame, n):
            return got
        assert (got.rows, got.cols) == (len(rows), len(rows[0]))
        return mat(rows)
    monkeypatch.setattr(_FieldFrame, "coords", corrupted)
    audit = quotient_sequence(t, 0).audit
    assert (audit.exact, audit.failures) == (False, failures)


# ---------------------------------------------------------------------------
# morphisms and cones


def test_morphism_must_be_chain_map():
    seg = segment()
    t = twisted_from_parts(ZZ, {0: seg}, {})
    with pytest.raises(ChainMapViolation):
        TwistedMorphism(t, t, {(0, 0): {0: mat([[1]]), 1: mat([[0]])}})


def test_chain_map_violation_names_the_generator():
    # M_0 D_1 - D_1 M_1 = 1 on the 1-cell of the segment
    seg = segment()
    t = twisted_from_parts(ZZ, {0: seg}, {})
    with pytest.raises(ChainMapViolation) as exc:
        TwistedMorphism(t, t, {(0, 0): {0: mat([[1]]), 1: mat([[0]])}})
    assert str(exc.value) == ("morphism fails M.D = D.M on generator 0 of "
                              "piece 0 in total degree 1")
    # over F_3, 1 - 4 vanishes on piece 0 and 1 - 3 does not on piece 1,
    # whose 1-cell sits in total degree 2
    two = twisted_from_parts(F3, {0: segment(F3), 1: segment(F3)}, {})
    with pytest.raises(ChainMapViolation) as exc:
        TwistedMorphism(two, two, {(0, 0): {0: mat([[1]]), 1: mat([[4]])},
                                   (1, 1): {0: mat([[1]]), 1: mat([[3]])}})
    assert str(exc.value).endswith("generator 0 of piece 1 in total degree 2")


def test_morphism_monotonicity_gate():
    pt = point_complex(ZZ)
    lo = twisted_from_parts(ZZ, {0: pt}, {})
    hi = twisted_from_parts(ZZ, {1: pt}, {})
    with pytest.raises(ShapeMismatch):
        TwistedMorphism(lo, hi, {(0, 1): {0: mat([[1]])}})
    # shift 1 widens the allowed pattern; the block lowers internal
    # degree by 1, landing the generator in the same total degree
    m = TwistedMorphism(lo, hi, {(0, 1): {0: mat([], 1)}}, shift=1)
    assert morphism_total_matrix(m, 0).is_zero()


def test_morphism_block_naming_a_missing_piece_is_a_shape_mismatch():
    # a block that is not stored reads as zero, shaped by its pieces; a
    # piece that is not there has no shape
    c12 = homotopy_square_fixture().c12
    assert c12.block(1, 0, 0).is_zero()
    with pytest.raises(ShapeMismatch, match=r"block \(0,9\) references"):
        c12.block(0, 9, 0)
    with pytest.raises(ShapeMismatch, match=r"block \(9,0\) references"):
        c12.block(9, 0, 0)


def test_cone_of_identity_is_acyclic():
    c = cone(identity_morphism(sphere_two_pieces()))
    assert c.indices() == [0, 1, 2, 3]
    assert homology(totalize(c)).is_trivial()
    assert validate(c).valid


def test_cone_of_zero_splits():
    t = sphere_two_pieces()
    c = cone(TwistedMorphism(t, t, {}))
    h = homology(totalize(c))
    assert dict(h.free) == {0: 1, 1: 1, 2: 1, 3: 1}


def test_cone_with_shift_merges_pieces():
    t = sphere_two_pieces()
    m = identity_morphism(t)
    m = TwistedMorphism(t, t, m.blocks, shift=1)
    c = cone(m)
    # source re-enters at i + 2 with internal degrees lowered by the
    # shift: piece 2 hosts the target point in degree 0 and the source
    # point in degree -1, keeping the suspended total degree 1
    assert c.indices() == [0, 2, 4]
    assert dict(c.piece(2).rank) == {-1: 1, 0: 1}
    assert homology(totalize(c)).is_trivial()


def test_cone_chain_isomorphic_to_total_mapping_cone():
    # compare against the cone of the assembled map on totalizations,
    # built by hand, via an explicit basis permutation
    t = three_piece()
    m = identity_morphism(t)
    c = totalize(cone(m))
    tot = totalize(t)
    for n in padded_degrees(tot.rank):
        # cone of id: C_n = tot_n + tot_{n-1}
        assert c.dim(n) == tot.dim(n) + tot.dim(n - 1)
    assert homology(c).is_trivial()


def test_cone_quotient_roundtrip_recovers_both_halves():
    src = twisted_from_parts(ZZ, {0: circle_complex(ZZ)}, {})
    dst = twisted_from_parts(ZZ, {0: point_complex(ZZ)}, {})
    m = TwistedMorphism(src, dst, {(0, 0): {0: mat([[1]])}})
    c = cone(m)
    qs = quotient_sequence(c, 0)
    # the sub is the untouched target; the quotient is the suspension
    # of the source: same pieces one index up, differentials negated,
    # so its homology is the source homology moved up one degree
    assert qs.sub == dst
    assert qs.quotient.indices() == [1]
    assert dict(qs.quotient.piece(1).rank) == {0: 1, 1: 1}
    h_src = homology(totalize(src))
    h_quot = homology(totalize(qs.quotient))
    assert dict(h_quot.free) == {n + 1: r for n, r in h_src.free.items()}
    assert qs.audit.exact


def test_cone_source_differentials_negated():
    seg = segment()
    src = twisted_from_parts(ZZ, {0: seg}, {})
    m = identity_morphism(src)
    c = cone(m)
    assert c.piece(1).d(1).to_rows() == [[-1]]
    assert c.piece(0).d(1).to_rows() == [[1]]
    assert homology(totalize(c)).is_trivial()


def test_cone_random_morphisms_stay_valid():
    rng = random.Random(23)
    for _ in range(10):
        t = random_twisted(rng, F2, max_generators=8)
        c = cone(identity_morphism(t))
        assert validate(c).valid
        assert homology(totalize(c)).is_trivial()


# ---------------------------------------------------------------------------
# homotopy squares


def test_homotopy_square_trivial():
    t = sphere_two_pieces()
    e = identity_morphism(t)
    w = HomotopySquareWitness(e, e, e, e, {})
    assert verify_homotopy_square(w).holds


def test_homotopy_square_negated_edge_fails():
    t = sphere_two_pieces()
    e = identity_morphism(t)
    neg = TwistedMorphism(t, t, {
        (i, i): {m: -blk for m, blk in fam.items()}
        for (i, _), fam in e.blocks.items()})
    v = verify_homotopy_square(HomotopySquareWitness(e, e, e, neg, {}))
    assert not v.holds
    assert v.failure_degree == 0


def test_homotopy_square_nontrivial_witness():
    # corner complex: piece 1 = point (e), piece 0 = two generators
    # b0, b1 in degrees 0, 1 with zero differential; delta sends e to b0
    two = complex_from_ranks(ZZ, {0: 1, 1: 1})
    t = twisted_from_parts(ZZ, {1: point_complex(ZZ), 0: two},
                           {(1, 0): {0: mat([[1]])}})
    ident = identity_morphism(t)
    # phi: e -> b1 is a chain morphism; c34 = id - phi
    phi_block = {(1, 0): {0: mat([[1]])}}
    c34 = TwistedMorphism(t, t, {
        **ident.blocks, (1, 0): {0: mat([[-1]])}})
    # H: b0 -> b1 satisfies DH + HD = id - c34 = phi
    witness = {(0, 0): {0: mat([[1]])}}
    w = HomotopySquareWitness(ident, ident, ident, c34, witness)
    assert verify_homotopy_square(w).holds
    # flipping the sign of H breaks it, located at e
    wrong = HomotopySquareWitness(ident, ident, ident, c34,
                                  {(0, 0): {0: mat([[-1]])}})
    v = verify_homotopy_square(wrong)
    assert not v.holds
    assert (v.failure_degree, v.failure_piece) == (1, 1)


def test_homotopy_square_checks_its_blocks_at_construction():
    # a diagonal block naming a missing piece, or of the wrong shape, is
    # refused by the witness itself, before any verification
    ident = identity_morphism(sphere_two_pieces())
    with pytest.raises(ShapeMismatch, match="missing summand"):
        HomotopySquareWitness(ident, ident, ident, ident,
                              {(0, 7): {0: mat([[1]])}})
    with pytest.raises(ShapeMismatch, match=r"homotopy block \(0,0\)"):
        HomotopySquareWitness(ident, ident, ident, ident,
                              {(0, 0): {0: mat([[1, 1]])}})


def test_homotopy_square_rejects_mismatched_corners():
    t = sphere_two_pieces()
    s = flat_torus()
    with pytest.raises(ShapeMismatch):
        HomotopySquareWitness(identity_morphism(t), identity_morphism(t),
                              identity_morphism(t), identity_morphism(s), {})


# ---------------------------------------------------------------------------
# spectral sequence


def test_spectral_sequence_requires_field():
    with pytest.raises(UnsupportedRing):
        spectral_sequence(flat_torus(), 2)


def test_spectral_sequence_flat_torus():
    ss = spectral_sequence(flat_torus(F2), 5)
    first = ss.pages[0]
    assert dict(first.dims) == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert not first.differentials
    assert ss.collapsed_at == 1
    assert dict(ss.limit) == {0: 1, 1: 2, 2: 1}


def test_spectral_sequence_morse_rp2_mod2():
    pt = point_complex(F2)
    t = twisted_from_parts(F2, {0: pt, 1: pt, 2: pt},
                           {(2, 1): {0: mat([[2]])},
                            (1, 0): {0: mat([[0]])}})
    ss = spectral_sequence(t, 4)
    assert ss.collapsed_at == 1
    assert dict(ss.limit) == {0: 1, 1: 1, 2: 1}


def test_spectral_sequence_single_index():
    t = twisted_from_parts(F2, {3: circle_complex(F2)}, {})
    ss = spectral_sequence(t, 3)
    assert dict(ss.pages[0].dims) == {(3, 0): 1, (3, 1): 1}
    assert dict(ss.limit) == {3: 1, 4: 1}
    assert ss.collapsed_at == 1


def test_spectral_sequence_nonzero_differential():
    # two points joined by the identity: d1 kills both classes
    t = twisted_from_parts(F2, {1: point_complex(F2), 0: point_complex(F2)},
                           {(1, 0): {0: mat([[1]])}})
    ss = spectral_sequence(t, 3)
    first = ss.pages[0]
    assert dict(first.dims) == {(0, 0): 1, (1, 0): 1}
    assert first.differentials[(1, 0)].to_rows() == [[1]]
    assert not ss.limit
    assert ss.collapsed_at == 2


def test_spectral_sequence_d2_jump():
    # pieces 2 and 0: the structure map raises internal degree by one
    # and first acts on page 2
    t = twisted_from_parts(F2, {2: point_complex(F2),
                                0: complex_from_ranks(F2, {1: 1})},
                           {(2, 0): {0: mat([[1]])}})
    ss = spectral_sequence(t, 4)
    assert dict(ss.pages[0].dims) == {(2, 0): 1, (0, 1): 1}
    assert not ss.pages[0].differentials
    second = ss.pages[1]
    assert second.differentials[(2, 0)].to_rows() == [[1]]
    assert not ss.limit
    assert ss.collapsed_at == 3


def test_spectral_sequence_convergence_random():
    rng = random.Random(42)
    for ring in (F2, F3):
        for _ in range(10):
            t = random_twisted(rng, ring, max_generators=10)
            ss = spectral_sequence(t, 6)  # the audit runs internally
            h = homology(totalize(t))
            assert {n: r for n, r in ss.limit.items()} == dict(h.free)


def test_spectral_sequence_max_page_cap():
    ss = spectral_sequence(flat_torus(F2), 1)
    assert len(ss.pages) == 1


def test_spectral_sequence_refuses_max_page_below_one():
    for max_page in (0, -3):
        with pytest.raises(InvalidRange, match="max_page must be at least 1"):
            spectral_sequence(flat_torus(F2), max_page)


@given(st.integers(0, 2 ** 32), st.sampled_from((F2, F3, F5)))
@settings(max_examples=60, deadline=None)
def test_spectral_sequence_matches_subspace_reference(seed, ring):
    t = random_twisted(random.Random(seed), ring, max_generators=14,
                       max_pieces=5)
    ss = spectral_sequence(t, 6)
    pages, limit, collapsed_at = subspace_spectral_sequence(t, 6)
    assert len(ss.pages) == len(pages)
    for page, (dims, ranks) in zip(ss.pages, pages):
        assert dict(page.dims) == dims, page.number
        assert {spot: _fplinalg.rank(m, ring.p)
                for spot, m in page.differentials.items()} == ranks
    assert ss.collapsed_at == collapsed_at
    assert dict(ss.limit) == limit
    # the persistence basis, cell by cell: page r's generators at a spot
    # are its cells, in cell order, that no pair of gap < r has taken,
    # and d_r holds a 1 at (sigma's place, tau's place) for each pair
    # (tau, sigma) of gap r and nothing else
    lay = t._tot
    gap, arrows = {}, []
    for n in sorted(lay.ranks):
        _, _, low = _fplinalg.reduce_columns(lay.d(n), ring.p)
        for tau, sigma in low.items():
            b, a = lay.locate(n, tau)[0], lay.locate(n - 1, sigma)[0]
            gap[n, tau] = gap[n - 1, sigma] = b - a
            arrows.append((b - a, (b, n - b), (n, tau), (a, n - 1 - a),
                           (n - 1, sigma)))
    for page in ss.pages:
        r, place, alive = page.number, {}, Counter()
        for n in sorted(lay.ranks):
            for cell in range(lay.dim(n)):
                if gap.get((n, cell), r) >= r:
                    i = lay.locate(n, cell)[0]
                    place[n, cell] = alive[n, i]
                    alive[n, i] += 1
        want = {}
        for g, src, tau, dst, sigma in arrows:
            if g == r:
                want.setdefault(src, {})[place[sigma], place[tau]] = 1
        assert {spot: dict(m.entries) for spot, m in
                page.differentials.items()} == want, r
        for src, m in page.differentials.items():
            dst = (src[0] - r, src[1] + r - 1)
            assert (m.rows, m.cols) == (page.dims[dst], page.dims[src])


def test_spectral_sequence_audits_a_corrupted_page_rank(monkeypatch):
    # on S^2 over F_2, d_2 has rank 1; reported as 2, page 3 cannot be
    # the homology of page 2
    t = realize(sphere_z2(F2))
    rank = _fplinalg.rank
    monkeypatch.setattr(_fplinalg, "rank", lambda d, p: rank(d, p) + 1)
    with pytest.raises(InvariantViolation) as exc:
        spectral_sequence(t, 5)
    assert str(exc.value) == \
        "page 3 at (2,0) has dimension 1, homology of page 2 gives 0"


def test_spectral_sequence_audits_e_infinity_against_homology(monkeypatch):
    # a homology of Tot with one class too many in degree 0
    t = realize(sphere_z2(F2))
    real = twisted.homology

    def skewed(c):
        h = real(c)
        return HomologySummary(h.ring, {**h.free, 0: h.free_rank(0) + 1})
    monkeypatch.setattr(twisted, "homology", skewed)
    with pytest.raises(InvariantViolation) as exc:
        spectral_sequence(t, 5)
    assert str(exc.value) == \
        "E-infinity columns sum to 1 in degree 0, homology has 2"


def test_spectral_sequence_at_the_largest_prime():
    # two pieces, six cells: the page-1 differential sends the cycle
    # (1, 1, -1) of piece 1 to -2; products of two residues near p
    # overflow int64 once they are summed
    fp = CoefficientRing.prime_field(3037000493)
    t = twisted_from_parts(
        fp,
        {1: complex_from_ranks(fp, {0: 2, 1: 3},
                               {1: mat([[1, 0, 1], [0, 1, 1]])}),
         0: complex_from_ranks(fp, {1: 1})},
        {(1, 0): {1: mat([[-1, -1, 0]])}})
    ss = spectral_sequence(t, 4)
    assert [dict(page.dims) for page in ss.pages] == [
        {(1, 1): 1, (0, 1): 1}, {}]
    assert ss.pages[0].differentials[(1, 1)].to_rows() == [[1]]
    assert ss.collapsed_at == 2
    assert not ss.limit
    pages, limit, collapsed_at = subspace_spectral_sequence(t, 4)
    assert pages == [({(1, 1): 1, (0, 1): 1}, {(1, 1): 1}), ({}, {})]
    assert (limit, collapsed_at) == ({}, 2)
