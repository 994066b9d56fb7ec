"""Unit tests for twisted complexes and their operations."""

import random

import pytest

from support import circle_complex, mat, point_complex, random_twisted

from mbflow.errors import (
    ChainMapViolation,
    InvariantViolation,
    ShapeMismatch,
    UnsupportedRing,
)
from mbflow.homalg import (
    F2,
    ZZ,
    CoefficientRing,
    IntegerMatrix,
    complex_from_ranks,
    homology,
    shift_complex,
)
from mbflow.twisted import (
    HomotopySquareWitness,
    TwistedComplex,
    TwistedMorphism,
    cone,
    identity_morphism,
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
        chi = sum((-1) ** n * tot.dim(n) for n in tot.degrees())
        assert twisted_euler_characteristic(t) == chi


# ---------------------------------------------------------------------------
# shift


def test_shift_zero_is_identity():
    t = flat_torus()
    s, w = shift(t, 0)
    assert s == t
    assert w.offset == 0


def test_shift_preserves_total_complex_exactly():
    t = three_piece()
    for a in (3, -2, 7):
        s, w = shift(t, a)
        assert sorted(s.pieces) == [i + a for i in sorted(t.pieces)]
        assert w.piece_map == {i: i + a for i in t.pieces}
        lay_t, lay_s = t._tot, s._tot
        assert lay_t.ranks == lay_s.ranks
        for n in range(lay_t.min_degree, lay_t.max_degree + 2):
            assert lay_t.d(n) == lay_s.d(n)


def test_shift_homology_unchanged():
    t = flat_torus()
    s, _ = shift(t, -2)
    assert dict(homology(totalize(s)).free) == \
        dict(homology(totalize(t)).free)


def test_double_shift_composes():
    t = sphere_two_pieces()
    s1, _ = shift(t, 2)
    s2, _ = shift(s1, -2)
    assert s2 == t


# ---------------------------------------------------------------------------
# quotient sequences


def test_quotient_below_and_above_range():
    t = flat_torus()
    qs = quotient_sequence(t, -5)
    assert qs.sub.is_empty() and qs.quotient == t
    assert qs.audit.exact
    assert not qs.audit.connecting_rank
    qs = quotient_sequence(t, 5)
    assert qs.quotient.is_empty() and qs.sub == t
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


# ---------------------------------------------------------------------------
# morphisms and cones


def test_morphism_must_be_chain_map():
    seg = segment()
    t = twisted_from_parts(ZZ, {0: seg}, {})
    with pytest.raises(ChainMapViolation):
        TwistedMorphism(t, t, {(0, 0): {0: mat([[1]]), 1: mat([[0]])}})


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
    lo, hi = tot.min_degree, tot.max_degree + 1
    for n in range(lo, hi + 1):
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
