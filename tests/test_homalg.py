"""Unit tests for the exact linear-algebra and polynomial kernel."""

import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from support import (
    _integer_kernel_basis,
    budget_seconds,
    columns_array,
    dense_preceq,
    dense_reduce_columns,
    fp_array,
    grid_surface,
    pairwise_divisibility_order,
    random_integral_complex,
    random_twisted,
)

from mbflow import _fplinalg, homalg

from mbflow.errors import (
    InvariantViolation,
    ShapeMismatch,
    UnsupportedRing,
)
from mbflow.homalg import (
    F2,
    ZZ,
    CoefficientRing,
    GradedChainComplex,
    IntegerMatrix,
    LaurentPoly,
    PreceqVerdict,
    complex_from_ranks,
    dim_t,
    direct_sum,
    dual_complex,
    homology,
    integer_rank,
    preceq,
    shift_complex,
    smith_normal_form,
    unit_sweep,
)
from mbflow.flowcat import (
    CorrespondenceMap,
    FlowCategoryData,
    FlowObject,
    realize,
)
from mbflow.twisted import totalize


def mat(rows):
    return IntegerMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# coefficient rings


def test_ring_parse_roundtrip():
    assert str(CoefficientRing.parse("Z")) == "Z"
    assert str(CoefficientRing.parse("Fp:7")) == "Fp:7"
    assert CoefficientRing.parse("Fp:2") == F2


def test_ring_rejects_nonprime_and_junk():
    with pytest.raises(UnsupportedRing):
        CoefficientRing.prime_field(4)
    with pytest.raises(UnsupportedRing):
        CoefficientRing.parse("Fp:abc")
    with pytest.raises(UnsupportedRing):
        CoefficientRing.parse("Q")


# ---------------------------------------------------------------------------
# matrices


def test_matrix_shapes_and_arithmetic():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert (a + b).to_rows() == [[1, 3], [4, 4]]
    assert (a - a).is_zero()
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    with pytest.raises(ShapeMismatch):
        a @ mat([[1, 2]])
    with pytest.raises(ShapeMismatch):
        IntegerMatrix(1, 1, {(0, 0): 0})
    with pytest.raises(ShapeMismatch):
        IntegerMatrix(1, 1, {(0, 2): 1})


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_single_entry():
    assert smith_normal_form(mat([[2]])) == ((2,), 1)


def test_snf_zero_matrix():
    assert smith_normal_form(IntegerMatrix.zero(2, 3)) == ((), 0)


def test_snf_divisibility_chain():
    diag, rank = smith_normal_form(mat([[2, 4], [6, 8]]))
    assert (diag, rank) == ((2, 4), 2)


def test_snf_transforms_reconstruct():
    # the tests' integral kernel basis, the kernel columns of the Smith
    # form's V: m K = 0, K has cols - rank columns, and the gcd of its
    # maximal minors is 1, so K spans the kernel lattice over Z
    rng = random.Random(11)
    cases = [mat([[2, 4, 4], [-6, 6, 12], [-4, 10, 16]]),
             mat([[2, 4, 4], [-6, 6, 12]]), mat([[6, 10, 15]]),
             IntegerMatrix.zero(2, 3)]
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        k = rng.randint(0, cols - 1)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
        right = [[rng.choice((0, 1, -1, 2, -3, 6)) for _ in range(cols)]
                 for _ in range(k)]
        cases.append(IntegerMatrix.from_rows(left, k)
                     @ IntegerMatrix.from_rows(right, cols))
    for m in cases:
        basis = _integer_kernel_basis(m)
        assert len(basis) == m.cols - integer_rank(m) > 0
        kern = IntegerMatrix.from_rows(
            [[col[i] for col in basis] for i in range(m.cols)])
        assert (m @ kern).is_zero()
        assert _minor_gcds(kern.to_rows(), kern.cols) == 1


def _minor_gcds(rows, k):
    """gcd of all k x k minors, by brute force."""
    from itertools import combinations
    from math import gcd

    n, m = len(rows), len(rows[0]) if rows else 0

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    g = 0
    for ri in combinations(range(n), k):
        for ci in combinations(range(m), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, det(sub))
    return g


def _permuted_block_diagonal(blocks, rng):
    """The blocks on the diagonal, one zero row and column more, with
    rows and columns shuffled: columns of different blocks share no
    row, but they interleave."""
    rows = sum(len(b) for b in blocks) + 1
    cols = sum(len(b[0]) for b in blocks) + 1
    out = [[0] * cols for _ in range(rows)]
    r = c = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[r + i][c:c + len(row)] = row
        r, c = r + len(b), c + len(b[0])
    rng.shuffle(out)
    order = list(range(cols))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in out]


# up to three blocks of at most 2 x 2, which the Smith form splits apart
_permuted_blocks = st.builds(
    _permuted_block_diagonal,
    st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-6, 6), min_size=shape[1],
                     max_size=shape[1]),
            min_size=shape[0], max_size=shape[0])), min_size=1, max_size=3),
    st.randoms(use_true_random=False))


def _dense_without_units(shape):
    # no entry is a unit: what unit_sweep hands over whole
    rows, cols = shape
    return st.lists(st.lists(st.sampled_from((-4, -2, 2, 4, 6)),
                             min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@given(st.one_of(
    st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
             min_size=1, max_size=4).filter(
                 lambda r: len({len(x) for x in r}) == 1),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        _dense_without_units)))
@example([[2, 2], [2, 2]])
@example([[2, 2], [2, 4]])
@example([[4, 6], [6, 4]])
@settings(max_examples=200, deadline=None)
def test_snf_matches_minor_gcds(rows):
    m = IntegerMatrix.from_rows(rows)
    diag, rank = smith_normal_form(m)
    # d_1 * ... * d_k equals the gcd of the k x k minors
    prod = 1
    for k, d in enumerate(diag, start=1):
        prod *= d
        assert prod == _minor_gcds(rows, k)
    if rank < min(m.rows, m.cols):
        assert _minor_gcds(rows, rank + 1) == 0
    assert all(diag[i] > 0 for i in range(rank))
    assert all(diag[i + 1] % diag[i] == 0 for i in range(rank - 1))


@given(_permuted_blocks)
@example([[0, 2, 0], [3, 0, 0], [0, 0, 2]])
@example([[0, 4, 0, 6], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 6, 0]])
@settings(max_examples=150, deadline=None)
def test_snf_of_permuted_blocks_matches_minor_gcds(rows):
    # the Smith form splits the matrix into blocks of columns that share
    # no row; the factors of all blocks together must be its own
    diag, rank = smith_normal_form(mat(rows))
    prod = 1
    for k, d in enumerate(diag, start=1):
        prod *= d
        assert prod == _minor_gcds(rows, k)
    assert _minor_gcds(rows, rank + 1) == 0
    assert all(diag[i + 1] % diag[i] == 0 for i in range(rank - 1))


# factors drawn from a few values that share primes, so that the list
# repeats them, and from anything up to 10^6
_factor_lists = st.lists(st.integers(1, 6), min_size=1, max_size=3).flatmap(
    lambda exps: st.lists(
        st.sampled_from([2 ** e * 3 ** (e % 3) * 5 ** (e // 4)
                         for e in exps] + [1, 2 ** 40, 6 ** 9 * 35])
        | st.integers(1, 10 ** 6), max_size=40))


@given(_factor_lists, st.randoms(use_true_random=False))
@example([4, 2, 2, 8, 2], random.Random(0))
@example([12, 18, 12, 30, 1], random.Random(0))
@settings(max_examples=300, deadline=None)
def test_divisibility_order_matches_the_pairwise_pass(factors, rng):
    want = pairwise_divisibility_order(factors)
    rng.shuffle(factors)
    assert homalg._divisibility_order(factors) == want


@given(st.integers(0, 2 ** 32))
@settings(max_examples=200, deadline=None)
def test_integer_rank_counts_the_invariant_factors(seed):
    # a product through k columns has rank <= k: deficient, often zero
    rng = random.Random(seed)
    rows, cols, k = (rng.randint(0, 7) for _ in range(3))
    left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
    right = [[rng.choice((0, 0, 1, -2, 5)) for _ in range(cols)]
             for _ in range(k)]
    m = IntegerMatrix.from_rows(left, k) @ IntegerMatrix.from_rows(right, cols)
    diag, _ = smith_normal_form(m)
    assert integer_rank(m) == len(diag)
    assert integer_rank(IntegerMatrix.zero(rows, cols)) == 0


@given(st.integers(0, 2 ** 32))
@settings(max_examples=200, deadline=None)
def test_sparse_rank_over_q_agrees_with_bareiss(seed):
    # the sparse elimination over Q (non-unit pivots bring in fractions)
    # against the fraction-free dense one
    rng = random.Random(seed)
    rows, cols, k = (rng.randint(0, 9) for _ in range(3))
    left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
    right = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(cols)]
             for _ in range(k)]
    m = IntegerMatrix.from_rows(left, k) @ IntegerMatrix.from_rows(right, cols)
    assert _fplinalg.rank(m, None) == integer_rank(m)


def _rref_row_by_row(a, p):
    """The elimination of _fplinalg.rref, one row at a time."""
    r = np.asarray(a, dtype=np.int64) % p
    rows, cols = r.shape
    pivots, row = [], 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pick = row + int(nz[0])
        r[[row, pick]] = r[[pick, row]]
        r[row] = (r[row] * pow(int(r[row, col]), p - 2, p)) % p
        for i in range(rows):
            if i != row and r[i, col]:
                r[i] = (r[i] - r[i, col] * r[row]) % p
        pivots.append(col)
        row += 1
    return r, pivots


@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3, 7, 2147483647)))
@settings(max_examples=100, deadline=None)
def test_rref_matches_row_by_row_reference(seed, p):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    a = np.array([[rng.choice((0, 0, 1, -1, rng.randrange(p)))
                   for _ in range(cols)] for _ in range(rows)],
                 dtype=np.int64)
    got, pivots = _fplinalg.rref(a, p)
    want, want_pivots = _rref_row_by_row(a, p)
    assert pivots == want_pivots
    assert (got == want).all()


LARGEST_PRIME = 3037000493  # the largest prime CoefficientRing accepts


def _rank_deficient(rng, p):
    """A random matrix with a random rank deficit, so columns really
    reduce to zero."""
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    k = rng.randint(1, min(rows, cols))
    left = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
    return mat(left) @ mat(right)


@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3, LARGEST_PRIME)))
@settings(max_examples=100, deadline=None)
def test_reduce_columns_exact(seed, p):
    a = _rank_deficient(random.Random(seed), p)
    rows, cols = a.rows, a.cols
    r_cols, v_cols, low = _fplinalg.reduce_columns(a, p)
    r = columns_array(r_cols, rows, cols)
    v = columns_array(v_cols, cols, cols, unit=True)
    # R = a V mod p, with the products in Python ints
    av = a @ IntegerMatrix.from_rows(v.tolist(), cols)
    assert all((av[i, j] - int(r[i, j])) % p == 0
               for i in range(rows) for j in range(cols))
    assert all(0 < x < p for m in (r_cols, v_cols)
               for col in m.values() for x in col.values())
    assert (np.triu(v) == v).all() and (np.diag(v) == 1).all()
    # R keeps only its nonzero columns, V only those other than e_j
    assert all(r_cols.values())
    assert all(col != {j: 1} for j, col in v_cols.items())
    # low: the lowest nonzero row of every nonzero column, all distinct
    for j in range(cols):
        nz = np.flatnonzero(r[:, j])
        assert low.get(j) == (int(nz[-1]) if nz.size else None)
    assert len(set(low.values())) == len(low)
    assert len(low) == len(_fplinalg.rref(fp_array(a, p), p)[1])


@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3, LARGEST_PRIME)))
@settings(max_examples=40, deadline=None)
def test_sparse_reduction_matches_dense_reference(seed, p):
    # entry for entry against the dense reduction, on a rank-deficient
    # matrix and on every D_n of a random totalization; rank against
    # the pivots of rref
    rng = random.Random(seed)
    t = random_twisted(rng, CoefficientRing.prime_field(p),
                       max_generators=14, max_pieces=5)
    for a in [_rank_deficient(rng, p), *totalize(t).differential.values()]:
        r, v, low = _fplinalg.reduce_columns(a, p)
        want_r, want_v, want_low = dense_reduce_columns(fp_array(a, p), p)
        assert (columns_array(r, a.rows, a.cols) == want_r).all()
        assert (columns_array(v, a.cols, a.cols, unit=True) == want_v).all()
        assert low == want_low
        assert _fplinalg.rank(a, p) == \
            len(_fplinalg.rref(fp_array(a, p), p)[1])


# ---------------------------------------------------------------------------
# chain complexes and homology


def sphere_cw():
    # S^2 with one 0-cell and one 2-cell
    return complex_from_ranks(ZZ, {0: 1, 2: 1})


def rp2_cw(ring=ZZ):
    return complex_from_ranks(ring, {0: 1, 1: 1, 2: 1},
                              {2: mat([[2]])})


def circle_cw():
    # two 0-cells, two 1-cells glued into a circle
    return complex_from_ranks(ZZ, {0: 2, 1: 2},
                              {1: mat([[1, -1], [-1, 1]])})


def test_complex_rejects_bad_square():
    with pytest.raises(InvariantViolation):
        complex_from_ranks(ZZ, {0: 1, 1: 1, 2: 1},
                           {1: mat([[1]]), 2: mat([[1]])})


def test_complex_rejects_bad_shape():
    with pytest.raises(ShapeMismatch):
        GradedChainComplex(ZZ, {0: 1, 1: 1}, {1: mat([[1, 0]])})


def test_mod_p_relaxes_square_check():
    # d_1 d_2 = 2, which vanishes only in characteristic 2
    diffs = {1: mat([[1]]), 2: mat([[2]])}
    with pytest.raises(InvariantViolation):
        complex_from_ranks(ZZ, {0: 1, 1: 1, 2: 1}, diffs)
    c = complex_from_ranks(F2, {0: 1, 1: 1, 2: 1}, diffs)
    assert dict(homology(c).free) == {2: 1}


def test_homology_sphere():
    h = homology(sphere_cw())
    assert dict(h.free) == {0: 1, 2: 1}
    assert not h.torsion_factors


def test_homology_circle():
    assert dict(homology(circle_cw()).free) == {0: 1, 1: 1}


def test_homology_rp2_integral():
    h = homology(rp2_cw())
    assert dict(h.free) == {0: 1}
    assert h.torsion(1) == (2,)
    assert h.torsion(2) == ()


def test_homology_rp2_mod2():
    h = homology(rp2_cw(F2))
    assert dict(h.free) == {0: 1, 1: 1, 2: 1}


def test_homology_rp2_mod3():
    h = homology(rp2_cw(CoefficientRing.prime_field(3)))
    assert dict(h.free) == {0: 1}


def test_homology_torsion_divisibility():
    # Z^2 --diag(2,4)--> Z^2 gives Z/2 + Z/4 in degree 0
    c = complex_from_ranks(ZZ, {0: 2, 1: 2}, {1: mat([[2, 0], [0, 4]])})
    h = homology(c)
    assert h.torsion(0) == (2, 4)
    assert h.free_rank(0) == 0


def test_euler_characteristic_matches_alternating_ranks():
    c = rp2_cw()
    h = homology(c)
    chi_cells = sum((-1) ** n * c.dim(n) for n in c.rank)
    assert h.euler_characteristic() == chi_cells


def test_shift_and_dual():
    h = homology(shift_complex(rp2_cw(), 5))
    assert dict(h.free) == {5: 1}
    assert h.torsion(6) == (2,)
    hd = homology(dual_complex(rp2_cw()))
    # universal coefficients: H^0 = Z, H^2 = Z/2, reported in degrees 0, -2
    assert dict(hd.free) == {0: 1}
    assert hd.torsion(-2) == (2,)


def test_double_dual_is_identity():
    c = rp2_cw()
    dd = dual_complex(dual_complex(c))
    assert dict(dd.rank) == dict(c.rank)
    assert {n: d.to_rows() for n, d in dd.differential.items()} == \
        {n: d.to_rows() for n, d in c.differential.items()}


def test_direct_sum_homology_adds():
    h = homology(direct_sum([sphere_cw(), circle_cw()]))
    assert dict(h.free) == {0: 2, 1: 1, 2: 1}


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_rank_nullity_on_diagonal_complexes(a, b, c):
    # C_1 = Z^{a+b}, C_0 = Z^{b+c}; d kills a lines onto b independent images
    d = IntegerMatrix(b + c, a + b,
                      {(i, a + i): 1 for i in range(b)})
    cx = complex_from_ranks(ZZ, {0: b + c, 1: a + b}, {1: d})
    h = homology(cx)
    assert h.free_rank(1) == a
    assert h.free_rank(0) == c


@given(st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_integer_homology_agrees_with_fp_by_universal_coefficients(seed):
    # scrambled sums of Z and Z --k--> Z: non-unit entries, torsion and a
    # leftover for the dense Smith form
    c, free, torsion = random_integral_complex(random.Random(seed))
    h = homology(c)
    assert dict(h.free) == free
    assert dict(h.torsion_factors) == torsion
    # the Z side (unit_sweep and the Smith form) shares nothing with the
    # column reduction that F_p homology reads its ranks from
    for p in (2, 3, 5, LARGEST_PRIME):
        hp = homology(c.with_ring(CoefficientRing.prime_field(p)))
        for n in c.rank:
            # dim H_n(C; F_p) = free_n + p-torsion of H_n and of H_{n-1}
            want = h.free_rank(n) + \
                sum(1 for x in h.torsion(n) if x % p == 0) + \
                sum(1 for x in h.torsion(n - 1) if x % p == 0)
            assert hp.free_rank(n) == want, (n, p)


def _dense_first_nonzero(terms, p):
    for n, m in terms:
        rows = m.to_rows()
        for j in range(m.cols):
            if any(row[j] % p if p else row[j] for row in rows):
                return n, j
    return None


@given(st.integers(0, 2 ** 32), st.sampled_from((None, 2, 3, LARGEST_PRIME)))
@settings(max_examples=200, deadline=None)
def test_first_nonzero_matches_a_dense_scan(seed, p):
    # entries are often multiples of p, so a matrix nonzero over Z is
    # often zero over F_p
    rng = random.Random(seed)
    q = p or 5
    terms = []
    for n in rng.sample(range(-3, 6), rng.randint(0, 4)):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        terms.append((n, mat([[rng.choice((0, 0, 0, q, -q, 2 * q, 1, -1,
                                           rng.randrange(-q, q)))
                               for _ in range(cols)] for _ in range(rows)])
                      if rows else IntegerMatrix.zero(0, cols)))
    assert homalg.first_nonzero(terms, p) == _dense_first_nonzero(terms, p)
    # a generator is read up to the first failure only
    it = iter(terms)
    got = homalg.first_nonzero(it, p)
    rest = len(list(it))
    assert rest == (0 if got is None else
                    len(terms) - 1 - [n for n, _ in terms].index(got[0]))


def test_chain_complex_check_multiplies_stored_pairs_only(monkeypatch):
    calls = []
    product = IntegerMatrix.__matmul__

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)
    monkeypatch.setattr(IntegerMatrix, "__matmul__", counted)
    # six degrees and one differential: no pair to multiply
    GradedChainComplex(ZZ, {n: 1 for n in range(6)}, {1: mat([[1]])})
    assert calls == []
    # every stored pair is still checked, and the lowest failure reported
    with pytest.raises(InvariantViolation, match="out of degree 2 "):
        GradedChainComplex(ZZ, {n: 1 for n in range(4)},
                           {n: mat([[1]]) for n in (1, 2, 3)})
    assert len(calls) == 1


def _assert_sweep_keeps_invariants(d):
    """unit_sweep(d) against the Smith form and the Bareiss rank of d:
    the units stand for factors 1, the leftover for all the others.
    Returns the leftover's invariant factors > 1."""
    pivots, rest = unit_sweep(d)
    diag, rank = smith_normal_form(rest)
    full = smith_normal_form(d)[0]
    assert len(pivots) + rank == len(full) == integer_rank(d)
    assert [x for x in diag if x > 1] == [x for x in full if x > 1]
    # the leftover keeps only its nonzero rows and columns
    assert {i for i, _ in rest.entries} == set(range(rest.rows))
    assert {j for _, j in rest.entries} == set(range(rest.cols))
    return tuple(x for x in diag if x > 1)


@given(st.integers(0, 2 ** 32), st.sampled_from(((7, 14), (24, 60))))
@settings(max_examples=150, deadline=None)
def test_unit_sweep_keeps_ranks_and_torsion(seed, size):
    rng = random.Random(seed)
    parts, scramble = size
    c, _, torsion = random_integral_complex(rng, max_parts=parts,
                                            scramble=scramble)
    for n, d in c.differential.items():
        assert _assert_sweep_keeps_invariants(d) == torsion.get(n - 1, ())
    for d in totalize(random_twisted(rng, ZZ)).differential.values():
        _assert_sweep_keeps_invariants(d)


def test_unit_sweep_leaves_only_what_no_unit_pivots():
    # column 0 pivots on row 1 and column 1 on row 0; column 2 is then
    # cleared to zero
    assert unit_sweep(mat([[1, 1, 1], [1, 0, 0]])) == \
        ({0, 1}, IntegerMatrix.zero(0, 0))
    # a 2 is no unit: it is left over, and becomes torsion
    assert unit_sweep(mat([[2]])) == (set(), mat([[2]]))
    # the leftover is cleared at a unit's row below its top ...
    assert unit_sweep(mat([[1, 1], [0, 2]])) == ({0}, mat([[2]]))
    # ... and at a unit's top that only a later column pivots on
    assert unit_sweep(mat([[2, 1]])) == ({0}, IntegerMatrix.zero(0, 0))
    # the Klein bottle's d_2 leaves one column, its torsion
    for n in (5, 12):
        pivots, rest = unit_sweep(grid_surface(n, klein=True).d(2))
        assert (len(pivots), rest.cols) == (2 * n * n - 1, 1)
        assert smith_normal_form(rest) == ((2,), 1)


def test_integer_rank_cross_check_sees_a_corrupted_reduction(monkeypatch):
    # the rank mod a large prime must match what the sweep reports
    sweep = homalg.unit_sweep
    monkeypatch.setattr(homalg, "unit_sweep",
                        lambda d, clear: (set(), sweep(d, clear)[1]))
    with pytest.raises(InvariantViolation, match="rank of d_1 mod"):
        homology(circle_cw())


def test_negative_free_rank_is_caught(monkeypatch):
    # a Smith form that reports one rank too many, with a factor the
    # check prime divides, passes the rank cross-check; RP^2's free
    # rank in degree 1 then comes out negative
    snf = homalg.smith_normal_form

    def inflated(m):
        diag, rank = snf(m)
        return diag + (homalg.CHECK_PRIME,), rank + 1
    monkeypatch.setattr(homalg, "smith_normal_form", inflated)
    rp2 = complex_from_ranks(ZZ, {0: 1, 1: 1, 2: 1}, {2: mat([[2]])})
    with pytest.raises(InvariantViolation) as exc:
        homology(rp2)
    assert str(exc.value) == "negative free rank in degree 1"


def test_integral_homology_of_a_dense_unit_level_link():
    # the benchmark's Borel model of the rotated 16 x 16 torus: each
    # level link sends every vertex to minus the loop, a dense block of
    # units
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    cat = gen.borel_surface(16, 2)

    def chain(o):
        ranks = dict(enumerate(o.chain.ranks))
        return complex_from_ranks(ZZ, ranks, {
            n: IntegerMatrix(o.chain.dim(n - 1), o.chain.dim(n), d)
            for n, d in o.chain.diffs.items()})
    objects = {o.name: FlowObject(o.name, o.index, o.framing, chain(o))
               for o in cat.objects}
    corrs = []
    for c in cat.corrs:
        src, dst = objects[c.source], objects[c.target]
        shift = src.framing_rank - dst.framing_rank - 1
        corrs.append(CorrespondenceMap(c.source, c.target, {
            m: IntegerMatrix(dst.chain.dim(m + shift), src.chain.dim(m), b)
            for m, b in c.blocks.items()}))
    c = totalize(realize(FlowCategoryData(ZZ, tuple(objects.values()),
                                          tuple(corrs))))
    assert c.total_dim() == 4614
    start = time.perf_counter()
    h = homology(c)
    assert time.perf_counter() - start < budget_seconds(1.0)
    assert (dict(h.free), dict(h.torsion_factors)) == ({1: 1, 6: 1}, {})


# ---------------------------------------------------------------------------
# Laurent polynomials, dim_t, preceq


def test_dim_t_examples():
    h = homology(sphere_cw())
    assert dim_t(h).coeffs == {0: 1, 2: 1}
    h = homology(rp2_cw())
    # torsion does not contribute
    assert dim_t(h).coeffs == {0: 1}


def test_poly_arithmetic_and_str():
    p = LaurentPoly.from_coeffs({-1: 2, 0: 1})
    q = LaurentPoly.from_coeffs({1: 1})
    assert (p * q).coeffs == {0: 2, 1: 1}
    assert (p - p).is_zero()
    assert str(LaurentPoly.zero()) == "0"
    assert str(p) == "2*t^-1 + 1"
    assert p.evaluate(-1) == -1


def test_preceq_positive_case():
    p = LaurentPoly.from_coeffs({0: 1, 2: 1})
    q = LaurentPoly.from_coeffs({0: 1, 1: 1, 2: 2})
    v = preceq(p, q)
    assert v.holds
    assert v.witness.coeffs == {1: 1}


def test_preceq_reflexive_with_zero_witness():
    p = LaurentPoly.from_coeffs({0: 3, 5: 2})
    v = preceq(p, p)
    assert v.holds and v.witness.is_zero()


def test_preceq_negative_case_reports_first_failure():
    v = preceq(LaurentPoly.one(), LaurentPoly.from_coeffs({0: 1, 2: 1}))
    assert not v.holds
    assert v.failing_degree == 3
    v = preceq(LaurentPoly.from_coeffs({1: 1}), LaurentPoly.one())
    assert not v.holds
    assert v.failing_degree == 1


def test_preceq_witness_reconstructs_difference():
    p = LaurentPoly.from_coeffs({0: 1})
    q = LaurentPoly.from_coeffs({0: 2, 1: 3, 2: 2})
    v = preceq(p, q)
    assert v.holds
    one_plus_t = LaurentPoly.from_coeffs({0: 1, 1: 1})
    assert (p + one_plus_t * v.witness).coeffs == q.coeffs


@given(st.dictionaries(st.integers(-3, 3), st.integers(0, 4), max_size=5),
       st.dictionaries(st.integers(-3, 3), st.integers(0, 4), max_size=5))
@settings(max_examples=300, deadline=None)
def test_preceq_euler_preservation(pc, qc):
    p = LaurentPoly.from_coeffs(pc)
    q = LaurentPoly.from_coeffs(qc)
    v = preceq(p, q)
    if v.holds:
        assert p.evaluate(-1) == q.evaluate(-1)
        assert v.witness.is_nonnegative()


@given(st.dictionaries(st.integers(0, 4), st.integers(0, 3), max_size=5),
       st.dictionaries(st.integers(0, 4), st.integers(0, 3), max_size=5))
@settings(max_examples=200, deadline=None)
def test_preceq_antisymmetry(pc, qc):
    p = LaurentPoly.from_coeffs(pc)
    q = LaurentPoly.from_coeffs(qc)
    if preceq(p, q).holds and preceq(q, p).holds:
        assert p.coeffs == q.coeffs


_gapped = st.dictionaries(st.integers(-20, 20), st.integers(-3, 3),
                          max_size=6).map(LaurentPoly.from_coeffs)


@given(_gapped, _gapped, _gapped)
@example(LaurentPoly.zero(), LaurentPoly.zero(),
         LaurentPoly.from_coeffs({0: 1, 5: 1}))
@example(LaurentPoly.zero(), LaurentPoly.from_coeffs({0: 1, 5: 2}),
         LaurentPoly.from_coeffs({9: -1}))
@settings(max_examples=500, deadline=None)
def test_preceq_on_the_support_matches_the_dense_recursion(p, a, noise):
    # q = p + (1+t)|a| holds; adding a sparse noise term mostly breaks
    # it, by a negative coefficient, by a carry into a gap or past the
    # last degree
    one_plus_t = LaurentPoly.from_coeffs({0: 1, 1: 1})
    a = LaurentPoly({e: abs(v) for e, v in a.coeffs.items()})
    for q in (p + one_plus_t * a, p + one_plus_t * a + noise, noise):
        assert preceq(p, q) == dense_preceq(p, q)


def test_preceq_across_a_gap_of_ten_to_the_twelve():
    # the dense recursion would walk 10^12 degrees
    far = 10 ** 12
    ends = LaurentPoly.from_coeffs({0: 1, far: 1})
    one_plus_t = LaurentPoly.from_coeffs({0: 1, 1: 1})
    assert preceq(LaurentPoly.zero(), ends) == PreceqVerdict(False, None, 1)
    assert preceq(LaurentPoly.zero(), one_plus_t * ends) == \
        PreceqVerdict(True, ends, None)
    assert preceq(ends, ends + one_plus_t * LaurentPoly.t_power(far)) == \
        PreceqVerdict(True, LaurentPoly.t_power(far), None)
