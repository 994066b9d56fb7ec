"""Clearing: every degree-by-degree elimination runs from the highest
degree down and skips the columns of d_n that its elimination of
d_{n+1} already pairs. The answers must be those of the same
eliminations run on every column of every matrix, and no skipped column
may be reduced at all."""

import random
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from support import grid_surface, random_integral_complex, random_twisted

from mbflow import _fplinalg, homalg
from mbflow.homalg import F2, ZZ, CoefficientRing, homology
from mbflow.twisted import quotient_sequence, spectral_sequence, totalize

LARGEST_PRIME = 3037000493  # the largest prime CoefficientRing accepts


@contextmanager
def no_clearing():
    """The reference: each column reduction, rank and unit sweep runs on
    the whole matrix, as if no degree above paired any column."""
    reduce_columns = _fplinalg.reduce_columns
    pivot_rows = _fplinalg.pivot_rows
    sweep = homalg.unit_sweep
    with mock.patch.object(_fplinalg, "reduce_columns",
                           lambda d, p, clear=None: reduce_columns(d, p)), \
            mock.patch.object(_fplinalg, "pivot_rows",
                              lambda d, p, clear=(): pivot_rows(d, p)), \
            mock.patch.object(homalg, "unit_sweep",
                              lambda d, clear=(): sweep(d)):
        yield


def answers(t):
    """Everything the eliminations of Tot(t) decide: the lows, homology,
    the spectral sequence over a field, and the audit at every cut."""
    tot = totalize(t)
    h = homology(tot)
    out = {
        "lows": {n: low for n, (_, _, low) in tot.column_reductions.items()},
        "homology": (dict(h.free), dict(h.torsion_factors)),
        "cuts": [(a.exact, a.positions_checked, dict(a.connecting_rank))
                 for a in (quotient_sequence(t, p).audit for p in
                           range(min(t.pieces) - 1, max(t.pieces) + 1))],
    }
    if t.ring.is_field:
        ss = spectral_sequence(t, 8)
        out["ss"] = ([(page.number, dict(page.dims), dict(page.ranks),
                       dict(page.differentials)) for page in ss.pages],
                     ss.collapsed_at, dict(ss.limit))
    return out


@given(st.integers(0, 2 ** 32), st.sampled_from((None, 2, 3, LARGEST_PRIME)))
@settings(max_examples=150, deadline=None)
def test_clearing_changes_no_answer(seed, p):
    ring = ZZ if p is None else CoefficientRing.prime_field(p)

    def build():
        return random_twisted(random.Random(seed), ring, max_generators=14,
                              max_pieces=5)
    got = answers(build())
    with no_clearing():
        want = answers(build())
    assert got == want


@given(st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_clearing_keeps_integral_homology(seed):
    # scrambled sums of Z and Z --k--> Z, whose d_{n+1} has non-unit
    # pivots: only its unit pivots may be skipped in the sweep of d_n
    def build():
        return random_integral_complex(random.Random(seed))[0]

    def integral(c):
        h = homology(c)
        # the degrees run top down, and the maps still ascend
        for table in (h.free, h.torsion_factors, c.column_reductions):
            assert list(table) == sorted(table)
        return dict(h.free), dict(h.torsion_factors), \
            {n: low for n, (_, _, low) in c.column_reductions.items()}
    got = integral(build())
    with no_clearing():
        want = integral(build())
    assert got == want


def reductions_run(work):
    """The number of columns that work hands to a reduction step: one
    call of _fplinalg.clear_tops per reduced column."""
    calls = []
    clear_tops = _fplinalg.clear_tops

    def counted(x, tops, p):
        calls.append(p)
        return clear_tops(x, tops, p)
    with mock.patch.object(_fplinalg, "clear_tops", counted):
        work()
    return len(calls)


def test_no_cleared_column_is_reduced():
    # the n x n grid surfaces: 3n^2 edges (d_1) and 2n^2 triangles (d_2).
    # Reduced on its own, each of the 5n^2 columns is reduced once; with
    # clearing, d_1 skips the columns at the pivots of d_2: 2n^2 - 1
    # over F_2 and over Q for the torus, 2n^2 over Q for the Klein
    # bottle, whose d_2 has full rank there
    for n in (4, 7):
        nn = n * n
        torus, klein = grid_surface(n), grid_surface(n, klein=True)
        for c in (torus, klein):
            c2 = c.with_ring(F2)
            assert reductions_run(lambda: c2.column_reductions) == 3 * nn + 1
        assert reductions_run(lambda: torus.column_reductions) == 3 * nn + 1
        assert reductions_run(lambda: klein.column_reductions) == 3 * nn
        # over Z the unit sweep of d_1 skips the 2n^2 - 1 unit pivots of
        # d_2, and the rank mod the check prime its pivot rows: 2n^2 - 1
        # for the torus, 2n^2 for the Klein bottle
        assert reductions_run(lambda: homology(torus)) == \
            (2 * nn + nn + 1) * 2
        assert reductions_run(lambda: homology(klein)) == \
            (2 * nn + nn + 1) + (2 * nn + nn)
