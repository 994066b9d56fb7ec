"""Shared helpers for the test suite: small builders and a random
generator of valid twisted complexes.

The generator works column by column up the total degree: each new
generator's total boundary is sampled from the kernel of the previous
total differential intersected with the pieces its structure maps are
allowed to hit (index at most its own). The result satisfies D.D = 0
by construction, for any coefficient ring.
"""

from __future__ import annotations

import json
import random
from math import gcd
from typing import Mapping

import numpy as np

from mbflow import _fplinalg
from mbflow.cli import category_to_json, parse_category
from mbflow.flowcat import FlowCategoryData, realize
from mbflow.homalg import (
    CoefficientRing,
    GradedChainComplex,
    IntegerMatrix,
    LaurentPoly,
    PreceqVerdict,
    complex_from_ranks,
    dim_t,
    homology,
)
from mbflow.inequalities import InequalityReport
from mbflow.twisted import TwistedComplex, totalize, twisted_from_parts


def mat(rows, cols=None):
    return IntegerMatrix.from_rows(rows, cols)


def point_complex(ring) -> GradedChainComplex:
    return complex_from_ranks(ring, {0: 1})


def circle_complex(ring) -> GradedChainComplex:
    return complex_from_ranks(ring, {0: 1, 1: 1})


def padded_degrees(ranks: Mapping[int, int]) -> range:
    """Every degree from one below the lowest stored nonzero degree of
    ranks to one above the highest (-1 .. 1 when there is none): the
    dense walk a test makes on purpose, to check the empty degrees
    between and around the cells as well as the cells."""
    stored = [n for n, r in ranks.items() if r]
    return range(min(stored, default=0) - 1, max(stored, default=0) + 2)


def redeclared(f: FlowCategoryData, ring: CoefficientRing,
               ) -> FlowCategoryData:
    """f declared over ring from scratch: its file with "ring" swapped,
    parsed without validation. The reference for category_with_ring,
    sharing nothing computed for f."""
    doc = category_to_json(f)
    doc["ring"] = str(ring)
    return parse_category(json.dumps(doc).encode(), validate=False)


def fp_array(m: IntegerMatrix, p: int) -> np.ndarray:
    """Dense int64 copy of m with every entry reduced mod p first, so
    entries of any size convert."""
    out = np.zeros((m.rows, m.cols), dtype=np.int64)
    if m.entries:
        rows, cols = zip(*m.entries)
        out[rows, cols] = [v % p for v in m.entries.values()]
    return out


def dense_reduce_columns(a: np.ndarray, p: int,
                         ) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Reference for _fplinalg.reduce_columns: the same left-to-right
    column reduction on a dense int64 array, with a dense V.

    Returns (R, V, low) as arrays, R = a V mod p, and low mapping every
    nonzero column of R to its lowest nonzero row. p*p must fit in an
    int64.
    """
    rows, cols = np.shape(a)
    # column j of R and of V is row j here, so each update is contiguous
    rt = np.ascontiguousarray(_fplinalg.asmod(a, p).T)
    vt = np.eye(cols, dtype=np.int64)
    low: dict[int, int] = {}
    owner: dict[int, tuple[int, int]] = {}  # row -> (column, 1 / pivot)
    for j in range(cols):
        col, top = rt[j], rows
        while True:
            nz = col[:top].nonzero()[0]
            if nz.size == 0:
                break
            i = int(nz[-1])
            got = owner.get(i)
            if got is None:
                owner[i] = (j, pow(int(col[i]), -1, p))
                low[j] = i
                break
            k, inv = got
            # the scalar is reduced first, so each product is below p*p
            f = int(col[i]) * inv % p
            seg = col[:i + 1]
            seg -= f * rt[k, :i + 1]
            seg %= p
            seg = vt[j, :k + 1]
            seg -= f * vt[k, :k + 1]
            seg %= p
            top = i
    return rt.T, vt.T, low


def columns_array(cols: Mapping[int, Mapping[int, int]], rows: int,
                  ncols: int, unit: bool = False) -> np.ndarray:
    """Sparse columns {column: {row: value}} as a dense int64 array;
    with unit, a column that is missing is e_j (V of reduce_columns)."""
    out = np.eye(rows, ncols, dtype=np.int64) if unit else \
        np.zeros((rows, ncols), dtype=np.int64)
    for j, col in cols.items():
        out[:, j] = 0
        for i, v in col.items():
            out[i, j] = v
    return out


def _integer_kernel_basis(m: IntegerMatrix) -> list[list[int]]:
    """A basis over Z of the kernel of m: the columns rank .. cols - 1
    of a unimodular V with U m V in Smith normal form.

    The elimination pivots on the smallest entry left, with every
    column move applied to V as well. Row moves never touch V, so no U
    is kept. Rows above the pivot are zero past their diagonal, so moves
    on whole rows and columns change nothing else.
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    v = IntegerMatrix.identity(cols).to_rows()

    def swap_cols(i: int, j: int) -> None:
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        best = min(((abs(x), i, j) for i in range(t, rows)
                    for j in range(t, cols) if (x := a[i][j])), default=None)
        if best is None:
            break
        _, pi, pj = best
        a[t], a[pi] = a[pi], a[t]
        swap_cols(t, pj)
        while True:
            # clear the pivot column; a smaller remainder becomes the pivot
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            # clear the pivot row, the column moves that V follows
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a + v:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # the trailing block must be divisible by the pivot
            offender = next((i for i in range(t + 1, rows)
                             if any(x % a[t][t] for x in a[i][t + 1:])), None)
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return [[row[j] for row in v] for j in range(t, cols)]


def grid_surface(n: int, klein: bool = False) -> GradedChainComplex:
    """The n x n triangulated torus, or Klein bottle, over Z.

    A Delta-complex on the grid: n*n vertices (x, y), horizontal,
    vertical and diagonal edges from (x, y) to (x+1, y), (x, y+1) and
    (x+1, y+1), and two triangles per square, 6 n^2 cells in all. Both
    directions wrap around; for the Klein bottle the seam y = n is glued
    to y = 0 with x reversed, so a horizontal edge crossing it enters
    with sign -1.
    """
    nn = n * n

    def vertex(x: int, y: int) -> int:
        if y == n:
            x, y = (-x if klein else x), 0
        return y * n + x % n

    def edge(kind: int, x: int, y: int) -> tuple[int, int]:
        # kind 0, 1, 2: horizontal, vertical, diagonal
        sign = 1
        if y == n:  # only horizontal edges are named on the seam
            x, y = ((n - 1 - x, 0) if klein else (x, 0))
            sign = -1 if klein else 1
        return kind * nn + y * n + x % n, sign

    d1: dict[tuple[int, int], int] = {}
    d2: dict[tuple[int, int], int] = {}

    def add(m, key, v):
        s = m.get(key, 0) + v
        if s:
            m[key] = s
        else:
            m.pop(key, None)

    for y in range(n):
        for x in range(n):
            for kind, (dx, dy) in enumerate(((1, 0), (0, 1), (1, 1))):
                e, _ = edge(kind, x, y)
                add(d1, (vertex(x + dx, y + dy), e), 1)
                add(d1, (vertex(x, y), e), -1)
            low, up = y * n + x, nn + y * n + x
            # [v0, v1, v2] has boundary [v1 v2] - [v0 v2] + [v0 v1]
            for f, faces in ((low, ((1, x + 1, y), (2, x, y), (0, x, y))),
                             (up, ((0, x, y + 1), (2, x, y), (1, x, y)))):
                for coeff, (kind, ex, ey) in zip((1, -1, 1), faces):
                    e, sign = edge(kind, ex, ey)
                    add(d2, (e, f), coeff * sign)
    return complex_from_ranks(
        CoefficientRing.integers(), {0: nn, 1: 3 * nn, 2: 2 * nn},
        {1: IntegerMatrix(nn, 3 * nn, d1),
         2: IntegerMatrix(3 * nn, 2 * nn, d2)})


def invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors (> 1, in divisibility order) of the direct sum
    of the cyclic groups Z/k, k in orders, by merging prime powers."""
    powers: dict[int, list[int]] = {}
    for k in orders:
        k, p = abs(k), 2
        while k > 1:
            q = 1
            while k % p == 0:
                k, q = k // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    width = max((len(v) for v in powers.values()), default=0)
    out = [1] * width
    for v in powers.values():
        for i, q in enumerate(sorted(v, reverse=True)):
            out[width - 1 - i] *= q
    return tuple(out)


def pairwise_divisibility_order(factors: list[int]) -> list[int]:
    """Positive factors in divisibility order by gcd/lcm swaps of every
    pair, which keep the product and the diagonal's Smith form."""
    factors = list(factors)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return factors


def random_integral_complex(rng: random.Random, top: int = 3,
                            max_parts: int = 7, scramble: int = 14):
    """A complex over Z in degrees 0..top with known homology.

    It is a direct sum of free cells Z and of arrows Z --k--> Z with k
    in {+-1, 2, 3, -4, 6} (acyclic for a unit, Z/|k| below otherwise),
    hidden by random unimodular changes of basis: column i += c column j
    of d_n together with row j -= c row i of d_{n+1}, which leaves d.d
    and the homology alone but spreads units and non-units over the
    matrices. Returns (complex, free ranks, torsion factors) by degree.
    """
    dims = [0] * (top + 1)
    free: dict[int, int] = {}
    orders: dict[int, list[int]] = {}
    arrows = []  # (degree of the source, source cell, target cell, k)
    for _ in range(rng.randint(1, max_parts)):
        n = rng.randrange(top + 1)
        if n < top and rng.random() < 0.6:
            k = rng.choice((1, -1, 2, 3, -4, 6))
            arrows.append((n + 1, dims[n + 1], dims[n], k))
            dims[n + 1] += 1
            dims[n] += 1
            if abs(k) > 1:
                orders.setdefault(n, []).append(k)
        else:
            free[n] = free.get(n, 0) + 1
            dims[n] += 1
    d = {n: [[0] * dims[n] for _ in range(dims[n - 1])]
         for n in range(1, top + 1)}
    for n, src, dst, k in arrows:
        d[n][dst][src] = k
    for _ in range(scramble):
        n = rng.randrange(top + 1)
        if dims[n] < 2:
            continue
        i, j = rng.sample(range(dims[n]), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in d.get(n, ()):
            row[i] += c * row[j]
        if n + 1 in d:
            d[n + 1][j] = [a - c * b for a, b in zip(d[n + 1][j],
                                                     d[n + 1][i])]
    c = complex_from_ranks(
        CoefficientRing.integers(), dict(enumerate(dims)),
        {n: IntegerMatrix.from_rows(m, dims[n]) for n, m in d.items()})
    return c, free, {n: invariant_factors(v) for n, v in orders.items()}


def random_twisted(rng: random.Random, ring: CoefficientRing,
                   max_generators: int = 12,
                   max_pieces: int = 4) -> TwistedComplex:
    """A random valid twisted complex with at most max_generators cells.

    Generators are scattered over piece indices 0..max_pieces-1 and
    small internal degrees; boundaries are sampled inside the kernel of
    the differential built so far, restricted to the pieces a structure
    map may reach.
    """
    n_gens = rng.randint(1, max_generators)
    gens = []  # (piece, internal degree)
    for _ in range(n_gens):
        piece = rng.randrange(max_pieces)
        internal = rng.randrange(3)
        gens.append((piece, internal))

    # group by total degree; process ascending so boundaries are known
    by_total: dict[int, list[tuple[int, int]]] = {}
    for piece, internal in gens:
        by_total.setdefault(piece + internal, []).append((piece, internal))
    for lst in by_total.values():
        lst.sort()

    # per total degree: ordered basis (piece asc, position within piece)
    basis: dict[int, list[tuple[int, int]]] = {
        n: list(lst) for n, lst in by_total.items()}
    columns: dict[int, list[list[int]]] = {}  # total degree -> D_n columns

    def kernel_columns(n: int, piece_bound: int) -> list[list[int]]:
        """Kernel of D_{n} restricted to columns of pieces <= bound."""
        rows_basis = basis.get(n - 1, [])
        cols_basis = [g for g in basis.get(n, []) if g[0] <= piece_bound]
        if not cols_basis:
            return []
        dn = columns.get(n, [])
        sub = []
        for j, g in enumerate(basis.get(n, [])):
            if g[0] <= piece_bound:
                sub.append(dn[j] if j < len(dn) else [0] * len(rows_basis))
        a = [[sub[j][i] for j in range(len(sub))]
             for i in range(len(rows_basis))]
        if not rows_basis:
            return [[1 if i == j else 0 for i in range(len(cols_basis))]
                    for j in range(len(cols_basis))]
        if ring.is_field:
            arr = np.array(a, dtype=np.int64).reshape(len(rows_basis),
                                                      len(cols_basis))
            null = _fplinalg.null_space(arr, ring.p)
            return [null[:, j].tolist() for j in range(null.shape[1])]
        return _integer_kernel_basis(mat(a, len(cols_basis)))

    for n in sorted(basis):
        cols_here: list[list[int]] = []
        below = basis.get(n - 1, [])
        for piece, _ in basis[n]:
            if not below:
                cols_here.append([])
                continue
            kern = kernel_columns(n - 1, piece)
            target = [0] * len(below)
            for kcol in kern:
                if rng.random() < 0.5:
                    continue
                coeff = 1 if ring.is_field else rng.choice((-1, 1))
                # kernel vectors live on the prefix of pieces <= piece
                idx = 0
                for i, g in enumerate(below):
                    if g[0] <= piece:
                        target[i] += coeff * kcol[idx]
                        idx += 1
            cols_here.append(target)
        columns[n] = cols_here

    # split the assembled total differential into pieces and deltas
    ranks: dict[int, dict[int, int]] = {}
    for piece, internal in gens:
        ranks.setdefault(piece, {})
        ranks[piece][internal] = ranks[piece].get(internal, 0) + 1
    pieces = {i: complex_from_ranks(ring, r) for i, r in ranks.items()}

    position: dict[int, dict[tuple[int, int], list[int]]] = {}
    for n, lst in basis.items():
        position[n] = {}
        for idx, g in enumerate(lst):
            position[n].setdefault(g, []).append(idx)

    diff_blocks: dict[int, dict[int, dict[tuple[int, int], int]]] = {}
    delta_blocks: dict[tuple[int, int], dict[int, dict[tuple[int, int], int]]]
    delta_blocks = {}
    for n, cols_here in columns.items():
        below = basis.get(n - 1, [])
        for col_idx, (pi, mi) in enumerate(basis[n]):
            col = cols_here[col_idx]
            col_pos = position[n][(pi, mi)].index(col_idx)
            for row_idx, val in enumerate(col):
                if not val:
                    continue
                pj, mj = below[row_idx]
                row_pos = position[n - 1][(pj, mj)].index(row_idx)
                if pj == pi:
                    blk = diff_blocks.setdefault(pi, {}).setdefault(mi, {})
                    blk[(row_pos, col_pos)] = val
                else:
                    fam = delta_blocks.setdefault((pi, pj), {}).setdefault(
                        mi, {})
                    fam[(row_pos, col_pos)] = val

    full_pieces = {}
    for i, c in pieces.items():
        diffs = {}
        for m, entries in diff_blocks.get(i, {}).items():
            diffs[m] = IntegerMatrix(c.dim(m - 1), c.dim(m), entries)
        full_pieces[i] = complex_from_ranks(ring, dict(c.rank), diffs)

    structure = {}
    for (i, j), fams in delta_blocks.items():
        out = {}
        for m, entries in fams.items():
            out[m] = IntegerMatrix(full_pieces[j].dim(m + i - j - 1),
                                   full_pieces[i].dim(m), entries)
        structure[(i, j)] = out

    return twisted_from_parts(ring, full_pieces, structure)


def subspace_spectral_sequence(t: TwistedComplex, max_page: int):
    """Reference for twisted.spectral_sequence by the subspace formula.

    Each page is computed from scratch at every spot (p, q) as
    E_r = Z_r / (Z_{r-1}' + D Z_{r-1}''), with Z_r = {x in F^p Tot_n :
    D x in F^{p-r}}, and d_r as coordinates of D on representatives.
    Filtration prefixes are summed from the pieces; matrix products run
    in Python ints and are reduced mod p afterwards. Returns (pages,
    limit, collapsed_at), where pages[r - 1] = (dims, ranks): the
    nonzero dim E^r_{p,q} and the rank of each nonzero d_r out of (p, q).
    """
    pr = t.ring.p
    tot = totalize(t)
    order = sorted(t.pieces)
    if not order:
        return [], {}, 1
    width = order[-1] - order[0]

    def mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a.astype(object) @ b.astype(object) % pr).astype(np.int64)

    def prefix(n: int, f: int) -> int:
        return sum(t.pieces[i].dim(n - i) for i in order if i <= f)

    def cycle_space(f: int, r: int, n: int) -> np.ndarray:
        """Basis of Z_r = {x in F^f Tot_n : D x in F^{f-r}}, embedded."""
        dim_f = prefix(n, f)
        if dim_f == 0:
            return np.zeros((tot.dim(n), 0), dtype=np.int64)
        d = fp_array(tot.d(n), pr)
        if d.shape[0] == 0:
            inner = np.eye(dim_f, dtype=np.int64)
        else:
            inner = _fplinalg.null_space(d[prefix(n - 1, f - r):, :dim_f],
                                         pr)
        out = np.zeros((tot.dim(n), inner.shape[1]), dtype=np.int64)
        out[:dim_f, :] = inner
        return out

    def page_space(f: int, q: int, r: int):
        """(representatives, boundary span) of E_r at (f, q)."""
        n = f + q
        z = cycle_space(f, r, n)
        below = cycle_space(f - 1, r - 1, n)
        dz = mulmod(fp_array(tot.d(n + 1), pr),
                    cycle_space(f + r - 1, r - 1, n + 1))
        span = np.concatenate([below, dz], axis=1)
        reps: list[np.ndarray] = []
        for j in range(z.shape[1]):
            cur = np.concatenate([span] + [v.reshape(-1, 1) for v in reps],
                                 axis=1)
            if _fplinalg.solve(cur, z[:, j], pr) is None:
                reps.append(z[:, j])
        reps_m = np.stack(reps, axis=1) if reps else \
            np.zeros((z.shape[0], 0), dtype=np.int64)
        return reps_m, span

    spots = [(f, q) for f in order for q in sorted(t.pieces[f].rank)
             if t.pieces[f].dim(q) > 0]
    pages = []
    for r in range(1, min(max_page, width + 1) + 1):
        basis = {spot: page_space(*spot, r) for spot in spots}
        dims = {spot: reps.shape[1] for spot, (reps, _) in basis.items()
                if reps.shape[1]}
        ranks = {}
        for (f, q), (reps, _) in basis.items():
            tgt = (f - r, q + r - 1)
            if reps.shape[1] == 0 or tgt not in basis:
                continue
            treps, tspan = basis[tgt]
            images = mulmod(fp_array(tot.d(f + q), pr), reps)
            cols = np.zeros((treps.shape[1], reps.shape[1]), dtype=np.int64)
            for j in range(reps.shape[1]):
                y = _fplinalg.solve(np.concatenate([tspan, treps], axis=1),
                                    images[:, j], pr)
                assert y is not None, ("d_r left its target", r, (f, q))
                cols[:, j] = y[tspan.shape[1]:]
            rank = len(_fplinalg.rref(cols, pr)[1])
            if rank:
                ranks[(f, q)] = rank
        pages.append((dims, ranks))
    inf = {spot: page_space(*spot, width + 1)[0].shape[1] for spot in spots}
    inf = {spot: d for spot, d in inf.items() if d}
    collapsed_at = next((r for r, (dims, _) in enumerate(pages, 1)
                         if dims == inf), None)
    limit: dict[int, int] = {}
    for (f, q), d in inf.items():
        limit[f + q] = limit.get(f + q, 0) + d
    return pages, limit, collapsed_at


# ---------------------------------------------------------------------------
# dense assembly: an oracle for homalg.Layout and homalg.place_families


def _dense_starts(sizes: list[tuple[object, int]]) -> tuple[dict, int]:
    """Where each (key, size) starts when laid end to end, and the total."""
    starts, at = {}, 0
    for key, size in sizes:
        starts[key] = at
        at += size
    return starts, at


def _dense_matrix(rows: int, cols: int, placed) -> IntegerMatrix:
    """Blocks (row start, column start, block) summed into a dense array."""
    a = [[0] * cols for _ in range(rows)]
    for r0, c0, blk in placed:
        for (r, c), v in blk.entries.items():
            a[r0 + r][c0 + c] += v
    return IntegerMatrix.from_rows(a, cols)


def _tot_cells(t: TwistedComplex, n: int) -> tuple[dict, int]:
    # Tot_n lists the pieces by ascending index, piece i in degree n - i
    return _dense_starts([(i, t.pieces[i].dim(n - i))
                          for i in sorted(t.pieces)])


def dense_total_differential(t: TwistedComplex, n: int) -> IntegerMatrix:
    """D_n of Tot(t), assembled densely from each piece's differential
    and the structure maps."""
    (rows, r), (cols, c) = _tot_cells(t, n - 1), _tot_cells(t, n)
    placed = [(rows[i], cols[i], p.d(n - i)) for i, p in t.pieces.items()]
    placed += [(rows[j], cols[i], fam[n - i])
               for (i, j), fam in t.structure_maps.items() if n - i in fam]
    return _dense_matrix(r, c, placed)


def dense_morphism_matrix(m, n: int) -> IntegerMatrix:
    """The map Tot(m.source)_n -> Tot(m.target)_n of a twisted
    morphism, assembled densely from its blocks."""
    (rows, r), (cols, c) = _tot_cells(m.target, n), _tot_cells(m.source, n)
    return _dense_matrix(r, c, [(rows[j], cols[i], fam[n - i])
                                for (i, j), fam in m.blocks.items()
                                if n - i in fam])


def dense_realized_differential(f: FlowCategoryData, n: int,
                                ) -> IntegerMatrix:
    """D_n of Tot(realize(f)) from the objects themselves: the cells of
    total degree k are those of chain degree k - r of every object,
    objects by ascending index and then in declaration order; D is each
    chain's own differential plus the correspondence blocks."""
    order = sorted(f.objects, key=lambda o: o.index)  # stable

    def cells(k):
        return _dense_starts([(o.name, o.chain.dim(k - o.framing_rank))
                              for o in order])
    (rows, r), (cols, c) = cells(n - 1), cells(n)
    placed = [(rows[o.name], cols[o.name], o.chain.d(n - o.framing_rank))
              for o in order]
    for corr in f.correspondences:
        m = n - f.object(corr.source).framing_rank
        if m in corr.blocks:
            placed.append((rows[corr.target], cols[corr.source],
                           corr.blocks[m]))
    return _dense_matrix(r, c, placed)


def dense_preceq(p: LaurentPoly, q: LaurentPoly) -> PreceqVerdict:
    """The (1+t)-order by the recursion a_d = r_d - a_{d-1} at every
    degree from the lowest to the highest exponent of r = q - p, gaps
    included: the reference for homalg.preceq, which walks the support."""
    r = q - p
    if r.is_zero():
        return PreceqVerdict(True, LaurentPoly.zero(), None)
    lo, hi = r.support()[0], r.support()[-1]
    acc: dict[int, int] = {}
    prev = 0
    for d in range(lo, hi + 1):
        a_d = r.coefficient(d) - prev
        if a_d < 0:
            return PreceqVerdict(False, None, d)
        if a_d:
            acc[d] = a_d
        prev = a_d
    if prev != 0:
        return PreceqVerdict(False, None, hi + 1)
    return PreceqVerdict(True, LaurentPoly(acc), None)


def grid_equivariant_inequality(b: FlowCategoryData, cutoff: int,
                                ) -> InequalityReport:
    """The equivariant bound by a walk of every degree d in [0, cutoff],
    every level k and every fiber x, counting rk H_{d-2k-r_x}(C(x)): the
    reference for inequalities.equivariant_inequality, for a Borel
    category whose metadata holds and a cutoff in its stability range."""
    levels = b.borel.levels
    h = dim_t(homology(totalize(realize(b))))
    lhs = LaurentPoly.from_coeffs(
        {e: c for e, c in h.coeffs.items() if e <= cutoff})
    fiber_h = [(b.object(f"{x}@0").framing_rank, homology(b.object(
        f"{x}@0").chain)) for x in b.borel.fiber_names]
    rhs_coeffs: dict[int, int] = {}
    for d in range(cutoff + 1):
        total = 0
        for k in range(levels + 1):
            for r, hx in fiber_h:
                total += hx.free_rank(d - 2 * k - r)
        if total:
            rhs_coeffs[d] = total
    rhs = LaurentPoly.from_coeffs(rhs_coeffs)
    for d in range(cutoff + 1):
        if lhs.coefficient(d) > rhs.coefficient(d):
            return InequalityReport("equivariant", lhs, rhs, False,
                                    failure_degree=d)
    return InequalityReport("equivariant", lhs, rhs, True,
                            witness=rhs - lhs)
