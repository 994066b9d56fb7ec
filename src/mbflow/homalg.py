"""Exact homological algebra over Z and over prime fields.

This module owns the coefficient-ring abstraction, exact integer
matrices, bounded graded chain complexes, Smith normal form with
tracked transforms, homology with torsion, Poincare series in the
Laurent variable t, and the (1+t)-divisibility partial order on such
series that drives every inequality verdict in the package.

Matrix convention used everywhere: the differential d_n maps degree n
to degree n-1 and is stored as a (rank(n-1) x rank(n)) integer matrix
acting on column vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import _fplinalg
from .errors import (
    InvariantViolation,
    InvalidRange,
    ShapeMismatch,
    UnsupportedRing,
)


# ---------------------------------------------------------------------------
# coefficient rings


@dataclass(frozen=True)
class CoefficientRing:
    """Either the integers or a prime field F_p.

    kind is "Z" or "Fp"; p is None exactly when kind is "Z". Elimination
    mod p runs on int64 arrays and needs p*p below 2^63, so p is capped
    at MAX_PRIME_BOUND = 3037000499; the largest accepted prime is
    3037000493.
    """

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "Z":
            if self.p is not None:
                raise UnsupportedRing("Z carries no characteristic parameter")
        elif self.kind == "Fp":
            if self.p is not None and self.p > MAX_PRIME_BOUND:
                # checked first: trial division stays below ~55k steps
                raise UnsupportedRing(
                    f"Fp:{self.p} is too large: p*p must fit in a 64-bit "
                    f"integer, so p <= {MAX_PRIME_BOUND}")
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise UnsupportedRing(f"Fp requires a prime, got {self.p!r}")
        else:
            raise UnsupportedRing(f"unknown ring kind {self.kind!r}")

    @property
    def is_field(self) -> bool:
        return self.kind == "Fp"

    @staticmethod
    def integers() -> "CoefficientRing":
        return CoefficientRing("Z")

    @staticmethod
    def prime_field(p: int) -> "CoefficientRing":
        return CoefficientRing("Fp", p)

    @staticmethod
    def parse(text: str) -> "CoefficientRing":
        """Parse the wire form "Z" or "Fp:<p>"."""
        if text == "Z":
            return CoefficientRing.integers()
        if text.startswith("Fp:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise UnsupportedRing(f"bad ring spec {text!r}") from None
            return CoefficientRing.prime_field(p)
        raise UnsupportedRing(f"bad ring spec {text!r}")

    def __str__(self) -> str:
        return "Z" if self.kind == "Z" else f"Fp:{self.p}"


# the largest p with p*p < 2^63 (int64 products in _fplinalg)
MAX_PRIME_BOUND = 3037000499


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


ZZ = CoefficientRing.integers()
F2 = CoefficientRing.prime_field(2)


# ---------------------------------------------------------------------------
# exact integer matrices


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix with sparse storage and exact arithmetic.

    entries maps (row, col) to a nonzero int. Python ints keep all
    arithmetic exact regardless of magnitude.
    """

    rows: int
    cols: int
    entries: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch(f"negative shape {self.rows}x{self.cols}")
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ShapeMismatch(
                    f"entry ({i},{j}) outside {self.rows}x{self.cols}")
            if v == 0:
                raise ShapeMismatch(f"explicit zero stored at ({i},{j})")

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, {})

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def from_rows(data: Iterable[Iterable[int]], cols: int | None = None,
                  ) -> "IntegerMatrix":
        rows_list = [list(r) for r in data]
        nrows = len(rows_list)
        if cols is None:
            cols = len(rows_list[0]) if rows_list else 0
        entries: dict[tuple[int, int], int] = {}
        for i, row in enumerate(rows_list):
            if len(row) != cols:
                raise ShapeMismatch("ragged row data")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = int(v)
        return IntegerMatrix(nrows, cols, entries)

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    # -- arithmetic --------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.entries.get(key, 0)

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(
                f"add {self.rows}x{self.cols} to {other.rows}x{other.cols}")
        acc = dict(self.entries)
        for key, v in other.entries.items():
            s = acc.get(key, 0) + v
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        return IntegerMatrix(self.rows, self.cols, acc)

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols,
                             {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return self + (-other)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"compose {self.rows}x{self.cols} with "
                f"{other.rows}x{other.cols}")
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, []).append((k, v))
        acc: dict[tuple[int, int], int] = {}
        for (i, j), a in self.entries.items():
            for (k, b) in by_row.get(j, ()):
                key = (i, k)
                s = acc.get(key, 0) + a * b
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return IntegerMatrix(self.rows, other.cols, acc)

    def scale(self, c: int) -> "IntegerMatrix":
        if c == 0:
            return IntegerMatrix.zero(self.rows, self.cols)
        return IntegerMatrix(self.rows, self.cols,
                             {k: c * v for k, v in self.entries.items()})

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             {(j, i): v for (i, j), v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def is_zero_mod(self, p: int) -> bool:
        return all(v % p == 0 for v in self.entries.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            dict(self.entries) == dict(other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols}, {len(self.entries)} nz)"


def place_blocks(rows: int, cols: int,
                 placed: Iterable[tuple[int, int, IntegerMatrix]],
                 ) -> IntegerMatrix:
    """Sum of blocks, each added at its (row offset, column offset).

    Overlapping blocks add up; entries that cancel are dropped.

    >>> a = IntegerMatrix.identity(2)
    >>> place_blocks(3, 3, [(0, 0, a), (1, 1, a)]).to_rows()
    [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    """
    acc: dict[tuple[int, int], int] = {}
    for roff, coff, blk in placed:
        for (r, c), v in blk.entries.items():
            key = (roff + r, coff + c)
            s = acc.get(key, 0) + v
            if s:
                acc[key] = s
            else:
                del acc[key]
    return IntegerMatrix(rows, cols, acc)


def block_matrix(blocks: list[list[IntegerMatrix | None]],
                 row_sizes: list[int], col_sizes: list[int]) -> IntegerMatrix:
    """Assemble a matrix from a grid of blocks; None means a zero block."""
    roff = [0]
    for r in row_sizes:
        roff.append(roff[-1] + r)
    coff = [0]
    for c in col_sizes:
        coff.append(coff[-1] + c)
    placed = []
    for bi, brow in enumerate(blocks):
        for bj, blk in enumerate(brow):
            if blk is None:
                continue
            if blk.rows != row_sizes[bi] or blk.cols != col_sizes[bj]:
                raise ShapeMismatch(
                    f"block ({bi},{bj}) is {blk.rows}x{blk.cols}, slot wants "
                    f"{row_sizes[bi]}x{col_sizes[bj]}")
            placed.append((roff[bi], coff[bj], blk))
    return place_blocks(roff[-1], coff[-1], placed)


def fp_array(m: IntegerMatrix, p: int) -> np.ndarray:
    """Dense int64 copy of m with every entry reduced mod p first, so
    entries of any size convert."""
    out = np.zeros((m.rows, m.cols), dtype=np.int64)
    if m.entries:
        rows, cols = zip(*m.entries)
        out[rows, cols] = [v % p for v in m.entries.values()]
    return out


# ---------------------------------------------------------------------------
# Smith normal form


class _Transforms:
    """Row and column transform accumulators for the SNF reduction.

    Maintains u @ a0 @ v == a throughout, together with the exact
    inverses uinv, vinv, by mirroring every elementary operation.
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.u = [[int(i == j) for j in range(rows)] for i in range(rows)]
        self.uinv = [[int(i == j) for j in range(rows)] for i in range(rows)]
        self.v = [[int(i == j) for j in range(cols)] for i in range(cols)]
        self.vinv = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(self, i: int, j: int) -> None:
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for row in self.uinv:
            row[i], row[j] = row[j], row[i]

    def add_row(self, i: int, j: int, c: int) -> None:
        # row_i += c * row_j on the working matrix
        ui, uj = self.u[i], self.u[j]
        for k in range(len(ui)):
            ui[k] += c * uj[k]
        for row in self.uinv:
            row[j] -= c * row[i]

    def negate_row(self, i: int) -> None:
        self.u[i] = [-x for x in self.u[i]]
        for row in self.uinv:
            row[i] = -row[i]

    def swap_cols(self, i: int, j: int) -> None:
        for row in self.v:
            row[i], row[j] = row[j], row[i]
        self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def add_col(self, i: int, j: int, c: int) -> None:
        # col_i += c * col_j on the working matrix
        for row in self.v:
            row[i] += c * row[j]
        vi, vj = self.vinv[i], self.vinv[j]
        for k in range(len(vj)):
            vj[k] -= c * vi[k]


@dataclass(frozen=True)
class SmithDecomposition:
    """Full SNF data: u @ original @ v has `diagonal` on its diagonal."""

    diagonal: tuple[int, ...]
    rank: int
    u: IntegerMatrix
    uinv: IntegerMatrix
    v: IntegerMatrix
    vinv: IntegerMatrix


def smith_normal_form(m: IntegerMatrix, with_transforms: bool = False):
    """Smith normal form of an integer matrix.

    Returns (diagonal, rank) by default, where diagonal lists the
    positive invariant factors d_1 | d_2 | ... With with_transforms=True
    returns a SmithDecomposition carrying unimodular u, v and their
    exact inverses.

    The pivot choice (smallest absolute value, then lowest row, then
    lowest column) is deterministic, so repeated runs agree entry for
    entry.

    >>> m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    >>> smith_normal_form(m)
    ((2, 4), 2)
    >>> smith_normal_form(IntegerMatrix.zero(2, 3))
    ((), 0)
    """
    a = m.to_rows()
    rows, cols = m.rows, m.cols
    tr = _Transforms(rows, cols)
    t = 0
    while True:
        # locate the deterministic pivot in the trailing submatrix
        best: tuple[int, int, int] | None = None
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                v = ai[j]
                if v:
                    key = (abs(v), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            tr.swap_rows(t, pi)
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            tr.swap_cols(t, pj)
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        at = a[t]
                        ai = a[i]
                        for k in range(t, cols):
                            ai[k] -= q * at[k]
                        tr.add_row(i, t, -q)
                    if a[i][t]:
                        # remainder is smaller than the pivot; promote it
                        a[t], a[i] = a[i], a[t]
                        tr.swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row_i in range(t, rows):
                            a[row_i][j] -= q * a[row_i][t]
                        tr.add_col(j, t, -q)
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        tr.swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # enforce divisibility of the trailing submatrix by the pivot
            offender = None
            for i in range(t + 1, rows):
                ai = a[i]
                for j in range(t + 1, cols):
                    if ai[j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            at = a[t]
            ao = a[offender]
            for k in range(t, cols):
                at[k] += ao[k]
            tr.add_row(t, offender, 1)
        if a[t][t] < 0:
            for k in range(t, cols):
                a[t][k] = -a[t][k]
            tr.negate_row(t)
        t += 1
    diagonal = tuple(a[i][i] for i in range(t))
    if not with_transforms:
        return diagonal, t
    return SmithDecomposition(
        diagonal=diagonal,
        rank=t,
        u=IntegerMatrix.from_rows(tr.u, rows),
        uinv=IntegerMatrix.from_rows(tr.uinv, rows),
        v=IntegerMatrix.from_rows(tr.v, cols),
        vinv=IntegerMatrix.from_rows(tr.vinv, cols),
    )


def integer_rank(m: IntegerMatrix) -> int:
    return smith_normal_form(m)[1]


# ---------------------------------------------------------------------------
# graded chain complexes


@dataclass(frozen=True)
class GradedChainComplex:
    """Bounded chain complex with integer matrices as differentials.

    rank maps each degree in [min_degree, max_degree] to a nonnegative
    dimension; differential[n] is the map out of degree n, shaped
    rank(n-1) x rank(n). Missing differentials mean zero. Construction
    verifies shapes and d_n . d_{n+1} = 0 over the stated ring.
    """

    ring: CoefficientRing
    min_degree: int
    max_degree: int
    rank: Mapping[int, int] = field(default_factory=dict)
    differential: Mapping[int, IntegerMatrix] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_degree > self.max_degree:
            raise InvalidRange(
                f"degree range [{self.min_degree}, {self.max_degree}] is empty")
        for n, r in self.rank.items():
            if r < 0:
                raise ShapeMismatch(f"negative rank {r} in degree {n}")
            if r > 0 and not (self.min_degree <= n <= self.max_degree):
                raise InvalidRange(
                    f"rank in degree {n} outside "
                    f"[{self.min_degree}, {self.max_degree}]")
        for n, d in self.differential.items():
            want = (self.dim(n - 1), self.dim(n))
            if (d.rows, d.cols) != want:
                raise ShapeMismatch(
                    f"differential out of degree {n} is {d.rows}x{d.cols}, "
                    f"expected {want[0]}x{want[1]}")
        for n in range(self.min_degree, self.max_degree + 1):
            sq = self.d(n) @ self.d(n + 1)
            ok = sq.is_zero_mod(self.ring.p) if self.ring.is_field \
                else sq.is_zero()
            if not ok:
                raise InvariantViolation(
                    f"d.d is nonzero out of degree {n + 1} over {self.ring}")

    def dim(self, n: int) -> int:
        return self.rank.get(n, 0)

    def d(self, n: int) -> IntegerMatrix:
        got = self.differential.get(n)
        if got is not None:
            return got
        return IntegerMatrix.zero(self.dim(n - 1), self.dim(n))

    def degrees(self) -> range:
        return range(self.min_degree, self.max_degree + 1)

    def total_dim(self) -> int:
        return sum(self.dim(n) for n in self.degrees())

    def with_ring(self, ring: CoefficientRing) -> "GradedChainComplex":
        """Same integer matrices read over a different coefficient ring."""
        return GradedChainComplex(ring, self.min_degree, self.max_degree,
                                  dict(self.rank), dict(self.differential))


def complex_from_ranks(ring: CoefficientRing, ranks: Mapping[int, int],
                       diffs: Mapping[int, IntegerMatrix] | None = None,
                       ) -> GradedChainComplex:
    """Build a complex, inferring the degree range from its support."""
    support = [n for n, r in ranks.items() if r > 0]
    if not support:
        return GradedChainComplex(ring, 0, 0, {}, {})
    lo, hi = min(support), max(support)
    clean = {n: r for n, r in ranks.items() if r > 0}
    dmap = {n: d for n, d in (diffs or {}).items() if not d.is_zero()}
    return GradedChainComplex(ring, lo, hi, clean, dmap)


def shift_complex(c: GradedChainComplex, s: int) -> GradedChainComplex:
    """Degree shift: the new complex has C'_n = C_{n-s}, same maps."""
    return GradedChainComplex(
        c.ring, c.min_degree + s, c.max_degree + s,
        {n + s: r for n, r in c.rank.items()},
        {n + s: d for n, d in c.differential.items()},
    )


def negate_complex(c: GradedChainComplex) -> GradedChainComplex:
    """The same complex with every differential negated."""
    return GradedChainComplex(
        c.ring, c.min_degree, c.max_degree, dict(c.rank),
        {n: -d for n, d in c.differential.items()})


def dual_complex(c: GradedChainComplex) -> GradedChainComplex:
    """Linear dual placed in negative degrees: C'_n = Hom(C_{-n}, R).

    The differential out of degree n is the transpose of the one out of
    degree -n + 1; transposing reverses composition, so d'.d' = 0 holds
    with no extra signs.
    """
    ranks = {-n: r for n, r in c.rank.items()}
    diffs = {}
    for n in c.degrees():
        d = c.d(n)
        if not d.is_zero():
            diffs[-n + 1] = d.transpose()
    return GradedChainComplex(c.ring, -c.max_degree, -c.min_degree,
                              ranks, diffs)


def direct_sum(parts: list[GradedChainComplex]) -> GradedChainComplex:
    if not parts:
        raise InvalidRange("direct sum of no complexes")
    ring = parts[0].ring
    for c in parts:
        if c.ring != ring:
            raise UnsupportedRing("direct sum over mixed rings")
    lo = min(c.min_degree for c in parts)
    hi = max(c.max_degree for c in parts)
    ranks: dict[int, int] = {}
    diffs: dict[int, IntegerMatrix] = {}
    for n in range(lo, hi + 1):
        placed, roff, coff = [], 0, 0
        for c in parts:
            placed.append((roff, coff, c.d(n)))
            roff += c.dim(n - 1)
            coff += c.dim(n)
        ranks[n] = coff
        d = place_blocks(roff, coff, placed)
        if not d.is_zero():
            diffs[n] = d
    return GradedChainComplex(ring, lo, hi,
                              {n: r for n, r in ranks.items() if r > 0},
                              diffs)


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologySummary:
    """Homology of a bounded complex, one line per degree.

    free_rank(n) is the rank of the free part over Z, or the dimension
    over F_p. torsion(n) lists the invariant factors > 1 of the torsion
    subgroup over Z (always empty over a field), in divisibility order.
    """

    ring: CoefficientRing
    min_degree: int
    max_degree: int
    free: Mapping[int, int] = field(default_factory=dict)
    torsion_factors: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def free_rank(self, n: int) -> int:
        return self.free.get(n, 0)

    def torsion(self, n: int) -> tuple[int, ...]:
        return self.torsion_factors.get(n, ())

    def degrees(self) -> range:
        return range(self.min_degree, self.max_degree + 1)

    def total_rank(self) -> int:
        return sum(self.free.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * r for n, r in self.free.items())

    def is_trivial(self) -> bool:
        return not self.free and not self.torsion_factors


def _homology_degree_integer(a: IntegerMatrix, b: IntegerMatrix,
                             ) -> tuple[int, tuple[int, ...]]:
    """H = ker(a)/im(b) over Z, for a: C_n -> C_{n-1}, b: C_{n+1} -> C_n.

    Works in kernel coordinates: with u a v = s (SNF of a, rank r), the
    columns of v past r form a kernel basis, and vinv carries any cycle
    to coordinates supported in those rows. im(b) lies in ker(a), so
    m = (vinv b) restricted to rows >= r expresses the boundaries in
    the kernel basis; the SNF of m reads off free rank and torsion.
    """
    dec = smith_normal_form(a, with_transforms=True)
    r = dec.rank
    k = a.cols - r  # dim ker(a)
    coords = dec.vinv @ b
    m_entries = {(i - r, j): v for (i, j), v in coords.entries.items()
                 if i >= r}
    # rows < r of vinv @ b must vanish exactly: s (vinv b) = u a b = 0 and
    # the first r diagonal entries of s are nonzero integers
    if any(i < r for (i, _) in coords.entries):
        raise InvariantViolation(
            "boundaries do not lie in the kernel (d.d != 0 slipped through)")
    m = IntegerMatrix(k, b.cols, m_entries)
    diag, rank_m = smith_normal_form(m)
    # rank-nullity cross-check against independent rank computations
    rank_b = integer_rank(b)
    if rank_m != rank_b:
        raise InvariantViolation(
            f"rank of boundary image changed under the kernel change of "
            f"basis ({rank_m} vs {rank_b})")
    free = k - rank_m
    torsion = tuple(d for d in diag if d > 1)
    return free, torsion


def homology(c: GradedChainComplex) -> HomologySummary:
    """Homology of a bounded complex over its coefficient ring.

    Over Z the answer is exact, with torsion reported as invariant
    factors in divisibility order. Over F_p ranks come from Gaussian
    elimination mod p and the rank-nullity identity in every degree is
    asserted before returning.
    """
    if c.ring.is_field:
        return _homology_field(c)
    free: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for n in c.degrees():
        f, tor = _homology_degree_integer(c.d(n), c.d(n + 1))
        expected_f = c.dim(n) - integer_rank(c.d(n)) - integer_rank(c.d(n + 1))
        if f != expected_f:
            raise InvariantViolation(
                f"free rank in degree {n} disagrees with rank-nullity "
                f"({f} vs {expected_f})")
        if f:
            free[n] = f
        if tor:
            torsion[n] = tor
    return HomologySummary(c.ring, c.min_degree, c.max_degree, free, torsion)


def _homology_field(c: GradedChainComplex) -> HomologySummary:
    p = c.ring.p
    assert p is not None
    free: dict[int, int] = {}
    for n in c.degrees():
        r_out = _fplinalg.rank(fp_array(c.d(n), p), p)
        r_in = _fplinalg.rank(fp_array(c.d(n + 1), p), p)
        f = c.dim(n) - r_out - r_in
        if f < 0:
            raise InvariantViolation(
                f"negative homology dimension in degree {n}")
        if f:
            free[n] = f
    return HomologySummary(c.ring, c.min_degree, c.max_degree, free, {})


# ---------------------------------------------------------------------------
# Laurent polynomials and the (1+t)-order


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial in t with integer coefficients.

    coeffs maps exponent to a nonzero coefficient; the zero polynomial
    has an empty map.

    >>> p = LaurentPoly.from_coeffs({0: 1, 2: 1})
    >>> q = LaurentPoly.from_coeffs({1: 1})
    >>> str(p + q)
    '1 + t + t^2'
    >>> str(p * q)
    't + t^3'
    >>> (p + q).evaluate(-1)
    1
    """

    coeffs: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for e, v in self.coeffs.items():
            if v == 0:
                raise ShapeMismatch(f"explicit zero coefficient at t^{e}")

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def t_power(e: int, c: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: c} if c else {})

    @staticmethod
    def from_coeffs(coeffs: Mapping[int, int]) -> "LaurentPoly":
        return LaurentPoly({e: v for e, v in coeffs.items() if v})

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self.coeffs)
        for e, v in other.coeffs.items():
            s = acc.get(e, 0) + v
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return LaurentPoly(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict[int, int] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                s = acc.get(e, 0) + v1 * v2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return LaurentPoly(acc)

    def evaluate(self, x: int) -> int:
        return sum(v * x ** e for e, v in self.coeffs.items())

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.coeffs.values())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in self.support():
            v = self.coeffs[e]
            if e == 0:
                term = str(abs(v))
            else:
                base = "t" if e == 1 else f"t^{e}"
                term = base if abs(v) == 1 else f"{abs(v)}*{base}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)


ONE_PLUS_T = LaurentPoly({0: 1, 1: 1})


def dim_t(h: HomologySummary) -> LaurentPoly:
    """Poincare series of a homology summary.

    The coefficient at t^n is free_rank(n) over Z or the dimension over
    F_p; torsion never contributes.
    """
    return LaurentPoly.from_coeffs(dict(h.free))


@dataclass(frozen=True)
class PreceqVerdict:
    """Outcome of a (1+t)-order comparison.

    holds is True when q - p = (1+t)*a for the unique candidate a with
    nonnegative coefficients; a is then the witness. On failure,
    failing_degree is the first exponent where the recursion produced a
    negative coefficient or where a nonzero tail survived.
    """

    holds: bool
    witness: LaurentPoly | None = None
    failing_degree: int | None = None


def preceq(p: LaurentPoly, q: LaurentPoly) -> PreceqVerdict:
    """Decide p <= q in the order generated by adding (1+t)*t^k terms.

    p <= q iff (q - p)/(1 + t) exists with nonnegative coefficients.
    Since 1 + t is monic the candidate quotient is unique; it is built
    from the lowest exponent upward by a_d = r_d - a_{d-1} and the
    comparison fails at the first negative a_d or at a nonzero tail.

    >>> p = LaurentPoly.from_coeffs({0: 1, 2: 1})
    >>> q = LaurentPoly.from_coeffs({0: 1, 1: 1, 2: 2})
    >>> str(preceq(p, q).witness)   # q - p = t + t^2 = (1+t)*t
    't'
    >>> preceq(p, p).holds
    True
    >>> v = preceq(LaurentPoly.one(), p)
    >>> (v.holds, v.failing_degree)
    (False, 3)
    """
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
        # the quotient would need a term at hi with nothing to cancel it
        return PreceqVerdict(False, None, hi + 1)
    witness = LaurentPoly(acc)
    return PreceqVerdict(True, witness, None)
