"""Exact homological algebra over Z and over prime fields.

This module owns the coefficient-ring abstraction, exact integer
matrices, bounded graded chain complexes, graded layouts of shifted
summands with the one rule that checks and places block families
between them, the Smith normal form (invariant factors only), homology
with torsion, Poincare series in the Laurent variable t, and the
(1+t)-divisibility partial order on such series that drives every
inequality verdict in the package.

Each chain complex keeps one column reduction of each differential over
its ring's field (GradedChainComplex.column_reductions): homology over
F_p reads its ranks there, and twisted's spectral sequence and
long-exact-sequence audit read the same reductions of Tot.

Integer homology works in two stages (Dumas, Heckenbach, Saunders and
Welker 2003): unit_sweep, a sparse column elimination of each
differential that pivots only on +-1, splits off its unit pivots, and
only the leftover goes through the Smith form, one per degree and
without transforms, dense on each block of leftover columns that share
no row. Each block's Smith form runs modulo a nonzero rank x rank
minor D of the block, which a fraction-free elimination (Bareiss
1968) gives along with the rank. Every nonzero invariant factor divides
D, so working mod D loses none of them and keeps every entry below D
(Domich, Kannan and Trotter 1987; Hafner and McCurley 1991). Every
integer rank is cross-checked against elimination of the original
differential modulo a large prime. Induced maps over Z, as in twisted's
long-exact-sequence audit, are read and ranked after tensoring with Q,
off the same sparse column reduction as over F_p (_fplinalg), and need
no Smith form.

Matrix convention used everywhere: the differential d_n maps degree n
to degree n-1 and is stored as a (rank(n-1) x rank(n)) integer matrix
acting on column vectors.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property
from math import gcd
from typing import Any, Callable, Iterable, Mapping

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
    """Either the integers or a prime field F_p, told apart by p: None
    for Z, else the prime. p is capped at MAX_PRIME_BOUND = 3037000499
    (the largest accepted prime is 3037000493) so that p*p fits in an
    int64, which only the dense routines of _fplinalg (rref and those on
    it) need; the sparse F_p elimination that every computation runs
    works in Python ints.
    """

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is None:
            return
        if self.p > MAX_PRIME_BOUND:
            # checked first: trial division stays below ~55k steps
            raise UnsupportedRing(
                f"Fp:{self.p} is too large: p*p must fit in a 64-bit "
                f"integer, so p <= {MAX_PRIME_BOUND}")
        if self.p < 2 or not _is_prime(self.p):
            raise UnsupportedRing(f"Fp requires a prime, got {self.p!r}")

    @property
    def is_field(self) -> bool:
        return self.p is not None

    @staticmethod
    def integers() -> "CoefficientRing":
        return CoefficientRing()

    @staticmethod
    def prime_field(p: int) -> "CoefficientRing":
        return CoefficientRing(p)

    @staticmethod
    def parse(text: str) -> "CoefficientRing":
        """Parse the wire form "Z" or "Fp:<p>", p in ASCII digits only."""
        if text == "Z":
            return CoefficientRing.integers()
        p = text[3:]
        if text.startswith("Fp:") and p.isascii() and p.isdigit():
            try:
                return CoefficientRing.prime_field(int(p))
            except ValueError:  # more digits than int() converts
                pass
        raise UnsupportedRing(f"bad ring spec {text!r}")

    def reduces_to(self, ring: "CoefficientRing") -> bool:
        """Whether every integer matrix identity that holds over this
        ring holds over ring too: the same ring, or from Z to a prime
        field (reduction mod p). Then d.d = 0 carries over."""
        return self == ring or not self.is_field

    def __str__(self) -> str:
        return "Z" if self.p is None else f"Fp:{self.p}"


# the largest p with p*p < 2^63 (int64 products in _fplinalg.rref)
MAX_PRIME_BOUND = 3037000499

# integer ranks are cross-checked by elimination modulo this prime
# (2^31 - 1); the rank mod q is the rank over Z minus the number of
# invariant factors divisible by q
CHECK_PRIME = 2147483647


def _is_prime(n: int) -> bool:
    """Trial division, for n >= 2: the caller refuses smaller n first."""
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

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             {(j, i): v for (i, j), v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            dict(self.entries) == dict(other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols}, {len(self.entries)} nz)"


def first_nonzero(terms: Iterable[tuple[int, IntegerMatrix]],
                  p: int | None) -> tuple[int, int] | None:
    """The first (degree, column) of the (degree, matrix) terms, in order,
    whose matrix is nonzero over the ring (mod p, or over Z when p is
    None), with the least column holding a nonzero entry; None if there
    is none. Every chain-level identity is decided here, and nothing
    after the first failure of a generator of terms is computed.

    >>> first_nonzero([(0, IntegerMatrix.zero(1, 1)),
    ...                (1, IntegerMatrix.from_rows([[0, 3, 2]]))], 3)
    (1, 2)
    """
    for n, m in terms:
        cols = [c for (_, c), v in m.entries.items() if (v % p if p else v)]
        if cols:
            return n, min(cols)
    return None


def squares(differential: Mapping[int, IntegerMatrix],
            ) -> Iterable[tuple[int, IntegerMatrix]]:
    """(n + 1, d_n d_{n+1}) for each stored pair, ascending, each product
    made when it is read; a missing differential is zero."""
    return ((n + 1, differential[n] @ differential[n + 1])
            for n in sorted(differential) if n + 1 in differential)


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


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(m: IntegerMatrix) -> tuple[tuple[int, ...], int]:
    """Smith normal form of an integer matrix, without transforms.

    Returns (diagonal, rank), where diagonal lists the positive
    invariant factors d_1 | d_2 | ... It is meant for the leftover of
    unit_sweep, which holds no +-1 pivot, and only the diagonal is kept:
    homology over Z reads nothing else (Dumas, Heckenbach, Saunders and
    Welker 2003).

    Columns that share no row, even through other columns, make
    independent blocks: m is equivalent to their direct sum, so each
    block takes its own Smith form (_block_factors), and the factors of
    all blocks are put in divisibility order together. A leftover of
    many small blocks, such as one torsion summand per object, so costs
    per block rather than one dense elimination of the whole.

    >>> m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    >>> smith_normal_form(m)
    ((2, 4), 2)
    >>> smith_normal_form(IntegerMatrix.from_rows([[4, 6], [6, 4]]))
    ((2, 10), 2)
    >>> smith_normal_form(IntegerMatrix.from_rows([[0, 3], [2, 0]]))
    ((1, 6), 2)
    >>> smith_normal_form(IntegerMatrix.zero(2, 3))
    ((), 0)
    """
    cols: dict[int, dict[int, int]] = {}
    row_cols: dict[int, list[int]] = {}
    for (i, j), v in m.entries.items():
        cols.setdefault(j, {})[i] = v
        row_cols.setdefault(i, []).append(j)
    factors: list[int] = []
    rank = 0
    while cols:
        # a block: the columns reached from one through shared rows,
        # each row followed once
        block, todo = [], [next(iter(cols))]
        while todo:
            col = cols.pop(todo.pop(), None)
            if col is not None:
                block.append(col)
                for i in col:
                    todo += row_cols.pop(i, ())
        rows = {i: k for k, i in enumerate(sorted({i for c in block
                                                    for i in c}))}
        f, r = _block_factors(IntegerMatrix(len(rows), len(block), {
            (rows[i], j): v for j, c in enumerate(block)
            for i, v in c.items()}))
        factors += f
        rank += r
    return tuple(_divisibility_order(factors)), rank


def _block_factors(m: IntegerMatrix) -> tuple[list[int], int]:
    """(invariant factors, rank) of a nonzero matrix, by one dense
    elimination.

    The elimination runs modulo D, the nonzero rank x rank minor that
    _bareiss ends on (Domich, Kannan and Trotter 1987; Hafner and
    McCurley 1991). The product of the factors is the gcd of the
    rank x rank minors, which divides D, so each factor divides D and
    is read off mod D as gcd(pivot, D); a factor with no nonzero pivot
    mod D is D. Every step on two lines is unimodular, and the
    extended-gcd step shrinks the pivot. Column t is cleared, then row
    t by clearing the transpose, which has the same Smith form, until
    both are zero.
    """
    rank, det = _bareiss(m)
    a = [[v % det for v in row] for row in m.to_rows()]
    factors = []
    for t in range(min(m.rows, m.cols)):
        pick = next(((i, j) for i in range(t, len(a))
                     for j in range(t, len(a[i])) if a[i][j]), None)
        if pick is None:
            break
        i, j = pick
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, len(a)):
                if a[i][t]:
                    a[t], a[i] = _unimodular_step(a[t], a[i], t, det)
            if not any(a[t][t + 1:]):
                break
            a = [list(col) for col in zip(*a)]
        factors.append(gcd(a[t][t], det))
    factors += [det] * (rank - len(factors))
    # pivots nonzero mod D can outnumber the rank; the swaps turn each
    # extra one into D, which sorts last
    return _divisibility_order(factors)[:rank], rank


def _divisibility_order(factors: list[int]) -> list[int]:
    """Positive factors in divisibility order, with the Smith form of
    their diagonal.

    Each factor is a product of powers of a pairwise coprime base (see
    _coprime_base), and the Smith form of a diagonal is read off one
    base element b at a time: the k-th smallest exponent of b among the
    factors is its exponent in the k-th invariant factor. So the cost
    grows with the number of distinct factors and base elements, not
    with the number of pairs of factors.
    """
    counts = Counter(factors)
    out = [1] * len(factors)
    for b in _coprime_base(counts):
        exps = []
        for v, k in counts.items():
            e = 0
            while v % b == 0:
                v //= b
                e += 1
            if e:
                exps += [e] * k
        exps.sort()
        for i, e in enumerate(exps, len(out) - len(exps)):
            out[i] *= b ** e
    return out


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 whose powers multiply to each of
    the positive values, by gcd refinement: b and x with g = gcd(b, x)
    > 1 give way to b / g, g and x / g, which lowers the product of all
    pending numbers (Bernstein, "Factoring into coprimes in essentially
    linear time", J. Algorithms 2005, bounds the general problem)."""
    base: list[int] = []
    for x in values:
        todo = [x]
        while todo:
            x = todo.pop()
            if x == 1:
                continue
            for i, b in enumerate(base):
                g = gcd(b, x)
                if g > 1:
                    del base[i]
                    todo += (b // g, g, x // g)
                    break
            else:
                base.append(x)
    return base


def _unimodular_step(top: list[int], row: list[int], t: int, mod: int,
                     ) -> tuple[list[int], list[int]]:
    """top and row, reduced mod mod, after a unimodular step that
    clears row[t] against the pivot top[t]."""
    p, x = top[t], row[t]
    if x % p == 0:
        # an extended gcd of equal entries would swap the lines forever
        return top, [(v - x // p * w) % mod for w, v in zip(top, row)]
    g, s, u = _xgcd(p, x)
    return ([(s * w + u * v) % mod for w, v in zip(top, row)],
            [(p // g * v - x // g * w) % mod for w, v in zip(top, row)])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with s*a + u*b = g = gcd(a, b)."""
    s, s1, u, u1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s, s1, u, u1 = b, a - q * b, s1, s - q * s1, u1, u - q * u1
    return a, s, u


def _bareiss(m: IntegerMatrix) -> tuple[int, int]:
    """(rank, |D|) of m by fraction-free elimination (Bareiss 1968).

    After k pivots every entry left below them is a (k+1)-minor of m,
    so each division by the previous pivot is exact and the entries
    stay within Hadamard's bound: Python ints, no fractions. D, the
    last pivot, is the rank x rank minor on the pivot rows and columns,
    and nonzero; it is 1 for a zero matrix.
    """
    a = [row for row in m.to_rows() if any(row)]
    rank, prev = 0, 1
    for j in range(m.cols):
        if rank == len(a):
            break
        pick = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if pick is None:
            continue
        a[rank], a[pick] = a[pick], a[rank]
        top = a[rank]
        p = top[j]
        for i in range(rank + 1, len(a)):
            ai = a[i]
            f = ai[j]
            for k in range(j + 1, m.cols):
                ai[k] = (p * ai[k] - f * top[k]) // prev
        prev = p
        rank += 1
    return rank, abs(prev)


def integer_rank(m: IntegerMatrix) -> int:
    """Rank of m over Q, by fraction-free elimination (_bareiss).

    Dense and cubic, it is the independent reference that the sparse
    rank over Q (_fplinalg.rank with p None) is tested against.

    >>> integer_rank(IntegerMatrix.from_rows([[2, 4], [3, 6]]))
    1
    """
    return _bareiss(m)[0]


# ---------------------------------------------------------------------------
# graded chain complexes


@dataclass(frozen=True)
class GradedChainComplex:
    """Bounded chain complex with integer matrices as differentials.

    rank maps degrees to nonnegative dimensions, and a degree it does
    not store has none; differential[n] is the map out of degree n,
    shaped rank(n-1) x rank(n). Missing differentials mean zero. The
    complex stores nothing else: its degrees are where its cells are,
    however far apart, and no range is declared around them.

    Every constructor checks the ranks and the shapes. Those that
    take matrices from outside verify d_n . d_{n+1} = 0 over the stated
    ring and raise InvariantViolation otherwise: GradedChainComplex(...)
    itself, complex_from_ranks and so the file parser, and with_ring to
    a ring this one does not reduce to. Those that derive a complex from
    checked ones square nothing: shift_complex, negate_complex,
    dual_complex, direct_sum, with_ring to the same ring or from Z to a
    prime field, and Tot's complex, built after a valid Maurer-Cartan
    verdict (twisted.validate) has squared each D_n D_{n+1} once.

    column_reductions is computed on first use and kept, so each d_n is
    reduced once however many layers read it. The real projective
    plane, one cell in each degree with d_2 = 2: over F_3 the 2 is a
    unit, d_2 has one low and H = F_3 in degree 0; over F_2 it reduces
    to zero, there is no low, and H = F_2 in degrees 0, 1 and 2.

    >>> d = {2: IntegerMatrix.from_rows([[2]])}
    >>> rp2 = complex_from_ranks(CoefficientRing.prime_field(3),
    ...                          {0: 1, 1: 1, 2: 1}, d)
    >>> {n: low for n, (_, _, low) in rp2.column_reductions.items()}
    {2: {0: 0}}
    >>> dict(homology(rp2).free)
    {0: 1}
    >>> rp2 = complex_from_ranks(F2, {0: 1, 1: 1, 2: 1}, d)
    >>> {n: low for n, (_, _, low) in rp2.column_reductions.items()}
    {2: {}}
    >>> dict(homology(rp2).free)
    {0: 1, 1: 1, 2: 1}
    """

    ring: CoefficientRing
    rank: Mapping[int, int] = field(default_factory=dict)
    differential: Mapping[int, IntegerMatrix] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._check_shapes()
        bad = first_nonzero(squares(self.differential), self.ring.p)
        if bad is not None:
            raise InvariantViolation(
                f"d.d is nonzero out of degree {digits(bad[0])} over "
                f"{self.ring}")

    @classmethod
    def _derived(cls, ring: CoefficientRing, rank: Mapping[int, int],
                 differential: Mapping[int, IntegerMatrix],
                 ) -> "GradedChainComplex":
        """A complex whose d.d = 0 follows from complexes already
        checked: the ranks and shapes are checked, nothing is squared."""
        c = object.__new__(cls)
        c.__dict__.update(ring=ring, rank=rank, differential=differential)
        c._check_shapes()
        return c

    def _check_shapes(self) -> None:
        for n, r in self.rank.items():
            if r < 0:
                raise ShapeMismatch(f"negative rank {r} in degree {n}")
        for n, d in self.differential.items():
            want = (self.dim(n - 1), self.dim(n))
            if (d.rows, d.cols) != want:
                raise ShapeMismatch(
                    f"differential out of degree {n} is {d.rows}x{d.cols}, "
                    f"expected {want[0]}x{want[1]}")

    def dim(self, n: int) -> int:
        return self.rank.get(n, 0)

    def d(self, n: int) -> IntegerMatrix:
        got = self.differential.get(n)
        if got is not None:
            return got
        return IntegerMatrix.zero(self.dim(n - 1), self.dim(n))

    def total_dim(self) -> int:
        return sum(self.rank.values())

    @cached_property
    def column_reductions(self) -> dict[int, tuple]:
        """(R, V, low) of every stored d_n over the ring's field, mod p or
        over Q for Z (_fplinalg.reduce_columns), as sparse columns:
        rk d_n = len(low) for homology over F_p, and the pairs and frames
        of twisted's spectral sequence and long-exact-sequence audit."""
        return {n: _fplinalg.reduce_columns(d, self.ring.p)
                for n, d in self.differential.items()}

    def with_ring(self, ring: CoefficientRing) -> "GradedChainComplex":
        """Same integer matrices read over another coefficient ring.

        When this complex's ring reduces to ring (the same ring, or Z to a
        prime field), d.d = 0 carries over and nothing is squared. Any
        other change (F_p to Z or to F_q) squares every d_n d_{n+1} again
        over ring and raises InvariantViolation if one is nonzero.
        """
        build = GradedChainComplex._derived if self.ring.reduces_to(ring) \
            else GradedChainComplex
        return build(ring, dict(self.rank), dict(self.differential))


def complex_from_ranks(ring: CoefficientRing, ranks: Mapping[int, int],
                       diffs: Mapping[int, IntegerMatrix] | None = None,
                       ) -> GradedChainComplex:
    """Build a complex from ranks and differentials, dropping the zero
    ranks and the zero differentials, so it stores only its cells."""
    return GradedChainComplex(
        ring, {n: r for n, r in ranks.items() if r > 0},
        {n: d for n, d in (diffs or {}).items() if not d.is_zero()})


def shift_complex(c: GradedChainComplex, s: int) -> GradedChainComplex:
    """Degree shift: the new complex has C'_n = C_{n-s}, same maps."""
    return GradedChainComplex._derived(
        c.ring, {n + s: r for n, r in c.rank.items()},
        {n + s: d for n, d in c.differential.items()},
    )


def negate_complex(c: GradedChainComplex) -> GradedChainComplex:
    """The same complex with every differential negated."""
    return GradedChainComplex._derived(
        c.ring, dict(c.rank), {n: -d for n, d in c.differential.items()})


def dual_complex(c: GradedChainComplex) -> GradedChainComplex:
    """Linear dual placed in negative degrees: C'_n = Hom(C_{-n}, R).

    The differential out of degree n is the transpose of the one out of
    degree -n + 1; transposing reverses composition, so d'.d' = 0 holds
    with no extra signs.
    """
    ranks = {-n: r for n, r in c.rank.items()}
    diffs = {-n + 1: d.transpose() for n, d in sorted(c.differential.items())
             if not d.is_zero()}
    return GradedChainComplex._derived(c.ring, ranks, diffs)


def direct_sum(parts: list[GradedChainComplex]) -> GradedChainComplex:
    """The summands side by side in each degree, in the order given."""
    if not parts:
        raise InvalidRange("direct sum of no complexes")
    return Layout.of((k, c, 0) for k, c in enumerate(parts)).complex()


# ---------------------------------------------------------------------------
# graded layouts and block placement


@dataclass(frozen=True)
class Layout:
    """Keyed, shifted summands laid side by side in each degree.

    summands[key] = (c, s) places the complex c shifted by s: its degree
    m sits in degree m + s of the layout. In each degree the summands
    that are nonzero there follow in the order of summands. parts[n]
    holds only those: their positions in that order, ascending, and the
    offsets where they start. ranks holds the nonzero total dimensions.
    A direct sum, a piece of objects and Tot are layouts. Nothing here
    lists cells: offset and locate bisect a degree's nonzero summands,
    so what reads a layout cell by cell, as the spectral sequence reads
    Tot's persistence pairs, pays per summand and per pair, not per cell.
    """

    summands: Mapping[Any, tuple[GradedChainComplex, int]]
    ranks: Mapping[int, int]
    parts: Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]]

    @staticmethod
    def of(summands: Iterable[tuple]) -> "Layout":
        """The layout of (key, complex, shift) triples, in that order."""
        placed, ranks, parts = {}, {}, {}
        for k, (key, c, s) in enumerate(summands):
            placed[key] = (c, s)
            for m, r in c.rank.items():
                if r:
                    at, starts = parts.setdefault(m + s, ([], []))
                    at.append(k)
                    starts.append(ranks.get(m + s, 0))
                    ranks[m + s] = starts[-1] + r
        return Layout(placed, ranks, {n: (tuple(a), tuple(b))
                                      for n, (a, b) in parts.items()})

    @cached_property
    def keys(self) -> tuple:
        return tuple(self.summands)

    @cached_property
    def _positions(self) -> dict[Any, int]:
        return {key: k for k, key in enumerate(self.keys)}

    def position(self, key: Any) -> int:
        """The place of key in the order of summands."""
        return self._positions[key]

    def dim(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def offset(self, n: int, key: Any) -> int:
        """Dimension of the summands before key in degree n: the row or
        column where key's cells start."""
        at, starts = self.parts.get(n, ((), ()))
        k = bisect_left(at, self.position(key))
        return starts[k] if k < len(starts) else self.dim(n)

    def locate(self, n: int, cell: int) -> tuple[Any, int]:
        """Map a cell of degree n back to (summand key, local index)."""
        at, starts = self.parts.get(n, ((), ()))
        k = bisect_right(starts, cell) - 1
        if k < 0 or cell >= self.dim(n):
            raise ShapeMismatch(f"cell {cell} outside degree {n}")
        return self.keys[at[k]], cell - starts[k]

    def complex(self) -> GradedChainComplex:
        """The direct sum of the shifted summands with their own
        differentials: d.d = 0 is inherited, and nothing is squared. One
        summand is shift_complex of it, sharing its matrices."""
        parts = list(self.summands.values())
        if len(parts) == 1:
            return shift_complex(*parts[0])
        if len({c.ring for c, _ in parts}) > 1:
            raise UnsupportedRing("direct sum over mixed rings")
        diffs = place_families((((key, key), c.differential) for key, (c, _)
                                in self.summands.items()), self, self, -1)
        return GradedChainComplex._derived(parts[0][0].ring,
                                           dict(self.ranks), diffs)


def block_shape(src: tuple, dst: tuple, lift: int, m: int,
                ) -> tuple[int, int]:
    """(rows, cols) of the block at degree m of summand src = (complex,
    shift) in a map to summand dst that raises the layout's degree by
    lift: it lands at degree m + shift_src + lift - shift_dst of dst."""
    (c, s), (e, t) = src, dst
    return e.dim(m + s + lift - t), c.dim(m)


def block_shape_issues(families: Iterable, src: Mapping, dst: Mapping,
                       lift: int, label: Callable) -> list[str]:
    """What keeps block families from fitting between their summands.

    A family ((a, b), {m: block}) maps summand a of src to summand b of
    dst, each given as (complex, shift) as in Layout.summands, and
    raises the layout's degree by lift; its blocks must have the shapes
    of block_shape. A family naming a summand that is not there is
    reported once; label(a, b) names the family in every message.
    """
    issues = []
    for (a, b), fam in families:
        if a not in src or b not in dst:
            issues.append(f"{label(a, b)} references a missing summand")
            continue
        for m, blk in fam.items():
            want = block_shape(src[a], dst[b], lift, m)
            if (blk.rows, blk.cols) != want:
                issues.append(
                    f"{label(a, b)} at degree {m} is {blk.rows}x{blk.cols}, "
                    f"expected {want[0]}x{want[1]}")
    return issues


def place_families(families: Iterable, src: Layout, dst: Layout, lift: int,
                   ) -> dict[int, IntegerMatrix]:
    """Sum block families into the maps src_n -> dst_{n + lift}.

    The family ((a, b), {m: block}) puts its block at degree m of
    summand a in the columns of a in degree n = m + shift_a and the rows
    of b in degree n + lift. The blocks must fit (block_shape_issues).
    Returns the nonzero maps, keyed by n in ascending order.
    """
    placed: dict[int, list[tuple[int, int, IntegerMatrix]]] = {}
    for (a, b), fam in families:
        s = src.summands[a][1]
        for m, blk in fam.items():
            if blk.entries:
                placed.setdefault(m + s, []).append(
                    (dst.offset(m + s + lift, b), src.offset(m + s, a), blk))
    out = {}
    for n in sorted(placed):
        d = place_blocks(dst.dim(n + lift), src.dim(n), placed[n])
        if d.entries:
            out[n] = d
    return out


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
    free: Mapping[int, int] = field(default_factory=dict)
    torsion_factors: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def free_rank(self, n: int) -> int:
        return self.free.get(n, 0)

    def torsion(self, n: int) -> tuple[int, ...]:
        return self.torsion_factors.get(n, ())

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * r for n, r in self.free.items())

    def is_trivial(self) -> bool:
        return not self.free and not self.torsion_factors


def unit_sweep(d: IntegerMatrix) -> tuple[int, IntegerMatrix]:
    """Sparse elimination of d over Z that pivots only on +-1.

    Returns (units, leftover): d is equivalent over Z to the identity of
    size units plus the leftover, a matrix on its own rows and columns,
    so rk d = units + rk leftover and the invariant factors of d other
    than 1 are those of the leftover.

    Each column of d in turn is cleared while its top (largest) row is
    the top of an earlier unit column (_fplinalg.clear_tops over Z): the
    multiplier is the column's own entry times +-1, so values stay
    integers. A column left with a top of +-1 becomes a unit column. Any
    other nonzero column goes to the leftover and never pivots, so no
    fraction arises. Then each leftover column is cleared at every unit
    column's top row, in descending row order. Every move is a
    unimodular column operation. On their top rows the unit columns are
    triangular with +-1 on the diagonal, and the leftover is zero there,
    so row operations split the units off without touching the leftover.
    This is the sparse first stage of Dumas, Heckenbach, Saunders and
    Welker (2003); the Smith form runs only on what is left.

    >>> units, rest = unit_sweep(IntegerMatrix.from_rows([[1, 1], [1, -1]]))
    >>> units, rest.to_rows()
    (1, [[2]])
    """
    # top row -> (unit column, 1 / its top, which is its top, None)
    tops: dict[int, tuple] = {}
    rest = []
    for x in _fplinalg.columns(d, None).values():
        _fplinalg.clear_tops(x, tops, None)
        if x:
            i = max(x)
            if x[i] in (1, -1):
                tops[i] = (x, x[i], None)
            else:
                rest.append(x)
    for x in rest:
        # a step only fills rows below the one it clears
        todo = [-i for i in x if i in tops]
        heapq.heapify(todo)
        while todo:
            i = -heapq.heappop(todo)
            if i in x:
                y, u, _ = tops[i]
                _fplinalg.subtract(x, y, x[i] * u, None)
                for k in y:
                    if k < i and k in tops and k in x:
                        heapq.heappush(todo, -k)
    rest = [x for x in rest if x]
    rows = {i: k for k, i in enumerate(sorted({i for x in rest for i in x}))}
    return len(tops), IntegerMatrix(
        len(rows), len(rest),
        {(rows[i], j): v for j, x in enumerate(rest) for i, v in x.items()})


def homology(c: GradedChainComplex) -> HomologySummary:
    """Homology of a bounded complex over its coefficient ring.

    Over Z each nonzero d_n goes through unit_sweep, and one Smith form
    without transforms of its leftover, shared by the two degrees it
    touches, gives rk d_n = units + rk leftover and the torsion of
    degree n - 1: the invariant factors > 1 of the leftover, in
    divisibility order. The free rank is dim C_n - rk d_n - rk d_{n+1}.
    Each rank is cross-checked against an independent one: the rank of
    d_n mod the prime CHECK_PRIME must equal units + rk leftover minus
    the number of invariant factors it divides, by the sparse column
    elimination of d_n's entries (_fplinalg.rank). Over F_p, rk d_n is
    the number of lows of the column reduction c keeps
    (GradedChainComplex.column_reductions), which the spectral sequence
    and the exactness audit of a Tot read too. Over either ring every
    free rank is checked to be nonnegative. Only the degrees c stores
    are read, so cells in degrees 0 and 10^12 cost two degrees, not a
    walk of the range between them.

    The real projective plane, one cell in each degree with d_2 = 2:

    >>> rp2 = complex_from_ranks(ZZ, {0: 1, 1: 1, 2: 1},
    ...                          {2: IntegerMatrix.from_rows([[2]])})
    >>> h = homology(rp2)
    >>> dict(h.free), dict(h.torsion_factors)
    ({0: 1}, {1: (2,)})
    """
    torsion: dict[int, tuple[int, ...]] = {}
    if c.ring.is_field:
        # rk d_n counts the lows of its kept reduction; a missing d_n is zero
        rk = {n: len(low) for n, (_, _, low) in c.column_reductions.items()}
    else:
        q = CHECK_PRIME
        rk = {}
        for n, d in sorted(c.differential.items()):
            units, rest = unit_sweep(d)
            diag, rank = smith_normal_form(rest)
            got = _fplinalg.rank(d, q)
            want = units + rank - sum(1 for x in diag if x % q == 0)
            if got != want:
                raise InvariantViolation(
                    f"rank of d_{n} mod {q} is {got}, the reduction and "
                    f"Smith form give {want}")
            rk[n] = units + rank
            if diag and diag[-1] > 1:
                torsion[n - 1] = tuple(x for x in diag if x > 1)
    free: dict[int, int] = {}
    for n, r in sorted(c.rank.items()):
        f = r - rk.get(n, 0) - rk.get(n + 1, 0)
        if f < 0:
            raise InvariantViolation(f"negative free rank in degree {n}")
        if f:
            free[n] = f
    return HomologySummary(c.ring, free, torsion)


# ---------------------------------------------------------------------------
# Laurent polynomials and the (1+t)-order


def digits(v: int) -> str:
    """v in decimal, every digit: str(int) refuses more than 4,300
    digits, and Decimal converts exactly at any size.

    >>> len(digits(-10 ** 4300)), digits(-7)
    (4302, '-7')
    """
    return str(Decimal(v))


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
                term = digits(abs(v))
            else:
                base = "t" if e == 1 else f"t^{digits(e)}"
                term = base if abs(v) == 1 else f"{digits(abs(v))}*{base}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)


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
    Only the support of r = q - p is walked: in a gap after degree e,
    r is 0, so a nonzero a_e (positive, or it failed) makes a_{e+1}
    negative and a zero one stays zero; either way the first failure
    is at a support degree or one past it, as in a walk of every degree.

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
    acc: dict[int, int] = {}
    prev = last = 0
    for d in r.support():
        if prev and d != last + 1:
            break  # a_{last+1} = -prev < 0
        a_d = r.coefficient(d) - prev
        if a_d < 0:
            return PreceqVerdict(False, None, d)
        if a_d:
            acc[d] = a_d
        prev, last = a_d, d
    if prev:
        # the quotient would need a term past last with nothing to cancel it
        return PreceqVerdict(False, None, last + 1)
    return PreceqVerdict(True, LaurentPoly(acc), None)
