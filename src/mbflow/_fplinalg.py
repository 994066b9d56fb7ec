"""Linear algebra over a prime field F_p, or over Q.

A map C_n -> C_{n-1} is a (dim C_{n-1}) x (dim C_n) matrix acting on
column vectors, as in the rest of the package. The elimination is
sparse: a column is a dict {row: value}, read off the entries of an
IntegerMatrix (homalg), in exact Python numbers. p names the field F_p,
whose values lie in 1 .. p - 1; p = None names Q, where nothing is
reduced and a value is an int or a Fraction. A pivot's inverse is the
pivot itself when it is +-1, so a column reduced by unit pivots keeps
int values. One step, clear_tops, serves it all: it subtracts known
columns from a column while its top (largest) row is the top of one of
them. With unit columns only, it is also the integral sweep of homalg's
homology over Z (homalg.unit_sweep).

reduce_columns is the left-to-right column reduction of persistent
homology, and rank the same without V. It works over any field and
reduces every prefix of the columns on its own, so the one reduction of
each differential that a chain complex keeps
(homalg.GradedChainComplex.column_reductions) gives the ranks of its
homology over F_p and, for a twisted complex's Tot (twisted), the
index-filtration spectral sequence and the homology frames of the long
exact sequence at every cut, over F_p and, for Z after tensoring with
Q, over Q, whose coordinates clear_tops reads.

rref, solve and null_space are dense elimination by rows on numpy int64
arrays reduced mod p, so p*p must be below 2^63; each scalar is reduced
before it multiplies a vector. The tests use them as references, and
numpy is imported only when one of them runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    import numpy as np

    from .homalg import IntegerMatrix


def asmod(a: np.ndarray, p: int) -> np.ndarray:
    import numpy as np

    return np.asarray(a, dtype=np.int64) % p


def _inv_mod(a: int, p: int) -> int:
    # Fermat: p is prime, a nonzero mod p.
    return pow(int(a) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivots) where pivots[k] is the column of the k-th pivot.
    Pivot rows are scaled to 1 and pivot columns cleared, with the
    lowest-index candidate row chosen at each step so the result is
    deterministic.
    """
    import numpy as np

    r = asmod(a, p).copy()
    rows, cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pick = row + int(nz[0])
        if pick != row:
            r[[row, pick]] = r[[pick, row]]
        r[row] = (r[row] * _inv_mod(int(r[row, col]), p)) % p
        # clear the column in every other row at once; each product is
        # below p*p, so nothing overflows
        hit = np.nonzero(r[:, col])[0]
        hit = hit[hit != row]
        if hit.size:
            r[hit] = (r[hit] - np.outer(r[hit, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def null_space(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of {x : a x = 0 mod p}; shape (cols, nullity)."""
    import numpy as np

    a = asmod(a, p)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a x = b mod p, or None if inconsistent.

    b may be a vector or a matrix of stacked right-hand sides; the
    return matches its shape.
    """
    import numpy as np

    a = asmod(a, p)
    b1 = asmod(b, p)
    vec = b1.ndim == 1
    if vec:
        b1 = b1.reshape(-1, 1)
    rows, cols = a.shape
    aug = np.concatenate([a, b1], axis=1)
    r, pivots = rref(aug, p)
    for i in range(len(pivots), rows):
        if np.any(r[i, cols:]):
            return None
    if pivots and pivots[-1] >= cols:
        return None
    x = np.zeros((cols, b1.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x[:, 0] if vec else x


def inverse(a: int | Fraction, p: int | None) -> int | Fraction:
    """1 / a in F_p, or in Q when p is None: a unit is its own inverse
    there, so it stays an int."""
    if p:
        return pow(a, -1, p)
    return a if a in (1, -1) else Fraction(1, a)


def columns(m: IntegerMatrix, p: int | None) -> dict[int, dict[int, int]]:
    """The nonzero columns of m mod p (as they are over Q when p is
    None), in column order: column -> {row: value}."""
    cols: dict[int, dict[int, int]] = {}
    for (i, j), v in m.entries.items():
        if p:
            v %= p
        if v:
            cols.setdefault(j, {})[i] = v
    return dict(sorted(cols.items()))


def subtract(x: dict[int, int], y: Mapping[int, int], f: int,
             p: int | None) -> None:
    """x -= f y mod p (over Q when p is None) in place, dropping the
    rows that turn 0."""
    for i, v in y.items():
        w = x.get(i, 0) - f * v
        if p:
            w %= p
        if w:
            x[i] = w
        else:
            x.pop(i, None)


def clear_tops(x: dict[int, int], tops: Mapping[int, tuple], p: int | None,
               ) -> list[tuple]:
    """Clear the column x in place while its top row is a known top:
    tops maps a row to (a column with that top row, 1 / its entry there,
    a tag). Each step subtracts that column's multiple and records (tag,
    factor); x is left zero or with a top row that no column has."""
    steps = []
    while x:
        i = max(x)
        got = tops.get(i)
        if got is None:
            break
        y, inv, tag = got
        f = x[i] * inv
        if p:
            f %= p
        subtract(x, y, f, p)
        steps.append((tag, f))
    return steps


def reduce_columns(d: IntegerMatrix, p: int | None,
                   ) -> tuple[dict, dict, dict]:
    """Left-to-right column reduction of d over F_p, or over Q when p is
    None.

    Returns (R, V, low) with R = d V (mod p) and V unit upper triangular:
    each column j of d in turn has earlier columns of R subtracted while
    its top row is the top of an earlier one. R keeps its nonzero
    columns and V those other than e_j, as {row: value}; low maps each
    nonzero column of R to its top row, and no two share one. The
    columns j of V whose R column is zero are a basis of the kernel of
    d, with top entry 1 in row j. On a triangle's boundary over F_2:

    >>> from mbflow.homalg import IntegerMatrix
    >>> d = IntegerMatrix.from_rows([[-1, 0, -1], [1, -1, 0], [0, 1, 1]])
    >>> r, v, low = reduce_columns(d, 2)
    >>> low, {j: sorted(col.items()) for j, col in v.items()}
    ({0: 1, 1: 2}, {2: [(0, 1), (1, 1), (2, 1)]})

    Over Q a pivot other than +-1 brings in fractions: here the kernel,
    spanned over Z by (1, 1, -2), has V_2 = (-1/2, -1/2, 1).

    >>> d = IntegerMatrix.from_rows([[2, 0, 1], [0, 2, 1]])
    >>> r, v, low = reduce_columns(d, None)
    >>> low, sorted(v[2].items())
    ({0: 0, 1: 1}, [(0, Fraction(-1, 2)), (1, Fraction(-1, 2)), (2, 1)])
    """
    r, v, low = {}, {}, {}
    tops: dict[int, tuple] = {}  # top row -> (column of R, 1 / top, j)
    for j, x in columns(d, p).items():
        vj = {j: 1}
        for k, f in clear_tops(x, tops, p):
            subtract(vj, v.get(k, {k: 1}), f, p)
        if x:
            i = low[j] = max(x)
            tops[i] = (x, inverse(x[i], p), j)
            r[j] = x
        if len(vj) > 1:
            v[j] = vj
    return r, v, low


def rank(d: IntegerMatrix, p: int | None) -> int:
    """Rank of d over F_p (over Q when p is None): the column reduction
    without V.

    >>> from mbflow.homalg import IntegerMatrix
    >>> d = IntegerMatrix.from_rows([[-1, 0, -1], [1, -1, 0], [0, 1, 1]])
    >>> rank(d, 2)
    2
    """
    tops: dict[int, tuple] = {}
    for x in columns(d, p).values():
        clear_tops(x, tops, p)
        if x:
            i = max(x)
            tops[i] = (x, inverse(x[i], p), None)
    return len(tops)
