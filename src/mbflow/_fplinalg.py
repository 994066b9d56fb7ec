"""Dense linear algebra over a prime field F_p.

Everything here works on numpy int64 arrays whose entries are reduced
modulo p. Matrices follow the same convention as the rest of the
package: a map C_n -> C_{n-1} is a (dim C_{n-1}) x (dim C_n) matrix
acting on column vectors.

p must be prime and small enough that p*p fits in an int64; every
routine reduces each scalar mod p before it multiplies a vector and
reduces again after each elimination step, so intermediate values stay
below p*p in absolute value.

rref, rank, solve and null_space are Gaussian elimination by rows.
reduce_columns is the standard left-to-right column reduction of
persistent homology. It reduces every prefix of the columns on its
own, so one reduction of each total differential in filtration order
serves a whole twisted complex (twisted): its pairing of lowest rows
with columns gives the index-filtration spectral sequence, and its
zero columns and reduced columns give the cycles and boundaries of the
homology frames of the sub, the total complex and the quotient of the
long exact sequence at every cut.
"""

from __future__ import annotations

import numpy as np


def asmod(a: np.ndarray, p: int) -> np.ndarray:
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


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def null_space(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of {x : a x = 0 mod p}; shape (cols, nullity)."""
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


def reduce_columns(a: np.ndarray, p: int,
                   ) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Left-to-right column reduction over F_p.

    Returns (R, V, low) with R = a V mod p and V unit upper triangular:
    each column j of a in turn has earlier columns of R subtracted while
    its lowest nonzero row is already the lowest row of an earlier
    column. low maps every nonzero column of R to its lowest nonzero
    row, and no two columns share one. The columns j of V whose R
    column is zero are a basis of the kernel of a, with top nonzero
    entry 1 in row j.
    """
    rows, cols = np.shape(a)
    # column j of R and of V is row j here, so each update is contiguous
    rt = np.ascontiguousarray(asmod(a, p).T)
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
                owner[i] = (j, _inv_mod(int(col[i]), p))
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
