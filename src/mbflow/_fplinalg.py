"""Dense linear algebra over a prime field F_p.

Everything here works on numpy int64 arrays whose entries are reduced
modulo p. Matrices follow the same convention as the rest of the
package: a map C_n -> C_{n-1} is a (dim C_{n-1}) x (dim C_n) matrix
acting on column vectors.

p must be prime and small enough that p*p fits in an int64; every
routine reduces after each elimination step, so intermediate values
stay below p*p.
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


def column_space(a: np.ndarray, p: int) -> np.ndarray:
    """An independent subset of the columns of a, spanning its image."""
    a = asmod(a, p)
    if a.size == 0:
        return a.reshape(a.shape[0], 0)
    _, pivots = rref(a, p)  # pivot columns of a are independent and span
    return a[:, pivots]


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


def in_span(basis: np.ndarray, v: np.ndarray, p: int) -> bool:
    return solve(basis, v, p) is not None


def homology_basis(d_out: np.ndarray, d_in: np.ndarray, p: int) -> np.ndarray:
    """Cycle representatives of H = ker(d_out)/im(d_in) over F_p.

    d_out: the differential leaving this degree; d_in: the one entering.
    Returns a (dim, k) matrix whose columns are cycles projecting to a
    basis of the quotient.
    """
    cycles = null_space(d_out, p)
    bnd = column_space(d_in, p)
    if cycles.shape[1] == 0:
        return cycles
    # Greedily keep cycle columns independent modulo the boundaries.
    kept: list[np.ndarray] = []
    cur = bnd
    for j in range(cycles.shape[1]):
        cand = cycles[:, j]
        if not in_span(cur, cand, p):
            kept.append(cand)
            cur = np.concatenate([cur, cand.reshape(-1, 1)], axis=1)
    if not kept:
        return np.zeros((cycles.shape[0], 0), dtype=np.int64)
    return np.stack(kept, axis=1)


def class_coordinates(reps: np.ndarray, bnd: np.ndarray, v: np.ndarray,
                      p: int) -> np.ndarray | None:
    """Coordinates of the homology class of cycle v in the basis `reps`.

    Solves [bnd | reps] * y = v and returns the reps part of y, or None
    if v is not in the span (i.e. not a cycle of this degree).
    """
    stacked = np.concatenate([bnd, reps], axis=1)
    y = solve(stacked, v, p)
    if y is None:
        return None
    return y[bnd.shape[1]:]
