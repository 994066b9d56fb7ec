"""Twisted complexes and their totalizations.

A twisted complex is a finite family of bounded chain complexes D_i
indexed by integers, together with structure maps delta_{ij} for i > j
that raise internal degree by i - j - 1. The totalization places D_i in
total degree (internal degree + i) and adds all delta blocks to the
differential; the defining requirement is that the total differential
squares to zero, with every sign absorbed into the stored maps.

Tot is built once per twisted complex and kept on the (immutable)
value: its layout, the total differential in every degree, and the
Maurer-Cartan verdict. validate and totalize read that one value, as do
the quotient-sequence audit, the spectral sequence and the morphism and
homotopy checks.

The module also provides the operations that mirror geometric
constructions at the chain level: index shifts, sub/quotient
decompositions with a long-exact-sequence audit, mapping cones of
twisted morphisms, homotopy-square verification, and the spectral
sequence of the index filtration over a prime field.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from . import _fplinalg
from .errors import (
    ChainMapViolation,
    InvariantViolation,
    ShapeMismatch,
    UnsupportedRing,
)
from .homalg import (
    CoefficientRing,
    GradedChainComplex,
    HomologySummary,
    IntegerMatrix,
    complex_from_ranks,
    direct_sum,
    fp_array,
    homology,
    integer_rank,
    negate_complex,
    place_blocks,
    shift_complex,
    smith_normal_form,
)

GradedMap = Mapping[int, IntegerMatrix]


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class TwistedComplex:
    """Pieces D_i with structure maps delta_{ij} of total degree -1.

    structure_maps[(i, j)] (only for i > j) is a family of matrices,
    one per internal source degree m, each mapping (D_i)_m into
    (D_j)_{m + i - j - 1}. Construction checks shapes and ring
    agreement; the Maurer-Cartan identity D.D = 0 is checked by
    validate / totalize so that invalid data can still be inspected.
    """

    ring: CoefficientRing
    pieces: Mapping[int, GradedChainComplex] = field(default_factory=dict)
    structure_maps: Mapping[tuple[int, int], GradedMap] = \
        field(default_factory=dict)

    def __post_init__(self) -> None:
        for i, c in self.pieces.items():
            if c.ring != self.ring:
                raise UnsupportedRing(
                    f"piece {i} is over {c.ring}, complex over {self.ring}")
        for (i, j), blocks in self.structure_maps.items():
            if i <= j:
                raise ShapeMismatch(
                    f"structure map ({i},{j}) does not decrease the index")
            if i not in self.pieces or j not in self.pieces:
                raise ShapeMismatch(
                    f"structure map ({i},{j}) references a missing piece")
            src, dst = self.pieces[i], self.pieces[j]
            for m, blk in blocks.items():
                want = (dst.dim(m + i - j - 1), src.dim(m))
                if (blk.rows, blk.cols) != want:
                    raise ShapeMismatch(
                        f"delta({i},{j}) at degree {m} is "
                        f"{blk.rows}x{blk.cols}, expected {want[0]}x{want[1]}")

    def indices(self) -> list[int]:
        return sorted(self.pieces)

    def piece(self, i: int) -> GradedChainComplex:
        return self.pieces[i]

    def is_empty(self) -> bool:
        return not self.pieces or all(c.total_dim() == 0
                                      for c in self.pieces.values())

    @cached_property
    def _tot(self) -> "_Totalization":
        return _assemble(self)


def place_piece_blocks(placed: Mapping[tuple[int, int, int], list],
                       src: Mapping[int, GradedChainComplex],
                       dst: Mapping[int, GradedChainComplex], lift: int,
                       ) -> dict[tuple[int, int], dict[int, IntegerMatrix]]:
    """Sum placed blocks into families of piece maps.

    placed[(i, j, m)] lists (row offset, column offset, block) inside
    the map (src piece i)_m -> (dst piece j)_{m + i - j + lift}; lift is
    -1 for structure maps and 0 for morphism blocks.
    """
    out: dict[tuple[int, int], dict[int, IntegerMatrix]] = {}
    for (i, j, m), blocks in placed.items():
        out.setdefault((i, j), {})[m] = place_blocks(
            dst[j].dim(m + i - j + lift), src[i].dim(m), blocks)
    return out


def twisted_from_parts(ring: CoefficientRing,
                       pieces: Mapping[int, GradedChainComplex],
                       structure_maps: Mapping[tuple[int, int], GradedMap]
                       | None = None) -> TwistedComplex:
    """Build a TwistedComplex, dropping empty pieces and zero blocks."""
    kept = {i: c for i, c in pieces.items() if c.total_dim() > 0}
    maps: dict[tuple[int, int], GradedMap] = {}
    for key, blocks in (structure_maps or {}).items():
        clean = {m: b for m, b in blocks.items() if not b.is_zero()}
        if clean and key[0] in kept and key[1] in kept:
            maps[key] = clean
    return TwistedComplex(ring, kept, maps)


# ---------------------------------------------------------------------------
# validate / totalize


@dataclass(frozen=True)
class TwistedDiagnostics:
    """Outcome of the Maurer-Cartan audit.

    When D.D != 0, failure_* locate the first offending generator:
    the total degree it lives in, its piece index, and its position
    inside that piece.
    """

    valid: bool
    issues: tuple[str, ...] = ()
    failure_degree: int | None = None
    failure_piece: int | None = None
    failure_generator: int | None = None


@dataclass(frozen=True)
class _Totalization:
    """Tot of one twisted complex, built once by _assemble.

    Per total degree n the basis lists pieces in ascending index order,
    piece i contributing its internal degree n - i at column
    offsets[(n, i)]. differentials holds the nonzero total differentials
    D_n: Tot_n -> Tot_{n-1}. The Maurer-Cartan verdict and the chain
    complex are computed on first use and kept.
    """

    ring: CoefficientRing
    order: tuple[int, ...]
    min_degree: int
    max_degree: int
    ranks: Mapping[int, int]
    offsets: Mapping[tuple[int, int], int]
    differentials: Mapping[int, IntegerMatrix]

    def d(self, n: int) -> IntegerMatrix:
        got = self.differentials.get(n)
        if got is not None:
            return got
        return IntegerMatrix.zero(self.ranks.get(n - 1, 0),
                                  self.ranks.get(n, 0))

    def prefix_dim(self, n: int, p: int) -> int:
        """Dimension of the pieces of index <= p in Tot_n (a prefix)."""
        k = bisect_right(self.order, p)
        if k == len(self.order):
            return self.ranks.get(n, 0)
        return self.offsets.get((n, self.order[k]), 0)

    def split(self, p: int) -> tuple[GradedChainComplex, GradedChainComplex]:
        """Tot of the pieces of index <= p and Tot of the others: the
        subcomplex on the prefix of every basis, and its quotient."""
        pre = {n: self.prefix_dim(n, p) for n in self.ranks}
        sub: dict[int, dict[tuple[int, int], int]] = {}
        quot: dict[int, dict[tuple[int, int], int]] = {}
        for n, d in self.differentials.items():
            for (r, c), v in d.entries.items():
                # structure maps lower the index: the prefix is closed
                if c < pre[n]:
                    sub.setdefault(n, {})[(r, c)] = v
                elif r >= pre[n - 1]:
                    quot.setdefault(n, {})[(r - pre[n - 1], c - pre[n])] = v
        rest = {n: r - pre[n] for n, r in self.ranks.items()}
        return (
            complex_from_ranks(self.ring, pre, {
                n: IntegerMatrix(pre[n - 1], pre[n], e)
                for n, e in sub.items()}),
            complex_from_ranks(self.ring, rest, {
                n: IntegerMatrix(rest[n - 1], rest[n], e)
                for n, e in quot.items()}))

    def locate(self, n: int, col: int) -> tuple[int, int]:
        """Map a Tot_n column index back to (piece index, local index)."""
        for i in reversed(self.order):
            off = self.offsets[(n, i)]
            if col >= off:
                return i, col - off
        raise ShapeMismatch(f"column {col} outside Tot_{n}")

    @cached_property
    def diagnostics(self) -> TwistedDiagnostics:
        return _maurer_cartan(self)

    @cached_property
    def complex(self) -> GradedChainComplex:
        return complex_from_ranks(self.ring, self.ranks, self.differentials)


def _assemble(t: TwistedComplex) -> _Totalization:
    """Lay out Tot and add up its differentials from the internal
    differentials and the structure maps that exist."""
    order = tuple(t.indices())
    lo = min((i + t.piece(i).min_degree for i in order), default=0)
    hi = max((i + t.piece(i).max_degree for i in order), default=0)
    ranks: dict[int, int] = {}
    offsets: dict[tuple[int, int], int] = {}
    for n in range(lo, hi + 1):
        at = 0
        for i in order:
            offsets[(n, i)] = at
            at += t.piece(i).dim(n - i)
        ranks[n] = at
    # (row offset, column offset, block) per total degree of the source
    placed: dict[int, list[tuple[int, int, IntegerMatrix]]] = {}
    for i in order:
        for m, d in t.piece(i).differential.items():
            if not d.is_zero():
                placed.setdefault(m + i, []).append(
                    (offsets[(m + i - 1, i)], offsets[(m + i, i)], d))
    for (i, j), blocks in t.structure_maps.items():
        for m, blk in blocks.items():
            if not blk.is_zero():
                placed.setdefault(m + i, []).append(
                    (offsets[(m + i - 1, j)], offsets[(m + i, i)], blk))
    diffs = {}
    for n, blocks in placed.items():
        d = place_blocks(ranks[n - 1], ranks[n], blocks)
        if not d.is_zero():
            diffs[n] = d
    return _Totalization(t.ring, order, lo, hi, ranks, offsets, diffs)


def _maurer_cartan(tot: _Totalization) -> TwistedDiagnostics:
    """Check D.D = 0, reporting the first failure.

    The scan runs over total degrees from the bottom up and columns left
    to right, so the reported generator is deterministic.
    """
    p = tot.ring.p
    for n in range(tot.min_degree, tot.max_degree + 1):
        if n not in tot.differentials or n + 1 not in tot.differentials:
            continue
        sq = tot.differentials[n] @ tot.differentials[n + 1]
        bad_cols = sorted({c for (r, c), v in sq.entries.items()
                           if (v % p if p else v) != 0})
        if bad_cols:
            piece, local = tot.locate(n + 1, bad_cols[0])
            return TwistedDiagnostics(
                valid=False,
                issues=(f"D.D is nonzero on generator {local} of piece "
                        f"{piece} in total degree {n + 1}",),
                failure_degree=n + 1,
                failure_piece=piece,
                failure_generator=local,
            )
    return TwistedDiagnostics(True)


def validate(t: TwistedComplex) -> TwistedDiagnostics:
    """Check D.D = 0 on the totalization, reporting the first failure.

    Shapes and ring agreement are enforced at construction time, so
    the only thing to audit here is the Maurer-Cartan identity. The
    verdict is computed once, together with Tot, and shared with
    totalize.
    """
    return t._tot.diagnostics


def totalize(t: TwistedComplex) -> GradedChainComplex:
    """Collapse a twisted complex to a single chain complex.

    Tot_n = direct sum of (D_i)_{n-i} over the index set, ordered by
    ascending index; the differential adds every structure map to the
    internal differentials. Every call on the same twisted complex
    returns the same chain complex.
    """
    tot = t._tot
    if not tot.diagnostics.valid:
        raise InvariantViolation(tot.diagnostics.issues[0])
    return tot.complex


# ---------------------------------------------------------------------------
# shift


@dataclass(frozen=True)
class ShiftWitness:
    """Identification of Tot(shift(t, a)) with Tot(t).

    The shifted complex re-labels piece i as i + a and lowers every
    internal degree by a, so each total degree is untouched: the
    isomorphism is the identity matrix degree by degree, recorded here
    as the piece relabeling.
    """

    offset: int
    piece_map: Mapping[int, int]


def shift(t: TwistedComplex, a: int) -> tuple[TwistedComplex, ShiftWitness]:
    """Translate the index set by a without moving the totalization.

    Piece i becomes piece i + a carrying the same chain complex shifted
    down by a, so generators keep their total degree and the total
    differential is reproduced entry for entry.
    """
    pieces = {i + a: shift_complex(c, -a) for i, c in t.pieces.items()}
    maps: dict[tuple[int, int], GradedMap] = {}
    for (i, j), blocks in t.structure_maps.items():
        maps[(i + a, j + a)] = {m - a: blk for m, blk in blocks.items()}
    witness = ShiftWitness(a, {i: i + a for i in t.pieces})
    return TwistedComplex(t.ring, pieces, maps), witness


# ---------------------------------------------------------------------------
# homology frames: representatives plus coordinates, over Z and F_p


class _IntegralFrame:
    """Free-part homology basis with a cycle-coordinate map, over Z.

    In each degree, Smith form of the outgoing differential gives an
    integral kernel basis (trailing columns of v); boundaries rewritten
    in kernel coordinates have their own Smith form, whose transform
    splits the kernel into torsion and free directions. Coordinates of
    any cycle in the free directions follow by exact matrix algebra,
    no solving.
    """

    def __init__(self, c: GradedChainComplex) -> None:
        self.complex = c
        self._data: dict[int, tuple] = {}
        for n in c.degrees():
            a, b = c.d(n), c.d(n + 1)
            dec_a = smith_normal_form(a, with_transforms=True)
            r_a = dec_a.rank
            k = a.cols - r_a
            coords = dec_a.vinv @ b
            m = IntegerMatrix(
                k, b.cols,
                {(i - r_a, j): v for (i, j), v in coords.entries.items()
                 if i >= r_a})
            dec_m = smith_normal_form(m, with_transforms=True)
            # kernel basis as columns r_a.. of v
            kernel = IntegerMatrix(
                a.cols, k,
                {(i, j - r_a): v for (i, j), v in dec_a.v.entries.items()
                 if j >= r_a})
            reps = kernel @ IntegerMatrix(
                k, k - dec_m.rank,
                {(i, j - dec_m.rank): v
                 for (i, j), v in dec_m.uinv.entries.items()
                 if j >= dec_m.rank})
            self._data[n] = (dec_a, dec_m, r_a, reps)

    def rank(self, n: int) -> int:
        if n not in self._data:
            return 0
        return self._data[n][3].cols

    def reps(self, n: int) -> IntegerMatrix:
        if n not in self._data:
            return IntegerMatrix.zero(self.complex.dim(n), 0)
        return self._data[n][3]

    def coords(self, n: int, cycles: IntegerMatrix) -> IntegerMatrix:
        """Free-part coordinates of cycle columns; input must be cycles."""
        if n not in self._data:
            if not cycles.is_zero():
                raise InvariantViolation("nonzero cycle outside degree range")
            return IntegerMatrix.zero(0, cycles.cols)
        dec_a, dec_m, r_a, reps = self._data[n]
        x = dec_a.vinv @ cycles
        if any(i < r_a for (i, _) in x.entries):
            raise InvariantViolation(
                f"vector in degree {n} is not a cycle")
        k = self.complex.dim(n) - r_a
        xk = IntegerMatrix(k, cycles.cols,
                           {(i - r_a, j): v for (i, j), v in x.entries.items()})
        y = dec_m.u @ xk
        return IntegerMatrix(reps.cols, cycles.cols,
                             {(i - dec_m.rank, j): v
                              for (i, j), v in y.entries.items()
                              if i >= dec_m.rank})


class _FieldFrame:
    """Homology basis with cycle coordinates over F_p, numpy-backed."""

    def __init__(self, c: GradedChainComplex) -> None:
        if not c.ring.is_field:
            raise UnsupportedRing("field frame over Z")
        self.complex = c
        self.p = c.ring.p
        self._reps: dict[int, np.ndarray] = {}
        self._bnd: dict[int, np.ndarray] = {}
        for n in c.degrees():
            d_out = fp_array(c.d(n), self.p)
            d_in = fp_array(c.d(n + 1), self.p)
            self._reps[n] = _fplinalg.homology_basis(d_out, d_in, self.p)
            self._bnd[n] = _fplinalg.column_space(d_in, self.p)

    def rank(self, n: int) -> int:
        r = self._reps.get(n)
        return 0 if r is None else r.shape[1]

    def reps(self, n: int) -> IntegerMatrix:
        r = self._reps.get(n)
        if r is None:
            return IntegerMatrix.zero(self.complex.dim(n), 0)
        return IntegerMatrix.from_rows(r.tolist(), r.shape[1])

    def coords(self, n: int, cycles: IntegerMatrix) -> IntegerMatrix:
        if n not in self._reps:
            return IntegerMatrix.zero(0, cycles.cols)
        v = fp_array(cycles, self.p)
        out = np.zeros((self.rank(n), cycles.cols), dtype=np.int64)
        for j in range(cycles.cols):
            got = _fplinalg.class_coordinates(
                self._reps[n], self._bnd[n], v[:, j], self.p)
            if got is None:
                raise InvariantViolation(f"vector in degree {n} is not a cycle")
            out[:, j] = got
        return IntegerMatrix.from_rows(out.tolist(), cycles.cols)


def _frame(c: GradedChainComplex):
    return _FieldFrame(c) if c.ring.is_field else _IntegralFrame(c)


def _induced_map(frame_src, frame_dst, n_src: int, n_dst: int,
                 chain_map: IntegerMatrix) -> IntegerMatrix:
    """Matrix of the induced map on homology free parts."""
    reps = frame_src.reps(n_src)
    images = chain_map @ reps
    return frame_dst.coords(n_dst, images)


def _map_rank(m: IntegerMatrix, ring: CoefficientRing) -> int:
    if ring.is_field:
        return _fplinalg.rank(fp_array(m, ring.p), ring.p)
    return integer_rank(m)


def _is_zero_map(m: IntegerMatrix, ring: CoefficientRing) -> bool:
    return m.is_zero_mod(ring.p) if ring.is_field else m.is_zero()


# ---------------------------------------------------------------------------
# quotient sequences


@dataclass(frozen=True)
class ExactnessAudit:
    """Verdict of the long-exact-sequence audit for a sub/quotient pair.

    Over a field the three-term exactness is verified degreewise as an
    equality of subspaces (composite vanishes and ranks add up to the
    middle dimension). Over Z the same rank bookkeeping is verified on
    homology free parts, which is exactness after tensoring with Q;
    the connecting map is computed either way from the snake lemma on
    representatives.
    """

    exact: bool
    positions_checked: int
    failures: tuple[str, ...] = ()
    connecting_rank: Mapping[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class QuotientSequence:
    sub: TwistedComplex
    quotient: TwistedComplex
    audit: ExactnessAudit


def quotient_sequence(t: TwistedComplex, p: int) -> QuotientSequence:
    """Split off the pieces of index <= p as a twisted subcomplex.

    Structure maps strictly decrease the index, so the low-index pieces
    are closed under the total differential and the high-index pieces
    inherit a quotient twisted structure. The audit certifies the long
    exact sequence relating the three homologies; it reads the sub and
    quotient totalizations off Tot(t) instead of assembling them again.
    """
    sub = twisted_from_parts(
        t.ring,
        {i: c for i, c in t.pieces.items() if i <= p},
        {(i, j): b for (i, j), b in t.structure_maps.items() if i <= p})
    quot = twisted_from_parts(
        t.ring,
        {i: c for i, c in t.pieces.items() if i > p},
        {(i, j): b for (i, j), b in t.structure_maps.items() if j > p})
    return QuotientSequence(sub, quot, _les_audit(t, p))


def _les_audit(t: TwistedComplex, p: int) -> ExactnessAudit:
    tot_c = totalize(t)
    lay = t._tot
    sub_c, quot_c = lay.split(p)
    ring = t.ring

    fr_sub = _frame(sub_c)
    fr_tot = _frame(tot_c)
    fr_quot = _frame(quot_c)

    lo = min(tot_c.min_degree, sub_c.min_degree, quot_c.min_degree)
    hi = max(tot_c.max_degree, sub_c.max_degree, quot_c.max_degree)

    def inclusion(n: int) -> IntegerMatrix:
        s = lay.prefix_dim(n, p)
        total = lay.ranks.get(n, 0)
        return IntegerMatrix(total, s, {(i, i): 1 for i in range(s)})

    def section(n: int) -> IntegerMatrix:  # its transpose is the projection
        s = lay.prefix_dim(n, p)
        total = lay.ranks.get(n, 0)
        return IntegerMatrix(total, total - s,
                             {(s + i, i): 1 for i in range(total - s)})

    def restrict_to_sub(n: int, m: IntegerMatrix) -> IntegerMatrix:
        # entries in the quotient rows vanish over the ring (mod p over
        # a field) because the lifted classes are quotient cycles
        s = lay.prefix_dim(n, p)
        pr = ring.p
        ent = {}
        for (i, j), v in m.entries.items():
            if pr is not None:
                v %= pr
            if not v:
                continue
            if i >= s:
                raise InvariantViolation(
                    "connecting lift left the subcomplex")
            ent[(i, j)] = v
        return IntegerMatrix(s, m.cols, ent)

    i_star: dict[int, IntegerMatrix] = {}
    p_star: dict[int, IntegerMatrix] = {}
    d_star: dict[int, IntegerMatrix] = {}
    for n in range(lo, hi + 1):
        if fr_sub.rank(n) or fr_tot.rank(n):
            i_star[n] = _induced_map(fr_sub, fr_tot, n, n, inclusion(n))
        if fr_tot.rank(n) or fr_quot.rank(n):
            p_star[n] = _induced_map(fr_tot, fr_quot, n, n,
                                     section(n).transpose())
        # connecting map H_n(quot) -> H_{n-1}(sub): lift, apply D, restrict
        if fr_quot.rank(n):
            lifted = section(n) @ fr_quot.reps(n)
            boundary = restrict_to_sub(n - 1, lay.d(n) @ lifted)
            d_star[n] = fr_sub.coords(n - 1, boundary)

    failures: list[str] = []
    positions = 0

    def maps_or_zero(table, n, rows, cols):
        got = table.get(n)
        return got if got is not None else IntegerMatrix.zero(rows, cols)

    for n in range(lo, hi + 1):
        hs, ht, hq = fr_sub.rank(n), fr_tot.rank(n), fr_quot.rank(n)
        hs1 = fr_sub.rank(n - 1)
        f = maps_or_zero(i_star, n, ht, hs)
        g = maps_or_zero(p_star, n, hq, ht)
        dn = maps_or_zero(d_star, n, hs1, hq)
        dn1 = maps_or_zero(d_star, n + 1, hs, fr_quot.rank(n + 1))
        # exactness at H_n(tot)
        positions += 1
        if not _is_zero_map(g @ f, ring):
            failures.append(f"pi.iota nonzero on H_{n}")
        if _map_rank(f, ring) + _map_rank(g, ring) != ht:
            failures.append(f"rank defect at H_{n}(total)")
        # exactness at H_n(quot)
        positions += 1
        if not _is_zero_map(dn @ g, ring):
            failures.append(f"connecting.pi nonzero on H_{n}")
        if _map_rank(g, ring) + _map_rank(dn, ring) != hq:
            failures.append(f"rank defect at H_{n}(quotient)")
        # exactness at H_n(sub)
        positions += 1
        if not _is_zero_map(f @ dn1, ring):
            failures.append(f"iota.connecting nonzero into H_{n}")
        if _map_rank(dn1, ring) + _map_rank(f, ring) != hs:
            failures.append(f"rank defect at H_{n}(sub)")

    connecting = {n: _map_rank(m, ring) for n, m in d_star.items()
                  if not _is_zero_map(m, ring)}
    return ExactnessAudit(not failures, positions, tuple(failures), connecting)


# ---------------------------------------------------------------------------
# twisted morphisms and cones


@dataclass(frozen=True)
class TwistedMorphism:
    """A chain map Tot(source) -> Tot(target) given blockwise.

    blocks[(i, j)] maps (source D_i)_m to (target D_j)_{m + i - j}, so
    every block preserves total degree. Keys must satisfy i + shift >=
    j; the shift widens the allowed block pattern and records the index
    translation a morphism was transported across. Construction
    verifies the chain-map identity M.D = D.M on totalizations.
    """

    source: TwistedComplex
    target: TwistedComplex
    blocks: Mapping[tuple[int, int], GradedMap] = field(default_factory=dict)
    shift: int = 0

    def __post_init__(self) -> None:
        if self.source.ring != self.target.ring:
            raise UnsupportedRing("morphism between different rings")
        for (i, j), fam in self.blocks.items():
            if i not in self.source.pieces or j not in self.target.pieces:
                raise ShapeMismatch(
                    f"block ({i},{j}) references a missing piece")
            if i + self.shift < j:
                raise ShapeMismatch(
                    f"block ({i},{j}) violates monotonicity at shift "
                    f"{self.shift}")
            src, dst = self.source.pieces[i], self.target.pieces[j]
            for m, blk in fam.items():
                want = (dst.dim(m + i - j), src.dim(m))
                if (blk.rows, blk.cols) != want:
                    raise ShapeMismatch(
                        f"block ({i},{j}) at degree {m} is "
                        f"{blk.rows}x{blk.cols}, expected "
                        f"{want[0]}x{want[1]}")
        _check_chain_map(self)

    def block(self, i: int, j: int, m: int) -> IntegerMatrix:
        fam = self.blocks.get((i, j))
        got = None if fam is None else fam.get(m)
        if got is not None:
            return got
        return IntegerMatrix.zero(self.target.pieces[j].dim(m + i - j),
                                  self.source.pieces[i].dim(m))

    def ring(self) -> CoefficientRing:
        return self.source.ring


def _graded_total_matrix(blocks: Mapping[tuple[int, int], GradedMap],
                         src: _Totalization, dst: _Totalization, n: int,
                         lift: int) -> IntegerMatrix:
    """Blocks (i, j) placed as a map Tot(src)_n -> Tot(dst)_{n + lift}."""
    placed = []
    for (i, j), fam in blocks.items():
        blk = fam.get(n - i)
        if blk is not None and not blk.is_zero():
            placed.append((dst.offsets[(n + lift, j)], src.offsets[(n, i)],
                           blk))
    return place_blocks(dst.ranks.get(n + lift, 0), src.ranks.get(n, 0),
                        placed)


def morphism_total_matrix(m: TwistedMorphism, n: int) -> IntegerMatrix:
    """The assembled degree-0 map Tot(source)_n -> Tot(target)_n."""
    return _graded_total_matrix(m.blocks, m.source._tot, m.target._tot, n, 0)


def _check_chain_map(m: TwistedMorphism) -> None:
    src_lay = m.source._tot
    dst_lay = m.target._tot
    if not src_lay.order:
        return
    lo = src_lay.min_degree
    hi = src_lay.max_degree
    ring = m.source.ring
    for n in range(lo, hi + 1):
        lhs = morphism_total_matrix(m, n - 1) @ src_lay.d(n)
        rhs = dst_lay.d(n) @ morphism_total_matrix(m, n)
        if not _is_zero_map(lhs - rhs, ring):
            raise ChainMapViolation(
                f"morphism fails M.D = D.M out of total degree {n}")


def identity_morphism(t: TwistedComplex) -> TwistedMorphism:
    """The identity of t as a twisted morphism (diagonal unit blocks)."""
    blocks = {}
    for i, c in t.pieces.items():
        fam = {m: IntegerMatrix.identity(c.dim(m))
               for m in c.degrees() if c.dim(m)}
        blocks[(i, i)] = fam
    return TwistedMorphism(t, t, blocks)


def cone(m: TwistedMorphism) -> TwistedComplex:
    """Mapping cone of a twisted morphism, as a twisted complex.

    Target pieces keep their indices; source piece i re-enters at index
    i + shift + 1 with internal degrees lowered by shift, placing its
    generators one total degree up. All source differentials and
    structure maps are negated and the morphism blocks become structure
    maps; the chain-map identity makes the Maurer-Cartan terms cancel
    in pairs.
    """
    a = m.shift
    ring = m.source.ring
    src_at = {i + a + 1: i for i in m.source.pieces}
    pieces: dict[int, GradedChainComplex] = {}
    # (piece, part) -> offset bookkeeping: target block first, source second
    for idx in sorted(set(m.target.pieces) | set(src_at)):
        parts: list[GradedChainComplex] = []
        if idx in m.target.pieces:
            parts.append(m.target.pieces[idx])
        if idx in src_at:
            parts.append(
                negate_complex(shift_complex(m.source.pieces[src_at[idx]],
                                             -a)))
        pieces[idx] = parts[0] if len(parts) == 1 else direct_sum(parts)

    def target_dim(idx: int, mdeg: int) -> int:
        return m.target.pieces[idx].dim(mdeg) if idx in m.target.pieces \
            else 0

    # (ci, cj, mdeg) -> blocks at their offsets: target part first,
    # source part second in every piece
    placed: dict[tuple[int, int, int], list] = {}
    for (i, j), fam in m.target.structure_maps.items():
        for mdeg, blk in fam.items():
            placed.setdefault((i, j, mdeg), []).append((0, 0, blk))
    for (i, j), fam in m.source.structure_maps.items():
        ci, cj = i + a + 1, j + a + 1
        for mdeg, blk in fam.items():
            placed.setdefault((ci, cj, mdeg - a), []).append(
                (target_dim(cj, mdeg - a + ci - cj - 1),
                 target_dim(ci, mdeg - a), -blk))
    for (i, j), fam in m.blocks.items():
        ci = i + a + 1
        for mdeg, blk in fam.items():
            placed.setdefault((ci, j, mdeg - a), []).append(
                (0, target_dim(ci, mdeg - a), blk))

    return twisted_from_parts(
        ring, pieces, place_piece_blocks(placed, pieces, pieces, -1))


# ---------------------------------------------------------------------------
# homotopy squares


@dataclass(frozen=True)
class HomotopySquareWitness:
    """A square of twisted morphisms with a candidate chain homotopy.

    Edges run c12: t1 -> t2, c13: t1 -> t3, c24: t2 -> t4,
    c34: t3 -> t4. diagonal_blocks[(i, j)] maps (t1 D_i)_m to
    (t4 D_j)_{m + i - j + 1}, one total degree up.
    """

    c12: TwistedMorphism
    c13: TwistedMorphism
    c24: TwistedMorphism
    c34: TwistedMorphism
    diagonal_blocks: Mapping[tuple[int, int], GradedMap] = \
        field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.c12.source is not self.c13.source and \
                self.c12.source != self.c13.source:
            raise ShapeMismatch("edges c12, c13 start at different corners")
        if self.c24.source != self.c12.target:
            raise ShapeMismatch("edge c24 does not continue c12")
        if self.c34.source != self.c13.target:
            raise ShapeMismatch("edge c34 does not continue c13")
        if self.c24.target != self.c34.target:
            raise ShapeMismatch("edges c24, c34 end at different corners")


@dataclass(frozen=True)
class HomotopyVerdict:
    holds: bool
    failure_degree: int | None = None
    failure_piece: int | None = None
    failure_generator: int | None = None


def _homotopy_total_matrix(w: HomotopySquareWitness, n: int) -> IntegerMatrix:
    """Assembled degree +1 map Tot(t1)_n -> Tot(t4)_{n+1}."""
    src = w.c12.source
    dst = w.c24.target
    for (i, j), fam in w.diagonal_blocks.items():
        mdeg = n - i
        blk = fam.get(mdeg)
        if blk is None or blk.is_zero():
            continue
        want = (dst.pieces[j].dim(mdeg + i - j + 1), src.pieces[i].dim(mdeg))
        if (blk.rows, blk.cols) != want:
            raise ShapeMismatch(
                f"homotopy block ({i},{j}) at degree {mdeg} is "
                f"{blk.rows}x{blk.cols}, expected {want[0]}x{want[1]}")
    return _graded_total_matrix(w.diagonal_blocks, src._tot, dst._tot, n, 1)


def verify_homotopy_square(w: HomotopySquareWitness) -> HomotopyVerdict:
    """Check D.H + H.D = c24.c12 - c34.c13 on totalizations.

    The identity is tested exactly over Z and modulo p over a prime
    field; on failure the first offending generator of Tot(t1) is
    reported by total degree, piece, and position.
    """
    ring = w.c12.source.ring
    src_lay = w.c12.source._tot
    dst_lay = w.c24.target._tot
    if not src_lay.order:
        return HomotopyVerdict(True)
    for n in range(src_lay.min_degree, src_lay.max_degree + 1):
        lhs = dst_lay.d(n + 1) @ _homotopy_total_matrix(w, n) + \
            _homotopy_total_matrix(w, n - 1) @ src_lay.d(n)
        rhs = morphism_total_matrix(w.c24, n) @ \
            morphism_total_matrix(w.c12, n) - \
            morphism_total_matrix(w.c34, n) @ \
            morphism_total_matrix(w.c13, n)
        diff = lhs - rhs
        p = ring.p
        bad = sorted({c for (r, c), v in diff.entries.items()
                      if (v % p if p else v) != 0})
        if bad:
            piece, local = src_lay.locate(n, bad[0])
            return HomotopyVerdict(False, n, piece, local)
    return HomotopyVerdict(True)


# ---------------------------------------------------------------------------
# the index-filtration spectral sequence (prime fields only)


@dataclass(frozen=True)
class SpectralSequencePage:
    number: int
    dims: Mapping[tuple[int, int], int]
    differentials: Mapping[tuple[int, int], IntegerMatrix]


@dataclass(frozen=True)
class SpectralSequenceResult:
    """Pages of the index-filtration spectral sequence over F_p.

    dims on page r map (p, q) to dim E^r_{p,q}; differentials[p, q] is
    d_r: E^r_{p,q} -> E^r_{p-r, q+r-1} in the chosen bases. limit maps
    each total degree n to the list of surviving column dimensions; its
    sum equals dim H_n of the totalization (audited).
    """

    ring: CoefficientRing
    pages: tuple[SpectralSequencePage, ...]
    limit: Mapping[int, int]
    collapsed_at: int | None


def spectral_sequence(t: TwistedComplex, max_page: int,
                      ) -> SpectralSequenceResult:
    """Run the spectral sequence of the filtration by piece index.

    F^p Tot is spanned by the pieces of index <= p. Pages are computed
    by the subspace formula E_r = Z_r / (Z_{r-1}' + D Z_{r-1}''), each
    page's homology is cross-checked against the next, and the E-infinity
    column dimensions are audited against the homology of the
    totalization.
    """
    if not t.ring.is_field:
        raise UnsupportedRing(
            "the index-filtration spectral sequence requires a prime field")
    if max_page < 1:
        raise InvariantViolation("max_page must be at least 1")
    pr = t.ring.p
    tot = totalize(t)
    lay = t._tot
    order = list(lay.order)
    if not order:
        return SpectralSequenceResult(t.ring, (), {}, 1)

    width = order[-1] - order[0]

    dmat = {n: fp_array(lay.d(n), pr)
            for n in range(lay.min_degree, lay.max_degree + 2)}

    def cycle_space(pidx: int, r: int, n: int) -> np.ndarray:
        """Basis of Z_r = {x in F^p Tot_n : D x in F^{p-r}}, embedded."""
        dim_f = lay.prefix_dim(n, pidx)
        total = lay.ranks.get(n, 0)
        if dim_f == 0:
            return np.zeros((total, 0), dtype=np.int64)
        d = dmat.get(n)
        if d is None or d.shape[0] == 0:
            inner = np.eye(dim_f, dtype=np.int64)
        else:
            keep = lay.prefix_dim(n - 1, pidx - r)
            cond = d[keep:, :dim_f]
            inner = _fplinalg.null_space(cond, pr)
        out = np.zeros((total, inner.shape[1]), dtype=np.int64)
        out[:dim_f, :] = inner
        return out

    def page_space(pidx: int, q: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(representatives, boundary-span) for E_r at (p, q)."""
        n = pidx + q
        z = cycle_space(pidx, r, n)
        below = cycle_space(pidx - 1, r - 1, n)
        up = cycle_space(pidx + r - 1, r - 1, n + 1)
        d = dmat.get(n + 1)
        if d is None or d.size == 0:
            dz = np.zeros((lay.ranks.get(n, 0), up.shape[1]), dtype=np.int64)
        else:
            dz = (d @ up) % pr
        span = np.concatenate([below, dz], axis=1)
        # representatives: columns of z independent modulo span
        reps = []
        cur = span
        for jcol in range(z.shape[1]):
            v = z[:, jcol]
            if not _fplinalg.in_span(cur, v, pr):
                reps.append(v)
                cur = np.concatenate([cur, v.reshape(-1, 1)], axis=1)
        reps_m = np.stack(reps, axis=1) if reps else \
            np.zeros((z.shape[0], 0), dtype=np.int64)
        return reps_m, span

    qlo = min(c.min_degree for c in t.pieces.values())
    qhi = max(c.max_degree for c in t.pieces.values())
    spots = [(pidx, q) for pidx in order for q in range(qlo, qhi + 1)
             if t.piece(pidx).dim(q) > 0]

    pages: list[SpectralSequencePage] = []
    stable_after = width + 1
    last = min(max_page, stable_after)
    for r in range(1, last + 1):
        basis = {(pidx, q): page_space(pidx, q, r) for (pidx, q) in spots}
        dims = {(pidx, q): reps.shape[1]
                for (pidx, q), (reps, _) in basis.items()
                if reps.shape[1] > 0}
        diffs: dict[tuple[int, int], IntegerMatrix] = {}
        for (pidx, q), (reps, _) in basis.items():
            tgt = (pidx - r, q + r - 1)
            if reps.shape[1] == 0 or tgt not in basis:
                continue
            treps, tspan = basis[tgt]
            n = pidx + q
            d = dmat[n]
            cols = np.zeros((treps.shape[1], reps.shape[1]), dtype=np.int64)
            for jcol in range(reps.shape[1]):
                img = (d @ reps[:, jcol]) % pr if d.size \
                    else np.zeros(treps.shape[0], dtype=np.int64)
                coords = _fplinalg.class_coordinates(treps, tspan, img, pr)
                if coords is None:
                    raise InvariantViolation(
                        f"page {r} differential left its target at "
                        f"({pidx},{q})")
                cols[:, jcol] = coords
            if np.any(cols % pr):
                diffs[(pidx, q)] = IntegerMatrix.from_rows(
                    (cols % pr).tolist(), reps.shape[1])
        if pages:
            _check_page_turn(pages[-1], dims, pr)
        pages.append(SpectralSequencePage(r, dims, diffs))

    # E-infinity: any page index beyond the filtration width freezes
    # every space, because both cycle conditions become vacuous
    inf_dims = {(pidx, q): page_space(pidx, q, stable_after)[0].shape[1]
                for (pidx, q) in spots}
    nonzero_inf = {k: v for k, v in inf_dims.items() if v}
    # collapse = the first computed page already equal to E-infinity;
    # dimensions only ever shrink, so equality certifies that every
    # later differential vanishes
    collapsed_at = None
    for page in pages:
        if dict(page.dims) == nonzero_inf:
            collapsed_at = page.number
            break
    limit: dict[int, int] = {}
    for (pidx, q), dim in inf_dims.items():
        if dim:
            limit[pidx + q] = limit.get(pidx + q, 0) + dim
    h = homology(tot)
    for n in set(limit) | set(h.free):
        if limit.get(n, 0) != h.free_rank(n):
            raise InvariantViolation(
                f"E-infinity columns sum to {limit.get(n, 0)} in degree {n}, "
                f"homology has {h.free_rank(n)}")
    return SpectralSequenceResult(t.ring, tuple(pages), limit, collapsed_at)


def _check_page_turn(prev: SpectralSequencePage,
                     dims: Mapping[tuple[int, int], int], pr: int) -> None:
    """dim E^{r+1} must equal homology of (E^r, d^r) at every spot."""
    r = prev.number
    for (pidx, q), new_dim in list(dims.items()) + \
            [(k, 0) for k in prev.dims if k not in dims]:
        old = prev.dims.get((pidx, q), 0)
        out = prev.differentials.get((pidx, q))
        inc = prev.differentials.get((pidx + r, q - r + 1))
        rank_out = 0 if out is None else _fplinalg.rank(fp_array(out, pr), pr)
        rank_in = 0 if inc is None else _fplinalg.rank(fp_array(inc, pr), pr)
        expect = old - rank_out - rank_in
        if expect != new_dim:
            raise InvariantViolation(
                f"page {r + 1} at ({pidx},{q}) has dimension {new_dim}, "
                f"homology of page {r} gives {expect}")


def twisted_euler_characteristic(t: TwistedComplex) -> int:
    """Alternating sum over pieces, matching chi of the totalization."""
    total = 0
    for i, c in t.pieces.items():
        chi = sum((-1) ** n * c.dim(n) for n in c.degrees())
        total += (-1) ** i * chi
    return total
