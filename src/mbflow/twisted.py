"""Twisted complexes and their totalizations.

A twisted complex is a finite family of bounded chain complexes D_i
indexed by integers, together with structure maps delta_{ij} for i > j
that raise internal degree by i - j - 1. The totalization places D_i in
total degree (internal degree + i) and adds all delta blocks to the
differential; the defining requirement is that the total differential
squares to zero, with every sign absorbed into the stored maps.

Tot is built once per twisted complex and kept on the (immutable)
value: its layout (homalg.Layout, the pieces shifted by their index),
the total differential in every degree, and the Maurer-Cartan verdict.
validate and totalize read that one value, as do the quotient-sequence
audit, the spectral sequence and the morphism and homotopy checks; its
chain complex, derived once the verdict is valid, keeps the one column
reduction of each D_n that they read. A valid complex read over a ring
its own reduces to (Z to F_p, see flowcat.category_with_ring) shares
that Tot as well. Every chain-level identity here, D.D = 0, M.D = D.M,
D.H + H.D and the composites of the exact sequence, is decided by
homalg.first_nonzero, which names the first offending generator.
Every block family, of D (the pieces' own differentials and the
structure maps), of a morphism or of a homotopy, is checked by
homalg.block_shape_issues and placed by homalg.place_families; one
piece builder, _PieceLayout, sums the pieces of a realization or of a
cone and places the blocks between them.

The module also provides the operations that mirror geometric
constructions at the chain level: index shifts, sub/quotient
decompositions with a long-exact-sequence audit, mapping cones of
twisted morphisms, homotopy-square verification, and the spectral
sequence of the index filtration over a prime field.
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Mapping, Sequence

from . import _fplinalg
from .errors import (
    ChainMapViolation,
    InvalidRange,
    InvariantViolation,
    ShapeMismatch,
    UnsupportedRing,
)
from .homalg import (
    CoefficientRing,
    GradedChainComplex,
    IntegerMatrix,
    Layout,
    block_shape,
    block_shape_issues,
    digits,
    first_nonzero,
    homology,
    negate_complex,
    place_families,
    shift_complex,
    squares,
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
        for i, j in self.structure_maps:
            if i <= j:
                raise ShapeMismatch(
                    f"structure map ({i},{j}) does not decrease the index")
        # piece i sits at total degree (internal degree + i)
        placed = {i: (c, i) for i, c in self.pieces.items()}
        issues = block_shape_issues(self.structure_maps.items(), placed,
                                    placed, -1, lambda i, j: f"delta({i},{j})")
        if issues:
            raise ShapeMismatch(issues[0])

    def indices(self) -> list[int]:
        return sorted(self.pieces)

    def piece(self, i: int) -> GradedChainComplex:
        return self.pieces[i]

    @cached_property
    def _tot(self) -> "_Totalization":
        return _assemble(self)


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


class _PieceLayout:
    """Keyed, shifted summands grouped into pieces, one Layout each.

    Summands of equal piece index are summed in the order given: a flow
    category's objects keyed by name, each chain shifted by r - mu
    (flowcat.realize), or a cone's target and negated source pieces
    (_mapping_cone). A single-summand piece is the shifted complex
    itself, sharing its matrices.
    """

    def __init__(self, summands: Sequence[tuple]) -> None:
        """summands lists (key, piece index, chain, shift)."""
        groups: dict[int, list] = {}
        for key, i, c, s in summands:
            groups.setdefault(i, []).append((key, c, s))
        self.piece_of = {key: i for key, i, _, _ in summands}
        self.layouts = {i: Layout.of(g) for i, g in groups.items()}
        self.pieces = {i: lay.complex() for i, lay in self.layouts.items()}

    def with_ring(self, ring: CoefficientRing) -> "_PieceLayout":
        """This layout with its pieces read over another ring."""
        out = copy(self)
        out.pieces = {i: c.with_ring(ring) for i, c in self.pieces.items()}
        return out

    def place(self, blocks, dst: "_PieceLayout", lift: int) -> dict:
        """Blocks ((x, y), {m: block}) from summands of this layout to
        summands of dst, as piece families (i, j): the maps (piece i)_n ->
        (dst piece j)_{n + i - j + lift}."""
        groups: dict[tuple[int, int], list] = {}
        for (x, y), fam in blocks:
            groups.setdefault((self.piece_of[x], dst.piece_of[y]), []).append(
                ((x, y), fam))
        placed = {(i, j): place_families(fams, self.layouts[i],
                                         dst.layouts[j], i - j + lift)
                  for (i, j), fams in groups.items()}
        return {key: fam for key, fam in placed.items() if fam}


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
class _Totalization(Layout):
    """Tot of one twisted complex, built once by _assemble.

    Its layout has the pieces as summands, keyed by index and shifted by
    it, so piece i contributes its internal degree n - i to total degree
    n, and each degree lists its nonzero pieces in ascending index order
    (parts; ranks holds only the nonzero degrees). differentials holds
    the nonzero total differentials D_n: Tot_n -> Tot_{n-1}. With the
    ring, that is all it stores: Tot's degrees are those ranks holds,
    and no range is kept around them. The Maurer-Cartan verdict and the
    chain complex are computed on first use and kept. The verdict
    squares each stored D_n D_{n+1} once; the complex is derived from
    it, squares nothing and is read only after a valid verdict
    (totalize), so Tot is squared once however many layers read it.
    """

    ring: CoefficientRing
    differentials: Mapping[int, IntegerMatrix]

    def position(self, i: int) -> int:
        """The number of pieces of index < i, for every i."""
        return bisect_left(self.keys, i)

    def d(self, n: int) -> IntegerMatrix:
        return _graded(self.differentials, self, self, n, -1)

    def prefix_dim(self, n: int, p: int) -> int:
        """Dimension of the pieces of index <= p in Tot_n (a prefix)."""
        return self.offset(n, p + 1)

    @cached_property
    def diagnostics(self) -> TwistedDiagnostics:
        return _maurer_cartan(self)

    @cached_property
    def complex(self) -> GradedChainComplex:
        return GradedChainComplex._derived(self.ring, self.ranks,
                                           self.differentials)

    def with_ring(self, ring: CoefficientRing) -> "_Totalization":
        """This Tot, valid, read over ring, which its ring reduces to:
        layout, differentials, verdict and chain complex carry over, and
        the complex over ring reduces its differentials on first use."""
        out = replace(self, ring=ring)
        out.__dict__.update(diagnostics=self.diagnostics,
                            complex=self.complex.with_ring(ring))
        return out


def _graded(maps: Mapping[int, IntegerMatrix], src: Layout, dst: Layout,
            n: int, lift: int) -> IntegerMatrix:
    """maps[n], or the zero map src_n -> dst_{n + lift} if it is absent."""
    return maps.get(n) or IntegerMatrix.zero(dst.dim(n + lift), src.dim(n))


def _assemble(t: TwistedComplex) -> _Totalization:
    """Lay out Tot and place its differentials: each piece's own
    differential as the block (i, i), and the structure maps."""
    order = t.indices()
    lay = Layout.of((i, t.piece(i), i) for i in order)
    diffs = place_families(
        [*(((i, i), t.piece(i).differential) for i in order),
         *t.structure_maps.items()], lay, lay, -1)
    return _Totalization(lay.summands, lay.ranks, lay.parts, t.ring, diffs)


def _maurer_cartan(tot: _Totalization) -> TwistedDiagnostics:
    """Check D.D = 0, squaring each stored pair D_n D_{n+1} once from the
    bottom up; the least nonzero column of the first nonzero product is
    the reported generator."""
    bad = first_nonzero(squares(tot.differentials), tot.ring.p)
    if bad is None:
        return TwistedDiagnostics(True)
    piece, local = tot.locate(*bad)
    return TwistedDiagnostics(
        False, (f"D.D is nonzero on generator {local} of piece {piece} "
                f"in total degree {digits(bad[0])}",), bad[0], piece, local)


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


def shift(t: TwistedComplex, a: int) -> TwistedComplex:
    """Translate the index set by a without moving the totalization.

    Piece i becomes piece i + a carrying the same chain complex shifted
    down by a, so generators keep their total degree and Tot is
    unchanged, cell for cell: the total differential is reproduced entry
    for entry, and the identification with Tot(t) is the identity
    matrix in every degree.
    """
    pieces = {i + a: shift_complex(c, -a) for i, c in t.pieces.items()}
    maps: dict[tuple[int, int], GradedMap] = {}
    for (i, j), blocks in t.structure_maps.items():
        maps[(i + a, j + a)] = {m - a: blk for m, blk in blocks.items()}
    return TwistedComplex(t.ring, pieces, maps)


# ---------------------------------------------------------------------------
# homology frames: representatives plus coordinates, over F_p and Q


def _window(c: GradedChainComplex, lo: Mapping[int, int] | None,
            hi: Mapping[int, int] | None, n: int) -> tuple[int, int]:
    """Cells lo[n] .. hi[n] - 1 of c_n; None is the first or the last
    cell, and a degree missing from a cut counts 0."""
    return (0 if lo is None else lo.get(n, 0),
            c.dim(n) if hi is None else hi.get(n, 0))


class _FieldFrame:
    """Homology basis with cycle coordinates over F_p, or over Q for Z.

    Built from the column reductions (R, V, low), R = d V, that c keeps
    over its field (GradedChainComplex.column_reductions; Q for Z), and
    framing the window of cells lo[n] .. hi[n] - 1 of each c_n
    (_window): all of c, or the sub (hi at a cut) or the quotient (lo at
    the cut). Each prefix is reduced as it would be on its own, and a
    column whose low lies past the cut is only added columns past the
    cut, so the window's rows carry its cycles and boundaries: V_j for
    each j of the window whose column has no low or one before the
    window (top entry 1 at j), and the columns of R_{n+1} in the window
    with a low in it (top row that low). These are the basis vectors,
    kept as sparse columns by their top row with 1 / their top entry.
    The representatives are the columns V_j whose j is no boundary's
    top: chains of c, and for the quotient lifts of its cycles to c.
    Over Q each is scaled to a primitive integer column, so over Z they
    span the free part of homology after tensoring with Q.

    A column j that the reduction skipped by clearing, a low of R_{n+1},
    has for V_j the column of R_{n+1} with low j, scaled to 1 at j: a
    cycle with top j, as the basis needs. Only a sub reads it, where that
    column of R_{n+1} lies past the cut: there V_j represents a class of
    the sub that bounds in c. In all of c and in a quotient, j is that
    column's low inside the window, a boundary's top, and no
    representative.

    coords takes chains of c with no entry at or past hi[n] (mod p) and
    ignores their entries before lo[n]. It clears each chain from the
    top with the basis vectors while its top row is in the window
    (_fplinalg.clear_tops): the factors of the representatives are its
    coordinates, and a chain with a row of the window left is no cycle.
    Over Q the coordinates of a call are scaled by one positive integer,
    the least that makes them all integers, which keeps every rank and
    every zero test.
    """

    def __init__(self, c: GradedChainComplex,
                 lo: Mapping[int, int] | None = None,
                 hi: Mapping[int, int] | None = None) -> None:
        self.complex = c
        self.p = p = c.ring.p
        columns = c.column_reductions
        self._lo, self._hi = lo, hi
        self._reps: dict[int, IntegerMatrix] = {}
        # per degree: top row in the window -> (the basis vector, 1 / its
        # top entry, its representative's position or None for a boundary)
        self._tops: dict[int, dict[int, tuple]] = {}
        for n in c.rank:
            (a, b), below = _window(c, lo, hi, n), _window(c, lo, hi, n - 1)[0]
            above, above_end = _window(c, lo, hi, n + 1)
            # a missing d_n is zero: no column of R, and V = 1
            _, v, low_out = columns.get(n, ({}, {}, {}))
            r_in, _, low_in = columns.get(n + 1, ({}, {}, {}))
            tops = self._tops[n] = {
                i: (r_in[k], _fplinalg.inverse(r_in[k][i], p), None)
                for k, i in low_in.items()
                if above <= k < above_end and i >= a}
            keys = [j for j in range(a, b)
                    if low_out.get(j, -1) < below and j not in tops]
            reps = [v.get(j, {j: 1}) for j in keys]
            if p is None:  # top entry 1, so the result is primitive
                reps = [_clear_denominators(col) for col in reps]
            tops.update((j, (col, _fplinalg.inverse(col[j], p), k))
                        for k, (j, col) in enumerate(zip(keys, reps)))
            self._reps[n] = IntegerMatrix(c.dim(n), len(keys), {
                (i, k): x for k, col in enumerate(reps) for i, x in col.items()})

    def rank(self, n: int) -> int:
        return self.reps(n).cols

    def reps(self, n: int) -> IntegerMatrix:
        r = self._reps.get(n)
        return IntegerMatrix.zero(self.complex.dim(n), 0) if r is None else r

    def coords(self, n: int, cycles: IntegerMatrix) -> IntegerMatrix:
        p = self.p
        a, b = _window(self.complex, self._lo, self._hi, n)
        if any(i >= b and (v % p if p else v)
               for (i, _), v in cycles.entries.items()):
            raise InvariantViolation(f"vector in degree {n} leaves the window")
        if n not in self._reps or not cycles.cols:
            return IntegerMatrix.zero(self.rank(n), cycles.cols)
        out = {}
        for j, x in _fplinalg.columns(cycles, p).items():
            for k, f in _fplinalg.clear_tops(x, self._tops[n], p):
                if k is not None:
                    out[k, j] = f
            if x and max(x) >= a:
                raise InvariantViolation(f"vector in degree {n} is not a cycle")
        if p is None:  # one positive integer clears every fraction
            scale = lcm(*(f.denominator for f in out.values()))
            out = {key: int(f * scale) for key, f in out.items()}
        return IntegerMatrix(self.rank(n), cycles.cols, out)


def _clear_denominators(col: Mapping[int, int | Fraction]) -> dict[int, int]:
    """A rational column times the least common denominator of its
    entries."""
    scale = lcm(*(v.denominator for v in col.values()))
    return {i: int(v * scale) for i, v in col.items()}


# ---------------------------------------------------------------------------
# quotient sequences


@dataclass(frozen=True)
class ExactnessAudit:
    """Verdict of the long-exact-sequence audit for a sub/quotient pair.

    Over a field the three-term exactness is verified degreewise as an
    equality of subspaces (composite vanishes and ranks add up to the
    middle dimension). Over Z the same bookkeeping is verified after
    tensoring with Q, on homology free parts: the frames are those over
    Q, with integral representatives and integer coordinates, and the
    ranks are ranks over Q. Either way the three frames are windows of
    the column reductions of the total complex, the same for every cut.
    Every chain is a chain of the total complex, and each induced map is
    ranked once. The connecting map is computed from the snake lemma on
    representatives, and connecting_rank[n] is the rank of
    H_n(quotient) -> H_{n-1}(sub). positions_checked is 3 per degree
    where the total complex has cells, even where the sub or the
    quotient has none. Those are the degrees the audit visits, as a
    degree with no cell of Tot has zero homology in all three; the next
    degree up is read too, for the connecting map into them.
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
    exact sequence relating the three homologies in the coordinates of
    Tot(t): the sub is the prefix of each Tot_n, the quotient the rest,
    and no complex is built for either. Their frames are windows of the
    column reductions that Tot's chain complex keeps, mod p or, over Z,
    over Q, which every cut and the spectral sequence share. A quotient
    class is represented by a lift to Tot(t), and D of that lift is a
    cycle of the sub: the connecting map.

    Cutting the height-squared function on S^2 below its poles: the
    poles span H_2 of the quotient and both bound the equator's loop,
    so the connecting map out of degree 2 has rank 1.

    >>> from mbflow.examples import sphere_z2
    >>> from mbflow.flowcat import realize
    >>> audit = quotient_sequence(realize(sphere_z2()), 0).audit
    >>> audit.exact, dict(audit.connecting_rank)
    (True, {2: 1})
    """
    sub, quot = index_split(t, p)
    return QuotientSequence(sub, quot, _les_audit(t, p))


def index_split(t: TwistedComplex, p: int,
                ) -> tuple[TwistedComplex, TwistedComplex]:
    """The pieces of index <= p with the structure maps among them, and
    the other pieces with the structure maps among those: the twisted
    subcomplex and quotient of quotient_sequence, without its audit."""
    sub = twisted_from_parts(
        t.ring,
        {i: c for i, c in t.pieces.items() if i <= p},
        {(i, j): b for (i, j), b in t.structure_maps.items() if i <= p})
    quot = twisted_from_parts(
        t.ring,
        {i: c for i, c in t.pieces.items() if i > p},
        {(i, j): b for (i, j), b in t.structure_maps.items() if j > p})
    return sub, quot


def _les_audit(t: TwistedComplex, p: int) -> ExactnessAudit:
    tot, lay, ring = totalize(t), t._tot, t.ring
    cut = {n: lay.prefix_dim(n, p) for n in lay.ranks}

    # the sub, Tot and the quotient are windows of Tot's column reductions
    fr_sub, fr_tot = _FieldFrame(tot, hi=cut), _FieldFrame(tot)
    fr_quot = _FieldFrame(tot, lo=cut)

    # every chain is one of Tot: the connecting map H_n(quot) ->
    # H_{n-1}(sub) applies D to the quotient representatives, lifts to
    # Tot; a map between zero homologies is an empty matrix
    degrees = sorted(lay.ranks)
    i_star, p_star, d_star = {}, {}, {}
    for n in sorted({*degrees, *(n + 1 for n in degrees)}):
        i_star[n] = fr_tot.coords(n, fr_sub.reps(n))
        p_star[n] = fr_quot.coords(n, fr_tot.reps(n))
        d_star[n] = fr_sub.coords(n - 1, lay.d(n) @ fr_quot.reps(n))
    # each induced map is ranked once, over Q when the ring is Z
    rk_i, rk_p, rk_d = ({n: _fplinalg.rank(m, ring.p)
                         for n, m in table.items()}
                        for table in (i_star, p_star, d_star))

    failures: list[str] = []
    for n in degrees:
        hs, ht, hq = fr_sub.rank(n), fr_tot.rank(n), fr_quot.rank(n)
        f, g, dn, dn1 = i_star[n], p_star[n], d_star[n], d_star[n + 1]
        rf, rg, rdn, rdn1 = rk_i[n], rk_p[n], rk_d[n], rk_d[n + 1]
        # exactness at H_n(tot)
        if first_nonzero([(n, g @ f)], ring.p) is not None:
            failures.append(f"pi.iota nonzero on H_{n}")
        if rf + rg != ht:
            failures.append(f"rank defect at H_{n}(total)")
        # exactness at H_n(quot)
        if first_nonzero([(n, dn @ g)], ring.p) is not None:
            failures.append(f"connecting.pi nonzero on H_{n}")
        if rg + rdn != hq:
            failures.append(f"rank defect at H_{n}(quotient)")
        # exactness at H_n(sub)
        if first_nonzero([(n, f @ dn1)], ring.p) is not None:
            failures.append(f"iota.connecting nonzero into H_{n}")
        if rdn1 + rf != hs:
            failures.append(f"rank defect at H_{n}(sub)")

    # three positions per degree; a map is zero exactly when its rank is
    connecting = {n: r for n, r in rk_d.items() if r}
    return ExactnessAudit(not failures, 3 * len(degrees), tuple(failures),
                          connecting)


# ---------------------------------------------------------------------------
# twisted morphisms and cones


@dataclass(frozen=True)
class TwistedMorphism:
    """A chain map Tot(source) -> Tot(target) given blockwise.

    blocks[(i, j)] maps (source D_i)_m to (target D_j)_{m + i - j}, so
    every block preserves total degree. Keys must satisfy i + shift >=
    j; the shift widens the allowed block pattern and records the index
    translation a morphism was transported across. Construction
    places the blocks into the maps Tot(source)_n -> Tot(target)_n once,
    keeps them, and verifies the chain-map identity M.D = D.M on them.
    """

    source: TwistedComplex
    target: TwistedComplex
    blocks: Mapping[tuple[int, int], GradedMap] = field(default_factory=dict)
    shift: int = 0

    def __post_init__(self) -> None:
        if self.source.ring != self.target.ring:
            raise UnsupportedRing("morphism between different rings")
        issues = block_shape_issues(
            self.blocks.items(), self.source._tot.summands,
            self.target._tot.summands, 0, lambda i, j: f"block ({i},{j})")
        if issues:
            raise ShapeMismatch(issues[0])
        for i, j in self.blocks:
            if i + self.shift < j:
                raise ShapeMismatch(
                    f"block ({i},{j}) violates monotonicity at shift "
                    f"{self.shift}")
        _check_chain_map(self)

    def block(self, i: int, j: int, m: int) -> IntegerMatrix:
        fam = self.blocks.get((i, j))
        got = None if fam is None else fam.get(m)
        if got is not None:
            return got
        src, dst = self.source._tot.summands, self.target._tot.summands
        if i not in src or j not in dst:
            raise ShapeMismatch(f"block ({i},{j}) references a missing piece")
        return IntegerMatrix.zero(*block_shape(src[i], dst[j], 0, m))

    @cached_property
    def _cone(self) -> TwistedComplex:
        return _mapping_cone(self)

    @cached_property
    def _total(self) -> dict[int, IntegerMatrix]:
        return place_families(self.blocks.items(), self.source._tot,
                              self.target._tot, 0)


def morphism_total_matrix(m: TwistedMorphism, n: int) -> IntegerMatrix:
    """The assembled degree-0 map Tot(source)_n -> Tot(target)_n."""
    return _graded(m._total, m.source._tot, m.target._tot, n, 0)


def _check_chain_map(m: TwistedMorphism) -> None:
    src_lay = m.source._tot
    dst_lay = m.target._tot
    bad = first_nonzero(
        ((n, morphism_total_matrix(m, n - 1) @ src_lay.d(n)
          - dst_lay.d(n) @ morphism_total_matrix(m, n))
         for n in sorted(src_lay.ranks)),
        m.source.ring.p)
    if bad is not None:
        piece, local = src_lay.locate(*bad)
        raise ChainMapViolation(
            f"morphism fails M.D = D.M on generator {local} of piece "
            f"{piece} in total degree {digits(bad[0])}")


def identity_morphism(t: TwistedComplex) -> TwistedMorphism:
    """The identity of t as a twisted morphism (diagonal unit blocks)."""
    return TwistedMorphism(t, t, {
        (i, i): {m: IntegerMatrix.identity(r) for m, r in c.rank.items() if r}
        for i, c in t.pieces.items()})


def cone(m: TwistedMorphism) -> TwistedComplex:
    """Mapping cone of a twisted morphism, as a twisted complex.

    Target pieces keep their indices; source piece i re-enters at index
    i + shift + 1 with internal degrees lowered by shift, placing its
    generators one total degree up. All source differentials and
    structure maps are negated and the morphism blocks become structure
    maps; the chain-map identity makes the Maurer-Cartan terms cancel
    in pairs. The cone is built once per morphism and kept on it, so
    every call returns the same value.
    """
    return m._cone


def _mapping_cone(m: TwistedMorphism) -> TwistedComplex:
    # pieces in index order, each with its target part before its source part
    a = m.shift
    lay = _PieceLayout(sorted(
        [((0, j), j, c, 0) for j, c in m.target.pieces.items()]
        + [((1, i), i + a + 1, negate_complex(c), -a)
           for i, c in m.source.pieces.items()], key=lambda s: s[1]))
    families = [
        *((((0, i), (0, j)), fam)
          for (i, j), fam in m.target.structure_maps.items()),
        *((((1, i), (1, j)), {mdeg: -blk for mdeg, blk in fam.items()})
          for (i, j), fam in m.source.structure_maps.items()),
        *((((1, i), (0, j)), fam) for (i, j), fam in m.blocks.items())]
    return twisted_from_parts(m.source.ring, lay.pieces,
                              lay.place(families, lay, -1))


# ---------------------------------------------------------------------------
# homotopy squares


@dataclass(frozen=True)
class HomotopySquareWitness:
    """A square of twisted morphisms with a candidate chain homotopy.

    Edges run c12: t1 -> t2, c13: t1 -> t3, c24: t2 -> t4,
    c34: t3 -> t4. diagonal_blocks[(i, j)] maps (t1 D_i)_m to
    (t4 D_j)_{m + i - j + 1}, one total degree up. Construction checks
    the corners and the shapes of the diagonal blocks.
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
        issues = block_shape_issues(
            self.diagonal_blocks.items(), self.c12.source._tot.summands,
            self.c24.target._tot.summands, 1,
            lambda i, j: f"homotopy block ({i},{j})")
        if issues:
            raise ShapeMismatch(issues[0])


@dataclass(frozen=True)
class HomotopyVerdict:
    holds: bool
    failure_degree: int | None = None
    failure_piece: int | None = None
    failure_generator: int | None = None


def verify_homotopy_square(w: HomotopySquareWitness) -> HomotopyVerdict:
    """Check D.H + H.D = c24.c12 - c34.c13 on totalizations.

    The identity is tested exactly over Z and modulo p over a prime
    field; on failure the first offending generator of Tot(t1) is
    reported by total degree, piece, and position. H is placed once, as
    the maps Tot(t1)_n -> Tot(t4)_{n+1}.
    """
    src_lay = w.c12.source._tot
    dst_lay = w.c24.target._tot
    h = place_families(w.diagonal_blocks.items(), src_lay, dst_lay, 1)
    for n in sorted(src_lay.ranks):
        lhs = dst_lay.d(n + 1) @ _graded(h, src_lay, dst_lay, n, 1) + \
            _graded(h, src_lay, dst_lay, n - 1, 1) @ src_lay.d(n)
        rhs = morphism_total_matrix(w.c24, n) @ \
            morphism_total_matrix(w.c12, n) - \
            morphism_total_matrix(w.c34, n) @ \
            morphism_total_matrix(w.c13, n)
        bad = first_nonzero([(n, lhs - rhs)], w.c12.source.ring.p)
        if bad is not None:
            return HomotopyVerdict(False, n, *src_lay.locate(*bad))
    return HomotopyVerdict(True)


# ---------------------------------------------------------------------------
# the index-filtration spectral sequence (prime fields only)


@dataclass(frozen=True)
class SpectralSequencePage:
    """Page r: dims[p, q] = dim E^r_{p,q} for the nonzero spots,
    differentials[p, q], the nonzero d_r out of (p, q) as a 0/1 matrix
    in the persistence basis (see spectral_sequence), and ranks[p, q],
    its rank over F_p."""

    number: int
    dims: Mapping[tuple[int, int], int]
    differentials: Mapping[tuple[int, int], IntegerMatrix]
    ranks: Mapping[tuple[int, int], int]


@dataclass(frozen=True)
class SpectralSequenceResult:
    """Pages of the index-filtration spectral sequence over F_p.

    dims on page r map (p, q) to dim E^r_{p,q}; differentials[p, q] is
    d_r: E^r_{p,q} -> E^r_{p-r, q+r-1} in the persistence basis. limit
    maps each total degree n to the sum of the E-infinity dimensions
    over its spots; it equals dim H_n of the totalization (audited).
    """

    ring: CoefficientRing
    pages: tuple[SpectralSequencePage, ...]
    limit: Mapping[int, int]
    collapsed_at: int | None


def spectral_sequence(t: TwistedComplex, max_page: int,
                      ) -> SpectralSequenceResult:
    """Run the spectral sequence of the filtration by piece index.

    F^p Tot is spanned by the pieces of index <= p, and every basis of
    Tot_n already lists its cells in ascending filtration. One sparse
    column reduction of each D_n (_fplinalg.reduce_columns) pairs a cell
    sigma at filtration a with the cell tau at filtration b whose
    reduced column has its top entry at sigma. Both cells live on
    the pages r <= b - a, where they span spots (a, .) and (b, .), and
    d_{b-a} carries tau to sigma; unpaired cells survive to E-infinity.
    A page's generators at a spot are its surviving cells in cell
    order (the persistence basis), and d_r is the 0/1 matrix of the
    pairs at gap r. Spot (i, m) starts as the cells of piece i in degree
    m, so each page is read off the piece ranks and the pairs alone, and
    costs per pair and per spot, never per cell: a spot's dimension is its
    size less its cells paired at a smaller gap, and a surviving cell's
    place is its local index less the cells gone before it. Each page's
    dimensions are cross-checked against the homology of the previous
    page (its d_r ranked by the same sparse elimination,
    _fplinalg.rank), and pages stop at the filtration width + 1, where
    only unpaired cells remain. The reductions are those Tot's chain
    complex keeps, which homology over F_p and the frames of
    quotient_sequence read too. Their clearing skips only columns that
    reduce to zero, so it changes no pair. So the audit of the
    E-infinity total dimensions against homology(Tot) checks the
    filtration and spot bookkeeping against Tot's degrees, not the
    reduction; the tests
    test_integer_homology_agrees_with_fp_by_universal_coefficients,
    test_reduce_columns_exact and test_clearing_changes_no_answer check
    that. On the 2-sphere over F_2, d_2
    carries the first of the two poles onto the 1-cell of the
    equator, and the second survives:

    >>> from mbflow.examples import sphere_z2
    >>> from mbflow.flowcat import realize
    >>> f2 = CoefficientRing.prime_field(2)
    >>> ss = spectral_sequence(realize(sphere_z2(f2)), 5)
    >>> for page in ss.pages:
    ...     print(page.number, dict(page.dims))
    1 {(0, 0): 1, (0, 1): 1, (2, 0): 2}
    2 {(0, 0): 1, (0, 1): 1, (2, 0): 2}
    3 {(0, 0): 1, (2, 0): 1}
    >>> ss.pages[1].differentials[2, 0].to_rows(), ss.collapsed_at
    ([[1, 0]], 3)
    >>> dict(ss.limit)
    {0: 1, 2: 1}
    """
    if not t.ring.is_field:
        raise UnsupportedRing(
            "the index-filtration spectral sequence requires a prime field")
    if max_page < 1:
        raise InvalidRange("max_page must be at least 1")
    pr = t.ring.p
    tot = totalize(t)
    lay = t._tot
    order = lay.keys
    if not order:
        return SpectralSequenceResult(t.ring, (), {}, 1)

    sizes = {(i, m): r for i, c in t.pieces.items()
             for m, r in c.rank.items() if r}
    # per pair: (gap, source spot, tau, target spot, sigma), cells local
    arrows: list[tuple[int, tuple[int, int], int, tuple[int, int], int]] = []
    for n, (_, _, low) in tot.column_reductions.items():
        for pair in low.items():
            (b, tau), (a, sigma) = map(lay.locate, (n, n - 1), pair)
            arrows.append((b - a, (b, n - b), tau, (a, n - 1 - a), sigma))

    def alive(r: int) -> tuple[dict[tuple[int, int], int], Callable]:
        """Page r's nonzero dimensions, and the place of a spot's cell in
        its persistence basis: the local index less the spot's cells
        paired at a gap below r."""
        gone: dict[tuple[int, int], list[int]] = {spot: [] for spot in sizes}
        for g, src, tau, dst, sigma in arrows:
            if g < r:
                gone[src].append(tau)
                gone[dst].append(sigma)
        for cells in gone.values():
            cells.sort()
        dims = {spot: size - len(gone[spot]) for spot, size in sizes.items()}
        return ({spot: d for spot, d in dims.items() if d},
                lambda spot, cell: cell - bisect_left(gone[spot], cell))

    pages: list[SpectralSequencePage] = []
    stable_after = order[-1] - order[0] + 1
    for r in range(1, min(max_page, stable_after) + 1):
        dims, place = alive(r)
        entries: dict[tuple, dict[tuple[int, int], int]] = {}
        for g, src, tau, dst, sigma in arrows:
            if g == r:
                entries.setdefault((src, dst), {})[
                    (place(dst, sigma), place(src, tau))] = 1
        diffs = {src: IntegerMatrix(dims[dst], dims[src], e)
                 for (src, dst), e in entries.items()}
        if pages:
            _check_page_turn(pages[-1], dims)
        pages.append(SpectralSequencePage(
            r, dims, diffs,
            {src: _fplinalg.rank(d, pr) for src, d in diffs.items()}))

    # E-infinity: past the filtration width every pair has died
    inf_dims = alive(stable_after)[0]
    # collapse = the first computed page already equal to E-infinity;
    # dimensions only ever shrink, so equality certifies that every
    # later differential vanishes
    collapsed_at = None
    for page in pages:
        if dict(page.dims) == inf_dims:
            collapsed_at = page.number
            break
    limit: dict[int, int] = {}
    for (pidx, q), dim in inf_dims.items():
        limit[pidx + q] = limit.get(pidx + q, 0) + dim
    h = homology(tot)
    for n in set(limit) | set(h.free):
        if limit.get(n, 0) != h.free_rank(n):
            raise InvariantViolation(
                f"E-infinity columns sum to {limit.get(n, 0)} in degree {n}, "
                f"homology has {h.free_rank(n)}")
    return SpectralSequenceResult(t.ring, tuple(pages), limit, collapsed_at)


def _check_page_turn(prev: SpectralSequencePage,
                     dims: Mapping[tuple[int, int], int]) -> None:
    """dim E^{r+1} must equal homology of (E^r, d^r) at every spot."""
    r = prev.number
    for (pidx, q), new_dim in list(dims.items()) + \
            [(k, 0) for k in prev.dims if k not in dims]:
        old = prev.dims.get((pidx, q), 0)
        expect = old - prev.ranks.get((pidx, q), 0) - \
            prev.ranks.get((pidx + r, q - r + 1), 0)
        if expect != new_dim:
            raise InvariantViolation(
                f"page {r + 1} at ({pidx},{q}) has dimension {new_dim}, "
                f"homology of page {r} gives {expect}")


def twisted_euler_characteristic(t: TwistedComplex) -> int:
    """Alternating sum over pieces, matching chi of the totalization."""
    return sum((-1) ** (i + n) * r for i, c in t.pieces.items()
               for n, r in c.rank.items())
