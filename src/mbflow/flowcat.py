"""Flow categories at chain level and their twisted-complex realization.

A flow category is recorded combinatorially: objects carry an integer
index mu, a framing rank r, and a cellular chain model of the critical
manifold; correspondences carry chain-level block maps whose degree
shift r_from - r_to - 1 is the shadow of the framing equation. The
realization packs objects of equal index into one twisted piece,
shifting each object's chain by r - mu so that a generator in chain
degree k lands in total degree k + r.

Everything downstream (inclusion/quotient splits, index shifts, the
Atiyah-style dual, bimodule-induced maps, relative modules) is phrased
so that it commutes with realization on the nose, which the operations
assert rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

from .errors import (
    InvariantViolation,
    NotDownwardClosed,
    OrientationRequired,
    ShapeMismatch,
    UnsupportedRing,
    ValidationError,
)
from .homalg import (
    CoefficientRing,
    GradedChainComplex,
    HomologySummary,
    IntegerMatrix,
    direct_sum,
    dual_complex,
    homology,
    negate_complex,
    shift_complex,
)
from .twisted import (
    TwistedComplex,
    TwistedMorphism,
    cone,
    place_piece_blocks,
    quotient_sequence,
    totalize,
    twisted_from_parts,
    validate as validate_twisted,
)


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class FlowObject:
    """One critical manifold: index mu, framing rank r, chain model.

    The chain complex is bounded below at degree 0 (cellular model of a
    compact manifold). orientable_flag is the user's assertion that the
    framing bundle is orientable, consulted only away from
    characteristic 2.
    """

    name: str
    index: int
    framing_rank: int
    chain: GradedChainComplex
    orientable_flag: bool = True

    def __post_init__(self) -> None:
        if self.chain.min_degree < 0 or any(
                n < 0 and r > 0 for n, r in self.chain.rank.items()):
            raise ValidationError(
                f"object {self.name!r} has chains below degree 0")

    def top_degree(self) -> int:
        support = [n for n, r in self.chain.rank.items() if r > 0]
        return max(support) if support else 0


@dataclass(frozen=True)
class CorrespondenceMap:
    """Chain-level shadow of a moduli space from `source` to `target`.

    blocks[m] maps C(source)_m to C(target)_{m + shift} where shift is
    r_source - r_target - 1; shapes are validated against the ambient
    category, which also requires mu(source) > mu(target).
    """

    source: str
    target: str
    blocks: Mapping[int, IntegerMatrix] = field(default_factory=dict)


@dataclass(frozen=True)
class BorelMetadata:
    """Tag left on a truncated Borel product so the equivariant bound
    knows the truncation level and which objects form the fiber."""

    levels: int
    fiber_names: tuple[str, ...]


@dataclass(frozen=True)
class FlowCategoryData:
    """A flow category given by explicit chain-level data."""

    ring: CoefficientRing
    objects: Sequence[FlowObject] = field(default_factory=tuple)
    correspondences: Sequence[CorrespondenceMap] = field(default_factory=tuple)
    borel: BorelMetadata | None = None

    def __post_init__(self) -> None:
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            dupe = sorted({n for n in names if names.count(n) > 1})[0]
            raise ValidationError(f"duplicate object name {dupe!r}")
        for o in self.objects:
            if o.chain.ring != self.ring:
                raise UnsupportedRing(
                    f"object {o.name!r} is over {o.chain.ring}, "
                    f"category over {self.ring}")
        by_name = {o.name: o for o in self.objects}
        for c in self.correspondences:
            if c.source not in by_name or c.target not in by_name:
                raise ValidationError(
                    f"correspondence {c.source!r} -> {c.target!r} references "
                    f"a missing object")

    def object(self, name: str) -> FlowObject:
        for o in self.objects:
            if o.name == name:
                return o
        raise KeyError(name)

    def object_names(self) -> list[str]:
        return [o.name for o in self.objects]

    # Realization and verdict are built at most once per category value
    # and shared by validate_category, realize and everything above them.

    @cached_property
    def _realized(self) -> tuple[TwistedComplex, "_PieceLayout"]:
        # only well-formed after the structural checks of _diagnose pass
        return _realize_unchecked(self)

    @cached_property
    def _diagnostics(self) -> "CategoryDiagnostics":
        return _diagnose(self)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CategoryDiagnostics:
    """Structural and Maurer-Cartan audit of a flow category.

    failure_object/failure_degree/failure_generator locate the first
    D.D != 0 witness when the structural checks pass but the induced
    twisted complex is invalid.
    """

    valid: bool
    issues: tuple[str, ...] = ()
    failure_object: str | None = None
    failure_degree: int | None = None
    failure_generator: int | None = None


def validate_category(f: FlowCategoryData) -> CategoryDiagnostics:
    """Check index decrease, block shapes, and the induced D.D = 0.

    Structural problems are all reported at once; the Maurer-Cartan
    audit then runs on the induced twisted complex and translates the
    offending generator back to an object name and local cell index.
    The verdict is computed once per category value.
    """
    return f._diagnostics


def _diagnose(f: FlowCategoryData) -> CategoryDiagnostics:
    issues: list[str] = []
    for c in f.correspondences:
        src = f.object(c.source)
        dst = f.object(c.target)
        if src.index <= dst.index:
            issues.append(
                f"correspondence {c.source!r} -> {c.target!r} does not "
                f"decrease the index ({src.index} <= {dst.index})")
            continue
        shift = src.framing_rank - dst.framing_rank - 1
        for m, blk in c.blocks.items():
            want = (dst.chain.dim(m + shift), src.chain.dim(m))
            if (blk.rows, blk.cols) != want:
                issues.append(
                    f"correspondence {c.source!r} -> {c.target!r} block at "
                    f"degree {m} is {blk.rows}x{blk.cols}, expected "
                    f"{want[0]}x{want[1]}")
    if issues:
        return CategoryDiagnostics(False, tuple(issues))
    t, lay = f._realized
    diag = validate_twisted(t)
    if diag.valid:
        return CategoryDiagnostics(True)
    # translate (piece, local column) back to an object
    piece = diag.failure_piece
    local = diag.failure_generator
    internal = diag.failure_degree - piece
    name, cell = lay.locate(piece, internal, local)
    return CategoryDiagnostics(
        False,
        (f"D.D is nonzero on cell {cell} of object {name!r} "
         f"in total degree {diag.failure_degree}",),
        failure_object=name,
        failure_degree=diag.failure_degree,
        failure_generator=cell,
    )


# ---------------------------------------------------------------------------
# realization


class _PieceLayout:
    """Column bookkeeping for objects packed into twisted pieces.

    Objects of equal index are summed in their declaration order; the
    object's chain enters shifted by r - mu, so chain degree k sits at
    internal degree k + r - mu.
    """

    def __init__(self, f: FlowCategoryData) -> None:
        self.by_index: dict[int, list[FlowObject]] = {}
        for o in f.objects:
            self.by_index.setdefault(o.index, []).append(o)
        self.offsets: dict[tuple[str, int], int] = {}
        self.pieces: dict[int, GradedChainComplex] = {}
        for mu, group in self.by_index.items():
            shifted = [shift_complex(o.chain, o.framing_rank - mu)
                       for o in group]
            lo = min(c.min_degree for c in shifted)
            hi = max(c.max_degree for c in shifted)
            for m in range(lo, hi + 1):
                at = 0
                for o, c in zip(group, shifted):
                    self.offsets[(o.name, m)] = at
                    at += c.dim(m)
            self.pieces[mu] = shifted[0] if len(shifted) == 1 \
                else direct_sum(shifted)

    def internal_degree(self, o: FlowObject, chain_degree: int) -> int:
        return chain_degree + o.framing_rank - o.index

    def locate(self, piece: int, internal: int, column: int,
               ) -> tuple[str, int]:
        """Map a (piece, internal degree, column) back to an object cell."""
        for o in self.by_index.get(piece, []):
            off = self.offsets[(o.name, internal)]
            dim = o.chain.dim(internal - o.framing_rank + o.index)
            if off <= column < off + dim:
                return o.name, column - off
        raise ShapeMismatch(
            f"column {column} not found in piece {piece} degree {internal}")


def _realize_unchecked(f: FlowCategoryData,
                       ) -> tuple[TwistedComplex, _PieceLayout]:
    lay = _PieceLayout(f)
    by_name = {o.name: o for o in f.objects}
    placed: dict[tuple[int, int, int], list] = {}
    for c in f.correspondences:
        src = by_name[c.source]
        dst = by_name[c.target]
        shift = src.framing_rank - dst.framing_rank - 1
        for m, blk in c.blocks.items():
            if blk.is_zero():
                continue
            mm = lay.internal_degree(src, m)
            tm = lay.internal_degree(dst, m + shift)
            placed.setdefault((src.index, dst.index, mm), []).append(
                (lay.offsets[(dst.name, tm)], lay.offsets[(src.name, mm)],
                 blk))
    structure = place_piece_blocks(placed, lay.pieces, lay.pieces, -1)
    return twisted_from_parts(f.ring, lay.pieces, structure), lay


def _orientation_gate(f: FlowCategoryData, require_all: bool = False) -> None:
    if f.ring.is_field and f.ring.p == 2:
        return
    for o in f.objects:
        if o.orientable_flag:
            continue
        if require_all or o.framing_rank != 0:
            raise OrientationRequired(
                f"object {o.name!r} is not marked orientable; its Thom "
                f"shift is undefined over {f.ring}")


def realize(f: FlowCategoryData) -> TwistedComplex:
    """The chain shadow of the geometric realization.

    Piece mu is the sum of C(X) over objects with index mu, each
    shifted by r - mu; correspondence blocks become structure maps. A
    generator in C(X)_k therefore contributes in total degree k + r.
    Away from characteristic 2, a nonzero framing rank on an object not
    marked orientable raises OrientationRequired.
    """
    diag = validate_category(f)
    if not diag.valid:
        raise ValidationError(diag.issues[0])
    _orientation_gate(f)
    return f._realized[0]


def category_homology(f: FlowCategoryData) -> HomologySummary:
    return homology(totalize(realize(f)))


def category_euler_characteristic(f: FlowCategoryData) -> int:
    """Alternating sum (-1)^r chi(X) over objects, matching chi(Tot)."""
    total = 0
    for o in f.objects:
        chi = sum((-1) ** n * o.chain.dim(n) for n in o.chain.degrees())
        total += (-1) ** o.framing_rank * chi
    return total


# ---------------------------------------------------------------------------
# inclusion / quotient


def include_and_quotient(f: FlowCategoryData, subset: Sequence[str],
                         ) -> tuple[FlowCategoryData, FlowCategoryData]:
    """Split a category along a downward-closed set of objects.

    Every correspondence leaving a subset member must land in the
    subset (the chain-level inclusion condition); otherwise
    NotDownwardClosed reports a witness. Realization commutes with the
    split: when the subset is an index cut this is asserted as exact
    equality of twisted complexes, and degreewise dimension additivity
    is asserted in general.
    """
    wanted = set(subset)
    missing = wanted - set(f.object_names())
    if missing:
        raise ValidationError(f"unknown object {sorted(missing)[0]!r}")
    for c in f.correspondences:
        if c.source in wanted and c.target not in wanted:
            raise NotDownwardClosed(
                f"correspondence {c.source!r} -> {c.target!r} leaves the "
                f"subset")
    sub = FlowCategoryData(
        f.ring,
        tuple(o for o in f.objects if o.name in wanted),
        tuple(c for c in f.correspondences if c.source in wanted),
    )
    quot = FlowCategoryData(
        f.ring,
        tuple(o for o in f.objects if o.name not in wanted),
        tuple(c for c in f.correspondences if c.source not in wanted
              and c.target not in wanted),
    )
    _assert_split_commutes(f, sub, quot)
    return sub, quot


def _assert_split_commutes(f: FlowCategoryData, sub: FlowCategoryData,
                           quot: FlowCategoryData) -> None:
    whole, t_sub, t_quot = (totalize(realize(c)).rank if c.objects else {}
                            for c in (f, sub, quot))
    for n in set(whole) | set(t_sub) | set(t_quot):
        if whole.get(n, 0) != t_sub.get(n, 0) + t_quot.get(n, 0):
            raise InvariantViolation(
                f"realization does not commute with the split in degree {n}")
    # index cut: the split agrees with the twisted-level quotient exactly
    sub_idx = {o.index for o in sub.objects}
    quot_idx = {o.index for o in quot.objects}
    if sub_idx and quot_idx and max(sub_idx) < min(quot_idx):
        cut = max(sub_idx)
        qs = quotient_sequence(realize(f), cut)
        if qs.sub != realize(sub) or qs.quotient != realize(quot):
            raise InvariantViolation(
                "index-cut split disagrees with the twisted quotient")


# ---------------------------------------------------------------------------
# shift and dual


def category_with_ring(f: FlowCategoryData, ring: CoefficientRing,
                       ) -> FlowCategoryData:
    """The same combinatorial data over another coefficient ring.

    Correspondence blocks are integer matrices and carry over as they
    are; chains are re-validated over the new ring.
    """
    objects = tuple(replace(o, chain=o.chain.with_ring(ring))
                    for o in f.objects)
    return FlowCategoryData(ring, objects, tuple(f.correspondences), f.borel)


def shift_category(f: FlowCategoryData, a: int) -> FlowCategoryData:
    """Translate every index by a, reindexing the framing family.

    The framing rank of each object is untouched (the shifted family
    V'_i = V_{i-a} assigns each object the bundle it already had), so
    generators keep their total degree and H(Tot) is unchanged; the
    realization of the shifted category is exactly the shifted
    realization.
    """
    objects = tuple(replace(o, index=o.index + a) for o in f.objects)
    return FlowCategoryData(f.ring, objects, tuple(f.correspondences),
                            f.borel)


def dualize(f: FlowCategoryData) -> FlowCategoryData:
    """The chain-level Atiyah dual: reversed arrows, transposed blocks.

    Object X becomes X with index -mu and framing rank -(r + d) where d
    is the top degree of its chain; the chain is replaced by its linear
    dual laid out on [0, d]. Correspondences reverse direction and
    transpose degreewise; the framing-rank formula is the unique choice
    making those transposed blocks well-shaped, and it makes dualize an
    involution on the nose. Over any ring away from characteristic 2
    every object must be marked orientable.
    """
    _orientation_gate(f, require_all=True)
    objects = []
    for o in f.objects:
        d = o.top_degree()
        dual_chain = shift_complex(dual_complex(o.chain), d)
        objects.append(FlowObject(
            name=o.name,
            index=-o.index,
            framing_rank=-(o.framing_rank + d),
            chain=dual_chain,
            orientable_flag=o.orientable_flag,
        ))
    by_name = {o.name: o for o in f.objects}
    corrs = []
    for c in f.correspondences:
        src = by_name[c.source]
        dst = by_name[c.target]
        shift = src.framing_rank - dst.framing_rank - 1
        blocks = {}
        for m, blk in c.blocks.items():
            k = dst.top_degree() - (m + shift)
            blocks[k] = blk.transpose()
        corrs.append(CorrespondenceMap(c.target, c.source, blocks))
    return FlowCategoryData(f.ring, tuple(objects), tuple(corrs))


# ---------------------------------------------------------------------------
# bimodules


@dataclass(frozen=True)
class BimoduleData:
    """Chain-level monotone bimodule from source to target.

    blocks[(x, y)][m] maps C(x)_m to C(y)_{m + r_x - r_y}, allowed only
    when mu(x) >= mu(y). The assembled map on realizations must be a
    chain map; bimodule_to_map verifies this.
    """

    source: FlowCategoryData
    target: FlowCategoryData
    blocks: Mapping[tuple[str, str], Mapping[int, IntegerMatrix]] = \
        field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.source.ring != self.target.ring:
            raise UnsupportedRing("bimodule between different rings")
        for (xn, yn), fam in self.blocks.items():
            x = self.source.object(xn)
            y = self.target.object(yn)
            if x.index < y.index:
                raise ShapeMismatch(
                    f"bimodule block {xn!r} -> {yn!r} is not monotone "
                    f"({x.index} < {y.index})")
            shift = x.framing_rank - y.framing_rank
            for m, blk in fam.items():
                want = (y.chain.dim(m + shift), x.chain.dim(m))
                if (blk.rows, blk.cols) != want:
                    raise ShapeMismatch(
                        f"bimodule block {xn!r} -> {yn!r} at degree {m} is "
                        f"{blk.rows}x{blk.cols}, expected "
                        f"{want[0]}x{want[1]}")


def bimodule_to_map(b: BimoduleData) -> TwistedMorphism:
    """Assemble the chain map induced by a monotone bimodule.

    The construction also builds the cone flow category (source objects
    re-entering one index and one framing rank up, with negated
    differentials and correspondences, bimodule blocks as new
    correspondences) and asserts that its realization is exactly the
    twisted mapping cone of the returned morphism.
    """
    src_t = realize(b.source)
    dst_t = realize(b.target)
    src_lay = b.source._realized[1]
    dst_lay = b.target._realized[1]
    placed: dict[tuple[int, int, int], list] = {}
    for (xn, yn), fam in b.blocks.items():
        x = b.source.object(xn)
        y = b.target.object(yn)
        shift = x.framing_rank - y.framing_rank
        for m, blk in fam.items():
            if blk.is_zero():
                continue
            mm = src_lay.internal_degree(x, m)
            tm = dst_lay.internal_degree(y, m + shift)
            placed.setdefault((x.index, y.index, mm), []).append(
                (dst_lay.offsets[(yn, tm)], src_lay.offsets[(xn, mm)], blk))
    blocks = place_piece_blocks(placed, src_lay.pieces, dst_lay.pieces, 0)
    morphism = TwistedMorphism(src_t, dst_t, blocks)
    cone_cat = _cone_category(b)
    if realize(cone_cat) != cone(morphism):
        raise InvariantViolation(
            "cone category realization disagrees with the twisted cone")
    return morphism


def _fresh_suffix(taken: set[str], name: str) -> str:
    out = name + "+"
    while out in taken:
        out += "+"
    return out


def _cone_category(b: BimoduleData) -> FlowCategoryData:
    """The partial category on target objects plus suspended source
    objects, whose realization is the mapping cone."""
    taken = set(b.target.object_names())
    rename = {}
    for o in b.source.objects:
        rename[o.name] = _fresh_suffix(taken, o.name)
        taken.add(rename[o.name])
    objects = list(b.target.objects)
    for o in b.source.objects:
        objects.append(FlowObject(
            name=rename[o.name],
            index=o.index + 1,
            framing_rank=o.framing_rank + 1,
            chain=negate_complex(o.chain),
            orientable_flag=o.orientable_flag,
        ))
    corrs = list(b.target.correspondences)
    for c in b.source.correspondences:
        corrs.append(CorrespondenceMap(
            rename[c.source], rename[c.target],
            {m: -blk for m, blk in c.blocks.items()}))
    for (xn, yn), fam in b.blocks.items():
        corrs.append(CorrespondenceMap(rename[xn], yn, dict(fam)))
    return FlowCategoryData(b.source.ring, tuple(objects), tuple(corrs))


# ---------------------------------------------------------------------------
# relative modules


@dataclass(frozen=True)
class RelativeModuleData:
    """A module over the category with values in a fixed space P.

    blocks[x][m] maps C(x)_m to C(P)_{m + r_x - twist_rank}; the
    assembled map lands in C(P) shifted by twist_rank and must be a
    chain map on the totalization.
    """

    base: FlowCategoryData
    target_space_chain: GradedChainComplex
    twist_rank: int
    blocks: Mapping[str, Mapping[int, IntegerMatrix]] = \
        field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.target_space_chain.ring != self.base.ring:
            raise UnsupportedRing("relative module over a different ring")
        for xn, fam in self.blocks.items():
            x = self.base.object(xn)
            shift = x.framing_rank - self.twist_rank
            for m, blk in fam.items():
                want = (self.target_space_chain.dim(m + shift),
                        x.chain.dim(m))
                if (blk.rows, blk.cols) != want:
                    raise ShapeMismatch(
                        f"relative block for {xn!r} at degree {m} is "
                        f"{blk.rows}x{blk.cols}, expected "
                        f"{want[0]}x{want[1]}")


@dataclass(frozen=True)
class RelativeMapResult:
    """The assembled map to the shifted target space, with verdicts.

    quasi_isomorphism is decided by acyclicity of the mapping cone, so
    it accounts for torsion over Z, not just ranks.
    """

    morphism: TwistedMorphism
    source_homology: HomologySummary
    target_homology: HomologySummary
    quasi_isomorphism: bool


def relative_map(rm: RelativeModuleData) -> RelativeMapResult:
    """Assemble Tot(realize(base)) -> C(P)[twist_rank] and test it.

    The target is modeled as a one-piece twisted complex so the cone
    machinery applies; a generator of C(P)_j sits in total degree
    j + twist_rank.
    """
    src_t = realize(rm.base)
    src_lay = rm.base._realized[1]
    base_index = min([0] + [o.index for o in rm.base.objects])
    piece = shift_complex(rm.target_space_chain,
                          rm.twist_rank - base_index)
    dst_t = twisted_from_parts(rm.base.ring, {base_index: piece}, {})
    # C(P)_{m + r_x - twist_rank} sits at piece degree mm + i - base_index,
    # where mm is the internal degree of C(x)_m in piece i
    placed: dict[tuple[int, int, int], list] = {}
    for xn, fam in rm.blocks.items():
        x = rm.base.object(xn)
        for m, blk in fam.items():
            if blk.is_zero():
                continue
            mm = src_lay.internal_degree(x, m)
            placed.setdefault((x.index, base_index, mm), []).append(
                (0, src_lay.offsets[(xn, mm)], blk))
    blocks = place_piece_blocks(placed, src_lay.pieces, {base_index: piece},
                                0)
    morphism = TwistedMorphism(src_t, dst_t, blocks)
    cone_h = homology(totalize(cone(morphism)))
    return RelativeMapResult(
        morphism=morphism,
        source_homology=homology(totalize(src_t)),
        target_homology=homology(totalize(dst_t)),
        quasi_isomorphism=cone_h.is_trivial(),
    )
