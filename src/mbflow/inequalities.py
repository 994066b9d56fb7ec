"""Morse-Bott inequality reports, plain and equivariant.

The plain bound compares the Poincare polynomial of the realization
with the framing-shifted sum over objects, in the (1+t)-partial-order;
the equivariant bound is a degreewise rank comparison against the
levelwise fiber count, valid only inside the truncation's stability
range.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import (
    CutoffBeyondStabilityRange,
    InvalidRange,
    InvariantViolation,
    ValidationError,
)
from .flowcat import FlowCategoryData, realize
from .homalg import LaurentPoly, digits, dim_t, homology, preceq
from .twisted import TwistedComplex, totalize


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of a Morse-Bott bound.

    mode is "partial_order" (mb_inequality, twisted_inequality) or
    "equivariant" (equivariant_inequality). In partial_order mode the
    bound always holds and witness is the nonnegative A with
    rhs - lhs = (1+t)A: the index-filtration spectral sequence proves
    this for every valid twisted complex, so a failing verdict is a
    fault and raises InvariantViolation. In equivariant mode the bound
    is lhs <= rhs coefficientwise up to the cutoff, and witness is the
    slack rhs - lhs; failure_degree locates the first violated degree
    when that bound fails, the only report that has one. So the bound
    holds exactly when failure_degree is None.
    """

    mode: str
    lhs: LaurentPoly
    rhs: LaurentPoly
    witness: LaurentPoly | None = None
    failure_degree: int | None = None

    @property
    def holds(self) -> bool:
        return self.failure_degree is None

    def is_equality(self) -> bool:
        return self.holds and (self.witness is None or self.witness.is_zero())


def _partial_order_report(lhs: LaurentPoly, rhs: LaurentPoly,
                          ) -> InequalityReport:
    verdict = preceq(lhs, rhs)
    if not verdict.holds:  # a theorem fails: see InequalityReport
        raise InvariantViolation(
            f"Morse-Bott bound fails in degree "
            f"{digits(verdict.failing_degree)}, which the spectral "
            f"sequence rules out")
    # the (1+t)-order is stronger than the degreewise rank bound
    if not (rhs - lhs).is_nonnegative():
        raise InvariantViolation(
            "partial-order verdict without the degreewise rank bound")
    return InequalityReport("partial_order", lhs, rhs,
                            witness=verdict.witness)


def mb_inequality(f: FlowCategoryData) -> InequalityReport:
    """dim_t H(Tot) against sum of t^r dim_t H(X) in the (1+t)-order.

    Piece i of the realization sums C(X)[r_X - i] over the objects of
    index i, so this is twisted_inequality(realize(f)). Equality
    (witness 0) certifies a perfect Morse-Bott situation. Raises
    OrientationRequired away from characteristic 2 when a twisted
    object is not marked orientable.
    """
    return twisted_inequality(realize(f))


def twisted_inequality(t: TwistedComplex) -> InequalityReport:
    """The same bound one level down: pieces in place of objects."""
    lhs = dim_t(homology(totalize(t)))
    rhs = LaurentPoly.zero()
    for i in t.indices():
        rhs = rhs + LaurentPoly.t_power(i) * dim_t(homology(t.piece(i)))
    return _partial_order_report(lhs, rhs)


def _truncate(p: LaurentPoly, hi: int) -> LaurentPoly:
    return LaurentPoly.from_coeffs(
        {e: c for e, c in p.coeffs.items() if e <= hi})


def equivariant_inequality(b: FlowCategoryData, cutoff: int,
                           ) -> InequalityReport:
    """Degreewise rank bound for a truncated Borel product.

    Up to the cutoff, the rank of H_d(Tot) is compared with the count
    sum over levels k and fiber objects x of rk H_{d-2k-r_x}(C(x)).
    The truncation at level N only computes equivariant homology below
    degree 2N, so cutoffs past 2N-1 are refused. Both sides are read
    from the degrees they store: each stored degree n of H(C(x)) counts
    at n + r_x + 2k for k = 0..N, where that lies in [0, cutoff], and
    the first failure is the least stored degree of the left-hand side
    in [0, cutoff] whose rank exceeds the count, as the right-hand side
    is never negative. The Borel metadata is
    checked against the objects first: N >= 0, distinct fiber names, and
    an object <x>@<k> for every fiber name x and every level k <= N.
    """
    if b.borel is None:
        raise ValidationError(
            "equivariant bound needs a category built by borel_product")
    _check_borel(b)
    if cutoff < 0:
        raise InvalidRange(f"cutoff must be nonnegative, got {cutoff}")
    levels = b.borel.levels
    if cutoff > 2 * levels - 1:
        raise CutoffBeyondStabilityRange(
            f"cutoff {cutoff} exceeds the stability range "
            f"{2 * levels - 1} of the level-{levels} truncation")
    h = homology(totalize(realize(b)))
    lhs = _truncate(dim_t(h), cutoff)
    fiber = [b.object(f"{name}@0") for name in b.borel.fiber_names]
    fiber_h = [(x.framing_rank, homology(x.chain)) for x in fiber]
    rhs_coeffs: Counter[int] = Counter()
    for r, hx in fiber_h:
        for n, rank in hx.free.items():
            for d in range(n + r, n + r + 2 * levels + 1, 2):
                if 0 <= d <= cutoff:
                    rhs_coeffs[d] += rank
    rhs = LaurentPoly.from_coeffs(rhs_coeffs)
    for d in lhs.support():
        if d >= 0 and lhs.coefficient(d) > rhs.coefficient(d):
            return InequalityReport("equivariant", lhs, rhs,
                                    failure_degree=d)
    return InequalityReport("equivariant", lhs, rhs, witness=rhs - lhs)


def _check_borel(b: FlowCategoryData) -> None:
    """Raise ValidationError unless b.borel describes b's objects."""
    levels, names = b.borel.levels, b.borel.fiber_names
    if levels < 0:
        raise ValidationError(
            f"borel levels must be nonnegative, got {digits(levels)}")
    repeated = next((x for x, k in Counter(names).items() if k > 1), None)
    if repeated is not None:
        raise ValidationError(f"borel fiber name {repeated!r} is repeated")
    have = set(b.object_names())
    for x in names:
        # the first missing level raises, so a huge levels costs at most
        # one step per object
        for name in (f"{x}@{k}" for k in range(levels + 1)):
            if name not in have:
                raise ValidationError(
                    f"borel fiber {x!r} has no object {name!r}, although "
                    f"levels is {digits(levels)}")
