"""Morse-Bott inequality reports, plain and equivariant.

The plain bound compares the Poincare polynomial of the realization
with the framing-shifted sum over objects, in the (1+t)-partial-order;
the equivariant bound is a degreewise rank comparison against the
levelwise fiber count, valid only inside the truncation's stability
range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CutoffBeyondStabilityRange,
    InvalidRange,
    InvariantViolation,
    ValidationError,
)
from .flowcat import FlowCategoryData, realize
from .homalg import LaurentPoly, dim_t, homology, preceq
from .twisted import TwistedComplex, totalize


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of a Morse-Bott bound.

    In partial_order mode, holds means preceq(lhs, rhs) and witness is
    the nonnegative A with rhs - lhs = (1+t)A; in rank_bound and
    equivariant modes, holds means lhs <= rhs coefficientwise and
    witness is the slack rhs - lhs. failure_degree locates the first
    violated degree when the bound fails.
    """

    mode: str
    lhs: LaurentPoly
    rhs: LaurentPoly
    holds: bool
    witness: LaurentPoly | None = None
    failure_degree: int | None = None

    def is_equality(self) -> bool:
        return self.holds and (self.witness is None or self.witness.is_zero())


def _partial_order_report(lhs: LaurentPoly, rhs: LaurentPoly,
                          ) -> InequalityReport:
    verdict = preceq(lhs, rhs)
    if verdict.holds:
        # the (1+t)-order is stronger than the degreewise rank bound
        if not (rhs - lhs).is_nonnegative():
            raise InvariantViolation(
                "partial-order verdict without the degreewise rank bound")
        return InequalityReport("partial_order", lhs, rhs, True,
                                witness=verdict.witness)
    return InequalityReport("partial_order", lhs, rhs, False,
                            failure_degree=verdict.failing_degree)


def mb_inequality(f: FlowCategoryData) -> InequalityReport:
    """dim_t H(Tot) against sum of t^r dim_t H(X) in the (1+t)-order.

    Equality (witness 0) certifies a perfect Morse-Bott situation.
    Raises OrientationRequired away from characteristic 2 when a
    twisted object is not marked orientable.
    """
    lhs = dim_t(homology(totalize(realize(f))))
    rhs = LaurentPoly.zero()
    for o in f.objects:
        rhs = rhs + LaurentPoly.t_power(o.framing_rank) * \
            dim_t(homology(o.chain))
    return _partial_order_report(lhs, rhs)


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
    degree 2N, so cutoffs past 2N-1 are refused.
    """
    if b.borel is None:
        raise ValidationError(
            "equivariant bound needs a category built by borel_product")
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
