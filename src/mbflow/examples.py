"""Fixture builders: Morse and Morse-Bott categories on standard
manifolds, Schubert index enumeration, and truncated Borel products.

Chain-level correspondence blocks carry signs that no geometric input
determines here; every nontrivial block was fixed offline by solving
D.D = 0 against the expected homology and is certified by the oracle
tests. The builders are pure, deterministic functions that take their
inputs as plain arguments, as morse_category(points, counts) and
borel_product(levels, fiber) do.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping

from .errors import (
    DifferentialSquaredNonzero,
    InvalidRange,
    InvariantViolation,
    ValidationError,
)
from .flowcat import (
    BimoduleData,
    BorelMetadata,
    CorrespondenceMap,
    FlowCategoryData,
    FlowObject,
    validate_category,
)
from .homalg import (
    CoefficientRing,
    IntegerMatrix,
    ZZ,
    complex_from_ranks,
)
from .twisted import (
    HomotopySquareWitness,
    TwistedMorphism,
    identity_morphism,
    twisted_from_parts,
)


def _point(ring: CoefficientRing):
    return complex_from_ranks(ring, {0: 1})


def _circle(ring: CoefficientRing):
    return complex_from_ranks(ring, {0: 1, 1: 1})


# ---------------------------------------------------------------------------
# Morse categories


def morse_category(points: tuple[tuple[str, int], ...],
                   counts: Mapping[tuple[str, str], int] | None = None,
                   ring: CoefficientRing = ZZ) -> FlowCategoryData:
    """Flow category of a Morse function: point objects with r = mu.

    points are the critical points with their indices; counts[(a, b)]
    is the signed number of rigid trajectories from a down to b, and
    only index differences of exactly one are allowed. The counts become
    1x1 correspondence blocks in the unique allowed degree; the induced
    differential must square to zero.
    """
    counts = counts or {}
    index = dict(points)
    for (a, b), _ in counts.items():
        if a not in index or b not in index:
            raise ValidationError(f"count for unknown point {a!r} or {b!r}")
        if index[a] != index[b] + 1:
            raise ValidationError(
                f"count {a!r} -> {b!r} does not drop the index by one")
    objects = tuple(FlowObject(name, mu, mu, _point(ring))
                    for name, mu in points)
    corrs = tuple(
        CorrespondenceMap(a, b, {0: IntegerMatrix(1, 1, {(0, 0): c})})
        for (a, b), c in counts.items() if c != 0)
    out = FlowCategoryData(ring, objects, corrs)
    diag = validate_category(out)
    if not diag.valid:
        raise DifferentialSquaredNonzero(diag.issues[0])
    return out


# ---------------------------------------------------------------------------
# standard manifolds


def s2_two_point(ring: CoefficientRing = ZZ) -> FlowCategoryData:
    """Perfect Morse function on S^2: a minimum and a maximum."""
    return morse_category((("a", 0), ("b", 2)), ring=ring)


def sphere_z2(ring: CoefficientRing = ZZ) -> FlowCategoryData:
    """Height-squared function on S^2: an equator circle of minima and
    the two poles, with opposite-sign trajectory families."""
    return FlowCategoryData(
        ring,
        (
            FlowObject("eq", 0, 0, _circle(ring)),
            FlowObject("n", 2, 2, _point(ring)),
            FlowObject("s", 2, 2, _point(ring)),
        ),
        (
            CorrespondenceMap("n", "eq", {0: IntegerMatrix(1, 1, {(0, 0): 1})}),
            CorrespondenceMap("s", "eq",
                              {0: IntegerMatrix(1, 1, {(0, 0): -1})}),
        ),
    )


def torus_flat(ring: CoefficientRing = ZZ) -> FlowCategoryData:
    """Flat T^2 fibered in circles: two circle objects, no rigid
    trajectories."""
    return FlowCategoryData(ring, (
        FlowObject("bot", 0, 0, _circle(ring)),
        FlowObject("top", 1, 1, _circle(ring)),
    ))


def rp2(ring: CoefficientRing = ZZ) -> FlowCategoryData:
    """Standard Morse function on RP^2: counts 2 and 0."""
    return morse_category((("e0", 0), ("e1", 1), ("e2", 2)),
                          {("e2", "e1"): 2, ("e1", "e0"): 0}, ring)


def cpn_act(n: int, ring: CoefficientRing = ZZ) -> FlowCategoryData:
    """CP^n with the action-ordered index: n+1 points, framing 2i.

    Consecutive action indices differ by one while total degrees jump
    by two, so every correspondence block is forced empty.
    """
    if n < 0:
        raise InvalidRange(f"cpn_act needs n >= 0, got {n}")
    return FlowCategoryData(ring, tuple(
        FlowObject(f"c{i}", i, 2 * i, _point(ring)) for i in range(n + 1)))


def broken_mc(ring: CoefficientRing = ZZ) -> FlowCategoryData:
    """Deliberately inconsistent Morse data: counts 1 and 1 compose to
    a nonzero D.D, for exercising validation paths."""
    return FlowCategoryData(
        ring,
        (
            FlowObject("e0", 0, 0, _point(ring)),
            FlowObject("e1", 1, 1, _point(ring)),
            FlowObject("e2", 2, 2, _point(ring)),
        ),
        (
            CorrespondenceMap("e2", "e1", {0: IntegerMatrix(1, 1, {(0, 0): 1})}),
            CorrespondenceMap("e1", "e0", {0: IntegerMatrix(1, 1, {(0, 0): 1})}),
        ),
    )


# ---------------------------------------------------------------------------
# Schubert indices


def schubert_indices(k: int, n: int, doubled: bool = False,
                     ) -> tuple[int, ...]:
    """Indices of the Schubert critical points of the Grassmannian
    Gr(k, n), one per k-subset {i_1 < ... < i_k} of {1..n}.

    The index of a subset is sum(i_m - m); the generating polynomial of
    the multiset is the Gaussian binomial coefficient. doubled=True
    returns twice each value (complex instead of real cell dimension;
    neither convention is canonical).

    >>> schubert_indices(2, 4)
    (0, 1, 2, 2, 3, 4)
    >>> schubert_indices(4, 4)
    (0,)
    >>> schubert_indices(1, 4, doubled=True)
    (0, 2, 4, 6)
    """
    if not 1 <= k <= n:
        raise InvalidRange(f"need 1 <= k <= n, got k={k}, n={n}")
    out = []
    for subset in itertools.combinations(range(1, n + 1), k):
        v = sum(i - m for m, i in enumerate(subset, start=1))
        out.append(2 * v if doubled else v)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# circle models and Borel products


def cp_circle_model(levels: int, ring: CoefficientRing = ZZ,
                    ) -> FlowCategoryData:
    """The S^1-family model of S^{2N+1} over CP^N: one circle object
    per level, framing 2k, linked by degree-1 maps.

    The links pair the bottom cell of each circle with the top cell one
    level down, leaving H = H(S^{2N+1}).
    """
    if levels < 0:
        raise InvalidRange(f"cp_circle_model needs N >= 0, got {levels}")
    objects = tuple(FlowObject(f"orbit{k}", 2 * k, 2 * k, _circle(ring))
                    for k in range(levels + 1))
    corrs = tuple(
        CorrespondenceMap(f"orbit{k}", f"orbit{k - 1}",
                          {0: IntegerMatrix(1, 1, {(0, 0): 1})})
        for k in range(1, levels + 1))
    return FlowCategoryData(ring, objects, corrs)


def _default_link(o: FlowObject) -> dict[int, IntegerMatrix]:
    lo, hi = o.chain.dim(0), o.chain.dim(1)
    if lo and hi:
        return {0: IntegerMatrix(hi, lo, {(0, 0): 1})}
    return {}


def borel_product(levels: int, fiber: FlowCategoryData,
                  level_links: Mapping[str, Mapping[int, IntegerMatrix]]
                  | None = None) -> FlowCategoryData:
    """The finite Borel approximation: fiber data replicated over the
    cells of CP^N (N = levels) with index-2 jumps.

    fiber is the critical data of the invariant function upstairs (a
    free orbit appears as a circle object, a fixed point as a point
    object). Object (k, x) sits at index and framing 2k above x with the
    same chain; fiber correspondences recur levelwise and the level
    links model multiplication by the degree-2 generator. level_links,
    keyed by fiber object name, overrides the degree-1 blocks linking
    level k to level k-1; the default pairs the bottom cell with the
    cell above it and vanishes on point objects. The result carries
    metadata for the equivariant rank bound.
    """
    if levels < 0:
        raise InvalidRange(f"borel_product needs N >= 0, got {levels}")
    objects = []
    corrs = []
    for k in range(levels + 1):
        for o in fiber.objects:
            objects.append(FlowObject(
                f"{o.name}@{k}", o.index + 2 * k, o.framing_rank + 2 * k,
                o.chain, o.orientable_flag))
        for c in fiber.correspondences:
            corrs.append(CorrespondenceMap(
                f"{c.source}@{k}", f"{c.target}@{k}", dict(c.blocks)))
    for k in range(1, levels + 1):
        for o in fiber.objects:
            link = _default_link(o) if level_links is None \
                else dict(level_links.get(o.name, {}))
            link = {m: blk for m, blk in link.items() if not blk.is_zero()}
            if link:
                corrs.append(CorrespondenceMap(
                    f"{o.name}@{k}", f"{o.name}@{k - 1}", link))
    out = FlowCategoryData(
        fiber.ring, tuple(objects), tuple(corrs),
        borel=BorelMetadata(levels, tuple(o.name for o in fiber.objects)))
    diag = validate_category(out)
    if not diag.valid:
        raise InvariantViolation(diag.issues[0])
    return out


def free_circle_borel(levels: int, ring: CoefficientRing = ZZ,
                      ) -> FlowCategoryData:
    """Borel model of the free rotation of S^1 on itself: one orbit
    circle, totalizing to S^{2N+1}."""
    fiber = FlowCategoryData(ring, (FlowObject("orbit", 0, 0, _circle(ring)),))
    return borel_product(levels, fiber)


def s2_rotation_borel(levels: int, ring: CoefficientRing = ZZ,
                      ) -> FlowCategoryData:
    """Borel model of S^2 rotating about its axis: the two fixed poles
    each sweep out a CP^N worth of cells."""
    fiber = FlowCategoryData(ring, (
        FlowObject("n", 0, 0, _point(ring)),
        FlowObject("s", 2, 2, _point(ring)),
    ))
    return borel_product(levels, fiber)


# ---------------------------------------------------------------------------
# bimodule and homotopy fixtures


def continuation_s2(ring: CoefficientRing = ZZ) -> BimoduleData:
    """Continuation data from the two-point S^2 model to the equator
    model: the maximum maps to both poles, inducing an isomorphism on
    homology."""
    one = IntegerMatrix(1, 1, {(0, 0): 1})
    return BimoduleData(
        source=s2_two_point(ring),
        target=sphere_z2(ring),
        blocks={
            ("a", "eq"): {0: one},
            ("b", "n"): {0: one},
            ("b", "s"): {0: one},
        },
    )


def homotopy_square_fixture(ring: CoefficientRing = ZZ,
                            perturbed: bool = False) -> HomotopySquareWitness:
    """A hand-certified homotopy-commuting square on a corner complex.

    Identity maps on three edges; the fourth is id - phi for the chain
    morphism phi sending the index-1 generator into the top cell below.
    The diagonal H: b0 -> b1 satisfies DH + HD = phi; with
    perturbed=True its sign is flipped and verification must fail.
    """
    two = complex_from_ranks(ring, {0: 1, 1: 1})
    one = IntegerMatrix(1, 1, {(0, 0): 1})
    t = twisted_from_parts(ring, {1: _point(ring), 0: two},
                           {(1, 0): {0: one}})
    ident = identity_morphism(t)
    c34 = TwistedMorphism(t, t, {
        **ident.blocks, (1, 0): {0: -one}})
    sign = -1 if perturbed else 1
    witness = {(0, 0): {0: IntegerMatrix(1, 1, {(0, 0): sign})}}
    return HomotopySquareWitness(ident, ident, ident, c34, witness)


# ---------------------------------------------------------------------------
# registry


def fixture_registry() -> dict[str, Callable[..., FlowCategoryData]]:
    """Named builders for every shipped category fixture, including the
    deliberately broken one; each takes an optional ring, Z by default."""
    return {
        "s2_two_point": s2_two_point,
        "sphere_z2": sphere_z2,
        "torus_flat": torus_flat,
        "rp2": rp2,
        "cpn_act_2": lambda ring=ZZ: cpn_act(2, ring),
        "cp_circle_2": lambda ring=ZZ: cp_circle_model(2, ring),
        "borel_free_circle_3": lambda ring=ZZ: free_circle_borel(3, ring),
        "borel_s2_rotation_3": lambda ring=ZZ: s2_rotation_borel(3, ring),
        "broken_mc": broken_mc,
    }


def standard_fixtures(ring: CoefficientRing = ZZ,
                      ) -> tuple[tuple[str, FlowCategoryData], ...]:
    """The valid fixtures over ring, in registry order, for property
    tests quantified over all of them."""
    return tuple((name, build(ring)) for name, build
                 in fixture_registry().items() if name != "broken_mc")
