"""Morse-Bott bounds on the fixtures and on random twisted complexes."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mbflow.errors import (
    CutoffBeyondStabilityRange,
    InvalidRange,
    InvariantViolation,
    OrientationRequired,
    ValidationError,
)
from mbflow.examples import (
    borel_product,
    free_circle_borel,
    s2_rotation_borel,
    sphere_z2,
    standard_fixtures,
    torus_flat,
)
from mbflow import inequalities
from mbflow.flowcat import (
    BorelMetadata,
    FlowCategoryData,
    FlowObject,
    realize,
)
from mbflow.homalg import (
    F2,
    ZZ,
    LaurentPoly,
    PreceqVerdict,
    complex_from_ranks,
)
from mbflow.inequalities import (
    equivariant_inequality,
    mb_inequality,
    twisted_inequality,
)

from support import (
    grid_equivariant_inequality,
    point_complex,
    random_integral_complex,
    random_twisted,
)


def poly(coeffs):
    return LaurentPoly.from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# plain bound


def test_torus_flat_is_perfect():
    rep = mb_inequality(torus_flat())
    assert rep.mode == "partial_order"
    assert rep.holds
    assert rep.lhs == rep.rhs == poly({0: 1, 1: 2, 2: 1})
    assert rep.is_equality()


def test_sphere_z2_witness_is_t():
    rep = mb_inequality(sphere_z2())
    assert rep.holds
    assert rep.lhs == poly({0: 1, 2: 1})
    assert rep.rhs == poly({0: 1, 1: 1, 2: 2})
    assert rep.witness == poly({1: 1})
    assert not rep.is_equality()


def test_single_object_equality():
    f = FlowCategoryData(ZZ, (FlowObject(
        "x", 3, 5, complex_from_ranks(ZZ, {0: 2, 1: 1})),))
    rep = mb_inequality(f)
    assert rep.is_equality()
    assert rep.lhs == poly({5: 2, 6: 1})


def test_bound_holds_on_all_fixtures():
    for name, f in standard_fixtures():
        rep = mb_inequality(f)
        assert rep.holds, name


def test_bound_holds_on_fixtures_mod_2():
    for name, f in standard_fixtures(F2):
        assert mb_inequality(f).holds, name


def test_orientation_propagates():
    f = FlowCategoryData(ZZ, (FlowObject(
        "x", 1, 1, point_complex(ZZ), orientable_flag=False),))
    with pytest.raises(OrientationRequired):
        mb_inequality(f)


def test_random_twisted_bound_never_fails():
    rng = random.Random(20240817)
    for _ in range(120):
        t = random_twisted(rng, F2)
        rep = twisted_inequality(t)
        assert rep.holds
        assert rep.lhs.evaluate(-1) == rep.rhs.evaluate(-1)


def test_random_twisted_bound_over_z():
    rng = random.Random(97)
    for _ in range(40):
        t = random_twisted(rng, ZZ)
        assert twisted_inequality(t).holds


def test_plain_bound_failure_is_a_fault(monkeypatch):
    # the plain bound is a theorem, so a failing verdict raises instead
    # of returning a report that says it does not hold
    monkeypatch.setattr(inequalities, "preceq",
                        lambda p, q: PreceqVerdict(False, None, 3))
    for build in (lambda: mb_inequality(sphere_z2()),
                  lambda: twisted_inequality(realize(sphere_z2()))):
        with pytest.raises(InvariantViolation,
                           match="Morse-Bott bound fails in degree 3"):
            build()


# ---------------------------------------------------------------------------
# equivariant bound


def test_free_circle_bound_is_strict():
    b = free_circle_borel(3)
    rep = equivariant_inequality(b, 3)
    assert rep.mode == "equivariant"
    assert rep.holds
    assert [rep.lhs.coefficient(d) for d in range(4)] == [1, 0, 0, 0]
    assert not rep.is_equality()
    assert rep.witness.coefficient(2) > 0


def test_s2_rotation_bound_is_equality():
    b = s2_rotation_borel(3)
    rep = equivariant_inequality(b, 4)
    assert rep.holds
    assert [rep.lhs.coefficient(d) for d in range(5)] == [1, 0, 2, 0, 2]
    assert rep.lhs == rep.rhs
    assert rep.is_equality()


def test_cutoff_beyond_stability_refused():
    b = free_circle_borel(2)
    with pytest.raises(CutoffBeyondStabilityRange):
        equivariant_inequality(b, 4)
    rep = equivariant_inequality(b, 3)
    assert rep.holds


def test_negative_cutoff_refused():
    with pytest.raises(InvalidRange):
        equivariant_inequality(free_circle_borel(2), -1)


def test_non_borel_category_refused():
    with pytest.raises(ValidationError):
        equivariant_inequality(torus_flat(), 1)


def test_empty_fiber_trivial_bound():
    b = borel_product(2, FlowCategoryData(ZZ))
    rep = equivariant_inequality(b, 3)
    assert rep.holds
    assert rep.lhs.is_zero() and rep.rhs.is_zero()


def test_report_independent_of_object_order():
    f = sphere_z2()
    g = FlowCategoryData(f.ring, tuple(reversed(f.objects)),
                         f.correspondences)
    assert mb_inequality(f) == mb_inequality(g)


def _random_borel(rng, ring):
    """A Borel product of 0-3 random fiber objects at 0-3 levels, with
    the default level links where they satisfy D.D = 0 and none
    otherwise; half the time its metadata names only some fibers, in a
    random order, so that the objects left out can break the bound."""
    fiber = []
    for j in range(rng.randint(0, 3)):
        chain = random_integral_complex(rng, top=2, max_parts=4)[0]
        fiber.append(FlowObject(f"x{j}", rng.randint(0, 3),
                                rng.randint(-2, 3), chain.with_ring(ring)))
    fiber = FlowCategoryData(ring, tuple(fiber))
    levels = rng.randint(0, 3)
    try:
        b = borel_product(levels, fiber)
    except InvariantViolation:
        b = borel_product(levels, fiber, level_links={})
    if rng.random() < 0.5:
        names = list(b.borel.fiber_names)
        names = rng.sample(names, rng.randint(0, len(names)))
        b = replace(b, borel=BorelMetadata(levels, tuple(names)))
    return b


def _equivariant_at_every_cutoff(b):
    # the stability range is [0, 2N - 1]; -1 and 2N are refused
    levels = b.borel.levels
    for cutoff in range(-1, 2 * levels + 1):
        if 0 <= cutoff <= 2 * levels - 1:
            assert equivariant_inequality(b, cutoff) == \
                grid_equivariant_inequality(b, cutoff), cutoff
        else:
            with pytest.raises((InvalidRange, CutoffBeyondStabilityRange)):
                equivariant_inequality(b, cutoff)


@given(st.integers(0, 2 ** 32), st.sampled_from((ZZ, F2)))
@settings(max_examples=200, deadline=None)
def test_equivariant_bound_matches_the_grid_walk(seed, ring):
    _equivariant_at_every_cutoff(_random_borel(random.Random(seed), ring))


@pytest.mark.parametrize("ring", [ZZ, F2])
def test_equivariant_bound_on_the_borel_fixtures_matches_the_grid_walk(ring):
    for name, f in standard_fixtures(ring):
        if f.borel is not None:
            _equivariant_at_every_cutoff(f)
