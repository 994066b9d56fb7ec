"""Fixture builders against independent cellular oracles."""

import math

import pytest

from mbflow.errors import (
    DifferentialSquaredNonzero,
    InvalidRange,
    InvariantViolation,
    ValidationError,
)
from mbflow.examples import (
    borel_product,
    broken_mc,
    continuation_s2,
    cp_circle_model,
    cpn_act,
    fixture_registry,
    free_circle_borel,
    homotopy_square_fixture,
    morse_category,
    rp2,
    s2_rotation_borel,
    s2_two_point,
    schubert_indices,
    sphere_z2,
    standard_fixtures,
    torus_flat,
)
from mbflow.flowcat import (
    bimodule_to_map,
    category_euler_characteristic,
    category_homology,
    validate_category,
)
from mbflow.homalg import (
    F2,
    ZZ,
    CoefficientRing,
    complex_from_ranks,
    homology,
)
from mbflow.twisted import cone, totalize, verify_homotopy_square

from support import mat


def cellular_oracles(ring):
    """Independent CW chain models of the underlying manifolds."""
    return {
        "s2": complex_from_ranks(ring, {0: 1, 2: 1}),
        "t2": complex_from_ranks(ring, {0: 1, 1: 2, 2: 1}),
        "rp2": complex_from_ranks(ring, {0: 1, 1: 1, 2: 1},
                                  {1: mat([[0]]), 2: mat([[2]])}),
    }


# ---------------------------------------------------------------------------
# Morse categories


def test_morse_s2_matches_cellular():
    for ring in (ZZ, F2):
        got = category_homology(s2_two_point(ring))
        want = homology(cellular_oracles(ring)["s2"])
        assert got == want


def test_morse_standard_torus():
    points = (("m", 0), ("s1", 1), ("s2", 1), ("M", 2))
    for ring in (ZZ, F2):
        got = category_homology(morse_category(points, ring=ring))
        want = homology(cellular_oracles(ring)["t2"])
        assert got == want


def test_morse_rp2_matches_cellular():
    for ring in (ZZ, F2):
        got = category_homology(rp2(ring))
        want = homology(cellular_oracles(ring)["rp2"])
        assert got == want
    h = category_homology(rp2())
    assert dict(h.free) == {0: 1}
    assert h.torsion(1) == (2,)


def test_morse_rejects_unknown_point():
    with pytest.raises(ValidationError):
        morse_category((("a", 0),), {("a", "ghost"): 1})


def test_morse_rejects_index_gap():
    with pytest.raises(ValidationError):
        morse_category((("a", 0), ("b", 2)), {("b", "a"): 1})


def test_morse_rejects_broken_counts():
    with pytest.raises(DifferentialSquaredNonzero):
        morse_category((("e0", 0), ("e1", 1), ("e2", 2)),
                       {("e2", "e1"): 1, ("e1", "e0"): 1})


def test_broken_mc_is_located():
    diag = validate_category(broken_mc())
    assert not diag.valid
    assert diag.failure_object == "e2"
    assert diag.failure_degree == 2


# ---------------------------------------------------------------------------
# sphere_z2 / torus_flat / cpn_act


def test_sphere_z2_matches_cellular():
    for ring in (ZZ, F2):
        assert category_homology(sphere_z2(ring)) == \
            homology(cellular_oracles(ring)["s2"])


def test_torus_flat_matches_cellular():
    for ring in (ZZ, F2):
        assert category_homology(torus_flat(ring)) == \
            homology(cellular_oracles(ring)["t2"])


@pytest.mark.parametrize("n", range(5))
def test_cpn_act_matches_cellular(n):
    oracle = complex_from_ranks(ZZ, {2 * i: 1 for i in range(n + 1)})
    assert category_homology(cpn_act(n)) == homology(oracle)


def test_cpn_act_even_concentration():
    for n in range(7):
        h = category_homology(cpn_act(n))
        assert all(d % 2 == 0 for d in h.free)
        assert not h.torsion_factors


def test_cpn_act_rejects_negative():
    with pytest.raises(InvalidRange):
        cpn_act(-1)


# ---------------------------------------------------------------------------
# Schubert indices


def test_schubert_full_subset_is_zero():
    for n in range(1, 6):
        assert schubert_indices(n, n) == (0,)


def test_schubert_line_case():
    assert schubert_indices(1, 4) == (0, 1, 2, 3)


def test_schubert_enumerates_gr24():
    assert schubert_indices(2, 4) == (0, 1, 2, 2, 3, 4)


def test_schubert_doubling():
    assert schubert_indices(2, 4, doubled=True) == (0, 2, 4, 4, 6, 8)


def test_schubert_range_errors():
    for k, n in ((0, 4), (5, 4), (-1, 2)):
        with pytest.raises(InvalidRange):
            schubert_indices(k, n)


def gaussian_binomial(n, k):
    """[n choose k]_t by the Pascal recurrence, as coefficient dict."""
    if k < 0 or k > n:
        return {}
    if k == 0 or k == n:
        return {0: 1}
    left = gaussian_binomial(n - 1, k - 1)
    right = gaussian_binomial(n - 1, k)
    out = dict(left)
    for e, c in right.items():
        out[e + k] = out.get(e + k, 0) + c
    return out


def test_schubert_generating_polynomial_is_gaussian():
    for n in range(1, 9):
        for k in range(1, n + 1):
            values = schubert_indices(k, n)
            assert len(values) == math.comb(n, k)
            hist = {}
            for v in values:
                hist[v] = hist.get(v, 0) + 1
            assert hist == gaussian_binomial(n, k)


# ---------------------------------------------------------------------------
# circle model and Borel products


def test_cp_circle_level_zero_is_a_circle():
    h = category_homology(cp_circle_model(0))
    assert dict(h.free) == {0: 1, 1: 1}


def test_cp_circle_one_level_against_hand_totalization():
    # four generators; the only differential pairs degree 2 with 1
    oracle = complex_from_ranks(ZZ, {0: 1, 1: 1, 2: 1, 3: 1},
                                {2: mat([[1]])})
    assert category_homology(cp_circle_model(1)) == homology(oracle)


@pytest.mark.parametrize("n", range(5))
def test_cp_circle_model_is_an_odd_sphere(n):
    h = category_homology(cp_circle_model(n))
    assert dict(h.free) == {0: 1, 2 * n + 1: 1}
    assert not h.torsion_factors


def test_cp_circle_rejects_negative():
    with pytest.raises(InvalidRange):
        cp_circle_model(-1)


def test_free_borel_matches_circle_model():
    for n in range(4):
        assert category_homology(free_circle_borel(n)) == \
            category_homology(cp_circle_model(n))


def test_free_borel_euler_characteristic_vanishes():
    for n in range(4):
        assert category_euler_characteristic(free_circle_borel(n)) == 0


def test_s2_rotation_borel_against_product_count():
    # oracle: cells of CP^3 times cells of S^2, all even, so the
    # homology of the finite Borel approximation is the convolution
    cp3 = [1, 0, 1, 0, 1, 0, 1]
    s2 = [1, 0, 1]
    conv = [0] * (len(cp3) + len(s2) - 1)
    for i, a in enumerate(cp3):
        for j, b in enumerate(s2):
            conv[i + j] += a * b
    h = category_homology(s2_rotation_borel(3))
    assert dict(h.free) == {d: r for d, r in enumerate(conv) if r}
    assert conv == [1, 0, 2, 0, 2, 0, 2, 0, 1]


def test_s2_rotation_borel_low_degrees():
    h = category_homology(s2_rotation_borel(2))
    assert [h.free_rank(d) for d in range(5)] == [1, 0, 2, 0, 2]


def test_borel_metadata_attached():
    b = s2_rotation_borel(3)
    assert b.borel is not None
    assert b.borel.levels == 3
    assert b.borel.fiber_names == ("n", "s")
    assert b.object("n@0").framing_rank == 0
    assert b.object("s@3").index == 8


def test_borel_empty_fiber():
    from mbflow.flowcat import FlowCategoryData

    empty = borel_product(2, FlowCategoryData(ZZ))
    assert not empty.objects
    assert empty.borel.fiber_names == ()


def test_borel_rejects_negative_levels():
    with pytest.raises(InvalidRange):
        free_circle_borel(-1)


def test_borel_custom_links_override_default():
    from mbflow.flowcat import FlowCategoryData, FlowObject

    fiber = FlowCategoryData(ZZ, (FlowObject(
        "orbit", 0, 0, complex_from_ranks(ZZ, {0: 1, 1: 1})),))
    b = borel_product(2, fiber, level_links={"orbit": {}})
    # no links: three disjoint shifted circles
    h = category_homology(b)
    assert dict(h.free) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


def test_borel_bad_link_shape_rejected():
    from mbflow.flowcat import FlowCategoryData, FlowObject

    fiber = FlowCategoryData(ZZ, (FlowObject(
        "orbit", 0, 0, complex_from_ranks(ZZ, {0: 1, 1: 1})),))
    with pytest.raises(InvariantViolation):
        borel_product(1, fiber, level_links={"orbit": {0: mat([[1], [1]])}})


def test_fiber_correspondences_replicate():
    b = borel_product(1, sphere_z2())
    names = {(c.source, c.target) for c in b.correspondences}
    assert ("n@0", "eq@0") in names
    assert ("n@1", "eq@1") in names
    assert ("eq@1", "eq@0") in names  # circle level link
    assert validate_category(b).valid


# ---------------------------------------------------------------------------
# bimodule and homotopy fixtures


def test_continuation_fixture_cone_acyclic():
    m = bimodule_to_map(continuation_s2())
    assert homology(totalize(cone(m))).is_trivial()


def test_homotopy_square_fixture_verifies():
    assert verify_homotopy_square(homotopy_square_fixture()).holds


def test_homotopy_square_fixture_perturbed_fails():
    v = verify_homotopy_square(homotopy_square_fixture(perturbed=True))
    assert not v.holds


# ---------------------------------------------------------------------------
# registry


def test_every_valid_fixture_validates():
    for name, f in standard_fixtures():
        assert validate_category(f).valid, name


def test_registry_covers_standard_fixtures():
    reg = fixture_registry()
    for name, _ in standard_fixtures():
        assert name in reg
    assert "broken_mc" in reg
    built = reg["torus_flat"]()
    assert dict(category_homology(built).free) == {0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("ring", [ZZ, F2, CoefficientRing.prime_field(3)],
                         ids=["Z", "F2", "F3"])
def test_standard_fixtures_are_the_registry_over_each_ring(ring):
    # one list of shipped fixtures: every registry builder takes a ring
    reg = fixture_registry()
    got = standard_fixtures(ring)
    assert [name for name, _ in got] == [n for n in reg if n != "broken_mc"]
    for name, f in got:
        built = reg[name](ring)
        assert f.ring == built.ring == ring, name
        assert f == built, name


def test_euler_characteristic_on_all_fixtures():
    for name, f in standard_fixtures():
        h = category_homology(f)
        assert category_euler_characteristic(f) == \
            h.euler_characteristic(), name
