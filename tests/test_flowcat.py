"""Flow category data model, realization, splits, duals, bimodules."""

from types import SimpleNamespace

import pytest

from mbflow import flowcat
from mbflow.errors import (
    ChainMapViolation,
    InvariantViolation,
    NotDownwardClosed,
    OrientationRequired,
    ShapeMismatch,
    ValidationError,
)
from mbflow.flowcat import (
    BimoduleData,
    CorrespondenceMap,
    FlowCategoryData,
    FlowObject,
    RelativeModuleData,
    bimodule_to_map,
    category_euler_characteristic,
    category_homology,
    dualize,
    include_and_quotient,
    realize,
    relative_map,
    shift_category,
    validate_category,
)
from mbflow.homalg import (
    F2,
    ZZ,
    complex_from_ranks,
    homology,
)
from mbflow.twisted import cone, quotient_sequence, shift, totalize

from support import mat, point_complex, circle_complex


def two_point_sphere(ring=ZZ):
    """Perfect Morse function on S^2: two points, no correspondences."""
    return FlowCategoryData(ring, (
        FlowObject("a", 0, 0, point_complex(ring)),
        FlowObject("b", 2, 2, point_complex(ring)),
    ))


def equator_sphere(ring=ZZ):
    """Height function on S^2 flattened along the equator circle."""
    return FlowCategoryData(
        ring,
        (
            FlowObject("eq", 0, 0, circle_complex(ring)),
            FlowObject("n", 2, 2, point_complex(ring)),
            FlowObject("s", 2, 2, point_complex(ring)),
        ),
        (
            CorrespondenceMap("n", "eq", {0: mat([[1]])}),
            CorrespondenceMap("s", "eq", {0: mat([[-1]])}),
        ),
    )


def flat_torus(ring=ZZ):
    """Two circle families, no rigid trajectories."""
    return FlowCategoryData(ring, (
        FlowObject("bot", 0, 0, circle_complex(ring)),
        FlowObject("top", 1, 1, circle_complex(ring)),
    ))


def rp2_morse(ring=ZZ):
    """Standard Morse function on RP^2 with counts 2 and 0."""
    return FlowCategoryData(
        ring,
        (
            FlowObject("e0", 0, 0, point_complex(ring)),
            FlowObject("e1", 1, 1, point_complex(ring)),
            FlowObject("e2", 2, 2, point_complex(ring)),
        ),
        (CorrespondenceMap("e2", "e1", {0: mat([[2]])}),),
    )


# ---------------------------------------------------------------------------
# data model


def test_object_rejects_negative_degrees():
    c = complex_from_ranks(ZZ, {-1: 1, 0: 1}, {0: mat([[0]])})
    with pytest.raises(ValidationError):
        FlowObject("x", 0, 0, c)


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError):
        FlowCategoryData(ZZ, (
            FlowObject("a", 0, 0, point_complex(ZZ)),
            FlowObject("a", 1, 1, point_complex(ZZ)),
        ))


def test_dangling_correspondence_rejected():
    with pytest.raises(ValidationError):
        FlowCategoryData(
            ZZ,
            (FlowObject("a", 0, 0, point_complex(ZZ)),),
            (CorrespondenceMap("a", "ghost", {}),),
        )


def test_validate_flags_nondecreasing_index():
    f = FlowCategoryData(
        ZZ,
        (
            FlowObject("a", 0, 0, point_complex(ZZ)),
            FlowObject("b", 2, 2, point_complex(ZZ)),
        ),
        (CorrespondenceMap("a", "b", {}),),
    )
    diag = validate_category(f)
    assert not diag.valid
    assert "decrease" in diag.issues[0]
    with pytest.raises(ValidationError):
        realize(f)


def test_validate_flags_bad_block_shape():
    f = FlowCategoryData(
        ZZ,
        (
            FlowObject("lo", 0, 0, point_complex(ZZ)),
            FlowObject("hi", 1, 1, point_complex(ZZ)),
        ),
        (CorrespondenceMap("hi", "lo", {0: mat([[1], [1]])}),),
    )
    diag = validate_category(f)
    assert not diag.valid
    assert "expected 1x1" in diag.issues[0]


def test_validate_locates_broken_composite():
    # counts 1 and 1 with no correcting term: D.D sends the top cell
    # to the bottom one
    f = FlowCategoryData(
        ZZ,
        (
            FlowObject("e0", 0, 0, point_complex(ZZ)),
            FlowObject("e1", 1, 1, point_complex(ZZ)),
            FlowObject("e2", 2, 2, point_complex(ZZ)),
        ),
        (
            CorrespondenceMap("e2", "e1", {0: mat([[1]])}),
            CorrespondenceMap("e1", "e0", {0: mat([[1]])}),
        ),
    )
    diag = validate_category(f)
    assert not diag.valid
    assert diag.failure_object == "e2"
    assert diag.failure_degree == 2
    assert diag.failure_generator == 0


# ---------------------------------------------------------------------------
# realization


def test_two_point_sphere_homology():
    h = category_homology(two_point_sphere())
    assert dict(h.free) == {0: 1, 2: 1}
    assert not h.torsion_factors


def test_equator_sphere_homology():
    f = equator_sphere()
    t = realize(f)
    tot = totalize(t)
    assert dict(tot.rank) == {0: 1, 1: 1, 2: 2}
    h = homology(tot)
    assert dict(h.free) == {0: 1, 2: 1}
    assert not h.torsion_factors


def test_flat_torus_homology():
    h = category_homology(flat_torus())
    assert dict(h.free) == {0: 1, 1: 2, 2: 1}


def test_rp2_homology_both_rings():
    h = homology(totalize(realize(rp2_morse())))
    assert dict(h.free) == {0: 1}
    assert h.torsion(1) == (2,)
    h2 = homology(totalize(realize(rp2_morse(F2))))
    assert dict(h2.free) == {0: 1, 1: 1, 2: 1}


def test_equal_index_objects_share_a_piece():
    t = realize(equator_sphere())
    assert t.indices() == [0, 2]
    assert t.piece(2).dim(0) == 2


def test_generator_total_degree_is_chain_degree_plus_framing():
    # a circle at index 3 framed by rank 5 contributes in degrees 5, 6
    f = FlowCategoryData(ZZ, (
        FlowObject("c", 3, 5, circle_complex(ZZ)),
    ))
    tot = totalize(realize(f))
    assert dict(tot.rank) == {5: 1, 6: 1}


def test_euler_characteristic_formula():
    for f in (two_point_sphere(), equator_sphere(), flat_torus(),
              rp2_morse()):
        chi = category_euler_characteristic(f)
        h = category_homology(f)
        assert chi == h.euler_characteristic()


def test_orientation_gate_over_z():
    f = FlowCategoryData(ZZ, (
        FlowObject("x", 1, 1, point_complex(ZZ), orientable_flag=False),
    ))
    with pytest.raises(OrientationRequired):
        realize(f)


def test_orientation_not_needed_without_twist():
    f = FlowCategoryData(ZZ, (
        FlowObject("x", 1, 0, point_complex(ZZ), orientable_flag=False),
    ))
    tot = totalize(realize(f))
    assert tot.dim(0) == 1


def test_orientation_never_needed_mod_2():
    f = FlowCategoryData(F2, (
        FlowObject("x", 1, 1, point_complex(F2), orientable_flag=False),
    ))
    tot = totalize(realize(f))
    assert tot.dim(1) == 1


# ---------------------------------------------------------------------------
# include / quotient


def test_split_equator_sphere_along_subcircle():
    sub, quot = include_and_quotient(equator_sphere(), ["eq"])
    assert dict(category_homology(sub).free) == {0: 1, 1: 1}
    assert dict(category_homology(quot).free) == {2: 2}


def test_split_rejects_escaping_correspondence():
    with pytest.raises(NotDownwardClosed) as exc:
        include_and_quotient(equator_sphere(), ["n"])
    assert "'n' -> 'eq'" in str(exc.value)


def test_split_unknown_object():
    with pytest.raises(ValidationError):
        include_and_quotient(equator_sphere(), ["nope"])


def test_split_matches_twisted_quotient_on_index_cut():
    f = equator_sphere()
    sub, quot = include_and_quotient(f, ["eq"])
    qs = quotient_sequence(realize(f), 0)
    assert realize(sub) == qs.sub
    assert realize(quot) == qs.quotient
    assert qs.audit.exact


def test_split_returns_categories_without_self_check_caches():
    # the split's self-check runs on copies: the categories returned hold
    # no realization, Tot or verdict until they are used
    sub, quot = include_and_quotient(equator_sphere(), ["eq"])
    for c in (sub, quot):
        assert "_realized" not in vars(c)
        assert "_diagnostics" not in vars(c)
    assert realize(sub) == quotient_sequence(realize(equator_sphere()),
                                             0).sub


def test_split_audits_dimension_additivity(monkeypatch):
    # Tot of the whole category reports one cell too many in degree 0
    calls = []

    def skewed(t):
        tot = totalize(t)
        calls.append(t)
        if len(calls) > 1:
            return tot
        return SimpleNamespace(rank={**tot.rank, 0: tot.dim(0) + 1})
    monkeypatch.setattr(flowcat, "totalize", skewed)
    with pytest.raises(InvariantViolation) as exc:
        include_and_quotient(equator_sphere(), ["eq"])
    assert str(exc.value) == \
        "realization does not commute with the split in degree 0"


def test_split_audits_the_index_cut(monkeypatch):
    # the twisted split comes back with sub and quotient swapped
    split = flowcat.index_split
    monkeypatch.setattr(flowcat, "index_split",
                        lambda t, p: split(t, p)[::-1])
    with pytest.raises(InvariantViolation) as exc:
        include_and_quotient(equator_sphere(), ["eq"])
    assert str(exc.value) == \
        "index-cut split disagrees with the twisted quotient"


def test_split_on_mixed_index_subset():
    # {eq, n} splits the index-2 piece; only dimension additivity holds
    sub, quot = include_and_quotient(equator_sphere(), ["eq", "n"])
    assert dict(category_homology(quot).free) == {2: 1}
    h = category_homology(sub)
    assert dict(h.free) == {0: 1}


def test_split_everything_or_nothing():
    f = two_point_sphere()
    sub, quot = include_and_quotient(f, ["a", "b"])
    assert not quot.objects
    assert dict(category_homology(sub).free) == {0: 1, 2: 1}
    sub2, quot2 = include_and_quotient(f, [])
    assert not sub2.objects
    assert dict(category_homology(quot2).free) == {0: 1, 2: 1}


# ---------------------------------------------------------------------------
# shift and dual


@pytest.mark.parametrize("a", [1, -3, 5])
def test_shift_category_matches_twisted_shift(a):
    for f in (two_point_sphere(), equator_sphere(), rp2_morse()):
        shifted = shift(realize(f), a)
        assert realize(shift_category(f, a)) == shifted


def test_shift_category_preserves_homology():
    f = equator_sphere()
    assert category_homology(shift_category(f, 4)) == category_homology(f)


def test_dual_two_point_sphere():
    h = category_homology(dualize(two_point_sphere()))
    assert dict(h.free) == {-2: 1, 0: 1}


def test_dual_flat_torus():
    h = category_homology(dualize(flat_torus()))
    assert dict(h.free) == {-2: 1, -1: 2, 0: 1}


def test_dual_equator_sphere():
    # transposed blocks must stay well-shaped against the dual framing
    d = dualize(equator_sphere())
    assert validate_category(d).valid
    h = category_homology(d)
    assert dict(h.free) == {-2: 1, 0: 1}


def test_dual_rp2_torsion_moves():
    # cochains of RP^2 in negative degrees: free class at 0, order-2
    # class at -2
    h = category_homology(dualize(rp2_morse()))
    assert dict(h.free) == {0: 1}
    assert h.torsion(-2) == (2,)


def test_dualize_is_an_involution():
    for f in (two_point_sphere(), equator_sphere(), flat_torus(),
              rp2_morse()):
        assert dualize(dualize(f)) == f


def test_dualize_requires_orientability_over_z():
    f = FlowCategoryData(ZZ, (
        FlowObject("x", 0, 0, point_complex(ZZ), orientable_flag=False),
    ))
    with pytest.raises(OrientationRequired):
        dualize(f)
    g = FlowCategoryData(F2, (
        FlowObject("x", 0, 0, point_complex(F2), orientable_flag=False),
    ))
    assert validate_category(dualize(g)).valid


# ---------------------------------------------------------------------------
# bimodules


def continuation_bimodule(ring=ZZ):
    """Continuation from the two-point sphere to the equator model."""
    return BimoduleData(
        source=two_point_sphere(ring),
        target=equator_sphere(ring),
        blocks={
            ("a", "eq"): {0: mat([[1]])},
            ("b", "n"): {0: mat([[1]])},
            ("b", "s"): {0: mat([[1]])},
        },
    )


def test_continuation_is_a_chain_map():
    m = bimodule_to_map(continuation_bimodule())
    assert m.shift == 0
    assert m.block(2, 2, 0)[0, 0] == 1


def test_continuation_cone_is_acyclic():
    m = bimodule_to_map(continuation_bimodule())
    assert homology(totalize(cone(m))).is_trivial()


def test_bimodule_audits_the_cone_category(monkeypatch):
    # the twisted cone is replaced by the morphism's target
    monkeypatch.setattr(flowcat, "cone", lambda m: m.target)
    with pytest.raises(InvariantViolation) as exc:
        bimodule_to_map(continuation_bimodule())
    assert str(exc.value) == \
        "cone category realization disagrees with the twisted cone"


def test_bimodule_rejects_non_chain_map():
    b = BimoduleData(
        source=two_point_sphere(),
        target=equator_sphere(),
        blocks={
            ("b", "n"): {0: mat([[1]])},
            ("b", "s"): {0: mat([[-1]])},
        },
    )
    with pytest.raises(ChainMapViolation):
        bimodule_to_map(b)


def test_bimodule_rejects_non_monotone_block():
    with pytest.raises(ShapeMismatch):
        BimoduleData(
            source=two_point_sphere(),
            target=equator_sphere(),
            blocks={("a", "n"): {0: mat([[1]])}},
        )


def test_bimodule_rejects_unknown_object():
    # a name that is no object of its category is a missing summand
    for key in (("zz", "n"), ("b", "zz")):
        with pytest.raises(ShapeMismatch, match="missing summand"):
            BimoduleData(source=two_point_sphere(),
                         target=equator_sphere(),
                         blocks={key: {0: mat([[1]])}})


def test_bimodule_rejects_bad_shape():
    with pytest.raises(ShapeMismatch):
        BimoduleData(
            source=two_point_sphere(),
            target=equator_sphere(),
            blocks={("b", "n"): {0: mat([[1], [1]])}},
        )


def test_cone_category_quotient_recovers_both_sides():
    # separate source and target indices so an index cut splits the cone
    src = shift_category(two_point_sphere(), 4)
    dst = two_point_sphere()
    b = BimoduleData(src, dst, {
        ("a", "a"): {0: mat([[1]])},
        ("b", "b"): {0: mat([[1]])},
    })
    m = bimodule_to_map(b)
    qs = quotient_sequence(cone(m), 2)
    assert qs.sub == realize(dst)
    h_src = homology(totalize(realize(src)))
    h_quot = homology(totalize(qs.quotient))
    assert dict(h_quot.free) == {n + 1: r for n, r in h_src.free.items()}
    assert qs.audit.exact


def test_identity_bimodule_on_every_fixture():
    for build in (two_point_sphere, equator_sphere, flat_torus, rp2_morse):
        f = build()
        blocks = {}
        for o in f.objects:
            fam = {}
            for m in o.chain.rank:
                d = o.chain.dim(m)
                if d:
                    fam[m] = mat([[1 if i == j else 0 for j in range(d)]
                                  for i in range(d)])
            blocks[(o.name, o.name)] = fam
        m = bimodule_to_map(BimoduleData(f, f, blocks))
        assert homology(totalize(cone(m))).is_trivial()


# ---------------------------------------------------------------------------
# relative modules


def test_tautological_relative_module():
    base = FlowCategoryData(ZZ, (FlowObject("x", 0, 0, point_complex(ZZ)),))
    rm = RelativeModuleData(
        base=base,
        target_space_chain=point_complex(ZZ),
        twist_rank=0,
        blocks={"x": {0: mat([[1]])}},
    )
    res = relative_map(rm)
    assert res.quasi_isomorphism
    assert res.source_homology == res.target_homology


def test_two_point_sphere_against_cellular_model():
    rm = RelativeModuleData(
        base=two_point_sphere(),
        target_space_chain=complex_from_ranks(ZZ, {0: 1, 2: 1}),
        twist_rank=0,
        blocks={
            "a": {0: mat([[1]])},
            "b": {0: mat([[1]])},
        },
    )
    res = relative_map(rm)
    assert res.quasi_isomorphism
    assert dict(res.target_homology.free) == {0: 1, 2: 1}


def test_equator_sphere_against_hemisphere_model():
    # CW model: vertex, equator edge, and the two hemisphere cells with
    # boundaries e and -e
    hemis = complex_from_ranks(
        ZZ, {0: 1, 1: 1, 2: 2},
        {2: mat([[1, -1]])})
    rm = RelativeModuleData(
        base=equator_sphere(),
        target_space_chain=hemis,
        twist_rank=0,
        blocks={
            "eq": {0: mat([[1]]), 1: mat([[1]])},
            "n": {0: mat([[1], [0]])},
            "s": {0: mat([[0], [1]])},
        },
    )
    res = relative_map(rm)
    assert res.quasi_isomorphism


def test_relative_map_detects_failure():
    rm = RelativeModuleData(
        base=two_point_sphere(),
        target_space_chain=complex_from_ranks(ZZ, {0: 1, 2: 1}),
        twist_rank=0,
        blocks={"a": {0: mat([[1]])}},
    )
    res = relative_map(rm)
    assert not res.quasi_isomorphism


def test_relative_twist_shifts_target():
    base = FlowCategoryData(ZZ, (FlowObject("x", 0, 3, point_complex(ZZ)),))
    rm = RelativeModuleData(
        base=base,
        target_space_chain=point_complex(ZZ),
        twist_rank=3,
        blocks={"x": {0: mat([[1]])}},
    )
    res = relative_map(rm)
    assert res.quasi_isomorphism
    assert dict(res.target_homology.free) == {3: 1}


def test_relative_block_rejects_unknown_object():
    with pytest.raises(ShapeMismatch, match="relative block for 'zz'"):
        RelativeModuleData(
            base=two_point_sphere(),
            target_space_chain=point_complex(ZZ),
            twist_rank=0,
            blocks={"zz": {0: mat([[1]])}},
        )


def test_relative_block_shape_checked():
    with pytest.raises(ShapeMismatch):
        RelativeModuleData(
            base=two_point_sphere(),
            target_space_chain=point_complex(ZZ),
            twist_rank=0,
            blocks={"b": {0: mat([[1]])}},
        )
