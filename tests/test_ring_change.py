"""A ring change reads a valid category's realization over the new ring:
from Z to F_p, or to the same ring, it shares the realization, Tot and
Maurer-Cartan verdict, and every answer equals that of the same file
declared over the new ring and parsed from scratch. Any other change
squares again, so a category exact only mod 2 fails over Z and F_3."""

import pytest
from support import mat, redeclared

from mbflow import homalg
from mbflow.cli import fixture_bytes, parse_category
from mbflow.errors import InvariantViolation, MBFlowError
from mbflow.examples import fixture_registry
from mbflow.flowcat import (
    CorrespondenceMap,
    FlowCategoryData,
    FlowObject,
    category_with_ring,
    realize,
    validate_category,
)
from mbflow.homalg import (
    F2,
    ZZ,
    CoefficientRing,
    GradedChainComplex,
    IntegerMatrix,
    complex_from_ranks,
    direct_sum,
    dual_complex,
    negate_complex,
    shift_complex,
)
from mbflow.twisted import (
    TwistedComplex,
    quotient_sequence,
    spectral_sequence,
    totalize,
    validate,
)

F3 = CoefficientRing.prime_field(3)


def outcome(fn, *args):
    """fn(*args), or the class and message of the MBFlowError it raises."""
    try:
        return fn(*args)
    except MBFlowError as e:
        return type(e), str(e)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", sorted(fixture_registry()))
def test_ring_change_matches_the_file_declared_over_fp(name, p):
    ring = CoefficientRing.prime_field(p)
    f = parse_category(fixture_bytes(name), validate=False)
    valid = validate_category(f).valid
    got, want = category_with_ring(f, ring), redeclared(f, ring)
    assert got == want
    assert validate_category(got) == validate_category(want)
    t, t_want = outcome(realize, got), outcome(realize, want)
    assert t == t_want
    if not valid:
        return
    # the shared path: f's Tot, read over F_p, and its pieces once
    assert t._tot.differentials is f._realized[0]._tot.differentials
    assert all(t.pieces[i] is got._realized[1].pieces[i] for i in t.pieces)
    assert t._tot.ring == ring and totalize(t) == totalize(t_want)
    for cut in range(min(t.pieces) - 1, max(t.pieces) + 1):
        assert quotient_sequence(t, cut) == quotient_sequence(t_want, cut)
    assert spectral_sequence(t, 5) == spectral_sequence(t_want, 5)


def test_ring_change_of_an_unvalidated_category_validates_nothing():
    # f's verdict is not computed for the sake of the call, and the new
    # category is realized and validated over F_2 from scratch
    f = parse_category(fixture_bytes("borel_free_circle_3"), validate=False)
    g = category_with_ring(f, F2)
    assert "_diagnostics" not in f.__dict__
    assert "_realized" not in g.__dict__
    assert realize(g) == realize(redeclared(f, F2))


def exact_mod_2(ring):
    """Points a -> b -> c in indices 2, 1, 0 with blocks 2 and 1: D.D is
    2 on a, so the category is valid over F_2 only."""
    pt = complex_from_ranks(ring, {0: 1})
    return FlowCategoryData(
        ring,
        (FlowObject("a", 2, 2, pt), FlowObject("b", 1, 1, pt),
         FlowObject("c", 0, 0, pt)),
        (CorrespondenceMap("a", "b", {0: mat([[2]])}),
         CorrespondenceMap("b", "c", {0: mat([[1]])})))


def test_category_invalid_over_z_falls_back_to_a_fresh_check():
    f = exact_mod_2(ZZ)
    assert not validate_category(f).valid
    mod2 = category_with_ring(f, F2)
    assert validate_category(mod2).valid
    assert realize(mod2) == realize(redeclared(f, F2))
    mod3 = validate_category(category_with_ring(f, F3))
    assert not mod3.valid and mod3.failure_object == "a"


def test_ring_change_from_f2_to_z_squares_again():
    f = exact_mod_2(F2)
    assert validate_category(f).valid
    for ring in (ZZ, F3):
        diag = validate_category(category_with_ring(f, ring))
        assert not diag.valid and diag.failure_object == "a"
        assert diag == validate_category(redeclared(f, ring))


def test_squaring_constructors_reject_a_complex_exact_only_mod_2():
    ranks, diffs = {0: 1, 1: 1, 2: 1}, {1: mat([[1]]), 2: mat([[2]])}
    c = complex_from_ranks(F2, ranks, diffs)
    for build in (lambda: GradedChainComplex(ZZ, ranks, diffs),
                  lambda: complex_from_ranks(ZZ, ranks, diffs),
                  lambda: c.with_ring(ZZ), lambda: c.with_ring(F3)):
        with pytest.raises(InvariantViolation):
            build()
    # the parser, on the file declared over Z
    f = FlowCategoryData(F2, (FlowObject("x", 0, 0, c),))
    with pytest.raises(InvariantViolation):
        redeclared(f, ZZ)
    # Tot, of points joined by the blocks 2 and 1
    pt = complex_from_ranks(ZZ, {0: 1})
    t = TwistedComplex(ZZ, {0: pt, 1: pt, 2: pt},
                       {(2, 1): {0: mat([[2]])}, (1, 0): {0: mat([[1]])}})
    assert not validate(t).valid
    with pytest.raises(InvariantViolation):
        totalize(t)


def test_derived_complexes_square_nothing(monkeypatch):
    c = complex_from_ranks(ZZ, {0: 1, 1: 2, 2: 1},
                           {1: mat([[1, -1]]), 2: mat([[1], [1]])})
    products = []
    orig = IntegerMatrix.__matmul__

    def counted(a, b):
        products.append((a, b))
        return orig(a, b)
    monkeypatch.setattr(homalg.IntegerMatrix, "__matmul__", counted)
    derived = [shift_complex(c, 3), negate_complex(c), dual_complex(c),
               direct_sum([c, c]), c.with_ring(ZZ), c.with_ring(F3)]
    assert products == []
    # from F_3 to Z is squared again
    derived[-1].with_ring(ZZ)
    assert len(products) == 1
    assert derived[-1] == complex_from_ranks(F3, dict(c.rank),
                                             dict(c.differential))
