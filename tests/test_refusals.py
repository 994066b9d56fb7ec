"""Constructor refusals, each with its exact error class and message."""

import pytest

from support import point_complex

from mbflow.errors import InvalidRange, ShapeMismatch, UnsupportedRing
from mbflow.examples import s2_two_point, sphere_z2
from mbflow.flowcat import (
    BimoduleData,
    FlowCategoryData,
    FlowObject,
    RelativeModuleData,
)
from mbflow.homalg import (
    F2,
    ZZ,
    GradedChainComplex,
    IntegerMatrix,
    LaurentPoly,
    direct_sum,
)
from mbflow.twisted import (
    HomotopySquareWitness,
    TwistedComplex,
    TwistedMorphism,
    identity_morphism,
    twisted_from_parts,
)


def _two_points():
    # points at total degrees 0 and 1, pieces 0 and 1
    return twisted_from_parts(ZZ, {0: point_complex(ZZ), 1: point_complex(ZZ)})


def _square(bad):
    """The identity square on a point, but the edge bad (or with
    bad="end", the end of c24) at a two-point complex instead."""
    t = twisted_from_parts(ZZ, {0: point_complex(ZZ)})
    other = _two_points()
    edges = dict.fromkeys(("c12", "c13", "c24", "c34"), identity_morphism(t))
    if bad == "end":
        edges["c24"] = TwistedMorphism(t, other)
    else:
        edges[bad] = identity_morphism(other)
    return HomotopySquareWitness(**edges)


REFUSALS = [
    # homalg
    (lambda: IntegerMatrix(-1, 2), ShapeMismatch, "negative shape -1x2"),
    (lambda: IntegerMatrix.from_rows([[1, 2], [3]]), ShapeMismatch,
     "ragged row data"),
    (lambda: IntegerMatrix.zero(1, 2) + IntegerMatrix.zero(2, 1),
     ShapeMismatch, "add 1x2 to 2x1"),
    (lambda: GradedChainComplex(ZZ, {3: -1}), ShapeMismatch,
     "negative rank -1 in degree 3"),
    (lambda: direct_sum([]), InvalidRange, "direct sum of no complexes"),
    (lambda: LaurentPoly({2: 0}), ShapeMismatch,
     "explicit zero coefficient at t^2"),
    # flowcat
    (lambda: FlowCategoryData(ZZ, (FlowObject("x", 0, 0, point_complex(F2)),)),
     UnsupportedRing, "object 'x' is over Fp:2"),
    (lambda: BimoduleData(s2_two_point(ZZ), sphere_z2(F2)), UnsupportedRing,
     "bimodule between different rings"),
    (lambda: RelativeModuleData(s2_two_point(ZZ), point_complex(F2), 0),
     UnsupportedRing, "relative module over a different ring"),
    # twisted
    (lambda: TwistedComplex(ZZ, {4: point_complex(F2)}), UnsupportedRing,
     "piece 4 is over Fp:2, complex over Z"),
    (lambda: TwistedMorphism(_two_points(), TwistedComplex(F2)),
     UnsupportedRing, "morphism between different rings"),
    (lambda: TwistedMorphism(_two_points(), _two_points(), {(0, 1): {}}),
     ShapeMismatch, "block (0,1) violates monotonicity at shift 0"),
    (lambda: _square("c13"), ShapeMismatch,
     "edges c12, c13 start at different corners"),
    (lambda: _square("c24"), ShapeMismatch, "edge c24 does not continue c12"),
    (lambda: _square("c34"), ShapeMismatch, "edge c34 does not continue c13"),
    (lambda: _square("end"), ShapeMismatch,
     "edges c24, c34 end at different corners"),
]


@pytest.mark.parametrize("build, error, fragment", REFUSALS,
                         ids=[fragment for _, _, fragment in REFUSALS])
def test_refusal_names_its_class_and_cause(build, error, fragment):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert fragment in str(exc.value)
