"""Each category is realized once, and each twisted complex gets one
total-differential assembly and one D.D pass per command, however many
layers (parsing, validation, realization, totalization, audits) read
them. Index-cut sub and quotient totalizations are cut out of the whole
complex's Tot, never assembled again."""

import contextlib
import io
import random

import pytest
from support import random_twisted

from mbflow import flowcat, twisted
from mbflow.cli import fixture_bytes, main, parse_category
from mbflow.flowcat import realize
from mbflow.homalg import ZZ, CoefficientRing
from mbflow.twisted import quotient_sequence, totalize, validate

F3 = CoefficientRing.prime_field(3)


def fixture_path(name):
    import mbflow

    return f"{list(mbflow.__path__)[0]}/fixtures/{name}.json"


class Counts:
    """Calls per argument object; the objects are kept alive so that
    their ids stay distinct."""

    def __init__(self):
        self.calls: dict[int, list] = {}

    def hit(self, obj):
        self.calls.setdefault(id(obj), [obj, 0])[1] += 1

    def per_object(self) -> list[int]:
        return [n for _, n in self.calls.values()]


@pytest.fixture
def counts(monkeypatch):
    got = {"realize": Counts(), "assemble": Counts(), "dd": Counts()}

    def wrap(owner, name, key):
        orig = getattr(owner, name)

        def counted(arg):
            got[key].hit(arg)
            return orig(arg)
        monkeypatch.setattr(owner, name, counted)

    wrap(flowcat, "_realize_unchecked", "realize")
    wrap(twisted, "_assemble", "assemble")
    wrap(twisted, "_maurer_cartan", "dd")
    return got


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("argv, complexes", [
    (["homology", "@sphere_z2"], 1),
    (["homology", "@borel_free_circle_3"], 1),
    (["homology", "@cpn_act_2", "--ring", "Fp:2"], 2),
    (["check-ineq", "@sphere_z2"], 1),
    (["check-ineq", "@borel_free_circle_3", "--equivariant",
      "--cutoff", "5"], 1),
])
def test_cli_command_builds_each_totalization_once(counts, argv, complexes):
    argv = [fixture_path(a[1:]) if a.startswith("@") else a for a in argv]
    assert run(argv) in (0, 4)
    assert counts["realize"].per_object() == [1] * complexes
    assert counts["assemble"].per_object() == [1] * complexes
    assert counts["dd"].per_object() == [1] * complexes


def test_quotient_sequence_builds_each_totalization_once(counts):
    t = realize(parse_category(fixture_bytes("borel_free_circle_3")))
    qs = quotient_sequence(t, 1)
    assert qs.audit.exact
    assert counts["realize"].per_object() == [1]
    # the sub and quotient totalizations are cut out of Tot(t)
    assert counts["assemble"].per_object() == [1]
    assert counts["dd"].per_object() == [1]


@pytest.mark.parametrize("ring", [ZZ, F3])
def test_split_matches_totalized_sub_and_quotient(ring):
    rng = random.Random(7)
    for _ in range(25):
        t = random_twisted(rng, ring)
        for p in range(min(t.pieces) - 1, max(t.pieces) + 1):
            qs = quotient_sequence(t, p)
            assert t._tot.split(p) == (totalize(qs.sub),
                                       totalize(qs.quotient))


def test_validate_and_totalize_share_one_value(counts):
    t = realize(parse_category(fixture_bytes("torus_flat")))
    assert validate(t).valid
    assert totalize(t) is totalize(t)
    assert counts["assemble"].per_object() == [1]
    assert counts["dd"].per_object() == [1]
