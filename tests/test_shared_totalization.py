"""Each category is realized once, and each twisted complex gets one
total-differential assembly and one D.D pass per command, however many
layers (parsing, validation, realization, totalization, audits) read
them; a change from Z to F_p reads the Z ones over F_p. The audit of an
index cut works in the whole complex's Tot, and assembles or builds no
sub or quotient complex."""

import contextlib
import io
import random

import pytest
from support import padded_degrees, random_twisted

from mbflow import _fplinalg, flowcat, homalg, twisted
from mbflow.cli import fixture_bytes, main, parse_category
from mbflow.flowcat import category_with_ring, realize
from mbflow.homalg import F2, ZZ, CoefficientRing, IntegerMatrix, homology
from mbflow.twisted import (
    _FieldFrame,
    index_split,
    quotient_sequence,
    spectral_sequence,
    totalize,
    validate,
)

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
    # the F_2 realization is the validated Z one, read over F_2
    (["homology", "@cpn_act_2", "--ring", "Fp:2"], 1),
    (["check-ineq", "@sphere_z2"], 1),
    (["check-ineq", "@borel_free_circle_3", "--equivariant",
      "--cutoff", "5"], 1),
    (["ss", "@borel_free_circle_3", "--field", "2"], 1),
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
    # the audit reads the sub and the quotient as windows of Tot(t)
    assert counts["assemble"].per_object() == [1]
    assert counts["dd"].per_object() == [1]


class Eliminations:
    """reduced: the shape of each matrix given to the column reduction,
    in order, with the prime it reduces mod (None: over Q); ranked: each
    matrix given to rank, with its prime."""

    def __init__(self):
        self.reduced: list[tuple] = []
        self.ranked: list[tuple] = []


@pytest.fixture
def reductions(monkeypatch):
    made = Eliminations()
    reduce_columns, rank = _fplinalg.reduce_columns, _fplinalg.rank

    def reduced(a, p):
        made.reduced.append((a.rows, a.cols, p))
        return reduce_columns(a, p)

    def ranked(a, p):
        made.ranked.append((a, p))
        return rank(a, p)
    monkeypatch.setattr(_fplinalg, "reduce_columns", reduced)
    monkeypatch.setattr(_fplinalg, "rank", ranked)
    return made


def _audit_every_cut(t):
    for p in range(min(t.pieces) - 1, max(t.pieces) + 1):
        assert quotient_sequence(t, p).audit.exact


def test_integral_quotient_sequence_reduces_once(reductions):
    # the audits at every cut read one column reduction over Q of each
    # nonzero D_n, kept on Tot
    t = realize(parse_category(fixture_bytes("borel_free_circle_3")))
    _audit_every_cut(t)
    assert reductions.reduced == [(d.rows, d.cols, t.ring.p)
                                  for d in t._tot.differentials.values()]


def test_field_quotient_sequence_reduces_nothing(reductions):
    # nothing beyond the column reductions kept on Tot
    t = random_twisted(random.Random(7), F3)
    _audit_every_cut(t)
    assert reductions.reduced == [(d.rows, d.cols, t.ring.p)
                                  for d in t._tot.differentials.values()]


def test_field_audits_and_spectral_sequence_reduce_tot_once(reductions):
    # the spectral sequence and the audits at every cut read one column
    # reduction of each nonzero D_n, kept on Tot
    t = random_twisted(random.Random(6), F3, max_generators=14,
                       max_pieces=5)
    assert len(t.pieces) == 5 and len(t.structure_maps) == 3
    assert spectral_sequence(t, 4).pages
    _audit_every_cut(t)
    assert reductions.reduced == [(d.rows, d.cols, t.ring.p)
                                  for d in t._tot.differentials.values()]


def test_ring_change_builds_each_totalization_once(counts, reductions):
    # the F_2 realization of a Z file is its validated Z one, read over
    # F_2, and Tot is reduced once, mod 2, for the spectral sequence and
    # the audits at every cut; the Z Tot is never reduced over Q
    f = parse_category(fixture_bytes("borel_free_circle_3"))
    t = realize(category_with_ring(f, F2))
    assert spectral_sequence(t, 4).pages
    _audit_every_cut(t)
    assert counts["realize"].per_object() == [1]
    assert counts["assemble"].per_object() == [1]
    assert counts["dd"].per_object() == [1]
    assert reductions.reduced == [(d.rows, d.cols, 2)
                                  for d in t._tot.differentials.values()]


@pytest.mark.parametrize("argv", [
    ["homology", "@borel_free_circle_3", "--ring", "Fp:2"],
    ["ss", "@borel_free_circle_3", "--field", "2"],
])
def test_fp_command_reduces_tot_once_and_ranks_none_of_it(
        counts, reductions, argv):
    # F_p homology, the spectral sequence and its E-infinity audit read
    # one column reduction of each nonzero D_n of the F_2 Tot, which is
    # the Z one read over F_2; rank sees only the pages' differentials
    argv = [fixture_path(a[1:]) if a.startswith("@") else a for a in argv]
    assert run(argv) == 0
    [(t, _)] = counts["assemble"].calls.values()
    stored = list(t._tot.differentials.values())
    assert len(stored) == 3
    assert reductions.reduced == [(d.rows, d.cols, 2) for d in stored]
    # no D_n of Tot is ranked, nor a zero matrix such as a missing D_n
    assert not [m for m, _ in reductions.ranked
                if not m.entries or any(m is d for d in stored)]


def test_ss_command_ranks_each_page_differential_once(reductions):
    # the page-turn audit and the printed table read the ranks kept on
    # each page
    argv = ["ss", fixture_path("borel_free_circle_3"), "--field", "2"]
    assert run(argv) == 0
    ranked = [m for m, _ in reductions.ranked]
    assert len(ranked) == 3
    assert len({id(m) for m in ranked}) == 3


def test_homology_and_frame_share_one_reduction(reductions):
    c = totalize(random_twisted(random.Random(7), F3))
    assert c.differential
    homology(c)
    _FieldFrame(c)
    assert reductions.reduced == [(d.rows, d.cols, 3)
                                  for d in c.differential.values()]
    assert reductions.ranked == []


def test_cone_command_builds_the_cone_once(monkeypatch):
    built = []
    orig = twisted._mapping_cone

    def counted(m):
        built.append(m)
        return orig(m)
    monkeypatch.setattr(twisted, "_mapping_cone", counted)
    argv = ["cone"] + [fixture_path(name) for name in
                       ("s2_two_point", "sphere_z2", "continuation_s2")]
    assert run(argv) == 0
    assert len(built) == 1


def _block(m, rows, cols):
    """The block of m on the given row and column ranges."""
    return IntegerMatrix(len(rows), len(cols), {
        (i - rows.start, j - cols.start): v for (i, j), v in m.entries.items()
        if i in rows and j in cols})


@pytest.mark.parametrize("ring", [ZZ, F3])
def test_split_matches_totalized_sub_and_quotient(ring):
    # the prefix and suffix blocks of Tot's D_n are the differentials of
    # the totalized twisted sub and quotient, and D_n maps no prefix cell
    # into the suffix
    rng = random.Random(7)
    for _ in range(25):
        t = random_twisted(rng, ring)
        lay = t._tot
        for p in range(min(t.pieces) - 1, max(t.pieces) + 1):
            sub, quot = (totalize(s) for s in index_split(t, p))
            for n in padded_degrees(lay.ranks):
                s0, s1 = lay.prefix_dim(n - 1, p), lay.prefix_dim(n, p)
                r0, r1 = lay.ranks.get(n - 1, 0), lay.ranks.get(n, 0)
                assert (sub.dim(n), quot.dim(n)) == (s1, r1 - s1)
                d = lay.d(n)
                assert _block(d, range(s0), range(s1)) == sub.d(n)
                assert _block(d, range(s0, r0), range(s1, r1)) == quot.d(n)
                assert _block(d, range(s0, r0), range(s1)).is_zero()


@pytest.mark.parametrize("ring", [ZZ, F3])
def test_quotient_sequence_builds_no_complex_per_cut(monkeypatch, ring):
    # once Tot is built, the audit at every cut works in its coordinates
    t = random_twisted(random.Random(6), ring, max_generators=14,
                       max_pieces=5)
    totalize(t)
    built = []
    # every constructor checks shapes, also those that square nothing
    orig = homalg.GradedChainComplex._check_shapes

    def counted(self):
        built.append(self)
        orig(self)
    monkeypatch.setattr(homalg.GradedChainComplex, "_check_shapes", counted)
    cuts = range(min(t.pieces) - 1, max(t.pieces) + 1)
    assert len(cuts) > 3
    for p in cuts:
        assert quotient_sequence(t, p).audit.exact
    assert built == []


def test_validate_and_totalize_share_one_value(counts):
    t = realize(parse_category(fixture_bytes("torus_flat")))
    assert validate(t).valid
    assert totalize(t) is totalize(t)
    assert counts["assemble"].per_object() == [1]
    assert counts["dd"].per_object() == [1]
