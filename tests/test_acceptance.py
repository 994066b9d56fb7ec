"""End-to-end acceptance checks, one criterion per test.

Each test prints a single line

    CRITERION k: PASS - <what was verified> (<seconds>)

on success (run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they happen; without -s pytest shows them only on failure).
Criteria with a stated runtime budget fail when the budget is exceeded.
A budget is stated for a reference host and scaled by the speed of a
fixed pure-Python loop timed in the same process (support.budget_seconds),
so a machine that is slower or busy at the time does not fail it for
that alone.
All expected values come from sources independent of the code under
test: textbook cellular homology, convolution cell counts, a Pascal
recurrence, brute-force minor enumeration, the closed-form
homology of triangulated surfaces, and the benchmark's mbflow-free
generator and rank oracle (perfbench/gen.py, perfbench/oracle.py).
"""

import itertools
import json
import math
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from support import budget_seconds, grid_surface, random_twisted

from mbflow.cli import parse_category
from mbflow.examples import (
    continuation_s2,
    cp_circle_model,
    cpn_act,
    free_circle_borel,
    homotopy_square_fixture,
    rp2,
    s2_rotation_borel,
    s2_two_point,
    schubert_indices,
    sphere_z2,
    standard_fixtures,
    torus_flat,
)
from mbflow.flowcat import (
    BimoduleData,
    FlowCategoryData,
    FlowObject,
    RelativeModuleData,
    bimodule_to_map,
    category_homology,
    dualize,
    include_and_quotient,
    realize,
    relative_map,
    shift_category,
)
from mbflow.homalg import (
    F2,
    ZZ,
    IntegerMatrix,
    LaurentPoly,
    complex_from_ranks,
    homology,
    smith_normal_form,
)
from mbflow.inequalities import (
    equivariant_inequality,
    mb_inequality,
    twisted_inequality,
)
from mbflow.twisted import (
    cone,
    morphism_total_matrix,
    quotient_sequence,
    spectral_sequence,
    totalize,
    verify_homotopy_square,
)


@contextmanager
def criterion(k, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {k}: FAIL - {label}")
        raise
    dt = time.perf_counter() - t0
    # a budget is scaled by a reference loop timed now
    limit = None if budget is None else budget_seconds(budget)
    if limit is not None and dt >= limit:
        print(f"CRITERION {k}: FAIL - {label} ({dt:.2f} s over "
              f"the {limit:.2f} s budget)")
        raise AssertionError(f"criterion {k} took {dt:.2f} s, "
                             f"budget {limit:.2f} s")
    print(f"CRITERION {k}: PASS - {label} ({dt:.2f} s)")


# textbook cellular homology of the underlying manifolds:
# (free ranks, torsion factors) over Z
CELLULAR = {
    "s2_two_point": ({0: 1, 2: 1}, {}),
    "sphere_z2": ({0: 1, 2: 1}, {}),
    "torus_flat": ({0: 1, 1: 2, 2: 1}, {}),
    "rp2": ({0: 1}, {1: (2,)}),
}
for _n in range(5):
    CELLULAR[f"cpn_act_{_n}"] = ({2 * i: 1 for i in range(_n + 1)}, {})

MANIFOLD_BUILDERS = {
    "s2_two_point": s2_two_point,
    "sphere_z2": sphere_z2,
    "torus_flat": torus_flat,
    "rp2": rp2,
    **{f"cpn_act_{n}": (lambda n=n: lambda ring: cpn_act(n, ring))()
       for n in range(5)},
}


def f2_dims_from_integral(free, torsion):
    # universal coefficients: each Z/2^k factor contributes to the two
    # adjacent degrees over F_2, odd torsion to neither
    dims = Counter(free)
    for n, factors in torsion.items():
        for f in factors:
            if f % 2 == 0:
                dims[n] += 1
                dims[n + 1] += 1
    return {n: d for n, d in dims.items() if d}


def test_criterion_01_realization_recovers_cellular_homology():
    with criterion(1, "H(Tot(realize)) matches cellular homology on all "
                      "manifold fixtures, Z and F2", budget=1.0):
        for name, build in MANIFOLD_BUILDERS.items():
            free, torsion = CELLULAR[name]
            h = category_homology(build(ZZ))
            assert dict(h.free) == free, name
            assert dict(h.torsion_factors) == torsion, name
            h2 = category_homology(build(F2))
            assert dict(h2.free) == f2_dims_from_integral(free, torsion), name
            assert not h2.torsion_factors, name


def test_criterion_02_dual_swaps_homology_and_cohomology():
    with criterion(2, "dualize gives H_n(dual) = H^{-n}, with the "
                      "universal-coefficient check on rp2 over F2",
                   budget=1.0):
        for name, build in MANIFOLD_BUILDERS.items():
            if name == "rp2":
                continue
            free, torsion = CELLULAR[name]
            assert not torsion
            hd = category_homology(dualize(build(ZZ)))
            # torsion-free manifolds: H^n has the same ranks as H_n
            assert dict(hd.free) == {-n: r for n, r in free.items()}, name
            assert not hd.torsion_factors, name
        free, torsion = CELLULAR["rp2"]
        hd2 = category_homology(dualize(rp2(F2)))
        want = {-n: d
                for n, d in f2_dims_from_integral(free, torsion).items()}
        assert dict(hd2.free) == want
        # the Z-level dual sees the torsion shift directly
        hdz = category_homology(dualize(rp2(ZZ)))
        assert dict(hdz.free) == {0: 1}
        assert dict(hdz.torsion_factors) == {-2: (2,)}


def test_criterion_03_morse_bott_inequalities():
    with criterion(3, "preceq bound on every fixture, equality on the "
                      "torus, witness t on sphere_z2, and 1000 random "
                      "twisted complexes over F2", budget=10.0):
        for ring in (ZZ, F2):
            for name, f in standard_fixtures(ring):
                rep = mb_inequality(f)
                assert rep.holds, (name, str(ring))
            assert mb_inequality(torus_flat(ring)).is_equality()
            rep = mb_inequality(sphere_z2(ring))
            assert rep.witness == LaurentPoly({1: 1})
            assert not rep.is_equality()
        rng = random.Random(20260818)
        for _ in range(1000):
            t = random_twisted(rng, F2, max_generators=12)
            assert twisted_inequality(t).holds


def test_criterion_04_quotient_sequences_are_exact():
    with criterion(4, "long exact sequence audit and realize/split "
                      "commutation for every index cut of every fixture",
                   budget=2.0):
        for ring in (ZZ, F2):
            for name, f in standard_fixtures(ring):
                t = realize(f)
                for p in sorted({o.index for o in f.objects}):
                    qs = quotient_sequence(t, p)
                    assert qs.audit.exact, (name, str(ring), p)
                    subset = [o.name for o in f.objects if o.index <= p]
                    sub, quot = include_and_quotient(f, subset)
                    assert realize(sub) == qs.sub, (name, p)
                    assert realize(quot) == qs.quotient, (name, p)


def test_criterion_05_shift_invariance():
    with criterion(5, "H(Tot) unchanged under shift_category for "
                      "a in [-5, 5] on all fixtures"):
        for ring in (ZZ, F2):
            for name, f in standard_fixtures(ring):
                base = category_homology(f)
                for a in range(-5, 6):
                    assert category_homology(shift_category(f, a)) == base, \
                        (name, str(ring), a)


def identity_bimodule(f):
    blocks = {}
    for o in f.objects:
        fam = {m: IntegerMatrix.identity(o.chain.dim(m))
               for m in o.chain.rank if o.chain.dim(m)}
        blocks[(o.name, o.name)] = fam
    return BimoduleData(f, f, blocks)


def test_criterion_06_bimodules_and_homotopy_squares():
    with criterion(6, "identity-bimodule cones acyclic, continuation "
                      "map a homology isomorphism, homotopy square "
                      "verified and its perturbation rejected"):
        for ring in (ZZ, F2):
            for name, f in standard_fixtures(ring):
                m = bimodule_to_map(identity_bimodule(f))
                assert homology(totalize(cone(m))).is_trivial(), \
                    (name, str(ring))
        b = continuation_s2()
        m = bimodule_to_map(b)
        assert homology(totalize(cone(m))).is_trivial()
        assert category_homology(b.source) == category_homology(b.target)
        assert verify_homotopy_square(homotopy_square_fixture()).holds
        bad = verify_homotopy_square(homotopy_square_fixture(perturbed=True))
        assert not bad.holds


def test_criterion_07_relative_modules():
    with criterion(7, "tautological module is the identity on the nose, "
                      "standard s2 module a quasi-isomorphism onto the "
                      "cellular sphere"):
        circle = complex_from_ranks(ZZ, {0: 1, 1: 1})
        base = FlowCategoryData(ZZ, (FlowObject("x", 3, 5, circle),))
        rm = RelativeModuleData(
            base=base,
            target_space_chain=circle,
            twist_rank=5,
            blocks={"x": {0: IntegerMatrix.identity(1),
                          1: IntegerMatrix.identity(1)}},
        )
        res = relative_map(rm)
        assert res.quasi_isomorphism
        assert res.source_homology == res.target_homology
        for n in (3, 4):
            total = morphism_total_matrix(res.morphism, n)
            assert total == IntegerMatrix.identity(total.rows)

        rm2 = RelativeModuleData(
            base=s2_two_point(),
            target_space_chain=complex_from_ranks(ZZ, {0: 1, 2: 1}),
            twist_rank=0,
            blocks={"a": {0: IntegerMatrix.identity(1)},
                    "b": {0: IntegerMatrix.identity(1)}},
        )
        res2 = relative_map(rm2)
        assert res2.quasi_isomorphism
        assert dict(res2.target_homology.free) == {0: 1, 2: 1}


def borel_sphere_cell_oracle(levels):
    # the associated bundle has one cell per (CP^levels cell, fiber cell)
    # pair; every product cell is even-dimensional, so homology equals
    # the cell count in each degree
    counts = Counter()
    for a in range(0, 2 * levels + 1, 2):
        for b in (0, 2):
            counts[a + b] += 1
    return dict(counts)


def test_criterion_08_equivariant_models():
    with criterion(8, "circle Borel models give odd spheres, the "
                      "rotation model matches the cell-count oracle, "
                      "and the truncated bound is sharp exactly on it",
                   budget=5.0):
        for n in range(5):
            h = category_homology(cp_circle_model(n))
            assert dict(h.free) == {0: 1, 2 * n + 1: 1}, n
            assert not h.torsion_factors, n
        h = category_homology(s2_rotation_borel(3))
        assert dict(h.free) == borel_sphere_cell_oracle(3)
        assert [h.free_rank(d) for d in range(5)] == [1, 0, 2, 0, 2]
        rep = equivariant_inequality(s2_rotation_borel(3), 4)
        assert rep.holds and rep.is_equality()
        rep_free = equivariant_inequality(free_circle_borel(3), 3)
        assert rep_free.holds and not rep_free.is_equality()


def gaussian_binomial(n, k, _cache={}):
    # t-Pascal recurrence, independent of the enumeration under test
    if k in (0, n):
        return LaurentPoly.one()
    if (n, k) not in _cache:
        _cache[(n, k)] = gaussian_binomial(n - 1, k - 1) + \
            LaurentPoly.t_power(k) * gaussian_binomial(n - 1, k)
    return _cache[(n, k)]


def test_criterion_09_schubert_generating_polynomials():
    with criterion(9, "Schubert index generating polynomials equal "
                      "Gaussian binomials for all k <= n <= 8",
                   budget=1.0):
        for n in range(1, 9):
            for k in range(1, n + 1):
                got = LaurentPoly.from_coeffs(
                    Counter(schubert_indices(k, n)))
                assert got == gaussian_binomial(n, k), (k, n)
                assert len(schubert_indices(k, n)) == math.comb(n, k)


def test_criterion_10_spectral_sequence():
    with criterion(10, "E1 is piece homology, E-infinity adds up to "
                       "H(Tot), and both small fixtures collapse on "
                       "page 1 over F2"):
        for name, f in standard_fixtures(F2):
            t = realize(f)
            idx = t.indices()
            width = (idx[-1] - idx[0]) if idx else 0
            ss = spectral_sequence(t, max(2, width + 1))
            htot = homology(totalize(t))
            for n in set(ss.limit) | set(htot.free):
                assert ss.limit.get(n, 0) == htot.free_rank(n), (name, n)
            page1 = ss.pages[0]
            assert page1.number == 1
            want = {}
            for p in idx:
                hp = homology(t.piece(p))
                for q, d in hp.free.items():
                    want[(p, q)] = d
            got = {pq: d for pq, d in page1.dims.items() if d}
            assert got == want, name

        for build, limit in ((torus_flat, {0: 1, 1: 2, 2: 1}),
                             (rp2, {0: 1, 1: 1, 2: 1})):
            ss = spectral_sequence(realize(build(F2)), 4)
            assert ss.collapsed_at == 1
            assert {n: d for n, d in ss.limit.items() if d} == limit


def brute_minor_gcd(rows, k):
    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] *
                   det([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))

    g = 0
    for ri in itertools.combinations(range(len(rows)), k):
        for ci in itertools.combinations(range(len(rows[0])), k):
            g = math.gcd(g, det([[rows[i][j] for j in ci] for i in ri]))
    return g


def test_criterion_11_kernel_correctness():
    with criterion(11, "Smith form invariant factors match brute-force "
                       "minor gcds, preceq is a partial order on the "
                       "full coefficient grid", budget=30.0):
        rng = random.Random(4220)
        for _ in range(10_000):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(c)]
                    for _ in range(r)]
            diagonal, rank = smith_normal_form(
                IntegerMatrix.from_rows(rows, c))
            prod = 1
            for k in range(1, min(r, c) + 1):
                dk = diagonal[k - 1] if k - 1 < len(diagonal) else 0
                prod *= dk
                assert prod == brute_minor_gcd(rows, k), (rows, diagonal)
            assert rank == len(diagonal)

        # every polynomial with support in [0, 4] and coefficients in
        # [0, 3]; the relation matrix is checked as a partial order
        from mbflow.homalg import preceq

        grid = [LaurentPoly.from_coeffs({e: c for e, c in enumerate(t) if c})
                for t in itertools.product(range(4), repeat=5)]
        m = len(grid)
        rel = np.zeros((m, m), dtype=bool)
        for i, p in enumerate(grid):
            for j, q in enumerate(grid):
                rel[i, j] = preceq(p, q).holds
        assert rel.diagonal().all(), "reflexivity"
        sym = rel & rel.T
        assert (sym == np.eye(m, dtype=bool)).all(), "antisymmetry"
        closure = (rel.astype(np.uint8) @ rel.astype(np.uint8)) > 0
        assert not (closure & ~rel).any(), "transitivity"
        vals = np.array([p.evaluate(-1) for p in grid])
        same_euler = np.equal.outer(vals, vals)
        assert not (rel & ~same_euler).any(), "preceq preserves P(-1)"


def test_criterion_12_triangulated_surfaces():
    torus = ({0: 1, 1: 2, 2: 1}, {})
    klein = ({0: 1, 1: 1}, {1: (2,)})
    for n in (8, 12):
        for k, want in ((False, torus), (True, klein)):
            h = homology(grid_surface(n, klein=k))
            assert (dict(h.free), dict(h.torsion_factors)) == want, (n, k)
    c = grid_surface(12)
    assert c.total_dim() == 864
    with criterion(12, "integer homology of the 12 x 12 triangulated "
                       "torus (864 cells) is Z, Z^2, Z", budget=3.0):
        h = homology(c)
        assert (dict(h.free), dict(h.torsion_factors)) == torus


def test_criterion_13_borel_model_of_the_rotated_torus():
    # the benchmark's Borel model of the 10 x 10 torus rotated along its
    # loop: each level link sends every vertex to minus the loop, a dense
    # unit block that the reduction must not re-queue entry by entry
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    try:
        import gen
        import oracle
    finally:
        sys.path.pop(0)
    cat = gen.borel_surface(10, 2)
    want = {1: 1, 6: 1}
    ranks = oracle.Tot(cat)
    # equal ranks over Q, F_2 and F_3: free of 2- and 3-torsion
    assert ranks.betti(0) == ranks.betti(2) == ranks.betti(3) == want
    data = json.dumps(gen.to_json(cat)).encode()
    with criterion(13, "integer homology of the Borel model of the "
                       "rotated 10 x 10 torus (1,806 cells) is Z in "
                       "degrees 1 and 6", budget=1.5):
        c = totalize(realize(parse_category(data)))
        assert c.total_dim() == 1806
        h = homology(c)
        assert (dict(h.free), dict(h.torsion_factors)) == (want, {})
