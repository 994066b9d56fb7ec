"""Seeded input generator for the benchmark, written without mbflow.

Every input is a flow category held as plain Python data: objects with
an index, a framing rank and a cellular chain (ranks plus sparse
differentials), and correspondences carrying sparse blocks. `to_json`
writes the category in mbflow's file format (dense row-major matrices),
so the program under test only ever sees generated files.

The seed acts in one way only: each object's cell basis is replaced,
degree by degree, by a seeded signed permutation, and every matrix that
touches the object is conjugated to match. Sizes do not depend on the
seed and every homology oracle is invariant under it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Sparse = dict  # (row, col) -> nonzero int


@dataclass
class Chain:
    ranks: list[int]
    diffs: dict[int, Sparse] = field(default_factory=dict)  # d_n: n -> n-1

    def dim(self, n: int) -> int:
        return self.ranks[n] if 0 <= n < len(self.ranks) else 0


@dataclass
class Obj:
    name: str
    index: int
    framing: int
    chain: Chain


@dataclass
class Corr:
    source: str
    target: str
    blocks: dict[int, Sparse]  # chain degree m of source -> sparse block


@dataclass
class Category:
    objects: list[Obj]
    corrs: list[Corr] = field(default_factory=list)
    ring: str = "Z"
    borel: tuple[int, tuple[str, ...]] | None = None

    def obj(self, name: str) -> Obj:
        return next(o for o in self.objects if o.name == name)


def corr_shift(cat: Category, c: Corr) -> int:
    return cat.obj(c.source).framing - cat.obj(c.target).framing - 1


# ---------------------------------------------------------------------------
# triangulated surfaces


@dataclass
class Surface:
    """A Delta-complex on the n x n grid of a torus or Klein bottle."""

    chain: Chain
    loop: list[int]          # edges of one horizontal loop (orbit direction)
    wrap_edges: list[int]    # edges crossing row n-1 -> 0 (dual cocycle)
    fundamental: Sparse      # 2-chain [T] as {face: coeff} (torus only)


def surface(kind: str, n: int) -> Surface:
    """Triangulated n x n torus ("T") or Klein bottle ("K").

    Vertices, horizontal (H), vertical (V) and diagonal (D) edges and
    lower (L) and upper (U) triangles are indexed row by row. The Klein
    bottle glues x = n to x = 0 with y reversed, so vertical edges on
    that seam enter with sign -1.
    """
    if kind not in ("T", "K") or n < 2:
        raise ValueError(f"bad surface {kind}{n}")
    nn = n * n

    def vert(x: int, y: int) -> int:
        if x == n:
            x, y = 0, (n - y) % n if kind == "K" else y
        return (y % n) * n + x

    def h(x: int, y: int) -> tuple[int, int]:
        return (y % n) * n + x, 1

    def v(x: int, y: int) -> tuple[int, int]:
        if x == n:
            if kind == "K":
                return nn + (n - y - 1) * n, -1
            x = 0
        return nn + y * n + x, 1

    def d(x: int, y: int) -> tuple[int, int]:
        return 2 * nn + y * n + x, 1

    d1: Sparse = {}

    def add(m: Sparse, r: int, c: int, val: int) -> None:
        s = m.get((r, c), 0) + val
        if s:
            m[(r, c)] = s
        else:
            m.pop((r, c), None)

    for y in range(n):
        for x in range(n):
            for (e, _), (a, b) in (
                    (h(x, y), ((x, y), (x + 1, y))),
                    (v(x, y), ((x, y), (x, y + 1))),
                    (d(x, y), ((x, y), (x + 1, y + 1)))):
                add(d1, vert(*b), e, 1)
                add(d1, vert(*a), e, -1)
    d2: Sparse = {}
    for y in range(n):
        for x in range(n):
            low, up = y * n + x, nn + y * n + x
            for (e, s), c in ((v(x + 1, y), 1), (d(x, y), -1), (h(x, y), 1)):
                add(d2, e, low, s * c)
            for (e, s), c in ((h(x, y + 1), 1), (d(x, y), -1), (v(x, y), 1)):
                add(d2, e, up, s * c)
    chain = Chain([nn, 3 * nn, 2 * nn], {1: d1, 2: d2})
    loop = [h(x, 0)[0] for x in range(n)]
    wrap = [v(x, n - 1)[0] for x in range(n)] + \
        [d(x, n - 1)[0] for x in range(n)]
    fundamental = {}
    if kind == "T":
        fundamental = {f: (1 if f < nn else -1) for f in range(2 * nn)}
    check_chain(chain)
    # count the cells the gluing actually uses: V - E + F must be 0
    used_v = {r for r, _ in d1}
    used_e = {c for _, c in d1} | {r for r, _ in d2}
    used_f = {c for _, c in d2}
    if len(used_v) - len(used_e) + len(used_f) != 0:
        raise AssertionError(f"Euler characteristic of {kind}{n} is not 0")
    return Surface(chain, loop, wrap, fundamental)


def check_chain(c: Chain) -> None:
    """d.d = 0 and entries inside the declared shapes."""
    for n, m in c.diffs.items():
        for (r, col) in m:
            if not (0 <= r < c.dim(n - 1) and 0 <= col < c.dim(n)):
                raise AssertionError(f"entry ({r},{col}) outside d_{n}")
    for n in c.diffs:
        if n + 1 in c.diffs and spmul(c.diffs[n], c.diffs[n + 1]):
            raise AssertionError(f"d.d != 0 out of degree {n + 1}")


def spmul(a: Sparse, b: Sparse) -> Sparse:
    by_row: dict[int, list[tuple[int, int]]] = {}
    for (k, j), v in b.items():
        by_row.setdefault(k, []).append((j, v))
    out: Sparse = {}
    for (i, k), u in a.items():
        for j, v in by_row.get(k, ()):
            s = out.get((i, j), 0) + u * v
            if s:
                out[(i, j)] = s
            else:
                out.pop((i, j), None)
    return out


def circle() -> Chain:
    return Chain([1, 1])


def point() -> Chain:
    return Chain([1])


# ---------------------------------------------------------------------------
# categories


def sigma_cross_circle(kind: str, n: int) -> Category:
    """Sigma x S^1: Sigma at index 0 and again at index 1 (framing = index),
    no trajectories, so Tot is C(Sigma) (+) C(Sigma)[1]."""
    s = surface(kind, n).chain
    return Category([Obj("S0", 0, 0, s), Obj("S1", 1, 1, _copy(s))])


def borel_surface(n: int, levels: int) -> Category:
    """Truncated Borel product of the torus rotated along its loop.

    Fiber: the n x n torus T at index 0 and an orbit circle O at index 1
    with the orbit link O -> T (vertex to vertex 0, edge to the loop).
    Level links: O@k -> O@k-1 pairs the vertex with the edge; T@k -> T@k-1
    sends every vertex to minus the loop and every seam-crossing edge to
    the fundamental cycle. D.D = 0 holds on the nose, d_2 is nonzero,
    and the index spectral sequence collapses at page 3.
    """
    surf = surface("T", n)
    nv = surf.chain.ranks[0]
    objects, corrs = [], []
    for k in range(levels + 1):
        objects.append(Obj(f"T@{k}", 2 * k, 2 * k, _copy(surf.chain)))
        objects.append(Obj(f"O@{k}", 2 * k + 1, 2 * k + 1, circle()))
        corrs.append(Corr(f"O@{k}", f"T@{k}", {
            0: {(0, 0): 1},
            1: {(e, 0): 1 for e in surf.loop}}))
    for k in range(1, levels + 1):
        corrs.append(Corr(f"O@{k}", f"O@{k - 1}", {0: {(0, 0): 1}}))
        link0 = {(e, vtx): -1 for e in surf.loop for vtx in range(nv)}
        link1 = {(f, e): c for e in surf.wrap_edges
                 for f, c in surf.fundamental.items()}
        corrs.append(Corr(f"T@{k}", f"T@{k - 1}", {0: link0, 1: link1}))
    return Category(objects, corrs, "Z", (levels, ("T", "O")))


def morse_surface(kind: str, n: int) -> Category:
    """Cellular Morse category: one point object per cell (index and
    framing = cell dimension), incidences as 1x1 correspondences."""
    s = surface(kind, n).chain
    names = {(k, i): f"c{k}_{i}" for k in range(3) for i in range(s.dim(k))}
    objects = [Obj(names[k, i], k, k, point())
               for k in range(3) for i in range(s.dim(k))]
    corrs = [Corr(names[k, c], names[k - 1, r], {0: {(0, 0): v}})
             for k in (1, 2) for (r, c), v in sorted(s.diffs[k].items())]
    return Category(objects, corrs)


def flip_one_sign(cat: Category, rng: random.Random) -> Category:
    """Negate one edge -> vertex incidence, which breaks D.D = 0 on every
    face containing the edge."""
    picks = [i for i, c in enumerate(cat.corrs) if c.source.startswith("c1_")]
    i = rng.choice(picks)
    c = cat.corrs[i]
    flipped = Corr(c.source, c.target, {0: {(0, 0): -c.blocks[0][(0, 0)]}})
    return Category(cat.objects, cat.corrs[:i] + [flipped] +
                    cat.corrs[i + 1:], cat.ring)


def cpn_act(levels: int) -> Category:
    """CP^N with action-ordered index: points at index i, framing 2i."""
    return Category([Obj(f"c{i}", i, 2 * i, point())
                     for i in range(levels + 1)])


def free_circle_borel(levels: int) -> Category:
    """Borel model of S^1 rotating freely: orbit circles at index and
    framing 2k with degree-one links, totalizing to S^{2N+1}."""
    objects = [Obj(f"orbit@{k}", 2 * k, 2 * k, circle())
               for k in range(levels + 1)]
    corrs = [Corr(f"orbit@{k}", f"orbit@{k - 1}", {0: {(0, 0): 1}})
             for k in range(1, levels + 1)]
    return Category(objects, corrs, "Z", (levels, ("orbit",)))


def s2_rotation_borel(levels: int) -> Category:
    """Borel model of S^2 rotating about its axis: poles n (index 0) and
    s (index 2) repeated at every level, no trajectories."""
    objects = []
    for k in range(levels + 1):
        objects.append(Obj(f"n@{k}", 2 * k, 2 * k, point()))
        objects.append(Obj(f"s@{k}", 2 + 2 * k, 2 + 2 * k, point()))
    return Category(objects, [], "Z", (levels, ("n", "s")))


def random_twisted(rng: random.Random, max_generators: int,
                   max_pieces: int) -> Category:
    """A random valid twisted complex as a category, one object per piece
    (index = framing = piece, so realization is the identity).

    Generators are scattered over pieces and internal degrees 0..2 and
    each new boundary is a random +-1 combination of rational kernel
    vectors of the differential built so far, restricted to pieces a
    structure map may reach. D.D = 0 holds by construction over Z.
    """
    n_gens = rng.randint(1, max_generators)
    gens = sorted((rng.randrange(max_pieces), rng.randrange(3))
                  for _ in range(n_gens))
    basis: dict[int, list[tuple[int, int]]] = {}
    for g in gens:
        basis.setdefault(g[0] + g[1], []).append(g)
    columns: dict[int, list[list[int]]] = {}

    def kernel(n: int, bound: int) -> tuple[list[int], list[list[int]]]:
        rows_b = basis.get(n - 1, [])
        idx = [j for j, g in enumerate(basis.get(n, [])) if g[0] <= bound]
        if not rows_b:
            return idx, [[int(a == b) for a in range(len(idx))]
                         for b in range(len(idx))]
        cols = [columns[n][j] for j in idx]
        return idx, integer_kernel([[c[i] for c in cols]
                                    for i in range(len(rows_b))], len(idx))

    for n in sorted(basis):
        below = basis.get(n - 1, [])
        cols_here = []
        for piece, _ in basis[n]:
            target = [0] * len(below)
            if below:
                idx, kern = kernel(n - 1, piece)
                for vec in kern:
                    if rng.random() < 0.5:
                        continue
                    c = rng.choice((-1, 1))
                    for j, x in zip(idx, vec):
                        target[j] += c * x
            cols_here.append(target)
        columns[n] = cols_here

    pieces = sorted({g[0] for g in gens})
    ranks = {p: [0, 0, 0] for p in pieces}
    pos: dict[tuple[int, int, int], int] = {}  # (n, position) -> local
    for n, lst in basis.items():
        for j, (p, m) in enumerate(lst):
            pos[(n, j)] = ranks[p][m]
            ranks[p][m] += 1
    diffs: dict[int, dict[int, Sparse]] = {p: {} for p in pieces}
    deltas: dict[tuple[int, int], dict[int, Sparse]] = {}
    for n, cols_here in columns.items():
        for j, (pi, mi) in enumerate(basis[n]):
            for i, val in enumerate(cols_here[j]):
                if not val:
                    continue
                pj, _ = basis[n - 1][i]
                key = (pos[(n - 1, i)], pos[(n, j)])
                if pj == pi:
                    diffs[pi].setdefault(mi, {})[key] = val
                else:
                    deltas.setdefault((pi, pj), {}).setdefault(mi, {})[key] = val
    objects = []
    for p in pieces:
        r = ranks[p]
        while r and r[-1] == 0:
            r = r[:-1]
        objects.append(Obj(f"p{p}", p, p, Chain(list(r), diffs[p])))
    present = {o.index for o in objects}
    corrs = [Corr(f"p{i}", f"p{j}", fam) for (i, j), fam in sorted(deltas.items())
             if i in present and j in present]
    return Category(objects, corrs)


def integer_kernel(a: list[list[int]], cols: int) -> list[list[int]]:
    """Integer vectors spanning ker(a) over Q (fraction-free elimination,
    denominators cleared)."""
    from fractions import Fraction
    from math import lcm

    m = [[Fraction(x) for x in row] for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    out = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        den = lcm(*(x.denominator for x in vec))
        out.append([int(x * den) for x in vec])
    return out


def _copy(c: Chain) -> Chain:
    return Chain(list(c.ranks), {n: dict(m) for n, m in c.diffs.items()})


# ---------------------------------------------------------------------------
# the seeded basis change


def permute(cat: Category, rng: random.Random) -> Category:
    """Conjugate every object's chain, degree by degree, by a seeded signed
    permutation; correspondence blocks follow so D.D = 0 is preserved."""
    perm: dict[tuple[str, int], tuple[list[int], list[int]]] = {}
    for o in cat.objects:
        for k, r in enumerate(o.chain.ranks):
            order = list(range(r))
            rng.shuffle(order)
            perm[(o.name, k)] = (order, [rng.choice((-1, 1)) for _ in range(r)])

    def conj(m: Sparse, row_key, col_key) -> Sparse:
        (rp, rs), (cp, cs) = perm[row_key], perm[col_key]
        return {(rp[i], cp[j]): rs[i] * cs[j] * v for (i, j), v in m.items()}

    objects = [Obj(o.name, o.index, o.framing, Chain(
        list(o.chain.ranks),
        {n: conj(m, (o.name, n - 1), (o.name, n))
         for n, m in o.chain.diffs.items()})) for o in cat.objects]
    corrs = []
    for c in cat.corrs:
        sh = corr_shift(cat, c)
        corrs.append(Corr(c.source, c.target, {
            m: conj(b, (c.target, m + sh), (c.source, m))
            for m, b in c.blocks.items()}))
    return Category(objects, corrs, cat.ring, cat.borel)


# ---------------------------------------------------------------------------
# file format


def _dense(m: Sparse, rows: int, cols: int) -> dict:
    data = [0] * (rows * cols)
    for (i, j), v in m.items():
        data[i * cols + j] = v
    return {"shape": [rows, cols], "data": data}


def to_json(cat: Category) -> dict:
    objs = []
    for o in cat.objects:
        c = o.chain
        objs.append({
            "name": o.name, "index": o.index, "framing_rank": o.framing,
            "orientable": True,
            "chain": {
                "ranks": list(c.ranks),
                "differentials": [
                    {"degree": n, **_dense(c.diffs.get(n, {}), c.dim(n - 1),
                                           c.dim(n))}
                    for n in range(1, len(c.ranks))
                    if c.dim(n) and c.dim(n - 1)],
            },
        })
    corrs = []
    for c in cat.corrs:
        src, dst = cat.obj(c.source), cat.obj(c.target)
        sh = corr_shift(cat, c)
        corrs.append({"from": c.source, "to": c.target, "blocks": [
            {"degree": m, **_dense(b, dst.chain.dim(m + sh), src.chain.dim(m))}
            for m, b in sorted(c.blocks.items())]})
    doc = {"format_version": "1", "ring": cat.ring, "objects": objs,
           "correspondences": corrs}
    if cat.borel is not None:
        doc["borel"] = {"levels": cat.borel[0],
                        "fiber_names": list(cat.borel[1])}
    return doc


def identity_bimodule_json(cat: Category) -> dict:
    """Identity bimodule of a category onto itself."""
    return {"format_version": "1", "blocks": [
        {"from": o.name, "to": o.name, "blocks": [
            {"degree": m, **_dense({(i, i): 1 for i in range(r)}, r, r)}
            for m, r in enumerate(o.chain.ranks) if r]}
        for o in cat.objects]}
