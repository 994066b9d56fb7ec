"""Expected answers computed without mbflow.

Closed forms cover the surfaces and the wide families (Kuenneth and
universal coefficients over the homology of T^2, K and S^1; CP^N and
S^{2N+1}; the Borel cell count). Everything else comes from this
module's own linear algebra on the totalization that `Tot` assembles
from the generated category: ranks over F_2 (bitset elimination) and
over Q (the larger of two ranks modulo 61- and 31-bit primes), and one
persistence reduction over F_2 that yields every page of the index
spectral sequence (Romero, Rubio & Sergeraert 2006).
"""

from __future__ import annotations

from gen import Category, corr_shift

PRIMES = (2305843009213693951, 2147483647)

# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient}


def poly_str_parse(text: str) -> dict[int, int]:
    """Parse mbflow's LaurentPoly rendering, e.g. '1 + 2*t - t^-3'."""
    toks = text.split()
    if toks == ["0"]:
        return {}
    out: dict[int, int] = {}
    for term in [toks[0]] + [s + t for s, t in zip(toks[1::2], toks[2::2])]:
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        coef, star, var = body.partition("*")
        if not star:
            coef, var = ("1", body) if body.startswith("t") else (body, "")
        exp = 0 if not var else 1 if var == "t" else int(var[2:])
        out[exp] = out.get(exp, 0) + sign * int(coef)
    return {e: c for e, c in out.items() if c}


def one_plus_t_quotient(r: dict[int, int]) -> dict[int, int] | None:
    """The unique A with r = (1 + t) A if it has nonnegative coefficients."""
    if not r:
        return {}
    acc, prev = {}, 0
    for d in range(min(r), max(r) + 1):
        a = r.get(d, 0) - prev
        if a < 0:
            return None
        if a:
            acc[d] = a
        prev = a
    return acc if prev == 0 else None


def psub(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# closed-form homology: (free ranks, torsion factors) by degree

Hom = tuple[dict[int, int], dict[int, tuple[int, ...]]]

SURFACE = {"T": ({0: 1, 1: 2, 2: 1}, {}),
           "K": ({0: 1, 1: 1}, {1: (2,)})}
CIRCLE: Hom = ({0: 1, 1: 1}, {})


def kunneth_circle(h: Hom) -> Hom:
    """H(X x S^1) = H(X) (+) H(X)[1]; Tor terms vanish against S^1."""
    free, tor = h
    f: dict[int, int] = {}
    t: dict[int, tuple[int, ...]] = {}
    for n, r in free.items():
        f[n] = f.get(n, 0) + r
        f[n + 1] = f.get(n + 1, 0) + r
    for n, fac in tor.items():
        for m in (n, n + 1):
            t[m] = tuple(sorted(t.get(m, ()) + fac))
    return f, t


def uct_mod_p(h: Hom, p: int) -> dict[int, int]:
    """dim H_n(X; F_p) = free_n + #(p | torsion_n) + #(p | torsion_{n-1})."""
    free, tor = h
    out: dict[int, int] = {}
    for n in set(free) | set(tor) | {m + 1 for m in tor}:
        v = free.get(n, 0) + sum(1 for d in tor.get(n, ()) if d % p == 0) + \
            sum(1 for d in tor.get(n - 1, ()) if d % p == 0)
        if v:
            out[n] = v
    return out


# ---------------------------------------------------------------------------
# the totalization of a generated category


class Tot:
    """Tot of a generated category, laid out independently of mbflow.

    Generators in total degree n are (object, chain degree, cell) with
    n = chain degree + framing rank; `filt` is the object's index.
    `cols[n][j]` is the boundary of generator j of degree n as a
    {row: value} map into degree n - 1.
    """

    def __init__(self, cat: Category) -> None:
        self.gens: dict[int, list[tuple[int, int, int, int]]] = {}
        for pos, o in enumerate(cat.objects):
            for k, r in enumerate(o.chain.ranks):
                for i in range(r):
                    self.gens.setdefault(k + o.framing, []).append(
                        (o.index, pos, k, i))
        for lst in self.gens.values():
            lst.sort()
        names = [o.name for o in cat.objects]
        where = {}
        for n, lst in self.gens.items():
            for j, (_, pos, k, i) in enumerate(lst):
                where[(names[pos], k, i)] = (n, j)
        self.filt = {n: [g[0] for g in lst] for n, lst in self.gens.items()}
        self.cols: dict[int, list[dict[int, int]]] = {
            n: [{} for _ in lst] for n, lst in self.gens.items()}

        def put(src: tuple, dst: tuple, v: int) -> None:
            n, j = where[src]
            m, i = where[dst]
            if m != n - 1:
                raise AssertionError("block does not lower total degree")
            col = self.cols[n][j]
            s = col.get(i, 0) + v
            if s:
                col[i] = s
            else:
                col.pop(i)

        for o in cat.objects:
            for k, m in o.chain.diffs.items():
                for (r, c), v in m.items():
                    put((o.name, k, c), (o.name, k - 1, r), v)
        for c in cat.corrs:
            sh = corr_shift(cat, c)
            for m, blk in c.blocks.items():
                for (r, cc), v in blk.items():
                    put((c.source, m, cc), (c.target, m + sh, r), v)
        self._check_dd()

    def degrees(self) -> range:
        return range(min(self.gens), max(self.gens) + 1)

    def dim(self, n: int, keep=None) -> int:
        f = self.filt.get(n, [])
        return len(f) if keep is None else sum(1 for p in f if keep(p))

    def _check_dd(self) -> None:
        """The generator's promise: D.D = 0 on the whole totalization."""
        for n in self.gens:
            for j, col in enumerate(self.cols[n]):
                acc: dict[int, int] = {}
                for i, v in col.items():
                    for r, w in self.cols.get(n - 1, [{}] * (i + 1))[i].items():
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    raise AssertionError(f"D.D != 0 on generator {j} of "
                                         f"degree {n}")

    def rank(self, n: int, p: int, rows=None, cols=None) -> int:
        """Rank of D_n mod p, optionally restricted to rows/cols whose
        filtration passes the given predicates."""
        fr = self.filt.get(n - 1, [])
        fc = self.filt.get(n, [])
        vecs = []
        for j, col in enumerate(self.cols.get(n, [])):
            if cols is not None and not cols(fc[j]):
                continue
            vec = {i: v % p for i, v in col.items()
                   if (rows is None or rows(fr[i])) and v % p}
            if vec:
                vecs.append(vec)
        return _rank_mod(vecs, p)

    def betti(self, p: int, keep=None) -> dict[int, int]:
        """Homology dimensions over F_p (p = 0 means Q) of the subquotient
        spanned by generators whose filtration passes `keep`."""
        ranks = {n: self._rank0(n, p, keep, keep) for n in
                 range(min(self.gens), max(self.gens) + 2)}
        out = {}
        for n in self.degrees():
            h = self.dim(n, keep) - ranks[n] - ranks[n + 1]
            if h:
                out[n] = h
        return out

    def _rank0(self, n: int, p: int, rows=None, cols=None) -> int:
        if p:
            return self.rank(n, p, rows, cols)
        return max(self.rank(n, q, rows, cols) for q in PRIMES)

    def les(self, cut: int, p: int) -> dict:
        """Long exact sequence of F_cut -> Tot -> Tot/F_cut, ranks only.

        rank(i_*) on H_n = dim Z_n(sub) - dim(B_n(tot) inside sub), where
        the latter is rank D_{n+1} minus the rank of its quotient rows;
        the connecting map into H_n(sub) has rank h_n(sub) - rank(i_*).
        """
        sub = lambda f: f <= cut
        quot = lambda f: f > cut
        h_sub, h_quot, h_tot = self.betti(p, sub), self.betti(p, quot), \
            self.betti(p)
        conn = {}
        for n in self.degrees():
            z_sub = self.dim(n, sub) - self._rank0(n, p, sub, sub)
            b_tot = self._rank0(n + 1, p)
            b_out = self._rank0(n + 1, p, rows=quot)
            i_rank = z_sub - (b_tot - b_out)
            c = h_sub.get(n, 0) - i_rank
            if c:
                conn[n + 1] = c
        return {"sub": h_sub, "quot": h_quot, "tot": h_tot, "conn": conn}

    def spectral_sequence_f2(self, max_page: int) -> dict:
        """All pages of the index spectral sequence over F_2 from one
        column reduction in filtration order: a pair (s, t) with
        filtration gap g lives on pages r <= g at both ends and is
        killed by d_g; unpaired generators form E-infinity."""
        order = sorted(((self.filt[n][j], n, j) for n in self.gens
                        for j in range(len(self.gens[n]))))
        rank_of = {(n, j): r for r, (_, n, j) in enumerate(order)}
        low_owner: dict[int, int] = {}
        cols: dict[int, int] = {}
        partner: dict[int, int] = {}
        for r, (_, n, j) in enumerate(order):
            bits = 0
            for i, v in self.cols[n][j].items():
                if v % 2:
                    bits ^= 1 << rank_of[(n - 1, i)]
            while bits:
                low = bits.bit_length() - 1
                other = low_owner.get(low)
                if other is None:
                    low_owner[low] = r
                    partner[low], partner[r] = r, low
                    break
                bits ^= cols[other]
            cols[r] = bits
        filt = [f for f, _, _ in order]
        deg = [n for _, n, _ in order]
        lo, hi = min(filt), max(filt)
        width = hi - lo

        def gap(r: int) -> float:
            q = partner.get(r)
            return float("inf") if q is None else abs(filt[q] - filt[r])

        pages = []
        for page in range(1, min(max_page, width + 1) + 1):
            dims: dict[tuple[int, int], int] = {}
            ranks: dict[tuple[int, int], int] = {}
            for r in range(len(order)):
                g = gap(r)
                key = (filt[r], deg[r] - filt[r])
                if g >= page:
                    dims[key] = dims.get(key, 0) + 1
                q = partner.get(r)
                if g == page and q is not None and q < r:
                    ranks[key] = ranks.get(key, 0) + 1
            pages.append((page, dims, ranks))
        inf = {}
        limit: dict[int, int] = {}
        for r in range(len(order)):
            if r not in partner:
                key = (filt[r], deg[r] - filt[r])
                inf[key] = inf.get(key, 0) + 1
                limit[deg[r]] = limit.get(deg[r], 0) + 1
        collapsed = next((pg for pg, dims, _ in pages if dims == inf), None)
        return {"pages": pages, "collapsed": collapsed, "limit": limit}


def _rank_mod(vecs: list[dict[int, int]], p: int) -> int:
    """Rank of sparse column vectors mod p (p = 2 uses bitsets)."""
    if p == 2:
        pivots: dict[int, int] = {}
        rank = 0
        for vec in vecs:
            bits = 0
            for i in vec:
                bits |= 1 << i
            while bits:
                low = bits.bit_length() - 1
                if low not in pivots:
                    pivots[low] = bits
                    rank += 1
                    break
                bits ^= pivots[low]
        return rank
    piv: dict[int, dict[int, int]] = {}
    rank = 0
    for vec in vecs:
        v = dict(vec)
        while v:
            lead = max(v)
            row = piv.get(lead)
            if row is None:
                inv = pow(v[lead], p - 2, p)
                piv[lead] = {i: x * inv % p for i, x in v.items()}
                rank += 1
                break
            f = v[lead]
            for i, x in row.items():
                s = (v.get(i, 0) - f * x) % p
                if s:
                    v[i] = s
                else:
                    v.pop(i, None)
    return rank
