"""The workloads: seeded inputs, the commands run on them, and the
oracle check of every answer.

Commands run one at a time in this process (closed loop, one client).
CLI commands go through `mbflow.cli.main(argv)` with stdout and stderr
captured; library-only operations (quotient sequences, include and
quotient) parse the same generated file through `mbflow.cli` and call
the library directly. Rungs are ordered by size; rung 0 is the smallest
and provides the warm-up command and the smoke run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import gen
import oracle

# size ladders: the seed never changes them
SURFACE_RUNGS = (2, 3, 4)                       # n x n grid per rung
WIDE_RUNGS = (16, 32, 48)                       # N per rung
F2_RUNGS = (((2, 1), (2, 2)), ((2, 3), (3, 1)), ((3, 2),))   # (n, N)
QZ_RUNGS = ((("rand", 8), ("borel", (3, 1)), ("sxs", 3)),
            (("borel", (3, 2)), ("sxs", 4)),
            (("borel", (4, 2)), ("sxs", 5)))
RANDOM_GENERATORS = 40
RANDOM_PIECES = 5
SS_MAX_PAGE = 5


@dataclass
class Command:
    """One timed operation. `run` returns its raw result; `check` turns a
    result into a list of mismatches against the oracle."""

    name: str
    label: str
    rung: int
    run: Callable[[], object]
    expect: Callable[[], object]
    compare: Callable[[object, object], list[str]]
    _expected: object = field(default=None, repr=False)
    _have: bool = field(default=False, repr=False)

    def expected(self) -> object:
        if not self._have:
            self._expected = self.expect()
            self._have = True
        return self._expected

    def check(self, result: object) -> list[str]:
        if isinstance(result, BaseException):
            return [f"raised {type(result).__name__}: {result}"]
        return self.compare(result, self.expected())


def execute(cmd: Command) -> object:
    """Run a command; an uncaught exception becomes its result."""
    try:
        return cmd.run()
    except (Exception, SystemExit) as e:  # counted as a failed command
        return e


# ---------------------------------------------------------------------------
# running the program


class Program:
    """Entry points into mbflow, looked up at call time so that wrappers
    installed by the tracer are the ones called."""

    def __init__(self) -> None:
        import mbflow.cli
        import mbflow.flowcat
        import mbflow.homalg
        import mbflow.twisted

        self.cli = mbflow.cli
        self.flowcat = mbflow.flowcat
        self.homalg = mbflow.homalg
        self.twisted = mbflow.twisted

    def main(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def load(self, path: str):
        with open(path, "rb") as fh:
            return self.cli.parse_category(fh.read())

    def quotient(self, path: str, cut: int, field_p: int | None):
        f = self.load(path)
        if field_p is not None:
            f = self.flowcat.category_with_ring(
                f, self.homalg.CoefficientRing.prime_field(field_p))
        return self.twisted.quotient_sequence(self.flowcat.realize(f), cut)

    def split(self, path: str, names: list[str]):
        return self.flowcat.include_and_quotient(self.load(path), names)


# ---------------------------------------------------------------------------
# parsing CLI output


def parse_homology(text: str) -> tuple[str, dict]:
    lines = text.splitlines()
    ring = lines[0].removeprefix("ring: ")
    table = {}
    if lines[1:2] != ["H = 0"]:
        for line in lines[2:]:
            n, free, tor = line.split()
            table[int(n)] = (int(free), () if tor == "-" else
                             tuple(int(x) for x in tor.split(",")))
    return ring, table


def homology_table(free: dict[int, int], tor: dict | None = None) -> dict:
    tor = tor or {}
    return {n: (free.get(n, 0), tuple(tor.get(n, ())))
            for n in sorted(set(free) | set(tor))
            if free.get(n, 0) or tor.get(n)}


def parse_report(text: str) -> dict:
    out = {"equality": False}
    for line in text.splitlines():
        key, _, val = line.partition(":")
        if line == "equality":
            out["equality"] = True
        elif key in ("lhs", "rhs", "witness"):
            out[key] = oracle.poly_str_parse(val)
        else:
            out[key] = val.strip()
    return out


def expected_report(mode: str, lhs: dict, rhs: dict, witness) -> dict:
    holds = witness is not None
    rep = {"mode": mode, "lhs": lhs, "rhs": rhs,
           "holds": "yes" if holds else "no", "equality": holds and not witness}
    if holds:
        rep["witness"] = witness
    return rep


def _cli_compare(code: int, extract: Callable[[str], object] | None = None):
    """Compare (exit code, extracted stdout) against the expectation."""
    def compare(res, want) -> list[str]:
        got_code, out, err = res
        if got_code != code:
            return [f"exit {got_code}, expected {code}: {err.strip()[:200]}"]
        got = extract(out) if extract else out
        return [] if got == want else [f"got {got!r}, expected {want!r}"]
    return compare


def _equals(res, want) -> list[str]:
    return [] if res == want else [f"got {res!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# shared expectations


def free_poly(table: dict) -> dict[int, int]:
    return {n: f for n, (f, _) in table.items() if f}


def mb_report(cat: gen.Category, tot_free: dict[int, int],
              object_free: Callable[[gen.Obj], dict[int, int]]) -> dict:
    rhs: dict[int, int] = {}
    for o in cat.objects:
        for d, r in object_free(o).items():
            rhs[d + o.framing] = rhs.get(d + o.framing, 0) + r
    rhs = {e: c for e, c in rhs.items() if c}
    witness = oracle.one_plus_t_quotient(oracle.psub(rhs, tot_free))
    return expected_report("partial_order", tot_free, rhs, witness)


def les_compare(cut_pieces):
    """Compare a QuotientSequence with the oracle's LES ranks."""
    def compare(qs, want) -> list[str]:
        bad = []
        if not qs.audit.exact:
            bad.append(f"audit not exact: {qs.audit.failures[:2]}")
        conn = dict(qs.audit.connecting_rank)
        if conn != want["conn"]:
            bad.append(f"connecting ranks {conn}, expected {want['conn']}")
        for n in set(want["tot"]) | set(want["sub"]) | set(want["quot"]):
            lhs = want["tot"].get(n, 0)
            rhs = want["sub"].get(n, 0) + want["quot"].get(n, 0) - \
                conn.get(n + 1, 0) - conn.get(n, 0)
            if lhs != rhs:
                bad.append(f"LES bookkeeping fails in degree {n}")
        sub, quot = cut_pieces
        if qs.sub.indices() != sub or qs.quotient.indices() != quot:
            bad.append("wrong pieces in the split")
        return bad
    return compare


# ---------------------------------------------------------------------------
# workload builders


class Builder:
    def __init__(self, workdir: str, seed: int, prog: Program) -> None:
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.prog = prog
        self.commands: list[Command] = []

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def cli(self, rung: int, label: str, argv: list[str], expect, code: int,
            extract=None) -> None:
        name = " ".join([argv[0]] + [a for a in argv[1:]
                                     if a.startswith("--")])
        self.commands.append(Command(
            name, label, rung, lambda: self.prog.main(argv), expect,
            _cli_compare(code, extract)))

    def quotients(self, rung: int, label: str, cat: gen.Category, path: str,
                  field_p: int | None, split: bool) -> None:
        indices = sorted({o.index for o in cat.objects})
        tot = []

        def les(cut):
            if not tot:
                tot.append(oracle.Tot(cat))
            return tot[0].les(cut, field_p or 0)

        for cut in indices[:-1]:
            pieces = ([i for i in indices if i <= cut],
                      [i for i in indices if i > cut])
            self.commands.append(Command(
                "quotient_sequence", f"{label} cut {cut}", rung,
                lambda c=cut: self.prog.quotient(path, c, field_p),
                lambda c=cut: les(c), les_compare(pieces)))
        if split:
            cut = indices[(len(indices) - 1) // 2]
            names = [o.name for o in cat.objects if o.index <= cut]
            sub_corrs = sum(1 for c in cat.corrs if c.source in names)
            quot_corrs = sum(1 for c in cat.corrs if c.source not in names
                             and c.target not in names)
            rest = [o.name for o in cat.objects if o.name not in names]
            self.commands.append(Command(
                "include_and_quotient", f"{label} cut {cut}", rung,
                lambda: self.prog.split(path, names),
                lambda: (names, rest, sub_corrs, quot_corrs),
                lambda res, want: _equals(
                    ([o.name for o in res[0].objects],
                     [o.name for o in res[1].objects],
                     len(res[0].correspondences), len(res[1].correspondences)),
                    want)))


def surfaces_z(b: Builder) -> None:
    """Sigma x S^1 for the n x n torus and Klein bottle: integer homology,
    F_2 homology, the Morse-Bott bound, Poincare series and the cone of
    the identity bimodule."""
    for rung, n in enumerate(SURFACE_RUNGS):
        for kind in "TK":
            cat = gen.permute(gen.sigma_cross_circle(kind, n), b.rng)
            label = f"{kind}{n}xS1"
            path = b.write(label, gen.to_json(cat))
            bim = b.write(label + "_id", gen.identity_bimodule_json(cat))
            h = oracle.kunneth_circle(oracle.SURFACE[kind])
            table = homology_table(*h)

            def self_check(cat=cat, h=h):
                # the generated complex must carry the closed-form answer
                t = oracle.Tot(cat)
                if t.betti(0) != h[0] or t.betti(2) != oracle.uct_mod_p(h, 2):
                    raise AssertionError("generated surface has wrong homology")

            def expect_z(table=table, check=self_check):
                check()
                return ("Z", table)

            b.cli(rung, label, ["homology", path], expect_z, 0,
                  parse_homology)
            b.cli(rung, label, ["homology", path, "--ring", "Fp:2"],
                  lambda h=h: ("Fp:2", homology_table(oracle.uct_mod_p(h, 2))),
                  0, parse_homology)
            sig = oracle.SURFACE[kind][0]
            rep = mb_report(cat, free_poly(table), lambda o, s=sig: s)
            b.cli(rung, label, ["check-ineq", path], lambda r=rep: r, 0,
                  parse_report)
            b.cli(rung, label, ["poincare", path],
                  lambda t=table: free_poly(t), 0,
                  lambda out: oracle.poly_str_parse(out.split("=", 1)[1]))
            b.cli(rung, label, ["cone", path, path, bim],
                  lambda: "cone homology:\nring: Z\nH = 0\n"
                          "quasi-isomorphism: yes\n", 0)


def wide_categories(b: Builder) -> None:
    """cpn_act, free_circle_borel and s2_rotation_borel on a ladder of N,
    plus one sign-flipped Morse torus that must fail validation."""
    for rung, big_n in enumerate(WIDE_RUNGS):
        cells_s2 = {}
        for k in range(big_n + 1):
            for d in (2 * k, 2 * k + 2):
                cells_s2[d] = cells_s2.get(d, 0) + 1
        families = (
            ("cpn", gen.cpn_act(big_n),
             {2 * i: 1 for i in range(big_n + 1)}),
            ("fcb", gen.free_circle_borel(big_n), {0: 1, 2 * big_n + 1: 1}),
            ("s2b", gen.s2_rotation_borel(big_n), cells_s2),
        )
        for fam, cat, free in families:
            cat = gen.permute(cat, b.rng)
            label = f"{fam}{big_n}"
            path = b.write(label, gen.to_json(cat))
            table = homology_table(free)
            b.cli(rung, label, ["validate", path],
                  lambda c=cat: f"valid: {len(c.objects)} objects, "
                                f"{len(c.corrs)} correspondences\n", 0)
            b.cli(rung, label, ["homology", path], lambda t=table: ("Z", t),
                  0, parse_homology)
            b.cli(rung, label, ["poincare", path], lambda f=free: f, 0,
                  lambda out: oracle.poly_str_parse(out.split("=", 1)[1]))
            b.cli(rung, label, ["dual", path],
                  lambda f=free: ("Z", homology_table(
                      {-n: r for n, r in f.items()})), 0, parse_homology)

            def obj_free(o):
                return {0: 1, 1: 1} if len(o.chain.ranks) == 2 else {0: 1}

            rep = mb_report(cat, free, obj_free)
            b.cli(rung, label, ["check-ineq", path], lambda r=rep: r, 0,
                  parse_report)
            if cat.borel is None:
                continue
            cutoff = 2 * big_n - 1
            lhs = {d: r for d, r in free.items() if d <= cutoff}
            fiber = [cat.obj(f"{x}@0") for x in cat.borel[1]]
            rhs = {}
            for d in range(cutoff + 1):
                tot = sum(obj_free(x).get(d - 2 * k - x.framing, 0)
                          for k in range(big_n + 1) for x in fiber)
                if tot:
                    rhs[d] = tot
            # the Borel families meet the bound, so the witness is rhs - lhs
            rep = expected_report("equivariant", lhs, rhs,
                                  oracle.psub(rhs, lhs))
            b.cli(rung, label, ["check-ineq", path, "--equivariant",
                                "--cutoff", str(cutoff)],
                  lambda r=rep: r, 0, parse_report)
    flipped = gen.flip_one_sign(
        gen.permute(gen.morse_surface("T", 3), b.rng), b.rng)
    path = b.write("morse_T3_flipped", gen.to_json(flipped))

    def broken(res, want) -> list[str]:
        code, out, err = res
        if code != 1 or out or want not in err:
            return [f"exit {code}, stderr {err.strip()[:200]!r}"]
        return []

    b.commands.append(Command(
        "validate", "morse_T3_flipped", 0,
        lambda: b.prog.main(["validate", path]),
        lambda: "D.D is nonzero", broken))


def filtered_f2(b: Builder) -> None:
    """Borel products over the n x n torus: the F_2 spectral sequence and
    the F_2 quotient sequence at every index cut."""
    for rung, sizes in enumerate(F2_RUNGS):
        for n, big_n in sizes:
            cat = gen.permute(gen.borel_surface(n, big_n), b.rng)
            label = f"borelT{n}x{big_n}"
            path = b.write(label, gen.to_json(cat))

            def expect_ss(cat=cat):
                ss = oracle.Tot(cat).spectral_sequence_f2(SS_MAX_PAGE)
                lines = []
                for page, dims, ranks in ss["pages"]:
                    lines.append(f"page {page}")
                    lines += [f"  E[{p},{q}] dim {d}"
                              for (p, q), d in sorted(dims.items())]
                    lines += [f"  d{page} E[{p},{q}] -> "
                              f"E[{p - page},{q + page - 1}] rank {r}"
                              for (p, q), r in sorted(ranks.items())]
                if ss["collapsed"] is not None:
                    lines.append(f"collapsed at page {ss['collapsed']}")
                lines.append("limit")
                lines += [f"  degree {d}: dim {v}"
                          for d, v in sorted(ss["limit"].items())]
                return "\n".join(lines) + "\n"

            b.cli(rung, label, ["ss", path, "--field", "2"], expect_ss, 0)
            b.quotients(rung, label, cat, path, 2, split=False)


def quotients_z(b: Builder) -> None:
    """Integral quotient sequences at every cut plus include_and_quotient,
    on Borel surfaces, Sigma x S^1 and random twisted complexes."""
    for rung, inputs in enumerate(QZ_RUNGS):
        for kind, size in inputs:
            if kind == "rand":
                # fixed generator seeds: the run seed only permutes bases
                cats = [(f"rand{s}", gen.random_twisted(
                    random.Random(s), RANDOM_GENERATORS, RANDOM_PIECES))
                    for s in range(size)]
            elif kind == "borel":
                cats = [(f"borelT{size[0]}x{size[1]}",
                         gen.borel_surface(*size))]
            else:
                cats = [(f"{k}{size}xS1", gen.sigma_cross_circle(k, size))
                        for k in "TK"]
            for label, cat in cats:
                cat = gen.permute(cat, b.rng)
                path = b.write(label, gen.to_json(cat))
                b.quotients(rung, label, cat, path, None, split=True)


# Each workload runs two command sets, so that a run is long enough to
# average out the host's drift within the time budget: the integral
# kernel and the integral long exact sequence in one, assembly and
# validation with the F_p derived operations in the other.
BUILDERS = {"surfaces_quotients_z": (surfaces_z, quotients_z),
            "wide_filtered_f2": (wide_categories, filtered_f2)}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, workdir: str, prog: Program) -> list[Command]:
    """Generate the workload's files under workdir; return its commands."""
    b = Builder(workdir, seed, prog)
    for part in BUILDERS[name]:
        part(b)
    return b.commands
